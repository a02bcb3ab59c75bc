"""Source-level rules for the program itself."""

import ast
from pathlib import Path

import solv

SOURCES = sorted(Path(solv.__file__).parent.glob("*.py"))


def test_no_process_global_switches():
    """State is passed explicitly: no module rebinds a global at run time."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"
