"""Source-level rules for the program itself."""

import ast
import dataclasses
from pathlib import Path

import solv
from solv import datagen
from solv.config import _SECTIONS, load_config

SOURCES = sorted(Path(solv.__file__).parent.glob("*.py"))


def test_no_process_global_switches():
    """State is passed explicitly: no module rebinds a global at run time."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"


def test_no_module_starts_threads_or_processes():
    """The program runs on one thread: no module imports a threading,
    process or queue library."""
    banned = {"threading", "concurrent", "multiprocessing", "queue"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in banned]
    assert not found, f"thread, process or queue imports: {found}"


def test_json_files_go_through_diffcore():
    """Every JSON file is parsed by ``diffcore.read_json_object`` and
    written by ``diffcore.write_json``: no other module calls
    ``json.load``, ``json.loads`` or ``json.dump`` (``json.dumps`` stays
    free for the config digest and command output)."""
    banned = {"load", "loads", "dump"}
    found = []
    for path in SOURCES:
        if path.name == "diffcore.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in banned \
                    and isinstance(node.value, ast.Name) and node.value.id == "json":
                found.append(f"{path.name}:{node.lineno} json.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{path.name}:{node.lineno} from json import {alias.name}"
                          for alias in node.names if alias.name in banned]
    assert not found, f"JSON read or written outside diffcore: {found}"


def test_imports_are_at_module_level():
    """No function imports: every import is at the top of its module, where
    the dependencies between modules can be read."""
    found = [f"{path.name}:{inner.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, f"imports inside functions: {found}"


def test_only_score_videos_calls_score_video():
    """One scoring path: ``evalkit.score_videos`` is the only caller of
    ``score_video``, so ``solv evaluate`` and ``solv ablate`` build their
    scores the same way."""
    callers = []
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            callers += [f"{path.stem}.{func.name}:{node.lineno}"
                        for node in ast.walk(func) if isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "score_video"]
    assert [c.split(":")[0] for c in callers] == ["evalkit.score_videos"], callers


def test_every_config_field_has_a_reader():
    """Every field of every config section and of a scene (``Sprite``,
    ``SceneSpec``) is read as an attribute somewhere in the program: a
    knob nothing reads changes nothing."""
    read = {node.attr for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = {**_SECTIONS, "Sprite": datagen.Sprite, "SceneSpec": datagen.SceneSpec}
    unread = [f"{name}.{f.name}" for name, cls in classes.items()
              for f in dataclasses.fields(cls) if f.name not in read]
    assert not unread, f"config or scene fields nothing reads: {unread}"


def test_every_scene_default_is_overridden_somewhere():
    """Every scene field with a default is passed by keyword somewhere in
    the program or its tests: a default nothing overrides is a constant."""
    paths = SOURCES + sorted(Path(__file__).resolve().parent.glob("*.py"))
    passed = {node.arg for path in paths
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.keyword)}
    fixed = [f"{cls.__name__}.{f.name}" for cls in (datagen.Sprite, datagen.SceneSpec)
             for f in dataclasses.fields(cls)
             if f.default is not dataclasses.MISSING and f.name not in passed]
    assert not fixed, f"scene defaults nothing overrides: {fixed}"


def test_the_documented_paper_scale_preset_loads():
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "paper_scale.json"))
    assert (cfg.data.canvas_h, cfg.data.frames) == (336, 5)
