"""Source-level rules for the program itself."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import solv
from solv import datagen
from solv.config import load_config

SOURCES = sorted(Path(solv.__file__).parent.glob("*.py"))
BENCH = sorted((Path(__file__).resolve().parent.parent / "bench").glob("*.py"))


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


def test_every_dataclass_field_has_a_reader():
    """Every field of every dataclass of the program (config sections,
    scenes, results) is read as an attribute somewhere in the program or
    its benchmark: a knob nothing reads changes nothing, and a result
    field nothing reads is work for no one. Tests do not count."""
    read = {node.attr for path in SOURCES + BENCH
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = {cls for path in SOURCES
               for _, cls in inspect.getmembers(importlib.import_module(f"solv.{path.stem}"),
                                                dataclasses.is_dataclass)
               if cls.__module__ == f"solv.{path.stem}"}
    assert {"RunConfig", "SceneSpec", "TrackedSegmentation", "DecodedFrame"} <= \
        {cls.__name__ for cls in classes}
    unread = sorted(f"{cls.__name__}.{f.name}" for cls in classes
                    for f in dataclasses.fields(cls) if f.name not in read)
    assert not unread, f"dataclass fields nothing reads: {unread}"


def test_no_unused_imports():
    """Every name a module imports is loaded in that module; the package's
    ``__init__.py`` is exempt, as its imports are re-exports."""
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {bound}" for alias in node.names
                          if (bound := alias.asname or alias.name.split(".")[0])
                          not in loaded]
    assert not found, f"imported names nothing loads: {found}"


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
