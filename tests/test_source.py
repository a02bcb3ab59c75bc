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


# Module-level values a function may change, each with its reason.
MUTABLE_GLOBALS = {
    "diffcore._TAPE_STACK": "the active tape, which every primitive reads through "
                            "_make; bench/tracer.py reads it through _active_tape() "
                            "at every traced layer, so passing a tape explicitly "
                            "waits for a change to the benchmark (ROADMAP.md)",
}
_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
             "update", "setdefault", "add", "discard", "sort", "reverse"}


def test_no_process_global_switches():
    """State is passed explicitly: no module rebinds a global at run time,
    and no function changes a value bound at module level, by a mutating
    method (``.append``, ``.pop``, ``.update``, ...), an item or slice
    assignment or deletion, or an attribute assignment, unless
    ``MUTABLE_GLOBALS`` names it with its reason."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Global)]
    assert not found, f"global statements: {found}"
    mutated = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        module_level = {target.id for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets if isinstance(node, ast.Assign)
                                       else [node.target])
                        if isinstance(target, ast.Name)}
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            a = func.args
            local = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs}
            local |= {node.id for node in ast.walk(func)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATORS:
                    target = node.func.value
                elif isinstance(node, (ast.Subscript, ast.Attribute)) \
                        and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                else:
                    continue
                if isinstance(target, ast.Name) and target.id in module_level - local:
                    mutated.add((f"{path.stem}.{target.id}", f"{path.name}:{node.lineno}"))
    assert {name for name, _ in mutated} == set(MUTABLE_GLOBALS), \
        f"module-level values functions change: {sorted(mutated)}"


def _takes_one_argument(func) -> bool:
    a = func.args
    return len(a.posonlyargs + a.args) == 1 and not (a.vararg or a.kwonlyargs or a.kwarg)


def test_backward_rules_take_only_the_gradient():
    """Every backward rule handed to ``diffcore._make``, a lambda or a
    function defined in the caller, takes exactly one argument, the
    gradient of the node's output, and returns one gradient per operand:
    the tape, not the rule, drops those of operands that require none."""
    rules, found = 0, []

    def visit(node, scopes):
        nonlocal rules
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and \
                    getattr(child.func, "id", getattr(child.func, "attr", None)) == "_make":
                where = f"{path.name}:{child.lineno}"
                rule = (child.args[2:] or [k.value for k in child.keywords
                                           if k.arg == "backward_fn"])[0]
                if isinstance(rule, ast.Name):
                    rule = next((d for scope in reversed(scopes) for d in scope.body
                                 if isinstance(d, ast.FunctionDef) and d.name == rule.id),
                                rule)
                rules += 1
                if not isinstance(rule, (ast.Lambda, ast.FunctionDef)):
                    found.append(f"{where} a rule defined elsewhere")
                elif not _takes_one_argument(rule):
                    found.append(f"{where} takes {[x.arg for x in rule.args.args]}")
            visit(child, scopes + [child] if isinstance(child, ast.FunctionDef) else scopes)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), [])
    assert rules and not found, f"{rules} rules; not taking only the gradient: {found}"


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


SEEDED_RANDOM = {"default_rng", "SeedSequence", "Generator"}


def test_randomness_is_seeded_generators_only():
    """Every random draw comes from a generator seeded by the caller:
    ``np.random`` is used only for ``default_rng``, ``SeedSequence`` and
    ``Generator``, and no module imports ``random`` or names from
    ``numpy.random``, as numpy's global generator is process state that
    two runs need not share."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        parent = {id(child): node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                found += [f"{where} import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] == "random"
                          or alias.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                if module.split(".")[0] == "random" or module.startswith("numpy.random") \
                        or (module == "numpy" and any(a.name == "random" for a in node.names)):
                    found.append(f"{where} from {module} import ...")
            elif isinstance(node, ast.Attribute) and node.attr == "random" \
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                use = parent.get(id(node))
                if not (isinstance(use, ast.Attribute) and use.attr in SEEDED_RANDOM):
                    found.append(f"{where} np.random.{getattr(use, 'attr', '')}")
    assert not found, f"randomness outside seeded generators: {found}"


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


# Fields whose name other program dataclasses share and that are read
# only through a value of no declared type, each with the line that reads
# it on its own class.
SHARED_FIELD_READERS = {
    "DecodedFrame.y": "train.py:119",
    "Sprite.y": "datagen.py:140",
    "TrackedSegmentation.frames": "cli.py:55",
}


def _annotated_class(annotation) -> str | None:
    """The class name an annotation names: ``X``, ``mod.X`` or ``"X"``."""
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.rsplit(".", 1)[-1]
    return None


def test_every_dataclass_field_has_a_reader():
    """Every field of every dataclass of the program (config sections,
    scenes, results) is read as an attribute somewhere in the program or
    its benchmark: a knob nothing reads changes nothing, and a result
    field nothing reads is work for no one. Tests do not count.

    A field whose name another program dataclass shares counts as read
    only on its own class: through ``self`` in the class's methods, or
    through a parameter annotated with the class. Any other such field is
    in ``SHARED_FIELD_READERS`` with the line that reads it."""
    classes = {cls for path in SOURCES
               for _, cls in inspect.getmembers(importlib.import_module(f"solv.{path.stem}"),
                                                dataclasses.is_dataclass)
               if cls.__module__ == f"solv.{path.stem}"}
    assert {"RunConfig", "SceneSpec", "TrackedSegmentation", "DecodedFrame"} <= \
        {cls.__name__ for cls in classes}
    names = {cls.__name__ for cls in classes}
    owners = {}
    for cls in classes:
        for f in dataclasses.fields(cls):
            owners.setdefault(f.name, []).append(cls.__name__)
    read, read_on = set(), set()
    for path in SOURCES + BENCH:
        tree = ast.parse(path.read_text(), str(path))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        typed = [(func, func.args.args[0].arg, cls.name) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name in names
                 for func in cls.body
                 if isinstance(func, ast.FunctionDef) and func.args.args]
        typed += [(func, arg.arg, _annotated_class(arg.annotation))
                  for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                  for arg in func.args.posonlyargs + func.args.args + func.args.kwonlyargs
                  if _annotated_class(arg.annotation) in names]
        read_on |= {(owner, node.attr) for func, var, owner in typed
                    for node in ast.walk(func)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id == var}
    unread, listed = [], {}
    for cls in classes:
        for f in dataclasses.fields(cls):
            key = f"{cls.__name__}.{f.name}"
            if len(owners[f.name]) == 1 and f.name in read:
                continue
            if len(owners[f.name]) > 1 and (cls.__name__, f.name) in read_on:
                assert key not in SHARED_FIELD_READERS, f"{key} is read on its class"
                continue
            if key in SHARED_FIELD_READERS:
                listed[key] = SHARED_FIELD_READERS[key]
            else:
                unread.append(key)
    assert not unread, f"dataclass fields nothing reads on their own class: {sorted(unread)}"
    assert listed == SHARED_FIELD_READERS
    root = Path(solv.__file__).parent
    for key, where in listed.items():
        file, line = where.split(":")
        attr = key.split(".")[1]
        assert any(isinstance(node, ast.Attribute) and node.attr == attr
                   and isinstance(node.ctx, ast.Load) and node.lineno == int(line)
                   for node in ast.walk(ast.parse((root / file).read_text()))), \
            f"{where} does not read .{attr} for {key}"


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


# ---------------------------------------------------------------------------
# Every function, parameter and default has a program caller
# ---------------------------------------------------------------------------

# Parameters no program call passes, each kept for its reason.
UNPASSED = {
    "cli.main(argv)": "the console-script entry point calls main() with no "
                      "arguments; argv lets a caller hand it a command line",
}
# Defaults every program call overrides, each kept for its reason.
OVERRIDDEN = {
    "datagen.dataset_split(frames)": "bench/workloads.py passes frames by keyword and "
                                     "omits the defaults before it, so frames cannot "
                                     "become required where it stands",
}


def _program_surface():
    """The module-level functions and class methods of ``src/solv``, each
    as (def node, whether it is a method); the keys every load of a name
    in ``src/solv`` and ``bench/*.py`` refers to; the (key, call node) of
    every call there; and the functions used as values, which are called
    through the value. Tests do not count.

    A name resolves through the module that holds it or the import that
    binds it: ``objecthead.decode(...)`` calls the module's function,
    ``dc.mlp`` names ``diffcore.mlp``, and a bare ``train(...)`` in
    ``ablate`` calls what ``from .train import train`` binds.
    ``Class(...)`` calls ``Class.__init__``. An attribute of any other
    value, as in ``pipe.decode(...)``, calls or names every method and
    property of that name; one of a module outside the program
    (``json.load``, ``np.take``) names none. Functions nested in others
    are out of scope: they are closures their parent hands on."""
    defs, classes, methods = {}, {}, {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs[f"{path.stem}.{node.name}"] = (node, False)
            elif isinstance(node, ast.ClassDef):
                classes[(path.stem, node.name)] = f"{path.stem}.{node.name}.__init__"
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{path.stem}.{node.name}.{item.name}"
                        defs[key] = (item, True)
                        methods.setdefault(item.name, []).append(key)

    def resolve(stem, name):
        if (stem, name) in classes:
            return [classes[(stem, name)]]
        return [f"{stem}.{name}"] if f"{stem}.{name}" in defs else []

    referenced, calls, escaped = set(), [], set()
    for path in SOURCES + BENCH:
        tree = ast.parse(path.read_text(), str(path))
        own = path.stem if path in SOURCES else None
        modules, imported, foreign = {}, {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.level == 0 and module.split(".")[0] != "solv":
                        foreign.add(bound)
                    elif module in ("", "solv"):
                        modules[bound] = alias.name
                    else:
                        imported[bound] = (module.rsplit(".", 1)[-1], alias.name)
            elif isinstance(node, ast.Import):
                foreign.update((alias.asname or alias.name).split(".")[0]
                               for alias in node.names)

        def targets(node):
            if isinstance(node, ast.Name):
                return resolve(*imported.get(node.id, (own, node.id)))
            base = node.value
            if isinstance(base, ast.Name) and base.id in modules:
                return resolve(modules[base.id], node.attr)
            if isinstance(base, ast.Name) and base.id in foreign:
                return []
            return methods.get(node.attr, [])

        call_of = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                keys = targets(node)
                referenced.update(keys)
                if id(node) in call_of:
                    calls += [(key, call_of[id(node)]) for key in keys]
                else:  # a class named as a type is not called
                    escaped.update(k for k in keys if not k.endswith(".__init__"))
    return defs, referenced, calls, escaped


def _passes(call: ast.Call, index: int, name: str, n_positional: int) -> bool:
    """Whether ``call`` hands parameter ``name``, number ``index`` after
    ``self``, a value; ``*args`` and ``**kwargs`` hand every one."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return index < n_positional
    return index < min(len(call.args), n_positional)


def _signature_findings():
    """``module.function(param)`` of each parameter no program call
    passes, and of each default no program call relies on. Dunders are
    exempt, as the language calls them, except ``__init__``, which the
    calls of its class reach; a property takes no arguments; and the
    parameters of a function used as a value are those of the call it
    is handed to."""
    defs, _, calls, escaped = _program_surface()
    calls_of = {}
    for key, call in calls:
        calls_of.setdefault(key, []).append(call)
    unpassed, overridden = [], []
    for key, (func, method) in defs.items():
        name = key.rsplit(".", 1)[-1]
        if (name.startswith("__") and name != "__init__") or key in escaped or any(
                isinstance(d, ast.Name) and d.id == "property" for d in func.decorator_list):
            continue
        a = func.args
        positional = (a.posonlyargs + a.args)[1 if method else 0:]
        defaults = [False] * (len(positional) - len(a.defaults)) + [True] * len(a.defaults)
        params = list(zip((p.arg for p in positional), defaults))
        params += [(p.arg, d is not None) for p, d in zip(a.kwonlyargs, a.kw_defaults)]
        owner = key.removesuffix(".__init__")
        for index, (param, has_default) in enumerate(params):
            label = f"{owner}({param})"
            passed = [_passes(c, index, param, len(positional)) for c in calls_of.get(key, [])]
            if not any(passed) and label not in UNPASSED:
                unpassed.append(label)
            if has_default and all(passed) and label not in OVERRIDDEN:
                overridden.append(label)
    return unpassed, overridden


def test_every_function_has_a_reference():
    """Every module-level function and method of the program is named by
    the program or its benchmark: code only tests run is surface nobody
    needs. Dunders are exempt, as the language calls them."""
    defs, referenced, _, _ = _program_surface()
    assert {"diffcore.ParamStore.adam_step", "objecthead.decode", "model.Pipeline.decode"} \
        <= referenced
    unused = sorted(key for key in defs if key not in referenced
                    and not key.rsplit(".", 1)[-1].startswith("__"))
    assert not unused, f"functions nothing in src/solv or bench references: {unused}"


def test_every_parameter_is_passed_by_a_program_call():
    """Every parameter of a program function is passed by some call in
    the program or its benchmark: a parameter no caller sets is a
    constant. ``UNPASSED`` lists the exemptions, each with its reason."""
    unpassed, _ = _signature_findings()
    assert not unpassed, f"parameters no program call passes: {unpassed}"


def test_every_default_is_omitted_by_a_program_call():
    """Every default of a program function is relied on by some call in
    the program or its benchmark: a default every caller overrides only
    restates a value the callers already hold, most often a config field.
    ``OVERRIDDEN`` lists the exemptions, each with its reason."""
    _, overridden = _signature_findings()
    assert not overridden, f"defaults every program call overrides: {overridden}"
