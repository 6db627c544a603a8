"""The package's surface: every public name has a caller, no module reads
another's private names, and the stage modules hold no state.

For the callers, the package is parsed with :mod:`ast`, not imported. A
public name (one without a leading underscore) defined at the top level of
a module counts as used when some top-level statement of ``src/cpalign``
other than its own definition reads that definition: by name in its own
module, elsewhere through ``from .m import name`` or as ``m.name`` with
``m`` an imported module, so a field of the same name does not count.
Re-exports in a package ``__init__`` do not count, and neither do reads
from inside a definition that is itself unused, so a helper that only an
unused helper calls is reported too. Reads from ``checks`` and
``reference`` (the literal references) count only for their own names.
"""

import ast
import importlib
import threading
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cpalign"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
REFERENCE_READERS = ("checks", "reference")


def _bindings(tree, module, modules) -> dict:
    """Local name -> the package module (a str) or definition (a (module,
    name) pair) an import binds it to; ``module`` is None for a test."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name: a.name.removeprefix("cpalign.")
                      for a in node.names if a.name.startswith("cpalign.")}
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".") if node.level == 0 else (
            module.split(".")[:-node.level] + (node.module or "").split("."))
        if node.level == 0 and parts[0] != "cpalign":
            continue
        source = ".".join(p for p in parts[node.level == 0:] if p)
        for alias in node.names:
            sub = f"{source}.{alias.name}".lstrip(".")
            is_module = sub in modules or f"{sub}.__init__" in modules
            bound[alias.asname or alias.name] = sub if is_module else (source, alias.name)
    return bound


def _resolved_reads(node, bound: dict) -> set:
    """The package definitions ``node`` reads, as (module, name) pairs."""
    loads = [sub for sub in ast.walk(node) if isinstance(getattr(sub, "ctx", None), ast.Load)]
    return ({bound[sub.id] for sub in loads
             if isinstance(sub, ast.Name) and isinstance(bound.get(sub.id), tuple)}
            | {(bound[sub.value.id], sub.attr) for sub in loads
               if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
               and isinstance(bound.get(sub.value.id), str)})


def _readers(root: Path = SRC, tests: Path = TESTS) -> tuple:
    """``(public, readers, importers)``: every public top-level definition
    as (module, name); for each definition the owners of the statements
    that read it, an owner being the reading definition or, always used,
    (module, None) for module-level code and ("tests", None) for a test;
    and the package modules that import ``reference``."""
    modules = {path.relative_to(root).with_suffix("").as_posix().replace("/", "."): path
               for path in sorted(root.rglob("*.py"))}
    files = list(modules.items()) + [(None, p) for p in sorted(tests.glob("*.py"))]
    public, readers, importers = set(), {}, []
    for module, path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = _bindings(tree, module, modules)
        if "reference" in {v if isinstance(v, str) else v[0] for v in bound.values()}:
            importers.append(module)
        if module is None or module.endswith("__init__"):
            for key in _resolved_reads(tree, bound) if module is None else ():
                readers.setdefault(key, set()).add(("tests", None))
            continue
        bound |= {stmt.name: (module, stmt.name) for stmt in tree.body
                  if isinstance(stmt, _DEFS)}
        for stmt in tree.body:
            owner = (module, stmt.name if isinstance(stmt, _DEFS) else None)
            if owner[1] and not owner[1].startswith("_"):
                public.add(owner)
            for key in _resolved_reads(stmt, bound):
                readers.setdefault(key, set()).add(owner)
    return public, readers, importers


def _unused(modules, counts) -> list:
    """``module:name`` of each public definition of ``modules`` whose every
    reader for which ``counts(key, owner)`` holds is itself or unused."""
    public, readers, _ = _readers()
    candidates, unused = {key for key in public if modules(key[0])}, set()
    while True:
        found = {key for key in candidates - unused
                 if all(owner in unused | {key} for owner in readers.get(key, ())
                        if counts(key, owner))}
        if not found:
            return sorted(f"{module}:{name}" for module, name in unused)
        unused |= found


def test_every_public_name_has_a_caller_in_the_package():
    assert _unused(lambda m: m != "reference", lambda key, owner: owner[0] == key[0]
                   or owner[0] not in REFERENCE_READERS + ("tests",)) == []


def test_references_are_read_by_checks_or_tests_and_imported_by_checks_only():
    # a reference read only by other references counts when they are read
    assert _unused(lambda m: m == "reference",
                   lambda key, owner: owner[0] in REFERENCE_READERS + ("tests",)) == []
    assert set(_readers()[2]) <= {"checks", None}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def cross_module_private_reads(root: Path = SRC) -> list:
    """``module:line:name`` of every read of another module's private name.

    A read is ``from m import _name``, or ``m._name`` where ``m`` is bound
    by an import in the reading module.
    """
    found = []
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = set()  # names the imports bind to modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{module}:{node.lineno}:{alias.name}")
                    elif node.level and not node.module:  # from . import mod
                        modules.add(alias.asname or alias.name)
        found += [f"{module}:{node.lineno}:{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules]
    return found


def test_no_module_reads_another_modules_private_names():
    assert cross_module_private_reads() == []


#: Modules of pure functions over explicit weights and specs: whatever is
#: derived from the weights is cached in one place, harness.pipeline.
STATELESS_MODULES = ("numerics", "kernels", "featurizer", "pointcloud", "domain_align",
                     "temporal_align", "instance_fusion", "opcount", "reference")


def _stateful(value) -> bool:
    """A dict, list, set or lock, or an object of the package's own classes
    (such as a memo) that holds one in a field."""
    kinds = (dict, list, set, type(threading.Lock()), type(threading.RLock()))
    if isinstance(value, kinds):
        return True
    return (type(value).__module__.startswith("cpalign.")
            and any(isinstance(v, kinds) for v in getattr(value, "__dict__", {}).values()))


def test_stage_modules_hold_no_state():
    for name in STATELESS_MODULES:
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not {m for m in imported if m.split(".")[0] == "threading"}, name
        module = importlib.import_module(f"cpalign.{name}")
        state = [key for key, value in vars(module).items()
                 if not key.startswith("__") and _stateful(value)]
        assert state == [], (name, state)
