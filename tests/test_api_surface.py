"""The package's surface: every public name has a caller, no module reads
another's private names, and the stage modules hold no state.

For the callers, the package is parsed with :mod:`ast`, not imported. A
public name (one without a leading underscore) defined at the top level of
a module counts as used when some top-level statement of ``src/cpalign``
other than its own definition reads it, as a bare name or as an attribute.
Re-exports in a package ``__init__`` do not count, and neither do reads
from inside a definition that is itself unused, so a helper that only an
unused helper calls is reported too.
"""

import ast
import importlib
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cpalign"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_public_names(root: Path = SRC) -> list:
    """``module:name`` of every public top-level definition without a caller."""
    public = {}   # (module, name) -> name
    readers = {}  # name -> owners of the statements that read it
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.relative_to(root).with_suffix("").as_posix().replace("/", ".")
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            # module-level code has no owner: what it reads is always used
            owner = None
            if isinstance(stmt, _DEFS):
                owner = (module, stmt.name)
                if not stmt.name.startswith("_"):
                    public[owner] = stmt.name
            for name in _reads(stmt):
                readers.setdefault(name, set()).add(owner)
    unused = set()
    while True:
        found = {key for key, name in public.items() if key not in unused
                 and readers.get(name, set()) <= unused | {key}}
        if not found:
            return sorted(f"{module}:{name}" for module, name in unused)
        unused |= found


def test_every_public_name_has_a_caller_in_the_package():
    assert unused_public_names() == []


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
                     "temporal_align", "instance_fusion", "opcount")


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
