"""The package holds only what the program runs: every function and method
defined in ``floqcc`` is used somewhere else in it, and every exception
class it defines is raised by it.  Reference engines that only the tests
call live in ``tests/reference.py``.  Every default of a parameter is
overridden by some call, in the package, its tests or its benchmarks; one
that none overrides is a parameter nothing needs.  Every module-level
UPPER_CASE constant is read by some code in the package.  No module imports
``scipy.sparse``, whose import alone adds some 3.6 MB to the peak memory
of a solving process."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import floqcc


def _references(node: ast.AST) -> Counter:
    """Uses under ``node``: a bare or imported name as ("name", id), an
    attribute as ("attr", name)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            found["attr", n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            found.update(("name", alias.name) for alias in n.names)
    return found


def _definitions(tree: ast.Module):
    """(label, key, node) for each module-level function and each method of
    a class body, but dunders and properties."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, ("name", node.name), node
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                dunder = f.name.startswith("__") and f.name.endswith("__")
                prop = any(
                    isinstance(d, ast.Name) and d.id in ("property", "cached_property")
                    for d in f.decorator_list
                )
                if not (dunder or prop):
                    yield f"{node.name}.{f.name}", ("attr", f.name), f


def _trees() -> dict[str, ast.Module]:
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(Path(floqcc.__file__).parent.glob("*.py"))
    }


def test_every_definition_is_used_elsewhere_in_the_package():
    trees = _trees()
    # the package's re-exports are its public surface, not a use
    used = sum((_references(t) for name, t in trees.items() if name != "__init__"), Counter())
    unused = [
        label if "." in label else f"{module}.{label}"
        for module, tree in trees.items()
        for label, key, node in _definitions(tree)
        if used[key] - _references(node)[key] <= 0
    ]
    assert not unused, f"not used inside the package: {unused}"


def _constants(tree: ast.Module):
    """Names that the module's top-level assignments bind in UPPER_CASE,
    with or without a leading underscore."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", n.id):
                    yield n.id


def _reads(node: ast.AST) -> set[str]:
    """Names read under ``node``: a bare name or an attribute, loaded."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found.add(n.attr)
    return found


def test_every_constant_is_read_in_the_package():
    # a constant nothing reads is left over from code that was deleted
    trees = _trees()
    read = set().union(*(_reads(t) for t in trees.values()))
    unread = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _constants(tree)
        if name not in read
    ]
    assert not unread, f"constants no code in the package reads: {unread}"


def _raised(node: ast.AST) -> set[str]:
    """Names of what the ``raise`` statements under ``node`` construct:
    ``raise E(...)`` or ``raise E``, E a bare or dotted name."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_exception_class_is_raised_in_the_package():
    trees = _trees()
    raised = set().union(*(_raised(t) for t in trees.values()))
    unraised = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(importlib.import_module(f"floqcc.{module}"), node.name), BaseException)
        and node.name not in raised
    ]
    assert not unraised, f"exception classes no raise constructs: {unraised}"


def _sparse_imports(tree: ast.Module) -> list[int]:
    """Lines of the statements anywhere under ``tree``, function bodies
    included, that import ``scipy.sparse`` or a module below it:
    ``import scipy.sparse...``, ``from scipy.sparse... import`` or
    ``from scipy import sparse``."""
    lines = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names = [alias.name for alias in n.names]
        elif isinstance(n, ast.ImportFrom) and n.level == 0:
            names = [n.module] + [f"{n.module}.{alias.name}" for alias in n.names]
        else:
            continue
        if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
            lines.append(n.lineno)
    return lines


def test_no_module_imports_scipy_sparse():
    found = [
        f"{module}.py:{line}" for module, tree in _trees().items() for line in _sparse_imports(tree)
    ]
    assert not found, f"scipy.sparse imported at {found}"


def _signatures(tree: ast.Module):
    """(label, callee name, defaulted parameters) of every function and
    method, nested ones included; a class's ``__init__`` is called by the
    class name.  Each defaulted parameter is (name, the position of the
    call's argument that binds it, or None for a keyword-only one): a
    method's positions start after the ``self`` or ``cls`` the call does
    not pass, but a static method's do not."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if isinstance(f, ast.FunctionDef):
                    methods[f] = node.name
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        owner = methods.get(f)
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list)
        offset = 1 if owner and not static else 0
        positional = f.args.posonlyargs + f.args.args
        first = len(positional) - len(f.args.defaults)
        defaulted = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
        defaulted += [
            (a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None
        ]
        if not defaulted:
            continue
        label = f"{owner}.{f.name}" if owner else f.name
        callee = owner if owner and f.name == "__init__" else f.name
        yield label, callee, defaulted


def _calls_by_name(roots: list[Path]) -> dict[str, list[ast.Call]]:
    """Every call under the ``roots``, by the name it calls: a bare name or
    the last attribute of a dotted one."""
    calls: dict[str, list[ast.Call]] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(n, ast.Call):
                    continue
                if isinstance(n.func, ast.Name):
                    calls.setdefault(n.func.id, []).append(n)
                elif isinstance(n.func, ast.Attribute):
                    calls.setdefault(n.func.attr, []).append(n)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``: by
    keyword or by position, and always when it unpacks ``*args`` or
    ``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_overridden_somewhere():
    # a default no call overrides is a parameter the program does not need
    root = Path(__file__).resolve().parent.parent
    calls = _calls_by_name([root / "src", root / "tests", root / "benchmarks"])
    unpassed = [
        f"{module}.{label}({name})"
        for module, tree in _trees().items()
        for label, callee, defaulted in _signatures(tree)
        for name, position in defaulted
        if not any(_passes(call, name, position) for call in calls.get(callee, []))
    ]
    assert not unpassed, f"defaulted parameters no call passes: {unpassed}"
