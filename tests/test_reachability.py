"""Guard against regrowth of code and knobs no report reaches.

Every non-dunder function, class and method defined in ``src/qfemlab`` must
be named somewhere in the package outside its own definition and
``__init__.py``, or be on the allowlist below with its reason. Names are
matched as identifiers (``name`` or ``obj.name``), not resolved, so a
definition that shares its name with an attribute of another object (for
example ``nnz`` on a SciPy array) counts as reached.

Likewise every parameter with a default must be passed, by keyword or by
position, at some call in the package, or be on the knob allowlist with its
reason. Calls are matched by the callee's identifier in the same way, and a
call that unpacks ``*args`` or ``**kwargs`` counts as passing every
parameter. Dataclass fields are not covered.
"""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qfemlab"

ALLOWED = {
    "exact_functional_1d": "test reference: the exact functional the estimators are checked against",
    "to_dense": "test reference: the dense matrix behind every eigvalsh/solve cross-check",
    "from_dense": "test constructor for small hand-written matrices",
    "identity": "test constructor for the identity cases of CG and norm estimation",
    "nodes": "test reference: node coordinates for the pointwise oracle behind the prolongation and load tests",
}

ALLOWED_KNOBS = {
    "conjugate_gradient(cap)": "the j-th iterate and exit-3 tests; the work cap of ROADMAP item 8",
    "build_basis(constrain_dirichlet)": "the unconstrained space behind the partition-of-unity and M 1 = 0 oracles",
    "main(argv)": "the entry point: the console script passes nothing, tests pass argv",
}


def _names(node) -> Counter:
    """Identifiers read anywhere under ``node``: bare names and attributes."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def _trees() -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def unreached() -> list[tuple[str, str]]:
    """(where, name) of every definition named nowhere else in the package."""
    trees = _trees()
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        (f"{path.name}:{node.lineno}", node.name)
        for path, tree in trees.items()
        for node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _names(node)[node.name]
    ]


def _defaulted(fn, method):
    """(name, position) of each parameter of ``fn`` that has a default; the
    position counts call arguments, so a method drops self or cls, and a
    keyword-only parameter has none."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first - method):
        yield arg.arg, i
    yield from ((arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None)


def _functions(tree):
    """(function, the identifier its calls use, whether it is bound) for
    every def in ``tree``; ``__init__`` is called by its class name."""
    for node in ast.walk(tree):
        body = node.body if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) else []
        for child in body:
            if isinstance(child, ast.FunctionDef):
                in_class = isinstance(node, ast.ClassDef)
                callee = node.name if in_class and child.name == "__init__" else child.name
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                yield child, callee, in_class and not static


def _passes(call, name, position) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return any(k.arg == name for k in call.keywords) or (position is not None and position < len(call.args))


def unpassed_knobs() -> list[tuple[str, str]]:
    """(where, function(parameter)) of every defaulted parameter that no
    call in the package passes."""
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                calls.setdefault(call.func.id if isinstance(call.func, ast.Name) else call.func.attr, []).append(call)
    return [
        (f"{path.name}:{fn.lineno}", f"{callee}({name})")
        for path, tree in trees.items()
        for fn, callee, method in _functions(tree)
        for name, position in _defaulted(fn, method)
        if not any(_passes(call, name, position) for call in calls.get(callee, []))
    ]


def test_every_definition_is_reached_or_allowed():
    assert [f"{where} {name}" for where, name in unreached() if name not in ALLOWED] == []


def test_allowlist_is_not_stale():
    # an entry whose definition is now reached, or gone, should leave the list
    assert sorted(set(ALLOWED) - {name for _, name in unreached()}) == []


def test_every_defaulted_parameter_is_passed_or_allowed():
    assert [f"{where} {knob}" for where, knob in unpassed_knobs() if knob not in ALLOWED_KNOBS] == []


def test_knob_allowlist_is_not_stale():
    assert sorted(set(ALLOWED_KNOBS) - {knob for _, knob in unpassed_knobs()}) == []
