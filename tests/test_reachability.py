"""Guard against regrowth of code no report reaches.

Every non-dunder function, class and method defined in ``src/qfemlab`` must
be named somewhere in the package outside its own definition and
``__init__.py``, or be on the allowlist below with its reason. Names are
matched as identifiers (``name`` or ``obj.name``), not resolved, so a
definition that shares its name with an attribute of another object (for
example ``nnz`` on a SciPy array) counts as reached.
"""
import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qfemlab"

ALLOWED = {
    "eval_basis": "test reference: the pointwise basis function the batched kernels are checked against",
    "eval_basis_grad": "test reference: the pointwise basis gradient behind the brute-force stiffness check",
    "exact_functional_1d": "test reference: the exact functional the estimators are checked against",
    "to_dense": "test reference: the dense matrix behind every eigvalsh/solve cross-check",
    "from_dense": "test constructor for small hand-written matrices",
    "identity": "test constructor for the identity cases of CG, norm estimation and SPAI",
    "spai_preconditioner": "preconditioner kept until the a-priori lambda_min bound settles preconditioned CG (ROADMAP)",
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


def unreached() -> list[tuple[str, str]]:
    """(where, name) of every definition named nowhere else in the package."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        (f"{path.name}:{node.lineno}", node.name)
        for path, tree in trees.items()
        for node in _definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _names(node)[node.name]
    ]


def test_every_definition_is_reached_or_allowed():
    assert [f"{where} {name}" for where, name in unreached() if name not in ALLOWED] == []


def test_allowlist_is_not_stale():
    # an entry whose definition is now reached, or gone, should leave the list
    assert sorted(set(ALLOWED) - {name for _, name in unreached()}) == []
