"""Guard against regrowth of code and knobs no report reaches.

Every non-dunder function, class and method defined in ``src/qfemlab`` must
be reached from the command line, or be on the allowlist below with its
reason. Reach is transitive: ``cli.main`` and the module-level code of each
module (``__init__.py`` aside) are reached, and a definition is reached when
a reached definition or that module-level code names it. A class is reached
with its dunder methods and its class-level statements; its other methods
are definitions of their own. Names are matched as identifiers, not
resolved: a module-level function or class as ``name`` or ``obj.name``, a
method or property only as ``obj.name``, so a local variable of the same
name does not reach it. A definition that shares its name with an attribute
of another object (for example ``nnz`` on a SciPy array) still counts as
reached.

Likewise every parameter with a default must be passed, by keyword or by
position, at some call in the package, or be on the knob allowlist with its
reason. Calls are matched by the callee's identifier in the same way, and a
call that unpacks ``*args`` or ``**kwargs`` counts as passing every
parameter. A defaulted field of a dataclass is a parameter of the class,
at its index among the fields ``__init__`` takes; ``cls(...)`` in one of
the class's classmethods counts as a call of the class.
"""
import ast
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qfemlab"
ROOT = ("cli.py", "main")

ALLOWED = {
    "error": "cli._Parser overrides argparse's usage-error hook, which only argparse calls",
}

ALLOWED_KNOBS = {
    "conjugate_gradient(cap)": "the j-th iterate and exit-3 tests; the work cap of ROADMAP item 8",
    "main(argv)": "the entry point: the console script passes nothing, tests pass argv",
}


def _dunder(name) -> bool:
    return name.startswith("__") and name.endswith("__")


def _methods(cls) -> list:
    """The non-dunder methods of a class, each a definition of its own."""
    return [m for m in cls.body if isinstance(m, ast.FunctionDef) and not _dunder(m.name)]


def _definitions(tree):
    """(definition, whether it is a method) for the module-level functions
    and classes, and the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, False
            if isinstance(node, ast.ClassDef):
                yield from ((m, True) for m in _methods(node))


def _own_nodes(node):
    """The nodes a definition reads: its whole subtree, less a class's
    non-dunder methods."""
    parts = [node]
    if isinstance(node, ast.ClassDef):
        methods = _methods(node)
        parts = node.decorator_list + node.bases + node.keywords + [m for m in node.body if m not in methods]
    return (n for part in parts for n in ast.walk(part))


def _trees() -> dict:
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def unreached(trees) -> list[tuple[str, str]]:
    """(where, name) of every definition in ``trees`` ({path: module}) that
    their module-level code and the function ``ROOT`` (file name, function
    name) do not reach."""
    definitions = [(path, node, method) for path, tree in trees.items() for node, method in _definitions(tree)]
    pending = [stmt for tree in trees.values() for stmt in tree.body if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    pending += [node for path, node, method in definitions if not method and (path.name, node.name) == ROOT]
    reached, names, attributes = set(), set(), set()
    while pending:
        for part in pending:
            reached.add(id(part))
            for n in _own_nodes(part):
                if isinstance(n, ast.Name):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute):
                    attributes.add(n.attr)
        pending = [
            node
            for _, node, method in definitions
            if id(node) not in reached and node.name in (attributes if method else names | attributes)
        ]
    return [(f"{path.name}:{node.lineno}", node.name) for path, node, _ in definitions if id(node) not in reached]


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


def _name(node):
    """The identifier a decorator or callee is written with, if any."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _fields(cls):
    """(name, position) of each defaulted field that the ``__init__`` of the
    dataclass ``cls`` takes, the position counting those fields only."""
    position = 0
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        options = {k.arg: k.value for k in value.keywords} if isinstance(value, ast.Call) and _name(value) == "field" else None
        if options is not None and getattr(options.get("init"), "value", True) is False:
            continue
        if value is not None and (options is None or "default" in options or "default_factory" in options):
            yield stmt.target.id, position
        position += 1


def _dataclasses(tree):
    """(class, the ``cls(...)`` calls in its classmethods) for every
    dataclass in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(_name(d) == "dataclass" for d in node.decorator_list):
            classmethods = [m for m in node.body if isinstance(m, ast.FunctionDef) and any(_name(d) == "classmethod" for d in m.decorator_list)]
            yield node, [c for m in classmethods for c in ast.walk(m) if isinstance(c, ast.Call) and _name(c) == "cls"]


def unpassed_knobs(trees) -> list[tuple[str, str]]:
    """(where, function(parameter)) of every defaulted parameter, and
    (where, Class(field)) of every defaulted dataclass field, in ``trees``
    ({path: module}) that no call in them passes."""
    calls = {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute)):
                calls.setdefault(_name(call), []).append(call)
    knobs = [
        (path, fn, callee, name, position, calls.get(callee, []))
        for path, tree in trees.items()
        for fn, callee, method in _functions(tree)
        for name, position in _defaulted(fn, method)
    ]
    knobs += [
        (path, cls, cls.name, name, position, calls.get(cls.name, []) + cls_calls)
        for path, tree in trees.items()
        for cls, cls_calls in _dataclasses(tree)
        for name, position in _fields(cls)
    ]
    return [
        (f"{path.name}:{node.lineno}", f"{callee}({name})")
        for path, node, callee, name, position, callers in knobs
        if not any(_passes(call, name, position) for call in callers)
    ]


def test_every_definition_is_reached_or_allowed():
    assert [f"{where} {name}" for where, name in unreached(_trees()) if name not in ALLOWED] == []


def test_allowlist_is_not_stale():
    # an entry whose definition is now reached, or gone, should leave the list
    assert sorted(set(ALLOWED) - {name for _, name in unreached(_trees())}) == []


def test_a_local_variable_does_not_reach_a_method():
    module = textwrap.dedent(
        """
        class Box:
            def nodes(self): ...
            def size(self): ...
        def helper(): ...
        def run(box):
            nodes = 1
            return helper(), box.size(), nodes
        if __name__ == "__main__":
            run(None)
        """
    )
    # Box is named nowhere; module-level code reaches run, which reaches
    # helper by its bare name and size by an attribute, but the local
    # ``nodes`` does not reach Box.nodes
    assert [name for _, name in unreached({PACKAGE / "m.py": ast.parse(module)})] == ["Box", "nodes"]


def test_a_name_in_unreached_code_reaches_nothing():
    module = textwrap.dedent(
        """
        def main():
            return helper()
        def helper(): ...
        def orphan():
            return leaf()
        def leaf(): ...
        class Unused:
            def __call__(self):
                return called_by_dunder()
        def called_by_dunder(): ...
        if __name__ == "__main__":
            main()
        """
    )
    # orphan and Unused are named nowhere, so what only they name (leaf, and
    # called_by_dunder through Unused's dunder method) is not reached either
    names = [name for _, name in unreached({PACKAGE / "m.py": ast.parse(module)})]
    assert names == ["orphan", "leaf", "Unused", "called_by_dunder"]


def test_every_defaulted_parameter_is_passed_or_allowed():
    assert [f"{where} {knob}" for where, knob in unpassed_knobs(_trees()) if knob not in ALLOWED_KNOBS] == []


def test_knob_allowlist_is_not_stale():
    assert sorted(set(ALLOWED_KNOBS) - {knob for _, knob in unpassed_knobs(_trees())}) == []


def test_dataclass_fields_are_knobs_of_their_class():
    module = textwrap.dedent(
        """
        @dataclass
        class Box:
            size: int
            label: str = ""
            count: int = field(init=False, default=0)
            tags: list = field(default_factory=list)
            scale: float = 1.0
            unit: str = "m"

            @classmethod
            def build(cls, size):
                return cls(size, scale=2.0)

        Box(1, "a", [])
        """
    )
    # count is no parameter, so tags is at position 2 and is passed; scale
    # is passed by the classmethod's cls(...), and unit by nothing
    assert [knob for _, knob in unpassed_knobs({PACKAGE / "m.py": ast.parse(module)})] == ["Box(unit)"]
