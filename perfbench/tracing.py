"""Span tracing installed from outside the program.

Wrappers rebind names in the namespaces that callers look up at call time
(``qfemlab.cli.assemble_stiffness``, ``qfemlab.quantum.estimate_norm``,
``SparseSymMatrix`` methods, ``numpy.linalg.solve`` ...). Each call becomes
a span with name, start, end and parent; spans stay in memory and are
written out when the run ends. A target that no longer exists is recorded
as absent, so its layer reads zero instead of breaking the run.
"""
from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name); a dotted attribute patches a class member
TARGETS = [
    ("qfemlab.cli", "build_interval_mesh", "mesh.build"),
    ("qfemlab.cli", "build_square_triangulation", "mesh.build"),
    ("qfemlab.cli", "build_basis", "mesh.build"),
    ("qfemlab.quantum", "build_interval_mesh", "mesh.build"),
    ("qfemlab.quantum", "build_square_triangulation", "mesh.build"),
    ("qfemlab.quantum", "build_basis", "mesh.build"),
    ("qfemlab.cli", "evaluate_discrete", "mesh.eval"),
    ("qfemlab.cli", "assemble_stiffness", "assembly.stiffness"),
    ("qfemlab.quantum", "assemble_stiffness", "assembly.stiffness"),
    ("qfemlab.cli", "assemble_load", "assembly.load"),
    ("qfemlab.quantum", "assemble_load", "assembly.load"),
    ("qfemlab.assembly", "SparseSymMatrix.to_dense", "assembly.to_dense"),
    ("qfemlab.assembly", "SparseSymMatrix.matvec", None),  # counted, no span
    ("qfemlab.cli", "conjugate_gradient", "solver.cg"),
    ("qfemlab.cli", "estimate_condition_number", "solver.kappa"),
    ("qfemlab.cli", "estimate_functional", "quantum.functional"),
    ("qfemlab.quantum", "estimate_norm", "quantum.norm_est"),
    ("qfemlab.quantum", "hadamard_test_estimate", "quantum.overlap_est"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent = name, start, None, parent
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index_of) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": index_of.get(id(self.parent)) if self.parent else None,
            **self.attrs,
        }


def _elements(args, kwargs):
    mesh = args[0] if args else kwargs["mesh"]
    return {"elements": int(mesh.n_elements)}


def _dense_bytes(args, kwargs):
    n = int(args[0].n)
    return {"bytes_computed": 8 * n * n}


def _budget_uses(args, kwargs):
    budget = args[3] if len(args) > 3 else kwargs["budget"]
    return int(budget.uses_of_state_prep)


# span name -> (hook before the call, hook after it); each returns attributes
HOOKS = {
    "assembly.stiffness": (_elements, None),
    "assembly.load": (_elements, None),
    "assembly.to_dense": (_dense_bytes, None),
    "solver.cg": (None, lambda args, kwargs, out, attrs: {"iterations": int(out.iterations)}),
    "quantum.overlap_est": (
        lambda args, kwargs: {"uses_before": _budget_uses(args, kwargs)},
        lambda args, kwargs, out, attrs: {"shots": _budget_uses(args, kwargs) - attrs.pop("uses_before")},
    ),
}


def _attrs(hook, *args) -> dict:
    """A hook that no longer fits the program's signatures records nothing."""
    if hook is None:
        return {}
    try:
        return hook(*args)
    except (AttributeError, IndexError, KeyError, TypeError):
        return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.absent: list[str] = []
        self._patches = []
        for module, attr, name in TARGETS:
            owner = _resolve_owner(module, attr)
            leaf = attr.rsplit(".", 1)[-1]
            if owner is None or not callable(getattr(owner, leaf, None)):
                self.absent.append(f"{module}.{attr}")
                continue
            original = getattr(owner, leaf)
            wrapper = self._counter(original) if name is None else self._wrap(original, name)
            self._patches.append((owner, leaf, original, wrapper))

    @contextlib.contextmanager
    def span(self, name: str):
        s = Span(name, time.perf_counter(), self.stack[-1] if self.stack else None)
        self.stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self.stack.pop()
            self.spans.append(s)

    def _wrap(self, fn, name):
        before, after = HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                s.attrs.update(_attrs(before, args, kwargs))
                out = fn(*args, **kwargs)
                s.attrs.update(_attrs(after, args, kwargs, out, s.attrs))
                return out

        return wrapper

    def _counter(self, fn):
        def wrapper(*args, **kwargs):
            if self.stack:
                attrs = self.stack[-1].attrs
                attrs["matvecs"] = attrs.get("matvecs", 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrappers are in place only inside this block."""
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)
        try:
            yield
        finally:
            for owner, leaf, original, _ in self._patches:
                setattr(owner, leaf, original)

    def dump(self) -> list[dict]:
        index_of = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_dict(index_of) for s in self.spans]


def _resolve_owner(module: str, attr: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def layer_metrics(spans: list[Span], n_ops: int) -> dict:
    """Per-layer totals per traced op (seconds, counts) and rates.

    Dense ``numpy.linalg`` calls are attributed to the layer of their
    nearest enclosing span that is not itself a linalg or to_dense span.
    """
    total = defaultdict(float)
    count = defaultdict(int)
    attr = defaultdict(float)
    self_time = defaultdict(float)
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration
    for s in spans:
        total[s.name] += s.duration
        count[s.name] += 1
        self_time[s.name] += s.duration - child_time[id(s)]
        for key, val in s.attrs.items():
            attr[(s.name, key)] += val
        if s.name.startswith("linalg."):
            owner = s.parent
            while owner is not None and owner.name.startswith(("linalg.", "assembly.to_dense")):
                owner = owner.parent
            layer = owner.name.split(".")[0] if owner is not None else "none"
            total[f"{layer}.dense_{s.name[7:]}"] += s.duration

    per_op = max(n_ops, 1)
    asm_self = self_time["assembly.stiffness"] + self_time["assembly.load"]
    asm_elements = attr[("assembly.stiffness", "elements")] + attr[("assembly.load", "elements")]
    cg_iters = attr[("solver.cg", "iterations")]
    overlap_self = self_time["quantum.overlap_est"]
    return {
        "mesh.build_s": total["mesh.build"] / per_op,
        "mesh.eval_s": total["mesh.eval"] / per_op,
        "assembly.stiffness_s": total["assembly.stiffness"] / per_op,
        "assembly.load_s": total["assembly.load"] / per_op,
        "assembly.load_calls": count["assembly.load"] / per_op,
        "assembly.elements_per_s": asm_elements / asm_self if asm_self else 0.0,
        "assembly.to_dense_calls": count["assembly.to_dense"] / per_op,
        "assembly.to_dense_bytes": attr[("assembly.to_dense", "bytes_computed")] / per_op,
        "solver.cg_s": total["solver.cg"] / per_op,
        "solver.cg_iters": cg_iters / per_op,
        "solver.cg_matvecs": attr[("solver.cg", "matvecs")] / per_op,
        "solver.cg_s_per_iter": total["solver.cg"] / cg_iters if cg_iters else 0.0,
        "solver.kappa_s": total["solver.kappa"] / per_op,
        "solver.kappa_matvecs": attr[("solver.kappa", "matvecs")] / per_op,
        "cli.dense_solve_s": total["cli.dense_solve"] / per_op,
        "cli.self_s": self_time["cli.main"] / per_op,
        "quantum.dense_eig_s": total["quantum.dense_eigvalsh"] / per_op,
        "quantum.dense_solve_s": total["quantum.dense_solve"] / per_op,
        "quantum.norm_est_s": total["quantum.norm_est"] / per_op,
        "quantum.overlap_est_s": total["quantum.overlap_est"] / per_op,
        "quantum.shots_per_s": attr[("quantum.overlap_est", "shots")] / overlap_self if overlap_self else 0.0,
        "trace.unattributed_frac": self_time["cli.main"] / total["cli.main"] if total["cli.main"] else 0.0,
    }
