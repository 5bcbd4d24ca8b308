"""qfemlab benchmark: time to a checked CLI result on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload cg1d --seed 1 --seconds 16 --trace 0

Each op is one ``qfemlab.cli.main(argv)`` call in this process, with
``--out`` set to a temporary directory, so it covers spec loading, the
report and JSON emission. Ops run one at a time in a closed loop, in whole
passes over the workload's specs, until at least ``--seconds`` of op time
has passed; every artifact is checked outside the timed region. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops on the same specs and prints the
per-layer metrics, with the tracing overhead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import os

# one BLAS thread (single-threaded baseline); must precede the numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# address-space cap: above the ~1 GB sample1d peak, below the 3.95 GiB
# first allocation of `simulate p1`, well under the machine's 7 GiB
AS_LIMIT_BYTES = 3 << 30
SETUP_REPEATS = 3
WALL_GUARD_S = 120.0  # stop starting ops after this much wall time

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
KIND_P50 = ("solve", "convergence", "simulate")
PER_LAYER_UNITS = {
    "solve_p50_s": "s",
    "convergence_p50_s": "s",
    "simulate_p50_s": "s",
    "mesh.build_s": "s",
    "mesh.eval_s": "s",
    "assembly.stiffness_s": "s",
    "assembly.load_s": "s",
    "assembly.load_calls": "count",
    "assembly.elements_per_s": "elements/s",
    "assembly.to_dense_calls": "count",
    "assembly.to_dense_bytes": "bytes_computed",
    "solver.cg_s": "s",
    "solver.cg_iters": "count",
    "solver.cg_matvecs": "count",
    "solver.cg_s_per_iter": "s",
    "solver.kappa_s": "s",
    "solver.kappa_matvecs": "count",
    "cli.dense_solve_s": "s",
    "cli.self_s": "s",
    "quantum.dense_eig_s": "s",
    "quantum.dense_solve_s": "s",
    "quantum.norm_est_s": "s",
    "quantum.overlap_est_s": "s",
    "quantum.shots_per_s": "shots/s",
    "quantum.shots": "count",
    "quantum.shot_ratio": "ratio",
    "lowerbounds.hybrid_failed_draws": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """What a user pays before the first op: import qfemlab, generate the
    workload's specs and validate each one."""
    import qfemlab
    from workloads import WORKLOADS

    ops = WORKLOADS[workload].ops(seed)
    for op in ops:
        qfemlab.ProblemSpec.from_dict(op.spec)
    return ops


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that run setup() and exit."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.decode(errors='replace')}")
    return times


class OpResult:
    __slots__ = ("op", "seconds", "error", "wrong", "traced", "probe", "artifact")

    def __init__(self, op, seconds, *, traced=False, probe=False):
        self.op, self.seconds, self.traced, self.probe = op, seconds, traced, probe
        self.error = None   # why the op failed, None when it passed its check
        self.wrong = False  # it produced an artifact and the artifact is wrong
        self.artifact = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Bench:
    """Runs ops in a closed loop and keeps every result for the metrics."""

    def __init__(self, ops, tracer=None):
        from checks import Checker

        self.ops = ops
        self.tracer = tracer
        self.checker = Checker()
        self.results: list[OpResult] = []

    def run_op(self, op, *, traced=False, probe=False) -> OpResult:
        """One timed CLI call; its artifact is read afterwards, untimed."""
        from qfemlab import cli

        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            out = Path(tmp) / "out"
            argv = [op.kind]
            if op.spec:
                spec_path = Path(tmp) / "spec.json"
                spec_path.write_text(json.dumps(op.spec))
                argv += ["--spec", str(spec_path)]
            argv += [*op.args, "--out", str(out)]
            error, rc = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if traced:
                        with self.tracer.installed(), self.tracer.span("cli.main"):
                            rc = cli.main(argv)
                    else:
                        rc = cli.main(argv)
            except (Exception, SystemExit) as exc:  # op boundary: record, go on
                error = f"{type(exc).__name__}: {str(exc)[:200]}"
                if not isinstance(exc, (MemoryError, SystemExit)):
                    traceback.print_exc(file=sys.stderr)
            res = OpResult(op, time.perf_counter() - t0, traced=traced, probe=probe)
            if error is None and rc != 0:
                error = f"exit {rc}"
            if error is None:
                try:
                    res.artifact = json.loads(next(out.glob("*.json")).read_text())
                except (StopIteration, OSError, ValueError) as exc:
                    error = f"unreadable artifact: {type(exc).__name__}: {exc}"
                    res.wrong = True
        res.error = error
        self.results.append(res)
        return res

    def check_all(self):
        """Check every artifact; runs after the timed loop, so the reference
        solves add neither time nor peak memory to the ops."""
        for res in self.results:
            if res.artifact is None:
                continue
            try:
                res.error = self.checker.check(res.op.kind, res.op.spec, res.artifact)
            except Exception as exc:  # a malformed artifact fails its check
                res.error = f"check raised {type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            res.wrong = res.error is not None

    def run_timed(self, seconds: float):
        """Untraced runs make whole passes over the workload's ops until at
        least `seconds` of op time, so every spec weighs the same in the
        metrics. Traced runs pair each untraced op with a traced one on the
        same spec and stop at the first op past `seconds`."""
        start = time.perf_counter()
        timed = 0.0
        for i in itertools.count():
            if self.tracer is None and i % len(self.ops) == 0 and timed >= seconds:
                break
            if self.tracer is not None and timed >= seconds:
                break
            if time.perf_counter() - start > WALL_GUARD_S:
                break
            op = self.ops[i % len(self.ops)]
            timed += self.run_op(op).seconds
            if self.tracer is not None:
                timed += self.run_op(op, traced=True).seconds

    def run_probes(self):
        from workloads import probe_ops

        for op in probe_ops():
            self.run_op(op, probe=True)

    @property
    def timed(self) -> list[OpResult]:
        return [r for r in self.results if not r.probe]

    def summary(self) -> dict:
        timed = self.timed
        return {
            "correct": all(r.ok for r in timed) and not any(r.wrong for r in self.results),
            "attempted": len(self.results),
            "failed": sum(not r.ok for r in self.results),
        }

    def end_to_end(self, setup_times, peak_rss_mb) -> dict:
        timed = [r for r in self.timed if not r.traced]
        ok = [r for r in timed if r.ok]
        summary = self.summary()
        return {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(ok) / sum(r.seconds for r in timed),
            "op_p50_s": statistics.median(r.seconds for r in (ok or timed)),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": summary["failed"] / summary["attempted"],
        }

    def per_layer(self) -> dict:
        from tracing import layer_metrics

        untraced = [r for r in self.timed if not r.traced]
        traced = [r for r in self.timed if r.traced]
        out = {}
        for kind in KIND_P50:
            times = [r.seconds for r in untraced if r.ok and r.op.kind == kind]
            out[f"{kind}_p50_s"] = statistics.median(times) if times else 0.0
        out.update(layer_metrics(self.tracer.spans, len(traced)))
        sims = [r.artifact for r in self.timed if r.ok and r.op.kind == "simulate"]
        overlap = [e["notes"] for a in sims for e in a.get("ledger", []) if e["notes"].get("call") == "overlap_estimation"]
        model = sum(n["model_uses_per_estimate"] for n in overlap)
        out["quantum.shots"] = statistics.fmean(a["uses_of_state_prep"] for a in sims) if sims else 0.0
        out["quantum.shot_ratio"] = sum(n["state_prep_uses"] for n in overlap) / model if model else 0.0
        draws = hybrid_failed_draws()
        out["lowerbounds.hybrid_failed_draws"] = float(draws) if draws is not None else 0.0
        if draws is None:
            self.tracer.absent.append("qfemlab.cli.lowerbound_hybrid_table")
        base = sum(r.seconds for r in untraced)
        out["trace.overhead_frac"] = sum(r.seconds for r in traced) / base - 1.0 if base else 0.0
        return out


def hybrid_failed_draws() -> int | None:
    """Failing draws in the CLI's default hybrid grid. The CLI stops at the
    first failing draw, so `lowerbound_hybrid_table` is run with each draw's
    failure caught and counted. None when a name is absent."""
    from types import SimpleNamespace

    from qfemlab import cli
    from qfemlab.errors import ValidationError

    names = ("lowerbound_hybrid_table", "make_blackbox_pair", "hybrid_experiment")
    if not all(hasattr(cli, name) for name in names):
        return None
    args = cli.build_parser().parse_args(["lowerbound", "--mode", "hybrid"])
    make_pair, experiment = cli.make_blackbox_pair, cli.hybrid_experiment
    failed = 0

    def pair_or_none(*a, **kw):
        try:
            return make_pair(*a, **kw)
        except ValidationError:
            return None

    def counted_experiment(pair, *a, **kw):
        nonlocal failed
        try:
            if pair is not None:
                return experiment(pair, *a, **kw)
        except ValidationError:
            pass
        failed += 1
        return SimpleNamespace(exact_probability=0.0)

    cli.make_blackbox_pair, cli.hybrid_experiment = pair_or_none, counted_experiment
    try:
        cli.lowerbound_hybrid_table(args.T, args.eps_sep, args.draws, dim=args.dim, seed=0)
    finally:
        cli.make_blackbox_pair, cli.hybrid_experiment = make_pair, experiment
    return failed


def environment(args) -> dict:
    """Run conditions recorded with every result."""
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*")):
        with contextlib.suppress(OSError, AttributeError):
            threads = int(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
    digest = hashlib.sha256()
    for path in sorted((SRC / "qfemlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "address_space_limit_bytes": AS_LIMIT_BYTES,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed loop, one process, one op at a time",
    }


def set_address_space_limit():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY and hard < AS_LIMIT_BYTES:
        raise RuntimeError(f"hard address-space limit {hard} is below {AS_LIMIT_BYTES}")
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, hard))


def report(bench: Bench, metrics: dict, units: dict):
    """Human-readable lines; the JSON result line follows them."""
    timed = [r for r in bench.timed if not r.traced]
    by_kind = {k: sum(r.op.kind == k for r in timed) for k in KIND_P50}
    print(f"ops: {len(timed)} timed ({', '.join(f'{k} {n}' for k, n in by_kind.items() if n)}), "
          f"{sum(r.traced for r in bench.timed)} traced, {sum(r.probe for r in bench.results)} probes")
    for r in bench.results:
        status = "ok" if r.ok else f"FAILED {r.error}"
        role = "probe" if r.probe else "traced" if r.traced else "op"
        print(f"{role:6s} {r.op.kind:11s} {r.op.label:32s} {r.seconds:9.4f} s  {status}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfemlab" / "__init__.py").is_file():
        print(f"perfbench: no qfemlab sources under {SRC.name}/ next to {HERE.name}/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    set_address_space_limit()  # before any op: an oversized allocation raises MemoryError
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    setup_times = measure_setup(args.workload, args.seed) if args.trace == 0 else []
    ops = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    bench = Bench(ops, tracer)
    bench.run_timed(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.run_probes()
    bench.check_all()

    env = environment(args)
    if args.trace:
        metrics, units = bench.per_layer(), PER_LAYER_UNITS
        record = {"env": env, "absent": tracer.absent, "spans": tracer.dump()}
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(record))
        print(f"absent layers: {tracer.absent or 'none'}")
    else:
        metrics, units = bench.end_to_end(setup_times, peak_rss_mb), END_TO_END_UNITS
        print(f"setup_s samples: {[round(t, 4) for t in setup_times]}")
    print("env " + json.dumps(env, sort_keys=True))
    report(bench, metrics, units)
    result = {**bench.summary(), "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
