"""Seeded end-to-end benchmark of onlinelp's two paths.

    python3 perfbench/run.py --workload approx-dense --seed 0 --seconds 15 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
the checkout this file sits in.  One process, one BLAS thread.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  README.md beside
this file describes the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import traceback
import types
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _import_program():
    if not (SRC / "onlinelp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no onlinelp package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import onlinelp
    if Path(onlinelp.__file__).resolve().parent != SRC / "onlinelp":
        sys.exit(f"perfbench: imported onlinelp from {onlinelp.__file__}, not {SRC}")
    return onlinelp


onlinelp = _import_program()

import numpy as np  # noqa: E402
from onlinelp.cli import build_parser  # noqa: E402

sys.path.insert(0, str(HERE))
from checks import (Lp, check_certified, check_match, check_online,  # noqa: E402
                    check_same_lp, highs_optimum)
from tracing import NullTracer, Tracer, layer_metrics  # noqa: E402

# Entry points the benchmark calls; the traced run wraps them here.
api = types.SimpleNamespace(
    generate_mkp=onlinelp.generate_mkp,
    parse_mps=onlinelp.parse_mps,
    solve_online=onlinelp.solve_online,
    sift=onlinelp.sift,
    solve_lp=onlinelp.solve_lp,
)

APPROX_K = 32
# Distinct instances per run.  The exact path's time differs by about 15%
# from one instance to the next (pivot counts, working-set sizes), so the
# median of a run needs several to be steady from seed to seed.
APPROX_PER_TAU = 4
SIFT_GEN_INSTANCES = 8
SIFT_MPS_INSTANCES = 1
DIRECT_INSTANCES = 2


def sift_settings(*flags: str):
    """Pre-pass and sifting configs of ``onlinelp sift`` with its own defaults.

    Mirrors how the command builds them, so a change of a default there
    shows here.
    """
    args = build_parser().parse_args(["sift", "--gen", "m=1,n=1,tau=1", *flags])
    pre = onlinelp.RunConfig(method=args.prepass_method, duplication=args.prepass_k,
                             seed=args.run_seed, start=args.prepass_start,
                             lazy=args.prepass_lazy)
    cfg = onlinelp.SiftConfig(
        init_threshold=args.init_threshold, stabilization_alpha=args.alpha,
        use_online_anchor=not args.no_anchor, pricing_tolerance=args.pricing_tol,
        max_new_columns_per_round=args.max_new_cols, max_rounds=args.max_rounds)
    return pre, cfg


PROBE_ITERATIONS = 2500
PROBE_REF_S = 0.004


def probe() -> float:
    """Seconds a fixed interpreter-bound kernel takes now (mean of three).

    The speed of a shared machine drifts by a quarter within a minute, and
    the program's hot loops drift with it.  Every timed operation is scaled
    by PROBE_REF_S over the probe time around it, which turns its wall time
    into the time it would take at the speed where the probe takes
    PROBE_REF_S.  The kernel is the benchmark's own code, so a change to
    the program leaves it alone.
    """
    t0 = perf_counter()
    for _ in range(3):
        v = np.zeros(8)
        for _ in range(PROBE_ITERATIONS):
            v = np.maximum(v + 0.5, 0.0)
            float("1234.5")
    return (perf_counter() - t0) / 3


class Recorder:
    """Runs operations, times them, checks their outputs, counts failures.

    An operation that raises or whose output fails a check counts as
    failed; a failed check also makes the run incorrect.  Outputs of later
    rounds must repeat the first round's bit for bit.  Times are scaled to
    the reference machine speed (see ``probe``).
    """

    def __init__(self):
        self.tracer = NullTracer()
        self.trace_run = False   # a traced run: adds reference solves
        self.traced = False      # the current round is traced
        self.times: dict[tuple[bool, str], list[float]] = {}
        self.exact: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.last_elapsed = 0.0
        self.probes: list[float] = []
        self._first: dict[tuple, bytes] = {}

    def op(self, kind: str, key, fn, *args, check=None, fingerprint=None):
        self.attempted += 1
        try:
            result, elapsed = self.measure(fn, *args, span=f"op:{kind}")
        except Exception:  # a failing operation is counted, not fatal
            self.failed += 1
            print(f"perfbench: {kind} {key} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        problems = list(check(result)) if check is not None else []
        if fingerprint is not None:
            seen = self._first.setdefault((kind, key), fingerprint(result))
            if seen != fingerprint(result):
                problems.append("output differs from the first round")
        if problems:
            self.failed += 1
            self.correct = False
            for p in problems:
                print(f"perfbench: {kind} {key}: {p}", file=sys.stderr)
            return None
        self.times.setdefault((self.traced, kind), []).append(elapsed)
        self.last_elapsed = elapsed
        return result

    def measure(self, fn, *args, span: str):
        """fn(*args) and its time, scaled to the reference machine speed."""
        before = probe()
        t0 = perf_counter()
        with self.tracer.span(span):
            result = fn(*args)
        wall = perf_counter() - t0
        probe_s = 0.5 * (before + probe())
        self.probes.append(probe_s)
        return result, wall * PROBE_REF_S / probe_s

    def median(self, kind: str, traced: bool = False) -> float:
        values = self.times.get((traced, kind))
        return statistics.median(values) if values else 0.0


def _solution_bytes(sol) -> bytes:
    return np.asarray(sol.x_hat).tobytes() + np.asarray(sol.y_final).tobytes()


def _sift_bytes(res) -> bytes:
    return np.asarray(res.x).tobytes() + np.asarray(res.y).tobytes()


@dataclass
class Instance:
    """One input of a workload: how to make it, plus its reference data."""

    key: int
    params: object                 # MkpParams
    lp: Lp                         # the arrays the checks compare against
    optimum: float | None = None   # from HiGHS
    mps_path: Path | None = None


def _generated(rec: Recorder, key, params, with_optimum: bool):
    instance = onlinelp.generate_mkp(params)
    lp = Lp.of(instance)
    optimum = None
    if with_optimum:
        optimum, elapsed = rec.measure(highs_optimum, lp, span="highs")
        rec.times.setdefault((False, "highs"), []).append(elapsed)
    return instance, Instance(key, params, lp, optimum)


def _direct(rec: Recorder, instance, inst: Instance):
    """solve_lp on the full instance, checked against HiGHS.  It only serves
    as a reference figure, so it runs in traced runs alone and on the first
    DIRECT_INSTANCES instances (its work is that of sift's reference solve)."""
    if not rec.trace_run or inst.key >= DIRECT_INSTANCES:
        return
    rec.op("direct", inst.key, api.solve_lp, instance, check=lambda r: (
        check_certified(inst.lp, r.x_star, r.y_star, r.obj)
        + check_match("solve_lp optimum", r.obj, inst.optimum)))


def _exact(rec: Recorder, instance, inst: Instance, pre_cfg, sift_cfg):
    """Pre-pass plus sift to its certificate; the pre-pass is one explicit
    solve_online call, without feasibility enforcement."""
    pre = rec.op("prepass", inst.key, api.solve_online, instance, pre_cfg,
                 check=lambda s: check_online(inst.lp, s.x_hat, s.objective, s.violation),
                 fingerprint=_solution_bytes)
    if pre is None:
        return
    prepass_s = rec.last_elapsed

    def check(res):
        problems = check_certified(inst.lp, res.x, res.y, res.objective)
        if inst.optimum is not None:
            problems += check_match("sift optimum", res.objective, inst.optimum)
        return problems

    if rec.op("sift", inst.key, api.sift, instance, pre, sift_cfg,
              check=check, fingerprint=_sift_bytes) is not None:
        rec.exact[rec.traced].append(prepass_s + rec.last_elapsed)


class Workload:
    """Inputs made from the seed, and the operations of one round."""

    name = ""
    sift_flags: tuple[str, ...] = ()   # flags added to `onlinelp sift`'s defaults
    explicit_kind = "prepass"          # the operation timed as explicit_solve_s
    solves_per_setup = 1
    min_rounds = 1
    mps_mb = 0.0

    def params(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, rec: Recorder, seed: int) -> None:
        self.pre_cfg, self.sift_cfg = sift_settings(*self.sift_flags)
        self.inputs = []
        for key, params in enumerate(self.params(seed)):
            instance, inst = _generated(rec, key, params, with_optimum=self.with_optimum(rec))
            self.inputs.append(inst)
            self.prepare_input(rec, instance, inst)

    def with_optimum(self, rec: Recorder) -> bool:
        return True

    def prepare_input(self, rec: Recorder, instance, inst: Instance) -> None:
        _direct(rec, instance, inst)

    def setup(self, rec: Recorder, inst: Instance):
        return rec.op("setup", inst.key, api.generate_mkp, inst.params,
                      check=lambda i: check_same_lp(inst.lp, Lp.of(i)))

    def solve(self, rec: Recorder, instance, inst: Instance) -> None:
        _exact(rec, instance, inst, self.pre_cfg, self.sift_cfg)

    def round(self, rec: Recorder) -> None:
        for inst in self.inputs:
            instance = self.setup(rec, inst)
            for _ in range(self.solves_per_setup if instance is not None else 0):
                self.solve(rec, instance, inst)

    def extra_metrics(self) -> dict:
        return {"explicit_rel_opt": 0.0, "implicit_rel_opt": 0.0}

    def cleanup(self) -> None:
        pass


class ApproxDense(Workload):
    """Path (a): K=32 explicit and implicit passes with enforcement, plus the
    cheap exact path at the same scale."""

    name = "approx-dense"
    explicit_kind = "explicit"

    def params(self, seed):
        return [onlinelp.MkpParams(m=8, n=1000, tightness=tau, density=1.0,
                                   seed=APPROX_PER_TAU * seed + j)
                for tau in (0.25, 1.0) for j in range(APPROX_PER_TAU)]

    def prepare(self, rec, seed):
        super().prepare(rec, seed)
        self.rel_opt = {"explicit": [], "implicit": []}

    def _pass(self, rec, kind, instance, inst):
        config = onlinelp.RunConfig(method=kind, duplication=APPROX_K, seed=inst.params.seed,
                                    enforce_feasibility=True)
        sol = rec.op(kind, inst.key, api.solve_online, instance, config,
                     check=lambda s: check_online(inst.lp, s.x_hat, s.objective,
                                                  s.violation, inst.optimum, enforced=True),
                     fingerprint=_solution_bytes)
        if sol is not None and len(self.rel_opt[kind]) < len(self.inputs):
            self.rel_opt[kind].append(sol.objective / inst.optimum)

    def solve(self, rec, instance, inst):
        self._pass(rec, "explicit", instance, inst)
        self._pass(rec, "implicit", instance, inst)
        super().solve(rec, instance, inst)

    def extra_metrics(self):
        return {kind: statistics.fmean(values or [0.0])
                for kind, values in (("explicit_rel_opt", self.rel_opt["explicit"]),
                                     ("implicit_rel_opt", self.rel_opt["implicit"]))}


class SiftGen(Workload):
    """Path (b) at n = 10^4, generated in memory: the simplex dominates."""

    name = "sift-gen-1e4"

    def params(self, seed):
        return [onlinelp.MkpParams(m=100, n=10_000, tightness=0.05, density=0.1,
                                   seed=SIFT_GEN_INSTANCES * seed + j)
                for j in range(SIFT_GEN_INSTANCES)]


class SiftMps(Workload):
    """Path (b) at n = 10^5 through an MPS file: the reader and the lazy
    pre-pass dominate, and sift runs no reference solve."""

    name = "sift-mps-1e5"
    sift_flags = ("--prepass-lazy",)
    # A round is long (parse 4 s, pre-pass 3 s, more when the machine is
    # slow), so a run solves each parse twice and makes at least two rounds:
    # its medians then rest on four solves, whatever the machine's speed.
    solves_per_setup = 2
    min_rounds = 2

    def params(self, seed):
        return [onlinelp.MkpParams(m=100, n=100_000, tightness=0.05, density=0.1,
                                   seed=SIFT_MPS_INSTANCES * seed + j)
                for j in range(SIFT_MPS_INSTANCES)]

    def with_optimum(self, rec):
        return rec.trace_run   # HiGHS takes about 4 s here; the certificate suffices

    def prepare_input(self, rec, instance, inst):
        OUT.mkdir(exist_ok=True)
        inst.mps_path = OUT / f"{self.name}-{inst.params.seed}.mps"
        onlinelp.write_mps(instance, inst.mps_path)
        self.mps_mb = inst.mps_path.stat().st_size / 1e6

    def setup(self, rec, inst):
        return rec.op("setup", inst.key, api.parse_mps, inst.mps_path,
                      check=lambda i: check_same_lp(inst.lp, Lp.of(i)))

    def cleanup(self):
        for inst in getattr(self, "inputs", ()):
            if inst.mps_path is not None:
                inst.mps_path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (ApproxDense, SiftGen, SiftMps)}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _layer_unit(name: str) -> str:
    if name.rsplit(".", 1)[-1].startswith("us_per_"):
        return "us"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("rel_opt", "fraction")):
        return "ratio"
    return "count"


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare the inputs, then repeat whole rounds for `seconds`.

    A traced run alternates untraced and traced rounds (at least one of
    each), so its overhead is measured on the same inputs.
    """
    rec = Recorder()
    rec.trace_run = trace
    workload.prepare(rec, seed)
    tracer = Tracer()
    rounds = traced_rounds = 0
    start = perf_counter()
    min_rounds = max(workload.min_rounds, 2 if trace else 1)
    while rounds < min_rounds or perf_counter() - start < seconds:
        rec.traced = trace and rounds % 2 == 1
        if rec.traced:
            rec.tracer = tracer
            with tracer.installed(api), tracer.span("round"):
                workload.round(rec)
            traced_rounds += 1
        else:
            rec.tracer = NullTracer()
            workload.round(rec)
        rounds += 1

    def solve_times(traced):
        return {
            "explicit_solve_s": rec.median(workload.explicit_kind, traced),
            "implicit_solve_s": rec.median("implicit", traced),
            "exact_solve_s": statistics.median(rec.exact[traced]) if rec.exact[traced] else 0.0,
        }

    if not trace:
        untraced = solve_times(False)
        metrics = {
            "setup_s": rec.median("setup"),
            "explicit_solve_s": untraced["explicit_solve_s"],
            "exact_solve_s": untraced["exact_solve_s"],
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = {"peak_rss_mb": "MB"}
    else:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{workload.name}-seed{seed}.json")
        metrics = layer_metrics(tracer.spans, traced_rounds, workload.mps_mb)
        untraced, traced = solve_times(False), solve_times(True)
        metrics.update({f"trace.overhead.{k}": traced[k] - untraced[k] for k in untraced})
        metrics.update({
            "implicit_solve_s": untraced["implicit_solve_s"],
            "direct_solve_s": rec.median("direct"),
            "highs_solve_s": rec.median("highs"),
            "bench.probe_ms": 1e3 * statistics.median(rec.probes),
        })
        metrics.update(workload.extra_metrics())
        units = {}
    return {
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": units.get(k) or _layer_unit(k)}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
