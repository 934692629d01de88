"""Batch command-line front end: generate, solve, sift, benchmark.

Subcommands
-----------
gen    write a multi-knapsack benchmark instance to an MPS file
solve  approximate a (generated or parsed) LP with one online pass,
       optionally doubling the duplication factor until a residual target
sift   online pre-pass followed by the exact sifting solver
bench  one grid of solve runs (sizes x taus x Ks x methods x reps) to CSV

Every run echoes its fully resolved configuration before solving, and the
step length gamma each pass used once the pass returns, so any emitted CSV
row can be replayed from its own fields.  An out-of-range setting is a
usage error (exit 2) carrying the config's own message.  A file that cannot
be read, parsed or written ends the run with one line on stderr (exit 3).
Relative output paths honor the ONLINELP_OUT_DIR environment variable, and
every output path is checked before any instance is loaded or generated.

Every flag that --help lists changes a result or an output.  The engine is no
flag: each update has one engine, the one the library runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .instances import (MkpParams, ResultRecord, _write_csv, generate_mkp, netlib_modify,
                        write_results_csv)
from .model import _check_count, relative_optimality, stopping_residual
from .mps import MpsParseError, _check_writable, parse_mps, write_mps
from .online import (METHODS, STARTS, STEPSIZE_MODES, OnlineSolution, RunConfig,
                     explicit_engine, solve_online)
from .sifting import SiftConfig, SiftResult, SiftRoundLimit, basis_metrics, sift
from .simplex import SimplexResult, SolveStatus, solve_lp

EXIT_OK = 0
EXIT_FILE = 3
EXIT_SOLVE = 4
EXIT_LIMIT = 5

MAX_K_DEFAULT = 5000
SUPPORT_TOL = 1e-9            # x entries above this count as basic for acc


class _UsageError(Exception):
    """A setting out of its config's range; ``main`` reports it as argparse does."""


def _resolve_outputs(args) -> None:
    """Put each relative output path under ONLINELP_OUT_DIR, and check
    that it can be written before any work runs."""
    base = os.environ.get("ONLINELP_OUT_DIR") or ""
    for dest, what in (("out", "MPS" if args.command == "gen" else "results"),
                       ("trace_out", "trace")):
        path = getattr(args, dest, None)
        if path:
            path = os.path.join(base, path)
            _check_writable(path, what)
            setattr(args, dest, path)


def _echo(prefix: str, pairs: dict) -> None:
    for k, v in pairs.items():
        print(f"{prefix} {k} = {v}")


_PERTURB = {"0": False, "false": False, "1": True, "true": True}
# each --gen key: the MkpParams field it sets, how its value reads, and what it takes
_GEN_KEYS = {"m": ("m", int, "an integer"), "n": ("n", int, "an integer"),
             "tau": ("tightness", float, "a number"), "sigma": ("density", float, "a number"),
             "seed": ("seed", int, "an integer"),
             "perturb": ("perturb_a3", _PERTURB.__getitem__, "0, 1, true or false")}


def _parse_gen_spec(spec: str) -> MkpParams:
    fields = {}
    for part in filter(None, spec.split(",")):
        key, _, value = (text.strip() for text in part.partition("="))
        if not key:
            raise ValueError(f"--gen spec has a part with no key: {part!r}")
        if key in fields:
            raise ValueError(f"--gen spec repeats key {key}")
        fields[key] = value
    unknown = [k for k in fields if k not in _GEN_KEYS]
    if unknown:
        raise ValueError(f"--gen spec has unknown key(s) {', '.join(unknown)} "
                         f"(keys: {', '.join(_GEN_KEYS)})")
    missing = [k for k in ("m", "n", "tau") if k not in fields]
    if missing:
        raise ValueError(f"--gen spec needs m=, n=, tau= (missing {missing[0]!r})")
    values = {}
    for key, text in fields.items():
        field, read, takes = _GEN_KEYS[key]
        try:
            values[field] = read(text)
        except (KeyError, ValueError):
            raise ValueError(f"--gen spec key {key} takes {takes}, not {text!r}") from None
    return MkpParams(**values)


def _load_instance(args):
    if getattr(args, "mps", None):
        inst = parse_mps(args.mps)
        label = inst.meta.get("name") or os.path.splitext(os.path.basename(args.mps))[0]
    elif getattr(args, "gen", None):
        params = _parse_gen_spec(args.gen)
        inst = generate_mkp(params)
        label = params.label()
    else:
        raise ValueError("provide an instance via --mps PATH or --gen SPEC")
    if getattr(args, "netlib_modify", False):
        inst = netlib_modify(inst)
    return inst, label


@contextlib.contextmanager
def _settings_checked():
    """Make a config's ValueError over a command-line setting a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _engine(method: str) -> str:
    # the implicit update has only the Python engine
    return explicit_engine() if method == "explicit" else "python"


def _reference_solve(instance) -> SimplexResult | None:
    """The exact optimum behind rel_opt, or None with a warning."""
    try:
        res = solve_lp(instance)
    except ValueError as exc:
        print(f"warning: exact reference solve skipped: {exc}", file=sys.stderr)
        return None
    if res.status is not SolveStatus.OPTIMAL:
        print(f"warning: exact reference solve ended with {res.status.value}",
              file=sys.stderr)
        return None
    return res


def _rel_opt(instance, x_hat, ref: SimplexResult | None) -> float | None:
    """rel_opt of x_hat against the reference solve ``ref``."""
    if ref is None or ref.obj == 0.0:
        return None
    return relative_optimality(instance, x_hat, ref.obj)


def _seed_recall(instance, result: SiftResult) -> float | None:
    """acc: the share of sift's certified optimum's support that its seed
    set holds."""
    support = np.flatnonzero(result.x > SUPPORT_TOL)
    if support.size == 0:
        return None
    return basis_metrics(support, result.initial_working_set, instance.num_cols)[0]


def _record(label: str, config: RunConfig, sol: OnlineSolution, wall: float,
            **fields) -> ResultRecord:
    """The CSV row of a run: the pass's settings and results, then ``fields``."""
    row = dict(instance=label, method=config.method, k=config.duplication,
               gamma=sol.gamma, seed=config.seed, objective=sol.objective,
               violation=sol.violation, wall_time_s=wall)
    return ResultRecord(**{**row, **fields})


# -- gen ----------------------------------------------------------------------

def _cmd_gen(args) -> int:
    with _settings_checked():
        params = MkpParams(m=args.m, n=args.n, tightness=args.tau, density=args.sigma,
                           seed=args.seed, perturb_a3=args.perturb_a3,
                           b_pre_sparsify=args.b_pre_sparsify)
    _echo("resolved", {"params": params})
    inst = generate_mkp(params)
    write_mps(inst, args.out, name=params.label())
    print(f"wrote {inst.num_rows}x{inst.num_cols} instance "
          f"({inst.nnz} nonzeros) to {args.out}")
    return EXIT_OK


# -- solve --------------------------------------------------------------------

def _cmd_solve(args) -> int:
    with _settings_checked():
        config = RunConfig(method=args.method, stepsize=args.stepsize, duplication=args.k,
                           seed=args.run_seed, enforce_feasibility=args.enforce_feasibility,
                           start=args.start)
        if args.until_eps is not None and not args.until_eps >= 0.0:   # NaN or < 0: never met
            raise ValueError(f"until_eps must be >= 0, got {args.until_eps}")
        if args.until_eps is not None and args.max_k < config.duplication:
            raise ValueError(f"max_k must be >= k ({config.duplication})")
    try:
        instance, label = _load_instance(args)
    except (MpsParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE

    _echo("resolved", {
        "instance": label, "method": config.method, "K": config.duplication,
        "stepsize": config.stepsize, "engine": _engine(config.method),
        "seed": config.seed, "enforce_feasibility": config.enforce_feasibility,
        "start": config.start,
        "until_eps": args.until_eps, "max_k": args.max_k,
    })

    capped = False
    t0 = time.perf_counter()
    try:
        while True:
            sol = solve_online(instance, config)
            residual = stopping_residual(instance, sol.x_hat,
                                         np.maximum(sol.y_final, 0.0))
            if args.until_eps is None or residual <= args.until_eps:
                break
            if config.duplication * 2 > args.max_k:
                capped = True
                break
            config = replace(config, duplication=config.duplication * 2)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    wall = time.perf_counter() - t0
    _echo("resolved", {"gamma": sol.gamma})

    rel_opt = _rel_opt(instance, sol.x_hat, _reference_solve(instance)) if args.exact else None

    print(f"objective   {sol.objective:.10g}")
    print(f"violation   {sol.violation:.10g}")
    print(f"residual    {residual:.6g}")
    if rel_opt is not None:
        print(f"rel_opt     {rel_opt:.6g}")
    print(f"K           {config.duplication}")
    print(f"time_s      {wall:.6g}")
    if capped:
        print(f"K cap {args.max_k} reached before residual <= {args.until_eps}",
              file=sys.stderr)

    if args.out:
        write_results_csv([_record(label, config, sol, wall, rel_opt=rel_opt)], args.out)
    return EXIT_LIMIT if capped else EXIT_OK


# -- sift ---------------------------------------------------------------------

def _sift_configs(args) -> tuple[RunConfig, SiftConfig]:
    """The pre-pass and sifting configs that the ``sift`` flags set."""
    return (RunConfig(method=args.prepass_method, duplication=args.prepass_k,
                      seed=args.run_seed, start=args.prepass_start),
            SiftConfig(pricing_tolerance=args.pricing_tol,
                       max_new_columns_per_round=args.max_new_cols, max_rounds=args.max_rounds))


def _cmd_sift(args) -> int:
    with _settings_checked():
        pre_config, sift_config = _sift_configs(args)
    try:
        instance, label = _load_instance(args)
    except (MpsParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE

    _echo("resolved", {
        "instance": label, "prepass_method": pre_config.method,
        "prepass_K": pre_config.duplication, "stepsize": pre_config.stepsize,
        "engine": _engine(pre_config.method), "prepass_start": pre_config.start,
        "seed": pre_config.seed, "pricing_tol": sift_config.pricing_tolerance,
        "max_rounds": sift_config.max_rounds,
        "max_new_cols": sift_config.max_new_columns_per_round,
    })

    t0 = time.perf_counter()
    try:
        online_sol = solve_online(instance, pre_config)
        result = sift(instance, online_sol, sift_config)
        limited = False
    except SiftRoundLimit as exc:
        result = exc.partial
        limited = True
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: sift failed: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    wall = time.perf_counter() - t0
    _echo("resolved", {"gamma": online_sol.gamma})
    # a round-limited result is not an optimum
    acc = None if limited else _seed_recall(instance, result)

    print(f"objective   {result.objective:.10g}")
    print(f"rounds      {result.rounds}")
    print(f"working     {result.final_working_set.size} of {instance.num_cols}")
    print(f"acc         {'n/a' if acc is None else f'{acc:.4f}'}")
    print(f"rdc         {result.rdc:.4f}")
    print(f"time_s      {wall:.6g}")
    if limited:
        print("round limit reached without a global certificate", file=sys.stderr)

    if args.trace_out:
        _write_csv(args.trace_out, "trace", ["round", "working", "priced", "objective",
                                             "wall_time_s", "solve_s", "price_s", "iterations",
                                             "warm_started"],
                   ([r.round, r.working_size, r.priced, r.objective, r.wall_time_s, r.solve_s,
                     r.price_s, r.iterations, int(r.warm_started)] for r in result.trace))
    if args.out:
        record = _record(label, pre_config, online_sol, wall,
                         method=f"sift+{pre_config.method}", objective=result.objective,
                         violation=0.0, acc=acc, rdc=result.rdc, rounds=result.rounds)
        write_results_csv([record], args.out)
    return EXIT_LIMIT if limited else EXIT_OK


# -- bench --------------------------------------------------------------------

def _grid_axis(convert):
    """argparse ``type=`` for a comma-separated list, each item read by ``convert``."""
    def parse(text: str) -> list:
        try:
            return [convert(item) for item in text.split(",")]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _size(text: str) -> tuple[int, int]:
    m, sep, n = text.partition("x")
    if not sep:
        raise ValueError(f"size {text!r} is not MxN")
    return int(m), int(n)


def _bench_instance(args, size, tau, seed):
    """The params and instance of one (size, tau, seed) of the grid, and its
    reference solve under --exact (None otherwise)."""
    params = MkpParams(m=size[0], n=size[1], tightness=tau, density=args.sigma, seed=seed)
    instance = generate_mkp(params)
    return params, instance, _reference_solve(instance) if args.exact else None


def _bench_cell(args, bench_instance, k, method, seed) -> ResultRecord:
    params, instance, ref = bench_instance
    config = RunConfig(method=method, duplication=k, seed=seed,
                       enforce_feasibility=args.enforce_feasibility)
    t0 = time.perf_counter()
    sol = solve_online(instance, config)
    wall = time.perf_counter() - t0
    rel_opt = _rel_opt(instance, sol.x_hat, ref) if args.exact else None
    return _record(params.label(), config, sol, wall, rel_opt=rel_opt)


def _cmd_bench(args) -> int:
    with _settings_checked():  # the whole grid, before the first cell runs
        _check_count("reps", args.reps, 0)
        for (m, n), tau in itertools.product(args.sizes, args.taus):
            MkpParams(m=m, n=n, tightness=tau, density=args.sigma, seed=args.seed)
        for k, method in itertools.product(args.ks, args.methods):
            RunConfig(method=method, duplication=k)
    cells = list(itertools.product(args.sizes, args.taus, args.ks, args.methods,
                                   range(args.reps)))
    _echo("resolved", {"cells": len(cells), "reps": args.reps, "seed": args.seed,
                       "engine": explicit_engine()})
    # cells differing only in K or method share an instance and its
    # reference solve; the reps of one (size, tau) run interleaved
    instance_of = functools.lru_cache(maxsize=max(args.reps, 1))(
        functools.partial(_bench_instance, args))
    records = []
    failures = 0
    for i, (size, tau, k, method, rep) in enumerate(cells):
        try:
            records.append(_bench_cell(args, instance_of(size, tau, args.seed + rep),
                                       k, method, args.seed + rep))
        except Exception as exc:  # noqa: BLE001 - cell isolation
            failures += 1
            print(f"cell {i} failed: {exc}", file=sys.stderr)

    write_results_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}"
          + (f" ({failures} cells failed)" if failures else ""))
    return EXIT_SOLVE if failures else EXIT_OK


# -- parser -------------------------------------------------------------------

def _stepsize(text: str) -> float | str:
    """--stepsize: a fixed step as a float, else a mode name for ``RunConfig`` to check."""
    try:
        return float(text)
    except ValueError:
        return text


def _add_instance_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mps", help="read the instance from an MPS file")
    p.add_argument("--gen", help="generate inline: "
                   "m=..,n=..,tau=..[,sigma=..,seed=..,perturb=0|1]")
    p.add_argument("--netlib-modify", action="store_true",
                   help="clamp rhs/upper bounds to the supported regime after loading")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that keeps its options by destination, for --config."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        # -h/--help is no option, and a hidden flag is no --config key
        if argparse.SUPPRESS not in (action.default, action.help):
            self.options[action.dest] = action
        return action


def build_parser() -> argparse.ArgumentParser:
    return _build_parser()[0]


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The parser plus its subcommand parsers by name."""
    parser = _Parser(
        prog="onlinelp",
        description="Approximate LP solving by online learning, with exact sifting.",
    )
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a multi-knapsack instance to MPS")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--tau", type=float, required=True)
    g.add_argument("--sigma", type=float, default=MkpParams.density)
    g.add_argument("--seed", type=int, default=MkpParams.seed)
    g.add_argument("--perturb-a3", action="store_true")
    g.add_argument("--b-pre-sparsify", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="one online pass (optionally K-doubling)")
    _add_instance_options(s)
    s.add_argument("--method", choices=METHODS, default=RunConfig.method)
    s.add_argument("--k", type=int, default=RunConfig.duplication, help="duplication factor K")
    s.add_argument("--stepsize", type=_stepsize, default=RunConfig.stepsize,
                   help=f"a mode ({', '.join(STEPSIZE_MODES)}) or a fixed positive float")
    s.add_argument("--run-seed", type=int, default=RunConfig.seed)
    s.add_argument("--enforce-feasibility", action="store_true")
    s.add_argument("--start", choices=STARTS, default=RunConfig.start)
    s.add_argument("--until-eps", type=float, default=None,
                   help="double K until the stopping residual drops below this")
    s.add_argument("--max-k", type=int, default=MAX_K_DEFAULT)
    s.add_argument("--exact", action="store_true",
                   help="also solve exactly for relative optimality")
    s.add_argument("--out", help="write a result record CSV")
    s.set_defaults(func=_cmd_solve)

    f = sub.add_parser("sift", help="online pre-pass + exact sifting")
    _add_instance_options(f)
    f.add_argument("--pricing-tol", type=float, default=SiftConfig.pricing_tolerance)
    f.add_argument("--max-rounds", type=int, default=SiftConfig.max_rounds)
    f.add_argument("--max-new-cols", type=int, default=SiftConfig.max_new_columns_per_round)
    f.add_argument("--prepass-method", choices=METHODS, default=RunConfig.method)
    f.add_argument("--prepass-k", type=int, default=2)
    f.add_argument("--prepass-start", choices=STARTS, default=RunConfig.start)
    # accepted and ignored (the explicit update has one engine): a benchmark workload passes it
    f.add_argument("--prepass-lazy", action="store_true", default=True, help=argparse.SUPPRESS)
    f.add_argument("--run-seed", type=int, default=RunConfig.seed)
    f.add_argument("--out", help="write a result record CSV")
    f.add_argument("--trace-out", help="write the per-round trace CSV")
    # not flags: perfbench reads them until the next benchmark change deletes them (ROADMAP)
    f.set_defaults(func=_cmd_sift, init_threshold=SiftConfig.init_threshold,
                   alpha=SiftConfig.stabilization_alpha, no_anchor=False)

    b = sub.add_parser("bench", help="grid of solve runs to CSV")
    b.add_argument("--sizes", type=_grid_axis(_size), default="5x100", help="MxN list")
    b.add_argument("--taus", type=_grid_axis(float), default="0.25")
    b.add_argument("--ks", type=_grid_axis(int), default="1")
    b.add_argument("--methods", type=_grid_axis(str), default=",".join(METHODS))
    b.add_argument("--sigma", type=float, default=MkpParams.density)
    b.add_argument("--reps", type=int, default=1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--enforce-feasibility", action="store_true")
    b.add_argument("--exact", action="store_true")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_bench)

    return parser, {"gen": g, "solve": s, "sift": f, "bench": b}


def _apply_config_file(parser: _Parser, commands: dict[str, _Parser], path: str) -> None:
    """Make each ``key = value`` line of the file a default of every
    subcommand that has the option; a key that none has is a usage error."""
    entries = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                entries[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    unknown = [k for k in entries if not any(k in c.options for c in commands.values())]
    if unknown:
        parser.error(f"config file {path}: no subcommand has option(s) {', '.join(unknown)}")
    for command in commands.values():
        command.set_defaults(**{k: _coerce_default(parser, command.options[k], v)
                                for k, v in entries.items() if k in command.options})


def _coerce_default(parser: _Parser, action: argparse.Action, value: str):
    try:
        if isinstance(action.default, bool):  # an on/off flag
            return {"1": True, "true": True, "yes": True,
                    "0": False, "false": False, "no": False}[value.lower()]
        converted = value if action.type is None else action.type(value)
        if action.choices is None or converted in action.choices:
            return converted
    except (KeyError, ValueError, argparse.ArgumentTypeError):
        pass
    parser.error(f"config file: bad value {value!r} for {action.dest}")


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config may sit anywhere on the line; a pre-pass takes it out
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    known, argv = pre.parse_known_args(argv)
    if known.config is not None:
        _apply_config_file(parser, commands, known.config)
    args = parser.parse_args(argv)
    try:
        _resolve_outputs(args)
        return args.func(args)
    except _UsageError as exc:
        commands[args.command].error(str(exc))
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE


if __name__ == "__main__":
    sys.exit(main())
