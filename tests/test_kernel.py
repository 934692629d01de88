"""The compiled kernel's two loops against their references, the numpy loops,
and the loader that builds all five functions (the sweeps over A are
tested in ``test_sweeps.py``, the MPS sweep in ``test_mps_sweep.py``).

The reference runs with the loader's handle set to None, which is what the
explicit engine and the simplex see when no kernel could be built.
"""

import ctypes
import functools
import math
import re
import shutil
import subprocess
import types
from dataclasses import replace

import numpy as np
import pytest

from onlinelp import _kernel, online, simplex
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance
from onlinelp.online import RunConfig, explicit_engine, explicit_step, solve_online
from onlinelp.sifting import SiftConfig, _map_warm_basis, price, sift
from onlinelp.simplex import SolveStatus, solve_lp


@pytest.fixture
def compiled():
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")


def dense_loop(instance, seq, gamma, step_d, y_base, last, remaining, x_sum, norm_bound,
               max_norm) -> int:
    """``online._python_loop``'s protocol, with the whole y^k formed every
    step: the reference of the one engine's O(nnz) loop and of its checked
    norm.  Under a bound it measures every iterate, y^T included, so its
    largest norm and escape step need no argument about which iterates can
    set them.  Like ``_python_loop`` it prices column j against y^k and
    adds every sum in stored order."""
    cp, ri, vals_all = instance.col_ptr, instance.row_idx, instance.values
    for k in range(seq.size + 1):
        y_full = np.maximum(y_base - (k - last) * step_d, 0.0)
        if max_norm is not None:
            norm = online._norm(y_full)
            max_norm[0] = max(max_norm[0], norm)
            if norm > norm_bound * (1.0 + 1e-9):
                return k
        if k == seq.size:
            return k
        j = seq[k]
        rows, vals = ri[cp[j]:cp[j + 1]], vals_all[cp[j]:cp[j + 1]]
        ym = y_full[rows]
        x = instance.obj[j] > online._sum(vals * ym)
        if x and remaining is not None and not np.all(remaining[rows] >= vals):
            x = False
        if x:
            y_base[rows] = np.maximum(ym + gamma * vals - step_d[rows], 0.0)
            if remaining is not None:
                remaining[rows] -= vals
            x_sum[j] += 1.0
        else:
            y_base[rows] = np.maximum(ym - step_d[rows], 0.0)
        last[rows] = k + 1


def reference(monkeypatch, instance, config, loop=online._python_loop):
    """``solve_online`` without the kernel, its explicit pass on ``loop``."""
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_state", (None, "reference run"))
        mp.setattr(online, "_python_loop", loop)
        assert explicit_engine().startswith("python")
        return solve_online(instance, config)


def assert_same(a, b):
    for name in ("x_hat", "y_final", "objective", "violation", "gamma"):
        assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes(), name
    if a.max_dual_norm is None or b.max_dual_norm is None:
        assert a.max_dual_norm is b.max_dual_norm is None
    else:
        assert np.float64(a.max_dual_norm).tobytes() == np.float64(b.max_dual_norm).tobytes()
    assert a.elapsed_columns == b.elapsed_columns


def with_upper(instance, upper):
    return LpInstance(instance.num_rows, instance.num_cols, instance.col_ptr,
                      instance.row_idx, instance.values, instance.rhs, instance.obj, upper)


@pytest.mark.parametrize("m, n", [(8, 60), (100, 40)])
def test_matches_python_engine(compiled, monkeypatch, m, n):
    # density 1.0 gives supports of m entries: at m = 100 the BLAS dot
    # product of the reference takes its blocked path
    for seed, density in ((0, 1.0), (1, 0.3)):
        inst = generate_mkp(MkpParams(m=m, n=n, tightness=0.3, density=density, seed=seed))
        vector = np.random.default_rng(seed).uniform(0.0, 2.0, m)
        for k in (1, 4, 32):
            for enforce in (False, True):
                for start in ("zero", "ones", vector):
                    cfg = RunConfig(duplication=k, seed=seed, enforce_feasibility=enforce,
                                    start=start)
                    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


def test_matches_python_engine_non_unit_upper(compiled, monkeypatch):
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.5, seed=3))
    inst = with_upper(inst, np.random.default_rng(3).uniform(0.5, 3.0, inst.num_cols))
    cfg = RunConfig(duplication=8, seed=3, enforce_feasibility=True)
    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


def test_negative_zero_start_matches(compiled, monkeypatch):
    # a zero capacity row keeps -0.0 - k * 0.0 = -0.0 up to the clamp; the
    # sign of a clamped zero never reaches an output, so this checks only
    # that such starts run and agree
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.3, seed=4))
    rhs = inst.rhs.copy()
    rhs[[0, 5]] = 0.0
    inst = LpInstance(inst.num_rows, inst.num_cols, inst.col_ptr, inst.row_idx,
                      inst.values, rhs, inst.obj, inst.upper)
    start = np.full(8, -0.0)
    start[3] = 1.0
    cfg = RunConfig(duplication=4, seed=4, start=start, check_assumptions=False)
    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


def sum_in_order(terms):
    total = 0.0
    for t in terms:
        total += t
    return total


def test_the_stored_order_decides_a_tie(compiled, monkeypatch):
    """c_0 equals numpy's BLAS <a_0, y0>, which lies above the sum in stored
    order but not above the sum in reverse order: both engines add in
    stored order, so both accept column 0, and an engine that added in any
    other order could refuse it."""
    rng = np.random.default_rng(7)
    m = 12
    for _ in range(10_000):
        vals = rng.uniform(0.1, 1.0, m)
        y0 = rng.uniform(0.1, 1.0, m)
        terms = (vals * y0).tolist()
        c0 = float(vals @ y0)
        if sum_in_order(terms) < c0 <= sum_in_order(terms[::-1]):
            break
    else:
        pytest.fail("no data whose tie the summation order decides")
    inst = LpInstance(m, 1, [0, m], np.arange(m), vals, np.ones(m), [c0], [1.0])
    cfg = RunConfig(stepsize=0.01, start=y0)
    sol = solve_online(inst, cfg)
    assert sol.x_hat[0] == 1.0
    assert_same(sol, reference(monkeypatch, inst, cfg))


def test_bound_escape_raises_the_same_error(compiled, monkeypatch):
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.3, seed=2))
    cfg = RunConfig(stepsize=1e-3, duplication=4, check_dual_bounds=True)
    norm = solve_online(inst, cfg).max_dual_norm
    # a bound the pass is known to cross midway
    monkeypatch.setattr(online, "explicit_dual_norm_bound", lambda *args: norm / 4)
    with pytest.raises(RuntimeError, match="at step") as got:
        solve_online(inst, cfg)
    with pytest.raises(RuntimeError) as want:
        reference(monkeypatch, inst, cfg)
    assert str(got.value) == str(want.value)


def test_an_escape_of_the_last_iterate_names_step_t(compiled, monkeypatch):
    # y^0 = 0 passes; the one step takes column 0 to y^1 = 0.1 - 0.05
    inst = LpInstance.from_dense([[1.0]], [0.5], [5.0])
    cfg = RunConfig(stepsize=0.1, check_dual_bounds=True)
    monkeypatch.setattr(online, "explicit_dual_norm_bound", lambda *args: 1e-3)
    want = "explicit dual iterate escaped its norm bound at step 1: 0.05 > 0.001"
    with pytest.raises(RuntimeError) as got:
        solve_online(inst, cfg)
    assert str(got.value) == want
    with pytest.raises(RuntimeError) as got:
        reference(monkeypatch, inst, cfg)
    assert str(got.value) == want


def run_on(engine, monkeypatch, instance, config):
    """``solve_online`` on the compiled kernel, or on its numpy reference."""
    if engine == "python":
        return reference(monkeypatch, instance, config)
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")
    return solve_online(instance, config)


def outcome(run):
    """What a pass returns, or the text of the error it raises."""
    try:
        return run()
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("engine", ["compiled", "python"])
@pytest.mark.parametrize("k", [1, 4, 32])
@pytest.mark.parametrize("m", [8, 100])
def test_the_checked_norm_matches_the_dense_reference(monkeypatch, engine, m, k):
    # the engines measure y^0 and the iterate after each accepted step, the
    # reference every iterate: the largest norm, the escape step and the
    # error text must still agree bit for bit
    inst = generate_mkp(MkpParams(m=m, n=40, tightness=0.3, density=0.5, seed=m))
    vector = np.random.default_rng(m).uniform(0.0, 2.0, m)
    for enforce in (False, True):
        for start in ("zero", "ones", vector):
            cfg = RunConfig(duplication=k, seed=m, enforce_feasibility=enforce,
                            start=start, check_dual_bounds=True)
            want = reference(monkeypatch, inst, cfg, dense_loop)
            assert_same(run_on(engine, monkeypatch, inst, cfg), want)
            # bounds the pass crosses at y^0 (for a nonzero start), midway,
            # and at its largest iterate; at K = 1 with enforcement from
            # zero no copy fits, and y stays 0
            for share in (1e-3, 0.5, 0.999) if want.max_dual_norm > 0 else ():
                with monkeypatch.context() as mp:
                    mp.setattr(online, "explicit_dual_norm_bound",
                               lambda *args: share * want.max_dual_norm)
                    escape = outcome(lambda: reference(mp, inst, cfg, dense_loop))
                    assert "escaped its norm bound at step" in escape
                    assert outcome(lambda: run_on(engine, mp, inst, cfg)) == escape


@pytest.mark.parametrize("enforce", [False, True], ids=["free", "capacity"])
def test_a_negative_rhs_runs_on_the_one_engine(monkeypatch, enforce):
    # a row with b_i < 0 climbs by -gamma * d_i every step and is never
    # clamped; past check_assumptions the pass still matches both references
    base = generate_mkp(MkpParams(m=8, n=60, tightness=0.3, seed=6))
    rhs = base.rhs.copy()
    rhs[[1, 4]] *= -1.0
    inst = LpInstance(8, 60, base.col_ptr, base.row_idx, base.values, rhs, base.obj,
                      base.upper)
    with pytest.raises(ValueError, match="check_assumptions"):
        solve_online(inst, RunConfig(duplication=4, seed=6))
    cfg = RunConfig(duplication=4, seed=6, enforce_feasibility=enforce,
                    check_assumptions=False)
    sol = solve_online(inst, cfg)
    assert sol.y_final[1] > 0.0 and sol.y_final[4] > 0.0
    assert_same(sol, reference(monkeypatch, inst, cfg))
    assert_same(sol, reference(monkeypatch, inst, cfg, dense_loop))


def loop_state(loop, instance, seq, gamma, start, capacity, bound):
    """What one explicit loop returns and the bytes of every array it
    updates, run from fresh copies of the same inputs; a ``bound`` of None
    runs the loop unchecked."""
    step_d = gamma * (instance.rhs / instance.num_cols)
    y_base = start.copy()
    last = np.zeros(instance.num_rows, dtype=np.int64)
    remaining = None if capacity is None else capacity.copy()
    x_sum = np.zeros(instance.num_cols)
    max_norm = None if bound is None else np.zeros(1)
    k = loop(instance, seq, gamma, step_d, y_base, last, remaining, x_sum, bound, max_norm)
    arrays = {"y_base": y_base, "last": last, "remaining": remaining, "x_sum": x_sum,
              "max_norm": max_norm}
    return k, {name: None if a is None else a.tobytes() for name, a in arrays.items()}


@pytest.mark.parametrize("capacity", [False, True], ids=["free", "capacity"])
# at density 1 and at m = 1 every column fills the compiled loop's scratch;
# there a tightness of 1 lets copies fit, under capacity, and accept
@pytest.mark.parametrize("m, density, tightness", [(8, 0.5, 0.3), (8, 1.0, 1.0), (1, 1.0, 1.0)],
                         ids=["m8-half", "m8-full", "m1"])
def test_both_loops_leave_the_same_state(compiled, capacity, m, density, tightness):
    inst = generate_mkp(MkpParams(m=m, n=60, tightness=tightness, density=density, seed=9))
    gamma = solve_online(inst, RunConfig(duplication=4)).gamma
    seq = np.random.default_rng(9).permutation(4 * 60) % 60
    start = np.random.default_rng(9).uniform(0.0, 0.1, m)
    cap = 4 * inst.rhs if capacity else None
    k, free = loop_state(online._python_loop, inst, seq, gamma, start, cap, None)
    assert k == seq.size
    assert loop_state(online._compiled_loop, inst, seq, gamma, start, cap, None) == (k, free)
    # a check that never fires changes no state but the norm it keeps
    k, checked = loop_state(online._python_loop, inst, seq, gamma, start, cap, math.inf)
    assert (k, {**checked, "max_norm": None}) == (seq.size, free)
    assert loop_state(online._compiled_loop, inst, seq, gamma, start, cap,
                      math.inf) == (k, checked)
    # half the largest norm: both loops stop midway
    bound = np.frombuffer(checked["max_norm"])[0] / 2
    k, state = loop_state(online._python_loop, inst, seq, gamma, start, cap, bound)
    assert 0 < k < seq.size
    assert loop_state(online._compiled_loop, inst, seq, gamma, start, cap,
                      bound) == (k, state)


@pytest.mark.parametrize("spoil", ["float32 step_d", "int32 seq", "strided y_base",
                                   "int32 last", "strided capacity", "short x_sum",
                                   "long max_norm"])
def test_the_compiled_loop_refuses_an_array_it_would_misread(compiled, spoil):
    inst = generate_mkp(MkpParams(m=4, n=30, tightness=0.3, seed=1))
    m, n = 4, 30
    step_d = 0.01 * (inst.rhs / n)
    seq = np.arange(n, dtype=np.int64)
    y_base, last, capacity = np.zeros(m), np.zeros(m, dtype=np.int64), inst.rhs.copy()
    x_sum, max_norm = np.zeros(n), np.zeros(1)
    if spoil == "float32 step_d":
        step_d = step_d.astype(np.float32)
    elif spoil == "int32 seq":
        seq = seq.astype(np.int32)
    elif spoil == "strided y_base":
        y_base = np.zeros(2 * m)[::2]
    elif spoil == "int32 last":
        last = last.astype(np.int32)
    elif spoil == "strided capacity":
        capacity = np.repeat(capacity, 2)[::2]
    elif spoil == "short x_sum":
        x_sum = np.zeros(n - 1)
    else:
        max_norm = np.zeros(2)
    with pytest.raises(ValueError, match="must be contiguous"):
        online._compiled_loop(inst, seq, 0.01, step_d, y_base, last, capacity, x_sum,
                              math.inf, max_norm)
    assert not (y_base.any() or last.any() or x_sum.any() or max_norm.any())


@pytest.mark.parametrize("capacity", [False, True], ids=["free", "capacity"])
def test_explicit_step_on_a_full_column_matches(compiled, monkeypatch, capacity):
    # every column has an entry in each of the m rows, so it fills the
    # compiled loop's scratch; the steps accept and refuse
    inst = generate_mkp(MkpParams(m=8, n=20, tightness=0.3, density=1.0, seed=2))
    assert np.all(np.diff(inst.col_ptr) == 8)
    starts = (np.zeros(8), np.random.default_rng(2).uniform(0.0, 2.0, 8))
    taken = set()
    for y in starts:
        for j in range(inst.num_cols):
            # none, some or all of the column's entries fit
            cap = np.full(8, inst.values.max() * (j % 3) / 2) if capacity else None
            got = explicit_step(inst, y, j, 0.05, cap)
            with monkeypatch.context() as mp:
                mp.setattr(_kernel, "_state", (None, "reference run"))
                want = explicit_step(inst, y, j, 0.05, cap)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            taken.add(got[1])
    assert taken == {0.0, 1.0}


def test_pointers_give_none_for_an_absent_array():
    a, b = np.zeros(3), np.zeros(2, dtype=np.int64)
    assert _kernel.pointers(("a", a, np.float64, 3), ("none", None, np.uint8, 9),
                            ("b", b, np.int64, 2)) == [a.ctypes.data, None, b.ctypes.data]
    # an absent array does not excuse the others from their checks
    with pytest.raises(ValueError, match="b must be contiguous int64 of size 3"):
        _kernel.pointers(("none", None, np.float64, 3), ("b", b, np.int64, 3))


# -- the explicit loop's lookahead ---------------------------------------------
# The compiled loop reads ahead in seq by AHEAD and 2 AHEAD steps; these runs
# put the ends of the stream, its empty columns and an early escape inside
# that distance.

AHEAD = int(re.search(r"\bAHEAD = (\d+)", _kernel.SOURCE.read_text()).group(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_streams_shorter_than_the_lookahead_match(compiled, monkeypatch, n):
    inst = generate_mkp(MkpParams(m=6, n=n, tightness=0.5, seed=n))
    # K = 1 ends the stream within AHEAD steps, K = 4 within 2 AHEAD
    assert 3 < AHEAD and 4 * 3 < 2 * AHEAD
    for k in (1, 4):
        for enforce in (False, True):
            cfg = RunConfig(duplication=k, seed=n, enforce_feasibility=enforce)
            assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


def test_empty_first_and_last_columns_match(compiled, monkeypatch):
    # reading ahead to the last column reads col_ptr[n]
    base = generate_mkp(MkpParams(m=8, n=40, tightness=0.3, density=0.5, seed=11))
    nnz = base.col_ptr[-1]
    col_ptr = np.concatenate([[0], base.col_ptr, [nnz]])
    inst = LpInstance(8, 42, col_ptr, base.row_idx, base.values, base.rhs,
                      np.concatenate([[1.0], base.obj, [2.0]]), np.ones(42))
    assert inst.col_ptr[1] == 0 and inst.col_ptr[-2] == nnz
    for enforce in (False, True):
        cfg = RunConfig(duplication=4, seed=11, enforce_feasibility=enforce)
        sol = solve_online(inst, cfg)
        assert sol.x_hat[0] == sol.x_hat[-1] == 1.0
        assert_same(sol, reference(monkeypatch, inst, cfg))


def test_an_escape_within_the_lookahead_matches(compiled, monkeypatch):
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.3, seed=2))
    gamma = solve_online(inst, RunConfig(duplication=4)).gamma
    seq = np.random.default_rng(2).permutation(4 * 60) % 60
    start = np.zeros(8)
    # half the largest norm of y^0 .. y^4: y^0 = 0 passes, and one of the
    # next four escapes, long before the stream's end
    _, early = loop_state(online._python_loop, inst, seq[:4], gamma, start, None, math.inf)
    bound = np.frombuffer(early["max_norm"])[0] / 2
    k, state = loop_state(online._python_loop, inst, seq, gamma, start, None, bound)
    assert 0 < k <= 4 < AHEAD
    assert loop_state(online._compiled_loop, inst, seq, gamma, start, None,
                      bound) == (k, state)
    # and through the pass, under check_dual_bounds
    cfg = RunConfig(duplication=4, check_dual_bounds=True)
    monkeypatch.setattr(online, "explicit_dual_norm_bound", lambda *args: 1e-9)
    with pytest.raises(RuntimeError) as got:
        solve_online(inst, cfg)
    with pytest.raises(RuntimeError) as want:
        reference(monkeypatch, inst, cfg)
    assert str(got.value) == str(want.value)
    assert int(re.search(r"at step (\d+)", str(got.value)).group(1)) < AHEAD


@pytest.mark.parametrize("enforce", [False, True], ids=["free", "capacity"])
def test_a_long_stream_matches(compiled, monkeypatch, enforce):
    inst = generate_mkp(MkpParams(m=50, n=3000, tightness=0.05, density=0.1, seed=12))
    cfg = RunConfig(duplication=2, seed=12, enforce_feasibility=enforce)
    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


@pytest.mark.parametrize("engine", ["compiled", "python"])
def test_rejects_what_the_kernel_could_not_index(monkeypatch, engine):
    if engine == "python":
        monkeypatch.setattr(_kernel, "_state", (None, "reference run"))
    inst = LpInstance.from_dense([[1.0, 2.0], [0.5, 1.0]], [1.0, 1.0], [3.0, 1.0])
    with pytest.raises(IndexError):
        explicit_step(inst, [1.0, 1.0], 2, gamma=0.1)
    with pytest.raises(IndexError):
        explicit_step(inst, [1.0, 1.0], -1, gamma=0.1)
    with pytest.raises(ValueError):
        explicit_step(inst, [1.0], 0, gamma=0.1)
    with pytest.raises(ValueError):
        explicit_step(inst, [1.0, 1.0], 0, gamma=0.1, remaining_capacity=[1.0])


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_loads_when_a_compiler_exists():
    # a build without either loop fails here, so a broken kernel cannot skip
    # the differential tests and leave the suite green
    lib = _kernel.load()
    assert lib is not None, _kernel.reason()
    assert set(_kernel._SIGNATURES) == {"explicit_pass", "simplex_pivots", "mps_sweep",
                                        "price_sweep", "support_product"}
    for name in _kernel._SIGNATURES:
        assert getattr(lib, name).argtypes, name
    assert explicit_engine() == "compiled"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_is_clean_and_matches_its_signatures():
    # an unused parameter or variable fails the first check; a ctypes
    # signature that slips from its C definition corrupts memory silently
    done = subprocess.run(["cc", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                           str(_kernel.SOURCE)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    source = _kernel.SOURCE.read_text()
    scalar = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "int": ctypes.c_int}
    for name, (_, argtypes) in _kernel._SIGNATURES.items():
        params = re.search(rf"\b{name}\(([^)]*)\)\s*{{", source).group(1).split(",")
        want = [ctypes.c_void_p if "*" in p else scalar[p.split()[-2]] for p in params]
        assert list(argtypes) == want, name


def test_a_missing_loop_unloads_both(monkeypatch):
    def only_explicit(cc):
        return types.SimpleNamespace(explicit_pass=types.SimpleNamespace())

    monkeypatch.setattr(_kernel, "_compiler", lambda: "cc")
    monkeypatch.setattr(_kernel, "_open", only_explicit)
    monkeypatch.setattr(_kernel, "_state", None)
    assert _kernel.load() is None
    assert _kernel.reason() == "kernel has no function simplex_pivots"
    assert explicit_engine() == "python: kernel has no function simplex_pivots"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_builds_for_the_process_without_a_cache(monkeypatch):
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: None)
    monkeypatch.setattr(_kernel, "_state", None)
    assert _kernel.load() is not None, _kernel.reason()


@pytest.mark.parametrize("compiler, why", [(lambda: "/nonexistent/bin/cc", "/nonexistent/bin/cc"),
                                           (lambda: None, "no C compiler")],
                         ids=["missing-path", "none-on-path"])
def test_no_compiler_falls_back_to_python(monkeypatch, compiler, why):
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.3, seed=5))
    cfg = RunConfig(duplication=4, enforce_feasibility=True)
    usual = solve_online(inst, cfg)
    monkeypatch.setattr(_kernel, "_compiler", compiler)
    monkeypatch.setattr(_kernel, "_state", None)
    assert _kernel.load() is None
    assert explicit_engine().startswith("python: ") and why in explicit_engine()
    fallback = solve_online(inst, cfg)
    assert np.array_equal(fallback.x_hat, usual.x_hat)
    assert fallback.y_final.tobytes() == usual.y_final.tobytes()
    assert fallback.objective == usual.objective


# -- the simplex pivot loop ---------------------------------------------------

def reference_lp(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_state", (None, "reference run"))
        return solve_lp(*args, **kwargs)


def assert_same_lp(a, b):
    for name in ("x_star", "y_star"):
        got, want = getattr(a, name), getattr(b, name)
        assert (got is None) == (want is None), name
        if got is not None:
            assert got.tobytes() == want.tobytes(), name
    assert np.float64(a.obj).tobytes() == np.float64(b.obj).tobytes()
    for name in ("status", "basis", "at_upper", "iterations", "warm_started"):
        assert getattr(a, name) == getattr(b, name), name


def recorded(monkeypatch, solve):
    """``solve()`` and what each call of the pivot loops, compiled or not,
    hands back: its reason, the state vector, the statuses, the basic
    values, and the reduced costs and devex weights it leaves in the
    workspace."""
    calls = []

    def recording(pivots):
        def run(ws, cost, limit):
            reason = pivots(ws, cost, limit)
            calls.append((reason, ws.state.tobytes(), ws.status.tobytes(), ws.x_b.tobytes(),
                          ws.d.tobytes(), ws.w.tobytes()))
            return reason
        return run

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_python_pivots", recording(simplex._python_pivots))
        mp.setattr(simplex, "_compiled_pivots", recording(simplex._compiled_pivots))
        return solve(), calls


def solve_both(monkeypatch, instance, **kwargs):
    """solve_lp on both engines, which must agree bit for bit in the
    result and in every hand-back of the pivot loops."""
    got, got_calls = recorded(monkeypatch, lambda: solve_lp(instance, **kwargs))
    want, want_calls = recorded(monkeypatch,
                                lambda: reference_lp(monkeypatch, instance, **kwargs))
    assert_same_lp(got, want)
    assert len(got_calls) == len(want_calls)
    for k, (a, b) in enumerate(zip(got_calls, want_calls)):
        assert a == b, f"hand-back {k}"
    return got


@pytest.mark.parametrize("m, n, density, period", [
    pytest.param(8, 300, 1.0, 5, id="8-300-1.0"), pytest.param(8, 600, 0.1, 5, id="8-600-0.1"),
    pytest.param(100, 400, 1.0, None, id="100-400-1.0"),
    pytest.param(100, 1200, 0.1, None, id="100-1200-0.1"),
    pytest.param(8, 600, 0.1, 1, id="8-600-0.1-period1"),
    pytest.param(100, 1200, 0.1, 1, id="100-1200-0.1-period1")])
def test_simplex_matches_python_engine(compiled, monkeypatch, m, n, density, period):
    # period 5 at m=8, which makes few pivots, crosses several
    # refactorizations; period 1 hands back after every basis change
    refactorizations = 0
    refactorize = simplex._Workspace.refactorize

    def counting(ws):
        nonlocal refactorizations
        refactorizations += 1
        refactorize(ws)

    monkeypatch.setattr(simplex._Workspace, "refactorize", counting)
    if period is not None:
        monkeypatch.setattr(simplex, "REFACTOR_PERIOD", period)
    inst = generate_mkp(MkpParams(m=m, n=n, tightness=0.05 if density < 1 else 0.25,
                                  density=density, seed=1))
    res = solve_both(monkeypatch, inst)
    assert res.status is SolveStatus.OPTIMAL
    assert refactorizations >= 2 * (1 + 3)   # both engines: the start plus three more


def test_simplex_phase_one_matches(compiled, monkeypatch):
    rng = np.random.default_rng(8)
    m, n = 40, 400
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.3)
    u = rng.random(n) + 0.5
    b = A @ (rng.random(n) * u) + rng.random(m)
    assert np.sum(b < 0) >= 5
    res = solve_both(monkeypatch, LpInstance.from_dense(A, b, rng.normal(size=n), upper=u))
    assert res.status is SolveStatus.OPTIMAL


def test_simplex_bound_flips_match(compiled, monkeypatch):
    # with REFACTOR_PERIOD = 1 the reference hands back after every basis
    # change, so the iterations beyond the hand-backs are bound flips
    hand_backs = 0
    pivots = simplex._python_pivots

    def counting(*args):
        nonlocal hand_backs
        reason = pivots(*args)
        hand_backs += reason == _kernel.REFACTOR
        return reason

    inst = generate_mkp(MkpParams(m=8, n=200, tightness=0.3, density=0.1, seed=3))
    upper = np.random.default_rng(3).uniform(0.05, 3.0, inst.num_cols)
    inst = LpInstance(inst.num_rows, inst.num_cols, inst.col_ptr, inst.row_idx,
                      inst.values, inst.rhs, inst.obj, upper)
    monkeypatch.setattr(simplex, "REFACTOR_PERIOD", 1)
    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_python_pivots", counting)
        want = reference_lp(monkeypatch, inst)
    assert want.status is SolveStatus.OPTIMAL and want.iterations > hand_backs > 0
    assert_same_lp(solve_both(monkeypatch, inst), want)


@pytest.mark.parametrize("period", [1, None])
def test_each_entry_prices_afresh_and_resets_the_weights(compiled, monkeypatch, period):
    # what the pivot loops find in d and w at a hand-back or a phase's
    # start is never read: spoiling it changes nothing on either engine
    if period is not None:
        monkeypatch.setattr(simplex, "REFACTOR_PERIOD", period)
    rng = np.random.default_rng(4)
    A = rng.normal(size=(30, 300)) * (rng.random((30, 300)) < 0.3)
    u = rng.random(300) + 0.5
    inst = LpInstance.from_dense(A, A @ (rng.random(300) * u) + rng.random(30),
                                 rng.normal(size=300), upper=u)
    assert np.any(inst.rhs < 0)   # Phase 1, then Phase 2
    usual = solve_both(monkeypatch, inst)

    def spoiling(pivots):
        def run(ws, *args):
            for v in (ws.d, ws.w):
                v[:] = rng.normal(size=v.size) * 1e3
            return pivots(ws, *args)
        return run

    monkeypatch.setattr(simplex, "_python_pivots", spoiling(simplex._python_pivots))
    monkeypatch.setattr(simplex, "_compiled_pivots", spoiling(simplex._compiled_pivots))
    assert_same_lp(solve_both(monkeypatch, inst), usual)


@pytest.mark.parametrize("engine", ["compiled", "python"])
def test_every_optimal_hand_back_prices_nothing_afresh(monkeypatch, engine):
    # the loops stop OPTIMAL only on reduced costs priced afresh: so a
    # fresh btran and pricing of the final basis finds no column to enter
    if engine == "compiled" and _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")
    if engine == "python":
        monkeypatch.setattr(_kernel, "_state", (None, "reference run"))
    optimal = 0

    def checking(pivots):
        def run(ws, cost, limit):
            nonlocal optimal
            reason = pivots(ws, cost, limit)
            if reason == _kernel.OPTIMAL:
                z = cost - ws.products(ws.btran(cost[ws.basis]))
                eligible = (((ws.status == 0) & (z > simplex.OPT_TOL))
                            | ((ws.status == 1) & (z < -simplex.OPT_TOL)))
                assert not np.any(eligible[:ws.n + ws.m])   # artificials never enter
                optimal += 1
            return reason
        return run

    monkeypatch.setattr(simplex, "_python_pivots", checking(simplex._python_pivots))
    monkeypatch.setattr(simplex, "_compiled_pivots", checking(simplex._compiled_pivots))
    rng = np.random.default_rng(21)
    solves = 0
    for m, n, tau, seed in [(8, 300, 0.25, 1), (30, 900, 0.05, 2), (100, 1200, 0.05, 3)]:
        inst = generate_mkp(MkpParams(m=m, n=n, tightness=tau, density=0.1, seed=seed))
        upper = rng.uniform(0.05, 3.0, n) if seed == 2 else inst.upper   # bound flips
        solves += solve_lp(with_upper(inst, upper)).status is SolveStatus.OPTIMAL
    for _ in range(40):   # small and degenerate, some with negative rhs (Phase 1)
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 12))
        A = rng.integers(-1, 3, size=(m, n)).astype(float)
        res = solve_lp(LpInstance.from_dense(A, rng.integers(-1, 4, size=m).astype(float),
                                             rng.integers(-2, 3, size=n).astype(float),
                                             upper=np.full(n, 2.0)))
        solves += res.status is SolveStatus.OPTIMAL
    assert optimal >= solves >= 20


def test_updated_reduced_costs_that_price_nothing_are_renewed(compiled, monkeypatch):
    # columns repeated at three scales leave reduced costs that are 0 in
    # exact arithmetic; with no pricing tolerance their rounding decides,
    # and the updated d and a fresh pricing of it round differently.  So
    # some fresh pricing after an updated d priced nothing finds a column,
    # and pivoting goes on, on both engines alike
    monkeypatch.setattr(simplex, "OPT_TOL", 0.0)
    rng = np.random.default_rng(0)
    A = rng.normal(size=(10, 20)) * (rng.random((10, 20)) < 0.6)
    c = rng.normal(size=20)
    inst = LpInstance.from_dense(np.hstack([A, 3.0 * A, 0.1 * A]), rng.random(10) + 0.1,
                                 np.concatenate([c, 3.0 * c, 0.1 * c]), upper=np.full(60, 2.0))
    events = []
    btran, entering = simplex._Workspace.btran, simplex._entering

    def pricing(ws, *args):   # the pivot loops btran only to price afresh
        events.append("fresh")
        return btran(ws, *args)

    def choosing(*args):
        q = entering(*args)
        events.append(q >= 0)
        return q

    with monkeypatch.context() as mp:
        mp.setattr(simplex._Workspace, "btran", pricing)
        mp.setattr(simplex, "_entering", choosing)
        reference_lp(monkeypatch, inst)
    # a choice from an updated d (not just after a fresh pricing) found
    # nothing, and the fresh pricing that followed found a column
    renewed = [k for k in range(1, len(events) - 2)
               if events[k - 1] != "fresh" and events[k:k + 3] == [False, "fresh", True]]
    assert renewed
    assert solve_both(monkeypatch, inst).status is SolveStatus.OPTIMAL


@pytest.mark.parametrize("spoil", ["short work", "float32 work", "strided work", "float32 cost",
                                   "strided basic values", "int32 state", "Fortran inverse"])
def test_the_compiled_pivots_refuse_an_array_they_would_misread(compiled, spoil):
    # the workspace's arrays are checked when ``kernel_pointers`` is first
    # read, which here is the call below
    inst = generate_mkp(MkpParams(m=4, n=30, tightness=0.3, seed=1))
    ws = simplex._Workspace(inst, np.empty(0, dtype=np.int64))
    ws.start(np.arange(30, 34), np.empty(0, dtype=np.int64))
    cost = np.concatenate([inst.obj, np.zeros(4)])
    size = 4 * 4 + 2 * ws.n_total
    if spoil == "short work":
        ws.work = np.empty(size - 1)
    elif spoil == "float32 work":
        ws.work = np.empty(size, dtype=np.float32)
    elif spoil == "strided work":
        ws.work = np.empty(2 * size)[::2]
    elif spoil == "float32 cost":
        cost = cost.astype(np.float32)
    elif spoil == "strided basic values":
        ws.x_b = np.repeat(ws.x_b, 2)[::2]
    elif spoil == "int32 state":
        ws.state = ws.state.astype(np.int32)
    else:
        ws.binv = np.asfortranarray(ws.binv)
    before = ws.status.copy(), ws.basis.copy()
    with pytest.raises(ValueError, match="must be contiguous"):
        simplex._compiled_pivots(ws, cost, 100)
    assert np.array_equal(ws.status, before[0]) and np.array_equal(ws.basis, before[1])
    assert not ws.state.any()


def test_simplex_degenerate_lps_reach_blands_rule(compiled, monkeypatch):
    engines = {}

    def recording(name, pivots):
        def run(ws, cost, limit):
            reason = pivots(ws, cost, limit)
            engines[name] = engines.get(name, False) or bool(ws.state[simplex._BLAND])
            return reason
        return run

    monkeypatch.setattr(simplex, "_python_pivots", recording("python", simplex._python_pivots))
    monkeypatch.setattr(simplex, "_compiled_pivots",
                        recording("compiled", simplex._compiled_pivots))
    # Bland's rule from the first degenerate pivot on: ties in the ratio
    # test then go to the smallest basic column id
    monkeypatch.setattr(simplex, "STALL_WINDOW", 1)
    rng = np.random.default_rng(77)
    for _ in range(100):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 9))
        A = rng.integers(0, 3, size=(m, n)).astype(float)
        if not np.any(A):
            continue
        inst = LpInstance.from_dense(A, rng.integers(0, 3, size=m).astype(float),
                                     rng.integers(-2, 3, size=n).astype(float))
        solve_both(monkeypatch, inst)
    assert engines == {"python": True, "compiled": True}


def test_simplex_warm_starts_match(compiled, monkeypatch):
    inst = generate_mkp(MkpParams(m=100, n=2000, tightness=0.05, density=0.1, seed=6))
    w = np.sort(np.random.default_rng(6).choice(2000, size=200, replace=False))
    prev = solve_both(monkeypatch, inst.restrict_columns(w))
    for _ in range(2):
        w_new = np.union1d(w, price(inst, w, prev.y_star))
        warm = _map_warm_basis(prev, w, w_new, inst.num_rows)
        prev = solve_both(monkeypatch, inst.restrict_columns(w_new), warm_basis=warm)
        assert prev.warm_started
        w = w_new


@pytest.mark.parametrize("refusal", ["out of range", "singular", "infeasible"])
@pytest.mark.parametrize("rhs", ["nonnegative", "mixed"])
def test_a_refused_warm_start_is_the_cold_solve(compiled, monkeypatch, refusal, rhs):
    if rhs == "mixed":  # the cold solve then runs Phase 1
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 40)) * (rng.random((6, 40)) < 0.5)
        inst = LpInstance.from_dense(A, A @ rng.random(40) + rng.normal(size=6) * 0.1,
                                     rng.normal(size=40), upper=np.ones(40))
        assert np.any(inst.rhs < 0)
    else:
        inst = generate_mkp(MkpParams(m=6, n=60, tightness=0.3, seed=2))
    m, n = inst.num_rows, inst.num_cols
    warm = {"out of range": (range(n + 1, n + m + 1), ()),    # n + m is no slack
            "singular": ([n, n, *range(n + 2, n + m)], ()),
            # all slacks: every column at its upper bound overfills the rows,
            # or, with no column there, a negative rhs leaves a slack below 0
            "infeasible": (range(n, n + m), range(n) if rhs == "nonnegative" else ()),
            }[refusal]
    for solve in (solve_lp, functools.partial(reference_lp, monkeypatch)):
        got = solve(inst, warm_basis=warm)
        assert got.status is SolveStatus.OPTIMAL and not got.warm_started
        assert_same_lp(got, solve(inst))


@pytest.mark.parametrize("max_iter", [1, 37, 250])
def test_simplex_iteration_limit_matches(compiled, monkeypatch, max_iter):
    inst = generate_mkp(MkpParams(m=100, n=600, tightness=0.05, density=0.1, seed=2))
    res = solve_both(monkeypatch, inst, max_iter=max_iter)
    assert res.status is SolveStatus.ITERATION_LIMIT and res.iterations == max_iter


@pytest.mark.parametrize("seed", [0, 1])
def test_whole_sift_runs_match(compiled, monkeypatch, seed):
    inst = generate_mkp(MkpParams(m=100, n=5000, tightness=0.05, density=0.1, seed=seed))
    pre = solve_online(inst, RunConfig(duplication=2, seed=seed))
    got = sift(inst, pre, SiftConfig())
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_state", (None, "reference run"))
        want = sift(inst, pre, SiftConfig())
    assert got.rounds >= 2
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert_same_lp(got.exact, want.exact)
    untimed = dict(wall_time_s=0.0, solve_s=0.0, price_s=0.0)
    assert [replace(r, **untimed) for r in got.trace] == \
        [replace(r, **untimed) for r in want.trace]
