"""The compiled explicit-pass kernel against its reference, the Python loop.

The reference runs with the loader's handle set to None, which is what the
explicit engine sees when no kernel could be built.
"""

import shutil

import numpy as np
import pytest

from onlinelp import _kernel, online
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance
from onlinelp.online import RunConfig, explicit_engine, explicit_step, solve_online


@pytest.fixture
def compiled():
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")


def reference(monkeypatch, instance, config):
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_state", (None, "reference run"))
        assert explicit_engine().startswith("python")
        return solve_online(instance, config)


def assert_same(a, b):
    for name in ("x_hat", "y_final", "objective", "violation", "gamma"):
        assert np.float64(getattr(a, name)).tobytes() == np.float64(getattr(b, name)).tobytes(), name
    assert a.elapsed_columns == b.elapsed_columns
    assert a.max_dual_norm == pytest.approx(b.max_dual_norm, rel=1e-12, abs=0.0)


def with_upper(instance, upper):
    return LpInstance(instance.num_rows, instance.num_cols, instance.col_ptr,
                      instance.row_idx, instance.values, instance.rhs, instance.obj, upper)


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
@pytest.mark.parametrize("m, n", [(8, 60), (100, 40)])
def test_matches_python_engine(compiled, monkeypatch, m, n, lazy):
    # density 1.0 gives supports of m entries: at m = 100 the BLAS dot
    # product of the reference takes its blocked path
    for seed, density in ((0, 1.0), (1, 0.3)):
        inst = generate_mkp(MkpParams(m=m, n=n, tightness=0.3, density=density, seed=seed))
        vector = np.random.default_rng(seed).uniform(0.0, 2.0, m)
        for k in (1, 4, 32):
            for enforce in (False, True):
                for start in ("zero", "ones", vector):
                    cfg = RunConfig(duplication=k, seed=seed, enforce_feasibility=enforce,
                                    start=start, lazy=lazy)
                    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_matches_python_engine_non_unit_upper(compiled, monkeypatch, lazy):
    inst = generate_mkp(MkpParams(m=8, n=60, tightness=0.5, seed=3))
    inst = with_upper(inst, np.random.default_rng(3).uniform(0.5, 3.0, inst.num_cols))
    cfg = RunConfig(duplication=8, seed=3, enforce_feasibility=True, lazy=lazy)
    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


@pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
def test_negative_zero_start_matches(compiled, monkeypatch, lazy):
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
    cfg = RunConfig(duplication=4, seed=4, start=start, lazy=lazy, check_assumptions=False)
    assert_same(solve_online(inst, cfg), reference(monkeypatch, inst, cfg))


def test_tie_is_handed_back_to_numpy(compiled, monkeypatch):
    """c_0 equals numpy's <a_0, y0>, but not the kernel's sequential sum:
    only the hand-back makes the kernel refuse the column as numpy does."""
    rng = np.random.default_rng(7)
    m = 12
    while True:
        vals = rng.uniform(0.1, 1.0, m)
        y0 = rng.uniform(0.1, 1.0, m)
        sequential = 0.0
        for a, y in zip(vals.tolist(), y0.tolist()):
            sequential += a * y
        if sequential < float(vals @ y0):
            break
    inst = LpInstance(m, 1, [0, m], np.arange(m), vals, np.ones(m),
                      [float(vals @ y0)], [1.0])
    for lazy in (False, True):
        cfg = RunConfig(stepsize=0.01, start=y0, lazy=lazy)
        sol = solve_online(inst, cfg)
        assert sol.x_hat[0] == 0.0
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
    assert _kernel.load() is not None, _kernel.reason()
    assert explicit_engine() == "compiled"


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
