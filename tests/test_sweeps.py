"""The sweeps over A against their scipy references, bit for bit.

``model._sweep`` (c - A^T y, with sifting's mask, blend and counts),
``sifting.price`` and ``model._product`` (A x over the support of x) run
in the compiled kernel in 1, 2 and 3 parts, and with ``_kernel.load``
patched to return None, which is what every caller sees when no kernel
could be built.
"""

import threading

import numpy as np
import pytest

from onlinelp import _kernel, model
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance, constraint_violation
from onlinelp.sifting import ALPHA, _top, init_working_set, price


@pytest.fixture(params=["compiled-1", "compiled-2", "compiled-3", "reference"])
def engine(request, monkeypatch):
    """The engine a case runs on: the kernel in that many parts (a floor of
    one entry a part), or the references."""
    if request.param == "reference":
        monkeypatch.setattr(_kernel, "load", lambda: None)
        return request.param
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")
    parts = int(request.param[-1])
    monkeypatch.setattr(model, "_PART_FLOOR", 1)
    monkeypatch.setattr(_kernel, "cpus", lambda: parts)
    return request.param


def with_empty_columns():
    """Columns 0, 3, 4 and the last hold no entry."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 12)) * (rng.random((5, 12)) < 0.5)
    A[:, [0, 3, 4, 11]] = 0.0
    A[0, 1] = A[2, 5] = 1.5   # so that some columns are not empty
    return LpInstance.from_dense(A, np.ones(5), rng.normal(size=12))


INSTANCES = {
    "generated": lambda: generate_mkp(MkpParams(m=20, n=500, tightness=0.1, density=0.1,
                                                seed=4)),
    "dense": lambda: generate_mkp(MkpParams(m=8, n=300, tightness=0.25, density=1.0, seed=1)),
    "empty-columns": with_empty_columns,
    "one-column": lambda: LpInstance.from_dense([[2.0], [-1.0], [0.5]], np.ones(3), [1.0]),
}


@pytest.fixture(params=sorted(INSTANCES))
def instance(request):
    return INSTANCES[request.param]()


def duals(m: int) -> list:
    rng = np.random.default_rng(m)
    y = rng.random(m) * 3
    signed = rng.normal(size=m)
    signed[::2] = -0.0
    return [y, np.zeros(m), -rng.random(m), signed]


def reference_price(instance, working_set, y, tol=1e-7, max_new=None, anchor_share=None):
    """``price`` as numpy passes over scipy's product."""
    reduced = instance.obj - instance.to_scipy().T @ y
    reduced[np.asarray(working_set, dtype=np.int64)] = -np.inf
    if anchor_share is not None:
        blended = ALPHA * reduced
        blended += anchor_share
        if (blended > tol).any():
            reduced = blended
    violated = (reduced > tol).nonzero()[0]
    if max_new is not None:
        violated = violated[_top(reduced[violated], max_new)]
    return violated


def same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSweep:
    def test_reduced_costs_match(self, engine, instance):
        for y in duals(instance.num_rows):
            same(model._reduced_costs(instance, y), instance.obj - instance.to_scipy().T @ y)

    def test_mask_blend_and_counts_match(self, engine, instance):
        n = instance.num_cols
        rng = np.random.default_rng(n)
        for y in duals(instance.num_rows):
            want = instance.obj - instance.to_scipy().T @ y
            working = (rng.random(n) < 0.3).astype(np.uint8)
            want[working.astype(bool)] = -np.inf
            share = (1 - ALPHA) * rng.normal(size=n)
            blend = ALPHA * want
            blend += share
            for tol in (1e-7, -1.0, 10.0):
                r, b, counts = model._sweep(instance, y, working, share, ALPHA, tol)
                same(r, want)
                same(b, blend)
                assert counts == (np.count_nonzero(want > tol), np.count_nonzero(blend > tol))
            r, b, counts = model._sweep(instance, y)
            same(r, instance.obj - instance.to_scipy().T @ y)
            assert b is None and counts[1] == 0

    def test_a_strided_dual_is_read_as_its_values(self, engine, instance):
        m = instance.num_rows
        wide = np.random.default_rng(3).random(2 * m)
        same(model._reduced_costs(instance, wide[::2]),
             model._reduced_costs(instance, wide[::2].copy()))
        same(model._reduced_costs(instance, np.ones(m, dtype=np.float32)),
             model._reduced_costs(instance, np.ones(m)))


class TestPrice:
    def test_matches_the_numpy_passes(self, engine, instance):
        n = instance.num_cols
        rng = np.random.default_rng(n + 1)
        for y in duals(instance.num_rows):
            anchor = (1 - ALPHA) * (instance.obj - instance.to_scipy().T @ rng.random(y.size))
            for working in ([], [0], np.sort(rng.choice(n, size=max(1, n // 4), replace=False))):
                for max_new in (None, 1, 3):
                    for share in (None, anchor):
                        same(price(instance, working, y, 1e-7, max_new, anchor_share=share),
                             reference_price(instance, working, y, 1e-7, max_new, share))

    def test_ties_under_the_cap_go_to_the_lower_index(self, engine):
        inst = LpInstance.from_dense([[1.0] * 6], [1.0], [2.0, 1.0, 2.0, 3.0, 2.0, 2.0])
        share = np.zeros(6)
        for max_new in (1, 2, 3, 6):
            for working in ([], [0, 3], [3]):
                for s in (None, share):
                    same(price(inst, working, np.zeros(1), max_new=max_new, anchor_share=s),
                         reference_price(inst, working, np.zeros(1), 1e-7, max_new, s))
        same(price(inst, [0, 3], np.zeros(1), max_new=2), np.array([2, 4]))

    def test_a_blend_that_prices_nothing_falls_back(self, engine):
        inst = LpInstance.from_dense([[1.0, 1.0, 1.0]], [1.0], [3.0, 1.0, 2.0])
        share = (1 - ALPHA) * np.full(3, -10.0)
        same(price(inst, [], np.zeros(1), anchor_share=share), np.array([0, 1, 2]))
        same(price(inst, [0], np.zeros(1), anchor_share=share), np.array([1, 2]))
        # and with the exact dual nothing is priced either way
        same(price(inst, [], np.full(1, 3.0), anchor_share=share), np.empty(0, np.int64))

    def test_the_initial_working_set_matches(self, engine, instance):
        for y in duals(instance.num_rows):
            for count in (1, 3, instance.num_cols):
                same(init_working_set(instance, y, count),
                     _top(instance.obj - instance.to_scipy().T @ y, count))


class TestProduct:
    def xs(self, n: int) -> list:
        rng = np.random.default_rng(n)
        sparse = np.zeros(n)
        sparse[rng.choice(n, size=max(1, n // 50), replace=False)] = rng.random(max(1, n // 50))
        signed_zeros = sparse.copy()
        signed_zeros[::3] = -0.0
        dense = rng.normal(size=n)
        dense[::5] = -0.0
        return [np.zeros(n), np.full(n, -0.0), sparse, signed_zeros, dense, np.ones(n)]

    def test_matches_scipy(self, engine, instance):
        for x in self.xs(instance.num_cols):
            same(model._product(instance, x), instance.to_scipy() @ x)
            want = np.maximum(instance.to_scipy() @ x - instance.rhs, 0.0)
            assert constraint_violation(instance, x) == float(np.linalg.norm(want))

    def test_a_non_finite_entry_is_read(self, engine):
        inst = INSTANCES["generated"]()
        for bad in (np.nan, np.inf):
            x = np.zeros(inst.num_cols)
            x[7] = bad
            same(model._product(inst, x), inst.to_scipy() @ x)

    def test_a_strided_x_is_read_as_its_values(self, engine, instance):
        wide = np.random.default_rng(5).random(2 * instance.num_cols)
        assert constraint_violation(instance, wide[::2]) == \
            constraint_violation(instance, wide[::2].copy())


@pytest.fixture
def compiled():
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        CountingThread.started += 1
        super().start()


class TestParts:
    def test_a_sweep_below_the_floor_starts_no_thread(self, compiled, monkeypatch):
        inst = INSTANCES["generated"]()
        assert inst.nnz < 2 * model._PART_FLOOR
        monkeypatch.setattr(_kernel, "cpus", lambda: 3)
        monkeypatch.setattr(model.threading, "Thread", CountingThread)
        CountingThread.started = 0
        y = np.random.default_rng(0).random(inst.num_rows)
        model._reduced_costs(inst, y)
        price(inst, [0, 1], y, anchor_share=np.zeros(inst.num_cols))
        assert model._sweep_parts(inst) == [0, inst.num_cols]
        assert CountingThread.started == 0
        # above it, each part but the first runs on a thread of its own
        monkeypatch.setattr(model, "_PART_FLOOR", inst.nnz // 3)
        model._reduced_costs(inst, y)
        assert CountingThread.started == 2

    @pytest.mark.parametrize("cpus, parts", [(1, 1), (2, 2), (3, 3), (64, 4)])
    def test_parts_hold_about_equal_entries(self, monkeypatch, cpus, parts):
        inst = INSTANCES["generated"]()
        monkeypatch.setattr(_kernel, "cpus", lambda: cpus)
        monkeypatch.setattr(model, "_PART_FLOOR", inst.nnz // 4)
        bounds = model._sweep_parts(inst)
        assert len(bounds) == parts + 1 and bounds[0] == 0 and bounds[-1] == inst.num_cols
        entries = np.diff(inst.col_ptr[bounds])
        assert entries.sum() == inst.nnz and np.all(entries > 0)
        assert entries.max() - entries.min() <= 2 * np.diff(inst.col_ptr).max()

    @pytest.mark.parametrize("spoil", ["float32", "strided", "short", "int8 mask"])
    def test_the_compiled_sweep_refuses_an_array_it_would_misread(self, compiled, spoil):
        inst = INSTANCES["generated"]()
        n, y = inst.num_cols, np.ones(inst.num_rows)
        working, share = np.zeros(n, np.uint8), np.zeros(n)
        if spoil == "float32":
            share = share.astype(np.float32)
        elif spoil == "strided":
            share = np.zeros(2 * n)[::2]
        elif spoil == "short":
            share = share[:-1]
        else:
            working = working.astype(np.int16)
        with pytest.raises(ValueError, match="must be contiguous"):
            model._sweep(inst, y, working, share, ALPHA, 1e-7)
