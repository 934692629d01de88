import io
import itertools
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from onlinelp.instances import (
    MkpParams,
    ResultRecord,
    _draw_mkp,
    generate_mkp,
    netlib_modify,
    read_results_csv,
    write_results_csv,
)
from onlinelp.model import LpInstance, compute_stats
from onlinelp.mps import MpsParseError, parse_mps, write_mps
from onlinelp.simplex import SolveStatus, solve_lp

TOY_MPS = """\
* toy: max x1 + x2 s.t. x1 + x2 <= 0.5, 0 <= x <= 1
NAME          TOYHALF
OBJSENSE
    MAX
ROWS
 N  COST
 L  CAP
COLUMNS
    X1  COST  1.0  CAP  1.0
    X2  COST  1.0  CAP  1.0
RHS
    RHS  CAP  0.5
BOUNDS
 UP BND  X1  1.0
 UP BND  X2  1.0
ENDATA
"""


class TestGenerateMkp:
    def test_dense_b_formula_exact(self):
        params = MkpParams(m=5, n=40, tightness=0.25, density=1.0, seed=11)
        inst = generate_mkp(params)
        A = inst.to_dense()
        assert np.all((A >= 1) & (A <= 1000))
        np.testing.assert_array_equal(inst.rhs, (0.25 / 40) * A.sum(axis=1))
        stats = compute_stats(inst)
        assert stats.a_bar <= 1000 and stats.assumptions_ok

    def test_profit_structure(self):
        params = MkpParams(m=4, n=30, tightness=0.5, seed=3)
        inst = generate_mkp(params)
        A = inst.to_dense()
        delta = inst.obj - A.sum(axis=0) / 4
        assert np.all(delta >= 1 - 1e-9) and np.all(delta <= 500 + 1e-9)
        assert np.allclose(delta, np.round(delta))

    @pytest.mark.parametrize("field, value, message", [
        ("m", 2.5, "m must be an integer"), ("n", 10.0, "n must be an integer"),
        ("seed", 1.5, "seed must be an integer"), ("seed", -1, "seed must be an integer >= 0"),
        ("n", 0, "n must be an integer >= 1, got 0"),
        ("m", True, "m must be an integer >= 1, got True"),
        ("seed", False, "seed must be an integer >= 0, got False")])
    def test_a_setting_that_is_no_fitting_integer_is_refused(self, field, value, message):
        # each failed later inside generate_mkp with numpy's TypeError or ValueError
        with pytest.raises(ValueError, match=message):
            MkpParams(**{"m": 2, "n": 10, "tightness": 0.3, field: value})

    def test_numpy_integer_settings_are_accepted(self):
        got = generate_mkp(MkpParams(m=np.int32(3), n=np.int64(20), tightness=0.3,
                                     seed=np.uint8(5)))
        want = generate_mkp(MkpParams(m=3, n=20, tightness=0.3, seed=5))
        for field in ("col_ptr", "row_idx", "values", "rhs", "obj", "upper"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field

    def test_determinism(self):
        params = MkpParams(m=6, n=500, tightness=0.1, density=0.3, seed=42)
        a = generate_mkp(params)
        b = generate_mkp(params)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.row_idx, b.row_idx)
        assert np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(a.obj, b.obj)

    def test_density_concentration(self):
        params = MkpParams(m=100, n=2000, tightness=0.2, density=0.1, seed=7)
        inst = generate_mkp(params)
        frac = inst.nnz / (100 * 2000)
        assert abs(frac - 0.1) < 0.01

    def test_a3_perturbation_is_tiny(self):
        base = generate_mkp(MkpParams(m=3, n=20, tightness=0.4, seed=5))
        pert = generate_mkp(MkpParams(m=3, n=20, tightness=0.4, seed=5,
                                      perturb_a3=True))
        rel = np.abs(pert.obj - base.obj) / base.obj
        assert np.all(rel <= 1e-9)
        assert np.any(rel > 0)

    def test_redraw_or_signal_on_zero_row(self):
        # density so low that some row is almost surely empty; either a
        # successful redraw (b > 0) or the documented failure must occur
        params = MkpParams(m=40, n=3, tightness=0.5, density=0.05, seed=1)
        try:
            inst = generate_mkp(params)
            assert np.all(inst.rhs > 0)
        except ValueError as exc:
            assert "b > 0" in str(exc)

    def test_an_empty_row_is_redrawn(self):
        # attempt 0 leaves a row empty; attempt 1 does not
        params = MkpParams(m=4, n=5, tightness=0.5, density=0.3, seed=0)
        assert _draw_mkp(params, 0) is None
        inst = generate_mkp(params)
        assert inst.meta["attempt"] == 1
        assert np.all(inst.rhs > 0)

    def test_every_attempt_empty_raises(self):
        params = MkpParams(m=40, n=3, tightness=0.5, density=0.05, seed=0)
        with pytest.raises(ValueError, match="b > 0"):
            generate_mkp(params)

    def test_pre_sparsify_flag_changes_b(self):
        post = generate_mkp(MkpParams(m=5, n=50, tightness=0.3, density=0.5, seed=2))
        pre = generate_mkp(MkpParams(m=5, n=50, tightness=0.3, density=0.5, seed=2,
                                     b_pre_sparsify=True))
        assert np.all(pre.rhs >= post.rhs)
        assert np.any(pre.rhs > post.rhs)


def _dense_draw_mkp(params, attempt):
    """The reference generator: every chunk held dense, in float64.  Its
    constants are its own, so it also pins the chunk width and the ranges."""
    rng = np.random.default_rng([params.seed, attempt])
    m, n = params.m, params.n
    chunk, (lo, hi) = 1 << 15, (1, 1000)
    row_sums_pre = np.zeros(m)
    row_sums_post = np.zeros(m)
    col_sums = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    idx_parts, val_parts = [], []
    for start in range(0, n, chunk):
        width = min(chunk, n - start)
        vals = rng.integers(lo, hi + 1, size=(m, width)).astype(np.float64)
        if params.density < 1.0:
            keep = rng.random(size=(m, width)) < params.density
        else:
            keep = np.ones((m, width), dtype=bool)
        kept = np.where(keep, vals, 0.0)
        row_sums_pre += vals.sum(axis=1)
        row_sums_post += kept.sum(axis=1)
        col_sums[start:start + width] = kept.sum(axis=0)
        counts[start:start + width] = keep.sum(axis=0)
        keep_t = keep.T
        idx_parts.append(np.nonzero(keep_t)[1].astype(np.int64))
        val_parts.append(vals.T[keep_t])
    row_sums = row_sums_pre if params.b_pre_sparsify else row_sums_post
    b = (params.tightness / n) * row_sums
    if np.any(b <= 0.0):
        return None
    delta = rng.integers(1, 501, size=n).astype(np.float64)
    c = col_sums / m + delta
    if params.perturb_a3:
        c = c * (1.0 + 1e-9 * rng.random(n))
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return LpInstance(
        m, n, col_ptr, np.concatenate(idx_parts), np.concatenate(val_parts), b, c,
        np.ones(n),
        meta={"generator": asdict(params), "attempt": attempt, "label": params.label()},
    )


def _dense_generate_mkp(params):
    for attempt in range(10):
        inst = _dense_draw_mkp(params, attempt)
        if inst is not None:
            return inst
    return None


def _assert_same_instance(got, want):
    if want is None:
        assert got is None
        return
    for name in ("col_ptr", "row_idx", "values", "rhs", "obj", "upper"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert repr(got.meta) == repr(want.meta)


class TestGeneratorMatchesDenseReference:
    """The generator keeps only the kept entries and one chunk's integer
    draws; it must still draw the dense reference's instance, byte for byte."""

    @pytest.mark.parametrize("m,n", [
        (m, n) for m in (1, 7, 100) for n in (1, 50, 32_768, 32_769, 70_000)
        if m <= 7 or n <= 50])
    def test_byte_equal(self, m, n):
        nones = 0
        for density, perturb_a3, pre, attempt in itertools.product(
                (0.05, 0.3, 1.0), (False, True), (False, True), (0, 1)):
            params = MkpParams(m=m, n=n, tightness=0.3, density=density, seed=m + n,
                               perturb_a3=perturb_a3, b_pre_sparsify=pre)
            want = _dense_draw_mkp(params, attempt)
            nones += want is None
            _assert_same_instance(_draw_mkp(params, attempt), want)
            if attempt == 0:
                want = _dense_generate_mkp(params)
                try:
                    got = generate_mkp(params)
                except ValueError:
                    got = None
                _assert_same_instance(got, want)
        if n == 1:
            assert nones > 0   # the grid covers a draw that leaves a row empty

    def test_memory_is_that_of_the_kept_entries(self):
        # nnz = 4e5 (6.4 MB as row_idx and values); one chunk's dense
        # int64 and float64 temporaries would be 26 MB each
        tracemalloc.start()
        try:
            generate_mkp(MkpParams(m=100, n=40_000, tightness=0.05, density=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestNetlibModify:
    def test_rhs_floor(self):
        inst = LpInstance.from_dense([[1.0], [1.0]], [0.0, 5.0], [1.0])
        out = netlib_modify(inst)
        np.testing.assert_array_equal(out.rhs, [1e-3, 5.0])

    def test_upper_cap(self):
        inst = LpInstance.from_dense([[1.0]], [1.0], [1.0], upper=[np.inf])
        out = netlib_modify(inst)
        assert out.upper[0] == 100.0

    def test_idempotent(self):
        inst = LpInstance.from_dense([[1.0]], [2.0], [1.0], upper=[3.0])
        out = netlib_modify(inst)
        np.testing.assert_array_equal(out.rhs, inst.rhs)
        np.testing.assert_array_equal(out.upper, inst.upper)
        again = netlib_modify(out)
        np.testing.assert_array_equal(again.rhs, out.rhs)


class TestMpsParse:
    def test_toy_roundtrips_to_half(self):
        inst = parse_mps(io.StringIO(TOY_MPS))
        assert inst.num_rows == 1 and inst.num_cols == 2
        res = solve_lp(inst)
        assert res.status is SolveStatus.OPTIMAL
        assert res.obj == pytest.approx(0.5, abs=1e-9)

    def test_missing_endata(self):
        with pytest.raises(MpsParseError, match="ENDATA"):
            parse_mps(io.StringIO(TOY_MPS.replace("ENDATA\n", "")))

    def test_unknown_row_reference(self):
        bad = TOY_MPS.replace("    X1  COST  1.0  CAP  1.0",
                              "    X1  COST  1.0  NOPE  1.0")
        with pytest.raises(MpsParseError, match="NOPE"):
            parse_mps(io.StringIO(bad))

    def test_duplicate_entry_rejected(self):
        bad = TOY_MPS.replace("    X2  COST  1.0  CAP  1.0",
                              "    X1  CAP  2.0")
        with pytest.raises(MpsParseError, match="duplicate"):
            parse_mps(io.StringIO(bad))

    def test_error_carries_line_number(self):
        bad = TOY_MPS.replace("    RHS  CAP  0.5", "    RHS  CAP  abc")
        with pytest.raises(MpsParseError, match="line"):
            parse_mps(io.StringIO(bad))

    def test_minimization_negated(self):
        mps = """\
NAME T
ROWS
 N  OBJ
 L  R1
COLUMNS
    X  OBJ  2.0  R1  1.0
RHS
    RHS  R1  4.0
BOUNDS
 UP B  X  10.0
ENDATA
"""
        inst = parse_mps(io.StringIO(mps))
        assert inst.obj[0] == -2.0  # min 2x becomes max -2x
        assert inst.meta["objective_sense"] == "min"

    def test_equality_row_splits_into_pair(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 E  FIX
COLUMNS
    X  OBJ  1.0  FIX  1.0
RHS
    RHS  FIX  2.0
BOUNDS
 UP B  X  5.0
ENDATA
"""
        inst = parse_mps(io.StringIO(mps))
        assert inst.num_rows == 2
        np.testing.assert_array_equal(inst.to_dense(), [[1.0], [-1.0]])
        np.testing.assert_array_equal(inst.rhs, [2.0, -2.0])
        res = solve_lp(inst)
        assert res.x_star[0] == pytest.approx(2.0, abs=1e-9)

    def test_greater_row_negated(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 G  LOW
COLUMNS
    X  OBJ  -1.0  LOW  1.0
RHS
    RHS  LOW  1.5
BOUNDS
 UP B  X  9.0
ENDATA
"""
        inst = parse_mps(io.StringIO(mps))
        np.testing.assert_array_equal(inst.to_dense(), [[-1.0]])
        np.testing.assert_array_equal(inst.rhs, [-1.5])
        res = solve_lp(inst)
        assert res.x_star[0] == pytest.approx(1.5, abs=1e-9)

    def test_ranges_make_interval(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  CAP
COLUMNS
    X  OBJ  1.0  CAP  1.0
RHS
    RHS  CAP  4.0
RANGES
    RNG  CAP  1.0
BOUNDS
 UP B  X  9.0
ENDATA
"""
        # L row with range 1: 3 <= x <= 4
        inst = parse_mps(io.StringIO(mps))
        assert inst.num_rows == 2
        res = solve_lp(inst)
        assert res.x_star[0] == pytest.approx(4.0, abs=1e-9)

    def test_lower_bound_shifted_out(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  CAP
COLUMNS
    X  OBJ  1.0  CAP  1.0
RHS
    RHS  CAP  4.0
BOUNDS
 LO B  X  1.0
 UP B  X  9.0
ENDATA
"""
        inst = parse_mps(io.StringIO(mps))
        assert inst.upper[0] == pytest.approx(8.0)   # 9 - 1
        assert inst.rhs[0] == pytest.approx(3.0)     # 4 - 1
        assert inst.meta["column_shifts"] == {"X": 1.0}
        assert inst.meta["objective_offset"] == pytest.approx(1.0)

    def test_fixed_column_folded(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 L  CAP
COLUMNS
    X  OBJ  1.0  CAP  1.0
    Y  OBJ  3.0  CAP  2.0
RHS
    RHS  CAP  4.0
BOUNDS
 UP B  X  9.0
 FX B  Y  1.0
ENDATA
"""
        inst = parse_mps(io.StringIO(mps))
        assert inst.num_cols == 1
        assert inst.rhs[0] == pytest.approx(2.0)  # 4 - 2*1
        assert inst.meta["objective_offset"] == pytest.approx(3.0)

    def test_free_bounds_rejected(self):
        mps = TOY_MPS.replace(" UP BND  X1  1.0", " FR BND  X1")
        with pytest.raises(MpsParseError, match="unsupported"):
            parse_mps(io.StringIO(mps))

    def test_range_on_greater_row(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 G  LOW
COLUMNS
    X  OBJ  -1.0  LOW  1.0
RHS
    RHS  LOW  2.0
RANGES
    RNG  LOW  3.0
BOUNDS
 UP B  X  9.0
ENDATA
"""
        # G row with range 3: 2 <= x <= 5; min x (max -x) lands at 2
        inst = parse_mps(io.StringIO(mps))
        assert inst.num_rows == 2
        res = solve_lp(inst)
        assert res.x_star[0] == pytest.approx(2.0, abs=1e-9)

    def test_negative_range_on_equality_row(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 E  MID
COLUMNS
    X  OBJ  1.0  MID  1.0
RHS
    RHS  MID  4.0
RANGES
    RNG  MID  -1.5
BOUNDS
 UP B  X  9.0
ENDATA
"""
        # E row with negative range: interval [b + r, b] = [2.5, 4]
        inst = parse_mps(io.StringIO(mps))
        res = solve_lp(inst)
        assert res.x_star[0] == pytest.approx(4.0, abs=1e-9)

    def test_marker_lines_and_extra_n_rows_tolerated(self):
        mps = """\
NAME T
OBJSENSE
    MAX
ROWS
 N  OBJ
 N  FREEBIE
 L  CAP
COLUMNS
    MARKER1  'MARKER'  'INTORG'
    X  OBJ  1.0  CAP  1.0
    X  FREEBIE  5.0
    MARKER2  'MARKER'  'INTEND'
RHS
    RHS  CAP  0.75
BOUNDS
 UP B  X  1.0
ENDATA
"""
        inst = parse_mps(io.StringIO(mps))
        assert inst.num_rows == 1 and inst.num_cols == 1
        res = solve_lp(inst)
        assert res.obj == pytest.approx(0.75, abs=1e-9)

    def test_write_parse_roundtrip(self):
        first = parse_mps(io.StringIO(TOY_MPS))
        buf = io.StringIO()
        write_mps(first, buf)
        second = parse_mps(io.StringIO(buf.getvalue()))
        assert np.array_equal(first.to_dense(), second.to_dense())
        assert np.array_equal(first.rhs, second.rhs)
        assert np.array_equal(first.obj, second.obj)
        assert np.array_equal(first.upper, second.upper)

    def test_generated_instance_roundtrip(self):
        inst = generate_mkp(MkpParams(m=4, n=25, tightness=0.3, density=0.6, seed=8))
        buf = io.StringIO()
        write_mps(inst, buf)
        back = parse_mps(io.StringIO(buf.getvalue()))
        assert np.array_equal(inst.to_dense(), back.to_dense())
        assert np.array_equal(inst.rhs, back.rhs)
        assert np.array_equal(inst.obj, back.obj)
        assert np.array_equal(inst.upper, back.upper)


def sample_record(**kw):
    base = dict(instance="mkp-x", method="implicit", k=4, gamma=0.01, seed=7,
                objective=123.456, violation=0.0, rel_opt=0.99, acc=None,
                rdc=0.1, rounds=None, wall_time_s=0.25)
    base.update(kw)
    return ResultRecord(**base)


class TestResultsCsv:
    def test_empty_writes_header_only(self):
        buf = io.StringIO()
        write_results_csv([], buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance,method,K,gamma,seed")

    def test_roundtrip_single_record(self):
        rec = sample_record(gamma=1.0 / 3.0, objective=np.pi * 100)
        buf = io.StringIO()
        write_results_csv([rec], buf)
        buf.seek(0)
        back = read_results_csv(buf)
        assert back == [rec]

    def test_many_records_row_count(self):
        recs = [sample_record(seed=i) for i in range(10_000)]
        buf = io.StringIO()
        write_results_csv(recs, buf)
        assert buf.getvalue().count("\r\n") == 10_001

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sample_record(objective=float("nan"))
        with pytest.raises(ValueError):
            sample_record(rel_opt=float("inf"))

    def test_path_error_context(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_results_csv([], tmp_path / "missing_dir" / "x.csv")


# records with None, float and int fields, and a comma and quotes in instance
FIXED_RECORDS = [
    ResultRecord('a,b "q"', "explicit", 4, 1 / 3, 7, 123.456, 0.0),
    ResultRecord("mkp", "sift+implicit", 1, 0.1, 0, -1e-300, 2.5e10, rel_opt=0.99, acc=None,
                 rdc=0.125, rounds=3, wall_time_s=0.25),
    ResultRecord("x", "implicit", 32, 1e-17, 2, 5.0, 1.0, rel_opt=None, acc=1.0, rdc=None,
                 rounds=None, wall_time_s=12.0),
]
FIXED_CSV = (
    b"instance,method,K,gamma,seed,objective,violation,rel_opt,acc,rdc,rounds,wall_time_s\r\n"
    b'"a,b ""q""",explicit,4,0.33333333333333331,7,123.456,0,,,,,0\r\n'
    b"mkp,sift+implicit,1,0.10000000000000001,0,-1e-300,25000000000,0.98999999999999999,,"
    b"0.125,3,0.25\r\n"
    b"x,implicit,32,1.0000000000000001e-17,2,5,1,,1,,,12\r\n"
)


class TestFiles:
    def test_results_csv_is_byte_exact_and_reads_back(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(FIXED_RECORDS, path)
        assert path.read_bytes() == FIXED_CSV
        assert read_results_csv(path) == FIXED_RECORDS

    def test_a_results_row_of_the_wrong_width_is_refused(self):
        short = FIXED_CSV.decode().replace(",12\r\n", "\r\n")
        with pytest.raises(ValueError):
            read_results_csv(io.StringIO(short, newline=""))

    @pytest.mark.parametrize("use", ["write_mps", "parse_mps", "write_results", "read_results"])
    def test_a_file_object_is_used_and_left_open(self, use):
        buf = io.StringIO(TOY_MPS if use == "parse_mps" else FIXED_CSV.decode(), newline="")
        if use == "write_mps":
            write_mps(parse_mps(io.StringIO(TOY_MPS)), buf)
            assert buf.getvalue().startswith("NAME")
        elif use == "parse_mps":
            assert parse_mps(buf).num_cols == 2
        elif use == "write_results":
            buf.seek(0, io.SEEK_END)
            write_results_csv(FIXED_RECORDS[:1], buf)
            assert buf.getvalue().endswith(FIXED_CSV.decode().split("\r\n")[1] + "\r\n")
        else:
            assert read_results_csv(buf) == FIXED_RECORDS
        assert not buf.closed

    @pytest.mark.parametrize("use, message", [
        ("write_mps", "cannot write MPS to"),
        ("parse_mps", "cannot read MPS from"),
        ("write_results", "cannot write results to"),
        ("read_results", "cannot read results from"),
    ])
    def test_a_path_that_fails_names_what_and_where(self, tmp_path, use, message):
        path = tmp_path / "no-such-dir" / "f"
        calls = {"write_mps": lambda: write_mps(parse_mps(io.StringIO(TOY_MPS)), path),
                 "parse_mps": lambda: parse_mps(path),
                 "write_results": lambda: write_results_csv(FIXED_RECORDS, path),
                 "read_results": lambda: read_results_csv(path)}
        with pytest.raises(OSError) as info:
            calls[use]()
        cause = info.value.__cause__
        assert isinstance(cause, FileNotFoundError)
        assert str(info.value) == f"{message} {path!r}: {cause}"
