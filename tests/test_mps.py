"""The MPS reader: exact error lines, format handling, bitwise round trips."""

import io

import numpy as np
import pytest

from onlinelp import mps
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance
from onlinelp.mps import MpsParseError, parse_mps, write_mps

# line numbers: 1 comment, 2 NAME, 3-4 OBJSENSE, 5-7 ROWS, 8-10 COLUMNS,
# 11-12 RHS, 13-15 BOUNDS, 16 ENDATA
TOY = [
    "* toy: max x1 + x2 s.t. x1 + x2 <= 0.5, 0 <= x <= 1",
    "NAME          TOYHALF",
    "OBJSENSE",
    "    MAX",
    "ROWS",
    " N  COST",
    " L  CAP",
    "COLUMNS",
    "    X1  COST  1.0  CAP  1.0",
    "    X2  COST  1.0  CAP  1.0",
    "RHS",
    "    RHS  CAP  0.5",
    "BOUNDS",
    " UP BND  X1  1.0",
    " UP BND  X2  1.0",
    "ENDATA",
]


def toy(*edits, lines=TOY):
    """The toy file with line n (1-based) replaced by the given lines."""
    out = list(lines)
    for n, new in sorted(edits, reverse=True):
        out[n - 1:n] = new if isinstance(new, list) else [new]
    return "\n".join(out) + "\n"


def parse(text):
    return parse_mps(io.StringIO(text))


def assert_same_instance(a, b):
    for field in ("col_ptr", "row_idx", "values", "rhs", "obj", "upper"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field
    assert (a.num_rows, a.num_cols) == (b.num_rows, b.num_cols)
    assert a.meta.keys() == b.meta.keys()
    for key in a.meta:
        assert repr(a.meta[key]) == repr(b.meta[key]), key


class TestErrorLines:
    """Each error names the earliest offending line, as a line-by-line reader would."""

    @pytest.mark.parametrize("text, message", [
        (toy((10, "    X2  COST  1.0  CAP  abc")),
         "line 10: expected a number, got 'abc'"),
        (toy((12, "    RHS  CAP  0.5x")),
         "line 12: expected a number, got '0.5x'"),
        (toy((15, " UP BND  X2  one")),
         "line 15: expected a number, got 'one'"),
        (toy((9, "    X1  COST  1.0  NOPE  1.0")),
         "line 9: unknown row 'NOPE'"),
        (toy((12, "    RHS  NOPE  0.5")),
         "line 12: unknown row 'NOPE'"),
        (toy((10, "    X1  CAP  2.0")),
         "line 10: duplicate entry for column 'X1', row 'CAP'"),
        (toy((9, "    X1  COST  1.0  CAP  1.0  CAP  2.0")),
         "line 9: duplicate entry for column 'X1', row 'CAP'"),
        (toy((10, ["    X2  COST  1.0  CAP  1.0", "    X3  CAP  1.0", "    X1  CAP  3.0"])),
         "line 12: duplicate entry for column 'X1', row 'CAP'"),
        (toy((10, ["    X2  COST  1.0  CAP  1.0", "    X2  CAP  2.0", "    X1  CAP  3.0"])),
         "line 11: duplicate entry for column 'X2', row 'CAP'"),
        (toy((9, "    X1  COST  1.0  CAP")),
         "line 9: COLUMNS entries need name + row/value pairs"),
        (toy((15, " UP BND  X9  1.0")),
         "line 15: bound on unknown column 'X9'"),
        (toy((15, " UP BND  X2")), "line 15: short BOUNDS entry"),
        (toy((15, " XX BND  X2  1.0")), "line 15: unknown bound type 'XX'"),
        (toy((15, " MI BND  X2")),
         "line 15: MI bounds (free below) are unsupported by the 0 <= x <= u model"),
        (toy((15, " UP BND  X2  -1.0")),
         "line 15: UP with a negative value implies a free lower bound, "
         "which the 0 <= x <= u model cannot represent"),
        (toy((12, "    RHS")), "line 12: RHS entries need row/value pairs"),
        (toy((7, [" L  CAP", " L  CAP"])), "line 8: duplicate row 'CAP'"),
        # a row name is declared once, whatever its types
        (toy((7, [" N  CAP", " L  CAP"])), "line 8: duplicate row 'CAP'"),
        (toy((7, [" L  CAP", " N  CAP"])), "line 8: duplicate row 'CAP'"),
        (toy((7, [" L  CAP", " G  CAP"])), "line 8: duplicate row 'CAP'"),
        (toy((7, [" L  CAP", " E  CAP"])), "line 8: duplicate row 'CAP'"),
        (toy((7, [" L  CAP", " N  SPARE", " G  SPARE"])), "line 9: duplicate row 'SPARE'"),
        (toy((7, [" L  CAP", " N  SPARE", " N  SPARE"])), "line 9: duplicate row 'SPARE'"),
        (toy((7, [" L  CAP", " N  COST"])), "line 8: duplicate row 'COST'"),
        # each section appears at most once
        (toy((2, ["NAME  A", "NAME  B"])), "line 3: section NAME repeated"),
        (toy((4, ["    MAX", "OBJSENSE  MIN"])), "line 5: section OBJSENSE repeated"),
        (toy((7, [" L  CAP", "ROWS", " L  CAP2"])), "line 8: section ROWS repeated"),
        (toy((11, ["COLUMNS", "    X3  CAP  1.0", "RHS"])), "line 11: section COLUMNS repeated"),
        (toy((13, ["RHS", "    RHS  CAP  0.25", "BOUNDS"])), "line 13: section RHS repeated"),
        (toy((13, ["RANGES", "    R  CAP  1.0", "ranges", "    R  CAP  2.0", "BOUNDS"])),
         "line 15: section RANGES repeated"),
        (toy((16, ["BOUNDS", " UP BND  X1  0.5", "ENDATA"])), "line 16: section BOUNDS repeated"),
        # the earlier bad line is reported, be it the header's or not
        (toy((10, "    X2  COST  1.0  CAP  abc"), (13, ["RHS", "BOUNDS"])),
         "line 10: expected a number, got 'abc'"),
        (toy((11, ["COLUMNS", "    X3  CAP  x", "RHS"])), "line 11: section COLUMNS repeated"),
        # an OBJSENSE header with no word needs one on the next data line
        (toy((4, [])), "line 3: OBJSENSE needs a sense word"),
        (toy((4, ["", "* no word"])), "line 3: OBJSENSE needs a sense word"),
        (toy((3, []), (4, []), (7, [" L  CAP", "OBJSENSE"])),
         "line 6: OBJSENSE needs a sense word"),
        # OBJSENSE takes one word: a second token was dropped, and read as MAX
        (toy((4, "    MAX  x")), "line 4: unknown objective sense 'MAX x'"),
        (toy((3, "OBJSENSE  MAX  x"), (4, [])),
         "line 3: unknown objective sense 'MAX x'"),
        (toy((3, "objsense  max  min  max"), (4, [])),
         "line 3: unknown objective sense 'max min max'"),
        (toy((4, "    FOO  BAR")), "line 4: unknown objective sense 'FOO BAR'"),
        (toy((7, " Q  CAP")), "line 7: unknown row type 'Q'"),
        (toy((4, ["    MAX", "    MIN"])), "line 5: unexpected data in section OBJSENSE"),
        (toy((4, "    FOO")), "line 4: unknown objective sense 'FOO'"),
        (toy((3, "OBJSENSE  MAXIMUM"), (4, [])), "line 3: unknown objective sense 'MAXIMUM'"),
        (toy((1, ["* c", ""]), (3, "OBJSENSE  foo"), (4, [])),
         "line 4: unknown objective sense 'foo'"),
        (toy((1, "  stray")), "line 1: data before any section header"),
        # two bad lines: the earlier one is reported, whatever its kind
        (toy((9, "    X1  COST  1.0  NOPE  1.0"), (12, "    RHS  CAP  abc")),
         "line 9: unknown row 'NOPE'"),
        (toy((9, "    X1  COST  x  CAP  1.0"), (10, "    X2  NOPE  1.0")),
         "line 9: expected a number, got 'x'"),
        (toy((9, "    X1  COST  1.0  NOPE  1.0"), (10, "    X2  COST  y")),
         "line 9: unknown row 'NOPE'"),
        (toy((10, ["    X1  CAP  2.0", "    X2  COST  z"])),
         "line 10: duplicate entry for column 'X1', row 'CAP'"),
        (toy((10, ["    X1  CAP  2.0  COST  1.0", "    X2  COST"])),
         "line 10: duplicate entry for column 'X1', row 'CAP'"),
        # within a line, the pairs are taken in order
        (toy((9, "    X1  NOPE  1.0  COST  x")), "line 9: unknown row 'NOPE'"),
        (toy((9, "    X1  COST  x  NOPE  1.0")), "line 9: expected a number, got 'x'"),
        # a repeat read before a bad number is reported, on the line before
        # it and on the same line
        (toy((9, ["", "* c", "    X1  COST  1.0  CAP  1.0", "", "   * d"]),
             (10, ["    X2  COST  1.0  CAP  1.0", "    X1  CAP  3.0", "    X1  CAP  x"])),
         "line 15: duplicate entry for column 'X1', row 'CAP'"),
        (toy((10, "    X1  CAP  2.0  COST  x")),
         "line 10: duplicate entry for column 'X1', row 'CAP'"),
        # an unknown row after blank and comment lines names its own line
        (toy((10, ["", "* c", "", "   * d", "    X2  NOPE  1.0"])),
         "line 14: unknown row 'NOPE'"),
    ])
    def test_earliest_line_and_message(self, text, message):
        with pytest.raises(MpsParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_errors_without_a_line(self):
        with pytest.raises(MpsParseError, match="^missing ENDATA$"):
            parse(toy((16, [])))
        with pytest.raises(MpsParseError,
                           match=r"^column 'X2' has empty bound interval \[2.0, 1.0\]$"):
            parse(toy((15, [" LO BND  X2  2.0", " UP BND  X2  1.0"])))


    def test_a_negative_up_needs_the_lower_bound_held_before_it(self):
        inst = parse(toy((15, [" LO BND  X2  -2.0", " UP BND  X2  -1.0"])))
        assert inst.meta["column_shifts"] == {"X2": -2.0}
        assert inst.upper.tolist() == [1.0, 1.0]
        for lines, line in (([" UP BND  X2  -1.0", " LO BND  X2  -2.0"], 15),
                            ([" LO BND  X2  -2.0", " BV BND  X2", " UP BND  X2  -1.0"], 17),
                            ([" LO BND  X1  -2.0", " UP BND  X2  -1.0"], 16)):
            with pytest.raises(MpsParseError, match=f"^line {line}: UP with a negative value"):
                parse(toy((15, lines)))


class TestFormats:
    """Spellings of the toy file that must read as the very same instance."""

    @pytest.mark.parametrize("text", [
        toy().replace("  ", "\t"),
        toy().replace("\n", "\r\n"),
        toy().replace("\n", "\r\n").replace("  ", " \t "),
        toy((10, ["", "    X2  COST  1.0  CAP  1.0", "* a comment", "   * another", ""]),
            (14, [" UP BND  X1  1.0", "", "* bound comment"])),
        toy((9, ["    X1  COST  1.0", "    X1  CAP  1.0"]),
            (10, ["    X2  COST  1.0", "    X2  CAP  1.0"])),
        toy((9, ["    X1  COST  1.0", "    X2  COST  1.0", "    X1  CAP  1.0"]),
            (10, "    X2  CAP  1.0")),
        "\n".join(ln.lower() if ln[0].isalpha() and ln != TOY[1] else ln for ln in TOY) + "\n",
        toy((9, ["    X1  COST  0.25  CAP  1.0", "    X1  COST  0.75"])),
        toy((9, ["    M1  'MARKER'  'INTORG'", "    X1  COST  1.0  CAP  1.0"]),
            (10, ["    X2  COST  1.0  CAP  1.0", "    M2  'marker'  'INTEND'"])),
        toy().rstrip("\n"),
        toy((2, "NAME  TOYHALF  \x1c")).replace("COST  1.0", "COST\xa01.0"),
    ])
    def test_same_instance_as_toy(self, text):
        assert_same_instance(parse(text), parse(toy()))

    @pytest.mark.parametrize("lines, sense", [
        (["OBJSENSE", "    MAXIMIZE"], "MAX"), (["OBJSENSE  MAXIMIZE"], "MAX"),
        (["OBJSENSE  max"], "MAX"), (["objsense", "  Maximize"], "MAX"),
        (["OBJSENSE", "    MINIMIZE"], "MIN"), (["OBJSENSE  MIN"], "MIN"),
        (["OBJSENSE  minimize"], "MIN"), ([], "MIN")])
    def test_objective_senses(self, lines, sense):
        got = parse(toy((3, lines), (4, [])))
        assert got.meta["objective_sense"] == sense.lower()
        assert_same_instance(got, parse(toy((4, f"    {sense}"))))

    def test_explicit_zeros_are_dropped(self):
        text = toy((7, [" L  CAP", " L  SIDE"]),
                   (10, "    X2  COST  1.0  CAP  1.0  SIDE  0.0"),
                   (9, "    X1  COST  1.0  CAP  -0.0  SIDE  2.0"))
        inst = parse(text)
        assert inst.col_ptr.tolist() == [0, 1, 2]
        assert inst.row_idx.tolist() == [1, 0]
        assert inst.values.tolist() == [2.0, 1.0]

    def test_non_ascii_names(self):
        inst = parse(toy().replace("X1", "Xé").replace("CAP", "КАП"))
        assert inst.meta["col_names"] == ("Xé", "X2")
        assert inst.meta["row_names"] == ("КАП",)
        assert inst.nnz == 2


class TestRoundTrip:
    def test_generated_instance_is_bitwise(self):
        inst = generate_mkp(MkpParams(m=20, n=500, tightness=0.25, density=0.1, seed=3))
        buf = io.StringIO()
        write_mps(inst, buf)
        back = parse(buf.getvalue())
        for field in ("col_ptr", "row_idx", "values", "rhs", "obj", "upper"):
            x, y = getattr(inst, field), getattr(back, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
        assert back.meta["row_names"] == tuple(f"R{i}" for i in range(20))
        assert back.meta["col_names"] == tuple(f"X{j}" for j in range(500))
        assert back.meta["objective_offset"] == 0.0
        assert back.meta["column_shifts"] == {} and back.meta["fixed_columns"] == {}

    def test_hand_written_rows_and_bounds(self):
        text = """\
NAME HAND
ROWS
 N  COST
 L  CAP
 G  LOW
 E  FIX
 L  RNG
COLUMNS
    X  COST  1.0  CAP  1.0
    X  LOW  2.0  FIX  1.0
    Y  COST  2.0  CAP  1.0
    Y  RNG  1.0
    Z  COST  3.0  LOW  1.0
    Z  FIX  1.0  RNG  2.0
    W  COST  1.0  CAP  4.0
RHS
    RHS  COST  -10.0
    RHS  CAP  10.0  LOW  1.0
    RHS  FIX  3.0
    RHS  RNG  6.0
RANGES
    R  RNG  2.0
BOUNDS
 UP B  X  4.0
 LO B  Y  1.0
 UP B  Y  3.0
 FX B  W  0.5
 UP B  Z  5.0
ENDATA
"""
        inst = parse(text)
        assert inst.col_ptr.tolist() == [0, 4, 7, 12]
        assert inst.row_idx.tolist() == [0, 1, 2, 3, 0, 4, 5, 1, 2, 3, 4, 5]
        assert inst.values.tolist() == [1, -2, 1, -1, 1, 1, -1, -1, 1, -1, 2, -2]
        assert inst.rhs.tolist() == [7, -1, 3, -3, 5, -3]   # Y shifted by 1, W fixed at 0.5
        assert inst.obj.tolist() == [-1, -2, -3]            # minimization, negated
        assert inst.upper.tolist() == [4, 2, 5]
        assert inst.meta == {
            "name": "HAND",
            "objective_sense": "min",
            "objective_offset": -12.5,   # -10 from the rhs, -2 * 1 for Y, -1 * 0.5 for W
            "row_names": ("CAP", "LOW", "FIX:hi", "FIX:lo", "RNG:hi", "RNG:lo"),
            "col_names": ("X", "Y", "Z"),
            "column_shifts": {"Y": 1.0},
            "fixed_columns": {"W": 0.5},
        }


def line_by_line_write_mps(instance, fh, name="ONLINELP"):
    """The writer that formatted one f-string per line: the reference of
    write_mps's output."""
    w = fh.write
    w(f"NAME          {name}\n")
    w("OBJSENSE\n    MAX\n")
    w("ROWS\n")
    w(" N  OBJ\n")
    for i in range(instance.num_rows):
        w(f" L  R{i}\n")
    w("COLUMNS\n")
    for j in range(instance.num_cols):
        cname = f"X{j}"
        if instance.obj[j] != 0.0:
            w(f"    {cname}  OBJ  {instance.obj[j]:.17g}\n")
        rows, vals = instance.column(j)
        for i, v in zip(rows, vals):
            w(f"    {cname}  R{i}  {v:.17g}\n")
    w("RHS\n")
    for i in range(instance.num_rows):
        if instance.rhs[i] != 0.0:
            w(f"    RHS  R{i}  {instance.rhs[i]:.17g}\n")
    w("BOUNDS\n")
    for j in range(instance.num_cols):
        if np.isfinite(instance.upper[j]):
            w(f" UP BND  X{j}  {instance.upper[j]:.17g}\n")
    w("ENDATA\n")


def with_obj_upper(inst, obj, upper):
    return LpInstance(inst.num_rows, inst.num_cols, inst.col_ptr, inst.row_idx,
                      inst.values, inst.rhs, obj, upper)


class TestWriter:
    @pytest.mark.parametrize("case", ["generated", "zero-objective", "infinite-upper",
                                      "empty-columns", "blocks"])
    def test_same_bytes_as_line_by_line(self, case, monkeypatch):
        rng = np.random.default_rng(4)
        inst = generate_mkp(MkpParams(m=7, n=300, tightness=0.3, density=0.3, seed=4))
        if case == "zero-objective":
            obj = inst.obj * (rng.random(300) < 0.5)
            inst = with_obj_upper(inst, obj, inst.upper)
        elif case == "infinite-upper":
            upper = np.where(rng.random(300) < 0.5, np.inf, rng.uniform(0.1, 9.0, 300))
            inst = with_obj_upper(inst, inst.obj, upper)
        elif case == "empty-columns":
            # real-valued data, empty columns, zero costs and rhs entries
            inst = LpInstance(3, 6, [0, 0, 1, 1, 3, 3, 3], [2, 0, 1], [0.1, -1 / 3, 2e-300],
                              [0.0, 1.5, 0.0], [0.0, 0.0, -2.5, 1e300, 0.0, 0.0],
                              [1.0, np.inf, 0.5, 1.0, 1.0, 7.0])
        elif case == "blocks":
            monkeypatch.setattr(mps, "_WRITE_BLOCK", 7)
            inst = with_obj_upper(inst, inst.obj * (rng.random(300) < 0.5), inst.upper)
        want, got = io.StringIO(), io.StringIO()
        line_by_line_write_mps(inst, want)
        write_mps(inst, got)
        assert got.getvalue() == want.getvalue()
