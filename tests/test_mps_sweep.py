"""The compiled MPS front end (``mps_sweep``) against the line reader.

The reference, ``mps._parse``, reads the file line by line; it runs with
the kernel handle set to None, which is what ``parse_mps`` sees when no
kernel could be built.  Every case must give byte-equal arrays and equal
``meta`` reprs, or the same exception type and message.  A hand-back
reruns the line reader, so a sweep that handed back every file would pass
these comparisons too: the counts of hand-backs below show that the
compiled front end reads what it should.
"""

import io
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from onlinelp import _kernel, mps
from onlinelp.instances import MkpParams, generate_mkp
from onlinelp.model import LpInstance
from onlinelp.mps import parse_mps, write_mps
from test_mps import TOY, assert_same_instance, toy

HAND = """\
NAME HAND
OBJSENSE
    MAX
ROWS
 N  COST
 L  CAP
 G  LOW
 E  FIX
 N  SPARE
 L  RNG
COLUMNS
    X  COST  1.0  CAP  1.0
    X  LOW  2.0  FIX  1.0
    Y  COST  2.0  CAP  1.0  SPARE  4.0
    Y  RNG  1.0
    Z  COST  3.0  LOW  1.0
    Z  FIX  1.0  RNG  2.0
    W  COST  1.0  CAP  4.0
    V  RNG  0.5  COST  -1.5
RHS
    RHS  COST  -10.0
    RHS  CAP  10.0  LOW  1.0
    FIX  3.0  RNG  6.0
    RHS  SPARE  2.0
BOUNDS
 UP B  X  4.0
 LO B  Y  1.0
 UP B  Y  3.0
 FX B  W  0.5
 PL B  Z
 UP B  Z  5.0
 BV B  V
ENDATA
"""

# value tokens: outside the strict grammar, at the edges of the double
# range, with long mantissas and in every spelling the grammar allows
VALUES = [
    "0x1p3", "0X1.8P1", "1_0", "1_000.5", "inf", "-inf", "+inf", "nan", "NaN", "infinity",
    "-Infinity", "1e400", "-1e400", "1e-400", "4.9e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "-0",
    "+0", "-0.0", "0e5", ".5", "5.", "-.5", "+5.", "1e5", "1E+05", "1e-05", "1.e3", ".5e1",
    "1234567890123456789012345678901234567890", "0.1234567890123456789012345678901234567891",
    "9007199254740993", "1.00000000000000011102230246251565404236316680908203125",
    ".", "-", "+", "e5", "1e", "1e+", "1.2.3", "--1", "1-", "0.5x", "abc", "１", "1e5.0", "١",
]


def outcome(source):
    try:
        return parse_mps(source)
    except Exception as exc:   # compared by type and message
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        assert_same_instance(got, want)


def reference(monkeypatch, make_source):
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "_state", (None, "reference run"))
        return outcome(make_source())


def check(monkeypatch, text: str, path=None):
    """Both readers on text, and on a file holding it when path is given."""
    assert_same_outcome(outcome(io.StringIO(text)),
                        reference(monkeypatch, lambda: io.StringIO(text)))
    if path is not None:
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(outcome(path), reference(monkeypatch, lambda: path))


@pytest.fixture
def compiled():
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.reason()}")


@pytest.fixture
def hand_backs(monkeypatch):
    """The texts the line reader was handed, by parse_mps or a hand-back."""
    texts = []
    parse = mps._parse

    def counting(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(mps, "_parse", counting)
    return texts


def generated_text(m, n, seed):
    inst = generate_mkp(MkpParams(m=m, n=n, tightness=0.3, density=0.5, seed=seed))
    upper = np.where(np.random.default_rng(seed).random(n) < 0.3, np.inf, inst.upper)
    inst = LpInstance(inst.num_rows, n, inst.col_ptr, inst.row_idx, inst.values, inst.rhs,
                      inst.obj, upper)
    buf = io.StringIO()
    write_mps(inst, buf)
    return buf.getvalue()


# -- the random-text harness ----------------------------------------------------

def _headers(lines):
    """Index of each unindented header line, by upper-case name."""
    return {ln.split()[0].upper(): i for i, ln in enumerate(lines)
            if ln[:1].isalpha() and ln.split()}


def _data_lines(lines, section):
    """Indices of the data lines of section, or [] when it is missing."""
    heads = sorted(_headers(lines).values())
    top = _headers(lines).get(section)
    if top is None:
        return []
    stop = next((h for h in heads if h > top), len(lines))
    return [i for i in range(top + 1, stop) if lines[i].split()]


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _set_token(rng, lines, section, back, new):
    """Set the token ``back`` places from the end of a random data line of
    section to new."""
    body = _data_lines(lines, section)
    if body:
        i = _pick(rng, body)
        tok = lines[i].split()
        if back <= len(tok):
            tok[-back] = new
            lines[i] = "    " + "  ".join(tok)


def _mutate(rng, lines):
    kind = _pick(rng, ["value", "value", "separator", "comment", "non_ascii", "marker",
                       "ranges", "bound", "unknown_row", "duplicate", "move", "drop_token",
                       "lower", "sections", "free_row", "redeclare", "no_newline", "cr"])
    if kind == "value":
        _set_token(rng, lines, _pick(rng, ["COLUMNS", "RHS", "BOUNDS"]), 1, _pick(rng, VALUES))
    elif kind == "separator":
        i = int(rng.integers(len(lines)))
        sep = _pick(rng, ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\t", " \t ", "\x85", "\xa0"])
        lines[i] = lines[i].replace("  ", sep, 1)
    elif kind == "comment":
        lines.insert(int(rng.integers(len(lines))),
                     _pick(rng, ["* a comment", "   * indented", "", "   ", "*", "\t*x y z"]))
    elif kind == "non_ascii":
        name = _pick(rng, ["X", "COST", "CAP", "R0", "X1", "OBJ"])
        new = _pick(rng, ["Xé", "КАП", "X\u2003Y"])   # an em space splits the name
        lines[:] = [ln.replace(name, new) for ln in lines]
    elif kind == "marker":
        body = _data_lines(lines, "COLUMNS")
        if body:
            lines.insert(_pick(rng, body) + 1,
                         _pick(rng, ["    M1  'MARKER'  'INTORG'", "    M2  'marker'  'INTEND'",
                                     "    M3  'MARKER'"]))
    elif kind == "ranges":
        at = _headers(lines).get("BOUNDS", len(lines) - 1)
        rows = [ln.split()[1] for ln in lines[_headers(lines).get("ROWS", 0) + 1:]
                if len(ln.split()) == 2 and ln.split()[0] in ("L", "G", "E")]
        if rows:
            lines[at:at] = ["RANGES",
                            f"    RNG  {_pick(rng, rows)}  {_pick(rng, ['2.0', '-1.5', '0.0'])}"]
    elif kind == "bound":
        cols = [ln.split()[0] for ln in (lines[i] for i in _data_lines(lines, "COLUMNS"))]
        at = _headers(lines).get("ENDATA")
        if cols and at is not None and "BOUNDS" in _headers(lines):
            kind_ = _pick(rng, ["UP", "LO", "FX", "FR", "MI", "PL", "BV", "XX", "up", "fr", "Lo"])
            value = _pick(rng, ["1.5", "-1.0", "0", "-0", "3", "2.5e0", "x"])
            lines.insert(at, f" {kind_} BND  {_pick(rng, cols + ['NOPE'])}  {value}")
    elif kind == "unknown_row":
        _set_token(rng, lines, _pick(rng, ["COLUMNS", "RHS"]), 2, "NOPE")
    elif kind == "duplicate":
        body = _data_lines(lines, "COLUMNS")
        if body:
            lines.insert(_pick(rng, body) + int(rng.integers(0, 3)), lines[_pick(rng, body)])
    elif kind == "move":
        body = _data_lines(lines, "COLUMNS")
        if len(body) > 1:
            line = lines.pop(_pick(rng, body[:-1]))
            lines.insert(body[-1], line)   # a column's line reappears after another column
    elif kind == "drop_token":
        section = _pick(rng, ["COLUMNS", "RHS", "BOUNDS", "ROWS"])
        body = _data_lines(lines, section)
        if body:
            i = _pick(rng, body)
            tok = lines[i].split()
            del tok[int(rng.integers(len(tok)))]
            lines[i] = "    " + "  ".join(tok)
    elif kind == "lower":
        heads = _headers(lines)
        if heads:
            i = heads[_pick(rng, sorted(heads))]
            lines[i] = lines[i].lower()
    elif kind == "sections":
        heads = _headers(lines)
        what = _pick(rng, ["swap", "drop_endata", "drop_header", "repeat"])
        if what == "swap" and "RHS" in heads and "BOUNDS" in heads:
            r, b, e = heads["RHS"], heads["BOUNDS"], heads.get("ENDATA", len(lines))
            lines[r:e] = lines[b:e] + lines[r:b]
        elif what == "drop_endata" and "ENDATA" in heads:
            del lines[heads["ENDATA"]]
        elif what == "drop_header":
            name = _pick(rng, ["RHS", "BOUNDS", "NAME", "OBJSENSE"])
            if name in heads:
                del lines[heads[name]]
        elif what == "repeat" and "COLUMNS" in heads:
            body = _data_lines(lines, "COLUMNS")
            if body:
                at = heads.get("RHS", heads.get("ENDATA", len(lines)))
                lines[at:at] = ["COLUMNS", lines[body[-1]].replace("X", "Q", 1)]
    elif kind == "free_row":
        heads = _headers(lines)
        body = _data_lines(lines, "COLUMNS")
        if "ROWS" in heads and body:
            lines.insert(heads["ROWS"] + 1 + int(rng.integers(2)), " N  EXTRA")
            i = _pick(rng, _data_lines(lines, "COLUMNS"))
            lines[i] += "  EXTRA  7.5"
    elif kind == "redeclare":
        body = _data_lines(lines, "ROWS")
        if body:
            tok = lines[_pick(rng, body)].split()
            if len(tok) == 2:   # the row's name again, under another type
                other = _pick(rng, [t for t in "NLGE" if t != tok[0].upper()])
                lines.insert(_pick(rng, body) + 1, f" {other}  {tok[1]}")
    elif kind == "cr":
        i = int(rng.integers(len(lines)))
        lines[i] += "\r"
    return kind


def _render(rng, lines, kinds):
    end = "\n"
    if "no_newline" in kinds:
        return end.join(lines)
    if rng.random() < 0.05:
        end = "\r\n"
    return end.join(lines) + end


@pytest.mark.parametrize("base", ["generated", "toy", "hand"])
def test_random_texts_match_the_reference(compiled, monkeypatch, tmp_path, base):
    rng = np.random.default_rng({"generated": 11, "toy": 12, "hand": 13}[base])
    for case in range(150):
        if base == "generated":
            lines = generated_text(4, 12, seed=case % 7).splitlines()
        else:
            lines = (list(TOY) if base == "toy" else HAND.splitlines())
        kinds = [_mutate(rng, lines) for _ in range(int(rng.integers(1, 4)))]
        text = _render(rng, lines, kinds)
        check(monkeypatch, text, tmp_path / "case.mps" if case % 10 == 0 else None)


def _halfway(x):
    """The exact decimal midpoint between x and the next double up, and
    decimals a hair below and above it: the hardest cases to round."""
    mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
    hair = Decimal(10) ** (mid.adjusted() - 780)
    return [format(mid, "e"), format(mid - hair, "e"), format(mid + hair, "e")]


def test_decimals_read_as_python_floats(compiled, monkeypatch, hand_backs):
    """Random decimals of every shape the grammar takes, and exact
    midpoints between doubles (up to about 790 digits): strtod must give
    float's double for each, with no hand-back."""
    rng = np.random.default_rng(5)
    tokens = []
    for _ in range(3000):
        digits = "".join(map(str, rng.integers(0, 10, int(rng.integers(1, 41)))))
        point = int(rng.integers(0, len(digits) + 1))
        mantissa = digits[:point] + "." + digits[point:] if rng.random() < 0.8 else digits
        exp = int(rng.integers(-340, 300)) - point
        sign = _pick(rng, ["", "-", "+"])
        token = sign + mantissa + (_pick(rng, ["e", "E"]) + str(exp) if rng.random() < 0.7 else "")
        if abs(float(token)) < 1e300:
            tokens.append(token)
    with localcontext() as ctx:
        ctx.prec = 2000
        for e in (-1074, -1060, -1022, -1000, -60, -1, 0, 1, 52, 53, 60, 990):
            tokens += _halfway(float(rng.uniform(1.0, 2.0)) * 2.0 ** e)
    lines = ["NAME D", "ROWS", " N  OBJ", *(f" L  R{i}" for i in range(len(tokens))), "COLUMNS"]
    lines += [f"    X0  R{i}  {t}" for i, t in enumerate(tokens)]
    lines += ["    X0  OBJ  1", "RHS", "BOUNDS", "ENDATA"]
    text = "\n".join(lines) + "\n"
    got = parse_mps(io.StringIO(text))
    assert hand_backs == []
    kept = [float(t) for t in tokens if float(t) != 0.0]
    assert got.values.tobytes() == np.array(kept).tobytes()
    check(monkeypatch, text)


# decimals at the edges of the sweep's fast path (no exponent, at most 15
# significant digits, at most 22 after the point), each beside its first
# spelling past the edge, which goes to strtod
FAST_PATH_EDGES = [
    # 15 and 16 significant digits
    "123456789012345", "1234567890123456", "999999999999999", "9999999999999999",
    "0.123456789012345", "0.1234567890123456", "98765.4321098765", "98765.43210987654",
    "-1.23456789012345", "-1.234567890123456", "100000000000000.0", "0.3000000000000000",
    # 22 and 23 digits after the point
    "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "0." + "0" * 7 + "123456789012345",
    "0." + "0" * 8 + "123456789012345", "7." + "0" * 21, "7." + "0" * 22,
    # leading zeros
    "0000.5", "-000.25", "0" * 30 + "1.5", "00012345678901234.5", "0." + "0" * 20 + "01",
    # signed zeros
    "-0", "+0.0", "-0.", "0", "0.0", "-0.000", ".0", "-.0", "+.0",
    # integers up to 2^53
    "1", "-7", "562949953421312", "1125899906842624", "4503599627370496",
    "9007199254740991", "9007199254740992",
]


def test_fast_path_edges_read_as_python_floats(compiled, monkeypatch, hand_backs):
    """Each edge token, as a matrix value and as a rhs, must read as
    float's double, zeros and their signs included, with no hand-back."""
    lines = ["NAME D", "ROWS", " N  OBJ", *(f" L  R{i}" for i in range(len(FAST_PATH_EDGES))),
             "COLUMNS"]
    lines += [f"    X0  R{i}  {t}" for i, t in enumerate(FAST_PATH_EDGES)]
    lines += ["    X0  OBJ  1", "RHS"]
    lines += [f"    RHS  R{i}  {t}" for i, t in enumerate(FAST_PATH_EDGES)]
    lines += ["BOUNDS", "ENDATA"]
    text = "\n".join(lines) + "\n"
    got = parse_mps(io.StringIO(text))
    assert hand_backs == []
    want = np.array([float(t) for t in FAST_PATH_EDGES])
    assert got.rhs.tobytes() == want.tobytes()
    assert got.values.tobytes() == want[want != 0.0].tobytes()
    check(monkeypatch, text)


# -- the compiled header scan -----------------------------------------------------

# files whose headers mps_sweep finds as the header regex does, and reads
SWEPT_HEADERS = {
    "lowercase headers": toy((11, "rhs"), (13, "bounds"), (16, "endata")),
    "mixed-case headers": toy((11, "Rhs  SET"), (13, "bOuNdS"), (16, "EnDaTa")),
    "unindented column RHSX": toy((10, ["    X2  COST  1.0  CAP  1.0", "RHSX  CAP  2.0"])),
    "unindented columns": toy((9, "X1  COST  1.0  CAP  1.0"), (10, "X2 COST 1.0 CAP 1.0")),
    "header then x1c": toy((11, "RHS\x1c"), (13, "BOUNDS\x1cBND")),
    "header then tab": toy((11, "RHS\t"), (13, "BOUNDS\tBND"), (16, "ENDATA\t")),
    "endata without a newline": toy().rstrip("\n"),
    "text after endata": toy((16, ["ENDATA", "NAME  AFTER", "    X9  NOPE  x"])),
    "no rhs": toy((11, []), (12, [])),
    "no bounds": toy((13, []), (14, []), (15, [])),
    "only columns": toy((11, []), (12, []), (13, []), (14, []), (15, [])),
}
# (the headers it hands back at are among HAND_BACKS below)


# OBJSENSE spellings before COLUMNS, and the sense or the error they give:
# the line reader reads that text on both front ends
OBJECTIVE_SENSES = {
    "maximize": (toy((4, "    MAXIMIZE")), "max"),
    "inline maximize": (toy((3, "OBJSENSE  maximize"), (4, [])), "max"),
    "minimize": (toy((4, "    MINIMIZE")), "min"),
    "inline min": (toy((3, "OBJSENSE  MIN"), (4, [])), "min"),
    "unknown": (toy((4, "    FOO")), "line 4: unknown objective sense 'FOO'"),
    "inline unknown": (toy((3, "OBJSENSE  FOO"), (4, [])), "line 3: unknown objective sense 'FOO'"),
    "no word": (toy((4, [])), "line 3: OBJSENSE needs a sense word"),
    "no word before columns": (toy((3, []), (4, []), (7, [" L  CAP", "OBJSENSE"])),
                               "line 6: OBJSENSE needs a sense word"),
}


@pytest.mark.parametrize("text, want", OBJECTIVE_SENSES.values(), ids=OBJECTIVE_SENSES.keys())
def test_objective_senses_match_the_reference(compiled, monkeypatch, tmp_path, hand_backs, text,
                                              want):
    got = outcome(io.StringIO(text))
    assert hand_backs == []
    assert (str(got) if isinstance(got, Exception) else got.meta["objective_sense"]) == want
    check(monkeypatch, text, tmp_path / "sense.mps")


# files that break the grammar both front ends read: a row name declared
# twice, whatever its types, a section repeated, and an OBJSENSE of more
# than one word
GRAMMAR_ERRORS = {
    "n then l": (toy((7, [" N  CAP", " L  CAP"])), "line 8: duplicate row 'CAP'"),
    "l then n": (toy((7, [" L  CAP", " N  CAP"])), "line 8: duplicate row 'CAP'"),
    "g then e": (toy((7, [" G  CAP", " E  CAP"])), "line 8: duplicate row 'CAP'"),
    "e then g": (toy((7, [" E  CAP", " G  CAP"])), "line 8: duplicate row 'CAP'"),
    "objective then l": (toy((7, [" L  CAP", " L  COST"])), "line 8: duplicate row 'COST'"),
    "free row twice": (toy((7, [" L  CAP", " N  FREE", " N  FREE"])),
                       "line 9: duplicate row 'FREE'"),
    "name twice": (toy((2, ["NAME  A", "NAME  B"])), "line 3: section NAME repeated"),
    "objsense twice": (toy((4, ["    MAX", "objsense  MIN"])),
                       "line 5: section OBJSENSE repeated"),
    "rows twice": (toy((7, [" L  CAP", "ROWS", " L  CAP2"])), "line 8: section ROWS repeated"),
    "columns twice": (toy((11, ["COLUMNS", "    X3  CAP  1.0", "RHS"])),
                      "line 11: section COLUMNS repeated"),
    "rhs twice": (toy((13, ["RHS", "    RHS  CAP  0.25", "BOUNDS"])),
                  "line 13: section RHS repeated"),
    "ranges twice": (toy((11, ["RANGES", "    R  CAP  1.0", "RANGES", "    R  CAP  2.0", "RHS"])),
                     "line 13: section RANGES repeated"),
    "bounds twice": (toy((16, ["BOUNDS", " UP BND  X1  0.5", "ENDATA"])),
                     "line 16: section BOUNDS repeated"),
    "objsense word and more": (toy((4, "    MAX  x")),
                               "line 4: unknown objective sense 'MAX x'"),
    "inline objsense word and more": (toy((3, "OBJSENSE  MAX  x"), (4, [])),
                                      "line 3: unknown objective sense 'MAX x'"),
}


@pytest.mark.parametrize("text, message", GRAMMAR_ERRORS.values(), ids=GRAMMAR_ERRORS.keys())
def test_grammar_errors_match_the_reference(compiled, monkeypatch, tmp_path, text, message):
    assert str(outcome(io.StringIO(text))) == message
    check(monkeypatch, text, tmp_path / "grammar.mps")


@pytest.mark.parametrize("text", SWEPT_HEADERS.values(), ids=SWEPT_HEADERS.keys())
def test_compiled_headers_match_the_reference(compiled, monkeypatch, tmp_path, hand_backs, text):
    outcome(io.StringIO(text))
    assert hand_backs == []
    check(monkeypatch, text, tmp_path / "headers.mps")


def test_the_header_regex_stops_at_columns(compiled, monkeypatch, hand_backs):
    """On the swept path one search finds COLUMNS, the first header that
    mps_sweep takes, and searches no further: the line reader's walk reads
    the text before it, and mps_sweep finds the rest."""
    text = generated_text(4, 40, seed=2)
    pattern, found = mps._SWEPT_HEADER_AFTER_NEWLINE, []

    class Recording:
        def search(self, data):
            match = pattern.search(data)
            found.append(match.start())
            return match

    monkeypatch.setattr(mps, "_SWEPT_HEADER_AFTER_NEWLINE", Recording())
    got = parse_mps(io.StringIO(text))
    assert hand_backs == []
    assert found == [text.index("\nCOLUMNS")] and found[0] < text.index("\nRHS")
    assert_same_instance(got, reference(monkeypatch, lambda: io.StringIO(text)))


# -- hand-backs -------------------------------------------------------------------

def test_no_hand_back_on_written_files(compiled, monkeypatch, tmp_path, hand_backs):
    text = generated_text(100, 20_000, seed=1)
    path = tmp_path / "written.mps"
    path.write_text(text)
    got = parse_mps(path)
    assert_same_instance(parse_mps(io.StringIO(text)), got)
    parse_mps(io.StringIO(toy()))
    parse_mps(io.StringIO(HAND))
    assert hand_backs == []
    assert_same_outcome(got, reference(monkeypatch, lambda: path))


# each trigger, as a change to the toy file (line numbers as in test_mps.TOY)
HAND_BACKS = {
    "non-ascii name": toy().replace("X1", "Xé"),
    "non-ascii separator": toy().replace("COST  1.0", "COST\xa01.0"),
    "lone cr": toy((12, "    RHS  CAP\r0.5")),
    "hex float": toy((9, "    X1  COST  0x1p0  CAP  1.0")),
    "underscore": toy((10, "    X2  COST  1_0  CAP  1.0")),
    "inf": toy((12, "    RHS  CAP  inf")),
    "nan": toy((15, " UP BND  X2  nan")),
    "bad number": toy((10, "    X2  COST  1.0  CAP  abc")),
    "unknown row": toy((9, "    X1  COST  1.0  NOPE  1.0")),
    "unknown rhs row": toy((12, "    RHS  NOPE  0.5")),
    "unknown column": toy((15, " UP BND  X9  1.0")),
    "marker": toy((9, ["    M1  'MARKER'  'INTORG'", "    X1  COST  1.0  CAP  1.0"])),
    # the line reader skips this line as a marker, not as an entry
    "marker naming a row": toy((7, [" L  CAP", " L  'MARKER'"]),
                               (10, ["    X2  COST  1.0  CAP  1.0", "    X2  'MARKER'  1.0"])),
    "ranges": toy((13, ["RANGES", "    RNG  CAP  0.25", "BOUNDS"])),
    "columns count": toy((9, "    X1  COST  1.0  CAP")),
    "name only": toy((10, ["    X2  COST  1.0  CAP  1.0", "    X3"])),
    "rhs count": toy((12, "    RHS")),
    "short bound": toy((15, " UP BND  X2")),
    "fr bound": toy((15, " FR BND  X2")),
    "mi bound": toy((15, " MI BND  X2")),
    "unknown bound type": toy((15, " XX BND  X2  1.0")),
    "negative up": toy((15, " UP BND  X2  -1.0")),
    "negative up after lo": toy((15, [" LO BND  X2  -2.0", " UP BND  X2  -1.0"])),
    "duplicate entry": toy((10, ["    X2  COST  1.0  CAP  1.0", "    X1  CAP  3.0"])),
    "missing endata": toy((16, [])),
    "bounds before rhs": toy((11, ["BOUNDS", " UP BND  X1  1.0", " UP BND  X2  1.0",
                                   "RHS", "    RHS  CAP  0.5"]), (13, []), (14, []), (15, [])),
    "two columns sections": toy((11, ["COLUMNS", "    X3  CAP  1.0", "RHS"])),
    "header after the data": toy((16, ["NAME  AGAIN", "ENDATA"])),
    # headers that mps_sweep finds itself, past the COLUMNS header
    "name after columns": toy((11, ["NAME  AGAIN", "RHS"])),
    "ranges after columns": toy((11, ["RANGES", "    RNG  CAP  0.25", "RHS"])),
    "lowercase ranges": toy((13, ["ranges", "    RNG  CAP  0.25", "BOUNDS"])),
    "rows after rhs": toy((13, ["ROWS", " L  MORE", "BOUNDS"])),
    "objsense after bounds": toy((16, ["OBJSENSE", "    MIN", "ENDATA"])),
    "rhs twice": toy((13, ["RHS", "    RHS  CAP  0.25", "BOUNDS"])),
    "endatax is no endata": toy((16, "endatax")),
}


@pytest.mark.parametrize("text", HAND_BACKS.values(), ids=HAND_BACKS.keys())
def test_each_trigger_hands_back(compiled, monkeypatch, tmp_path, hand_backs, text):
    got = outcome(io.StringIO(text))
    assert len(hand_backs) == 1 and hand_backs[0] == text
    assert_same_outcome(got, reference(monkeypatch, lambda: io.StringIO(text)))


def test_a_file_handed_back_is_read_in_text_mode(compiled, tmp_path, hand_backs):
    # universal newlines: the reader sees the file a text-mode read gives,
    # where the lone '\r' after line 1 ends that line
    path = tmp_path / "lone_cr.mps"
    path.write_bytes(toy().replace("\n", "\r\n").replace("\r\n", "\r", 1).encode())
    assert_same_instance(parse_mps(path), parse_mps(io.StringIO(toy())))
    assert hand_backs == [toy()]


def test_a_crlf_file_is_swept(compiled, tmp_path, hand_backs):
    path = tmp_path / "crlf.mps"
    path.write_bytes(toy().replace("\n", "\r\n").encode())
    assert_same_instance(parse_mps(path), parse_mps(io.StringIO(toy())))
    assert hand_backs == []


def test_untouched_toy_lines_are_swept(compiled, hand_backs):
    # spellings of the toy file that read as the toy itself
    for text in (toy().rstrip("\n"), toy().replace("  ", "\t"),
                 toy().replace("\n", "\r\n"), toy((12, "    RHS  CAP  0.5\r")),
                 toy((10, ["    X2  COST  1.0  CAP  1.0", "", "* c", "  *c"]),
                     (12, ["* c", "    RHS  CAP  0.5", "", "   *"]),
                     (15, [" up BND  X2  1.0", "* c", "", " *  x"])),
                 toy((2, "NAME  TOYHALF  \x1c")).replace("COST  1.0", "COST\x1f1.0"),
                 "\n".join(ln.lower() if ln[0].isalpha() and ln != TOY[1] else ln
                           for ln in TOY) + "\n",
                 toy((9, ["    X1  COST  1.0", "    X2  COST  1.0", "    X1  CAP  1.0"]),
                     (10, "    X2  CAP  1.0"))):
        assert_same_instance(parse_mps(io.StringIO(text)), parse_mps(io.StringIO(toy())))
    assert len(hand_backs) == 0
