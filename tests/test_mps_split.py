"""The compiled MPS front end with a file's COLUMNS section cut into parts.

Every case of ``test_mps_sweep`` runs here again with the sweep forced into
2 and into 3 parts: the fewest bytes a part set to 1 and the CPU count
patched.  The targeted cases below cut texts at every line start, or every
pair of line starts, from the COLUMNS header on.  A split sweep must give the line
reader's instance, or its exception, and hand back exactly where the
unsplit sweep hands back: the hand-back counts show that split files are
swept, and the kernel's call counts that they are split.
"""

import io
import itertools
import threading

import pytest

from onlinelp import _kernel, mps
from onlinelp.mps import parse_mps
from test_mps import TOY, assert_same_instance, toy
from test_mps_sweep import *  # noqa: F403 -- each of its cases runs again, split
from test_mps_sweep import HAND, assert_same_outcome, generated_text, outcome


@pytest.fixture(autouse=True, params=[2, 3], ids=["2parts", "3parts"])
def parts(request, monkeypatch):
    monkeypatch.setattr(mps, "_PART_FLOOR", 1)
    monkeypatch.setattr(_kernel, "cpus", lambda: request.param)
    return request.param


class CountingKernel:
    """The kernel, with each mps_sweep call's start, limit and inside flag
    recorded."""

    def __init__(self, lib):
        self.lib, self.calls = lib, []

    def mps_sweep(self, *args):
        self.calls.append((args[1], args[2], bool(args[4])))
        return self.lib.mps_sweep(*args)


@pytest.fixture
def kernel(compiled, monkeypatch):
    counting = CountingKernel(_kernel.load())
    monkeypatch.setattr(_kernel, "load", lambda: counting)
    return counting


def cut_parse(monkeypatch, kernel, path, cuts):
    """parse_mps(path) with the text from its COLUMNS header on cut at
    cuts: the outcome, whether it was handed back, and the kernel calls."""
    texts, calls = [], len(kernel.calls)
    parse = mps._parse
    with monkeypatch.context() as mp:
        mp.setattr(mps, "_cuts", lambda data, start: [start, *cuts, len(data)])
        mp.setattr(mps, "_parse", lambda text: texts.append(text) or parse(text))
        got = outcome(path)
    return got, bool(texts), kernel.calls[calls:]


def line_starts(text: str) -> list:
    """The offsets of the lines after the COLUMNS header line."""
    data = text.encode()
    start = data.index(b"\nCOLUMNS") + 1
    return [i + 1 for i in range(start, len(data) - 1) if data[i] == ord("\n")]


def assert_every_cut_agrees(monkeypatch, kernel, tmp_path, text, parts, swept=None):
    """Cut text at every line start (2 parts) or pair of them (3 parts):
    each outcome must be the line reader's and hand back as the unsplit
    sweep does.  swept, when given, is whether the unsplit sweep reads
    the file."""
    path = tmp_path / "cut.mps"
    path.write_bytes(text.encode())
    with monkeypatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        want = outcome(path)
    unsplit, handed_back, _ = cut_parse(monkeypatch, kernel, path, [])
    assert_same_outcome(unsplit, want)
    if swept is not None:
        assert handed_back is not swept
    for cuts in itertools.combinations(line_starts(text), parts - 1):
        got, back, calls = cut_parse(monkeypatch, kernel, path, list(cuts))
        assert_same_outcome(got, want)
        assert back == handed_back, cuts
        assert sorted(start for start, _, _ in calls[:parts])[1:] == list(cuts)


# a column with lines in two places, comments and blanks, and bounds on
# columns that first appear in each part
SPREAD = toy((9, ["    X1  COST  1.0", "* a comment", "    X2  COST  1.0", "",
                  "    X3  CAP  2.0", "   ", "    X1  CAP  1.0", "  * indented"]),
             (10, ["    X2  CAP  1.0", "    X4  COST  0.5  CAP  0.25"]),
             (15, [" UP BND  X2  1.0", " UP BND  X4  2.0", " LO BND  X3  0.5"]))

TARGETED = {
    "spread columns": (SPREAD, True),
    "hand": (HAND, True),
    "crlf": (SPREAD.replace("\n", "\r\n"), True),
    "no rhs": (toy((11, []), (12, [])), True),
    "only columns": (toy((11, []), (12, []), (13, []), (14, []), (15, [])), True),
    # short COLUMNS, long RHS and BOUNDS: every cut past COLUMNS
    "short columns": (toy((7, [" L  CAP", " L  CAP2"]),
                          (12, ["    RHS  CAP  0.5"] + ["    RHS  CAP2  1.5"] * 12),
                          (15, [" UP BND  X2  1.0"] * 8)), True),
    # hand-backs in a part past the first, for most cuts
    "marker late": (toy((10, ["    X2  COST  1.0  CAP  1.0", "    M1  'MARKER'  'INTORG'"])),
                    False),
    "unknown row late": (toy((10, "    X2  COST  1.0  NOPE  1.0")), False),
    "bad value late": (toy((10, "    X2  COST  1.0  CAP  1_0")), False),
    "duplicate across parts": (toy((10, ["    X2  COST  1.0  CAP  1.0", "    X1  CAP  3.0"])),
                               False),
    "second columns header": (toy((11, ["COLUMNS", "    X3  CAP  1.0", "RHS"])), False),
    "second rhs header": (toy((13, ["RHS", "    RHS  CAP  0.25", "BOUNDS"])), False),
    "second bounds header": (toy((16, ["BOUNDS", " UP BND  X1  0.5", "ENDATA"])), False),
    "ranges after columns": (toy((11, ["RANGES", "    RNG  CAP  0.25", "RHS"])), False),
    "missing endata": (toy((16, [])), False),
    "columns to the end": (toy((11, []), (12, []), (13, []), (14, []), (15, []), (16, [])),
                           False),
    "unknown bound column": (toy((15, " UP BND  X9  1.0")), False),
    # bytes after ENDATA are checked too
    "non-ascii after endata": (toy((16, ["ENDATA", "* é"])), False),
    "lone cr after endata": (toy((16, ["ENDATA", "NAME  AFTER\rX"])), False),
    "lone cr in columns": (toy((9, "    X1  COST  1.0\rCAP  1.0")), False),
}


@pytest.mark.parametrize("text, swept", TARGETED.values(), ids=TARGETED.keys())
def test_every_cut_agrees(monkeypatch, kernel, tmp_path, parts, text, swept):
    assert_every_cut_agrees(monkeypatch, kernel, tmp_path, text, parts, swept)


def test_a_large_file_is_split_at_line_starts(kernel, tmp_path, hand_backs, parts):
    text = generated_text(20, 3000, seed=4)
    path = tmp_path / "large.mps"
    path.write_text(text)
    got = parse_mps(path)
    assert hand_backs == []
    data = text.encode()
    # one call per part, in threads, then the one that merges their names
    *calls, merge = sorted(kernel.calls[:-1]) + kernel.calls[-1:]
    assert len(calls) == parts
    assert calls[0] == (data.index(b"\nCOLUMNS") + 1, calls[1][0], False)
    assert all(data[start - 1] == ord("\n") and inside for start, _, inside in calls[1:])
    assert merge == (data.index(b"\nRHS") + 1, len(data), False)
    assert_same_instance(got, parse_mps(io.StringIO(text)))


def test_one_usable_cpu_makes_one_call(kernel, monkeypatch, tmp_path, hand_backs):
    monkeypatch.setattr(_kernel, "cpus", lambda: 1)
    path = tmp_path / "one.mps"
    path.write_text(generated_text(20, 3000, seed=4))
    parse_mps(path)
    assert hand_backs == []
    assert len(kernel.calls) == 1


def test_a_file_below_the_floor_makes_one_call(kernel, monkeypatch, tmp_path, hand_backs):
    text = generated_text(20, 3000, seed=4)
    monkeypatch.setattr(mps, "_PART_FLOOR", len(text))
    path = tmp_path / "small.mps"
    path.write_text(text)
    parse_mps(path)
    assert hand_backs == []
    assert len(kernel.calls) == 1


def test_the_outputs_do_not_grow_with_the_part_count(compiled, monkeypatch, tmp_path):
    # the parts share one set of output arrays, as large as one call needs
    # but for a few items a part
    sizes = []
    init = mps._Outputs.__init__

    def recording(out, *args):
        init(out, *args)
        sizes.append(sum(array.nbytes for array in vars(out).values()))

    monkeypatch.setattr(mps._Outputs, "__init__", recording)
    path = tmp_path / "large.mps"
    path.write_text(generated_text(20, 3000, seed=4))
    for cpus in (1, 2, 3, 16):
        monkeypatch.setattr(_kernel, "cpus", lambda: cpus)
        parse_mps(path)
        assert sizes[0] <= sizes[-1] <= sizes[0] + 128 * cpus


def test_the_instance_keeps_no_room_past_its_entries(compiled, tmp_path):
    # the entry arrays are cut to the entries, which gives the rest back
    path = tmp_path / "large.mps"
    path.write_text(generated_text(20, 3000, seed=4))
    got = parse_mps(path)
    for array in (got.row_idx, got.values):
        base = array
        while base.base is not None:
            base = base.base
        assert base.nbytes == array.nbytes


def test_parses_in_two_threads_at_once(compiled, tmp_path):
    paths = []
    for seed in (1, 2):
        paths.append(tmp_path / f"t{seed}.mps")
        paths[-1].write_text(generated_text(20, 3000, seed=seed))
    want = [parse_mps(path) for path in paths]
    got = [None, None]
    start = threading.Barrier(2)

    def parse(k):
        start.wait()
        got[k] = parse_mps(paths[k])

    threads = [threading.Thread(target=parse, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for a, b in zip(got, want):
        assert_same_instance(a, b)


def test_no_thread_outlives_a_parse(compiled, tmp_path):
    before = threading.active_count()
    path = tmp_path / "t.mps"
    for text in (generated_text(20, 3000, seed=1), toy((10, "    X2  COST  1.0  NOPE  1.0")),
                 "\n".join(TOY)):
        path.write_text(text)
        outcome(path)
        assert threading.active_count() == before
