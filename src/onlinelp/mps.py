"""MPS reading and writing for inequality-form instances.

The reader splits lines on whitespace (this also digests classic
fixed-format files, whose fields never contain spaces), converts every
constraint to <= form (G rows are negated, E rows split into opposing
pairs, RANGES become row intervals) and normalizes the objective to
maximization.

A header is an unindented line that starts with a section name, in any
case, followed by a separator or the end of the text.  Section bodies go
through one of two front ends, which turn their lines into ids and
values, and one back end, ``_Reader``'s ``add_columns``, ``add_entries``,
``set_rhs`` and ``set_bounds``, which fills the name tables, the rhs and
the bounds; the CSC matrix is then assembled with numpy (``_assemble``),
which skips each gather or filter that would change nothing.

- The line reader, ``_parse``, is the reference.  A regex finds every
  header, and the reader reads every section one line at a time: lines
  end at '\\n' only, blank lines and lines whose first token starts with
  '*' (comments) are skipped, and values go through Python's ``float``.
  A malformed file raises ``MpsParseError`` for its earliest offending
  line.
- The compiled front end, ``mps_sweep`` in ``_kernel.c``, reads the bytes
  from the first COLUMNS, RHS, BOUNDS or ENDATA header to the end, and
  finds the headers in them itself, by the regex's rule.  A bytes search
  by the same rule finds that first header, and the text before it goes
  through the line reader's own walk, ``_read_sections``, which ``_parse``
  runs on the whole text.  From that header on, the bytes are cut at line
  starts into one part per usable CPU, but for at least ``_PART_FLOOR``
  bytes each (``_cuts``; one part is one call), and the parts are swept at
  once, each in its own thread, into one set of output arrays
  (``_Outputs``), each part at its own offsets:

  - the first part reads from the header; when a header ends COLUMNS
    before its limit, it reads on through RHS and BOUNDS to ENDATA alone,
    and the later parts' results, hand-backs included, are dropped;
  - a later part counts only when the part before it reached its limit
    still in COLUMNS; it reads COLUMNS lines from its first line (a part
    whose first line is a header stops there with no entries) and stops at
    the first header;
  - one last call then reads on from the header that ended COLUMNS.  It
    first takes the kept parts' column names, each part's in its own order
    of first appearance: a name takes the id of an earlier equal name or
    the next id.  So ids are in order of first appearance in the file,
    and the parts' entry blocks, remapped to them and moved down in place
    behind the first part's, in file order, are the ones one call would
    give.

  The sweep reads values only of the decimal grammar
  ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?``: those with no exponent, at most
  15 significant digits and at most 22 after the point by one correctly
  rounded division (Clinger's fast path), the rest with ``strtod``.  Both
  round as ``float`` does.  It never raises.  Instead it hands the whole
  file back to the line reader, which then reads it from the start, on any
  of: a non-ASCII byte; a '\\r' not followed by '\\n' (text mode's
  universal newlines would move the lines; a '\\r\\n' is a separator and a
  line end to both readers); a layout other than the other sections
  first, then COLUMNS, RHS and BOUNDS, each at most once and in that
  order; a RANGES section; a missing ENDATA; a token outside the grammar
  where a value belongs; an unknown row or column; a MARKER line; a line
  with a bad token count; an FR or MI bound, an unknown bound type or a
  negative UP bound; a repeated (column, row) entry.  Each call checks the
  bytes it read for the first two, the call that reads to ENDATA the
  bytes after it too, and ``_sweep`` the text before the first header; a
  hand-back by any kept part or by the last call sends the whole file
  back.  It runs when ``_kernel.load()`` succeeds, and gives the
  reference's instance bit for bit.

The 0 <= x <= u variable model is enforced structurally: LO/FX bounds are
removed by shifting or folding the column (the accumulated objective
offset lands in ``instance.meta``); FR/MI bounds cannot be represented and
raise a parse error.
"""

from __future__ import annotations

import contextlib
import errno
import mmap
import os
import re
import threading
from array import array
from itertools import chain, repeat

import numpy as np

from . import _kernel
from .model import LpInstance

__all__ = ["parse_mps", "write_mps", "MpsParseError"]

_SECTIONS = "NAME|OBJSENSE|ROWS|COLUMNS|RHS|RANGES|BOUNDS|ENDATA"
# A header is a line that starts, unindented, with a section name.  The
# lookahead on the first letter lets the scan pass over most lines fast.
_HEADER = re.compile(rf"(?:{_SECTIONS})(?!\S)", re.I)
_HEADER_AFTER_NEWLINE = re.compile(rf"\n(?=[NORCBE])(?:{_SECTIONS})(?!\S)", re.I)
# the headers the compiled front end takes (the sections it reads, then the
# end of the data), on ASCII bytes, where \S would take bytes 28-31 for
# non-spaces
_SWEPT_HEADER = re.compile(rb"(?:COLUMNS|RHS|BOUNDS|ENDATA)(?![^\t-\r\x1c-\x20])", re.I)
_SWEPT_HEADER_AFTER_NEWLINE = re.compile(b"\n(?=[CRBE])" + _SWEPT_HEADER.pattern, re.I)

# The fewest bytes from the COLUMNS header on that the sweep gives a part
# when it reads them in parts at once, one per usable CPU.  Paired parses of
# generated files, two parts against one (2-core box, two runs of 81 pairs a
# size), read +10 to +14%, +4 to +5% and +3% at 0.26, 0.43 and 0.61 MB,
# then -2 to -3%, -4 to -6%, -6% and -15 to -17% at 0.78, 1.05, 1.41 and
# 2.47 MB: below about 0.35 MB a part, its fixed costs (a thread, its names
# preloaded by the last call, its block moved) outweigh what it saves.
_PART_FLOOR = 1 << 19
_COUNTS = 7   # the counts mps_sweep returns

_ROW_TYPES = {"N": 0, "L": 1, "G": 2, "E": 3}
_UP, _LO, _FX, _FR, _MI, _PL, _BV = range(7)   # the kinds of mps_sweep in _kernel.c
_BOUND_TYPES = {"UP": _UP, "LO": _LO, "FX": _FX, "FR": _FR, "MI": _MI, "PL": _PL, "BV": _BV}
# ids a row name maps to besides a constraint row's own id (>= 0)
_OBJ, _FREE, _UNKNOWN = -1, -2, -3


class MpsParseError(ValueError):
    """Malformed MPS input; carries the 1-based source line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def parse_mps(source) -> LpInstance:
    """Parse an MPS file (path or text file object) into an LpInstance.

    The instance is the maximization <=-form equivalent of the file's LP::

        max <c, x>  s.t.  A x <= b,  0 <= x <= u

    ``instance.meta`` records the original objective sense, the additive
    objective offset introduced by sign flips / bound shifts, and the
    row / column name tables for diagnostics.  The compiled front end
    reads the file when the kernel is loaded (the first call may build
    it); a path is then read as bytes, and opened again in text mode only
    when the file is handed back to the line reader.  The bytes are let
    go before the parts' entries are merged.
    """
    lib = _kernel.load()
    if hasattr(source, "read"):
        text = source.read()
        swept = _sweep(lib, text.encode("ascii")) if lib is not None and text.isascii() else None
        return _parse(text) if swept is None else swept.finish()
    swept = None if lib is None else _sweep(lib, _read(source, "rb"))
    return _parse(_read(source, "r")) if swept is None else swept.finish()


def _read(path, mode: str):
    with _opened(path, mode, "MPS") as fh:
        return fh.read()


@contextlib.contextmanager
def _opened(file, mode: str, what: str, newline: str | None = None):
    """The one way the package opens a file to read or write.

    A file object is yielded as it is and left open.  A path is opened
    with mode and newline, and any OSError becomes "cannot read <what>
    from <path>: ..." or "cannot write <what> to <path>: ...".
    """
    if hasattr(file, "read" if "r" in mode else "write"):
        yield file
        return
    try:
        with open(file, mode, newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise _file_error(file, mode, what, exc) from exc


def _file_error(path, mode: str, what: str, exc: OSError) -> OSError:
    action = f"read {what} from" if "r" in mode else f"write {what} to"
    return OSError(f"cannot {action} {path!r}: {exc}")


def _check_writable(path: str, what: str) -> None:
    """Raise the error that writing what to path would, where opening it to
    write must fail; create and truncate nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _file_error(path, "w", what, OSError(code, os.strerror(code), path))


def _read_sections(reader: _Reader, text: str) -> list:
    """The line reader's walk: read into reader the text before the first
    header, then each section, up to an ENDATA header, where the search for
    headers stops.  Returns the sections' names, with ENDATA where the walk
    met it."""
    heads = chain([0] if _HEADER.match(text) else [],
                  (m.start() + 1 for m in _HEADER_AFTER_NEWLINE.finditer(text)), [len(text)])
    names, section, tok, body, line_no = [], None, [], 0, 1
    for head in heads:
        reader.header(section, tok)
        reader.read(section, _lines(text[body:head], line_no))
        eol = text.find("\n", head)
        eol = len(text) if eol < 0 else eol
        tok = text[head:eol].split()
        if not tok:   # the end of the text
            break
        section = tok[0].upper()
        names.append(section)
        if section == "ENDATA":
            break
        line_no += text.count("\n", body, eol + 1)
        body = eol + 1
    return names


def _parse(text: str) -> LpInstance:
    """The line reader on every section: the reference."""
    reader = _Reader()
    if "ENDATA" not in _read_sections(reader, text):
        raise MpsParseError("missing ENDATA")
    return reader.finish()


def _sweep(lib, data: bytes) -> _Reader | None:
    """The line reader on the text of data before its first COLUMNS, RHS,
    BOUNDS or ENDATA header, the compiled front end from that header on:
    the filled reader, or None where the file goes back to the line reader
    (see the module docstring).  The caller passes the only reference to
    data, which is let go before the parts' entries are joined."""
    start = _swept_start(data)
    if start is None:
        return None
    head = data[:start]   # the sweep checks the bytes from start on
    if not head.isascii() or head.count(b"\r") != head.count(b"\r\n"):
        return None
    reader = _Reader()
    if "RANGES" in _read_sections(reader, head.decode("ascii")):
        return None

    roles = reader.roles("COLUMNS")
    names = list(roles)
    size = np.fromiter(map(len, names), np.int64, len(names))
    rows = ("".join(names).encode("ascii"),
            np.stack([np.cumsum(size) - size, np.cumsum(size)], axis=1),
            np.fromiter(roles.values(), np.int64, len(names)),
            _lookup(reader.roles("RHS"), names, _UNKNOWN))
    cuts = _cuts(data, start)
    room = np.array([_room(limit - cut) for cut, limit in zip(cuts, cuts[1:])])
    out = _Outputs(room.sum(axis=0), _room(len(data) - start))
    parts = [_Part(cut, limit, cut != start, at)
             for cut, limit, at in zip(cuts, cuts[1:], room.cumsum(axis=0) - room)]
    threads = [threading.Thread(target=part.sweep, args=(lib, data, rows, out))
               for part in parts[1:]]
    for thread in threads:
        thread.start()
    parts[0].sweep(lib, data, rows, out)
    for thread in threads:
        thread.join()

    # keep the parts that hold COLUMNS lines: the first, and each next one
    # while the part before it swept to its limit still in COLUMNS
    kept = 1
    while kept < len(parts) and parts[kept - 1].reached_limit():
        kept += 1
    del parts[kept:]
    if parts[-1].code:
        return None
    counts, maps = parts[0].counts, [None]
    if len(parts) > 1:
        # one more call reads on from the header that ended COLUMNS, with
        # every kept part's column names preloaded; it writes no entries
        col_name = np.concatenate([out.col_name[p.line:p.line + p.columns] + p.byte
                                   for p in parts])
        out.col_name = None
        col_map, counts = np.empty(len(col_name), np.int64), np.zeros(_COUNTS, np.int64)
        if _call(lib, data, rows, out, parts[-1].stop, len(data), False, (0, 0, 0), col_name,
                 len(col_name), col_map, counts):
            return None
        del col_name
        ends = np.cumsum([p.columns for p in parts]).tolist()
        maps += [col_map[a:b] for a, b in zip(ends, ends[1:])]
    # what no later step reads is let go before the entries are joined
    del data
    _, _, rhs, bounds, _, name_bytes, _ = counts.tolist()
    reader.add_columns(out.col_text[:name_bytes].tobytes().decode("ascii").split())
    out.col_text = out.col_name = None
    entries = [(p.pair, p.entries) for p in parts]
    objective = [(p.pair, p.objective) for p in parts]
    if reader.add_entries(out.join("ent_col", entries, maps), out.join("ent_row", entries),
                          out.join("ent_val", entries), out.join("obj_col", objective, maps),
                          out.join("obj_val", objective)) >= 0:
        return None
    reader.set_rhs(True, out.rhs_row[:rhs], out.rhs_val[:rhs])
    reader.set_bounds(out.bnd_kind[:bounds], out.bnd_col[:bounds], out.bnd_val[:bounds])
    return reader


def _swept_start(data: bytes) -> int | None:
    """The offset of data's first COLUMNS, RHS, BOUNDS or ENDATA header, or
    None.  (A match would hold on to data.)"""
    if _SWEPT_HEADER.match(data):
        return 0
    found = _SWEPT_HEADER_AFTER_NEWLINE.search(data)
    return None if found is None else found.start() + 1


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on this platform
        return os.cpu_count() or 1


def _cuts(data: bytes, start: int) -> list:
    """Where the parts of data[start:] that the sweep reads at once start,
    then len(data): at start, and at the first line start past each equal
    share of the bytes.  One part per usable CPU, but for at least
    _PART_FLOOR bytes each."""
    size = len(data)
    count = max(1, min(_cpus(), (size - start) // _PART_FLOOR))
    cuts = [start]
    for k in range(1, count):
        at = data.find(b"\n", start + (size - start) * k // count) + 1
        if cuts[-1] < at < size:
            cuts.append(at)
    return cuts + [size]


def _room(size: int) -> tuple:
    """The most pairs, lines and name bytes that size bytes from a line
    start could hold: a pair takes two tokens and a bound or column line
    three, each followed by a separator (but the last)."""
    return (size + 1) // 4 + 1, (size + 1) // 6 + 1, size + 1


class _Outputs:
    """The arrays the sweep's calls fill: one set for the whole text, as
    large as one call on it needs, give or take a few items a part.

    Each part writes its COLUMNS entries and column names at its own
    offsets, in room for what its own bytes could hold, and only the call
    that reads RHS and BOUNDS writes their arrays; the pages no item
    reaches stay untouched.  The entry arrays fill megabytes, and come from
    np.empty, whose huge pages take few page faults to fill; each is its
    own allocation, so the instance can hold the rows and values without
    the rest.  The other arrays fill a few pages at one offset a part, and
    get anonymous mappings of their own (``_mapped``).
    """

    def __init__(self, room, whole):
        pairs, lines, text = room
        self.ent_col, self.ent_row = np.empty(pairs, np.int64), np.empty(pairs, np.int64)
        self.ent_val = np.empty(pairs)
        self.obj_col, self.obj_val = _mapped(pairs, np.int64), _mapped(pairs, np.float64)
        self.col_text, self.col_name = _mapped(text, np.uint8), _mapped((lines, 2), np.int64)
        pairs, lines, _ = whole
        self.rhs_row, self.rhs_val = _mapped(pairs, np.int64), _mapped(pairs, np.float64)
        self.bnd_kind, self.bnd_col = _mapped(lines, np.int64), _mapped(lines, np.int64)
        self.bnd_val = _mapped(lines, np.float64)

    def join(self, name: str, blocks: list, maps=None) -> np.ndarray:
        """The named array's blocks [at, at + k) one after another: moved
        down in place, each mapped through its map when there is one, and
        cut to them.  The first block is at 0.  An array of np.empty's is
        resized, which gives back its pages past the blocks."""
        array = getattr(self, name)
        setattr(self, name, None)   # resize needs the only reference
        n = blocks[0][1]
        for (at, k), ids in zip(blocks[1:], maps[1:] if maps else repeat(None)):
            if ids is not None:   # in place: each slot is read before it is written
                np.take(ids, array[at:at + k], out=array[at:at + k], mode="clip")
            array[n:n + k] = array[at:at + k]
            n += k
        if not array.flags.owndata:
            return array[:n]
        array.resize(n)
        return array


def _mapped(shape, dtype) -> np.ndarray:
    """An empty array in a private anonymous mapping of its own, which holds
    the pages written and gives them back when the array is freed.  np.empty
    gives a large array transparent huge pages, which round the pages
    written at each offset up to 2 MB."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE), dtype).reshape(shape)


def _call(lib, data, rows, out, start, limit, inside, at, col_name, preloaded, col_map,
          counts) -> int:
    """mps_sweep on data[start:] into out's arrays, the entries' at pair
    at[0] and the column names' at line at[1] of col_name and byte at[2],
    with rows the row names' text, their spans and their roles in COLUMNS
    and in RHS (see _kernel.c)."""
    pair, line, byte = at
    row_text, row_name, col_role, rhs_role = rows
    return lib.mps_sweep(
        data, start, limit, len(data), inside, row_text, row_name.ctypes.data,
        col_role.ctypes.data, rhs_role.ctypes.data, len(col_role),
        out.ent_col[pair:].ctypes.data, out.ent_row[pair:].ctypes.data,
        out.ent_val[pair:].ctypes.data, out.obj_col[pair:].ctypes.data,
        out.obj_val[pair:].ctypes.data, out.rhs_row.ctypes.data, out.rhs_val.ctypes.data,
        out.bnd_kind.ctypes.data, out.bnd_col.ctypes.data, out.bnd_val.ctypes.data,
        out.col_text[byte:].ctypes.data, col_name[line:].ctypes.data, preloaded,
        None if col_map is None else col_map.ctypes.data, counts.ctypes.data)


class _Part:
    """One part of the text that the sweep reads, data[start:], in COLUMNS
    up to limit, and where its outputs go: pair, line and byte are its
    offsets in the outputs' entry arrays, column spans and column text.
    A part past the first starts inside COLUMNS and ends at the first
    header; its column spans count from its own first byte."""

    def __init__(self, start: int, limit: int, inside: bool, at):
        self.start, self.limit, self.inside = start, limit, inside
        self.pair, self.line, self.byte = at.tolist()
        self.counts = np.zeros(_COUNTS, np.int64)
        self.code = -1

    def sweep(self, lib, data: bytes, rows, out: _Outputs) -> None:
        self.code = _call(lib, data, rows, out, self.start, self.limit, self.inside,
                          (self.pair, self.line, self.byte), out.col_name, 0, None, self.counts)
        self.entries, self.objective, _, _, self.columns, _, self.stop = self.counts.tolist()

    def reached_limit(self) -> bool:
        """Whether the part swept to its limit still in COLUMNS."""
        return self.code == 0 and self.stop == self.limit


def _lines(body: str, first: int):
    """Yield ``(line number, tokens)`` of each data line of a section body
    that starts on line first.  Lines end at '\\n' only; blank lines and
    lines whose first token starts with '*' (comments) are skipped."""
    for line_no, line in enumerate(body.split("\n"), first):
        tok = line.split()
        if tok and tok[0][0] != "*":
            yield line_no, tok


def _number(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MpsParseError(f"expected a number, got {token!r}", line_no) from None


def _lookup(table: dict, names: list, missing: int) -> np.ndarray:
    """The id of each name in table, or missing."""
    return np.fromiter(map(table.get, names, repeat(missing)), np.int64, len(names))


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry, or -1."""
    return int(mask.argmax()) if mask.any() else -1


class _Reader:
    """The tables a sweep fills, section by section, in file order.

    ``rows`` and the methods named after the other sections are the line
    reader; ``add_columns``, ``add_entries``, ``set_rhs`` and
    ``set_bounds`` are the back end both front ends share.
    """

    def __init__(self):
        self.name = ""
        self.objsense = "MIN"
        self.pending_objsense = False
        self.obj_row = None
        self.free_rows: set[str] = set()
        self.row_id: dict[str, int] = {}     # constraint rows, in file order
        self.row_kind: list[int] = []        # _ROW_TYPES code of each
        self.rhs: dict[int, float] = {}
        self.ranges: dict[int, float] = {}
        self.obj_rhs = 0.0
        self.col_names: list[str] = []       # columns, in order of first entry
        self.col_id: dict[str, int] = {}     # the line reader's ids of them
        # constraint entries in file order, and the order that sorts them
        # by (column, row), or None when they are sorted; objective entries
        # as (column, value) arrays
        self.col = self.row = np.empty(0, np.int64)
        self.value = np.empty(0)
        self.order = None
        self.obj_entries = [(np.empty(0, np.int64), np.empty(0))]
        # the bounds of each BOUNDS section as (kind, column, value) arrays
        self.bound_sets = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]

    def header(self, section: str | None, tok: list) -> None:
        self.pending_objsense = False
        if section == "NAME":
            self.name = tok[1] if len(tok) > 1 else ""
        elif section == "OBJSENSE":
            if len(tok) > 1:
                self.objsense = tok[1].upper()
            else:
                self.pending_objsense = True

    def read(self, section, lines) -> None:
        if section == "ROWS":
            self.rows(lines)
        elif section == "COLUMNS":
            self.columns(lines)
        elif section in ("RHS", "RANGES"):
            self.rhs_or_ranges(section, lines)
        elif section == "BOUNDS":
            self.bounds(lines)
        else:
            self.no_data(section, lines)

    def finish(self) -> LpInstance:
        if self.obj_row is None:
            raise MpsParseError("no objective (N) row found")
        if not self.row_id:
            raise MpsParseError("no constraint rows found")
        if not self.col_names:
            raise MpsParseError("no columns found")
        return _assemble(self)

    def roles(self, section: str) -> dict:
        """Each row name's role in COLUMNS, RHS or RANGES: its constraint
        row id, _OBJ or _FREE, set in the order a line-by-line reader tests
        them."""
        if section == "RANGES":
            return dict(self.row_id)
        free = dict.fromkeys(self.free_rows, _FREE)
        roles = {**self.row_id, **free} if section == "COLUMNS" else {**free, **self.row_id}
        if self.obj_row is not None:
            roles[self.obj_row] = _OBJ
        return roles

    # -- the line reader -------------------------------------------------------

    def no_data(self, section, lines) -> None:
        """NAME, OBJSENSE and the text before the first header hold no data
        lines, except the one line that names a pending objective sense."""
        for line_no, tok in lines:
            if not self.pending_objsense:
                raise MpsParseError(
                    "data before any section header" if section is None
                    else f"unexpected data in section {section}", line_no)
            self.objsense = tok[0].upper()
            self.pending_objsense = False

    def rows(self, lines) -> None:
        for line_no, tok in lines:
            if len(tok) != 2:
                raise MpsParseError("ROWS entries need a type and a name", line_no)
            kind, name = _ROW_TYPES.get(tok[0].upper(), -1), tok[1]
            if kind < 0:
                raise MpsParseError(f"unknown row type {tok[0].upper()!r}", line_no)
            if kind > 0:
                if name in self.row_id:
                    raise MpsParseError(f"duplicate row {name!r}", line_no)
                self.row_id[name] = len(self.row_id)
                self.row_kind.append(kind)
            elif self.obj_row is None:
                self.obj_row = name
            else:
                self.free_rows.add(name)

    def columns(self, lines) -> None:
        roles = self.roles("COLUMNS")
        col, row, entry_line, obj_col = array("q"), array("q"), array("q"), array("q")
        value, obj_value = array("d"), array("d")

        def flush() -> None:
            """Hand the entries read so far to the back end; raise at the
            later entry of a repeated (column, row) pair."""
            p = self.add_entries(np.frombuffer(col, np.int64), np.frombuffer(row, np.int64),
                                 np.frombuffer(value), np.frombuffer(obj_col, np.int64),
                                 np.frombuffer(obj_value))
            if p >= 0:
                cname, rname = self.col_names[col[p]], list(self.row_id)[row[p]]
                raise MpsParseError(f"duplicate entry for column {cname!r}, row {rname!r}",
                                    entry_line[p]) from None

        try:
            for line_no, tok in lines:
                if len(tok) >= 3 and tok[1].upper() == "'MARKER'":
                    continue   # integrality markers: the columns are treated as continuous
                if len(tok) < 3 or len(tok) % 2 == 0:
                    raise MpsParseError("COLUMNS entries need name + row/value pairs", line_no)
                c = self.col_id.get(tok[0])
                if c is None:
                    c = self.col_id[tok[0]] = len(self.col_names)
                    self.add_columns([tok[0]])
                for i in range(1, len(tok), 2):
                    v = _number(tok[i + 1], line_no)
                    r = roles.get(tok[i], _UNKNOWN)
                    if r >= 0:
                        col.append(c)
                        row.append(r)
                        value.append(v)
                        entry_line.append(line_no)
                    elif r == _OBJ:
                        obj_col.append(c)
                        obj_value.append(v)
                    elif r == _UNKNOWN:
                        raise MpsParseError(f"unknown row {tok[i]!r}", line_no)
        except MpsParseError:
            flush()   # a repeat read before the error is the earlier fault
            raise
        flush()

    def rhs_or_ranges(self, section: str, lines) -> None:
        is_rhs = section == "RHS"
        roles = self.roles(section)
        unknown = "unknown row" if is_rhs else "RANGES on unknown row"
        role, value = array("q"), array("d")
        for line_no, tok in lines:
            if len(tok) == 1:
                raise MpsParseError(f"{section} entries need row/value pairs", line_no)
            # an odd count leads with the set name, which is ignored
            for i in range(len(tok) % 2, len(tok), 2):
                v = _number(tok[i + 1], line_no)
                r = roles.get(tok[i], _UNKNOWN)
                if r == _UNKNOWN:
                    raise MpsParseError(f"{unknown} {tok[i]!r}", line_no)
                role.append(r)
                value.append(v)
        self.set_rhs(is_rhs, np.frombuffer(role, np.int64), np.frombuffer(value))

    def bounds(self, lines) -> None:
        kinds, cols, values = array("q"), array("q"), array("d")
        lo = {}   # each column's lower bound so far
        for set_kind, set_col, set_value in self.bound_sets:
            sets_lo, lo_value, _, _ = _bound_ends(set_kind, set_value)
            lo.update(zip(set_col[sets_lo].tolist(), lo_value[sets_lo].tolist()))
        for line_no, tok in lines:
            name = tok[0].upper()
            kind = _BOUND_TYPES.get(name, -1)
            if kind < 0:
                raise MpsParseError(f"unknown bound type {name!r}", line_no)
            needs_value = kind <= _FX
            if len(tok) < (4 if needs_value else 3):
                raise MpsParseError("short BOUNDS entry", line_no)
            c = self.col_id.get(tok[2], -1)
            if c < 0:
                raise MpsParseError(f"bound on unknown column {tok[2]!r}", line_no)
            v = _number(tok[3], line_no) if needs_value else np.nan
            if kind == _UP and v < 0 and lo.get(c, 0.0) == 0.0:
                raise MpsParseError("UP with a negative value implies a free lower bound, "
                                    "which the 0 <= x <= u model cannot represent", line_no)
            if kind in (_FR, _MI):
                raise MpsParseError(f"{name} bounds (free below) are unsupported by the "
                                    "0 <= x <= u model", line_no)
            if kind in (_LO, _FX, _BV):
                lo[c] = 0.0 if kind == _BV else v
            kinds.append(kind)
            cols.append(c)
            values.append(v)
        self.set_bounds(np.frombuffer(kinds, np.int64), np.frombuffer(cols, np.int64),
                        np.frombuffer(values))

    # -- the back end ----------------------------------------------------------

    def add_columns(self, names: list) -> None:
        """Give the next column ids to names, none of them known."""
        self.col_names += names

    def add_entries(self, col, row, value, obj_col, obj_value) -> int:
        """Append a COLUMNS section's constraint and objective entries and
        sort the constraint entries by (column, row).

        Returns the index in ``col`` of the first entry that repeats an
        earlier (column, row) pair, or -1.  Earlier sections hold no repeat
        among themselves, so the later entry of a repeat lies in this one.
        """
        self.obj_entries.append((obj_col, obj_value))
        start = len(self.value)
        if start:
            col, row, value = (np.concatenate(a) for a in
                               ((self.col, col), (self.row, row), (self.value, value)))
        self.col, self.row, self.value = col, row, value
        key = col * max(len(self.row_id), 1) + row
        if (key[1:] > key[:-1]).all():   # sorted, with no repeat: a written file
            self.order = None
            return -1
        self.order = np.argsort(key, kind="stable")
        again = self.order[1:][np.diff(key[self.order]) == 0]
        return int(again.min()) - start if again.size else -1

    def set_rhs(self, is_rhs: bool, role, values) -> None:
        """Set the rhs (or range) of each constraint row in role, and the
        objective's constant from its last entry."""
        is_con = role >= 0
        (self.rhs if is_rhs else self.ranges).update(
            zip(role[is_con].tolist(), values[is_con].tolist()))
        is_obj = role == _OBJ
        if is_obj.any():
            self.obj_rhs = float(values[is_obj][-1])

    def set_bounds(self, kind, col, value) -> None:
        """Set the bounds of the given kinds, columns and values, in order."""
        self.bound_sets.append((kind, col, value))


def _bound_ends(kind, value):
    """Which bounds set their column's lower end and to what, and which
    set its upper end and to what."""
    lo = np.where(kind == _BV, 0.0, value)
    up = np.select([kind == _BV, kind == _PL], [1.0, np.inf], value)
    return (kind == _LO) | (kind == _FX) | (kind == _BV), lo, kind != _LO, up


def _set_last(target: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """target[index] = values, where the last value given an index wins."""
    if not (index[1:] > index[:-1]).all():
        last = index.size - 1 - np.unique(index[::-1], return_index=True)[1]
        index, values = index[last], values[last]
    target[index] = values


def _by_name(names: list, at: np.ndarray) -> list:
    """The names at the indices at."""
    return [names[j] for j in at.tolist()]


def _assemble(r: _Reader) -> LpInstance:
    flip = r.objsense != "MAX"
    n, nrows = len(r.col_names), len(r.row_id)
    col, row, value = r.col, r.row, r.value
    if r.order is not None:
        col, row, value = col[r.order], row[r.order], value[r.order]
    ocol, oval = map(np.concatenate, zip(*r.obj_entries))
    bound_kind, bound_col, bound_value = map(np.concatenate, zip(*r.bound_sets))

    # inf and nan propagate silently, as in Python float arithmetic
    with np.errstate(all="ignore"):
        obj = np.zeros(n)
        np.add.at(obj, ocol, oval)   # in file order, like += per entry
        c = -obj if flip else obj

        lo, up = np.zeros(n), np.full(n, np.inf)
        sets_lo, lo_value, sets_up, up_value = _bound_ends(bound_kind, bound_value)
        _set_last(lo, bound_col[sets_lo], lo_value[sets_lo])
        _set_last(up, bound_col[sets_up], up_value[sets_up])
        j = _first(up < lo)
        if j >= 0:
            raise MpsParseError(f"column {r.col_names[j]!r} has empty bound interval "
                                f"[{float(lo[j])}, {float(up[j])}]")

        # bound normalization: fold fixed columns into the rhs, shift nonzero lowers
        fixed = up == lo
        shifted = ~fixed & (lo != 0.0)
        moved = fixed | shifted
        offset = -r.obj_rhs if not flip else r.obj_rhs  # constant term, max convention
        offset = float(np.cumsum(np.concatenate(([offset], c[moved] * lo[moved])))[-1])
        b = np.zeros(nrows)
        b[list(r.rhs)] = list(r.rhs.values())
        if moved.any():
            at = moved[col]
            np.subtract.at(b, row[at], value[at] * lo[col[at]])

        kept = ~fixed
        if not kept.any():
            raise MpsParseError("every column is fixed; nothing to optimize")

        # expand rows to <= form: the row itself where its upper end is
        # finite, then its negation where its lower end is
        kind = np.array(r.row_kind)
        is_l, is_g = kind == _ROW_TYPES["L"], kind == _ROW_TYPES["G"]
        rng, has_rng = np.zeros(nrows), np.zeros(nrows, bool)
        rng[list(r.ranges)] = list(r.ranges.values())
        has_rng[list(r.ranges)] = True
        up_rng = has_rng & (rng >= 0)
        row_lo = np.where(is_l, np.where(has_rng, b - np.abs(rng), -np.inf),
                          np.where(~is_g & has_rng & ~up_rng, b + rng, b))
        row_hi = np.where(is_g, np.where(has_rng, b + np.abs(rng), np.inf),
                          np.where(~is_l & up_rng, b + rng, b))
        keep = np.stack([np.isfinite(row_hi), np.isfinite(row_lo)], axis=1)
        rhs = np.stack([row_hi, -row_lo], axis=1)[keep]
        sign = np.where(keep, [1.0, -1.0], 0.0)[keep]
        names = np.array(list(r.row_id), dtype=object)
        both = keep.all(axis=1)
        out_names = np.stack([np.where(both, names + ":hi", names),
                              np.where(both, names + ":lo", names)], axis=1)[keep]
        width = keep.sum(axis=1)
        start = np.cumsum(width) - width

        # CSC: the entries are sorted by (column, row), and a row's output
        # rows are adjacent and ascending, so repeating keeps the order.
        # Each step is skipped where it would change nothing: no column
        # fixed, one output row per row, every sign +1, no zero product.
        if fixed.any():
            at = kept[col]
            col, row, value = col[at], row[at], value[at]
        if (width == 1).all():
            out_row, out_col = row, col
            out_val = value if (sign == 1.0).all() else value * sign[row]
        else:
            rep = width[row]
            out_row = np.repeat(start[row] - (np.cumsum(rep) - rep), rep) + np.arange(rep.sum())
            out_col = np.repeat(col, rep)
            out_val = np.repeat(value, rep) * sign[out_row]
        nz = out_val != 0.0
        if not nz.all():
            out_row, out_col, out_val = out_row[nz], out_col[nz], out_val[nz]
        k = int(kept.sum())
        if k < n:
            out_col = (np.cumsum(kept) - 1)[out_col]
        col_ptr = np.concatenate(([0], np.cumsum(np.bincount(out_col, minlength=k))))

    kept_at, shifted_at, fixed_at = map(np.flatnonzero, (kept, shifted, fixed))
    meta = {
        "name": r.name,
        "objective_sense": "min" if flip else "max",
        "objective_offset": offset,
        "row_names": tuple(out_names.tolist()),
        "col_names": tuple(r.col_names if k == n else _by_name(r.col_names, kept_at)),
        "column_shifts": dict(zip(_by_name(r.col_names, shifted_at), lo[shifted_at].tolist())),
        "fixed_columns": dict(zip(_by_name(r.col_names, fixed_at), lo[fixed_at].tolist())),
    }
    return LpInstance(len(rhs), k, col_ptr, out_row, out_val, rhs, c[kept],
                      np.where(shifted, up - lo, up)[kept], meta=meta)


_WRITE_BLOCK = 1 << 12   # columns per block of the COLUMNS section


def _g17(values: np.ndarray) -> np.ndarray:
    """f"{v:.17g}" of each value, as an object array; each distinct value
    is formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([f"{v:.17g}" for v in distinct.tolist()], dtype=object)[inverse]


def write_mps(instance: LpInstance, destination, name: str = "ONLINELP") -> None:
    """Write the instance as free-format MPS (OBJSENSE MAX, all-L rows).

    parse_mps(write_mps(inst)) reproduces the instance structurally, which
    is what the round-trip tests rely on.  Values are written with
    ``.17g``, so they read back exactly.  The COLUMNS section is built from
    whole arrays, a block of columns at a time.
    """
    m, n = instance.num_rows, instance.num_cols
    cp, obj, upper = instance.col_ptr, instance.obj, instance.upper
    xname = np.array([f"    X{j}  " for j in range(n)], dtype=object)
    rname = np.array([f"R{i}  " for i in range(m)], dtype=object)

    with _opened(destination, "w", "MPS") as fh:
        w = fh.write
        w(f"NAME          {name}\n")
        w("OBJSENSE\n    MAX\n")
        w("ROWS\n")
        w(" N  OBJ\n")
        w("".join(f" L  R{i}\n" for i in range(m)))
        w("COLUMNS\n")
        for lo in range(0, n, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, n)
            # each column's OBJ line, when c_j != 0, comes before its
            # entries, so an entry moves down by the OBJ lines up to its
            # column, and the OBJ line sits just above the column's first entry
            has_obj = obj[lo:hi] != 0.0
            shift = np.cumsum(has_obj)
            col = np.repeat(np.arange(lo, hi), np.diff(cp[lo:hi + 1]))
            entries = slice(cp[lo], cp[hi])
            lines = np.empty(cp[hi] - cp[lo] + shift[-1], dtype=object)
            lines[np.arange(lines.size - shift[-1]) + shift[col - lo]] = (
                xname[col] + rname[instance.row_idx[entries]] + _g17(instance.values[entries]))
            j = np.flatnonzero(has_obj)
            lines[cp[lo + j] - cp[lo] + shift[j] - 1] = xname[lo + j] + "OBJ  " + _g17(obj[lo + j])
            if lines.size:
                w("\n".join(lines.tolist()) + "\n")
        w("RHS\n")
        i = np.flatnonzero(instance.rhs != 0.0)
        w("".join(f"    RHS  R{r}  {v}\n"
                  for r, v in zip(i.tolist(), _g17(instance.rhs[i]).tolist())))
        w("BOUNDS\n")
        j = np.flatnonzero(np.isfinite(upper))
        w("".join(f" UP BND  X{c}  {v}\n" for c, v in zip(j.tolist(), _g17(upper[j]).tolist())))
        w("ENDATA\n")
