"""MPS reading and writing for inequality-form instances.

The reader splits lines on whitespace (this also digests classic
fixed-format files, whose fields never contain spaces), converts every
constraint to <= form (G rows are negated, E rows split into opposing
pairs, RANGES become row intervals) and normalizes the objective to
maximization.

A regex finds the section headers.  Each section body then goes through
one of two front ends, which turn its tokens into arrays, and one back
end, ``_Reader``'s ``add_columns``, ``add_entries``, ``set_rhs`` and
``set_bounds``, which fills the name tables, the rhs and the bounds; the
CSC matrix is then assembled with numpy (``_assemble``).  Neither front
end runs Python code once per line or per token.

- The numpy front end reads every section.  It cuts each body into chunks
  of about 64 thousand characters that end at a newline; ``str.split``
  gives a chunk's tokens, numpy on the chunk's character codes gives each
  token's line and its place in the line, one dict per name table maps
  names to ids, and values go through Python's ``float``.  A malformed
  file raises ``MpsParseError`` for its earliest offending line, with the
  message a line-by-line reader would give there.  It is the reference.
- The compiled front end, ``mps_sweep`` in ``_kernel.c``, reads the bytes
  of the COLUMNS, RHS and BOUNDS bodies in one call; the numpy front end
  reads the sections before them.  It reads values with ``strtod``, and
  only those of the decimal grammar ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?``,
  on which ``strtod`` and ``float`` both round correctly.  It never raises.
  Instead it hands the whole file back to the numpy reader, which then
  reads it from the start, on any of: a non-ASCII byte; a '\\r' (text
  mode's universal newlines would move the lines); a layout other than
  the other sections first, then COLUMNS, RHS and BOUNDS, each at most
  once and in that order; a RANGES section; a missing ENDATA; a token
  outside the grammar where a value belongs; an unknown row or column; a
  MARKER line; a line with a bad token count; an FR or MI bound, an
  unknown bound type or a negative UP bound; a repeated (column, row)
  entry.  It runs when ``_kernel.load()`` succeeds, and gives the
  reference's instance bit for bit.

The 0 <= x <= u variable model is enforced structurally: LO/FX bounds are
removed by shifting or folding the column (the accumulated objective
offset lands in ``instance.meta``); FR/MI bounds cannot be represented and
raise a parse error.
"""

from __future__ import annotations

import re
from itertools import compress, count, filterfalse, repeat

import numpy as np

from . import _kernel
from .model import LpInstance

__all__ = ["parse_mps", "write_mps", "MpsParseError"]

_SECTIONS = "NAME|OBJSENSE|ROWS|COLUMNS|RHS|RANGES|BOUNDS|ENDATA"
# A header is a line that starts, unindented, with a section name.  The
# lookahead on the first letter lets the scan pass over most lines fast.
_HEADER = re.compile(rf"(?:{_SECTIONS})(?!\S)", re.I)
_HEADER_AFTER_NEWLINE = re.compile(rf"\n(?=[NORCBE])(?:{_SECTIONS})(?!\S)", re.I)
# the same on ASCII bytes, where \S would take bytes 28-31 for non-spaces
_NOT_SPACE = rb"[^\t-\r\x1c-\x20]"
_BYTES_HEADER = re.compile(rb"(?:%b)(?!%b)" % (_SECTIONS.encode(), _NOT_SPACE), re.I)
_BYTES_HEADER_AFTER_NEWLINE = re.compile(
    rb"\n(?=[NORCBE])(?:%b)(?!%b)" % (_SECTIONS.encode(), _NOT_SPACE), re.I)
# the sections the compiled front end reads, in the order it takes them
_SWEPT = ("COLUMNS", "RHS", "BOUNDS")

_ROW_TYPES = {"N": 0, "L": 1, "G": 2, "E": 3}
_UP, _LO, _FX, _FR, _MI, _PL, _BV = range(7)   # the kinds of mps_sweep in _kernel.c
_BOUND_TYPES = {"UP": _UP, "LO": _LO, "FX": _FX, "FR": _FR, "MI": _MI, "PL": _PL, "BV": _BV}
# ids a row name maps to besides a constraint row's own id (>= 0)
_OBJ, _FREE, _UNKNOWN = -1, -2, -3

# Characters per chunk.  The passes over a chunk's tokens run while they
# are still in the CPU cache: a COLUMNS sweep in 1 MB chunks took about
# 20% longer.
_CHUNK = 1 << 16
# str.isspace for every code point up to U+3000, the last space; the
# extra False entry stands for every code point above
_SPACE = np.array([chr(c).isspace() for c in range(0x3001)] + [False])
_STAR, _QUOTE, _NEWLINE = ord("*"), ord("'"), ord("\n")


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
    when the file is handed back to the numpy reader.  The bytes are let
    go before the matrix is assembled.
    """
    lib = _kernel.load()
    if hasattr(source, "read"):
        text = source.read()
        swept = _sweep(lib, text.encode("ascii")) if lib is not None and text.isascii() else None
        return _parse(text) if swept is None else swept.finish()
    swept = None if lib is None else _sweep(lib, _read(source, "rb"))
    return _parse(_read(source, "r")) if swept is None else swept.finish()


def _read(path, mode: str):
    try:
        with open(path, mode) as fh:
            return fh.read()
    except OSError as exc:
        raise OSError(f"cannot read MPS from {path!r}: {exc}") from exc


def _sections(text, header, header_after_newline):
    """Cut text (str, or ASCII bytes and bytes patterns) at its headers.

    Yields ``(section, tok, start, stop)`` for the text before the first
    header (section None) and for each header up to ENDATA: the section's
    name in upper case, the header line's tokens and the body's span.
    Without ENDATA the last body runs to the end of text.
    """
    newline = "\n" if isinstance(text, str) else b"\n"
    heads = [0] if header.match(text) else []
    heads += [m.start() + 1 for m in header_after_newline.finditer(text)]
    section, tok, body = None, [], 0
    for head in heads:
        yield section, tok, body, head
        eol = text.find(newline, head)
        eol = len(text) if eol < 0 else eol
        line = text[head:eol]
        tok = (line if isinstance(line, str) else line.decode("ascii")).split()
        section = tok[0].upper()
        if section == "ENDATA":
            yield section, tok, eol, eol
            return
        body = eol + 1
    yield section, tok, body, len(text)


def _parse(text: str) -> LpInstance:
    """The numpy reader: the numpy front end on every section."""
    reader = _Reader()
    line_no, counted = 1, 0
    for section, tok, start, stop in _sections(text, _HEADER, _HEADER_AFTER_NEWLINE):
        if section == "ENDATA":
            break
        line_no += text.count("\n", counted, start)
        counted = start
        reader.header(section, tok)
        reader.read(section, _chunks(text, start, stop, line_no))
    else:
        raise MpsParseError("missing ENDATA")
    return reader.finish()


def _sweep(lib, data: bytes) -> _Reader | None:
    """The compiled front end on the COLUMNS, RHS and BOUNDS bodies of
    data, the numpy one on the sections before them: the filled reader, or
    None where the file goes back to the numpy reader (see the module
    docstring)."""
    if not data.isascii() or b"\r" in data:
        return None
    reader = _Reader()
    spans = {}
    for section, tok, start, stop in _sections(data, _BYTES_HEADER,
                                               _BYTES_HEADER_AFTER_NEWLINE):
        if section == "ENDATA":
            break
        if section in spans or (spans and section not in _SWEPT) or section == "RANGES":
            return None
        reader.header(section, tok)
        if section in _SWEPT:
            spans[section] = (start, stop)
        else:   # a section before the swept ones: few lines
            reader.read(section, _chunks(data[start:stop].decode("ascii"), 0, stop - start,
                                         1 + data.count(b"\n", 0, start)))
    else:
        return None
    if list(spans) != [s for s in _SWEPT if s in spans]:
        return None

    roles = reader.roles("COLUMNS")
    names = list(roles)
    size = np.fromiter(map(len, names), np.int64, len(names))
    row_name = np.stack([np.cumsum(size) - size, np.cumsum(size)], axis=1)
    col_role = np.fromiter(roles.values(), np.int64, len(names))
    rhs_role = _lookup(reader.roles("RHS"), names, _UNKNOWN)
    span = np.array([spans.get(s, (0, 0)) for s in _SWEPT], np.int64)
    # room for every pair, or line, a body could hold: a pair takes two
    # tokens and a bound or column three, each followed by a separator (but
    # the last); np.empty leaves the pages no item reaches untouched
    pairs, rhs_pairs, bound_lines = (span[:, 1] - span[:, 0] + 1) // [4, 4, 6] + 1
    ent_col, ent_row, obj_col = np.empty((3, pairs), np.int64)
    ent_val, obj_val = np.empty((2, pairs))
    rhs_row, rhs_val = np.empty(rhs_pairs, np.int64), np.empty(rhs_pairs)
    bnd_kind, bnd_col = np.empty((2, bound_lines), np.int64)
    bnd_val = np.empty(bound_lines)
    col_name = np.empty(((span[0, 1] - span[0, 0] + 1) // 6 + 1, 2), np.int64)
    counts = np.zeros(5, np.int64)
    code = lib.mps_sweep(
        data, span.ctypes.data, "".join(names).encode("ascii"), row_name.ctypes.data,
        col_role.ctypes.data, rhs_role.ctypes.data, len(names), ent_col.ctypes.data,
        ent_row.ctypes.data, ent_val.ctypes.data, obj_col.ctypes.data, obj_val.ctypes.data,
        rhs_row.ctypes.data, rhs_val.ctypes.data, bnd_kind.ctypes.data, bnd_col.ctypes.data,
        bnd_val.ctypes.data, col_name.ctypes.data, counts.ctypes.data)
    if code:
        return None
    entries, objective, rhs, bounds, columns = counts.tolist()
    # a name is followed by a separator on its line: gather each name with
    # the byte after it, and split the lot
    start, size = col_name[:columns, 0], np.diff(col_name[:columns]).ravel() + 1
    at = np.repeat(start - (np.cumsum(size) - size), size) + np.arange(size.sum())
    reader.add_columns(np.frombuffer(data, np.uint8)[at].tobytes().decode("ascii").split())
    if reader.add_entries(ent_col[:entries], ent_row[:entries], ent_val[:entries],
                          obj_col[:objective], obj_val[:objective]) >= 0:
        return None
    reader.set_rhs(True, rhs_row[:rhs], rhs_val[:rhs])
    reader.set_bounds(bnd_kind[:bounds], bnd_col[:bounds], bnd_val[:bounds])
    return reader


def _chunks(text: str, start: int, stop: int, line_no: int):
    """Yield the data lines of ``text[start:stop]``, a chunk of lines at a time.

    A chunk is ``(tok, first, size, line, lead)``: an object array of its
    tokens and, for each line that holds data, the index of its first
    token, its token count and its 1-based line number; ``lead`` is the
    code of each token's first character.  Blank lines and lines whose
    first token starts with '*' (comments) are dropped.
    """
    while start < stop:
        end = min(start + _CHUNK, stop)
        if end < stop:
            nl = text.rfind("\n", start, end)
            if nl < 0:  # a line longer than a chunk
                nl = text.find("\n", end, stop)
            end = stop if nl < 0 else nl + 1
        chunk = text[start:end]
        if chunk.isascii():
            codes = np.frombuffer(chunk.encode("ascii"), np.uint8)
        else:
            codes = np.frombuffer(chunk.encode("utf-32-le", "surrogatepass"), np.uint32)
        # a token starts where a space (or the chunk's start) meets a non-space
        space = np.concatenate(([True], _is_space(codes)))
        starts = np.flatnonzero(space[:-1] > space[1:])
        tokens = np.fromiter(chunk.split(), object, len(starts))
        # line i holds the tokens from bound[i] up to bound[i + 1]
        eol = np.flatnonzero(codes == _NEWLINE)
        if codes[-1] != _NEWLINE:
            eol = np.append(eol, len(codes))
        bound = np.concatenate(([0], np.searchsorted(starts, eol)))
        size = np.diff(bound)
        lead = codes[starts]
        data = size > 0
        data[data] = lead[bound[:-1][data]] != _STAR
        first, size, line = bound[:-1][data], size[data], line_no + np.flatnonzero(data)
        if size.sum() < len(tokens):  # drop the tokens of comment lines
            keep = np.repeat(first, size) + _pairs(size)[1]  # data lines' tokens
            tokens, lead = tokens[keep], lead[keep]
            first = np.cumsum(size) - size
        yield tokens, first, size, line, lead
        line_no += chunk.count("\n")
        start = end


def _is_space(codes: np.ndarray) -> np.ndarray:
    """str.isspace of each character code."""
    if codes.dtype == np.uint8:
        # ASCII spaces are 9-13 and 28-32; uint8 subtraction wraps below 0
        return ((codes - 9) <= 4) | ((codes - 28) <= 4)
    return _SPACE[np.minimum(codes, _SPACE.size - 1)]


def _pairs(npair: np.ndarray):
    """For pairs laid out npair[i] to line i: each pair's line and index in it."""
    pline = np.repeat(np.arange(len(npair)), npair)
    return pline, np.arange(len(pline)) - np.repeat(np.cumsum(npair) - npair, npair)


def _floats(tokens: list):
    """float() of every token, and the index of the first that is no number.

    The index is -1 when all are numbers; otherwise the values past it are nan.
    """
    try:
        return np.fromiter(map(float, tokens), np.float64, len(tokens)), -1
    except ValueError:
        values = np.full(len(tokens), np.nan)
        for i, token in enumerate(tokens):
            try:
                values[i] = float(token)
            except ValueError:
                return values, i
        raise


def _lookup(table: dict, names: list, missing: int) -> np.ndarray:
    """The id of each name in table, or missing."""
    return np.fromiter(map(table.get, names, repeat(missing)), np.int64, len(names))


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry, or -1."""
    return int(mask.argmax()) if mask.any() else -1


def _raise_first(errors: list) -> None:
    """Raise the error of the smallest (line, pair, rank) key, if any.

    pair is the index of a row/value pair in its line (-1 for an error of
    the whole line); rank orders the checks made on one pair.
    """
    if errors:
        line, _, _, message = min(errors)
        raise MpsParseError(message, line)


def _read_pairs(tok, first, npair, line, roles: dict, unknown: str, errors: list):
    """Read npair[i] row/value pairs from token first[i] on, on line line[i].

    Returns each pair's line index, its index in the line, its row's role
    and its value; appends the first bad number and the first unknown row
    to errors.
    """
    pline, pair = _pairs(npair)
    at = first[pline] + 2 * pair
    rows = tok[at].tolist()
    values, bad = _floats(tok[at + 1].tolist())
    if bad >= 0:
        errors.append((int(line[pline[bad]]), int(pair[bad]), 0,
                       f"expected a number, got {tok[at[bad] + 1]!r}"))
    role = _lookup(roles, rows, _UNKNOWN)
    bad = _first(role == _UNKNOWN)
    if bad >= 0:
        errors.append((int(line[pline[bad]]), int(pair[bad]), 1, f"{unknown} {rows[bad]!r}"))
    return pline, pair, role, values


class _Reader:
    """The tables a sweep fills, section by section, in file order.

    ``rows`` and the methods named after the other sections are the numpy
    front end; ``add_columns``, ``add_entries``, ``set_rhs`` and
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
        self.col_id: dict[str, int] = {}     # columns, in order of first entry
        # constraint entries in file order, and the order that sorts them
        # by (column, row); objective entries as (column, value) chunks
        self.col = self.row = self.order = np.empty(0, np.int64)
        self.value = np.empty(0)
        self.obj_entries = [(np.empty(0, np.int64), np.empty(0))]
        self.lo: dict[int, float] = {}       # bounds set in BOUNDS, by column id
        self.up: dict[int, float] = {}

    def header(self, section: str | None, tok: list) -> None:
        self.pending_objsense = False
        if section == "NAME":
            self.name = tok[1] if len(tok) > 1 else ""
        elif section == "OBJSENSE":
            if len(tok) > 1:
                self.objsense = tok[1].upper()
            else:
                self.pending_objsense = True

    def read(self, section, chunks) -> None:
        if section == "ROWS":
            self.rows(chunks)
        elif section == "COLUMNS":
            self.columns(chunks)
        elif section in ("RHS", "RANGES"):
            self.rhs_or_ranges(section, chunks)
        elif section == "BOUNDS":
            self.bounds(chunks)
        else:
            self.no_data(section, chunks)

    def finish(self) -> LpInstance:
        if self.obj_row is None:
            raise MpsParseError("no objective (N) row found")
        if not self.row_id:
            raise MpsParseError("no constraint rows found")
        if not self.col_id:
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

    # -- the numpy front end -------------------------------------------------

    def no_data(self, section, chunks) -> None:
        """NAME, OBJSENSE and the text before the first header hold no data
        lines, except the one line that names a pending objective sense."""
        for tok, first, _, line, _ in chunks:
            bad = 0
            if len(first) and self.pending_objsense:
                self.objsense = tok[first[0]].upper()
                self.pending_objsense = False
                bad = 1
            if len(first) > bad:
                raise MpsParseError(
                    "data before any section header" if section is None
                    else f"unexpected data in section {section}", int(line[bad]))

    def rows(self, chunks) -> None:
        for tok, first, size, line, _ in chunks:
            errors = []
            bad = _first(size != 2)
            if bad >= 0:
                errors.append((int(line[bad]), -1, 0, "ROWS entries need a type and a name"))
            kinds = list(map(str.upper, tok[first].tolist()))
            kind = _lookup(_ROW_TYPES, kinds, -1)
            bad = _first((size == 2) & (kind < 0))
            if bad >= 0:
                errors.append((int(line[bad]), -1, 1, f"unknown row type {kinds[bad]!r}"))
            ok = (size == 2) & (kind >= 0)
            names = tok[first[ok] + 1].tolist()
            kind, line = kind[ok], line[ok]
            is_con = kind > 0
            con = list(compress(names, is_con.tolist()))
            seen: dict[str, int] = {}
            again = np.fromiter(map(seen.setdefault, con, count()), np.int64, len(con))
            again = (again != np.arange(len(con))) | np.fromiter(
                map(self.row_id.__contains__, con), bool, len(con))
            bad = _first(again)
            if bad >= 0:
                errors.append((int(line[is_con][bad]), -1, 2, f"duplicate row {con[bad]!r}"))
            _raise_first(errors)

            free = list(compress(names, (~is_con).tolist()))
            if free and self.obj_row is None:
                self.obj_row = free.pop(0)
            self.free_rows.update(free)
            self.row_id.update(zip(con, count(len(self.row_id))))
            self.row_kind += kind[is_con].tolist()

    def columns(self, chunks) -> None:
        roles = self.roles("COLUMNS")
        errors, where = [], []
        entries = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        objective = [(np.empty(0, np.int64), np.empty(0))]
        for tok, first, size, line, lead in chunks:
            # integrality markers: the columns are treated as continuous
            marker = (size >= 3) & (lead[np.minimum(first + 1, len(lead) - 1)] == _QUOTE)
            if marker.any():
                at = np.flatnonzero(marker)
                marker[at] = [t.upper() == "'MARKER'" for t in tok[first[at] + 1].tolist()]
            bad = ~marker & ((size < 3) | (size % 2 == 0))
            if bad.any():
                errors.append((int(line[_first(bad)]), -1, 0,
                               "COLUMNS entries need name + row/value pairs"))
            ok = ~(marker | bad)
            first, line = first[ok], line[ok]
            # a column's lines usually follow each other: look up each run once
            names = tok[first]
            head = np.ones(len(names), bool)
            head[1:] = names[1:] != names[:-1]
            run = np.flatnonzero(head)
            names = names[run].tolist()
            self.add_columns(list(filterfalse(self.col_id.__contains__, dict.fromkeys(names))))
            cols = np.fromiter(map(self.col_id.__getitem__, names), np.int64, len(names))
            cols = np.repeat(cols, np.diff(run, append=len(first)))

            pline, pair, role, values = _read_pairs(
                tok, first + 1, (size[ok] - 1) // 2, line, roles, "unknown row", errors)
            cols = cols[pline]
            is_obj, is_con = role == _OBJ, role >= 0
            objective.append((cols[is_obj], values[is_obj]))
            entries.append((cols[is_con], role[is_con], values[is_con]))
            where.append((line[pline[is_con]], pair[is_con]))
            if errors:
                break  # later chunks hold only later lines
        col, row, value = map(np.concatenate, zip(*entries))
        p = self.add_entries(col, row, value, *map(np.concatenate, zip(*objective)))
        if p >= 0:
            # the later entry of a repeated pair lies in this section
            line, pair = (np.concatenate(a) for a in zip(*where))
            cname, rname = list(self.col_id)[col[p]], list(self.row_id)[row[p]]
            errors.append((int(line[p]), int(pair[p]), 1,
                           f"duplicate entry for column {cname!r}, row {rname!r}"))
        _raise_first(errors)

    def rhs_or_ranges(self, section: str, chunks) -> None:
        is_rhs = section == "RHS"
        roles = self.roles(section)
        for tok, first, size, line, _ in chunks:
            errors = []
            bad = _first(size == 1)
            if bad >= 0:
                errors.append((int(line[bad]), -1, 0, f"{section} entries need row/value pairs"))
            # an odd count leads with the set name, which is ignored
            ok = size > 1
            _, _, role, values = _read_pairs(
                tok, first[ok] + size[ok] % 2, size[ok] // 2, line[ok], roles,
                "unknown row" if is_rhs else "RANGES on unknown row", errors)
            _raise_first(errors)
            self.set_rhs(is_rhs, role, values)

    def bounds(self, chunks) -> None:
        for tok, first, size, line, _ in chunks:
            errors = []
            kinds = list(map(str.upper, tok[first].tolist()))
            kind = _lookup(_BOUND_TYPES, kinds, -1)
            bad = kind < 0
            i = _first(bad)
            if i >= 0:
                errors.append((int(line[i]), -1, 0, f"unknown bound type {kinds[i]!r}"))
            needs_value = kind <= _FX
            short = ~bad & (size < np.where(needs_value, 4, 3))
            i = _first(short)
            if i >= 0:
                errors.append((int(line[i]), -1, 0, "short BOUNDS entry"))
            ok = np.flatnonzero(~(bad | short))
            names = tok[first[ok] + 2].tolist()
            col = np.full(len(first), -1)
            col[ok] = _lookup(self.col_id, names, -1)
            i = _first(col[ok] < 0)
            if i >= 0:
                errors.append((int(line[ok[i]]), -1, 0, f"bound on unknown column {names[i]!r}"))
            ok = col >= 0
            at = np.flatnonzero(ok & needs_value)
            value = np.full(len(first), np.nan)
            value[at], i = _floats(tok[first[at] + 3].tolist())
            if i >= 0:
                errors.append((int(line[at[i]]), -1, 0,
                               f"expected a number, got {tok[first[at[i]] + 3]!r}"))
            sets_lo, lo, _, _ = _bound_ends(kind, value)
            negative_up = ok & (kind == _UP) & (value < 0)
            if negative_up.any():
                negative_up &= self._lo_before(col, ok & sets_lo, lo) == 0.0
            i = _first(negative_up)
            if i >= 0:
                errors.append((int(line[i]), -1, 0,
                               "UP with a negative value implies a free lower bound, "
                               "which the 0 <= x <= u model cannot represent"))
            i = _first(ok & ((kind == _FR) | (kind == _MI)))
            if i >= 0:
                errors.append((int(line[i]), -1, 0,
                               f"{kinds[i]} bounds (free below) are unsupported by the "
                               "0 <= x <= u model"))
            _raise_first(errors)
            self.set_bounds(kind[ok], col[ok], value[ok])

    def _lo_before(self, col, sets_lo, lo) -> np.ndarray:
        """The lower bound each line's column holds just before that line."""
        order = np.argsort(col, kind="stable")
        c = col[order]
        idx = np.arange(len(c))
        last = np.maximum.accumulate(np.where(sets_lo[order], idx, -1))
        prev = np.concatenate(([-1], last[:-1]))
        group = np.maximum.accumulate(np.where(np.diff(c, prepend=-2) != 0, idx, 0))
        held = np.fromiter(map(self.lo.get, c.tolist(), repeat(0.0)), np.float64, len(c))
        out = np.empty(len(c))
        out[order] = np.where(prev >= group, lo[order][prev], held)
        return out

    # -- the back end ----------------------------------------------------------

    def add_columns(self, names: list) -> None:
        """Give the next column ids to names, none of them known."""
        self.col_id.update(zip(names, count(len(self.col_id))))

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
        sets_lo, lo, sets_up, up = _bound_ends(kind, value)
        self.lo.update(zip(col[sets_lo].tolist(), lo[sets_lo].tolist()))
        self.up.update(zip(col[sets_up].tolist(), up[sets_up].tolist()))


def _bound_ends(kind, value):
    """Which bounds set their column's lower end and to what, and which
    set its upper end and to what."""
    lo = np.where(kind == _BV, 0.0, value)
    up = np.select([kind == _BV, kind == _PL], [1.0, np.inf], value)
    return (kind == _LO) | (kind == _FX) | (kind == _BV), lo, kind != _LO, up


def _assemble(r: _Reader) -> LpInstance:
    flip = r.objsense != "MAX"
    n, nrows = len(r.col_id), len(r.row_id)
    col_names = list(r.col_id)
    col, row, value = r.col, r.row, r.value
    ocol, oval = map(np.concatenate, zip(*r.obj_entries))

    # inf and nan propagate silently, as in Python float arithmetic
    with np.errstate(all="ignore"):
        obj = np.zeros(n)
        np.add.at(obj, ocol, oval)   # in file order, like += per entry
        c = -obj if flip else obj

        lo, up = np.zeros(n), np.full(n, np.inf)
        lo[list(r.lo)] = list(r.lo.values())
        up[list(r.up)] = list(r.up.values())
        j = _first(up < lo)
        if j >= 0:
            raise MpsParseError(f"column {col_names[j]!r} has empty bound interval "
                                f"[{float(lo[j])}, {float(up[j])}]")

        # bound normalization: fold fixed columns into the rhs, shift nonzero lowers
        fixed = up == lo
        shifted = ~fixed & (lo != 0.0)
        moved = fixed | shifted
        offset = -r.obj_rhs if not flip else r.obj_rhs  # constant term, max convention
        offset = float(np.cumsum(np.concatenate(([offset], c[moved] * lo[moved])))[-1])
        b = np.zeros(nrows)
        b[list(r.rhs)] = list(r.rhs.values())
        col, row, value = col[r.order], row[r.order], value[r.order]
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
        # rows are adjacent and ascending, so repeating keeps the order
        at = kept[col]
        col, row, value = col[at], row[at], value[at]
        rep = width[row]
        out_row = np.repeat(start[row] - (np.cumsum(rep) - rep), rep) + np.arange(rep.sum())
        out_val = np.repeat(value, rep) * sign[out_row]
        nz = out_val != 0.0
        k = int(kept.sum())
        per_col = np.bincount((np.cumsum(kept) - 1)[np.repeat(col, rep)[nz]], minlength=k)
        col_ptr = np.concatenate(([0], np.cumsum(per_col)))

    meta = {
        "name": r.name,
        "objective_sense": "min" if flip else "max",
        "objective_offset": offset,
        "row_names": tuple(out_names.tolist()),
        "col_names": tuple(compress(col_names, kept.tolist())),
        "column_shifts": dict(zip(compress(col_names, shifted.tolist()), lo[shifted].tolist())),
        "fixed_columns": dict(zip(compress(col_names, fixed.tolist()), lo[fixed].tolist())),
    }
    return LpInstance(len(rhs), k, col_ptr, out_row[nz], out_val[nz], rhs, c[kept],
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

    def _write(fh):
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

    if hasattr(destination, "write"):
        _write(destination)
        return
    try:
        with open(destination, "w") as fh:
            _write(fh)
    except OSError as exc:
        raise OSError(f"cannot write MPS to {destination!r}: {exc}") from exc

