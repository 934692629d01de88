"""MPS reading and writing for inequality-form instances.

The reader splits lines on whitespace (this also digests classic
fixed-format files, whose fields never contain spaces), converts every
constraint to <= form (G rows are negated, E rows split into opposing
pairs, RANGES become row intervals) and normalizes the objective to
maximization.

It reads the whole text and sweeps it one section at a time, so that no
Python code runs once per line or per token:

- one regex finds the section headers;
- each section body is cut into chunks of about 64 thousand characters
  that end at a newline; ``str.split`` gives a chunk's tokens, and numpy
  on the chunk's character codes gives each token's line and its place in
  the line;
- one dict per name table (rows, columns) maps names to ids, and values
  go through Python's ``float``, as a line-by-line reader would convert
  them;
- the CSC matrix is assembled with numpy: a stable sort by column and
  row, ``np.repeat`` for rows that become two, and ``np.subtract.at``
  for the bound shifts, applied in column order.

A malformed file raises ``MpsParseError`` for its earliest offending
line, with the message a line-by-line reader would give there.

The 0 <= x <= u variable model is enforced structurally: LO/FX bounds are
removed by shifting or folding the column (the accumulated objective
offset lands in ``instance.meta``); FR/MI bounds cannot be represented and
raise a parse error.
"""

from __future__ import annotations

import re
from itertools import compress, count, filterfalse, repeat

import numpy as np

from .model import LpInstance

__all__ = ["parse_mps", "write_mps", "MpsParseError"]

_SECTIONS = "NAME|OBJSENSE|ROWS|COLUMNS|RHS|RANGES|BOUNDS|ENDATA"
# A header is a line that starts, unindented, with a section name.  The
# lookahead on the first letter lets the scan pass over most lines fast.
_HEADER = re.compile(rf"(?:{_SECTIONS})(?!\S)", re.I)
_HEADER_AFTER_NEWLINE = re.compile(rf"\n(?=[NORCBE])(?:{_SECTIONS})(?!\S)", re.I)

_ROW_TYPES = {"N": 0, "L": 1, "G": 2, "E": 3}
_UP, _LO, _FX, _FR, _MI, _PL, _BV = range(7)
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
    row / column name tables for diagnostics.
    """
    if hasattr(source, "read"):
        return _parse(source.read())
    try:
        with open(source, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read MPS from {source!r}: {exc}") from exc
    return _parse(text)


def _parse(text: str) -> LpInstance:
    heads = [0] if _HEADER.match(text) else []
    heads += [m.start() + 1 for m in _HEADER_AFTER_NEWLINE.finditer(text)]
    reader = _Reader()
    section, body, line_no = None, 0, 1
    for head in heads:
        reader.read(section, _chunks(text, body, head, line_no))
        line_no += text.count("\n", body, head)
        eol = text.find("\n", head)
        eol = len(text) if eol < 0 else eol
        tok = text[head:eol].split()
        section = tok[0].upper()
        if section == "ENDATA":
            break
        reader.header(section, tok)
        body, line_no = eol + 1, line_no + 1
    else:
        reader.read(section, _chunks(text, body, len(text), line_no))
        raise MpsParseError("missing ENDATA")

    if reader.obj_row is None:
        raise MpsParseError("no objective (N) row found")
    if not reader.row_id:
        raise MpsParseError("no constraint rows found")
    if not reader.col_id:
        raise MpsParseError("no columns found")
    return _assemble(reader)


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
    """The tables a sweep fills, section by section, in file order."""

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

    def header(self, section: str, tok: list) -> None:
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
        # a row's role, in the order a line-by-line reader tests them
        roles = dict(self.row_id)
        roles.update(dict.fromkeys(self.free_rows, _FREE))
        if self.obj_row is not None:
            roles[self.obj_row] = _OBJ
        errors, entries, where = [], [], []
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
            fresh = list(filterfalse(self.col_id.__contains__, dict.fromkeys(names)))
            self.col_id.update(zip(fresh, count(len(self.col_id))))
            cols = np.fromiter(map(self.col_id.__getitem__, names), np.int64, len(names))
            cols = np.repeat(cols, np.diff(run, append=len(first)))

            pline, pair, role, values = _read_pairs(
                tok, first + 1, (size[ok] - 1) // 2, line, roles, "unknown row", errors)
            cols = cols[pline]
            is_obj, is_con = role == _OBJ, role >= 0
            self.obj_entries.append((cols[is_obj], values[is_obj]))
            entries.append((cols[is_con], role[is_con], values[is_con]))
            where.append((line[pline[is_con]], pair[is_con]))
            if errors:
                break  # later chunks hold only later lines
        self._add_entries(entries, where, errors)
        _raise_first(errors)

    def _add_entries(self, entries: list, where: list, errors: list) -> None:
        """Append a COLUMNS section's constraint entries, sort all entries by
        (column, row) and report the first entry that repeats a pair.

        Earlier sections hold no repeat among themselves, so the later entry
        of a repeated pair lies in this section; ``where`` gives the line
        and pair index of each of its entries.
        """
        start = len(self.value)
        cols, rows, values = zip(*entries) if entries else ((), (), ())
        self.col = np.concatenate([self.col, *cols])
        self.row = np.concatenate([self.row, *rows])
        self.value = np.concatenate([self.value, *values])
        key = self.col * max(len(self.row_id), 1) + self.row
        self.order = np.argsort(key, kind="stable")
        again = self.order[1:][np.diff(key[self.order]) == 0]
        if again.size:
            p = int(again.min())
            line, pair = (np.concatenate(a) for a in zip(*where))
            cname, rname = list(self.col_id)[self.col[p]], list(self.row_id)[self.row[p]]
            errors.append((int(line[p - start]), int(pair[p - start]), 1,
                           f"duplicate entry for column {cname!r}, row {rname!r}"))

    def rhs_or_ranges(self, section: str, chunks) -> None:
        is_rhs = section == "RHS"
        # a row's role, in the order a line-by-line reader tests them
        roles = dict.fromkeys(self.free_rows, _FREE) if is_rhs else {}
        roles.update(self.row_id)
        if is_rhs and self.obj_row is not None:
            roles[self.obj_row] = _OBJ
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

            is_con = role >= 0
            (self.rhs if is_rhs else self.ranges).update(
                zip(role[is_con].tolist(), values[is_con].tolist()))
            is_obj = role == _OBJ
            if is_obj.any():
                self.obj_rhs = float(values[is_obj][-1])

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
            sets_lo = ok & ((kind == _LO) | (kind == _FX) | (kind == _BV))
            lo = np.where(kind == _BV, 0.0, value)
            negative_up = ok & (kind == _UP) & (value < 0)
            if negative_up.any():
                negative_up &= self._lo_before(col, sets_lo, lo) == 0.0
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

            self.lo.update(zip(col[sets_lo].tolist(), lo[sets_lo].tolist()))
            sets_up = ok & (kind != _LO)
            up = np.select([kind == _BV, kind == _PL], [1.0, np.inf], value)
            self.up.update(zip(col[sets_up].tolist(), up[sets_up].tolist()))

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


def write_mps(instance: LpInstance, destination, name: str = "ONLINELP") -> None:
    """Write the instance as free-format MPS (OBJSENSE MAX, all-L rows).

    parse_mps(write_mps(inst)) reproduces the instance structurally, which
    is what the round-trip tests rely on.
    """
    def _write(fh):
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

    if hasattr(destination, "write"):
        _write(destination)
        return
    try:
        with open(destination, "w") as fh:
            _write(fh)
    except OSError as exc:
        raise OSError(f"cannot write MPS to {destination!r}: {exc}") from exc
