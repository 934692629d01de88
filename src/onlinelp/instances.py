"""Multi-knapsack benchmark generation, instance transforms, result records.

The generator follows the classic multi-knapsack recipe: integer weights
a_ij drawn uniformly from {1..1000}, entries zeroed independently with
probability 1 - density, capacities b_i = (tightness / n) * sum_j a_ij and
profits c_j = (1/m) * sum_i a_ij + delta_j with delta_j uniform in
{1..500}.  Everything is deterministic in (params, seed).

The random stream is fixed: for each chunk of ``_CHUNK`` columns, the m x
width weights, then the m x width uniforms that decide which entries stay
(both row-major); then delta; then the optional a3 perturbation.  The
generator holds the kept entries and, for one chunk at a time, the int32
weights and the keep mask: O(nnz) memory plus about 6 * m * _CHUNK bytes.
Its row and column sums add integers and are exact in float64 whatever
their order.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import LpInstance, _check_count
from .mps import _opened

__all__ = [
    "MkpParams",
    "ResultRecord",
    "CSV_HEADER",
    "generate_mkp",
    "netlib_modify",
    "write_results_csv",
    "read_results_csv",
]

_CHUNK = 1 << 15        # column chunk for generation; fixed, part of the stream
_UNIFORM_BLOCK = 1 << 16  # uniforms per `random` call; any size gives the same stream
VALUE_RANGE = (1, 1000)  # a_ij drawn uniformly from these integers
DELTA_RANGE = (1, 500)   # delta_j drawn uniformly from these integers
_MAX_REDRAWS = 10
RHS_FLOOR = 1e-3        # netlib_modify: b_i := max(b_i, RHS_FLOOR)
UPPER_CAP = 100.0       # netlib_modify: u_i := min(u_i, UPPER_CAP)


@dataclass(frozen=True)
class MkpParams:
    """Multi-knapsack generator parameters.

    ``tightness`` scales capacities relative to average column mass;
    ``density`` is the expected fraction of surviving entries.
    """

    m: int
    n: int
    tightness: float
    density: float = 1.0
    seed: int = 0
    perturb_a3: bool = False
    b_pre_sparsify: bool = False

    def __post_init__(self):
        _check_count("m", self.m, 1)
        _check_count("n", self.n, 1)
        _check_count("seed", self.seed, 0)
        if not (0.0 < self.tightness <= 1.0):
            raise ValueError("tightness must lie in (0, 1]")
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must lie in (0, 1]")

    def label(self) -> str:
        return (f"mkp-m{self.m}-n{self.n}-tau{self.tightness:g}"
                f"-sigma{self.density:g}-seed{self.seed}")


def _draw_chunk(rng, m: int, width: int, density: float, pre_sparsify: bool):
    """Draw one chunk of columns.

    Returns its CSC rows and kept weights (float64), its column counts and
    column sums, and its row sums: of the drawn weights if ``pre_sparsify``,
    else of the kept ones.
    """
    lo, hi = VALUE_RANGE
    vals = rng.integers(lo, hi + 1, size=(m, width), dtype=np.int32)
    if density >= 1.0:
        rows = np.tile(np.arange(m, dtype=np.int64), width)
        kept = vals.T.astype(np.float64, order="C").reshape(-1)
        return (rows, kept, np.full(width, m), vals.sum(axis=0, dtype=np.int64),
                vals.sum(axis=1, dtype=np.int64))
    keep = np.empty((m, width), dtype=bool)
    flat = keep.reshape(-1)
    for s in range(0, flat.size, _UNIFORM_BLOCK):
        block = flat[s:s + _UNIFORM_BLOCK]
        np.less(rng.random(block.size), density, out=block)
    pos = np.flatnonzero(np.ascontiguousarray(keep.T))  # column-major: CSC order
    del keep, flat
    cols = pos // m
    rows = pos - cols * m
    kept = np.take(vals.reshape(-1), rows * width + cols).astype(np.float64)
    row_sums = (vals.sum(axis=1, dtype=np.int64) if pre_sparsify
                else np.bincount(rows, weights=kept, minlength=m))
    return (rows, kept, np.bincount(cols, minlength=width),
            np.bincount(cols, weights=kept, minlength=width), row_sums)


def _draw_mkp(params: MkpParams, attempt: int) -> LpInstance | None:
    # Every row and column sum adds integers of at most 1000 and stays below
    # 2**53, so float64 holds it exactly in any order: rhs and obj are the
    # same bit for bit however the sums are formed (here from the kept
    # entries; in the tests' dense reference from whole chunks).
    rng = np.random.default_rng([params.seed, attempt])
    m, n = params.m, params.n
    row_sums = np.zeros(m)
    col_sums = np.empty(n)
    counts = np.empty(n, dtype=np.int64)
    row_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    for start in range(0, n, _CHUNK):
        width = min(_CHUNK, n - start)
        rows, kept, cnt, csum, rsum = _draw_chunk(rng, m, width, params.density,
                                                  params.b_pre_sparsify)
        row_parts.append(rows)
        val_parts.append(kept)
        counts[start:start + width] = cnt
        col_sums[start:start + width] = csum
        row_sums += rsum

    b = (params.tightness / n) * row_sums
    if np.any(b <= 0.0):
        return None

    delta = rng.integers(DELTA_RANGE[0], DELTA_RANGE[1] + 1, size=n).astype(np.float64)
    c = col_sums / m + delta
    if params.perturb_a3:
        c = c * (1.0 + 1e-9 * rng.random(n))

    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    return LpInstance(
        m, n, col_ptr, np.concatenate(row_parts), np.concatenate(val_parts), b, c, np.ones(n),
        meta={"generator": asdict(params), "attempt": attempt, "label": params.label()},
    )


def generate_mkp(params: MkpParams) -> LpInstance:
    """Draw a multi-knapsack instance; redraws (up to 10) if some b_i = 0.

    A row whose entries are all zeroed out would yield b_i = 0 and break
    the positivity assumption on d = b/n; each redraw reseeds the generator
    with [seed, attempt] so results stay reproducible.
    """
    for attempt in range(_MAX_REDRAWS):
        inst = _draw_mkp(params, attempt)
        if inst is not None:
            return inst
    raise ValueError(
        f"could not generate an instance with b > 0 in {_MAX_REDRAWS} attempts "
        f"(m={params.m}, n={params.n}, density={params.density})"
    )


def netlib_modify(instance: LpInstance) -> LpInstance:
    """Clamp an instance into the regime the online passes assume.

    Applies, in order: b_i := max(b_i, 1e-3); u_i := min(u_i, 100).
    Constraint senses are already <= by construction of LpInstance.
    Idempotent and pure.
    """
    meta = dict(instance.meta) if instance.meta else {}
    meta["netlib_modified"] = True
    return LpInstance(
        instance.num_rows, instance.num_cols,
        instance.col_ptr, instance.row_idx, instance.values,
        np.maximum(instance.rhs, RHS_FLOOR),
        instance.obj,
        np.minimum(instance.upper, UPPER_CAP),
        meta=meta,
    )


@dataclass(frozen=True)
class ResultRecord:
    """One benchmark measurement: a single (instance, config, seed) cell.

    Its fields, in order, are the columns of the results CSV.
    """

    instance: str
    method: str
    k: int
    gamma: float
    seed: int
    objective: float
    violation: float
    rel_opt: float | None = None
    acc: float | None = None
    rdc: float | None = None
    rounds: int | None = None
    wall_time_s: float = 0.0

    def __post_init__(self):
        for name in ("gamma", "objective", "violation", "wall_time_s"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("rel_opt", "acc", "rdc"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite when present, got {v}")


# the columns of the results CSV: ResultRecord's fields, in order
_FIELDS = fields(ResultRecord)
CSV_HEADER = ["K" if f.name == "k" else f.name for f in _FIELDS]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(destination, what: str, header: list, rows) -> None:
    """Write RFC-4180 CSV: the header, then the rows, None as an empty
    cell and floats with 17 digits."""
    with _opened(destination, "w", what, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_results_csv(records, destination) -> None:
    """Write RFC-4180 CSV with the fixed header; floats keep 17 digits."""
    _write_csv(destination, "results", CSV_HEADER,
               ([getattr(rec, f.name) for f in _FIELDS] for rec in records))


def _cell(text: str, field):
    """A results CSV cell as the value of its field, read by the text of
    the field's annotation: an empty cell is None where it may be None."""
    kind, _, optional = field.type.partition(" | ")
    if text == "" and optional:
        return None
    return {"str": str, "int": int, "float": float}[kind](text)


def read_results_csv(source) -> list[ResultRecord]:
    """Parse a results CSV written by write_results_csv."""
    with _opened(source, "r", "results", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected results header: {header}")
        return [ResultRecord(*(_cell(text, f) for text, f in zip(row, _FIELDS, strict=True)))
                for row in reader]
