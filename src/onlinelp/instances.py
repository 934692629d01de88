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
from dataclasses import asdict, dataclass

import numpy as np

from .model import LpInstance

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
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be positive")
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


CSV_HEADER = ["instance", "method", "K", "gamma", "seed", "objective",
              "violation", "rel_opt", "acc", "rdc", "rounds", "wall_time_s"]


@dataclass(frozen=True)
class ResultRecord:
    """One benchmark measurement: a single (instance, config, seed) cell."""

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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row(record: ResultRecord) -> list[str]:
    return [record.instance, record.method, str(record.k), _fmt(record.gamma),
            str(record.seed), _fmt(record.objective), _fmt(record.violation),
            _fmt(record.rel_opt), _fmt(record.acc), _fmt(record.rdc),
            "" if record.rounds is None else str(record.rounds),
            _fmt(record.wall_time_s)]


def write_results_csv(records, destination) -> None:
    """Write RFC-4180 CSV with the fixed header; floats keep 17 digits."""
    def _write(fh):
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(_row(rec))

    if hasattr(destination, "write"):
        _write(destination)
        return
    try:
        with open(destination, "w", newline="") as fh:
            _write(fh)
    except OSError as exc:
        raise OSError(f"cannot write results to {destination!r}: {exc}") from exc


def _parse_opt_float(s: str) -> float | None:
    return None if s == "" else float(s)


def read_results_csv(source) -> list[ResultRecord]:
    """Parse a results CSV written by write_results_csv."""
    def _read(fh):
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected results header: {header}")
        out = []
        for row in reader:
            out.append(ResultRecord(
                instance=row[0], method=row[1], k=int(row[2]),
                gamma=float(row[3]), seed=int(row[4]), objective=float(row[5]),
                violation=float(row[6]), rel_opt=_parse_opt_float(row[7]),
                acc=_parse_opt_float(row[8]), rdc=_parse_opt_float(row[9]),
                rounds=None if row[10] == "" else int(row[10]),
                wall_time_s=float(row[11]),
            ))
        return out

    if hasattr(source, "read"):
        return _read(source)
    try:
        with open(source, "r", newline="") as fh:
            return _read(fh)
    except OSError as exc:
        raise OSError(f"cannot read results from {source!r}: {exc}") from exc
