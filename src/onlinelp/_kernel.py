"""Build-on-first-use loader of the compiled kernel, ``_kernel.c``.

The kernel holds three functions: the explicit online pass
(``explicit_pass``), the simplex pivot loop (``simplex_pivots``) and the
sweep of an MPS file from its COLUMNS header to its ENDATA (``mps_sweep``).
They are built, cached and loaded as one library and resolved as a unit:
``load()`` returns the library with all three, or None with one reason.

Each function keeps one protocol and one contract with its reference.
The protocol: arrays in, an int out, and never a raise; the
caller turns the int into an outcome.

- ``explicit_pass`` and ``simplex_pivots`` take the same arguments as
  their references, ``online._python_loop`` and
  ``simplex._python_pivots``, update the same arrays in place and return
  the same value: the number of steps run or the step whose dual norm
  escaped its bound, and the reason for stopping.  So their callers pick
  either.  The explicit loop measures the dual norm only when its caller
  hands it a slot for the largest one.
- ``mps_sweep`` reads the bytes of a file into arrays for the back end
  that ``mps``'s line reader, its reference, also feeds.  It returns 0, or
  a nonzero hand-back code at the first line it will not read; the caller
  then parses the whole file with the line reader, which raises any error.
  It is reentrant: it keeps no state between calls, and the caller may run
  one call per part of a file's COLUMNS section at once, each from its own
  thread (ctypes lets go of the GIL for the call), and then one call that
  merges the parts' column names and reads the sections after COLUMNS.

The contract: the outputs agree bit for bit with the reference's.  The
loops compute every value by the same IEEE operations in the same order.
The references fix the order of every sum by adding its terms one by one
in stored order (``np.cumsum``), and the C loops repeat that order; the
library is built with ``-ffp-contract=off`` so no multiply and add are
fused.  A C sum that starts from 0.0 rather than from its first term
differs only in the sign of a zero sum, which no comparison and no square
sees.  The explicit loop prefetches ahead in ``seq``; it reads no value
the reference does not read, and changes no order.  The sweep reads
values only of a strict decimal grammar, on which Python's ``float``
rounds correctly.  A value with no exponent, at most 15 significant
digits and at most 22 after the point takes Clinger's fast path: its
digits as an exact integer over an exact power of ten, one correctly
rounded division.  ``strtod``, which also rounds correctly, reads the
rest.  Both give ``float``'s double.

The first ``load()`` compiles the C source with the system compiler into
``~/.cache/onlinelp``, under a name keyed by a hash of the source, the
flags and the compiler, and loads it with ctypes.  The library is written
to a temporary file and renamed into place, so concurrent first uses never
see a partial file.  Where that directory cannot be written, the library
is built for this process alone.  When there is no compiler, the build
fails or a function is missing, ``load()`` returns None, ``reason()`` says
why, and every caller runs its reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
BUILD_TIMEOUT_S = 120

# simplex_pivots's return reason
OPTIMAL, UNBOUNDED, LIMIT, REFACTOR = 0, 1, 2, 3

_ptr, _i64, _f64, _int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_int
_SIGNATURES = {
    "explicit_pass": (_i64, (
        _i64, _ptr, _ptr, _ptr, _ptr, _ptr,    # m, col_ptr, row_idx, vals, c, step_d
        _f64, _ptr, _i64,                      # gamma, seq, T
        _ptr, _ptr, _ptr, _ptr,                # y_base, last, remaining, x_sum
        _f64, _ptr,                            # norm_bound, max_norm (NULL: unchecked)
    )),
    # the ext arrays: [A I -E], the simplex workspace's one column store
    "simplex_pivots": (_int, (
        _i64, _i64, _ptr, _ptr, _ptr,              # m, n_total, ext_ptr, ext_rows, ext_vals
        _ptr, _ptr, _ptr, _ptr, _ptr,              # cost, allow, upper, status, basis
        _ptr, _ptr, _ptr, _i64, _ptr,              # binv, x_b, work, limit, state
        _f64, _f64,                                # opt_tol, pivot_tol
        _i64, _i64,                                # refactor_period, stall_window
    )),
    "mps_sweep": (_int, (
        _ptr, _i64, _i64, _i64, _i64,              # text, start, limit, size, inside
        _ptr, _ptr, _ptr, _ptr, _i64,              # row_text, row_name, col_role, rhs_role, nrows
        _ptr, _ptr, _ptr, _ptr, _ptr,              # ent_col, ent_row, ent_val, obj_col, obj_val
        _ptr, _ptr, _ptr, _ptr, _ptr,              # rhs_row, rhs_val, bnd_kind, bnd_col, bnd_val
        _ptr, _ptr, _i64, _ptr, _ptr,              # col_text, col_name, preloaded, col_map, counts
    )),
}

_lock = threading.Lock()
_state: tuple | None = None   # (library or None, reason); None until tried


class _Unavailable(Exception):
    pass


def _compiler() -> str | None:
    return shutil.which("cc")


def _build(cc: str, target: Path) -> None:
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                              capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise _Unavailable(f"{cc} failed: {done.stderr.strip()[-500:]}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cache_dir() -> Path | None:
    try:
        cache = Path.home() / ".cache" / "onlinelp"
        cache.mkdir(parents=True, exist_ok=True)
        return cache
    except (OSError, RuntimeError):   # RuntimeError: no home directory
        return None


def _open(cc: str) -> ctypes.CDLL:
    key = hashlib.sha256(b"\0".join(
        [SOURCE.read_bytes(), cc.encode(), *(f.encode() for f in FLAGS)])).hexdigest()[:16]
    name = f"_kernel-{key}.so"
    cache = _cache_dir()
    if cache is not None and not (cache / name).exists() and os.access(cache, os.W_OK):
        _build(cc, cache / name)
    if cache is not None and (cache / name).exists():
        return ctypes.CDLL(str(cache / name))
    # no usable cache: build for this process alone; the mapping outlives the file
    with tempfile.TemporaryDirectory(prefix="onlinelp-") as tmp:
        _build(cc, Path(tmp) / name)
        return ctypes.CDLL(str(Path(tmp) / name))


def _try_load() -> tuple:
    cc = _compiler()
    if cc is None:
        return None, "no C compiler (cc) on PATH"
    try:
        lib = _open(cc)
    except (_Unavailable, OSError, subprocess.SubprocessError) as exc:
        return None, f"kernel build failed: {exc}"
    for name, (restype, argtypes) in _SIGNATURES.items():
        try:
            fn = getattr(lib, name)
        except AttributeError:
            return None, f"kernel has no function {name}"
        fn.restype, fn.argtypes = restype, argtypes
    return lib, ""


def load():
    """The kernel library, with ``explicit_pass``, ``simplex_pivots`` and
    ``mps_sweep`` set up, or None when it cannot be built or loaded."""
    global _state
    with _lock:
        if _state is None:
            _state = _try_load()
        return _state[0]


def reason() -> str:
    """Why ``load()`` returned None ("" when the kernel is loaded)."""
    load()
    return _state[1]
