"""The one way the library opens a file for writing, the one way a loader
names its file (``reading``), the one way a float table is written as text
(``float_rows``: each value's shortest round-trip ``repr``), and the one way
a constructor stores an array or a basis fingerprint: empty when unknown,
else a SHA-256 hex digest, so no file carries a malformed one
(``_fingerprint``)."""

from __future__ import annotations

import contextlib
import os
import re

import numpy as np


def open_new(path, binary: bool = False):
    """Open ``path`` as a new, empty file for writing, removing any file there.

    Every output is a new inode rather than a truncated old one: on ext4 with
    the default ``auto_da_alloc`` mount option, truncating (or renaming over) a
    non-empty file forces a flush of its data when it is closed, which costs
    tens of milliseconds per rewritten output. Unlink plus create does not.

    A symlink or hard link at ``path`` is replaced, not written through, and a
    reader holding the old file keeps reading the old bytes. Nothing is
    fsynced. If another process creates ``path`` between the unlink and the
    create, this raises FileExistsError instead of writing into its file.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "xb" if binary else "x")


def float_rows(values, sep: str, index: bool = False) -> str:
    """Each row of the 2-D float array ``values`` as one line: its values'
    ``repr`` joined by ``sep``, led by the row index and ``sep`` when
    ``index``. The text equals that f-string's for every input, non-finite
    values included.

    The text is orjson's, whose Ryu writer gives the shortest round-trip
    form about 5x faster than ``repr``. For zero and for 1e-4 <= |x| < 1e16
    it is ``repr``'s text; for other values it is not (``1e16`` for
    ``1e+16``, ``null`` for ``nan``), so a row holding one is written by
    ``repr`` instead.
    """
    # imported where it runs, as scipy is: importing orjson takes 6-13 ms,
    # which ``import spectral_deform`` and the stages that write no table skip
    import orjson

    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"a float table must be 2-D, got shape {v.shape}")
    if not len(v):
        return ""
    rows = orjson.dumps(v, option=orjson.OPT_SERIALIZE_NUMPY).decode()[2:-2].split("],[")
    a = np.abs(v)
    other = ~((a >= 1e-4) & (a < 1e16) | (v == 0))
    for r in np.flatnonzero(other.any(axis=1)).tolist():
        rows[r] = ",".join(map(repr, v[r].tolist()))
    if index:
        rows = [f"{i},{row}" for i, row in enumerate(rows)]
    text = "\n".join(rows) + "\n"
    return text if sep == "," else text.replace(",", sep)


@contextlib.contextmanager
def reading(path, kind: str, error=ValueError):
    """Run a loader's open, parse and construct of ``path`` inside: a
    KeyError, TypeError or ValueError (JSON and UTF-8 decode errors included)
    is raised again as ``error``, with the message ``<kind> <path>: <type>:
    <problem>``. An OSError passes through as it is."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        raise error(f"{kind} {path}: {type(e).__name__}: {e}") from e


def _frozen(a, dtype=np.float64) -> np.ndarray:
    """``a`` as a read-only C-contiguous array of ``dtype``. A read-only input
    is taken as it is; a writable one is copied unless converting it made a new
    array, so the caller's array stays writable and writing to it changes no
    object. A builder freezes the fresh arrays it hands over, so none is copied."""
    v = np.ascontiguousarray(a, dtype=dtype)
    if v.flags.writeable and np.may_share_memory(v, a):
        v = v.copy()
    v.setflags(write=False)
    return v


def _fingerprint(fp) -> str:
    """``fp`` if it is a ``str`` that is empty or a SHA-256 hex digest (64
    lowercase hex digits); else ValueError."""
    if not isinstance(fp, str) or (fp and not re.fullmatch("[0-9a-f]{64}", fp)):
        raise ValueError(f"fingerprint {fp!r} is neither empty nor a SHA-256 hex digest")
    return fp
