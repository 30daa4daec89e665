"""The one way the library opens a file for writing, the one way a loader
names its file (``reading``), and the one way a constructor stores an array
or a basis fingerprint: empty when unknown, else a SHA-256 hex digest, so no
file carries a malformed one (``_fingerprint``)."""

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
