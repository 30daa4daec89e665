"""The one way the library opens a file for writing."""

from __future__ import annotations

import os


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
