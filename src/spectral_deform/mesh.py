"""Triangle mesh data model and OFF file I/O.

Vertex order is the canonical identity of a mesh: parsing preserves file
order exactly and no deduplication or reordering is ever performed, because
spectral coefficients compare shapes through shared vertex indexing.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass

import numpy as np

from ._files import _frozen, float_rows, open_new, reading

__all__ = [
    "MeshError",
    "TriangleMesh",
    "parse_mesh",
    "write_mesh",
    "load_mesh",
    "save_mesh",
]

class MeshError(ValueError):
    """Invalid mesh data or unparseable mesh file."""


@dataclass(frozen=True)
class TriangleMesh:
    """Immutable triangle mesh: vertex coordinates plus connectivity.

    Parameters
    ----------
    vertices : (N, 3) float array
    triangles : (F, 3) int array, indices into ``vertices``

    Construction validates index ranges, degenerate index triples and
    connectivity; a disconnected mesh is rejected outright since the whole
    pipeline relies on the operator having a single constant null vector.
    ``with_vertices`` gives a mesh of the same triangles with new coordinates
    without validating them again.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v, t = _frozen(self.vertices), _frozen(self.triangles, np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (N, 3), got {v.shape}")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError(f"triangles must be (F, 3), got {t.shape}")
        if v.shape[0] < 3:
            raise MeshError(f"need at least 3 vertices, got {v.shape[0]}")
        if t.shape[0] < 1:
            raise MeshError("need at least 1 triangle")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise MeshError(
                f"triangle index out of range [0, {v.shape[0]}): "
                f"min {t.min()}, max {t.max()}"
            )
        degen = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
        if degen.any():
            raise MeshError(f"{degen.sum()} triangle(s) repeat a vertex index")
        n_comp = _component_count(v.shape[0], t)
        if n_comp != 1:
            raise MeshError(f"mesh is disconnected ({n_comp} components)")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "_faces", _Faces(t))

    def with_vertices(self, coords) -> TriangleMesh:
        """This mesh's triangles with new (N, 3) vertex coordinates.

        Only the shape is checked: index range, degeneracy and connectivity
        depend on N and the triangles alone, so they hold already. The new
        mesh shares the triangle array, and the OFF face section is formatted
        once for all meshes that share it.
        """
        v = _frozen(coords)
        if v.shape != self.vertices.shape:
            raise MeshError(f"expected {self.vertices.shape} vertices, got {v.shape}")
        mesh = object.__new__(TriangleMesh)
        object.__setattr__(mesh, "vertices", v)
        object.__setattr__(mesh, "triangles", self.triangles)
        object.__setattr__(mesh, "_faces", self._faces)
        return mesh

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (E, 2) array with i < j."""
        t = self.triangles
        e = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        return np.unique(e, axis=0)


class _Faces:
    """A validated triangle array and its OFF face section, which is
    formatted on first use and then shared by every mesh of these triangles."""

    def __init__(self, triangles: np.ndarray):
        self.triangles = triangles

    @functools.cached_property
    def off(self) -> str:
        tris = self.triangles
        return ("3 %d %d %d\n" * len(tris)) % tuple(tris.ravel().tolist())


def _component_count(n: int, triangles: np.ndarray) -> int:
    # scipy is imported where it runs: a stage that never validates a mesh
    # (descriptor, filter, cluster) never pays for importing it
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    i = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
    j = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
    adj = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    n_comp, _ = connected_components(adj, directed=False)
    return n_comp


# a comment: "#" up to the next line end that str.splitlines recognises
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*")


def _lines(content: bytes | str) -> list[str]:
    """The non-empty lines of ``content``, comments removed, stripped."""
    if isinstance(content, bytes):
        content = content.decode("utf-8")
    lines = _COMMENT.sub("", content).splitlines()
    return list(filter(None, map(str.strip, lines)))


def _parse_off(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 3) vertex and (F, 3) triangle arrays of OFF lines, unvalidated."""
    if not lines or lines[0].split()[0] != "OFF":
        raise MeshError("missing OFF header")
    rest = lines[0].split()[1:]
    if rest:  # counts allowed on the header line
        body = [" ".join(rest)] + lines[1:]
    else:
        body = lines[1:]
    if not body:
        raise MeshError("missing OFF count line")
    counts = body[0].split()
    if len(counts) < 2:
        raise MeshError(f"malformed OFF count line: {body[0]!r}")
    try:
        n_v, n_f = int(counts[0]), int(counts[1])
    except ValueError as e:
        raise MeshError(f"malformed OFF count line: {body[0]!r}") from e
    if n_v < 0 or n_f < 0:
        raise MeshError(f"malformed OFF count line: {body[0]!r}")
    if len(body) - 1 != n_v + n_f:
        raise MeshError(
            f"OFF declares {n_v} vertices + {n_f} faces but file has "
            f"{len(body) - 1} data lines"
        )
    # each section is parsed in one call; only a failed one is scanned line by
    # line, to name the first line with too few fields or a non-triangle
    vlines, flines = body[1 : 1 + n_v], body[1 + n_v :]
    try:
        verts = _table(vlines, np.float64, 3)
    except ValueError:
        for k, line in enumerate(vlines):
            if len(line.split()) < 3:
                raise MeshError(
                    f"vertex line {k}: expected 3 coordinates, got {line!r}"
                ) from None
        raise
    try:
        faces = _table(flines, np.int64, 4)
    except ValueError:
        for k, line in enumerate(flines):
            parts = line.split()
            try:
                n = int(parts[0])
            except ValueError:  # this line fails to convert first
                break
            if n != 3:
                raise _not_triangle(k, line) from None
            if len(parts) < 4:
                raise MeshError(f"face line {k}: malformed: {line!r}") from None
        raise
    not_tri = np.flatnonzero(faces[:, 0] != 3)
    if not_tri.size:
        raise _not_triangle(int(not_tri[0]), flines[not_tri[0]])
    verts.setflags(write=False)  # fresh, so that a mesh takes it without a copy
    return verts, faces[:, 1:]


def _table(lines: list[str], dtype, ncols: int) -> np.ndarray:
    """The first ``ncols`` columns of whitespace-separated lines as an
    (n, ncols) array; later columns are ignored. No lines give an empty
    array, not ``loadtxt``'s "no data" warning.

    A token that is not an integer in an integer table (``1.9``, ``3.0``) is
    a "could not convert" ValueError: ``loadtxt`` would otherwise truncate it
    through float and only emit a DeprecationWarning.
    """
    if not lines:
        return np.empty((0, ncols), dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, usecols=range(ncols), ndmin=2)


def _not_triangle(k: int, line: str) -> MeshError:
    return MeshError(f"face line {k}: only triangles supported, got {line!r}")


def parse_mesh(content: bytes | str) -> TriangleMesh:
    """Parse OFF file content into a validated TriangleMesh.

    Vertex order is preserved exactly as in the file.
    """
    return TriangleMesh(*_parse_off(_lines(content)))


def write_mesh(mesh: TriangleMesh) -> str:
    """Serialize a mesh to OFF text.

    Coordinates are written in shortest round-trip form (``repr`` of a
    Python float, through ``_files.float_rows``), so they parse back to the
    same bits. The face section is formatted once per set of triangles (see
    ``TriangleMesh.with_vertices``).
    """
    if not np.isfinite(mesh.vertices).all():
        raise MeshError("refusing to serialize non-finite vertex coordinates")
    head = f"OFF\n{mesh.n_vertices} {mesh.n_triangles} 0\n"
    return head + float_rows(mesh.vertices, " ") + mesh._faces.off


def _check_off_path(path) -> None:
    suffix = str(path).rsplit(".", 1)[-1].lower()
    if suffix != "off":
        raise MeshError(f"cannot infer mesh format from extension {suffix!r}")


def load_mesh(path, like: TriangleMesh | None = None) -> TriangleMesh:
    """Read an OFF file; a path without the ``.off`` extension, a parse error
    or a validation error is a MeshError naming the file.

    With ``like``, the file must hold the vertex count and the triangles of
    that mesh, in the same order, and the result is
    ``like.with_vertices(...)``: it shares those validated triangles, so they
    are not validated again.
    """
    with reading(path, "mesh file", MeshError):
        _check_off_path(path)
        with open(path, "rb") as f:
            content = f.read()
        if like is None:
            return parse_mesh(content)
        verts, triangles = _parse_off(_lines(content))
        if not np.array_equal(triangles, like.triangles):
            raise MeshError("triangles differ from the base mesh's")
        return like.with_vertices(verts)


def save_mesh(path, mesh: TriangleMesh) -> None:
    _check_off_path(path)
    text = write_mesh(mesh)
    with open_new(path) as f:
        f.write(text)
