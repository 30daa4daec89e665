"""Triangle mesh data model and OFF file I/O.

Vertex order is the canonical identity of a mesh: parsing preserves file
order exactly and no deduplication or reordering is ever performed, because
spectral coefficients compare shapes through shared vertex indexing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from ._files import open_new

__all__ = [
    "MeshError",
    "TriangleMesh",
    "DeformedState",
    "parse_mesh",
    "write_mesh",
    "load_mesh",
    "save_mesh",
    "displacement_field",
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
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
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
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

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


@dataclass(frozen=True)
class DeformedState:
    """One deformed copy of a base mesh: same connectivity, new coordinates."""

    coordinates: np.ndarray
    label: str | None = None

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coordinates, dtype=np.float64))
        if c.ndim != 2 or c.shape[1] != 3:
            raise MeshError(f"coordinates must be (N, 3), got {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coordinates", c)


def _component_count(n: int, triangles: np.ndarray) -> int:
    i = np.concatenate([triangles[:, 0], triangles[:, 1], triangles[:, 2]])
    j = np.concatenate([triangles[:, 1], triangles[:, 2], triangles[:, 0]])
    adj = sparse.coo_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    n_comp, _ = connected_components(adj, directed=False)
    return n_comp


def _lines(content: bytes | str) -> list[str]:
    if isinstance(content, bytes):
        content = content.decode("utf-8")
    out = []
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _parse_off(lines: list[str]) -> TriangleMesh:
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
    return TriangleMesh(verts, faces[:, 1:])


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


def parse_mesh(content: bytes | str, fmt: str) -> TriangleMesh:
    """Parse OFF file content into a validated TriangleMesh.

    Vertex order is preserved exactly as in the file.
    """
    if fmt.lower() != "off":
        raise MeshError(f"unknown mesh format {fmt!r}")
    return _parse_off(_lines(content))


def write_mesh(mesh: TriangleMesh, fmt: str) -> str:
    """Serialize a mesh to OFF text.

    Coordinates are written in shortest round-trip form (``repr`` of a
    Python float), so they parse back to the same bits.
    """
    if not np.isfinite(mesh.vertices).all():
        raise MeshError("refusing to serialize non-finite vertex coordinates")
    if fmt.lower() != "off":
        raise MeshError(f"unknown mesh format {fmt!r}")
    out = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    out += [f"{a!r} {b!r} {c!r}" for a, b, c in mesh.vertices.tolist()]
    out += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()]
    return "\n".join(out) + "\n"


def _fmt_from_path(path) -> str:
    suffix = str(path).rsplit(".", 1)[-1].lower()
    if suffix != "off":
        raise MeshError(f"cannot infer mesh format from extension {suffix!r}")
    return suffix


def load_mesh(path) -> TriangleMesh:
    """Read an OFF file; a parse or validation error is a MeshError naming
    the file."""
    with open(path, "rb") as f:
        content = f.read()
    try:
        return parse_mesh(content, _fmt_from_path(path))
    except ValueError as e:
        raise MeshError(f"mesh file {path}: {e}") from e


def save_mesh(path, mesh: TriangleMesh) -> None:
    text = write_mesh(mesh, _fmt_from_path(path))
    with open_new(path) as f:
        f.write(text)


def displacement_field(
    state: DeformedState | np.ndarray, base: TriangleMesh | np.ndarray
) -> np.ndarray:
    """Per-vertex Euclidean distance between a deformed state and the base."""
    c = state.coordinates if isinstance(state, DeformedState) else np.asarray(state)
    b = base.vertices if isinstance(base, TriangleMesh) else np.asarray(base)
    if c.shape != b.shape:
        raise MeshError(f"shape mismatch: state {c.shape} vs base {b.shape}")
    return np.linalg.norm(c - b, axis=1)
