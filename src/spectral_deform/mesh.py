"""Triangle mesh data model and OFF/OBJ file I/O.

Vertex order is the canonical identity of a mesh: parsing preserves file
order exactly and no deduplication or reordering is ever performed, because
spectral coefficients compare shapes through shared vertex indexing.
"""

from __future__ import annotations

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

# shortest round-trip formatting: serialized coordinates parse back exactly
def _fmt_coord(c: float) -> str:
    return repr(float(c))


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
    if len(body) - 1 != n_v + n_f:
        raise MeshError(
            f"OFF declares {n_v} vertices + {n_f} faces but file has "
            f"{len(body) - 1} data lines"
        )
    verts = np.empty((n_v, 3))
    for k, line in enumerate(body[1 : 1 + n_v]):
        parts = line.split()
        if len(parts) < 3:
            raise MeshError(f"vertex line {k}: expected 3 coordinates, got {line!r}")
        verts[k] = [float(p) for p in parts[:3]]
    tris = np.empty((n_f, 3), dtype=np.int64)
    for k, line in enumerate(body[1 + n_v :]):
        parts = line.split()
        if int(parts[0]) != 3:
            raise MeshError(f"face line {k}: only triangles supported, got {line!r}")
        if len(parts) < 4:
            raise MeshError(f"face line {k}: malformed: {line!r}")
        tris[k] = [int(p) for p in parts[1:4]]
    return TriangleMesh(verts, tris)


def _parse_obj(lines: list[str]) -> TriangleMesh:
    verts, tris = [], []
    for line in lines:
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshError(f"malformed vertex line: {line!r}")
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshError(
                    f"only triangular faces supported (no fan-triangulation): {line!r}"
                )
            idx = []
            for p in parts[1:]:
                i = int(p.split("/")[0])
                if i < 1:
                    raise MeshError(f"face index must be positive 1-based: {line!r}")
                idx.append(i - 1)
            tris.append(idx)
        # normals, texcoords, groups etc. are ignored
    if not verts:
        raise MeshError("OBJ contains no vertices")
    return TriangleMesh(np.array(verts), np.array(tris, dtype=np.int64).reshape(-1, 3))


def parse_mesh(content: bytes | str, fmt: str) -> TriangleMesh:
    """Parse OFF or OBJ file content into a validated TriangleMesh.

    Vertex order is preserved exactly as in the file. OBJ faces are shifted
    from 1-based to 0-based indices.
    """
    fmt = fmt.lower()
    lines = _lines(content)
    if fmt == "off":
        return _parse_off(lines)
    if fmt == "obj":
        return _parse_obj(lines)
    raise MeshError(f"unknown mesh format {fmt!r}")


def write_mesh(mesh: TriangleMesh, fmt: str) -> str:
    """Serialize a mesh to OFF or OBJ text (exact round-trip formatting)."""
    if not np.isfinite(mesh.vertices).all():
        raise MeshError("refusing to serialize non-finite vertex coordinates")
    fmt = fmt.lower()
    coords = [" ".join(_fmt_coord(c) for c in row) for row in mesh.vertices]
    if fmt == "off":
        out = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
        out += coords
        out += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    elif fmt == "obj":
        out = [f"v {c}" for c in coords]
        out += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    else:
        raise MeshError(f"unknown mesh format {fmt!r}")
    return "\n".join(out) + "\n"


def _fmt_from_path(path) -> str:
    suffix = str(path).rsplit(".", 1)[-1].lower()
    if suffix not in ("off", "obj"):
        raise MeshError(f"cannot infer mesh format from extension {suffix!r}")
    return suffix


def load_mesh(path) -> TriangleMesh:
    """Read an OFF or OBJ file; a parse or validation error is a MeshError
    naming the file."""
    with open(path, "rb") as f:
        content = f.read()
    try:
        return parse_mesh(content, _fmt_from_path(path))
    except ValueError as e:
        raise MeshError(f"mesh file {path}: {e}") from e


def save_mesh(path, mesh: TriangleMesh) -> None:
    with open_new(path) as f:
        f.write(write_mesh(mesh, _fmt_from_path(path)))


def displacement_field(
    state: DeformedState | np.ndarray, base: TriangleMesh | np.ndarray
) -> np.ndarray:
    """Per-vertex Euclidean distance between a deformed state and the base."""
    c = state.coordinates if isinstance(state, DeformedState) else np.asarray(state)
    b = base.vertices if isinstance(base, TriangleMesh) else np.asarray(base)
    if c.shape != b.shape:
        raise MeshError(f"shape mismatch: state {c.shape} vs base {b.shape}")
    return np.linalg.norm(c - b, axis=1)
