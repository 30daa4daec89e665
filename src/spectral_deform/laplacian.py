"""Discrete Laplace operators assembled as sparse symmetric matrices.

The main operator is the plain symmetric cotangent Laplacian (no mass
normalization), so that its eigenvectors are orthonormal in the standard
inner product and plain-transpose projections are valid. A purely
combinatorial graph Laplacian serves as a robust fallback for near-degenerate
meshes.

scipy is imported inside the functions that use it, so that importing the
package does not import scipy.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from .mesh import MeshError, TriangleMesh

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "cotangent_laplacian",
    "uniform_laplacian",
    "graph_laplacian",
    "triangle_areas",
    "operator_fingerprint",
]

# triangles with area below this fraction of the mean are rejected:
# cotangents blow up as the area collapses
DEGENERATE_AREA_REL = 1e-12


def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
    return 0.5 * np.linalg.norm(cross, axis=1)


def cotangent_laplacian(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Symmetric cotangent Laplacian L of a triangle mesh.

    L[i, j] = -1/2 (cot a_ij + cot b_ij) for interior edges (one cotangent
    for boundary edges), diagonal = negative row sum. Negative weights from
    obtuse triangles are kept as-is.

    Raises
    ------
    MeshError
        If any triangle area is below 1e-12 times the mean area.
    """
    from scipy import sparse

    v = mesh.vertices
    t = mesh.triangles
    n = mesh.n_vertices

    areas = triangle_areas(mesh)
    if (areas < DEGENERATE_AREA_REL * areas.mean()).any():
        k = int((areas < DEGENERATE_AREA_REL * areas.mean()).sum())
        raise MeshError(f"{k} degenerate (near zero-area) triangle(s)")

    rows, cols, vals = [], [], []
    for a in range(3):
        # corner a is opposite edge (b, c)
        b, c = (a + 1) % 3, (a + 2) % 3
        u = v[t[:, b]] - v[t[:, a]]
        w = v[t[:, c]] - v[t[:, a]]
        cot = (u * w).sum(axis=1) / np.linalg.norm(np.cross(u, w), axis=1)
        half = 0.5 * cot
        rows.append(t[:, b])
        cols.append(t[:, c])
        vals.append(-half)
        rows.append(t[:, c])
        cols.append(t[:, b])
        vals.append(-half)

    i = np.concatenate(rows)
    j = np.concatenate(cols)
    w = np.concatenate(vals)
    L = sparse.coo_matrix((w, (i, j)), shape=(n, n)).tocsr()
    L.setdiag(-np.asarray(L.sum(axis=1)).ravel())
    return L


def uniform_laplacian(mesh: TriangleMesh) -> sparse.csr_matrix:
    """Combinatorial graph Laplacian: degree on the diagonal, -1 per edge."""
    return graph_laplacian(mesh.n_vertices, mesh.edges())


def graph_laplacian(n: int, edges: np.ndarray) -> sparse.csr_matrix:
    """Graph Laplacian of an explicit undirected edge list."""
    from scipy import sparse

    e = np.asarray(edges, dtype=np.int64)
    i = np.concatenate([e[:, 0], e[:, 1]])
    j = np.concatenate([e[:, 1], e[:, 0]])
    L = sparse.coo_matrix((-np.ones(len(i)), (i, j)), shape=(n, n)).tocsr()
    L.setdiag(-np.asarray(L.sum(axis=1)).ravel())
    return L


def operator_fingerprint(L: sparse.spmatrix) -> str:
    """Content hash (sha256 hex) of a sparse matrix in canonical COO order."""
    from scipy import sparse

    coo = sparse.coo_matrix(L)
    order = np.lexsort((coo.col, coo.row))
    h = hashlib.sha256()
    h.update(np.int64(coo.shape[0]).tobytes())
    h.update(coo.row[order].astype(np.int64).tobytes())
    h.update(coo.col[order].astype(np.int64).tobytes())
    h.update(coo.data[order].astype(np.float64).tobytes())
    return h.hexdigest()
