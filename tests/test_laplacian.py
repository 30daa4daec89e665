import math

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform.mesh import MeshError

from conftest import grid_mesh


def tri_mesh(v):
    return sd.TriangleMesh(np.asarray(v, dtype=float), np.array([[0, 1, 2]]))


def brute_force_cotangent(mesh):
    """Independent per-triangle assembly with explicit angle computation."""
    n = mesh.n_vertices
    L = np.zeros((n, n))
    for tri in mesh.triangles:
        for a in range(3):
            i, j, k = tri[a], tri[(a + 1) % 3], tri[(a + 2) % 3]
            u = mesh.vertices[j] - mesh.vertices[i]
            w = mesh.vertices[k] - mesh.vertices[i]
            angle = math.acos(
                np.dot(u, w) / (np.linalg.norm(u) * np.linalg.norm(w))
            )
            val = 0.5 / math.tan(angle)
            L[j, k] -= val
            L[k, j] -= val
    for i in range(n):
        L[i, i] = -L[i].sum() + L[i, i]
    return L


class TestCotangent:
    def test_equilateral_triangle(self):
        m = tri_mesh([[0, 0, 0], [1, 0, 0], [0.5, math.sqrt(3) / 2, 0]])
        L = sd.cotangent_laplacian(m).toarray()
        off = -0.5 / math.sqrt(3)
        expect = np.full((3, 3), off)
        np.fill_diagonal(expect, 1 / math.sqrt(3))
        np.testing.assert_allclose(L, expect, atol=1e-14)

    def test_right_isoceles_hypotenuse_zero(self):
        m = tri_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        L = sd.cotangent_laplacian(m).toarray()
        assert L[1, 2] == pytest.approx(0.0, abs=1e-15)

    def test_grid_matches_brute_force(self):
        m = grid_mesh(5, 5)
        L = sd.cotangent_laplacian(m).toarray()
        np.testing.assert_allclose(L, brute_force_cotangent(m), atol=1e-12)

    def test_row_sums_zero(self, small_beam):
        L = sd.cotangent_laplacian(small_beam)
        scale = abs(L.data).max()
        assert abs(np.asarray(L.sum(axis=1))).max() <= 1e-9 * scale

    def test_symmetry_via_random_vectors(self, small_beam):
        L = sd.cotangent_laplacian(small_beam)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(L.shape[0])
            y = rng.standard_normal(L.shape[0])
            assert x @ (L @ y) == pytest.approx(y @ (L @ x), rel=1e-9)

    def test_scale_invariance(self, small_beam):
        L1 = sd.cotangent_laplacian(small_beam)
        L2 = sd.cotangent_laplacian(
            sd.TriangleMesh(small_beam.vertices * 7.3, small_beam.triangles)
        )
        assert abs((L1 - L2).toarray()).max() <= 1e-9

    def test_rigid_motion_invariance(self, small_beam):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        moved = small_beam.vertices @ q.T + np.array([5.0, -3.0, 11.0])
        L1 = sd.cotangent_laplacian(small_beam)
        L2 = sd.cotangent_laplacian(sd.TriangleMesh(moved, small_beam.triangles))
        assert abs((L1 - L2).toarray()).max() <= 1e-9

    def test_off_diagonal_pattern_is_edge_set(self, small_beam):
        L = sd.cotangent_laplacian(small_beam).tocoo()
        # structural pattern: planar quad diagonals carry an exact 0 weight
        pattern = {
            (min(i, j), max(i, j)) for i, j in zip(L.row, L.col) if i != j
        }
        edges = {tuple(e) for e in small_beam.edges()}
        assert pattern == edges

    def test_degenerate_triangle_rejected(self):
        # second triangle has its three vertices colinear: zero area
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.0, 0.0]], dtype=float)
        bad = sd.TriangleMesh(v, np.array([[0, 1, 2], [0, 1, 3]]))
        with pytest.raises(MeshError, match="degenerate"):
            sd.cotangent_laplacian(bad)

    def test_positive_semidefinite(self, small_beam):
        L = sd.cotangent_laplacian(small_beam)
        vals = np.linalg.eigvalsh(L.toarray())
        assert vals.min() >= -1e-9 * vals.max()


class TestUniform:
    def test_single_triangle_is_k3(self):
        m = tri_mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        L = sd.uniform_laplacian(m).toarray()
        np.testing.assert_array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_cycle_spectrum_closed_form(self):
        n = 12
        edges = np.array([(i, (i + 1) % n) for i in range(n)])
        L = sd.graph_laplacian(n, edges)
        got = np.sort(np.linalg.eigvalsh(L.toarray()))
        expect = np.sort([2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n)])
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_star_center_degree(self):
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float
        )
        t = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 1]])
        L = sd.uniform_laplacian(sd.TriangleMesh(v, t)).toarray()
        assert L[0, 0] == 4


def test_operator_fingerprint_stable_and_sensitive(small_beam):
    L = sd.cotangent_laplacian(small_beam)
    assert sd.operator_fingerprint(L) == sd.operator_fingerprint(L.copy().tocoo())
    assert sd.operator_fingerprint(L) != sd.operator_fingerprint(sd.uniform_laplacian(small_beam))
