import hashlib
import itertools
import math
import os
import re
import struct
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse.linalg as sla
from scipy import linalg as dla
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator

import spectral_deform as sd
from spectral_deform import spectral
from spectral_deform.spectral import EigensolverError, FingerprintMismatchError

from conftest import SMALL_BEAM, grid_mesh


@pytest.fixture(scope="module")
def grid_basis():
    m = grid_mesh(5, 5)
    L = sd.cotangent_laplacian(m)
    return m, L, sd.eigendecompose(L, 25, operator_fingerprint=sd.operator_fingerprint(L))


class TestEigendecompose:
    def test_cycle_multiplicity_pairs(self):
        n = 12
        edges = np.array([(i, (i + 1) % n) for i in range(n)])
        L = sd.graph_laplacian(n, edges)
        basis = sd.eigendecompose(L, n)
        expect = np.sort([2 - 2 * math.cos(2 * math.pi * k / n) for k in range(n)])
        np.testing.assert_allclose(basis.eigenvalues, expect, atol=1e-12)
        # interior eigenvalues come in multiplicity-2 pairs
        assert basis.eigenvalues[1] == pytest.approx(basis.eigenvalues[2], rel=1e-12)

    def test_constant_nullvector(self, grid_basis):
        _, _, basis = grid_basis
        assert abs(basis.eigenvalues[0]) <= 1e-9 * basis.eigenvalues[-1]
        np.testing.assert_allclose(
            basis.eigenvectors[:, 0], 1 / math.sqrt(basis.n), atol=1e-8
        )

    def test_matches_dense_oracle(self, grid_basis):
        _, L, basis = grid_basis
        oracle = np.sort(np.linalg.eigvalsh(L.toarray()))[:10]
        np.testing.assert_allclose(
            basis.eigenvalues[:10], oracle, rtol=1e-8, atol=1e-10
        )

    def test_sparse_agrees_with_dense(self, small_beam):
        L = sd.cotangent_laplacian(small_beam)
        dense = sd.eigendecompose(L, 20, method="dense")
        lanczos = sd.eigendecompose(L, 20, method="lanczos")
        np.testing.assert_allclose(
            lanczos.eigenvalues[1:], dense.eigenvalues[1:], rtol=1e-8
        )
        # non-degenerate vectors agree up to the (fixed) sign
        gaps = np.diff(dense.eigenvalues)
        for i in range(1, 19):
            if gaps[i - 1] > 1e-6 and gaps[i] > 1e-6:
                assert (
                    np.linalg.norm(
                        lanczos.eigenvectors[:, i] - dense.eigenvectors[:, i]
                    )
                    <= 1e-6
                )

    def test_orthonormal_and_residuals(self, grid_basis):
        _, L, basis = grid_basis
        gram = basis.eigenvectors.T @ basis.eigenvectors
        assert abs(gram - np.eye(basis.m)).max() <= 1e-8
        res = L @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
        for i in range(basis.m):
            assert np.linalg.norm(res[:, i]) <= 1e-7 * max(1.0, basis.eigenvalues[i])

    def test_sign_convention_deterministic(self, small_beam):
        L = sd.cotangent_laplacian(small_beam)
        a = sd.eigendecompose(L, 15)
        b = sd.eigendecompose(L, 15)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        # orientation rule: first entry within the max-magnitude tie is positive
        absv = np.abs(a.eigenvectors)
        idx = (absv >= (1 - 1e-6) * absv.max(axis=0)).argmax(axis=0)
        assert (a.eigenvectors[idx, np.arange(15)] > 0).all()

    def test_m_out_of_range(self, grid_basis):
        _, L, _ = grid_basis
        with pytest.raises(ValueError):
            sd.eigendecompose(L, 26)
        with pytest.raises(ValueError):
            sd.eigendecompose(L, 0)

    def test_unknown_method_rejected(self, grid_basis):
        _, L, _ = grid_basis
        with pytest.raises(ValueError, match="unknown method 'arpack'"):
            sd.eigendecompose(L, 5, method="arpack")

    @pytest.mark.parametrize("vals, vecs", [
        (np.zeros((2, 1)), np.zeros((4, 2))),
        (np.zeros(2), np.zeros(8)),
        (np.zeros(3), np.zeros((4, 2))),
    ], ids=["values 2-D", "vectors 1-D", "another M"])
    def test_basis_of_inconsistent_shapes_rejected(self, vals, vecs):
        with pytest.raises(ValueError, match=re.escape(
                f"inconsistent basis shapes: {vals.shape} values, {vecs.shape} vectors")):
            sd.SpectralBasis(vals, vecs)


def traced_peak(f, *args):
    """f(*args) and the peak bytes it allocated, as tracemalloc sees them
    (numpy reports its array buffers)."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_lanczos_bands(monkeypatch) -> list:
    """Record the keyword arguments of each shift-invert Lanczos call (one
    per band)."""
    calls = []
    real = spectral.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counted)
    return calls


class TestBandedSolve:
    def test_grid_clusters_match_dense(self):
        # the square grid's symmetry gives many exactly degenerate pairs
        L = sd.cotangent_laplacian(grid_mesh(30, 30))
        m = 300
        banded = sd.eigendecompose(L, m, method="lanczos")
        dense = sd.eigendecompose(L, m + 1, method="dense")
        np.testing.assert_allclose(
            banded.eigenvalues, dense.eigenvalues[:m], rtol=0, atol=1e-10
        )
        # clusters by the banded solve's gap rule; one past M shows
        # whether M itself cuts the last cluster
        vals = dense.eigenvalues
        tol = 1e-8 * max(abs(vals[-1]), 1.0)
        bounds = [0, *(np.flatnonzero(np.diff(vals) >= tol) + 1), m + 1]
        multiple = 0
        for a, b in zip(bounds[:-1], bounds[1:]):
            if b > m:
                break
            pd = dense.eigenvectors[:, a:b] @ dense.eigenvectors[:, a:b].T
            pb = banded.eigenvectors[:, a:b] @ banded.eigenvectors[:, a:b].T
            assert abs(pd - pb).max() <= 1e-10, (a, b)
            multiple += b - a > 1
        assert multiple >= 50

    def test_beam_m500_matches_dense_across_bands(self, monkeypatch):
        L = sd.cotangent_laplacian(sd.generate_hat_beam(sd.BeamParams()))
        assert L.shape[0] == 3050
        bands = count_lanczos_bands(monkeypatch)
        banded, peak = traced_peak(sd.eigendecompose, L, 500, "lanczos")
        assert len(bands) >= 5
        # the basis is held once: its bytes plus one band's ARPACK workspace
        # (ncv = 2k + 1 vectors of N), no whole-basis temporaries and no
        # earlier band's Ritz vectors
        assert peak <= banded.eigenvectors.nbytes + 6 * (8 * banded.n * spectral._BAND_K)
        # every band solves with the LU it was given, none factors on its own
        assert all(isinstance(b.get("OPinv"), LinearOperator) for b in bands)
        oracle = dla.eigh(L.toarray(), subset_by_index=[0, 499], eigvals_only=True)
        np.testing.assert_allclose(banded.eigenvalues, oracle, rtol=0, atol=1e-10)
        # the LU's accuracy margin: 1000x inside criterion 1's 1e-7
        vecs = banded.eigenvectors
        residual = abs(L @ vecs - vecs * banded.eigenvalues).max()
        assert residual <= 1e-10 * max(1.0, abs(L).max())

    def test_every_band_factors_in_symmetric_mode(self, small_beam, monkeypatch):
        real = sla.splu
        factored = []

        def recorded(*args, **kwargs):
            factored.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "splu", recorded)
        bands = count_lanczos_bands(monkeypatch)
        sd.eigendecompose(sd.cotangent_laplacian(small_beam), 100, method="lanczos")
        assert len(factored) == len(bands) >= 2
        for kwargs in factored:
            assert kwargs["permc_spec"] == "MMD_AT_PLUS_A"
            assert kwargs["diag_pivot_thresh"] == 0
            assert kwargs["options"] == {"SymmetricMode": True}

    def test_whole_spectrum(self, grid_basis):
        # the last band reaches the top of the spectrum
        _, L, dense = grid_basis
        banded = sd.eigendecompose(L, L.shape[0], method="lanczos")
        np.testing.assert_allclose(
            banded.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize(
        "params, m, banded",
        [
            (None, 20, True),  # N = 500, small share of N
            (None, 200, False),  # large share of N
            (sd.BeamParams(axial_segments=40), 400, True),  # N = 2050 > DENSE_MAX_N
        ],
    )
    def test_auto_chooses_by_share_of_n(self, small_beam, monkeypatch, params, m, banded):
        mesh = small_beam if params is None else sd.generate_hat_beam(params)
        bands = count_lanczos_bands(monkeypatch)
        sd.eigendecompose(sd.cotangent_laplacian(mesh), m)
        assert bool(bands) == banded


class TestVerification:
    def test_band_no_convergence_names_band(self, small_beam, monkeypatch):
        real = spectral.eigsh
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ArpackNoConvergence(
                    "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0))
                )
            return real(*args, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", flaky)
        L = sd.cotangent_laplacian(small_beam)
        with pytest.raises(EigensolverError, match="band 2 "):
            sd.eigendecompose(L, 100, method="lanczos")

    def test_singular_factor_names_band(self, small_beam, monkeypatch):
        real = sla.splu
        calls = []

        def singular(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "splu", singular)
        L = sd.cotangent_laplacian(small_beam)
        with pytest.raises(EigensolverError, match="band 2 .*exactly singular"):
            sd.eigendecompose(L, 100, method="lanczos")

    def test_scaled_lanczos_vectors_rejected(self, small_beam, monkeypatch):
        # residual-clean, but each column has norm 1.001
        real = spectral.eigsh

        def scaled(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return vals, vecs * 1.001

        monkeypatch.setattr(spectral, "eigsh", scaled)
        L = sd.cotangent_laplacian(small_beam)
        with pytest.raises(EigensolverError,
                           match="orthonormality error 0.002 exceeds 1e-08"):
            sd.eigendecompose(L, 40, method="lanczos")

    def test_band_without_gap_names_band(self, small_beam, monkeypatch):
        # a band of equal eigenvalues cannot be cut without splitting them
        real = spectral.eigsh

        def degenerate(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            return np.full_like(vals, vals[0]), vecs

        monkeypatch.setattr(spectral, "eigsh", degenerate)
        L = sd.cotangent_laplacian(small_beam)
        with pytest.raises(EigensolverError,
                           match="band 1: no spectral gap among its 64 new eigenvalues"):
            sd.eigendecompose(L, 100, method="lanczos")

    def test_perturbed_dense_vector_rejected(self, small_beam, monkeypatch):
        real = dla.eigh

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            vecs[:, 3] += 1e-4
            return vals, vecs

        monkeypatch.setattr(dla, "eigh", perturbed)
        L = sd.cotangent_laplacian(small_beam)
        with pytest.raises(EigensolverError, match="residual"):
            sd.eigendecompose(L, 20, method="dense")

    def test_nan_eigenvalue_rejected(self, small_beam, monkeypatch):
        # its residual is NaN in the last block: the check must not drop it
        real = dla.eigh

        def nan_last(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            vals[-1] = np.nan
            return vals, vecs

        monkeypatch.setattr(dla, "eigh", nan_last)
        L = sd.cotangent_laplacian(small_beam)
        with pytest.raises(EigensolverError, match="eigenpair residual nan exceeds"):
            sd.eigendecompose(L, 80, method="dense")


class TestEncodeDecode:
    def test_eigenvector_encodes_to_unit(self, grid_basis):
        _, _, basis = grid_basis
        coeffs = sd.encode(basis, basis.eigenvectors[:, 3])
        expect = np.zeros(basis.m)
        expect[3] = 1.0
        np.testing.assert_allclose(coeffs, expect, atol=1e-8)

    def test_constant_function(self, grid_basis):
        _, _, basis = grid_basis
        coeffs = sd.encode(basis, np.ones(basis.n))
        assert coeffs[0] == pytest.approx(math.sqrt(basis.n), rel=1e-10)
        assert abs(coeffs[1:]).max() <= 1e-8

    def test_full_roundtrip(self, grid_basis):
        _, _, basis = grid_basis
        rng = np.random.default_rng(1)
        f = rng.standard_normal(basis.n)
        back = sd.decode(basis, sd.encode(basis, f))
        assert np.linalg.norm(back - f) <= 1e-8 * np.linalg.norm(f)

    def test_parseval(self, grid_basis):
        _, _, basis = grid_basis
        rng = np.random.default_rng(2)
        f = rng.standard_normal(basis.n)
        coeffs = sd.encode(basis, f)
        assert np.sum(coeffs**2) == pytest.approx(
            np.sum(f**2), rel=1e-8
        )

    def test_decode_zero_and_constant(self, grid_basis):
        _, _, basis = grid_basis
        assert abs(sd.decode(basis, np.zeros(basis.m))).max() == 0.0
        c = 4.2
        f = sd.decode(basis, np.array([c]), indices=np.array([0]))
        np.testing.assert_allclose(f, c / math.sqrt(basis.n), rtol=1e-10)

    def test_truncated_decode_matches_partial_sum(self, grid_basis):
        _, _, basis = grid_basis
        rng = np.random.default_rng(3)
        f = rng.standard_normal(basis.n)
        coeffs = sd.encode(basis, f)
        mprime = 7
        oracle = sum(coeffs[i] * basis.eigenvectors[:, i] for i in range(mprime))
        np.testing.assert_allclose(
            sd.decode(basis, coeffs[:mprime]), oracle, atol=1e-10
        )

    def test_length_mismatch(self, grid_basis):
        _, _, basis = grid_basis
        for shape in [(basis.n + 1,), (basis.n + 1, 3), (basis.n, 3, 1)]:
            with pytest.raises(ValueError):
                sd.encode(basis, np.ones(shape))

    def test_decode_of_more_than_m_coefficients_rejected(self, grid_basis):
        _, _, basis = grid_basis
        with pytest.raises(ValueError, match="26 coefficients but basis has M=25"):
            sd.decode(basis, np.ones((26, 3)))


class TestGeometry:
    def test_consistency_with_per_axis_encode(self, grid_basis):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        np.testing.assert_array_equal(coeffs.values, sd.encode(basis, mesh.vertices))
        for axis in range(3):
            np.testing.assert_allclose(
                coeffs.values[:, axis],
                sd.encode(basis, mesh.vertices[:, axis]),
                atol=1e-10,
            )

    @pytest.mark.parametrize("shape", [(25, 2), (26, 3), (75,)])
    def test_coordinates_of_another_shape_rejected(self, grid_basis, shape):
        _, _, basis = grid_basis
        with pytest.raises(ValueError, match=re.escape(
                f"coordinates have shape {shape}, expected (25, 3)")):
            sd.encode_geometry(basis, np.zeros(shape))

    def test_translation_moves_only_first_coefficient(self, grid_basis):
        mesh, _, basis = grid_basis
        tx = 3.7
        a = sd.encode_geometry(basis, mesh.vertices)
        b = sd.encode_geometry(basis, mesh.vertices + np.array([tx, 0.0, 0.0]))
        delta = b.values - a.values
        assert delta[0, 0] == pytest.approx(tx * math.sqrt(basis.n), rel=1e-9)
        assert abs(delta[1:]).max() <= 1e-8
        assert abs(delta[0, 1:]).max() <= 1e-8

    def test_full_subset_reconstruction(self, grid_basis):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        back = sd.reconstruct_geometry(basis, coeffs, None)
        assert np.linalg.norm(back - mesh.vertices) <= 1e-8 * np.linalg.norm(
            mesh.vertices
        )

    def test_first_only_collapses_to_point(self, grid_basis):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        got = sd.reconstruct_geometry(basis, coeffs, np.array([0]))
        assert np.ptp(got, axis=0).max() <= 1e-9

    def test_empty_subset_warns(self, grid_basis):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        with pytest.warns(UserWarning, match="empty"):
            got = sd.reconstruct_geometry(basis, coeffs, np.array([], dtype=int))
        assert abs(got).max() == 0.0

    def test_subset_index_out_of_range(self, grid_basis):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        for index in (-1, basis.m):
            with pytest.raises(ValueError, match="out of basis range"):
                sd.reconstruct_geometry(basis, coeffs, np.array([0, index]))

    def test_fingerprint_mismatch(self, grid_basis, small_beam):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        other = sd.eigendecompose(sd.cotangent_laplacian(small_beam), 25)
        with pytest.raises(FingerprintMismatchError):
            sd.reconstruct_geometry(other, coeffs, None)


class TestBestMTerm:
    def test_magnitude_selection_is_optimal_exhaustively(self):
        mesh = grid_mesh(5, 10)  # N = 50
        L = sd.cotangent_laplacian(mesh)
        basis = sd.eigendecompose(L, 8)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(mesh.n_vertices)
        coeffs = sd.encode(basis, f)
        reference = sd.decode(basis, coeffs)

        def err(subset):
            part = sd.decode(basis, coeffs[list(subset)], indices=np.array(subset))
            return np.linalg.norm(part - reference)

        best = min(itertools.combinations(range(8), 2), key=err)
        magnitude_pick = tuple(sorted(np.argsort(-np.abs(coeffs))[:2]))
        assert err(magnitude_pick) == pytest.approx(err(best), rel=1e-12)


class TestConstructorsLeaveCallersArraysAlone:
    """A constructor copies a writable array it would otherwise share, and
    takes a read-only one as it is."""

    def test_basis(self):
        vals, vecs = np.array([0.0, 1.0]), np.eye(3)[:2].T.copy()
        basis = sd.SpectralBasis(vals, vecs)
        fingerprint = basis.fingerprint
        assert vals.flags.writeable and vecs.flags.writeable
        vals[0], vecs[0, 0] = -1.0, 5.0
        assert basis.eigenvalues[0] == 0.0 and basis.eigenvectors[0, 0] == 1.0
        assert basis.fingerprint == fingerprint
        vecs.setflags(write=False)
        assert sd.SpectralBasis(basis.eigenvalues, vecs).eigenvectors is vecs

    def test_coefficients(self):
        a = np.zeros((4, 3))
        coeffs = sd.SpectralCoefficients(a)
        assert a.flags.writeable
        a[0, 0] = 1.0
        assert coeffs.values[0, 0] == 0.0
        assert sd.SpectralCoefficients(coeffs.values).values is coeffs.values

    def test_stack(self):
        b = np.zeros((2, 4, 3))
        stack = sd.CoefficientStack(("a", "b"), b)
        assert b.flags.writeable
        b[1, 0, 0] = 1.0
        assert stack.values[1, 0, 0] == 0.0
        assert sd.CoefficientStack((0, 1), stack.values).values is stack.values

    def test_mesh(self, small_beam):
        v, t = small_beam.vertices.copy(), small_beam.triangles.copy()
        mesh = sd.TriangleMesh(v, t)
        assert v.flags.writeable and t.flags.writeable
        v[0, 0], t[0, 0] = -1.0, t[0, 1]
        assert mesh.vertices[0, 0] == small_beam.vertices[0, 0]
        assert mesh.triangles[0, 0] == small_beam.triangles[0, 0]
        again = sd.TriangleMesh(mesh.vertices, mesh.triangles)
        assert again.vertices is mesh.vertices and again.triangles is mesh.triangles

    def test_with_vertices(self, small_beam):
        v = small_beam.vertices.copy()
        mesh = small_beam.with_vertices(v)
        assert v.flags.writeable
        v[0, 0] = -1.0
        assert mesh.vertices[0, 0] == small_beam.vertices[0, 0]
        assert small_beam.with_vertices(mesh.vertices).vertices is mesh.vertices

    def test_descriptor(self):
        idx, tri = np.array([0, 2]), np.ones((2, 3))
        desc = sd.DeformationDescriptor(idx, tri, 0.5)
        assert idx.flags.writeable and tri.flags.writeable
        idx[0], tri[0, 0] = 1, 5.0
        assert desc.indices[0] == 0 and desc.triples[0, 0] == 1.0
        again = sd.DeformationDescriptor(desc.indices, desc.triples, 0.5)
        assert again.indices is desc.indices and again.triples is desc.triples

    def test_bundle_states(self):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=2)
        states = bundle.states.copy()
        copy = sd.SimulationBundle(bundle.base, states, bundle.manifest)
        assert states.flags.writeable
        states[0, 0, 0] = -1.0
        assert copy.states[0, 0, 0] == bundle.states[0, 0, 0]
        again = sd.SimulationBundle(bundle.base, bundle.states, bundle.manifest)
        assert again.states is bundle.states


@pytest.fixture(scope="module")
def wide_basis():
    """A basis of the acceptance shape (N=3050, M=500), without a solve."""
    rng = np.random.default_rng(3050)
    vecs = rng.standard_normal((3050, 500))
    return sd.SpectralBasis(np.sort(rng.standard_normal(500)), vecs, "ab" * 32)


class TestMemoryBudget:
    """SPBS save and load hold the basis once: save writes the arrays as they
    are held and load reads into the basis itself, so neither allocates more
    than a few pages beside it (the Lanczos solve's budget is pinned in
    test_beam_m500_matches_dense_across_bands). The dense solve holds its
    N x N operator once."""

    SLACK = 64 * 1024

    def test_save_allocates_no_copy(self, wide_basis, tmp_path):
        _, peak = traced_peak(wide_basis.save, tmp_path / "b.spbs")
        assert peak < self.SLACK

    def test_load_holds_one_basis(self, wide_basis, tmp_path):
        basis = wide_basis
        basis.save(tmp_path / "b.spbs")
        again, peak = traced_peak(sd.SpectralBasis.load, tmp_path / "b.spbs")
        assert again.fingerprint == basis.fingerprint
        whole = basis.eigenvectors.nbytes + basis.eigenvalues.nbytes
        assert peak <= whole + self.SLACK

    def test_dense_holds_the_operator_once(self, small_beam):
        # the operator's 8 N^2 bytes, the F-ordered basis LAPACK returns and
        # the basis's C-ordered copy of it; LAPACK works in the operator
        L = sd.cotangent_laplacian(small_beam)
        basis, peak = traced_peak(sd.eigendecompose, L, 200, "dense")
        assert peak <= 8 * basis.n ** 2 + 2 * basis.eigenvectors.nbytes


class TestPersistence:
    def test_spbs_roundtrip(self, grid_basis, tmp_path):
        _, _, basis = grid_basis
        path = tmp_path / "b.spbs"
        basis.save(path)
        again = sd.SpectralBasis.load(path)
        np.testing.assert_array_equal(again.eigenvalues, basis.eigenvalues)
        np.testing.assert_array_equal(again.eigenvectors, basis.eigenvectors)
        assert again.operator_fingerprint == basis.operator_fingerprint
        assert again.fingerprint == basis.fingerprint

    def test_spbs_bad_magic(self, tmp_path):
        path = tmp_path / "junk.spbs"
        path.write_bytes(b"NOPE" + b"\0" * 60)
        with pytest.raises(ValueError, match="magic"):
            sd.SpectralBasis.load(path)

    @pytest.mark.parametrize("cut", ["header", "values", "vectors", "trailing"])
    def test_spbs_length_checked(self, grid_basis, tmp_path, cut):
        _, _, basis = grid_basis
        path = tmp_path / "b.spbs"
        basis.save(path)
        data = path.read_bytes()
        head = 88
        data, expected = {
            "header": (data[:20], head),
            "values": (data[: head + 8 * basis.m // 2], len(data)),
            "vectors": (data[:-5], len(data)),
            "trailing": (data + b"\0" * 8, len(data)),
        }[cut]
        path.write_bytes(data)
        with pytest.raises(
            ValueError, match=rf"expected (at least )?{expected} bytes.* got {len(data)}$"
        ):
            sd.SpectralBasis.load(path)

    def test_spbs_absurd_header_rejected_before_allocating(self, tmp_path):
        path = tmp_path / "huge.spbs"
        header = struct.pack("<4sIQQ32s32s", b"SPBS", 3, 2**31, 2**31, bytes(32),
                             bytes(32))
        path.write_bytes(header + bytes(8))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{path}: .*wrong length.* got 96$"):
                sd.SpectralBasis.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_spbs_cut_while_read_rejected(self, grid_basis, tmp_path, monkeypatch):
        # the length checked up front is not trusted for the bytes read
        _, _, basis = grid_basis
        path = tmp_path / "b.spbs"
        basis.save(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        real, inode = os.fstat, path.stat().st_ino

        def fstat(fd):  # the old length for this file only
            st = real(fd)
            return types.SimpleNamespace(st_size=size) if st.st_ino == inode else st

        monkeypatch.setattr(os, "fstat", fstat)
        with pytest.raises(ValueError, match=f"{path}: .*changed while it was read"):
            sd.SpectralBasis.load(path)

    @staticmethod
    def assert_spbs_golden(basis, path):
        """The file is the header, which holds the basis fingerprint, the
        values, then the vectors in C order, all f64 LE; its body is what the
        basis fingerprint hashes after the operator fingerprint, and loading
        it gives the same bits back."""
        basis.save(path)
        fp = bytes.fromhex(basis.operator_fingerprint or "00" * 32)
        header = struct.pack("<4sIQQ32s32s", b"SPBS", 3, basis.n, basis.m, fp,
                             bytes.fromhex(basis.fingerprint))
        data = path.read_bytes()
        assert data == (header + basis.eigenvalues.astype("<f8").tobytes()
                        + basis.eigenvectors.astype("<f8").tobytes("C"))
        body = basis.operator_fingerprint.encode() + data[len(header):]
        assert hashlib.sha256(body).hexdigest() == basis.fingerprint
        again = sd.SpectralBasis.load(path)
        assert again.eigenvalues.tobytes() == basis.eigenvalues.tobytes()
        assert again.eigenvectors.tobytes() == basis.eigenvectors.tobytes()
        assert again.fingerprint == basis.fingerprint

    @pytest.mark.parametrize("m", [20, 64, 70])
    def test_spbs_bytes(self, tmp_path, m):
        rng = np.random.default_rng(m)
        vecs = rng.standard_normal((37, m))
        basis = sd.SpectralBasis(np.sort(rng.standard_normal(m)), vecs, "ab" * 32)
        self.assert_spbs_golden(basis, tmp_path / "b.spbs")

    def test_spbs_bytes_of_dense_path_basis(self, small_beam, tmp_path):
        # LAPACK returns F-ordered eigenvectors
        L = sd.cotangent_laplacian(small_beam)
        basis = sd.eigendecompose(L, 70, method="dense",
                                  operator_fingerprint=sd.operator_fingerprint(L))
        self.assert_spbs_golden(basis, tmp_path / "b.spbs")

    def test_coefficients_csv_roundtrip(self, grid_basis, tmp_path):
        mesh, _, basis = grid_basis
        coeffs = sd.encode_geometry(basis, mesh.vertices)
        path = tmp_path / "c.csv"
        coeffs.save_csv(path)
        first = path.read_text().splitlines()
        assert first[:3] == [f"# basis_fingerprint: {basis.fingerprint}",
                             f"# m: {basis.m}", "index,alpha_x,alpha_y,alpha_z"]
        again = sd.SpectralCoefficients.load_csv(path)
        np.testing.assert_array_equal(again.values, coeffs.values)
        assert again.basis_fingerprint == coeffs.basis_fingerprint


class TestSpectralCoefficients:
    @pytest.mark.parametrize("shape", [(4,), (4, 2), (2, 4, 3)])
    def test_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"coefficients must be (M, 3), got {shape}")):
            sd.SpectralCoefficients(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        values = np.zeros((4, 3))
        values[2, 1] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            sd.SpectralCoefficients(values)

    def test_csv_bytes(self, tmp_path):
        # the comment lines, the header, then each value's shortest repr
        coeffs = sd.SpectralCoefficients([[0.1, -2.0, 1e-300], [3.0, 1 / 3, -0.0]],
                                         "ab" * 32)
        rows = (b"# m: 2\nindex,alpha_x,alpha_y,alpha_z\n"
                b"0,0.1,-2.0,1e-300\n1,3.0,0.3333333333333333,-0.0\n")
        text = f"# basis_fingerprint: {'ab' * 32}\n".encode() + rows
        assert coeffs.to_csv() == text
        assert coeffs.save_csv(tmp_path / "c.csv") == text
        assert (tmp_path / "c.csv").read_bytes() == text
        assert sd.SpectralCoefficients(coeffs.values).to_csv() == rows


class TestCoefficientStack:
    VALUES = np.arange(24.0).reshape(2, 4, 3)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 4, 2), (0, 4, 3), (2, 0, 3)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(S, M, 3\)"):
            sd.CoefficientStack(tuple(range(shape[0])), np.zeros(shape))

    def test_ids_must_name_every_shape(self):
        with pytest.raises(ValueError, match="3 ids"):
            sd.CoefficientStack(("a", "b", "c"), self.VALUES)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        values = self.VALUES.copy()
        values[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            sd.CoefficientStack((0, 1), values)

    def test_values_read_only(self):
        stack = sd.CoefficientStack(["a", "b"], self.VALUES.copy())
        assert stack.ids == ("a", "b")
        with pytest.raises(ValueError, match="read-only"):
            stack.values[0, 0, 0] = 1.0

    def test_of_stacks_shapes_with_default_ids(self):
        # an empty fingerprint is unknown: the stack takes the known one
        shapes = [sd.SpectralCoefficients(self.VALUES[0], ""),
                  sd.SpectralCoefficients(self.VALUES[1], "ab" * 32)]
        stack = sd.CoefficientStack.of(shapes)
        assert stack.ids == (0, 1)
        assert stack.basis_fingerprint == "ab" * 32
        np.testing.assert_array_equal(stack.values, self.VALUES)
        assert sd.CoefficientStack.of(stack) is stack

    def test_of_names_the_shape_of_another_m(self):
        shapes = [sd.SpectralCoefficients(np.zeros((4, 3))),
                  sd.SpectralCoefficients(np.zeros((3, 3)))]
        with pytest.raises(ValueError, match="shape b has M=3, shape a M=4"):
            sd.CoefficientStack.of(shapes, ["a", "b"])

    def test_of_rejects_an_empty_bundle(self):
        with pytest.raises(ValueError, match="empty"):
            sd.CoefficientStack.of([])

    @pytest.mark.parametrize("ids, bad", [
        (("a", "base1"), "base1"),
        (("a", "a"), "a"),
        (("",), ""),
        (("a", "sub/b"), "sub/b"),
        (("a", ".b"), ".b"),
    ], ids=["base prefix", "duplicate", "empty", "path separator", "hidden"])
    def test_save_rejects_ids_not_read_back(self, ids, bad, tmp_path):
        # each of these <id>.csv would be dropped, merged or not listed
        # by load_coeff_dir, or could not be written at all
        values = np.arange(12.0 * len(ids)).reshape(len(ids), 4, 3)
        with pytest.raises(ValueError, match=f"shape id {bad!r} is empty, repeated"):
            sd.save_coeff_dir(tmp_path, sd.CoefficientStack(ids, values))
        assert list(tmp_path.iterdir()) == []

    def test_save_opens_no_csv_for_reading(self, tmp_path, monkeypatch):
        # each CSV is formatted once, for its file and for its copy in the stack
        stack = sd.CoefficientStack(("b", "a"), self.VALUES / 7, "ab" * 32)
        real_open, reads = open, []

        def recording_open(path, mode="r", *args, **kwargs):
            if "r" in mode or "+" in mode:
                reads.append(os.fspath(path))
            return real_open(path, mode, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr("builtins.open", recording_open)
            sd.save_coeff_dir(tmp_path, stack)
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv", "coefficients.spcs"]
        assert [p for p in reads if p.endswith(".csv")] == []

    def test_stack_copies_and_sizes_are_the_csv_bytes(self, tmp_path):
        ids, fp = ("b", "a", "c"), "ab" * 32
        values = np.arange(36.0).reshape(3, 4, 3) / 7
        sd.save_coeff_dir(tmp_path, sd.CoefficientStack(ids, values, fp))
        data = (tmp_path / "coefficients.spcs").read_bytes()
        # the header fields, the digest of those fields and of the body, the
        # body in name order, then each CSV's size followed by its bytes
        fields = struct.pack("<4sIQQ32s", b"SPCS", 3, 3, 4, bytes.fromhex(fp))
        body = np.array([values[ids.index(name)] for name in sorted(ids)], "<f8").tobytes()
        assert data[:len(fields) + 32 + len(body)] == (
            fields + hashlib.sha256(fields + body).digest() + body)
        offset = len(fields) + 32 + len(body)
        for name in sorted(ids):
            csv = (tmp_path / f"{name}.csv").read_bytes()
            assert csv == sd.SpectralCoefficients(values[ids.index(name)], fp).to_csv()
            assert struct.unpack_from("<Q", data, offset) == (len(csv),)
            assert data[offset + 8:offset + 8 + len(csv)] == csv
            offset += 8 + len(csv)
        assert offset == len(data)

    @staticmethod
    def _read_stack(directory):
        paths = spectral._shape_csvs(directory)
        return spectral._read_stack(directory, paths,
                                    [os.path.basename(p)[:-4] for p in paths])

    def _save_cut_at_the_second_csv(self, tmp_path, monkeypatch, leave_it_empty):
        """Save over a saved directory, failing as the second CSV is written."""
        sd.save_coeff_dir(tmp_path, sd.CoefficientStack(("a", "b"), self.VALUES, "ab" * 32))
        real_save, saved = sd.SpectralCoefficients.save_csv, []

        def save_one_then_fail(coeffs, path):
            if saved:
                if leave_it_empty:
                    open(path, "w").close()
                raise OSError("disk full")
            saved.append(path)
            return real_save(coeffs, path)

        with monkeypatch.context() as m:
            m.setattr(sd.SpectralCoefficients, "save_csv", save_one_then_fail)
            with pytest.raises(OSError, match="disk full"):
                sd.save_coeff_dir(tmp_path, sd.CoefficientStack(
                    ("a", "b"), self.VALUES + 1, "ab" * 32))

    def test_interrupted_save_leaves_no_usable_stack(self, tmp_path, monkeypatch):
        # the stack lacks the copy of the CSV the save did not write, so
        # readers parse the CSVs instead
        self._save_cut_at_the_second_csv(tmp_path, monkeypatch, leave_it_empty=False)
        assert self._read_stack(tmp_path) is None
        stack = sd.load_coeff_dir(tmp_path)
        np.testing.assert_array_equal(stack.values, [self.VALUES[0] + 1, self.VALUES[1]])

    def test_save_cut_in_an_empty_csv_leaves_no_usable_stack(self, tmp_path, monkeypatch):
        # the stack ends where the empty CSV's size would go: a missing size
        # is not a size of 0, so the empty CSV is parsed and refused
        self._save_cut_at_the_second_csv(tmp_path, monkeypatch, leave_it_empty=True)
        assert (tmp_path / "b.csv").read_bytes() == b""
        assert self._read_stack(tmp_path) is None
        with pytest.raises(ValueError, match="b.csv"):
            sd.load_coeff_dir(tmp_path)
