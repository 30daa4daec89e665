import itertools
import math

import numpy as np
import pytest
from scipy import linalg as dla
from scipy.sparse.linalg import ArpackNoConvergence

import spectral_deform as sd
from spectral_deform import spectral
from spectral_deform.spectral import EigensolverError, FingerprintMismatchError

from conftest import grid_mesh


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


def count_lanczos_bands(monkeypatch) -> list:
    """Record each shift-invert Lanczos call (one per band)."""
    calls = []
    real = spectral.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs["sigma"])
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
        banded = sd.eigendecompose(L, 500, method="lanczos")
        assert len(bands) >= 5
        oracle = dla.eigh(L.toarray(), subset_by_index=[0, 499], eigvals_only=True)
        np.testing.assert_allclose(banded.eigenvalues, oracle, rtol=0, atol=1e-10)

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
        head = 56
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
