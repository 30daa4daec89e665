import re
import warnings

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform.descriptor import EmptySelectionError
from spectral_deform.spectral import FingerprintMismatchError

from conftest import grid_mesh


def coeffs_of(values, fp="a0" * 32):
    return sd.SpectralCoefficients(np.asarray(values, dtype=float), fp)


def of_another_basis(basis, coeffs, other):
    """``coeffs`` as if of another basis, by ``other`` fingerprint or M, with
    the error and message that the basis check raises."""
    if other == "fingerprint":
        return (coeffs_of(coeffs.values, fp="ff" * 32), FingerprintMismatchError,
                "different bases")
    return (sd.SpectralCoefficients(coeffs.values[:-1], basis.fingerprint), ValueError,
            f"M={basis.m - 1} but basis M={basis.m}")


@pytest.fixture(scope="module")
def beam_setup(small_beam):
    L = sd.cotangent_laplacian(small_beam)
    basis = sd.eigendecompose(L, 60, operator_fingerprint=sd.operator_fingerprint(L))
    spec = sd.DeformationSpec("axial_crush", 20.0, 0.45, noise_sigma=0.3)
    coords = sd.apply_deformation(small_beam, spec, seed=9)
    coeffs = sd.encode_geometry(basis, coords)
    return small_beam, basis, coords, coeffs


class TestStatisticalThreshold:
    def test_zero_variance(self):
        c = coeffs_of(np.full((4, 3), 2.5))
        assert sd.statistical_threshold(c) == pytest.approx(2.5)

    def test_hand_arithmetic(self):
        c = coeffs_of([[0, 0, 0], [4, 4, 4]])
        # values {0,0,0,4,4,4}: mean 2, population std 2
        assert sd.statistical_threshold(c) == pytest.approx(4.0)

    def test_matches_two_pass_oracle(self, beam_setup):
        _, _, _, coeffs = beam_setup
        a = np.abs(coeffs.values).ravel()
        mean = sum(a) / len(a)
        var = sum((x - mean) ** 2 for x in a) / len(a)
        assert sd.statistical_threshold(coeffs) == pytest.approx(
            mean + np.sqrt(var), rel=1e-12
        )


class TestSelection:
    def test_zero_threshold_selects_all_nonzero(self):
        c = coeffs_of([[1, 0, 0], [0, 0, 0], [0, -2, 0]])
        np.testing.assert_array_equal(sd.select_by_threshold(c, 0.0), [0, 2])

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold must be >= 0, got nan"):
            sd.select_by_threshold(coeffs_of([[1, 0, 0]]), float("nan"))

    def test_max_threshold_empty_error(self):
        c = coeffs_of([[1, 0, 0], [0, 3, 0]])
        with pytest.raises(EmptySelectionError, match="decrease"):
            sd.select_by_threshold(c, 3.0)

    def test_matches_scan_oracle(self, beam_setup):
        _, _, _, coeffs = beam_setup
        t = sd.statistical_threshold(coeffs)
        got = sd.select_by_threshold(coeffs, t)
        expect = [
            j
            for j in range(coeffs.m)
            if any(abs(coeffs.values[j, a]) > t for a in range(3))
        ]
        np.testing.assert_array_equal(got, expect)

    def test_negative_coefficients_selected_by_magnitude(self):
        c = coeffs_of([[5, 0, 0], [-40, 0, 0]])
        np.testing.assert_array_equal(sd.select_by_threshold(c, 10.0), [1])

    def test_monotone_in_threshold(self, beam_setup):
        _, _, _, coeffs = beam_setup
        lo = set(sd.select_by_threshold(coeffs, 1.0))
        hi = set(sd.select_by_threshold(coeffs, 10.0))
        assert hi <= lo


class TestBaselineDifference:
    def test_identical_empty(self):
        c = coeffs_of([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(EmptySelectionError):
            sd.build_descriptor(c, c, 0.5)

    def test_translation_selects_only_first_index(self, beam_setup):
        mesh, basis, _, _ = beam_setup
        base_c = sd.encode_geometry(basis, mesh.vertices)
        moved = sd.encode_geometry(basis, mesh.vertices + np.array([0.0, 0.0, 2.0]))
        desc = sd.build_descriptor(moved, base_c, 1e-6)
        np.testing.assert_array_equal(desc.indices, [0])
        assert desc.selection_mode == "baseline_difference"

    def test_fingerprint_mismatch(self):
        a = coeffs_of([[1, 2, 3]], fp="aa" * 32)
        b = coeffs_of([[1, 2, 3]], fp="bb" * 32)
        with pytest.raises(FingerprintMismatchError):
            sd.build_descriptor(a, b, 0.1)

    def test_matches_scan_oracle(self, beam_setup):
        mesh, basis, _, coeffs = beam_setup
        base_c = sd.encode_geometry(basis, mesh.vertices)
        delta = np.abs(coeffs.values - base_c.values)
        t = float(delta.ravel().mean() + delta.ravel().std())
        # the default threshold is the statistical one of the difference
        desc = sd.build_descriptor(coeffs, base_c)
        expect = np.flatnonzero((delta > t).any(axis=1))
        np.testing.assert_array_equal(desc.indices, expect)
        assert desc.threshold == t
        np.testing.assert_array_equal(desc.triples, coeffs.values[expect])

    def test_baseline_of_another_m_rejected(self):
        c = coeffs_of([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="M=1"):
            sd.build_descriptor(c, coeffs_of([[0, 0, 0]]), 0.5)


class TestBuildDescriptor:
    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("threshold", [None, 5.0])
    def test_magnitude_equals_the_three_steps(self, beam_setup, augment, threshold):
        _, _, _, coeffs = beam_setup
        t = sd.statistical_threshold(coeffs) if threshold is None else threshold
        expect = sd.complete_descriptor(
            sd.select_by_threshold(coeffs, t), coeffs, augment=augment,
            threshold=t, label="crush",
        )
        got = sd.build_descriptor(coeffs, threshold=threshold, augment=augment,
                                  label="crush")
        assert got.selection_mode == "magnitude"
        assert got.to_json() == expect.to_json()

    def test_negative_threshold_rejected(self, beam_setup):
        _, _, _, coeffs = beam_setup
        with pytest.raises(ValueError, match=">= 0"):
            sd.build_descriptor(coeffs, threshold=-1.0)


class TestCompletion:
    def test_augment_unions_first_two(self):
        c = coeffs_of(np.arange(30.0).reshape(10, 3))
        desc = sd.complete_descriptor([5], c, augment=True)
        np.testing.assert_array_equal(desc.indices, [0, 1, 5])
        desc2 = sd.complete_descriptor([5], c, augment=False)
        np.testing.assert_array_equal(desc2.indices, [5])

    def test_augment_idempotent_on_first_two(self):
        c = coeffs_of(np.arange(30.0).reshape(10, 3))
        desc = sd.complete_descriptor([0, 1], c, augment=True)
        np.testing.assert_array_equal(desc.indices, [0, 1])

    def test_full_triples_stored(self):
        vals = np.arange(30.0).reshape(10, 3)
        desc = sd.complete_descriptor([4], coeffs_of(vals), augment=False)
        np.testing.assert_array_equal(desc.triples, vals[[4]])

    def test_completion_idempotent(self, beam_setup):
        _, _, _, coeffs = beam_setup
        t = sd.statistical_threshold(coeffs)
        idx = sd.select_by_threshold(coeffs, t)
        once = sd.complete_descriptor(idx, coeffs, augment=True, threshold=t)
        twice = sd.complete_descriptor(once.indices, coeffs, augment=True, threshold=t)
        np.testing.assert_array_equal(once.indices, twice.indices)
        np.testing.assert_array_equal(once.triples, twice.triples)

    @pytest.mark.parametrize("indices, augment", [([-1], False), ([10], False),
                                                  ([0], True)])
    def test_index_out_of_range_rejected(self, indices, augment):
        # with augment, rows 0 and 1 are checked too: M=1 has no row 1
        m = 1 if augment else 10
        with pytest.raises(ValueError, match=rf"index out of coefficient range \[0, {m}\)"):
            sd.complete_descriptor(indices, coeffs_of(np.ones((m, 3))), augment=augment)

    def test_oversized_descriptor_warns(self):
        c = coeffs_of(np.ones((10, 3)))
        with pytest.warns(UserWarning, match="not compact"):
            sd.complete_descriptor(range(10), c)

    def test_beam_descriptor_is_compact(self, beam_setup):
        _, _, _, coeffs = beam_setup
        t = sd.statistical_threshold(coeffs)
        desc = sd.complete_descriptor(
            sd.select_by_threshold(coeffs, t), coeffs, augment=True, threshold=t
        )
        assert 2 <= desc.size_m <= 50


class TestReconstructionError:
    def test_full_subset_near_zero(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        ref = sd.reconstruct_geometry(basis, coeffs, None)
        err = sd.reconstruction_error(basis, coeffs, np.arange(basis.m), ref)
        assert err <= 1e-10

    def test_empty_subset_is_reference_norm(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        ref = sd.reconstruct_geometry(basis, coeffs, None)
        err = sd.reconstruction_error(basis, coeffs, [], ref)
        expect = np.sqrt(np.mean(np.sum(ref**2, axis=1)))
        assert err == pytest.approx(expect, rel=1e-12)

    def test_no_subset_is_every_index(self, beam_setup):
        # None means all M rows, as in reconstruct_geometry
        _, basis, _, coeffs = beam_setup
        ref = sd.reconstruct_geometry(basis, coeffs, None)
        assert sd.reconstruction_error(basis, coeffs, None, ref) == 0.0

    @pytest.mark.parametrize("other", ["fingerprint", "M"])
    def test_empty_subset_of_another_basis_rejected(self, beam_setup, other):
        _, basis, _, coeffs = beam_setup
        ref = sd.reconstruct_geometry(basis, coeffs, None)
        foreign, error, message = of_another_basis(basis, coeffs, other)
        with pytest.raises(error, match=message):
            sd.reconstruction_error(basis, foreign, [], ref)

    @pytest.mark.parametrize("shape", [(500, 2), (499, 3), (1500,)])
    def test_reference_of_another_shape_rejected(self, beam_setup, shape):
        _, basis, _, coeffs = beam_setup
        with pytest.raises(ValueError, match=re.escape(
                f"reference has shape {shape}, expected (500, 3)")):
            sd.reconstruction_error(basis, coeffs, None, np.zeros(shape))

    def test_descriptor_beats_eigenvalue_order(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        t = sd.statistical_threshold(coeffs)
        desc = sd.complete_descriptor(
            sd.select_by_threshold(coeffs, t), coeffs, augment=True, threshold=t
        )
        ref = sd.reconstruct_geometry(basis, coeffs, None)
        e_desc = sd.reconstruction_error(basis, coeffs, desc.indices, ref)
        e_ord = sd.reconstruction_error(basis, coeffs, np.arange(desc.size_m), ref)
        assert e_desc <= e_ord + 1e-12


class TestCompareReconstructions:
    def test_equals_reconstruction_error(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        desc = sd.build_descriptor(coeffs, augment=True)
        got = sd.compare_reconstructions(basis, coeffs, desc)
        ref = sd.reconstruct_geometry(basis, coeffs, None)
        assert list(got) == ["descriptor", "first_m_ordered"]
        for name, subset in (("descriptor", desc.indices),
                             ("first_m_ordered", np.arange(desc.size_m))):
            coords, err = got[name]
            np.testing.assert_array_equal(
                coords, sd.reconstruct_geometry(basis, coeffs, subset)
            )
            # from the coefficients, which by Parseval is the geometric error
            assert err == sd.descriptor._truncation_rms(basis, coeffs, subset)
            assert err == pytest.approx(
                sd.reconstruction_error(basis, coeffs, subset, ref), rel=1e-12, abs=0)
        assert got["descriptor"][1] <= got["first_m_ordered"][1] + 1e-12

    def test_descriptor_of_another_basis_rejected(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        desc = sd.complete_descriptor([0, 1], coeffs_of(coeffs.values, fp="ff" * 32))
        with pytest.raises(FingerprintMismatchError):
            sd.compare_reconstructions(basis, coeffs, desc)


class TestTuneThreshold:
    def test_infinite_target_minimal_descriptor(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        t, desc, achieved = sd.tune_threshold(coeffs, basis, np.inf)
        assert desc.size_m >= 1
        # t sits just below the largest coefficient magnitude
        assert t >= 0.99 * np.sort(np.abs(coeffs.values).ravel())[-2]

    def test_exact_sparsity_target_zero(self, beam_setup):
        _, basis, _, _ = beam_setup
        vals = np.zeros((basis.m, 3))
        vals[[2, 7, 11]] = [[3.0, -1.0, 0.5], [0.0, 2.0, 0.0], [-4.0, 0.0, 1.0]]
        sparse_coeffs = sd.SpectralCoefficients(vals, basis.fingerprint)
        t, desc, achieved = sd.tune_threshold(sparse_coeffs, basis, 0.0)
        np.testing.assert_array_equal(desc.indices, [2, 7, 11])
        assert achieved == 0.0

    def test_monotone_target_sweep(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        diag = 412.0
        sizes = []
        for frac in (0.10, 0.02, 0.004):
            _, desc, _ = sd.tune_threshold(coeffs, basis, frac * diag)
            sizes.append(desc.size_m)
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("augment", [False, True])
    def test_all_zero_coefficients_raise_empty_selection(self, beam_setup, augment):
        # no threshold selects anything, and the target is not what failed
        _, basis, _, _ = beam_setup
        zeros = sd.SpectralCoefficients(np.zeros((basis.m, 3)), basis.fingerprint)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySelectionError):
                sd.tune_threshold(zeros, basis, 1.0, augment=augment)

    def test_tiny_target_reachable_at_full_support(self, beam_setup):
        # error is measured against the M-truncated reference, so near-zero
        # targets are reachable by keeping (essentially) the full support
        _, basis, _, coeffs = beam_setup
        t, desc, achieved = sd.tune_threshold(coeffs, basis, 1e-9)
        assert achieved <= 1e-9


class TestTuneThresholdLevels:
    """tune_threshold keeps the fewest levels (distinct nonzero row maxima of
    |alpha|) that meet the target, as a scan over every level finds them."""

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("frac", [0.3, 0.1, 0.03, 0.01, 0.003])
    def test_equals_scan_over_every_level(self, beam_setup, monkeypatch, frac, augment):
        _, basis, _, coeffs = beam_setup
        reference = sd.reconstruct_geometry(basis, coeffs)
        target = frac * np.sqrt(np.mean(np.sum(reference ** 2, axis=1)))
        row_max = np.abs(coeffs.values).max(axis=1)
        levels = np.unique(row_max[row_max > 0])[::-1]
        for level in levels:
            rows = np.flatnonzero(row_max >= level)
            if augment:
                rows = np.union1d(rows, [0, 1])
            scan_err = sd.reconstruction_error(basis, coeffs, rows, reference)
            if scan_err <= target:
                break
        calls = []
        reconstruct = sd.descriptor.reconstruct_geometry

        def counted(*args):
            calls.append(args)
            return reconstruct(*args)

        monkeypatch.setattr(sd.descriptor, "reconstruct_geometry", counted)
        t, desc, achieved = sd.tune_threshold(coeffs, basis, target, augment=augment)
        np.testing.assert_array_equal(desc.indices, rows)
        assert achieved == pytest.approx(scan_err, rel=1e-12, abs=0)
        assert desc.threshold == t
        # the errors come from the coefficients, so nothing is decoded
        assert calls == []
        selected = sd.select_by_threshold(coeffs, t)
        if augment:
            selected = np.union1d(selected, [0, 1])
        np.testing.assert_array_equal(selected, desc.indices)
        # t is the largest threshold that selects these rows
        assert (row_max > np.nextafter(t, np.inf)).sum() < (row_max > t).sum()

    def test_nan_target_rejected(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        with pytest.raises(ValueError, match="target_rms must be >= 0, got nan"):
            sd.tune_threshold(coeffs, basis, float("nan"))

    def test_zero_target_keeps_every_row_without_a_miss(self, beam_setup):
        # keeping every nonzero row leaves an error of exactly 0, so a target
        # of 0 is met; the only warning is that the descriptor is not compact
        _, basis, _, coeffs = beam_setup
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t, desc, achieved = sd.tune_threshold(coeffs, basis, 0.0)
        assert [str(w.message) for w in caught] == [
            f"descriptor has {basis.m} indices, more than 10% of M={basis.m}; "
            "not compact"]
        np.testing.assert_array_equal(desc.indices,
                                      np.flatnonzero(coeffs.values.any(axis=1)))
        assert achieved == 0.0

    def test_augmented_rows_count_as_kept(self, beam_setup):
        # rows 0 and 1 have the smallest levels; kept anyway, their energy is
        # not left out, so level 10 alone meets a target just above row 9's
        _, basis, _, _ = beam_setup
        vals = np.zeros((basis.m, 3))
        vals[[0, 1, 5, 9]] = [[0.1, 0, 0], [0, 0.1, 0], [10.0, 0, 0], [0, 0, 1.0]]
        sparse_coeffs = sd.SpectralCoefficients(vals, basis.fingerprint)
        target = np.sqrt(1.01 / basis.n)
        _, desc, achieved = sd.tune_threshold(sparse_coeffs, basis, target, augment=True)
        np.testing.assert_array_equal(desc.indices, [0, 1, 5])
        assert achieved == pytest.approx(np.sqrt(1.0 / basis.n), rel=1e-12)
        _, desc, _ = sd.tune_threshold(sparse_coeffs, basis, target)
        np.testing.assert_array_equal(desc.indices, [5, 9])

    def test_coefficients_of_another_basis_rejected(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        with pytest.raises(FingerprintMismatchError):
            sd.tune_threshold(coeffs_of(coeffs.values, fp="ff" * 32), basis, 1.0)

    def test_coefficients_of_another_m_rejected(self, beam_setup):
        _, basis, _, coeffs = beam_setup
        fewer = sd.SpectralCoefficients(coeffs.values[:-1], basis.fingerprint)
        with pytest.raises(ValueError, match=f"M={basis.m - 1} but basis M={basis.m}"):
            sd.tune_threshold(fewer, basis, 1.0)

    @pytest.mark.parametrize("other", ["fingerprint", "M"])
    def test_basis_checked_before_the_descriptor_is_built(self, beam_setup, other):
        # a target of 0 keeps every row, which would warn "not compact" if the
        # descriptor were built before the basis is checked
        _, basis, _, coeffs = beam_setup
        foreign, error, message = of_another_basis(basis, coeffs, other)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                sd.tune_threshold(foreign, basis, 0.0)


class TestTruncationRms:
    """The error every reconstruction reports, from the coefficients alone,
    against the geometric error of ``reconstruction_error``."""

    @pytest.mark.parametrize("subset", ["empty", "descriptor", "first_m", "full"])
    def test_equals_reconstruction_error(self, beam_setup, subset):
        _, basis, _, coeffs = beam_setup
        desc = sd.build_descriptor(coeffs, augment=True)
        rows = {"empty": np.arange(0), "descriptor": desc.indices,
                "first_m": np.arange(desc.size_m), "full": np.arange(basis.m)}[subset]
        reference = sd.reconstruct_geometry(basis, coeffs, None)
        got = sd.descriptor._truncation_rms(basis, coeffs, rows)
        if subset == "full":
            assert got == 0.0
        else:
            assert got == pytest.approx(
                sd.reconstruction_error(basis, coeffs, rows, reference), rel=1e-12, abs=0)

    @pytest.mark.parametrize("index", [-1, 60])
    def test_index_out_of_range_rejected(self, beam_setup, index):
        _, basis, _, coeffs = beam_setup
        with pytest.raises(ValueError, match=r"index out of basis range \[0, 60\)"):
            sd.descriptor._truncation_rms(basis, coeffs, [0, index])


class TestJson:
    def test_roundtrip(self, beam_setup, tmp_path):
        _, _, _, coeffs = beam_setup
        t = sd.statistical_threshold(coeffs)
        desc = sd.complete_descriptor(
            sd.select_by_threshold(coeffs, t),
            coeffs,
            augment=True,
            threshold=t,
            label="axial crush",
        )
        path = tmp_path / "d.json"
        desc.save(path)
        again = sd.DeformationDescriptor.load(path)
        np.testing.assert_array_equal(again.indices, desc.indices)
        np.testing.assert_array_equal(again.triples, desc.triples)
        assert again.label == desc.label
        assert again.threshold == desc.threshold
        assert again.basis_fingerprint == desc.basis_fingerprint

    def test_stable_key_order(self, beam_setup):
        _, _, _, coeffs = beam_setup
        desc = sd.complete_descriptor([3], coeffs, threshold=1.0)
        text = desc.to_json()
        assert text.index('"label"') < text.index('"selection_mode"')
        assert text.index('"selection_mode"') < text.index('"threshold_t"')
        assert text.index('"threshold_t"') < text.index('"basis_fingerprint"')
        assert text.index('"basis_fingerprint"') < text.index('"entries"')


@pytest.mark.parametrize("field, value, message", [
    ("triples", [[np.nan, 0.0, 0.0]], "must be finite"),
    ("triples", [[0.0, np.inf, 0.0]], "must be finite"),
    ("threshold", np.nan, "must be finite"),
    ("threshold", -np.inf, "must be finite"),
    ("label", 5, "label must be a str"),
    ("label", None, "label must be a str"),
])
def test_descriptor_rejects_non_finite_numbers_and_a_label_not_str(field, value, message):
    # a NaN triple would score every shape 0.0 in a ranking
    args = {"indices": [0], "triples": [[1.0, 0.0, 0.0]], "threshold": 0.5, "label": "a"}
    with pytest.raises(ValueError, match=message):
        sd.DeformationDescriptor(**{**args, field: value})


def test_descriptor_without_an_index_rejected():
    with pytest.raises(EmptySelectionError, match="descriptor must contain at least one index"):
        sd.DeformationDescriptor([], np.zeros((0, 3)), 0.5)


@pytest.mark.parametrize("indices", [[-1], [0.7], [True], [0, True], [1.0, 2.0], [2**63]])
def test_descriptor_rejects_indices_not_integers_at_least_0(indices):
    # a negative index would score against row M-1, and 0.7 against row 0
    triples = np.ones((len(indices), 3))
    with pytest.raises(ValueError, match="descriptor indices must be integers >= 0"):
        sd.DeformationDescriptor(indices, triples, 0.5)
