import itertools

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform.spectral import FingerprintMismatchError


def coeffs_of(values, fp="fp"):
    return sd.SpectralCoefficients(np.asarray(values, dtype=float), fp)


def descriptor_of(indices, coeffs, label=""):
    return sd.complete_descriptor(indices, coeffs, threshold=0.0, label=label)


def cosine(desc, coeffs):
    """The score of a one-shape bundle."""
    return float(sd.rank_bundle(desc, [coeffs]).scores[0])


@pytest.fixture
def simple():
    source = coeffs_of([[1, 0, 0], [0, 2, 0], [0, 0, 0], [3, -1, 2]])
    desc = descriptor_of([0, 1, 3], source, label="probe")
    return source, desc


class TestCosine:
    def test_self_similarity(self, simple):
        source, desc = simple
        assert cosine(desc, source) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal(self, simple):
        source, desc = simple
        neg = coeffs_of(-source.values)
        assert cosine(desc, neg) == pytest.approx(-1.0, abs=1e-12)

    def test_scale_invariance(self, simple):
        source, desc = simple
        scaled = coeffs_of(source.values * 7.3)
        assert cosine(desc, scaled) == pytest.approx(
            cosine(desc, source), abs=1e-12
        )

    def test_matches_flatten_dot_oracle(self, simple):
        _, desc = simple
        rng = np.random.default_rng(0)
        cand = coeffs_of(rng.standard_normal((4, 3)))
        a = desc.triples.ravel()
        b = cand.values[desc.indices].ravel()
        oracle = float(
            sum(x * y for x, y in zip(a, b))
            / (np.sqrt(sum(x * x for x in a)) * np.sqrt(sum(y * y for y in b)))
        )
        assert cosine(desc, cand) == pytest.approx(oracle, abs=1e-12)

    def test_degenerate_candidate_scores_zero(self, simple):
        _, desc = simple
        zero = coeffs_of(np.zeros((4, 3)))
        with pytest.warns(UserWarning, match="degenerate"):
            assert cosine(desc, zero) == 0.0

    def test_fingerprint_mismatch(self, simple):
        _, desc = simple
        other = coeffs_of(np.ones((4, 3)), fp="other")
        with pytest.raises(FingerprintMismatchError):
            cosine(desc, other)


class TestRanking:
    def test_single_shape(self, simple):
        source, desc = simple
        ranking = sd.rank_bundle(desc, [source])
        assert ranking.ids == (0,)
        assert ranking.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_tie_break_by_id(self, simple):
        source, desc = simple
        dup = coeffs_of(source.values.copy())
        rng = np.random.default_rng(1)
        other = coeffs_of(rng.standard_normal((4, 3)))
        ranking = sd.rank_bundle(desc, [other, dup, source])
        assert ranking.ids[:2] == (1, 2)
        assert ranking.scores[0] == ranking.scores[1]

    def test_permutation_of_bundle(self, simple):
        source, desc = simple
        rng = np.random.default_rng(2)
        bundle = [coeffs_of(rng.standard_normal((4, 3))) for _ in range(10)]
        ranking = sd.rank_bundle(desc, bundle)
        assert sorted(ranking.ids) == list(range(10))
        assert (np.diff(ranking.scores) <= 1e-15).all()

    def test_scores_equal_the_per_shape_loop(self):
        rng = np.random.default_rng(10)
        bundle = [coeffs_of(rng.standard_normal((40, 3))) for _ in range(30)]
        bundle[7] = coeffs_of(np.zeros((40, 3)))
        desc = descriptor_of([0, 3, 4, 17, 39], bundle[2])
        a = desc.triples.ravel()
        expected = []
        for c in bundle:  # the per-shape cosine the stacked contraction replaced
            b = c.values[desc.indices].ravel()
            nb = np.linalg.norm(b)
            expected.append(0.0 if nb < 1e-14 else a @ b / (np.linalg.norm(a) * nb))
        with pytest.warns(UserWarning, match="degenerate"):
            ranking = sd.rank_bundle(desc, bundle)
        np.testing.assert_array_equal(
            ranking.scores, np.array(expected)[list(ranking.ids)]
        )

    def test_empty_bundle(self, simple):
        _, desc = simple
        with pytest.raises(ValueError, match="empty"):
            sd.rank_bundle(desc, [])


class TestFilter:
    def test_unsatisfiable_min_score(self, simple):
        source, desc = simple
        assert sd.filter_bundle(desc, [source], min_score=1.0 + 1e-9) == []

    def test_top_k_full_is_identity(self, simple):
        source, desc = simple
        rng = np.random.default_rng(3)
        bundle = [source] + [coeffs_of(rng.standard_normal((4, 3))) for _ in range(5)]
        got = sd.filter_bundle(desc, bundle, top_k=6)
        assert got == list(sd.rank_bundle(desc, bundle).ids)

    def test_top_k_clamped_with_warning(self, simple):
        source, desc = simple
        with pytest.warns(UserWarning, match="clamp"):
            got = sd.filter_bundle(desc, [source], top_k=5)
        assert got == [0]

    def test_prefix_consistency(self, simple):
        source, desc = simple
        rng = np.random.default_rng(4)
        bundle = [coeffs_of(rng.standard_normal((4, 3))) for _ in range(20)]
        ranking = sd.rank_bundle(desc, bundle)
        assert sd.filter_bundle(desc, bundle, top_k=9) == list(ranking.ids[:9])

    @pytest.mark.parametrize("top_k", [0, -1, -100])
    def test_top_k_below_one_rejected(self, simple, top_k):
        # as a slice bound, -1 would drop the last shape and 0 or -S all
        source, desc = simple
        with pytest.raises(ValueError, match=f"top_k must be at least 1, got {top_k}"):
            sd.filter_bundle(desc, [source, source], top_k=top_k)

    def test_exactly_one_mode_required(self, simple):
        source, desc = simple
        with pytest.raises(ValueError):
            sd.filter_bundle(desc, [source])
        with pytest.raises(ValueError):
            sd.filter_bundle(desc, [source], top_k=1, min_score=0.0)


class TestClustering:
    def _blobs(self, n_per=10, sep=100.0, seed=0, m=4):
        rng = np.random.default_rng(seed)
        out, labels = [], []
        for c, center in enumerate([(-sep, 0, 0), (sep, 0, 0)]):
            for _ in range(n_per):
                vals = rng.standard_normal((m, 3))
                vals[0] += center
                out.append(coeffs_of(vals))
                labels.append(c)
        return out, labels

    def test_separated_blobs_perfect(self):
        bundle, labels = self._blobs()
        assign = sd.cluster_coefficients(bundle, 2, seed=5)
        # same partition up to label swap
        a = assign.labels
        flips = [(a == l).all() for l in (np.array(labels), 1 - np.array(labels))]
        assert any(flips)

    def test_k_equals_bundle_size(self):
        rng = np.random.default_rng(6)
        bundle = [coeffs_of(rng.standard_normal((3, 3))) for _ in range(6)]
        assign = sd.cluster_coefficients(bundle, 6, seed=0)
        assert len(set(assign.labels.tolist())) == 6
        assert assign.inertia == pytest.approx(0.0, abs=1e-18)

    def test_k_bounds(self):
        rng = np.random.default_rng(7)
        bundle = [coeffs_of(rng.standard_normal((3, 3))) for _ in range(4)]
        with pytest.raises(ValueError):
            sd.cluster_coefficients(bundle, 1)
        with pytest.raises(ValueError):
            sd.cluster_coefficients(bundle, 5)

    def test_k_exceeds_distinct_points(self):
        c = coeffs_of(np.ones((3, 3)))
        bundle = [c, coeffs_of(np.ones((3, 3))), coeffs_of(np.zeros((3, 3)) + 2)]
        with pytest.raises(ValueError, match="distinct"):
            sd.cluster_coefficients(bundle, 3)

    def test_seed_determinism(self):
        bundle, _ = self._blobs(seed=8)
        a = sd.cluster_coefficients(bundle, 2, seed=3)
        b = sd.cluster_coefficients(bundle, 2, seed=3)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_first_m_feature_dimensions(self):
        bundle, _ = self._blobs(m=6)
        assign = sd.cluster_coefficients(bundle, 2, feature="first_m", m=4)
        assert assign.centroids.shape == (2, 12)


class TestExports:
    def test_ranking_csv(self, tmp_path, simple):
        source, desc = simple
        ranking = sd.rank_bundle(desc, sd.CoefficientStack.of([source], ["s0"]))
        path = tmp_path / "r.csv"
        sd.retrieval.write_ranking_csv(path, ranking)
        lines = path.read_text().splitlines()
        assert lines[0] == "shape_id,score,label"
        assert lines[1].startswith("s0,")

    def test_assignment_csv(self, tmp_path):
        rng = np.random.default_rng(9)
        bundle = [coeffs_of(rng.standard_normal((3, 3))) for _ in range(4)]
        assign = sd.cluster_coefficients(bundle, 2, seed=0)
        path = tmp_path / "a.csv"
        sd.retrieval.write_assignment_csv(path, list(range(4)), assign)
        lines = path.read_text().splitlines()
        assert lines[0] == "shape_id,cluster"
        assert len(lines) == 5

    def test_scatter_data(self, tmp_path):
        bundle = [coeffs_of([[1.5, 2.5, -3.0], [0, 0, 0]])]
        path = tmp_path / "s.dat"
        sd.retrieval.write_scatter_data(path, bundle)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "1.5 2.5 -3.0"
