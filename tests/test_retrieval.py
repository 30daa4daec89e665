import csv
import itertools

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform.retrieval import _kmeans_pp_init, _lloyd
from spectral_deform.spectral import FingerprintMismatchError


def coeffs_of(values, fp="a0" * 32):
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
        other = coeffs_of(np.ones((4, 3)), fp="ff" * 32)
        with pytest.raises(FingerprintMismatchError):
            cosine(desc, other)

    def test_index_beyond_the_candidates_m(self, simple):
        # the descriptor's index 3 is a row of a 4-row basis, not of a 3-row one
        _, desc = simple
        with pytest.raises(ValueError, match=r"index out of coefficient range \[0, 3\)"):
            cosine(desc, coeffs_of(np.ones((3, 3))))


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

    def test_nan_min_score_rejected(self, simple):
        # every comparison with NaN is False, so it would select nothing
        source, desc = simple
        with pytest.raises(ValueError, match="min_score must be a number, got nan"):
            sd.filter_bundle(desc, [source], min_score=float("nan"))

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

    @pytest.mark.parametrize("m", [0, 7, None])
    def test_first_m_outside_1_to_m_rejected(self, m):
        # an m above M is refused, not clamped to the M triples there are
        bundle, _ = self._blobs(m=6)
        with pytest.raises(ValueError, match=f"1 <= m <= M=6, got {m}"):
            sd.cluster_coefficients(bundle, 2, feature="first_m", m=m)

    def test_lloyd_reseeds_an_empty_cluster_at_the_farthest_point(self):
        # the third center is nearest to no point; it moves onto a point
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels, centers, inertia = _lloyd(x, np.array([[0.5], [10.5], [100.0]]))
        assert labels.tolist() == [2, 0, 1, 1]
        assert centers.ravel().tolist() == [1.0, 10.5, 0.0]
        assert inertia == 0.5

    def test_kmeans_pp_init_when_all_points_coincide_with_a_center(self):
        # squared distances of 1e-200 underflow to 0: no point can be drawn
        # by distance, so the next center is drawn uniformly
        x = np.array([[0.0], [1e-200]])
        centers = _kmeans_pp_init(x, 2, np.random.default_rng(0))
        assert set(centers.ravel()) <= {0.0, 1e-200}

    def test_unknown_feature_rejected(self):
        bundle, _ = self._blobs()
        with pytest.raises(ValueError, match="unknown feature 'eigenvalues'"):
            sd.cluster_coefficients(bundle, 2, feature="eigenvalues")


class TestExports:
    def test_ranking_csv(self, tmp_path, simple):
        source, desc = simple
        ranking = sd.rank_bundle(desc, sd.CoefficientStack.of([source], ["s0"]))
        path = tmp_path / "r.csv"
        sd.retrieval.write_ranking_csv(path, ranking)
        lines = path.read_text().splitlines()
        assert lines[0] == "shape_id,score,label"
        assert lines[1].startswith("s0,")

    def test_ranking_csv_bytes_of_a_plain_label(self, tmp_path):
        ranking = sd.SimilarityRanking(("a", "b"), np.array([1.0, 1 / 3]), "bend")
        sd.retrieval.write_ranking_csv(tmp_path / "r.csv", ranking)
        assert (tmp_path / "r.csv").read_bytes() == (
            b"shape_id,score,label\na,1.0,bend\nb,0.3333333333333333,bend\n")

    @pytest.mark.parametrize("label", ['bend, "left"', 'say "hi"', "two\nlines",
                                       "crlf\r\nend", "lone\rcr", ",", '"', ""])
    def test_ranking_csv_reads_back_every_label_whole(self, tmp_path, label):
        ranking = sd.SimilarityRanking(("a", "b,c"), np.array([1.0, -0.5]), label)
        path = tmp_path / "r.csv"
        sd.retrieval.write_ranking_csv(path, ranking)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows == [{"shape_id": "a", "score": "1.0", "label": label},
                        {"shape_id": "b,c", "score": "-0.5", "label": label}]

    def test_assignment_csv_bytes_of_plain_ids(self, tmp_path):
        assign = sd.ClusterAssignment(np.array([1, 0]), np.zeros((2, 3)), 0.0)
        sd.retrieval.write_assignment_csv(tmp_path / "a.csv", ["000", "001"], assign)
        assert (tmp_path / "a.csv").read_bytes() == b"shape_id,cluster\n000,1\n001,0\n"

    @pytest.mark.parametrize("shape_id", ["a,b", 'say "hi"', "two\nlines", "crlf\r\nend",
                                          "lone\rcr", ",", '"'])
    def test_assignment_csv_reads_back_every_id_whole(self, tmp_path, shape_id):
        assign = sd.ClusterAssignment(np.array([1, 0]), np.zeros((2, 3)), 0.0)
        path = tmp_path / "a.csv"
        sd.retrieval.write_assignment_csv(path, [shape_id, "plain"], assign)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows == [{"shape_id": shape_id, "cluster": "1"},
                        {"shape_id": "plain", "cluster": "0"}]

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
