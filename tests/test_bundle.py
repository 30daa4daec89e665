import json

import numpy as np
import pytest

import spectral_deform as sd
from conftest import SMALL_BEAM


class TestHatBeam:
    def test_default_beam_valid(self):
        mesh = sd.generate_hat_beam(sd.BeamParams())
        assert 500 <= mesh.n_vertices <= 20000
        areas = sd.laplacian.triangle_areas(mesh)
        assert areas.min() > 1e-12 * areas.mean()

    def test_doubling_axial_segments_doubles_n(self):
        a = sd.generate_hat_beam(SMALL_BEAM)
        b = sd.generate_hat_beam(
            sd.BeamParams(axial_segments=48, section_segments=4)
        )
        ratio = b.n_vertices / a.n_vertices
        assert 1.9 <= ratio <= 2.0

    def test_zero_height_rejected(self):
        with pytest.raises(ValueError, match="hat_height"):
            sd.BeamParams(hat_height=0.0)

    @pytest.mark.parametrize("name", ["length", "hat_width", "hat_height", "flange_width"])
    def test_nan_dimension_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be > 0, got nan"):
            sd.BeamParams(**{name: float("nan")})

    @pytest.mark.parametrize("name", ["length", "hat_width", "hat_height", "flange_width"])
    def test_infinite_dimension_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
            sd.BeamParams(**{name: float("inf")})

    @pytest.mark.parametrize("name", ["axial_segments", "section_segments"])
    def test_fewer_than_two_segments_rejected(self, name):
        with pytest.raises(ValueError, match="segment counts must be >= 2"):
            sd.BeamParams(**{name: 1})

    def test_vertex_ordering_axial_major(self, small_beam):
        x = small_beam.vertices[:, 0]
        # stations are contiguous blocks of constant x, ascending
        ring = np.flatnonzero(np.diff(x) > 0)[0] + 1
        stations = x.reshape(-1, ring)
        assert (np.ptp(stations, axis=1) == 0).all()
        assert (np.diff(stations[:, 0]) > 0).all()

    def test_n_outside_bounds_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            sd.generate_hat_beam(sd.BeamParams(axial_segments=2, section_segments=2))


def _loop_ring_profile(params):
    """The cross-section built point by point in Python floats: the reference
    that the array-built ``_ring_profile`` must equal bit for bit."""
    w, h, fl = params.hat_width, params.hat_height, params.flange_width
    cs = params.section_segments
    corners = [(-w / 2 - fl, 0.0), (-w / 2, 0.0), (-w / 2, h), (w / 2, h),
               (w / 2, 0.0), (w / 2 + fl, 0.0)]
    subdiv = [max(2, cs // 4), max(2, cs // 3), cs, max(2, cs // 3), max(2, cs // 4)]
    pts = [corners[0]]
    for (a, b), ns in zip(zip(corners[:-1], corners[1:]), subdiv):
        for s in range(1, ns + 1):
            f = s / ns
            pts.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    a, b = corners[-1], corners[0]
    for s in range(1, 2 * cs):
        f = s / (2 * cs)
        pts.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    return np.array(pts)


def _loop_triangles(na, r):
    """The beam's triangles appended one by one: per station, per ring point,
    the two triangles of its quad."""
    tris = []
    for a in range(na):
        for k in range(r):
            v00, v01 = a * r + k, a * r + (k + 1) % r
            tris += [(v00, v01, v01 + r), (v00, v01 + r, v00 + r)]
    return np.array(tris, dtype=np.int64)


# the acceptance, large_mesh and smoke beams, two generate options and the
# fewest section segments
BEAMS = {
    "acceptance": sd.BeamParams(),
    "large_mesh": sd.BeamParams(axial_segments=200),
    "smoke": SMALL_BEAM,
    "hat_width_90": sd.BeamParams(hat_width=90.0),
    "section_7_flange_9.3": sd.BeamParams(section_segments=7, flange_width=9.3),
    "section_2": sd.BeamParams(section_segments=2),
}


@pytest.mark.parametrize("name", BEAMS)
def test_array_built_beam_equals_the_loop_built_one(name):
    params = BEAMS[name]
    ring = sd.bundle._ring_profile(params)
    expected = _loop_ring_profile(params)
    assert ring.dtype == expected.dtype and ring.shape == expected.shape
    assert ring.tobytes() == expected.tobytes()
    tris = sd.generate_hat_beam(params).triangles
    expected = _loop_triangles(params.axial_segments, len(ring))
    assert tris.dtype == expected.dtype and tris.shape == expected.shape
    assert tris.tobytes() == expected.tobytes()


class TestApplyDeformation:
    def test_identity_when_zero(self, small_beam):
        spec = sd.DeformationSpec("upward_bend", 0.0, 0.5, noise_sigma=0.0)
        coords = sd.apply_deformation(small_beam, spec)
        np.testing.assert_array_equal(coords, small_beam.vertices)

    def test_up_down_negated(self, small_beam):
        up = sd.apply_deformation(
            small_beam, sd.DeformationSpec("upward_bend", 25.0, 0.4, noise_sigma=0.0)
        )
        down = sd.apply_deformation(
            small_beam, sd.DeformationSpec("downward_bend", 25.0, 0.4, noise_sigma=0.0)
        )
        np.testing.assert_allclose(
            up[:, 2] - small_beam.vertices[:, 2],
            -(down[:, 2] - small_beam.vertices[:, 2]),
            atol=1e-12,
        )
        np.testing.assert_array_equal(up[:, :2], down[:, :2])

    def test_crush_location_mirror(self, small_beam):
        a = sd.apply_deformation(
            small_beam, sd.DeformationSpec("axial_crush", 20.0, 0.3, noise_sigma=0.0)
        )
        b = sd.apply_deformation(
            small_beam, sd.DeformationSpec("axial_crush", 20.0, 0.7, noise_sigma=0.0)
        )
        ring = 20  # section_segments=4 profile
        fa = np.linalg.norm(a - small_beam.vertices, axis=1).reshape(-1, ring)
        fb = np.linalg.norm(b - small_beam.vertices, axis=1).reshape(-1, ring)
        np.testing.assert_allclose(fa, fb[::-1], atol=1e-9)

    def test_bend_near_isometric_at_default_amplitude(self, small_beam):
        amp = sd.bundle.MODE_DEFAULT_AMPLITUDE["upward_bend"]
        coords = sd.apply_deformation(
            small_beam, sd.DeformationSpec("upward_bend", amp, 0.5, noise_sigma=0.0)
        )
        e = small_beam.edges()
        l0 = np.linalg.norm(
            small_beam.vertices[e[:, 0]] - small_beam.vertices[e[:, 1]], axis=1
        )
        l1 = np.linalg.norm(
            coords[e[:, 0]] - coords[e[:, 1]], axis=1
        )
        assert np.mean(np.abs(l1 - l0) / l0) <= 0.02

    def test_extreme_amplitude_warns(self, small_beam):
        with pytest.warns(UserWarning, match="inverts or collapses"):
            sd.apply_deformation(
                small_beam,
                sd.DeformationSpec("axial_crush", 500.0, 0.5, noise_sigma=0.0),
            )

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            sd.DeformationSpec("sideways", 1.0)
        with pytest.raises(ValueError):
            sd.DeformationSpec("upward_bend", -1.0)
        with pytest.raises(ValueError):
            sd.DeformationSpec("upward_bend", 1.0, location=1.5)
        with pytest.raises(ValueError):
            sd.DeformationSpec("axial_crush", 1.0, fold_count=0)
        with pytest.raises(ValueError, match="amplitude must be >= 0, got nan"):
            sd.DeformationSpec("upward_bend", float("nan"))
        with pytest.raises(ValueError, match="noise_sigma must be >= 0, got nan"):
            sd.DeformationSpec("upward_bend", 1.0, noise_sigma=float("nan"))
        with pytest.raises(ValueError, match="amplitude must be finite, got inf"):
            sd.DeformationSpec("upward_bend", float("inf"))
        with pytest.raises(ValueError, match="noise_sigma must be finite, got inf"):
            sd.DeformationSpec("upward_bend", 1.0, noise_sigma=float("inf"))


class TestGenerateBundle:
    def test_three_modes_distinguishable_by_field_correlation(self):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=0, noise_sigma=0.0)
        fields = [
            np.linalg.norm(s - bundle.base.vertices, axis=1)
            for s in bundle.states
        ]
        corr = np.corrcoef(np.array(fields))
        # same-shape autocorrelation 1, cross-mode clearly lower
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            assert corr[i, j] < 0.999

    def test_same_seed_bitwise_identical(self):
        a = sd.generate_bundle(SMALL_BEAM, (2, 2, 2), seed=42)
        b = sd.generate_bundle(SMALL_BEAM, (2, 2, 2), seed=42)
        assert a.manifest == b.manifest
        np.testing.assert_array_equal(a.states, b.states)

    @pytest.mark.parametrize("per_mode", [(1, 1, 0), (0, 0, 2), (0, 0, 0)])
    def test_fewer_than_three_states_rejected(self, per_mode):
        with pytest.raises(ValueError, match="need at least 3 states in total"):
            sd.generate_bundle(SMALL_BEAM, per_mode)

    @pytest.mark.parametrize("per_mode", [(-5, 5, 5), (5, 5), (1, 1, 1, 1)])
    def test_counts_other_than_three_non_negative_rejected(self, per_mode):
        with pytest.raises(ValueError, match="need 3 state counts, each >= 0"):
            sd.generate_bundle(SMALL_BEAM, per_mode)

    def test_label_partition(self):
        bundle = sd.generate_bundle(SMALL_BEAM, (4, 3, 3), seed=1)
        assert bundle.labels == (
            ["upward_bend"] * 4 + ["downward_bend"] * 3 + ["axial_crush"] * 3
        )

    def test_states_share_base_size(self):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=2)
        assert bundle.states.shape == (3, *bundle.base.vertices.shape)
        assert bundle.states.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            bundle.states[0, 0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(2, 500, 3), (4, 500, 3), (3, 499, 3),
                                       (3, 500, 2), (500, 3)])
    def test_states_of_another_shape_rejected(self, shape):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=2)
        with pytest.raises(ValueError, match=r"\(S, N, 3\) = \(3, 500, 3\)"):
            sd.SimulationBundle(bundle.base, np.zeros(shape), bundle.manifest)

    @pytest.mark.parametrize("axial, section", [(60, 12), (200, 12), (24, 4), (30, 8)])
    def test_default_noise_sigma_is_half_a_percent_of_the_beam_diagonal(self, axial,
                                                                        section):
        # worked out from the parameters, bit for bit the mesh's own diagonal
        params = sd.BeamParams(axial_segments=axial, section_segments=section)
        diag = np.linalg.norm(np.ptp(sd.generate_hat_beam(params).vertices, axis=0))
        assert sd.bundle.default_noise_sigma(params) == 0.005 * diag

    def test_manifest_roundtrip_bitwise(self):
        bundle = sd.generate_bundle(SMALL_BEAM, (2, 1, 2), seed=3)
        again = sd.bundle_from_manifest(bundle.manifest)
        np.testing.assert_array_equal(again.base.vertices, bundle.base.vertices)
        np.testing.assert_array_equal(again.states, bundle.states)

    def test_manifest_of_another_version_rejected(self):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=3)
        with pytest.raises(ValueError, match="unsupported manifest version 2"):
            sd.bundle_from_manifest({**bundle.manifest, "version": 2})


class TestDiskFormat:
    def test_save_load(self, tmp_path):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=4)
        sd.save_bundle(tmp_path / "b", bundle)
        assert (tmp_path / "b" / "base.off").exists()
        assert (tmp_path / "b" / "states" / "002.off").exists()
        loaded = sd.load_bundle(tmp_path / "b")
        assert loaded.labels == bundle.labels
        np.testing.assert_array_equal(
            loaded.base.vertices, bundle.base.vertices
        )
        np.testing.assert_array_equal(loaded.states, bundle.states)

    def test_non_finite_state_writes_nothing(self, tmp_path):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=4)
        states = bundle.states.copy()
        states[2, 7, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            sd.save_bundle(tmp_path / "b", sd.SimulationBundle(
                bundle.base, states, bundle.manifest))
        assert not (tmp_path / "b").exists()

    def test_manifest_schema(self, tmp_path):
        bundle = sd.generate_bundle(SMALL_BEAM, (1, 1, 1), seed=5)
        sd.save_bundle(tmp_path / "b", bundle)
        with open(tmp_path / "b" / "manifest.json") as f:
            doc = json.load(f)
        assert doc["version"] == 1
        assert doc["seed"] == 5
        assert len(doc["states"]) == 3
        for entry in doc["states"]:
            assert {"mode", "amplitude", "location", "fold_count",
                    "noise_sigma", "seed", "label"} <= set(entry)
