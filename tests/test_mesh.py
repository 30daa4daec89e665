import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform.mesh import MeshError

MIN_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
MIN_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


class TestParse:
    def test_minimal_off(self):
        m = sd.parse_mesh(MIN_OFF, "off")
        assert m.n_vertices == 3
        assert m.n_triangles == 1
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])

    def test_obj_equals_off(self):
        a = sd.parse_mesh(MIN_OFF, "off")
        b = sd.parse_mesh(MIN_OBJ, "obj")
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)

    def test_bytes_input(self):
        m = sd.parse_mesh(MIN_OFF.encode(), "off")
        assert m.n_vertices == 3

    def test_obj_slash_indices_ignored_attrs(self):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1/1/1 2/2/1 3/3/1\n"
        m = sd.parse_mesh(text, "obj")
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])

    def test_count_mismatch(self):
        bad = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        with pytest.raises(MeshError, match="declares"):
            sd.parse_mesh(bad, "off")

    def test_out_of_range_index(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n"
        with pytest.raises(MeshError, match="out of range"):
            sd.parse_mesh(bad, "off")

    def test_non_triangle_face(self):
        bad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(MeshError, match="triangle"):
            sd.parse_mesh(bad, "off")

    def test_obj_quad_rejected(self):
        bad = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        with pytest.raises(MeshError, match="triangular"):
            sd.parse_mesh(bad, "obj")

    def test_disconnected_reports_components(self):
        bad = (
            "OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n5 5 0\n6 5 0\n5 6 0\n"
            "3 0 1 2\n3 3 4 5\n"
        )
        with pytest.raises(MeshError, match="2 components"):
            sd.parse_mesh(bad, "off")

    def test_degenerate_index_triple(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n"
        with pytest.raises(MeshError, match="repeat"):
            sd.parse_mesh(bad, "off")


class TestWrite:
    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_roundtrip_minimal(self, fmt):
        m = sd.parse_mesh(MIN_OFF, "off")
        again = sd.parse_mesh(sd.write_mesh(m, fmt), fmt)
        np.testing.assert_array_equal(m.triangles, again.triangles)
        np.testing.assert_allclose(again.vertices, m.vertices, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fmt", ["off", "obj"])
    def test_roundtrip_generated_beam(self, small_beam, fmt):
        again = sd.parse_mesh(sd.write_mesh(small_beam, fmt), fmt)
        np.testing.assert_array_equal(small_beam.triangles, again.triangles)
        np.testing.assert_array_equal(small_beam.vertices, again.vertices)

    def test_nan_refused(self):
        m = sd.parse_mesh(MIN_OFF, "off")
        v = m.vertices.copy()
        v[0, 0] = np.nan
        bad = sd.TriangleMesh.__new__(sd.TriangleMesh)
        object.__setattr__(bad, "vertices", v)
        object.__setattr__(bad, "triangles", m.triangles)
        with pytest.raises(MeshError, match="finite"):
            sd.write_mesh(bad, "off")

    def test_random_coordinates_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((20, 3)) * 1e3
        tris = [(i, i + 1, i + 2) for i in range(18)]
        m = sd.TriangleMesh(v, np.array(tris))
        again = sd.parse_mesh(sd.write_mesh(m, "off"), "off")
        np.testing.assert_array_equal(m.vertices, again.vertices)


class TestDisplacementField:
    def test_identity(self, small_beam):
        state = sd.DeformedState(small_beam.vertices)
        assert sd.displacement_field(state, small_beam).max() == 0.0

    def test_rigid_translation(self, small_beam):
        state = sd.DeformedState(small_beam.vertices + np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(
            sd.displacement_field(state, small_beam), 1.0, rtol=1e-12
        )

    def test_matches_per_vertex_loop(self, small_beam):
        spec = sd.DeformationSpec("upward_bend", 30.0, 0.4, noise_sigma=0.5)
        state = sd.apply_deformation(small_beam, spec, seed=11)
        got = sd.displacement_field(state, small_beam)
        expected = np.array(
            [
                np.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))
                for p, q in zip(state.coordinates, small_beam.vertices)
            ]
        )
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_invariant_under_simultaneous_translation(self, small_beam):
        spec = sd.DeformationSpec("axial_crush", 20.0, 0.5, noise_sigma=0.2)
        state = sd.apply_deformation(small_beam, spec, seed=5)
        shift = np.array([3.0, -2.0, 7.5])
        a = sd.displacement_field(state, small_beam)
        b = sd.displacement_field(
            sd.DeformedState(state.coordinates + shift),
            sd.TriangleMesh(small_beam.vertices + shift, small_beam.triangles),
        )
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_dimension_mismatch(self, small_beam):
        with pytest.raises(MeshError, match="mismatch"):
            sd.displacement_field(
                sd.DeformedState(small_beam.vertices[:-1]), small_beam
            )


def test_save_load_by_extension(tmp_path, small_beam):
    for name in ("m.off", "m.obj"):
        sd.save_mesh(tmp_path / name, small_beam)
        again = sd.load_mesh(tmp_path / name)
        np.testing.assert_array_equal(again.vertices, small_beam.vertices)
        np.testing.assert_array_equal(again.triangles, small_beam.triangles)


def test_vertices_immutable(small_beam):
    with pytest.raises(ValueError):
        small_beam.vertices[0, 0] = 99.0


@pytest.mark.parametrize("vertex, message", [
    ("1 0", "vertex line 1: expected 3 coordinates"),
    ("1 abc 0", "could not convert"),
])
def test_load_errors_name_the_file(tmp_path, vertex, message):
    path = tmp_path / "bad.off"
    path.write_text(MIN_OFF.replace("1 0 0", vertex))
    with pytest.raises(MeshError, match=message) as exc:
        sd.load_mesh(path)
    assert str(exc.value).startswith(f"mesh file {path}: ")
