import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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

    def test_bytes_input(self):
        m = sd.parse_mesh(MIN_OFF.encode(), "off")
        assert m.n_vertices == 3

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
    @pytest.mark.parametrize("fmt", ["off"])
    def test_roundtrip_minimal(self, fmt):
        m = sd.parse_mesh(MIN_OFF, "off")
        again = sd.parse_mesh(sd.write_mesh(m, fmt), fmt)
        np.testing.assert_array_equal(m.triangles, again.triangles)
        np.testing.assert_allclose(again.vertices, m.vertices, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("fmt", ["off"])
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
    sd.save_mesh(tmp_path / "m.off", small_beam)
    again = sd.load_mesh(tmp_path / "m.off")
    np.testing.assert_array_equal(again.vertices, small_beam.vertices)
    np.testing.assert_array_equal(again.triangles, small_beam.triangles)


def test_obj_rejected(tmp_path, small_beam):
    with pytest.raises(MeshError, match="unknown mesh format 'obj'"):
        sd.parse_mesh(MIN_OBJ, "obj")
    with pytest.raises(MeshError, match="unknown mesh format 'obj'"):
        sd.write_mesh(small_beam, "obj")
    path = tmp_path / "m.obj"
    with pytest.raises(MeshError, match="cannot infer mesh format"):
        sd.save_mesh(path, small_beam)
    assert not path.exists()
    path.write_text(MIN_OBJ)
    with pytest.raises(MeshError, match="cannot infer mesh format"):
        sd.load_mesh(path)


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


VERTS = ["0 0 0", "1 0 0", "0 1 0"]


def _off(verts, faces):
    return "\n".join(["OFF", f"{len(verts)} {len(faces)} 0", *verts, *faces]) + "\n"


# Each row pins the result of the per-line parser the loadtxt one replaced:
# a MeshError the parser raises itself keeps its exact message; a token that
# fails to convert is a plain ValueError saying "could not convert".
OFF_CASES = {
    "extra vertex column": (_off(["0 0 0 7", *VERTS[1:]], ["3 0 1 2"]), None, None),
    "extra face column": (_off(VERTS, ["3 0 1 2 9"]), None, None),
    "tabs and runs of spaces": (
        "OFF\n3\t1  0\n0\t0   0\n1  0\t0\n 0 1 0 \n3\t0  1   2\n", None, None),
    "0 vertices": (_off([], ["3 0 1 2"]), MeshError, "need at least 3 vertices, got 0"),
    "0 faces": (_off(VERTS, []), MeshError, "need at least 1 triangle"),
    "face count 3.0": (_off(VERTS, ["3.0 0 1 2"]), ValueError, "could not convert"),
    "face 3 0 1": (_off(VERTS, ["3 0 1"]), MeshError, "face line 0: malformed: '3 0 1'"),
    "face 4 0 1 2 3": (
        _off(VERTS, ["4 0 1 2 3"]),
        MeshError, "face line 0: only triangles supported, got '4 0 1 2 3'"),
    "face 4 0 1": (
        _off(VERTS, ["4 0 1"]),
        MeshError, "face line 0: only triangles supported, got '4 0 1'"),
    "quad on face line 1": (
        _off([*VERTS, "1 1 0"], ["3 0 1 2", "4 0 1 3 2"]),
        MeshError, "face line 1: only triangles supported, got '4 0 1 3 2'"),
    "short vertex line": (
        _off(["0 0 0", "1 0", "0 1 0"], ["3 0 1 2"]),
        MeshError, "vertex line 1: expected 3 coordinates, got '1 0'"),
    "non-numeric coordinate": (
        _off(["0 0 0", "1 abc 0", "0 1 0"], ["3 0 1 2"]), ValueError, "could not convert"),
}


@pytest.mark.parametrize("face", ["3 0 1.9 2", "3.0 0 1 2", "3 0 1e0 2"])
def test_non_integer_face_token_rejected(face):
    # no warnings-as-errors mark: the parser itself must refuse the token,
    # not truncate it through float with only a DeprecationWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="could not convert"):
            sd.parse_mesh(_off(VERTS, [face]), "off")
    assert caught == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OFF_CASES))
def test_off_parser_edge_cases(name):
    text, error, message = OFF_CASES[name]
    if error is None:
        m = sd.parse_mesh(text, "off")
        np.testing.assert_array_equal(m.vertices, sd.parse_mesh(MIN_OFF, "off").vertices)
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])
        return
    with pytest.raises(ValueError) as exc:
        sd.parse_mesh(text, "off")
    assert type(exc.value) is error
    if error is MeshError:
        assert str(exc.value) == message
    else:
        assert message in str(exc.value)


def test_negative_count_rejected():
    with pytest.raises(MeshError, match="malformed OFF count line: '-1 2 0'"):
        sd.parse_mesh("OFF\n-1 2 0\n3 0 1 2\n", "off")


def _per_scalar_off(mesh):
    """The OFF text of the writer that formatted one numpy scalar at a time."""
    out = ["OFF", f"{mesh.n_vertices} {mesh.n_triangles} 0"]
    out += [" ".join(repr(float(c)) for c in row) for row in mesh.vertices]
    out += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    return "\n".join(out) + "\n"


BIG = np.finfo(np.float64).max


@settings(max_examples=200, deadline=None, database=None)
@given(hnp.arrays(
    np.float64,
    st.tuples(st.integers(3, 12), st.just(3)),
    elements=st.floats(allow_nan=False, allow_infinity=False),
))
@example(np.array([[-0.0, 5e-324, -5e-324],
                   [1e308, -1e308, 2.2250738585072014e-308],
                   [BIG, -BIG, 0.1]]))
def test_write_parse_bit_identical(vertices):
    n = len(vertices)
    fan = np.array([(0, i, i + 1) for i in range(1, n - 1)])
    m = sd.TriangleMesh(vertices, fan)
    text = sd.write_mesh(m, "off")
    assert text == _per_scalar_off(m)
    again = sd.parse_mesh(text, "off")
    np.testing.assert_array_equal(again.vertices.view(np.int64), m.vertices.view(np.int64))
    np.testing.assert_array_equal(again.triangles, m.triangles)
