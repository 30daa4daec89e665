import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import spectral_deform as sd
from conftest import SMALL_BEAM
from spectral_deform import mesh
from spectral_deform.mesh import MeshError

MIN_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
MIN_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


class TestParse:
    def test_minimal_off(self):
        m = sd.parse_mesh(MIN_OFF)
        assert m.n_vertices == 3
        assert m.n_triangles == 1
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])

    def test_bytes_input(self):
        m = sd.parse_mesh(MIN_OFF.encode())
        assert m.n_vertices == 3

    def test_count_mismatch(self):
        bad = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        with pytest.raises(MeshError, match="declares"):
            sd.parse_mesh(bad)

    def test_out_of_range_index(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n"
        with pytest.raises(MeshError, match="out of range"):
            sd.parse_mesh(bad)

    def test_non_triangle_face(self):
        bad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(MeshError, match="triangle"):
            sd.parse_mesh(bad)

    def test_disconnected_reports_components(self):
        bad = (
            "OFF\n6 2 0\n0 0 0\n1 0 0\n0 1 0\n5 5 0\n6 5 0\n5 6 0\n"
            "3 0 1 2\n3 3 4 5\n"
        )
        with pytest.raises(MeshError, match="2 components"):
            sd.parse_mesh(bad)

    def test_degenerate_index_triple(self):
        bad = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n"
        with pytest.raises(MeshError, match="repeat"):
            sd.parse_mesh(bad)


class TestWrite:
    # through the text, then through a file of that extension
    @pytest.mark.parametrize("suffix", ["off"])
    def test_roundtrip_minimal(self, tmp_path, suffix):
        m = sd.parse_mesh(MIN_OFF)
        path = tmp_path / f"m.{suffix}"
        sd.save_mesh(path, m)
        for again in (sd.parse_mesh(sd.write_mesh(m)), sd.load_mesh(path)):
            np.testing.assert_array_equal(m.triangles, again.triangles)
            np.testing.assert_allclose(again.vertices, m.vertices, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("suffix", ["off"])
    def test_roundtrip_generated_beam(self, tmp_path, small_beam, suffix):
        path = tmp_path / f"m.{suffix}"
        sd.save_mesh(path, small_beam)
        for again in (sd.parse_mesh(sd.write_mesh(small_beam)), sd.load_mesh(path)):
            np.testing.assert_array_equal(small_beam.triangles, again.triangles)
            np.testing.assert_array_equal(small_beam.vertices, again.vertices)

    def test_nan_refused(self):
        m = sd.parse_mesh(MIN_OFF)
        v = m.vertices.copy()
        v[0, 0] = np.nan
        bad = sd.TriangleMesh.__new__(sd.TriangleMesh)
        object.__setattr__(bad, "vertices", v)
        object.__setattr__(bad, "triangles", m.triangles)
        with pytest.raises(MeshError, match="finite"):
            sd.write_mesh(bad)

    def test_random_coordinates_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((20, 3)) * 1e3
        tris = [(i, i + 1, i + 2) for i in range(18)]
        m = sd.TriangleMesh(v, np.array(tris))
        again = sd.parse_mesh(sd.write_mesh(m))
        np.testing.assert_array_equal(m.vertices, again.vertices)


def test_save_load_by_extension(tmp_path, small_beam):
    sd.save_mesh(tmp_path / "m.off", small_beam)
    again = sd.load_mesh(tmp_path / "m.off")
    np.testing.assert_array_equal(again.vertices, small_beam.vertices)
    np.testing.assert_array_equal(again.triangles, small_beam.triangles)


def test_obj_rejected(tmp_path, small_beam):
    path = tmp_path / "m.obj"
    with pytest.raises(MeshError, match="cannot infer mesh format"):
        sd.save_mesh(path, small_beam)
    assert not path.exists()
    path.write_text(MIN_OBJ)
    with pytest.raises(MeshError, match="cannot infer mesh format"):
        sd.load_mesh(path)


def test_non_off_path_rejected_before_reading(tmp_path):
    # the extension is checked first: a missing .obj file is the same
    # MeshError, not a FileNotFoundError
    path = tmp_path / "missing.obj"
    with pytest.raises(MeshError) as exc:
        sd.load_mesh(path)
    assert str(exc.value).startswith(f"mesh file {path}: MeshError: cannot infer mesh format")


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
    "counts on the header line": ("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", None, None),
    "empty": ("# only a comment\n", MeshError, "missing OFF header"),
    "no header": (MIN_OFF.removeprefix("OFF\n"), MeshError, "missing OFF header"),
    "no count line": ("OFF\n", MeshError, "missing OFF count line"),
    "one count": (
        MIN_OFF.replace("3 1 0", "3"), MeshError, "malformed OFF count line: '3'"),
    "non-numeric count": (
        MIN_OFF.replace("3 1 0", "3 x 0"), MeshError, "malformed OFF count line: '3 x 0'"),
}


@pytest.mark.parametrize("face", ["3 0 1.9 2", "3.0 0 1 2", "3 0 1e0 2"])
def test_non_integer_face_token_rejected(face):
    # no warnings-as-errors mark: the parser itself must refuse the token,
    # not truncate it through float with only a DeprecationWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="could not convert"):
            sd.parse_mesh(_off(VERTS, [face]))
    assert caught == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(OFF_CASES))
def test_off_parser_edge_cases(name):
    text, error, message = OFF_CASES[name]
    if error is None:
        m = sd.parse_mesh(text)
        np.testing.assert_array_equal(m.vertices, sd.parse_mesh(MIN_OFF).vertices)
        np.testing.assert_array_equal(m.triangles, [[0, 1, 2]])
        return
    with pytest.raises(ValueError) as exc:
        sd.parse_mesh(text)
    assert type(exc.value) is error
    if error is MeshError:
        assert str(exc.value) == message
    else:
        assert message in str(exc.value)


def test_negative_count_rejected():
    with pytest.raises(MeshError, match="malformed OFF count line: '-1 2 0'"):
        sd.parse_mesh("OFF\n-1 2 0\n3 0 1 2\n")


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
    text = sd.write_mesh(m)
    assert text == _per_scalar_off(m)
    again = sd.parse_mesh(text)
    np.testing.assert_array_equal(again.vertices.view(np.int64), m.vertices.view(np.int64))
    np.testing.assert_array_equal(again.triangles, m.triangles)


def _lines_per_line(content: str) -> list[str]:
    """The comment stripping that split each line at its first "#"."""
    out = []
    for raw in content.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


# every line boundary of str.splitlines ("\r\n" arises as "\r" then "\n")
LINE_ENDS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=500, deadline=None, database=None)
@given(st.text(alphabet=st.sampled_from(list("0123456789 \t#" + LINE_ENDS))))
@example("1 2 # a\r\n# b\x85 3 #\u2028\t4\x1c#")
def test_comment_stripping_matches_per_line_split(content):
    assert mesh._lines(content) == _lines_per_line(content)


BEAM = sd.generate_hat_beam(SMALL_BEAM)
EXTREMES = [-0.0, 5e-324, -5e-324, 1e308, -1e308]


@settings(max_examples=40, deadline=None, database=None)
@given(hnp.arrays(
    np.float64,
    BEAM.vertices.shape,
    elements=st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES),
))
@example(np.resize(EXTREMES, BEAM.vertices.shape))
def test_mesh_with_base_triangles_as_a_validated_one(vertices):
    """A mesh that takes the base's triangles writes the bytes of one built
    and validated from scratch, and reading a file like the base gives the
    vertex bits of a plain read with the base's own triangle array."""
    shared = BEAM.with_vertices(vertices)
    text = sd.write_mesh(shared)
    assert text == sd.write_mesh(sd.TriangleMesh(vertices, BEAM.triangles))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "state.off"
        sd.save_mesh(path, shared)
        like = sd.load_mesh(path, like=BEAM)
        plain = sd.load_mesh(path)
    np.testing.assert_array_equal(like.vertices.view(np.int64),
                                  plain.vertices.view(np.int64))
    assert like.triangles is BEAM.triangles


@pytest.mark.parametrize("vertices, triangles, message", [
    (np.zeros((3, 2)), [[0, 1, 2]], r"vertices must be \(N, 3\), got \(3, 2\)"),
    (np.zeros(9), [[0, 1, 2]], r"vertices must be \(N, 3\), got \(9,\)"),
    (np.eye(3), [0, 1, 2], r"triangles must be \(F, 3\), got \(3,\)"),
    (np.eye(3), [[0, 1, 2, 0]], r"triangles must be \(F, 3\), got \(1, 4\)"),
])
def test_arrays_of_another_shape_rejected(vertices, triangles, message):
    with pytest.raises(MeshError, match=message):
        sd.TriangleMesh(vertices, np.array(triangles))


@pytest.mark.parametrize("shape", [(499, 3), (501, 3), (500, 2)])
def test_with_vertices_rejects_another_shape(shape):
    with pytest.raises(MeshError, match=r"expected \(500, 3\) vertices"):
        BEAM.with_vertices(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_not_saved(tmp_path, bad):
    v = BEAM.vertices.copy()
    v[7, 1] = bad
    path = tmp_path / "state.off"
    with pytest.raises(MeshError, match="finite"):
        sd.save_mesh(path, BEAM.with_vertices(v))
    assert not path.exists()
