"""Every output is written as a new file, never by truncating the old one.

Truncating a non-empty file makes ext4 (auto_da_alloc) flush its data on
close, which costs tens of milliseconds per rewritten output; unlink plus
create does not. A reader that holds the old file keeps the old bytes.
"""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform import retrieval

SRC = Path(sd.__file__).parent


def _coeffs(v):
    return sd.SpectralCoefficients(np.arange(12.0).reshape(4, 3) + v, "ab" * 32)


def _save_mesh(path, v):
    mesh = sd.generate_hat_beam(sd.BeamParams(axial_segments=24, section_segments=4))
    sd.save_mesh(path, sd.TriangleMesh(mesh.vertices + v, mesh.triangles))


def _save_basis(path, v):
    vecs = np.linalg.qr(np.arange(12.0).reshape(4, 3) ** 2 + 1)[0]
    sd.SpectralBasis(np.array([0.0, 1.0, 2.0 + v]), vecs).save(path)


def _save_descriptor(path, v):
    sd.DeformationDescriptor([1, 2], _coeffs(v).values[1:3], 0.0).save(path)


def _write_ranking(path, v):
    ranking = retrieval.SimilarityRanking(("a", "b"), np.array([1.0, 0.5 - v]), "x")
    retrieval.write_ranking_csv(path, ranking)


def _write_assignment(path, v):
    assignment = retrieval.ClusterAssignment(
        np.array([0, v]), np.zeros((2, 3)), 0.0
    )
    retrieval.write_assignment_csv(path, ["a", "b"], assignment)


def _save_manifest(path, v):
    bundle = sd.generate_bundle(
        sd.BeamParams(axial_segments=24, section_segments=4), (1, 1, 1), seed=v
    )
    sd.save_bundle(os.path.dirname(path), bundle)


# writer name -> (output file name, writer(path, variant))
WRITERS = {
    "save_mesh": ("m.off", _save_mesh),
    "SpectralBasis.save": ("b.spbs", _save_basis),
    "SpectralCoefficients.save_csv": ("c.csv", lambda p, v: _coeffs(v).save_csv(p)),
    "DeformationDescriptor.save": ("d.json", _save_descriptor),
    "write_ranking_csv": ("r.csv", _write_ranking),
    "write_assignment_csv": ("a.csv", _write_assignment),
    "write_scatter_data": (
        "s.dat", lambda p, v: retrieval.write_scatter_data(p, [_coeffs(v)])
    ),
    "save_bundle manifest": ("manifest.json", _save_manifest),
}


@pytest.mark.parametrize("name", WRITERS)
def test_rewrite_replaces_the_file(name, tmp_path):
    filename, write = WRITERS[name]
    path = tmp_path / filename
    write(path, 0)
    old = path.read_bytes()
    with open(path, "rb") as held:
        write(path, 1)
        assert os.fstat(held.fileno()).st_nlink == 0
        assert held.read() == old
    new = path.read_bytes()
    assert new != old
    fresh = tmp_path / "fresh" / filename
    fresh.parent.mkdir()
    write(fresh, 1)
    assert new == fresh.read_bytes()


def test_symlinked_output_is_replaced_not_followed(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("keep\n")
    link = tmp_path / "c.csv"
    link.symlink_to(target)
    _coeffs(0).save_csv(link)
    assert not link.is_symlink()
    assert target.read_text() == "keep\n"
    np.testing.assert_array_equal(
        sd.SpectralCoefficients.load_csv(link).values, _coeffs(0).values
    )


def _writes(call: ast.Call) -> bool:
    """True unless the call's mode is a constant string that only reads."""
    mode = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def _write_opens(node, where=None):
    """(enclosing function, line) of each open() call that can write."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "open"
        and _writes(node)
    ):
        yield where, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _write_opens(child, where)


def test_only_open_new_opens_files_for_writing():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, where, line) for where, line in _write_opens(tree)]
    assert [(f, w) for f, w, _ in found] == [("_files.py", "open_new")], found
