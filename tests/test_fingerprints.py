"""One rule decides whether coefficients of two bases may meet.

An empty fingerprint is unknown and passes; two known fingerprints must be
equal. Every call site that combines coefficients, descriptors or a basis
applies that rule, and only the rule raises FingerprintMismatchError.

One format holds for every fingerprint a file carries: a ``str`` that is
empty or 64 lowercase hex digits. A carrier rejects any other value, so no
file is written with one, and a file read with one exits 2 naming it.
"""

import ast
import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform import spectral
from spectral_deform.cli import build_parser, main
from spectral_deform.spectral import FingerprintMismatchError

from conftest import grid_mesh

SRC = Path(sd.__file__).parent
OTHER = "ff" * 32

VALUES = np.arange(18.0).reshape(6, 3) + 1.0


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A grid mesh and its basis on disk; the basis fingerprint is known."""
    root = tmp_path_factory.mktemp("fp")
    mesh = grid_mesh(4, 4)
    basis = sd.eigendecompose(sd.uniform_laplacian(mesh), 6)
    sd.save_mesh(root / "base.off", mesh)
    basis.save(root / "basis.spbs")
    return root, basis.fingerprint


def _reconstruct(files, fp_descriptor, fp_coeffs):
    """The reconstruct stage with a descriptor and coefficients from disk."""
    root, _ = files
    coeffs = sd.SpectralCoefficients(VALUES, fp_coeffs)
    coeffs.save_csv(root / "c.csv")
    sd.DeformationDescriptor(
        [0, 2], VALUES[[0, 2]], 0.0, basis_fingerprint=fp_descriptor
    ).save(root / "d.json")
    args = build_parser().parse_args([
        "reconstruct", "--basis", str(root / "basis.spbs"),
        "--coeffs", str(root / "c.csv"), "--descriptor", str(root / "d.json"),
        "--mesh", str(root / "base.off"), "--out", str(root / "recon"),
    ])
    args.func(args)


def _rank(files, fp_descriptor, fp_coeffs):
    desc = sd.DeformationDescriptor(
        [0, 2], VALUES[[0, 2]], 0.0, basis_fingerprint=fp_descriptor
    )
    coeffs = sd.SpectralCoefficients(VALUES, fp_coeffs)
    # a one-shape bundle scores as that shape alone
    sd.rank_bundle(desc, [coeffs])


def _baseline(files, fp_deformed, fp_base):
    sd.build_descriptor(
        sd.SpectralCoefficients(VALUES, fp_deformed),
        sd.SpectralCoefficients(VALUES * 0.5, fp_base),
        0.0,
    )


def _stack(files, fp_first, fp_second):
    sd.CoefficientStack.of([
        sd.SpectralCoefficients(VALUES, fp_first),
        sd.SpectralCoefficients(VALUES, fp_second),
    ])


SITES = {
    "reconstruct": _reconstruct,
    "rank_and_cosine": _rank,
    "baseline_selection": _baseline,
    "stack": _stack,
}

# pairs of fingerprints as (first, second); KNOWN stands for the basis's own
KNOWN = object()
CASES = {
    "equal": [(KNOWN, KNOWN)],
    "one_empty": [(KNOWN, ""), ("", KNOWN)],
    "both_empty": [("", "")],
    "different": [(KNOWN, OTHER), (OTHER, KNOWN)],
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("site", SITES)
def test_only_different_known_fingerprints_raise(site, case, files):
    known = files[1]
    for pair in CASES[case]:
        a, b = (known if fp is KNOWN else fp for fp in pair)
        if case == "different":
            with pytest.raises(FingerprintMismatchError):
                SITES[site](files, a, b)
        else:
            SITES[site](files, a, b)


def _raises_mismatch(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    name = getattr(exc, "id", None) or getattr(exc, "attr", None)
    return name == "FingerprintMismatchError"


def _mismatch_raises(node, where=None):
    """(enclosing function, line) of each raise of FingerprintMismatchError."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Raise) and node.exc is not None and _raises_mismatch(node):
        yield where, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _mismatch_raises(child, where)


def test_only_the_rule_raises_a_fingerprint_mismatch():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [(path.name, where, line) for where, line in _mismatch_raises(tree)]
    assert [(f, w) for f, w, _ in found] == [("spectral.py", "_check_fingerprint")], found


MALFORMED = {
    "int": 5,
    "none": None,
    "short": "ab" * 8,
    "long": "ab" * 40,
    "upper": "AB" * 32,
    "newline": "x\ny",
}

CARRIERS = {
    "coefficients": lambda fp: sd.SpectralCoefficients(VALUES, fp),
    "stack": lambda fp: sd.CoefficientStack(("a",), VALUES[None], fp),
    "descriptor": lambda fp: sd.DeformationDescriptor(
        [0, 2], VALUES[[0, 2]], 0.0, basis_fingerprint=fp),
}


@pytest.mark.parametrize("bad", MALFORMED)
@pytest.mark.parametrize("carrier", CARRIERS)
def test_carriers_reject_a_malformed_fingerprint(carrier, bad):
    with pytest.raises(ValueError, match="neither empty nor a SHA-256 hex digest"):
        CARRIERS[carrier](MALFORMED[bad])


@pytest.mark.parametrize("bad", ["short", "long"])
def test_spbs_save_rejects_a_malformed_operator_fingerprint(bad, files, tmp_path):
    # the header holds 32 bytes: a shorter digest was padded, a longer one cut
    root, _ = files
    basis = sd.SpectralBasis.load(root / "basis.spbs")
    path = tmp_path / "b.spbs"
    with pytest.raises(ValueError, match="neither empty nor a SHA-256 hex digest"):
        sd.SpectralBasis(basis.eigenvalues, basis.eigenvectors, MALFORMED[bad]).save(path)
    assert not path.exists()


@pytest.fixture(scope="module")
def encoded(files):
    """The basis's coefficient directory of one shape, and a descriptor of it."""
    root, fp = files
    coeffs = root / "coeffs"
    coeffs.mkdir()
    sd.save_coeff_dir(coeffs, sd.CoefficientStack(("a",), VALUES[None], fp))
    sd.DeformationDescriptor([0, 2], VALUES[[0, 2]], 0.0,
                             basis_fingerprint=fp).save(root / "good.json")
    return root, coeffs


QUERIES = {
    "filter": lambda root, coeffs, desc: [
        "filter", "--descriptor", desc, "--coeffs-dir", str(coeffs),
        "--out", str(root / "r.csv")],
    "reconstruct": lambda root, coeffs, desc: [
        "reconstruct", "--basis", str(root / "basis.spbs"),
        "--coeffs", str(coeffs / "a.csv"), "--descriptor", desc,
        "--mesh", str(root / "base.off"), "--out", str(root / "recon")],
}


@pytest.mark.parametrize("bad", [5, None, ["x"]], ids=["int", "null", "list"])
@pytest.mark.parametrize("stage", QUERIES)
def test_descriptor_with_a_malformed_fingerprint_exit_2(stage, bad, encoded,
                                                        tmp_path, capsys):
    root, coeffs = encoded
    doc = json.loads((root / "good.json").read_text())
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps({**doc, "basis_fingerprint": bad}))
    assert main(QUERIES[stage](root, coeffs, str(desc))) == 2
    err = capsys.readouterr().err
    assert f"descriptor JSON {desc}" in err and "SHA-256 hex digest" in err


@pytest.mark.parametrize("stage", ["descriptor", "filter"])
def test_csv_with_a_malformed_fingerprint_exit_2(stage, files, encoded, tmp_path,
                                                 capsys):
    root, coeffs = encoded
    csv = tmp_path / "coeffs" / "a.csv"
    csv.parent.mkdir()
    text = (coeffs / "a.csv").read_text()
    csv.write_text(text.replace(f"# basis_fingerprint: {files[1]}",
                                "# basis_fingerprint: xyz"))
    assert csv.read_text() != text
    args = (["descriptor", "--coeffs", str(csv), "--out", str(tmp_path / "d.json")]
            if stage == "descriptor" else
            QUERIES["filter"](tmp_path, csv.parent, str(root / "good.json")))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"coefficient CSV {csv}" in err and "SHA-256 hex digest" in err


def test_each_basis_is_hashed_once(files, tmp_path, monkeypatch):
    # a basis hashes itself once, when it is made: decompose when it solves,
    # load to check the file against the fingerprint it was saved with
    root, _ = files
    real, callers = spectral.hashlib.sha256, []

    def counting(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return real(*args)

    monkeypatch.setattr(spectral.hashlib, "sha256", counting)
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "base.off").write_bytes((root / "base.off").read_bytes())
    out = tmp_path / "basis.spbs"
    assert main(["decompose", "--bundle", str(bundle), "--modes", "6",
                 "--out", str(out)]) == 0
    # the operator's, in laplacian.operator_fingerprint, then the basis's
    assert callers == ["spectral_deform.laplacian", "spectral_deform.spectral"]
    basis = sd.SpectralBasis.load(out)
    assert callers[2:] == ["spectral_deform.spectral"]
    assert basis.fingerprint == basis.fingerprint
    assert len(callers) == 3
    assert not any(isinstance(a, functools.cached_property)
                   for a in vars(sd.SpectralBasis).values())
