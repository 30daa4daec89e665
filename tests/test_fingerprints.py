"""One rule decides whether coefficients of two bases may meet.

An empty fingerprint is unknown and passes; two known fingerprints must be
equal. Every call site that combines coefficients, descriptors or a basis
applies that rule, and only the rule raises FingerprintMismatchError.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform.cli import build_parser
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
