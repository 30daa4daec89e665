import filecmp
import os

import numpy as np
import pytest

import spectral_deform as sd
from spectral_deform import spectral
from spectral_deform.cli import main

GEN = ["generate", "--per-mode", "3", "3", "3", "--seed", "11",
       "--axial-segments", "24", "--section-segments", "4"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end CLI run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipe")
    bundle = str(root / "bundle")
    basis = str(root / "basis.spbs")
    coeffs = str(root / "coeffs")
    assert main(GEN + ["--out", bundle]) == 0
    assert main(["decompose", "--bundle", bundle, "--modes", "40", "--out", basis]) == 0
    assert main(["encode", "--bundle", bundle, "--basis", basis, "--out", coeffs]) == 0
    return root, bundle, basis, coeffs


class TestGenerate:
    def test_creates_bundle_layout(self, pipeline):
        _, bundle, _, _ = pipeline
        assert os.path.exists(os.path.join(bundle, "base.off"))
        assert os.path.exists(os.path.join(bundle, "manifest.json"))
        assert len(os.listdir(os.path.join(bundle, "states"))) == 9

    def test_rerun_bitwise_identical(self, tmp_path, pipeline):
        _, bundle, _, _ = pipeline
        other = str(tmp_path / "again")
        assert main(GEN + ["--out", other]) == 0
        for name in ["base.off", "manifest.json", "states/004.off"]:
            assert filecmp.cmp(
                os.path.join(bundle, name), os.path.join(other, name), shallow=False
            )

    def test_unwritable_dir_exit_2(self):
        assert main(GEN + ["--out", "/proc/nope/bundle"]) == 2


class TestDecompose:
    def test_basis_invariants(self, pipeline):
        _, _, basis_path, _ = pipeline
        basis = sd.SpectralBasis.load(basis_path)
        assert basis.m == 40
        assert abs(basis.eigenvalues[0]) <= 1e-9 * basis.eigenvalues[-1]

    def test_modes_exceeding_n_exit_2(self, pipeline):
        root, bundle, _, _ = pipeline
        code = main(["decompose", "--bundle", bundle, "--modes", "100000",
                     "--out", str(root / "x.spbs")])
        assert code == 2

    def test_negative_modes_exit_2(self, pipeline, tmp_path):
        _, bundle, _, _ = pipeline
        out = tmp_path / "x.spbs"
        code = main(["decompose", "--bundle", bundle, "--modes", "-5",
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unverified_basis_exit_3(self, pipeline, tmp_path, monkeypatch):
        _, bundle, _, _ = pipeline
        real = spectral.eigsh

        def perturbed(*args, **kwargs):
            vals, vecs = real(*args, **kwargs)
            vecs[:, 5] += 1e-4
            return vals, vecs

        monkeypatch.setattr(spectral, "eigsh", perturbed)
        out = tmp_path / "x.spbs"
        code = main(["decompose", "--bundle", bundle, "--modes", "40",
                     "--out", str(out)])
        assert code == 3
        assert not out.exists()


class TestEncode:
    def test_files_written_with_fingerprint(self, pipeline):
        _, _, basis_path, coeffs = pipeline
        basis = sd.SpectralBasis.load(basis_path)
        c = sd.SpectralCoefficients.load_csv(os.path.join(coeffs, "000.csv"))
        assert c.basis_fingerprint == basis.fingerprint
        assert c.m == basis.m

    def test_truncated_basis_exit_2(self, pipeline, tmp_path):
        _, bundle, basis_path, _ = pipeline
        cut = tmp_path / "cut.spbs"
        with open(basis_path, "rb") as f:
            cut.write_bytes(f.read()[:30])  # inside the 56-byte header
        code = main(["encode", "--bundle", bundle, "--basis", str(cut),
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2

    def test_base_self_encode(self, pipeline):
        _, bundle, basis_path, coeffs = pipeline
        basis = sd.SpectralBasis.load(basis_path)
        base = sd.load_mesh(os.path.join(bundle, "base.off"))
        c = sd.SpectralCoefficients.load_csv(os.path.join(coeffs, "base.csv"))
        np.testing.assert_allclose(
            c.values, sd.encode_geometry(basis, base.vertices).values, atol=1e-12
        )


class TestDescriptor:
    def test_statistical_default(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        out = str(tmp_path / "d.json")
        code = main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--augment", "--label", "axial crush", "--out", out])
        assert code == 0
        desc = sd.DeformationDescriptor.load(out)
        assert desc.size_m <= 50
        assert {0, 1} <= set(desc.indices.tolist())

    def test_threshold_too_high_exit_4(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        code = main(["descriptor", "--coeffs", os.path.join(coeffs, "000.csv"),
                     "--threshold", "1e12", "--out", str(tmp_path / "d.json")])
        assert code == 4

    def test_tune_requires_basis(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        with pytest.raises(SystemExit) as exc:
            main(["descriptor", "--coeffs", os.path.join(coeffs, "000.csv"),
                  "--tune", "1.0", "--out", str(tmp_path / "d.json")])
        assert exc.value.code == 2

    def test_tune_with_infinite_target(self, pipeline, tmp_path):
        _, _, basis_path, coeffs = pipeline
        out = str(tmp_path / "d.json")
        code = main(["descriptor", "--coeffs", os.path.join(coeffs, "003.csv"),
                     "--tune", "inf", "--basis", basis_path, "--out", out])
        assert code == 0
        assert sd.DeformationDescriptor.load(out).size_m >= 1

    def test_baseline_difference_mode(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        out = str(tmp_path / "d.json")
        code = main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--baseline", os.path.join(coeffs, "base.csv"),
                     "--out", out])
        assert code == 0
        assert sd.DeformationDescriptor.load(out).selection_mode == "baseline_difference"


class TestReconstruct:
    def test_outputs_and_error_ordering(self, pipeline, tmp_path):
        root, bundle, basis_path, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--augment", "--out", desc]) == 0
        out = str(tmp_path / "recon")
        code = main(["reconstruct", "--basis", basis_path,
                     "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--descriptor", desc,
                     "--mesh", os.path.join(bundle, "base.off"),
                     "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "recon_descriptor.off"))
        assert os.path.exists(os.path.join(out, "recon_first_m_ordered.off"))
        rows = dict(
            line.split(",")
            for line in open(os.path.join(out, "errors.csv")).read().splitlines()[1:]
        )
        assert float(rows["descriptor"]) <= float(rows["first_m_ordered"]) + 1e-12


class TestFilter:
    def test_self_shape_ranks_first(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--augment", "--out", desc]) == 0
        out = str(tmp_path / "rank.csv")
        assert main(["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[1].startswith("006,")
        assert len(lines) == 10  # header + 9 states (base.csv excluded)

    def test_min_score_unsatisfiable_empty_exit_0(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "000.csv"),
                     "--out", desc]) == 0
        out = str(tmp_path / "rank.csv")
        assert main(["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
                     "--min-score", "1.1", "--out", out]) == 0
        assert len(open(out).read().splitlines()) == 1  # header only


class TestCluster:
    def test_k1_rejected(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        assert main(["cluster", "--coeffs-dir", coeffs, "-k", "1",
                     "--out", str(tmp_path / "a.csv")]) == 2

    def test_assignment_and_scatter(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        out = str(tmp_path / "a.csv")
        scatter = str(tmp_path / "s.dat")
        assert main(["cluster", "--coeffs-dir", coeffs, "-k", "3", "--seed", "1",
                     "--scatter", scatter, "--out", out]) == 0
        assert len(open(out).read().splitlines()) == 10
        assert len(open(scatter).read().splitlines()) == 10

    def test_seed_determinism(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            assert main(["cluster", "--coeffs-dir", coeffs, "-k", "3",
                         "--seed", "9", "--out", out]) == 0
        assert open(a).read() == open(b).read()
