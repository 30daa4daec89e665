import ast
import csv
import filecmp
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as sla

import spectral_deform as sd
from spectral_deform import cli, spectral
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


@pytest.fixture(scope="module")
def other_bases(pipeline):
    """The pipeline bundle encoded in two foreign bases, by basis name.

    "uniform" has the same M=40 from the uniform operator; "m41" is the
    cotangent operator with one mode more.
    """
    root, bundle, _, _ = pipeline
    out = {}
    for name, extra in (("uniform", ["--modes", "40", "--operator", "uniform"]),
                        ("m41", ["--modes", "41"])):
        basis = str(root / f"{name}.spbs")
        out[name] = str(root / f"coeffs_{name}")
        assert main(["decompose", "--bundle", bundle, "--out", basis] + extra) == 0
        assert main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", out[name]]) == 0
    return out


@pytest.fixture(scope="module")
def hat_bundles(tmp_path_factory):
    """Two bundles of one N (672) and different base meshes, the second with
    a wider hat, and a basis of the first: (narrow, wide, basis)."""
    root = tmp_path_factory.mktemp("hats")
    gen = ["generate", "--per-mode", "3", "3", "3", "--axial-segments", "20",
           "--section-segments", "8"]
    narrow, wide, basis = str(root / "narrow"), str(root / "wide"), str(root / "b.spbs")
    assert main(gen + ["--out", narrow]) == 0
    assert main(gen + ["--hat-width", "90", "--out", wide]) == 0
    assert main(["decompose", "--bundle", narrow, "--modes", "40", "--out", basis]) == 0
    return narrow, wide, basis


def _mixed_dir(pipeline, other_bases, tmp_path):
    """Shapes 000-004 from the cotangent basis, 005-008 from the uniform one."""
    _, _, _, coeffs = pipeline
    out = tmp_path / "mixed"
    out.mkdir()
    for i in range(9):
        source = coeffs if i < 5 else other_bases["uniform"]
        with open(os.path.join(source, f"{i:03d}.csv")) as f:
            (out / f"{i:03d}.csv").write_text(f.read())
    return out


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

    def test_negative_count_exit_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert main(["generate", "--per-mode", "-5", "5", "5", "--out", str(out)]) == 2
        assert "need 3 state counts, each >= 0, got (-5, 5, 5)" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("fault, message", [
        (lambda vals, vecs: (vals, vecs * 1.001), "orthonormality error 0.002"),
        (lambda vals, vecs: (np.full_like(vals, vals[0]), vecs),
         "band 1: no spectral gap"),
    ], ids=["orthonormality", "no spectral gap"])
    def test_failed_check_exit_3(self, fault, message, pipeline, tmp_path,
                                 monkeypatch, capsys):
        _, bundle, _, _ = pipeline
        real = spectral.eigsh
        monkeypatch.setattr(spectral, "eigsh", lambda *a, **k: fault(*real(*a, **k)))
        out = tmp_path / "x.spbs"
        # 90 modes: banded at N=500, and more than one band
        code = main(["decompose", "--bundle", bundle, "--modes", "90",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and message in err
        assert not out.exists()

    def test_singular_factor_exit_3(self, pipeline, tmp_path, monkeypatch, capsys):
        real = sla.splu
        calls = []

        def singular(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("Factor is exactly singular")
            return real(*args, **kwargs)

        monkeypatch.setattr(sla, "splu", singular)
        _, bundle, _, _ = pipeline
        out = tmp_path / "x.spbs"
        code = main(["decompose", "--bundle", bundle, "--modes", "90",
                     "--out", str(out)])
        assert code == 3
        assert "band 2 " in capsys.readouterr().err
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


    def test_other_bundles_shape_csv_refused(self, pipeline, tmp_path, capsys):
        _, bundle, basis, _ = pipeline
        twelve = str(tmp_path / "twelve")
        gen12 = GEN[:2] + ["4", "4", "4"] + GEN[5:]
        assert main(gen12 + ["--out", twelve]) == 0
        out = tmp_path / "coeffs"
        assert main(["encode", "--bundle", twelve, "--basis", basis,
                     "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code = main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", str(out)])
        assert code == 2
        assert f"{out / '009.csv'} is a shape CSV" in capsys.readouterr().err
        # nothing was written
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_same_bundle_encodes_again_in_place(self, pipeline, tmp_path):
        _, bundle, basis, coeffs = pipeline
        out = tmp_path / "coeffs"
        shutil.copytree(coeffs, out)
        assert main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", str(out)]) == 0
        names = sorted(os.listdir(coeffs))
        assert sorted(os.listdir(out)) == names
        _, mismatch, errors = filecmp.cmpfiles(coeffs, out, names, shallow=False)
        assert mismatch == errors == []

    def test_basis_of_another_mesh_exit_2_writes_nothing(self, hat_bundles, tmp_path,
                                                        capsys):
        _, wide, basis = hat_bundles
        out = tmp_path / "coeffs"
        assert main(["encode", "--bundle", wide, "--basis", basis, "--out", str(out)]) == 2
        assert (f"SPBS file {basis} does not fit bundle {wide}: its operator is "
                "neither Laplacian of the mesh") in capsys.readouterr().err
        assert not out.exists()

    def test_basis_of_another_n_exit_2_writes_nothing(self, pipeline, hat_bundles,
                                                      tmp_path, capsys):
        _, _, basis, _ = pipeline
        narrow, _, _ = hat_bundles
        out = tmp_path / "coeffs"
        assert main(["encode", "--bundle", narrow, "--basis", basis,
                     "--out", str(out)]) == 2
        n = sd.SpectralBasis.load(basis).n
        assert (f"SPBS file {basis} does not fit bundle {narrow}: the basis has N={n}, "
                "the mesh N=672") in capsys.readouterr().err
        assert not out.exists()

    def test_operator_check_builds_the_uniform_operator_only_when_needed(
        self, pipeline, other_bases, tmp_path, monkeypatch
    ):
        _, bundle, basis, _ = pipeline
        built = []
        monkeypatch.setattr(cli, "uniform_laplacian",
                            lambda mesh: built.append(1) or sd.uniform_laplacian(mesh))
        assert main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", str(tmp_path / "cot")]) == 0
        assert built == []
        # a uniform basis still encodes, to the same files as before the check
        uniform = os.path.join(os.path.dirname(basis), "uniform.spbs")
        out = tmp_path / "uni"
        assert main(["encode", "--bundle", bundle, "--basis", uniform,
                     "--out", str(out)]) == 0
        assert built == [1]
        names = sorted(os.listdir(other_bases["uniform"]))
        assert sorted(os.listdir(out)) == names
        assert filecmp.cmpfiles(other_bases["uniform"], out, names, shallow=False)[0] == names

    def test_uniform_basis_of_a_mesh_without_cotangent_operator_encodes(
        self, pipeline, tmp_path
    ):
        # one base vertex moved onto its neighbour: the triangles holding both
        # have no area, so only the uniform operator of the mesh exists
        copy = _copy_bundle(pipeline, tmp_path)
        base = sd.load_mesh(copy / "base.off")
        a, b = base.triangles[0][:2]
        vertices = base.vertices.copy()
        vertices[a] = vertices[b]
        (copy / "base.off").unlink()
        sd.save_mesh(copy / "base.off", base.with_vertices(vertices))
        basis = str(tmp_path / "u.spbs")
        assert main(["decompose", "--bundle", str(copy), "--operator", "cotangent",
                     "--modes", "10", "--out", basis]) == 2
        assert main(["decompose", "--bundle", str(copy), "--operator", "uniform",
                     "--modes", "10", "--out", basis]) == 0
        assert main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")]) == 0


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

    def test_tune_with_baseline_exit_2(self, pipeline, tmp_path, capsys):
        # --tune selects by magnitude; a baseline it would drop is refused
        _, _, basis_path, coeffs = pipeline
        out = tmp_path / "d.json"
        with pytest.raises(SystemExit) as exc:
            main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                  "--tune", "1.0", "--basis", basis_path,
                  "--baseline", os.path.join(coeffs, "base.csv"),
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--baseline" in capsys.readouterr().err
        assert not out.exists()

    def test_tune_with_infinite_target(self, pipeline, tmp_path):
        _, _, basis_path, coeffs = pipeline
        out = str(tmp_path / "d.json")
        code = main(["descriptor", "--coeffs", os.path.join(coeffs, "003.csv"),
                     "--tune", "inf", "--basis", basis_path, "--out", out])
        assert code == 0
        assert sd.DeformationDescriptor.load(out).size_m >= 1

    def test_tune_on_zero_coefficients_exit_4(self, pipeline, tmp_path, capsys):
        _, _, basis_path, _ = pipeline
        basis = sd.SpectralBasis.load(basis_path)
        zeros = tmp_path / "zero.csv"
        sd.SpectralCoefficients(np.zeros((basis.m, 3)), basis.fingerprint).save_csv(zeros)
        out = tmp_path / "d.json"
        code = main(["descriptor", "--coeffs", str(zeros), "--tune", "1.0",
                     "--basis", basis_path, "--out", str(out)])
        assert code == 4
        assert "empty result" in capsys.readouterr().err
        assert not out.exists()

    def test_baseline_difference_mode(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        out = str(tmp_path / "d.json")
        code = main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--baseline", os.path.join(coeffs, "base.csv"),
                     "--out", out])
        assert code == 0
        assert sd.DeformationDescriptor.load(out).selection_mode == "baseline_difference"

    @pytest.mark.parametrize("threshold", [None, 0.5])
    def test_baseline_difference_equals_library(self, pipeline, tmp_path, threshold):
        _, _, _, coeffs = pipeline
        shape = os.path.join(coeffs, "006.csv")
        base_path = os.path.join(coeffs, "base.csv")
        out = tmp_path / "d.json"
        extra = [] if threshold is None else ["--threshold", str(threshold)]
        assert main(["descriptor", "--coeffs", shape, "--baseline", base_path,
                     "--augment", "--out", str(out)] + extra) == 0
        desc = sd.build_descriptor(
            sd.SpectralCoefficients.load_csv(shape),
            sd.SpectralCoefficients.load_csv(base_path),
            threshold, augment=True,
        )
        assert desc.selection_mode == "baseline_difference"
        assert out.read_text() == desc.to_json() + "\n"

    def test_library_warning_printed_without_source_path(self, pipeline, tmp_path, capsys):
        _, _, _, coeffs = pipeline
        before = warnings.showwarning
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--threshold", "0", "--out", str(tmp_path / "d.json")]) == 0
        err = capsys.readouterr().err
        printed = [line for line in err.splitlines() if line.startswith("warning: ")]
        assert len(printed) == 1, err
        assert re.fullmatch(r"warning: descriptor has \d+ indices, .* not compact",
                            printed[0]), err
        assert ".py:" not in err
        # the handler is the stage's only: main restores the one it found
        assert warnings.showwarning is before


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

    def _run(self, pipeline, tmp_path, coeffs_dir=None):
        """Reconstruct shape 006 with a descriptor built from coeffs_dir."""
        _, bundle, basis_path, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs",
                     os.path.join(coeffs_dir or coeffs, "006.csv"),
                     "--augment", "--out", desc]) == 0
        out = tmp_path / "recon"
        code = main(["reconstruct", "--basis", basis_path,
                     "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--descriptor", desc,
                     "--mesh", os.path.join(bundle, "base.off"),
                     "--out", str(out)])
        return code, out, desc

    @pytest.mark.parametrize("basis", ["uniform", "m41"])
    def test_descriptor_of_another_basis_exit_2(
        self, basis, pipeline, other_bases, tmp_path, capsys
    ):
        code, out, _ = self._run(pipeline, tmp_path, other_bases[basis])
        assert code == 2
        assert "different bases" in capsys.readouterr().err
        assert not out.exists()

    def test_mesh_of_another_n_exit_2_writes_nothing(self, pipeline, hat_bundles,
                                                     tmp_path, capsys):
        _, _, basis, coeffs = pipeline
        narrow, _, _ = hat_bundles
        shape, mesh = os.path.join(coeffs, "006.csv"), os.path.join(narrow, "base.off")
        desc, out = str(tmp_path / "d.json"), tmp_path / "recon"
        assert main(["descriptor", "--coeffs", shape, "--out", desc]) == 0
        assert main(["reconstruct", "--basis", basis, "--coeffs", shape,
                     "--descriptor", desc, "--mesh", mesh, "--out", str(out)]) == 2
        n = sd.SpectralBasis.load(basis).n
        assert (f"SPBS file {basis} does not fit mesh {mesh}: the basis has N={n}, "
                "the mesh N=672") in capsys.readouterr().err
        assert not out.exists()

    def test_two_reconstructions_per_call(self, pipeline, tmp_path, monkeypatch):
        calls = []
        original = spectral.reconstruct_geometry

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (sd, spectral, sd.descriptor):
            monkeypatch.setattr(module, "reconstruct_geometry", counting)
        code, _, _ = self._run(pipeline, tmp_path)
        assert code == 0
        assert len(calls) == 2  # each subset once; the errors need no decode

    def test_errors_equal_reconstruction_error(self, pipeline, tmp_path):
        _, _, basis_path, coeffs = pipeline
        code, out, desc_path = self._run(pipeline, tmp_path)
        assert code == 0
        basis = sd.SpectralBasis.load(basis_path)
        c = sd.SpectralCoefficients.load_csv(os.path.join(coeffs, "006.csv"))
        desc = sd.DeformationDescriptor.load(desc_path)
        reference = sd.reconstruct_geometry(basis, c, None)
        lines = (out / "errors.csv").read_text().splitlines()[1:]
        rows = dict(line.split(",") for line in lines)
        assert list(rows) == ["descriptor", "first_m_ordered"]
        for name, subset in (("descriptor", desc.indices),
                             ("first_m_ordered", np.arange(desc.size_m))):
            # written as computed from the coefficients; Parseval makes it
            # the geometric error up to rounding
            assert rows[name] == repr(sd.descriptor._truncation_rms(basis, c, subset))
            geometric = sd.reconstruction_error(basis, c, subset, reference)
            assert float(rows[name]) == pytest.approx(geometric, rel=1e-12, abs=0)


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

    @pytest.mark.parametrize("fingerprint", ["cotangent", "unknown"])
    def test_mixed_bases_exit_2(
        self, fingerprint, pipeline, other_bases, tmp_path, capsys
    ):
        _, _, _, coeffs = pipeline
        desc = tmp_path / "d.json"
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", str(desc)]) == 0
        if fingerprint == "unknown":
            d = sd.DeformationDescriptor.load(desc)
            d = sd.DeformationDescriptor(d.indices, d.triples, d.threshold)
            d.save(desc)
        code = main(["filter", "--descriptor", str(desc), "--coeffs-dir",
                     str(_mixed_dir(pipeline, other_bases, tmp_path)),
                     "--top-k", "3", "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "different bases" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        ("index M", "index out of coefficient range [0, 40)"),
        ("another basis",
         "descriptor and candidate coefficients come from different bases"),
    ])
    def test_descriptor_that_does_not_fit_names_both_inputs(
        self, fault, message, pipeline, other_bases, tmp_path, capsys
    ):
        # both inputs read well on their own, so the error names the pair
        _, _, _, coeffs = pipeline
        source = other_bases["uniform"] if fault == "another basis" else coeffs
        desc = tmp_path / "d.json"
        assert main(["descriptor", "--coeffs", os.path.join(source, "006.csv"),
                     "--out", str(desc)]) == 0
        if fault == "index M":
            doc = json.loads(desc.read_text())
            doc["entries"].append({**doc["entries"][-1], "index": 40})
            desc.write_text(json.dumps(doc))
        argv = ["filter", "--descriptor", str(desc), "--coeffs-dir", coeffs,
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 2
        assert (f"error: descriptor JSON {desc} and coefficient directory {coeffs}: "
                f"{message}") in capsys.readouterr().err
        # the library's exception class is kept
        kind = (spectral.FingerprintMismatchError if fault == "another basis"
                else ValueError)
        with pytest.raises(ValueError) as caught:
            cli.cmd_filter(cli.build_parser().parse_args(argv))
        assert type(caught.value) is kind

    @pytest.mark.parametrize("top_k", ["0", "-1", "-9"])
    def test_top_k_below_one_exit_2(self, pipeline, tmp_path, capsys, top_k):
        _, _, _, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", desc]) == 0
        out = tmp_path / "rank.csv"
        code = main(["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
                     "--top-k", top_k, "--out", str(out)])
        assert code == 2
        assert f"top_k must be at least 1, got {top_k}" in capsys.readouterr().err
        assert not out.exists()


class TestNanArguments:
    """A NaN where a stage needs a number in range exits 2, naming the argument."""

    @pytest.mark.parametrize("flag, message", [
        ("--threshold", "threshold must be >= 0, got nan"),
        ("--tune", "target_rms must be >= 0, got nan"),
        ("--length", "length must be > 0, got nan"),
        ("--hat-width", "hat_width must be > 0, got nan"),
        ("--noise-sigma", "noise_sigma must be >= 0, got nan"),
        ("--min-score", "min_score must be a number, got nan"),
    ])
    def test_nan_exit_2(self, pipeline, tmp_path, capsys, flag, message):
        _, _, basis, coeffs = pipeline
        out = tmp_path / "out"
        shape = ["--coeffs", os.path.join(coeffs, "006.csv")]
        if flag == "--min-score":
            desc = str(tmp_path / "d.json")
            assert main(["descriptor", *shape, "--out", desc]) == 0
            argv = ["filter", "--descriptor", desc, "--coeffs-dir", coeffs]
        elif flag in ("--threshold", "--tune"):
            argv = ["descriptor", *shape, "--basis", basis]
        else:
            argv = GEN
        code = main([*argv, flag, "nan", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--noise-sigma", "inf"], "noise_sigma must be finite, got inf"),
        (["--length", "inf"], "length must be finite, got inf"),
        (["--hat-width", "inf"], "hat_width must be finite, got inf"),
        # the default noise, 0.5% of the beam's diagonal, overflows
        (["--length", "1e308"], "noise_sigma must be finite, got inf"),
        # finite arguments, but the deformed coordinates overflow
        (["--length", "1e308", "--noise-sigma", "0"], "non-finite vertex coordinates"),
    ], ids=["noise_sigma_inf", "length_inf", "hat_width_inf", "length_1e308",
            "length_1e308_noise_0"])
    def test_non_finite_generate_writes_nothing(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow's own
            assert main([*GEN, *args, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_mixed_bases_exit_2(self, pipeline, other_bases, tmp_path, capsys):
        code = main(["cluster", "--coeffs-dir",
                     str(_mixed_dir(pipeline, other_bases, tmp_path)),
                     "-k", "3", "--out", str(tmp_path / "a.csv")])
        assert code == 2
        assert "different bases" in capsys.readouterr().err

    def test_first_m_above_m_exit_2(self, pipeline, tmp_path, capsys):
        # M=40: a larger m is refused, not clamped to the M columns there are
        _, _, _, coeffs = pipeline
        out = tmp_path / "a.csv"
        code = main(["cluster", "--coeffs-dir", coeffs, "-k", "3",
                     "--feature", "first_m", "--first-m", "41", "--out", str(out)])
        assert code == 2
        assert "1 <= m <= M=40, got 41" in capsys.readouterr().err
        assert not out.exists()

    def test_ids_that_need_quoting_read_back_whole(self, pipeline, tmp_path):
        coeffs = _copy_coeffs(pipeline, tmp_path)
        (coeffs / STACK).unlink()
        (coeffs / "003.csv").rename(coeffs / "a,b.csv")
        (coeffs / "004.csv").rename(coeffs / 'say "hi".csv')
        out = tmp_path / "a.csv"
        assert main(["cluster", "--coeffs-dir", str(coeffs), "-k", "3",
                     "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [r["shape_id"] for r in rows] == list(sd.load_coeff_dir(coeffs).ids)
        assert {r["cluster"] for r in rows} == {"0", "1", "2"}

    def test_first_m_without_its_feature_exit_2(self, pipeline, tmp_path, capsys):
        # refused, rather than ignored in favour of the first-eigenvector clusters
        _, _, _, coeffs = pipeline
        out = tmp_path / "a.csv"
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--coeffs-dir", coeffs, "-k", "3",
                  "--first-m", "5", "--out", str(out)])
        assert exc.value.code == 2
        assert "--first-m requires --feature first_m" in capsys.readouterr().err
        assert not out.exists()


def _old_load_csv(path):
    """The line-by-line parser load_csv replaced, kept as the reference."""
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("index,"):
                continue
            parts = line.split(",")
            rows.append([float(parts[1]), float(parts[2]), float(parts[3])])
    return np.array(rows)


# a coefficient CSV corrupted seven ways: each fault takes the comment and
# header lines and the data rows, and gives the lines of the corrupted file
CSV_FAULTS = {
    "short_row": lambda head, rows: head + rows[:3] + ["3,1.0,2.0"] + rows[4:],
    "non_numeric": lambda head, rows: head + rows[:3] + ["3,1.0,abc,2.0"] + rows[4:],
    "reordered": lambda head, rows: head + rows[:3] + [rows[4], rows[3]] + rows[5:],
    "missing_row": lambda head, rows: head + rows[:3] + rows[4:],
    "no_header": lambda head, rows: head[:-1] + rows,
    "no_rows": lambda head, rows: head,
    "three_fields": lambda head, rows: head + [r.rsplit(",", 1)[0] for r in rows],
}


def _copy_coeffs(pipeline, tmp_path):
    """A copy of the pipeline's coefficient directory, stack file included."""
    _, _, _, coeffs = pipeline
    out = tmp_path / "coeffs"
    out.mkdir()
    for name in os.listdir(coeffs):
        with open(os.path.join(coeffs, name), "rb") as f:
            (out / name).write_bytes(f.read())
    return out


class TestCoefficientCsv:
    def test_values_bitwise_equal_to_line_parser(self, pipeline):
        _, _, _, coeffs = pipeline
        for name in sorted(n for n in os.listdir(coeffs) if n.endswith(".csv")):
            path = os.path.join(coeffs, name)
            np.testing.assert_array_equal(
                sd.SpectralCoefficients.load_csv(path).values, _old_load_csv(path)
            )

    @pytest.fixture(params=sorted(CSV_FAULTS))
    def corrupt_dir(self, request, pipeline, tmp_path):
        out = _copy_coeffs(pipeline, tmp_path)
        target = out / "003.csv"
        lines = target.read_text().splitlines()
        k = lines.index("index,alpha_x,alpha_y,alpha_z") + 1
        head, rows = lines[:k], lines[k:]
        target.write_text("\n".join(CSV_FAULTS[request.param](head, rows)) + "\n")
        return out

    def test_cluster_exit_2(self, corrupt_dir, tmp_path, capsys):
        code = main(["cluster", "--coeffs-dir", str(corrupt_dir), "-k", "3",
                     "--out", str(tmp_path / "a.csv")])
        assert code == 2
        assert "003.csv" in capsys.readouterr().err

    def test_descriptor_exit_2(self, corrupt_dir, tmp_path, capsys):
        code = main(["descriptor", "--coeffs", str(corrupt_dir / "003.csv"),
                     "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert "003.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["cluster", "filter"])
    def test_rows_cut_at_the_end_exit_2(self, stage, pipeline, tmp_path, capsys):
        out = _copy_coeffs(pipeline, tmp_path)
        target = out / "003.csv"
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", str(target), "--out", desc]) == 0
        target.write_text("\n".join(target.read_text().splitlines()[:-5]) + "\n")
        assert main(["descriptor", "--coeffs", str(target),
                     "--out", str(tmp_path / "cut.json")]) == 2
        assert "003.csv" in capsys.readouterr().err
        args = {
            "cluster": ["cluster", "--coeffs-dir", str(out), "-k", "3"],
            "filter": ["filter", "--descriptor", desc, "--coeffs-dir", str(out)],
        }[stage]
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == 2
        assert "003.csv" in capsys.readouterr().err


def _without_m(pipeline, tmp_path):
    """The pipeline's shape CSVs as written before a CSV stated M: without
    their ``# m:`` lines, and no stack file."""
    _, _, _, coeffs = pipeline
    out = tmp_path / "handmade"
    out.mkdir()
    for name in sorted(os.listdir(coeffs)):
        if name.endswith(".csv"):
            lines = Path(coeffs, name).read_text().splitlines(keepends=True)
            (out / name).write_text("".join(x for x in lines if not x.startswith("# m:")))
    return out


class TestCsvsWithoutM:
    def test_rank_and_cluster_as_the_encoded_ones(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        handmade = _without_m(pipeline, tmp_path)
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", str(handmade / "006.csv"),
                     "--augment", "--out", desc]) == 0
        outputs = {}
        for name, d in (("encoded", coeffs), ("handmade", handmade)):
            out = tmp_path / f"out_{name}"
            out.mkdir()
            assert main(["filter", "--descriptor", desc, "--coeffs-dir", str(d),
                         "--out", str(out / "r.csv")]) == 0
            assert main(["cluster", "--coeffs-dir", str(d), "-k", "3",
                         "--out", str(out / "a.csv")]) == 0
            outputs[name] = [(out / f).read_bytes() for f in ("r.csv", "a.csv")]
        assert outputs["handmade"] == outputs["encoded"]

    @pytest.mark.parametrize("stage", ["cluster", "filter"])
    def test_one_cut_after_whole_rows_exit_2(self, stage, pipeline, tmp_path, capsys):
        handmade = _without_m(pipeline, tmp_path)
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", str(handmade / "006.csv"),
                     "--out", desc]) == 0
        target = handmade / "003.csv"
        target.write_text("\n".join(target.read_text().splitlines()[:-5]) + "\n")
        capsys.readouterr()
        args = {
            "cluster": ["cluster", "--coeffs-dir", str(handmade), "-k", "3"],
            "filter": ["filter", "--descriptor", desc, "--coeffs-dir", str(handmade)],
        }[stage]
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == 2
        assert "shape 003" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


STACK = spectral._STACK_NAME
# byte offsets into the stack header: magic, version, S, M, fingerprint,
# digest
HEADER_FIELDS = {"magic": 0, "version": 4, "s": 8, "m": 16,
                 "fingerprint": 24, "digest": 56}


def _flip(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 1
    path.write_bytes(bytes(data))


def _edit_keeping_size(path):
    """Change the first digit of data row 0's alpha_x: same size, new value."""
    lines = path.read_text().splitlines(keepends=True)
    k = lines.index("index,alpha_x,alpha_y,alpha_z\n") + 1
    i = next(j for j, ch in enumerate(lines[k]) if ch.isdigit() and j > 1)
    lines[k] = lines[k][:i] + str(int(lines[k][i]) % 9 + 1) + lines[k][i + 1:]
    path.write_text("".join(lines))


def _stack_layout(path):
    """(S, M, offset of the first CSV's size) of a stack file."""
    s, m = struct.unpack_from("<QQ", path.read_bytes(), HEADER_FIELDS["s"])
    return s, m, HEADER_FIELDS["digest"] + 32 + 24 * s * m


def _read_stack(d):
    """The stack of coefficient directory ``d`` if it is usable, else None."""
    paths = spectral._shape_csvs(d)
    return spectral._read_stack(d, paths, [os.path.basename(p)[:-4] for p in paths])


def _swap(a, b):
    data = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(data)


def _move_last_row(a, b):
    """Move ``a``'s last row to the start of ``b``: their concatenation stays."""
    lines = a.read_bytes().splitlines(keepends=True)
    a.write_bytes(b"".join(lines[:-1]))
    b.write_bytes(lines[-1] + b.read_bytes())


def _set_first_size(path, size):
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, _stack_layout(path)[2], size)
    path.write_bytes(bytes(data))


# the same coefficient directory, made inconsistent with its stack
STACK_FAULTS = {
    "intact": lambda d: None,
    "stack_deleted": lambda d: (d / STACK).unlink(),
    "stack_truncated": lambda d: (d / STACK).write_bytes((d / STACK).read_bytes()[:-8]),
    **{f"header_{field}_flipped": (lambda d, o=offset: _flip(d / STACK, o))
       for field, offset in HEADER_FIELDS.items()},
    "body_byte_flipped": lambda d: _flip(d / STACK, 100),
    "csv_edited_same_size": lambda d: _edit_keeping_size(d / "003.csv"),
    "csv_added": lambda d: shutil.copy(d / "003.csv", d / "009.csv"),
    "csv_removed": lambda d: (d / "008.csv").unlink(),
    "csv_renamed": lambda d: (d / "003.csv").rename(d / "010.csv"),
    # the stack ends with the last CSV's copy
    "copy_byte_flipped": lambda d: _flip(d / STACK, -100),
    "csvs_swapped": lambda d: _swap(d / "003.csv", d / "004.csv"),
    "csv_appended": lambda d: (d / "003.csv").write_text(
        (d / "003.csv").read_text() + "# a comment\n"),
    "size_field_flipped": lambda d: _flip(d / STACK, _stack_layout(d / STACK)[2]),
    # only the sizes tell this from the stack's copies
    "row_moved_to_next_csv": lambda d: _move_last_row(d / "003.csv", d / "004.csv"),
    "first_size_absurd": lambda d: _set_first_size(d / STACK, 2**62),
    "byte_appended": lambda d: (d / STACK).write_bytes((d / STACK).read_bytes() + b"\0"),
}
# parsing refuses these directories (exit 2), and so must a query of the stack
PARSE_REFUSED = {"row_moved_to_next_csv"}


class TestCoefficientStack:
    """encode writes a stack of the shape CSVs; filter and cluster read it
    only while it matches the CSVs, with the results of parsing them."""

    def test_stack_agrees_bitwise_with_the_csvs(self, pipeline, monkeypatch):
        _, _, basis_path, coeffs = pipeline
        names = sorted(n for n in os.listdir(coeffs)
                       if n.endswith(".csv") and n != "base.csv")
        with monkeypatch.context() as m:
            # the stack is read, not the CSVs
            m.setattr(sd.SpectralCoefficients, "load_csv", None)
            stack = sd.load_coeff_dir(coeffs)
        assert stack.ids == tuple(n[:-4] for n in names)
        fingerprint = sd.SpectralBasis.load(basis_path).fingerprint
        for name, values in zip(names, stack.values):
            parsed = sd.SpectralCoefficients.load_csv(os.path.join(coeffs, name))
            np.testing.assert_array_equal(values.view(np.int64),
                                          parsed.values.view(np.int64))
            assert stack.basis_fingerprint == parsed.basis_fingerprint == fingerprint

    def test_stack_is_read_whatever_order_the_ids_come_in(self, tmp_path, monkeypatch):
        values = np.arange(12.0).reshape(4, 3)
        ids = ["a", "b", "a-b", "0"]  # "a-b.csv" sorts before "a.csv"
        sd.save_coeff_dir(tmp_path, sd.CoefficientStack.of(
            [sd.SpectralCoefficients(values + k, "ab" * 32) for k in range(len(ids))], ids))
        monkeypatch.setattr(sd.SpectralCoefficients, "load_csv", None)
        stack = sd.load_coeff_dir(tmp_path)
        assert stack.ids == ("0", "a-b", "a", "b")
        for i, v in zip(stack.ids, stack.values):
            np.testing.assert_array_equal(v, values + ids.index(i))

    def test_read_and_queried_without_per_shape_objects(self, pipeline, monkeypatch):
        _, _, _, coeffs = pipeline
        names = sorted(n for n in os.listdir(coeffs)
                       if n.endswith(".csv") and n != "base.csv")
        shapes = [sd.SpectralCoefficients.load_csv(os.path.join(coeffs, n)) for n in names]
        desc = sd.build_descriptor(shapes[6], augment=True)
        ranking = sd.rank_bundle(desc, shapes)
        assignment = sd.cluster_coefficients(shapes, 3, seed=1)

        def refuse(self):
            raise AssertionError("a per-shape SpectralCoefficients was built")

        monkeypatch.setattr(sd.SpectralCoefficients, "__post_init__", refuse)
        stack = sd.load_coeff_dir(coeffs)
        again = sd.rank_bundle(desc, stack)
        assert again.ids == tuple(names[k][:-4] for k in ranking.ids)
        np.testing.assert_array_equal(again.scores, ranking.scores)
        np.testing.assert_array_equal(
            sd.cluster_coefficients(stack, 3, seed=1).labels, assignment.labels)

    def test_stack_identical_run_for_run(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        bundle, basis = str(tmp_path / "bundle"), str(tmp_path / "basis.spbs")
        assert main(GEN + ["--out", bundle]) == 0
        assert main(["decompose", "--bundle", bundle, "--modes", "40",
                     "--out", basis]) == 0
        assert main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", str(tmp_path / "coeffs")]) == 0
        assert filecmp.cmp(tmp_path / "coeffs" / STACK, os.path.join(coeffs, STACK),
                           shallow=False)

    def _outputs(self, coeffs_dir, desc, capsys):
        """(exit code, stderr, output bytes) of filter and of cluster."""
        out = coeffs_dir.parent / "out"
        out.mkdir(exist_ok=True)
        runs = {
            "filter": ["filter", "--descriptor", desc, "--out", str(out / "r.csv")],
            "cluster": ["cluster", "-k", "3", "--scatter", str(out / "s.dat"),
                        "--out", str(out / "a.csv")],
        }
        results = {}
        for stage, args in runs.items():
            for f in out.iterdir():
                f.unlink()
            code = main(args + ["--coeffs-dir", str(coeffs_dir)])
            err = capsys.readouterr().err.replace(str(coeffs_dir), "<dir>")
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            results[stage] = (code, err, files)
        return results

    @pytest.mark.parametrize("fault", sorted(STACK_FAULTS))
    def test_filter_and_cluster_as_without_the_stack(
        self, fault, pipeline, tmp_path, capsys
    ):
        _, _, _, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--augment", "--out", desc]) == 0
        (tmp_path / "with").mkdir()
        faulty = _copy_coeffs(pipeline, tmp_path / "with")
        STACK_FAULTS[fault](faulty)
        # every fault but "intact" makes the stack unusable
        assert (_read_stack(faulty) is None) == (fault != "intact")
        plain = tmp_path / "without" / "coeffs"
        shutil.copytree(faulty, plain)
        (plain / STACK).unlink(missing_ok=True)
        expected = self._outputs(plain, desc, capsys)
        assert self._outputs(faulty, desc, capsys) == expected
        assert all(code == (2 if fault in PARSE_REFUSED else 0)
                   for code, _, _ in expected.values())

    def test_stack_absurd_header_ignored_before_allocating(self, pipeline, tmp_path):
        coeffs = _copy_coeffs(pipeline, tmp_path)
        data = bytearray((coeffs / STACK).read_bytes())
        struct.pack_into("<Q", data, HEADER_FIELDS["m"], 2**40)
        (coeffs / STACK).write_bytes(bytes(data))
        tracemalloc.start()
        try:
            assert _read_stack(coeffs) is None
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_stack_absurd_first_size_ignored_before_allocating(self, pipeline, tmp_path):
        coeffs = _copy_coeffs(pipeline, tmp_path)
        STACK_FAULTS["first_size_absurd"](coeffs)
        s, m, _ = _stack_layout(coeffs / STACK)
        tracemalloc.start()
        try:
            assert _read_stack(coeffs) is None
            # the body, and nothing of what the size states
            assert tracemalloc.get_traced_memory()[1] < 24 * s * m + 2**13
        finally:
            tracemalloc.stop()

    def test_matching_stack_hashes_no_csv_and_opens_each_once(
        self, pipeline, monkeypatch
    ):
        # a query's cost: the CSVs are compared with their copies, never
        # hashed, parsed or read twice
        _, _, _, coeffs = pipeline
        paths = spectral._shape_csvs(coeffs)
        real_sha, real_open, hashed, opened = spectral.hashlib.sha256, open, [0], []

        class Counting:
            def __init__(self, data=b""):
                self.h = real_sha()
                self.update(data)

            def update(self, data):
                hashed[0] += memoryview(data).nbytes
                self.h.update(data)

            def __getattr__(self, name):
                return getattr(self.h, name)

        def counting_open(path, *args, **kwargs):
            opened.append(os.fspath(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(spectral.hashlib, "sha256", Counting)
        monkeypatch.setattr(spectral, "open", counting_open, raising=False)
        monkeypatch.setattr(sd.SpectralCoefficients, "load_csv", None)
        stack = sd.load_coeff_dir(coeffs)
        s, m, _ = _stack_layout(Path(coeffs) / STACK)
        assert stack.values.shape == (s, m, 3) == (len(paths), m, 3)
        # the header fields and the body, nothing else
        assert hashed[0] == HEADER_FIELDS["digest"] + 24 * s * m
        assert sorted(p for p in opened if p.endswith(".csv")) == paths

    def test_directory_name_with_glob_characters(self, pipeline, tmp_path, capsys):
        # "run[1]" is a glob pattern matching "run1", not a name, unless escaped
        _, bundle, basis, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--augment", "--out", desc]) == 0
        outputs = []
        for name in ("plain", "run[1]"):
            out = tmp_path / name / "coeffs"
            out.parent.mkdir()
            assert main(["encode", "--bundle", bundle, "--basis", basis,
                         "--out", str(out)]) == 0
            outputs.append(self._outputs(out, desc, capsys))
        assert outputs[1] == outputs[0]
        assert all(code == 0 for code, _, _ in outputs[0].values())


def _format_uses(node, where=None):
    """(enclosing function, kind) of each name or literal of the stack format;
    kind is "define" or "use" for a name, "literal" for a literal."""
    names = {"_STACK_NAME", "_STACK_MAGIC", "_STACK_VERSION", "_STACK_HEADER",
             "_stack_digest"}
    literals = {spectral._STACK_NAME, spectral._STACK_MAGIC, spectral._STACK_HEADER}
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Name) and node.id in names:
        yield where, "define" if isinstance(node.ctx, ast.Store) else "use"
    elif isinstance(node, ast.Attribute) and node.attr in names:
        yield where, "use"
    elif (isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
          and node.value in literals):
        yield where, "literal"
    for child in ast.iter_child_nodes(node):
        yield from _format_uses(child, where)


def test_only_the_stack_writer_and_reader_touch_its_format():
    found = set()
    for path in sorted(Path(sd.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {(path.name, where, kind) for where, kind in _format_uses(tree)}
    # the format's constants are defined at the top level of spectral.py,
    # and only its writer and its reader read them
    assert {(f, w) for f, w, kind in found if kind != "use"} == {("spectral.py", None)}
    assert {(f, w) for f, w, kind in found if kind == "use"} == {
        ("spectral.py", "save_coeff_dir"), ("spectral.py", "_read_stack")}


def _copy_bundle(pipeline, tmp_path):
    """A copy of the pipeline's bundle directory, for a test to corrupt."""
    _, bundle, _, _ = pipeline
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    return copy


class TestStateConnectivity:
    def test_reordered_face_exit_2(self, pipeline, tmp_path, capsys):
        _, _, basis, _ = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        state = copy / "states" / "004.off"
        lines = state.read_text().splitlines()
        n_v = int(lines[1].split()[0])
        _, a, b, c = lines[2 + n_v].split()
        lines[2 + n_v] = f"3 {b} {c} {a}"  # same triangle, vertices rotated
        state.write_text("\n".join(lines) + "\n")
        code = main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2
        assert "state 4" in capsys.readouterr().err

    def test_extra_vertex_exit_2(self, pipeline, tmp_path, capsys):
        _, _, basis, _ = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        state = copy / "states" / "004.off"
        lines = state.read_text().splitlines()
        n_v, n_f, n_e = lines[1].split()
        lines[1] = f"{int(n_v) + 1} {n_f} {n_e}"
        lines.insert(2 + int(n_v), "1.5 2.5 3.5")  # a vertex no face uses
        state.write_text("\n".join(lines) + "\n")
        code = main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2
        err = capsys.readouterr().err
        assert "state 4" in err and "004.off" in err

    def test_face_spacing_and_comments_ignored(self, pipeline, tmp_path):
        _, _, basis, coeffs = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        state = copy / "states" / "004.off"
        lines = state.read_text().splitlines()
        n_v = int(lines[1].split()[0])
        faces = [" 3  {} \t{}   {}  # face".format(*line.split()[1:])
                 for line in lines[2 + n_v:]]
        lines[2 + n_v:] = ["# the faces"] + faces
        state.write_text("\n".join(lines) + "\n")
        out = tmp_path / "coeffs"
        assert main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(out)]) == 0
        names = sorted(os.listdir(coeffs))
        assert sorted(os.listdir(out)) == names
        _, mismatch, errors = filecmp.cmpfiles(coeffs, out, names, shallow=False)
        assert mismatch == errors == []

    def test_only_base_meshes_are_validated(self, pipeline, tmp_path, monkeypatch):
        """States take the base's validated triangles: generate validates
        its one base build, encode the base it reads, and no state."""
        _, _, basis, _ = pipeline
        validated = []
        post_init = sd.TriangleMesh.__post_init__

        def counting(mesh):
            validated.append(mesh.n_triangles)
            post_init(mesh)

        monkeypatch.setattr(sd.TriangleMesh, "__post_init__", counting)
        bundle = str(tmp_path / "bundle")
        assert main(GEN + ["--out", bundle]) == 0
        assert len(validated) == 1
        assert main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", str(tmp_path / "coeffs")]) == 0
        assert len(validated) == 2


BASIS_READERS = ["encode", "reconstruct", "descriptor --tune"]


def _basis_reader(stage, pipeline, tmp_path):
    """The arguments of a stage that reads a basis, all but ``--basis``."""
    _, bundle, _, coeffs = pipeline
    shape = os.path.join(coeffs, "006.csv")
    desc = str(tmp_path / "d.json")
    assert main(["descriptor", "--coeffs", shape, "--out", desc]) == 0
    return {
        "encode": ["encode", "--bundle", bundle, "--out", str(tmp_path / "c")],
        "reconstruct": ["reconstruct", "--coeffs", shape, "--descriptor", desc,
                        "--mesh", os.path.join(bundle, "base.off"),
                        "--out", str(tmp_path / "recon")],
        "descriptor --tune": ["descriptor", "--coeffs", shape, "--tune", "1.0",
                              "--out", str(tmp_path / "t.json")],
    }[stage]


class TestInputFiles:
    """A malformed input file exits 2 with a message naming the file."""

    def test_malformed_state_exit_2(self, pipeline, tmp_path, capsys):
        _, _, basis, _ = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        state = copy / "states" / "004.off"
        lines = state.read_text().splitlines()
        lines[10] = "1.0 2.0"  # line 11 is vertex 8; it loses a coordinate
        state.write_text("\n".join(lines) + "\n")
        code = main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2
        err = capsys.readouterr().err
        assert "004.off" in err and "vertex line 8" in err

    def test_non_integer_face_index_exit_2(self, pipeline, tmp_path, capsys):
        _, _, basis, _ = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        state = copy / "states" / "004.off"
        lines = state.read_text().splitlines()
        parts = lines[-1].split()
        parts[2] += ".9"  # a face index that is not an integer
        lines[-1] = " ".join(parts)
        state.write_text("\n".join(lines) + "\n")
        code = main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2
        err = capsys.readouterr().err
        assert "004.off" in err and "could not convert" in err

    def test_manifest_without_states_exit_2(self, pipeline, tmp_path, capsys):
        _, _, basis, _ = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        manifest = copy / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["states"]
        manifest.write_text(json.dumps(doc))
        code = main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "'states'" in err

    def test_descriptor_without_entries_exit_2(self, pipeline, tmp_path, capsys):
        _, _, _, coeffs = pipeline
        desc = tmp_path / "d.json"
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", str(desc)]) == 0
        doc = json.loads(desc.read_text())
        del doc["entries"]
        desc.write_text(json.dumps(doc))
        code = main(["filter", "--descriptor", str(desc), "--coeffs-dir", coeffs,
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(desc) in err and "'entries'" in err

    @pytest.mark.parametrize("offset, patch, message", [
        (0, b"NOPE", "is not a SPBS file (magic b'NOPE')"),
        (4, b"\x02", "has unsupported version 2; re-run decompose"),
    ], ids=["magic", "version"])
    def test_bad_basis_header_exit_2(self, offset, patch, message, pipeline,
                                     tmp_path, capsys):
        _, bundle, basis, coeffs = pipeline
        data = bytearray(Path(basis).read_bytes())
        data[offset:offset + len(patch)] = patch
        junk = tmp_path / "junk.spbs"
        junk.write_bytes(data)
        code = main(["reconstruct", "--basis", str(junk),
                     "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--descriptor", str(tmp_path / "d.json"),
                     "--mesh", os.path.join(bundle, "base.off"),
                     "--out", str(tmp_path / "recon")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(junk) in err and message in err

    @staticmethod
    def assert_old_version_exit_2(version, order, stage, pipeline, tmp_path, capsys):
        """The pipeline's basis in the layout of an old version, with its
        eigenvectors in ``order``: the stage says to decompose again."""
        _, _, basis, _ = pipeline
        b = sd.SpectralBasis.load(basis)
        old = tmp_path / f"v{version}.spbs"
        old.write_bytes(
            struct.pack("<4sIQQ32s", b"SPBS", version, b.n, b.m,
                        bytes.fromhex(b.operator_fingerprint))
            + b.eigenvalues.tobytes() + b.eigenvectors.tobytes(order))
        args = _basis_reader(stage, pipeline, tmp_path)
        capsys.readouterr()
        assert main(args + ["--basis", str(old)]) == 2
        err = capsys.readouterr().err
        assert f"SPBS file {old}: " in err
        assert f"unsupported version {version}; re-run decompose" in err

    @pytest.mark.parametrize("stage", BASIS_READERS)
    def test_version_1_basis_exit_2(self, stage, pipeline, tmp_path, capsys):
        """A basis file of version 1, whose eigenvectors are column-major,
        is not read: every stage that reads a basis says to decompose again."""
        self.assert_old_version_exit_2(1, "F", stage, pipeline, tmp_path, capsys)

    @pytest.mark.parametrize("stage", BASIS_READERS)
    def test_version_2_basis_exit_2(self, stage, pipeline, tmp_path, capsys):
        """Nor is one of version 2, whose header holds no basis fingerprint."""
        self.assert_old_version_exit_2(2, "C", stage, pipeline, tmp_path, capsys)

    @pytest.mark.parametrize("stage", BASIS_READERS)
    def test_damaged_basis_exit_2(self, stage, pipeline, tmp_path, capsys):
        """A basis whose eigenpairs are no longer the ones it was saved with
        is not read: one flipped bit of one eigenvector entry exits 2."""
        _, _, basis, _ = pipeline
        damaged = tmp_path / "damaged.spbs"
        shutil.copy(basis, damaged)
        _flip(damaged, -3)  # a mantissa byte of the last eigenvector entry
        args = _basis_reader(stage, pipeline, tmp_path)
        capsys.readouterr()
        assert main(args + ["--basis", str(damaged)]) == 2
        err = capsys.readouterr().err
        assert (f"SPBS file {damaged}: ValueError: its eigenpairs are not the ones "
                "it was saved with; re-run decompose") in err
        assert not (tmp_path / "c").exists() and not (tmp_path / "recon").exists()
        assert not (tmp_path / "t.json").exists()

    @pytest.mark.parametrize("stage", ["filter", "cluster"])
    def test_directory_without_shapes_exit_2(self, stage, pipeline, tmp_path, capsys):
        _, _, _, coeffs = pipeline
        empty = tmp_path / "empty"
        empty.mkdir()
        shutil.copy(os.path.join(coeffs, "base.csv"), empty)  # not a shape
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", desc]) == 0
        args = {"filter": ["filter", "--descriptor", desc],
                "cluster": ["cluster", "-k", "3"]}[stage]
        assert main(args + ["--coeffs-dir", str(empty),
                            "--out", str(tmp_path / "o.csv")]) == 2
        assert f"error: no coefficient CSVs in {empty}" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: "not json", "JSONDecodeError"),
        (lambda doc: json.dumps({**doc, "states": dict(enumerate(doc["states"]))}),
         "TypeError"),
        (lambda doc: json.dumps([doc]), "TypeError"),
        (lambda doc: json.dumps({**doc, "version": 2}), "unsupported manifest version 2"),
    ], ids=["not JSON", "states is an object", "a list", "version 2"])
    def test_malformed_manifest_exit_2(self, corrupt, message, pipeline, tmp_path, capsys):
        _, _, basis, _ = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        manifest = copy / "manifest.json"
        manifest.write_text(corrupt(json.loads(manifest.read_text())))
        code = main(["encode", "--bundle", str(copy), "--basis", basis,
                     "--out", str(tmp_path / "coeffs")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and message in err

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: "not json", "JSONDecodeError"),
        (lambda doc: json.dumps({**doc, "entries": [1, 2]}),
         "TypeError"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "index": "a"}]}),
         "ValueError"),
        (lambda doc: json.dumps({**doc, "entries": []}), "ValueError"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "alpha_x": float("nan")}]}),
         "must be finite"),
        (lambda doc: json.dumps({**doc, "threshold_t": float("inf")}), "must be finite"),
        (lambda doc: json.dumps({**doc, "label": 5}), "label must be a str"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "index": -1}]}),
         "integers >= 0, got -1"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "index": 0.7}]}),
         "integers >= 0, got 0.7"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "index": 2**64}]}),
         f"integers >= 0, got {2**64}"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "alpha_x": "5.0"}]}),
         "must be numbers, got '5.0'"),
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "alpha_x": True}]}),
         "must be numbers, got True"),
        (lambda doc: json.dumps({**doc, "threshold_t": "0.5"}), "must be numbers, got '0.5'"),
        (lambda doc: json.dumps({**doc, "threshold_t": True}), "must be numbers, got True"),
        # JSON integers too large for a float64
        (lambda doc: json.dumps(
            {**doc, "entries": [{**doc["entries"][0], "alpha_x": 10**400}]}),
         "ValueError: descriptor triples and threshold must be finite"),
        (lambda doc: json.dumps({**doc, "threshold_t": 10**400}),
         "ValueError: descriptor triples and threshold must be finite"),
        (lambda doc: json.dumps({**doc, "entries": [doc["entries"][0]] * 2}),
         "ValueError: descriptor indices must be strictly increasing"),
        (lambda doc: json.dumps({**doc, "selection_mode": "random"}),
         "ValueError: unknown selection mode 'random'"),
    ], ids=["not JSON", "entries are numbers", "index is not a number",
            "no entries", "alpha_x is NaN", "threshold is infinite",
            "label is a number", "index is negative", "index is not an integer",
            "index overflows int64", "alpha_x is a string", "alpha_x is a bool",
            "threshold is a string", "threshold is a bool", "alpha_x overflows float64",
            "threshold overflows float64", "index repeated", "unknown selection mode"])
    def test_malformed_descriptor_exit_2(self, corrupt, message, pipeline, tmp_path, capsys):
        _, _, _, coeffs = pipeline
        desc = tmp_path / "d.json"
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", str(desc)]) == 0
        desc.write_text(corrupt(json.loads(desc.read_text())))
        code = main(["filter", "--descriptor", str(desc), "--coeffs-dir", coeffs,
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(desc) in err and message in err


    @pytest.mark.parametrize("loader", ["OFF", "CSV", "descriptor JSON", "manifest",
                                        "SPBS"])
    def test_each_loader_names_its_file(self, loader, pipeline, tmp_path, capsys):
        """Every loader meets bad input through ``_files.reading``: exit 2,
        and the path and the problem on stderr."""
        _, _, basis, coeffs = pipeline
        copy = _copy_bundle(pipeline, tmp_path)
        desc, csv, spbs = tmp_path / "d.json", tmp_path / "006.csv", tmp_path / "b.spbs"
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", str(desc)]) == 0
        shutil.copy(os.path.join(coeffs, "006.csv"), csv)
        shutil.copy(basis, spbs)
        encode = ["encode", "--bundle", str(copy), "--out", str(tmp_path / "coeffs"),
                  "--basis"]
        bad, args = {
            "OFF": (copy / "states" / "004.off", encode + [basis]),
            "CSV": (csv, ["descriptor", "--coeffs", str(csv),
                          "--out", str(tmp_path / "out.json")]),
            "descriptor JSON": (desc, ["filter", "--descriptor", str(desc),
                                       "--coeffs-dir", coeffs,
                                       "--out", str(tmp_path / "r.csv")]),
            "manifest": (copy / "manifest.json", encode + [basis]),
            "SPBS": (spbs, encode + [str(spbs)]),
        }[loader]
        data = bytearray(bad.read_bytes())
        if loader == "SPBS":  # the first eigenvalue, after the 88-byte header, above the second
            second = np.frombuffer(data, "<f8", 1, offset=96)[0]
            data[88:96] = np.array(second + 1.0, "<f8").tobytes()
            message = "eigenvalues must be ascending"
        else:  # a byte that starts no UTF-8 character
            data[:0] = b"\xff"
            message = "UnicodeDecodeError"
        bad.write_bytes(data)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{bad}: " in err and message in err


def _stage_args(stage, pipeline, tmp_path, variant):
    """CLI arguments for one stage; the two variants write different bytes."""
    _, bundle, basis, coeffs = pipeline
    shape = os.path.join(coeffs, ("006.csv", "000.csv")[variant])
    desc = str(tmp_path / f"in{variant}.json")
    assert main(["descriptor", "--coeffs", shape, "--augment", "--out", desc]) == 0
    return {
        "descriptor": ["descriptor", "--coeffs", shape,
                       "--label", f"v{variant}", "--out", str(tmp_path / "d.json")],
        "filter": ["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
                   "--top-k", ("9", "3")[variant], "--out", str(tmp_path / "r.csv")],
        "cluster": ["cluster", "--coeffs-dir", coeffs, "-k", ("3", "2")[variant],
                    "--out", str(tmp_path / "a.csv")],
        "reconstruct": ["reconstruct", "--basis", basis, "--coeffs", shape,
                        "--descriptor", desc,
                        "--mesh", os.path.join(bundle, "base.off"),
                        "--out", str(tmp_path / "recon")],
    }[stage]


STAGE_OUTPUTS = {
    "descriptor": ["d.json"],
    "filter": ["r.csv"],
    "cluster": ["a.csv"],
    "reconstruct": ["recon/recon_descriptor.off", "recon/recon_first_m_ordered.off",
                    "recon/errors.csv"],
}


@pytest.mark.parametrize("stage", sorted(STAGE_OUTPUTS))
def test_rerun_replaces_outputs(stage, pipeline, tmp_path):
    paths = [tmp_path / name for name in STAGE_OUTPUTS[stage]]
    assert main(_stage_args(stage, pipeline, tmp_path, 0)) == 0
    old = [p.read_bytes() for p in paths]
    held = [open(p, "rb") for p in paths]
    try:
        assert main(_stage_args(stage, pipeline, tmp_path, 1)) == 0
        for path, f, before in zip(paths, held, old):
            assert os.fstat(f.fileno()).st_nlink == 0, path
            assert f.read() == before
            assert path.read_bytes() != before
    finally:
        for f in held:
            f.close()


def _verbose_case(stage, pipeline, tmp_path):
    """The arguments of one stage, and a function of what the stage wrote
    that gives the lines its ``--verbose`` must print."""
    _, bundle, basis, coeffs = pipeline
    out = str(tmp_path / "out")
    shape = os.path.join(coeffs, "006.csv")

    def descriptor_lines():
        d = sd.DeformationDescriptor.load(out)
        return [f"wrote descriptor: t={d.threshold:g}, size_M={d.size_m} -> {out}"]

    def tuned_lines():
        with warnings.catch_warnings():  # the stage printed its warning already
            warnings.simplefilter("ignore")
            t, _, achieved = sd.tune_threshold(sd.SpectralCoefficients.load_csv(shape),
                                               sd.SpectralBasis.load(basis), 0.05)
        return [f"tuned t={t:g}, achieved RMS {achieved:g}"] + descriptor_lines()

    def reconstruct_lines():
        with open(os.path.join(out, "errors.csv")) as f:
            rows = [line.split(",") for line in f.read().splitlines()[1:]]
        return [f"{name}: RMS {float(err):g}" for name, err in rows]

    def cluster_lines():
        stack = sd.load_coeff_dir(coeffs)
        return [f"k=3 inertia {sd.cluster_coefficients(stack, 3).inertia:g} -> {out}"]

    desc = str(tmp_path / "in.json")
    if stage in ("reconstruct", "filter"):
        assert main(["descriptor", "--coeffs", shape, "--augment", "--out", desc]) == 0
    n = sd.SpectralBasis.load(basis).n
    return {
        "generate": (GEN + ["--out", out],
                     lambda: [f"wrote bundle: N={n}, 9 states -> {out}"]),
        "decompose": (["decompose", "--bundle", bundle, "--modes", "40", "--out", out],
                      lambda: [f"wrote basis: N={n}, M=40 -> {out}"]),
        "encode": (["encode", "--bundle", bundle, "--basis", basis, "--out", out],
                   lambda: [f"wrote 10 coefficient CSVs and the stack of the 9 shapes "
                            f"-> {out}"]),
        "descriptor": (["descriptor", "--coeffs", shape, "--out", out], descriptor_lines),
        "descriptor --tune": (["descriptor", "--coeffs", shape, "--tune", "0.05",
                               "--basis", basis, "--out", out], tuned_lines),
        "reconstruct": (["reconstruct", "--basis", basis, "--coeffs", shape,
                         "--descriptor", desc, "--mesh", os.path.join(bundle, "base.off"),
                         "--out", out], reconstruct_lines),
        "filter": (["filter", "--descriptor", desc, "--coeffs-dir", coeffs, "--top-k", "3",
                    "--out", out], lambda: [f"wrote 3 ranked shapes -> {out}"]),
        "cluster": (["cluster", "--coeffs-dir", coeffs, "-k", "3", "--out", out],
                    cluster_lines),
    }[stage]


@pytest.mark.parametrize("stage", ["generate", "decompose", "encode", "descriptor",
                                   "descriptor --tune", "reconstruct", "filter", "cluster"])
def test_verbose_says_what_each_stage_wrote(stage, pipeline, tmp_path, capsys):
    argv, lines = _verbose_case(stage, pipeline, tmp_path)
    capsys.readouterr()
    assert main(["--verbose"] + argv) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines())


# a fresh interpreter runs the given stages through cli.main and prints, per
# stage, its exit code and whether the module named second has been imported
# by then
COLD_START = """\
import json, sys
import spectral_deform, spectral_deform.cli
module = sys.argv[2]
seen = [("import", 0, module in sys.modules)]
for argv in json.loads(sys.argv[1]):
    code = spectral_deform.cli.main(argv)
    seen.append((argv[0], code, module in sys.modules))
print(json.dumps(seen))
"""


def _cold_start(stages, module):
    src = str(Path(sd.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(stages), module],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out)


class TestColdStart:
    def test_query_stages_never_import_scipy(self, pipeline, tmp_path):
        _, bundle, basis, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        stages = [
            ["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
             "--augment", "--out", desc],
            ["descriptor", "--coeffs", os.path.join(coeffs, "003.csv"),
             "--tune", "inf", "--basis", basis, "--out", str(tmp_path / "t.json")],
            ["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
             "--top-k", "3", "--out", str(tmp_path / "r.csv")],
            ["cluster", "--coeffs-dir", coeffs, "-k", "3",
             "--out", str(tmp_path / "a.csv")],
            ["decompose", "--bundle", bundle, "--modes", "20",
             "--out", str(tmp_path / "b.spbs")],
        ]
        assert _cold_start(stages, "scipy") == [
            ["import", 0, False],
            ["descriptor", 0, False],
            ["descriptor", 0, False],
            ["filter", 0, False],
            ["cluster", 0, False],
            # the eigensolve does need scipy
            ["decompose", 0, True],
        ]

    def test_only_float_table_writers_import_orjson(self, pipeline, tmp_path):
        _, _, _, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        stages = [
            ["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
             "--augment", "--out", desc],
            ["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
             "--top-k", "3", "--out", str(tmp_path / "r.csv")],
            ["cluster", "--coeffs-dir", coeffs, "-k", "3",
             "--out", str(tmp_path / "a.csv")],
            ["cluster", "--coeffs-dir", coeffs, "-k", "3",
             "--out", str(tmp_path / "a.csv"), "--scatter", str(tmp_path / "s.dat")],
        ]
        assert _cold_start(stages, "orjson") == [
            ["import", 0, False],
            ["descriptor", 0, False],
            ["filter", 0, False],
            ["cluster", 0, False],
            # the scatter file is a float table
            ["cluster", 0, True],
        ]

    def test_cached_parser_as_a_fresh_one_per_call(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        _, _, _, coeffs = pipeline
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", os.path.join(coeffs, "006.csv"),
                     "--out", desc]) == 0
        out = tmp_path / "r.csv"
        query = ["filter", "--descriptor", desc, "--coeffs-dir", coeffs,
                 "--out", str(out)]
        calls = [
            ["--verbose", *query, "--top-k", "3"],
            [*query, "--min-score", "0.5"],
            [*query, "--top-k", "3", "--min-score", "0.5"],  # argparse: exit 2
            [*query],
        ]

        def run_all():
            seen = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as e:
                    code = e.code
                std = capsys.readouterr()
                seen.append((code, std.out, std.err, out.read_bytes()))
            return seen

        assert cli.build_parser() is cli.build_parser()
        cached = run_all()
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        fresh = run_all()
        assert [c[0] for c in cached] == [0, 0, 2, 0]
        assert cached == fresh
