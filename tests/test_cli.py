import ast
import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

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

    def test_three_reconstructions_per_call(self, pipeline, tmp_path, monkeypatch):
        calls = []
        original = spectral.reconstruct_geometry

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (sd, spectral, sd.descriptor):
            monkeypatch.setattr(module, "reconstruct_geometry", counting)
        code, _, _ = self._run(pipeline, tmp_path)
        assert code == 0
        assert len(calls) == 3  # the reference, then each subset once

    def test_errors_equal_reconstruction_error(self, pipeline, tmp_path):
        _, _, basis_path, coeffs = pipeline
        code, out, desc_path = self._run(pipeline, tmp_path)
        assert code == 0
        basis = sd.SpectralBasis.load(basis_path)
        c = sd.SpectralCoefficients.load_csv(os.path.join(coeffs, "006.csv"))
        desc = sd.DeformationDescriptor.load(desc_path)
        reference = sd.reconstruct_geometry(basis, c, None)
        expected = {
            "descriptor": sd.reconstruction_error(basis, c, desc.indices, reference),
            "first_m_ordered": sd.reconstruction_error(
                basis, c, np.arange(desc.size_m), reference
            ),
        }
        lines = (out / "errors.csv").read_text().splitlines()[1:]
        assert dict(line.split(",") for line in lines) == {
            name: repr(err) for name, err in expected.items()
        }


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


# data row 3 of a coefficient CSV, corrupted four ways
CSV_FAULTS = {
    "short_row": lambda rows: rows[:3] + ["3,1.0,2.0"] + rows[4:],
    "non_numeric": lambda rows: rows[:3] + ["3,1.0,abc,2.0"] + rows[4:],
    "reordered": lambda rows: rows[:3] + [rows[4], rows[3]] + rows[5:],
    "missing_row": lambda rows: rows[:3] + rows[4:],
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
        target.write_text("\n".join(head + CSV_FAULTS[request.param](rows)) + "\n")
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
}


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
        plain = tmp_path / "without" / "coeffs"
        shutil.copytree(faulty, plain)
        (plain / STACK).unlink(missing_ok=True)
        expected = self._outputs(plain, desc, capsys)
        assert self._outputs(faulty, desc, capsys) == expected
        assert all(code == 0 for code, _, _ in expected.values())


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
        its two base builds, encode the base it reads, and no state."""
        _, _, basis, _ = pipeline
        validated = []
        post_init = sd.TriangleMesh.__post_init__

        def counting(mesh):
            validated.append(mesh.n_triangles)
            post_init(mesh)

        monkeypatch.setattr(sd.TriangleMesh, "__post_init__", counting)
        bundle = str(tmp_path / "bundle")
        assert main(GEN + ["--out", bundle]) == 0
        assert len(validated) == 2
        assert main(["encode", "--bundle", bundle, "--basis", basis,
                     "--out", str(tmp_path / "coeffs")]) == 0
        assert len(validated) == 3


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

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: "not json", "JSONDecodeError"),
        (lambda doc: json.dumps({**doc, "states": dict(enumerate(doc["states"]))}),
         "TypeError"),
    ], ids=["not JSON", "states is an object"])
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
    ], ids=["not JSON", "entries are numbers", "index is not a number",
            "no entries"])
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


# a fresh interpreter runs the given stages through cli.main and prints, per
# stage, its exit code and whether scipy has been imported by then
COLD_START = """\
import json, sys
import spectral_deform, spectral_deform.cli
seen = [("import", 0, "scipy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    code = spectral_deform.cli.main(argv)
    seen.append((argv[0], code, "scipy" in sys.modules))
print(json.dumps(seen))
"""


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
        src = str(Path(sd.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", COLD_START, json.dumps(stages)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        assert json.loads(out) == [
            ["import", 0, False],
            ["descriptor", 0, False],
            ["descriptor", 0, False],
            ["filter", 0, False],
            ["cluster", 0, False],
            # the eigensolve does need scipy
            ["decompose", 0, True],
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
