import filecmp
import json
import os
import shutil

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
        c = sd.SpectralCoefficients.load_csv(shape)
        base = sd.SpectralCoefficients.load_csv(base_path)
        t = threshold
        if t is None:
            t = sd.statistical_threshold(sd.SpectralCoefficients(c.values - base.values))
        desc = sd.complete_descriptor(
            sd.select_by_baseline_difference(c, base, t), c, augment=True,
            threshold=t, selection_mode="baseline_difference",
        )
        assert out.read_text() == desc.to_json() + "\n"


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

        for module in (sd, spectral, sd.descriptor, sd.cli):
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
    _, _, _, coeffs = pipeline
    out = tmp_path / "coeffs"
    out.mkdir()
    for name in os.listdir(coeffs):
        with open(os.path.join(coeffs, name)) as f:
            (out / name).write_text(f.read())
    return out


class TestCoefficientCsv:
    def test_values_bitwise_equal_to_line_parser(self, pipeline):
        _, _, _, coeffs = pipeline
        for name in sorted(os.listdir(coeffs)):
            path = os.path.join(coeffs, name)
            np.testing.assert_array_equal(
                sd.SpectralCoefficients.load_csv(path).values, _old_load_csv(path)
            )

    @pytest.fixture(params=sorted(CSV_FAULTS))
    def corrupt_dir(self, request, pipeline, tmp_path):
        out = _copy_coeffs(pipeline, tmp_path)
        target = out / "003.csv"
        lines = target.read_text().splitlines()
        head, rows = lines[:2], lines[2:]
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
        target.write_text("\n".join(target.read_text().splitlines()[:-5]) + "\n")
        desc = str(tmp_path / "d.json")
        assert main(["descriptor", "--coeffs", str(target), "--out", desc]) == 0
        args = {
            "cluster": ["cluster", "--coeffs-dir", str(out), "-k", "3"],
            "filter": ["filter", "--descriptor", desc, "--coeffs-dir", str(out)],
        }[stage]
        assert main(args + ["--out", str(tmp_path / "o.csv")]) == 2
        assert "003.csv" in capsys.readouterr().err


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
    ], ids=["not JSON", "entries are numbers"])
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
