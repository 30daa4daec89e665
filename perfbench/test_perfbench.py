"""Tests of the benchmark itself, on its smoke workload.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import tracing  # noqa: E402
from spectral_deform import SpectralBasis, cli  # noqa: E402


def run_benchmark(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def runs():
    """The smoke workload untraced on seed 8 and traced on seed 7."""
    return {
        trace: run_benchmark("--workload", "smoke", "--seed", seed,
                             "--seconds", "1", "--trace", trace)
        for trace, seed in (("0", "8"), ("1", "7"))
    }


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, spec, trace, kind):
    proc = runs[trace]
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec[kind]}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_a_second_seed_runs_clean(runs):
    result = result_of(runs["0"])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_traced_call_counts_match_the_workload(tmp_path):
    w = bench.WORKLOADS["smoke"]
    tracer = tracing.Tracer()
    with tracer.installed():
        r = bench.run_pass(w, 7, str(tmp_path), tracer)
    assert r.errors == [] and r.failed == 0
    assert tracer.calls("mesh.load", stage="encode") == w.shapes + 1
    # cmd_filter ranks the bundle twice per query
    assert tracer.calls("retrieval.rank") == 2 * w.queries
    assert tracer.calls("cli.descriptor") == w.queries
    assert tracer.calls("spectral.encode", stage="encode") == w.shapes + 1
    # every library span sits under one CLI stage
    assert all(s["stage"] for s in tracer.spans)
    # the wrappers are gone once the block ends
    assert cli.load_bundle is sys.modules["spectral_deform.bundle"].load_bundle
    assert not hasattr(cli.load_bundle, "__wrapped__")


def test_a_deadline_repeats_rounds_until_it_passes(tmp_path):
    w = bench.WORKLOADS["smoke"]
    start = time.perf_counter()
    r = bench.run_pass(w, 7, str(tmp_path), deadline=start + 4)
    assert r.errors == [] and r.failed == 0
    # round 0 whole, with one more generate and encode, then more rounds
    assert len(r.times[("generate", 0)]) >= 2
    assert len(r.times[("encode", 0)]) >= 2
    assert len(r.times[("decompose", 0)]) == 1
    assert len(r.samples("query")) > w.queries
    assert time.perf_counter() - start < 4 + 1


def test_a_failed_stage_is_counted(tmp_path):
    p = bench._Pass(bench.WORKLOADS["smoke"], 7, str(tmp_path), None)
    ok, _ = p.call("decompose", "--bundle", str(tmp_path / "missing"),
                   "--modes", "5", "--out", str(tmp_path / "b.spbs"))
    assert not ok
    assert (p.r.attempted, p.r.failed) == (1, 1)


def test_a_basis_off_the_criterion_1_bounds_is_caught(tmp_path):
    p = bench._Pass(bench.WORKLOADS["smoke"], 7, str(tmp_path), None)
    p.generate(p.bundle)
    p.write_stage("decompose", "--bundle", p.bundle, "--modes", "60",
                  "--out", p.basis)
    p.check_basis()
    assert p.r.errors == []
    good = SpectralBasis.load(p.basis)
    SpectralBasis(good.eigenvalues, good.eigenvectors * 1.001).save(p.basis)
    p.check_basis()
    assert any("orthonormality" in e for e in p.r.errors)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("--workload", "smoke", "--seed", "7", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path,
                         script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
