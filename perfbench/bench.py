"""Workloads, the measured pipeline pass and its correctness checks.

A pass runs every CLI stage in-process through ``spectral_deform.cli.main``
on a bundle generated from the workload seed:

    generate -> decompose -> encode
    -> round 0: Q x (descriptor + filter --top-k 9), with R x reconstruct
                and cluster -k 3 with seeds 0..4 spread among them
    -> with a deadline, one more generate and encode in round 0, and
       rounds 1, 2, ... like it until the deadline

Each stage call is one operation: it is attempted, and it fails if it exits
non-zero or raises. Between stages, untimed and untraced, the benchmark
checks the files a stage wrote.

Import this module only after SPECTRAL_DEFORM_THREADS is set: it imports
numpy, which starts BLAS.
"""

from __future__ import annotations

import csv
import filecmp
import itertools
import json
import os
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from spectral_deform import cli
from spectral_deform.laplacian import cotangent_laplacian
from spectral_deform.mesh import load_mesh
from spectral_deform.spectral import (
    SpectralBasis,
    SpectralCoefficients,
    reconstruct_geometry,
)

TOP_K = 9
CLUSTER_K = 3
CLUSTER_SEEDS = range(5)

# acceptance criterion 1 bounds, checked on the saved basis
ORTHONORMALITY_TOL = 1e-8
RESIDUAL_TOL = 1e-7
# full-M reconstruction vs. the M-truncated projection, relative to max |P|
PROJECTION_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    axial_segments: int
    section_segments: int
    per_mode: tuple[int, int, int]
    modes: int
    # queries a round, cycling over `asked` shapes spread over the bundle:
    # every query parses all S coefficient files whichever shape it asks
    # about, so asking a few shapes often gives each more samples at the
    # same cost
    queries: int
    asked: int
    reconstructs: int

    @property
    def shapes(self) -> int:
        return sum(self.per_mode)

    def query_shapes(self) -> list[int]:
        """The shape index of each query of a round."""
        picks = [i * self.shapes // self.asked for i in range(self.asked)]
        return [picks[i % self.asked] for i in range(self.queries)]


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # name, axial segments, section segments, per mode, M, queries,
        # shapes asked, reconstructs
        Workload("acceptance", 60, 12, (34, 33, 33), 500, 30, 15, 9),
        Workload("large_mesh", 200, 12, (10, 10, 10), 500, 100, 30, 5),
        Workload("wide_bundle", 60, 12, (100, 100, 100), 60, 100, 100, 9),
        Workload("smoke", 24, 4, (3, 3, 3), 60, 9, 9, 3),
    )
}


class PipelineAborted(RuntimeError):
    """A stage whose output every later stage needs has failed."""


@dataclass
class PassResult:
    """Timings, quality figures and operation counts of one pipeline pass."""

    # (operation, item) -> wall seconds of each of its calls; a query's item
    # is its shape, so a shape queried more than once pools its samples
    times: dict[tuple[str, int], list[float]] = field(default_factory=dict)
    # the shape of each query of a round
    query_shapes: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    # quality figures, from the first call of each query, reconstruct and
    # cluster item
    precisions: list[float] = field(default_factory=list)
    descriptor_sizes: list[int] = field(default_factory=list)
    rms_ratios: list[float] = field(default_factory=list)
    purities: list[float] = field(default_factory=list)
    n_vertices: int = 0
    orthonormality_err: float = float("nan")
    residual_max: float = float("nan")

    def best(self, op: str) -> list[float]:
        """Each item of an operation at its fastest sample, in item order."""
        return [min(v) for (o, _), v in sorted(self.times.items()) if o == op]

    def samples(self, op: str) -> list[float]:
        """Every sample of every item of an operation."""
        return [t for (o, _), v in self.times.items() if o == op for t in v]

    @property
    def pipeline_s(self) -> float:
        """One generate, decompose and encode, every query of a round and
        every reconstruct and cluster item, each at its fastest sample."""
        best = {k: min(v) for k, v in self.times.items()}
        return (sum(t for (op, _), t in best.items() if op != "query")
                + sum(best[("query", s)] for s in self.query_shapes))


class _Pass:
    def __init__(self, workload: Workload, seed: int, workdir: str, tracer,
                 deadline: float | None = None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.deadline = deadline
        # stage -> wall seconds of its last call
        self.last: dict[str, float] = {}
        self.workdir = workdir
        self.r = PassResult()
        self.round = 0
        self.rankings: dict[int, list[int]] = {}
        self.bundle = os.path.join(workdir, "bundle")
        self.basis = os.path.join(workdir, "basis.spbs")
        self.coeffs = os.path.join(workdir, "coeffs")
        self.descs = os.path.join(workdir, "descriptors")
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.descs, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)

    def call(self, stage: str, *argv: str) -> tuple[bool, float]:
        """Run one CLI stage; return (succeeded, wall seconds)."""
        self.r.attempted += 1
        span = self.tracer.stage(stage) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                code = cli.main([stage, *argv])
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        dt = time.perf_counter() - t0
        self.last[stage] = dt
        if code != 0:
            self.r.failed += 1
            self.r.errors.append(f"{stage} {' '.join(argv)}: exit {code}")
        return code == 0, dt

    def record(self, op: str, item: int, seconds: float) -> None:
        self.r.times.setdefault((op, item), []).append(seconds)

    def fail(self, message: str) -> None:
        self.r.errors.append(f"round {self.round}: {message}")

    def write_stage(self, stage: str, *argv: str) -> None:
        ok, dt = self.call(stage, *argv)
        if not ok:
            raise PipelineAborted(f"{stage} failed")
        self.record(stage, 0, dt)

    def generate(self, bundle: str) -> None:
        w = self.w
        self.write_stage(
            "generate", "--out", bundle,
            "--per-mode", *map(str, w.per_mode), "--seed", str(self.seed),
            "--axial-segments", str(w.axial_segments),
            "--section-segments", str(w.section_segments),
        )

    def decompose(self) -> None:
        self.write_stage("decompose", "--bundle", self.bundle,
                         "--modes", str(self.w.modes), "--out", self.basis)

    def encode(self, bundle: str, out: str) -> None:
        self.write_stage("encode", "--bundle", bundle, "--basis", self.basis,
                         "--out", out)

    def write_again(self) -> None:
        """Generate and encode again into a scratch copy, which must match
        the first coefficient files byte for byte; the read path keeps
        using the first files."""
        again = os.path.join(self.workdir, "again")
        self.generate(os.path.join(again, "bundle"))
        self.encode(os.path.join(again, "bundle"), os.path.join(again, "coeffs"))
        names = sorted(os.listdir(self.coeffs))
        _, mismatch, errors = filecmp.cmpfiles(
            self.coeffs, os.path.join(again, "coeffs"), names, shallow=False)
        if mismatch or errors:
            self.fail(f"generate and encode again: {mismatch + errors} differ "
                      f"from the first coefficient files")
        shutil.rmtree(again)

    def fits(self, *stages: str) -> bool:
        """Whether calls of these stages, each as long as its last call, end
        before the deadline."""
        return time.perf_counter() + sum(self.last[s] for s in stages) <= self.deadline

    def run(self) -> PassResult:
        w = self.w
        self.generate(self.bundle)
        with open(os.path.join(self.bundle, "manifest.json")) as f:
            labels = [s["label"] for s in json.load(f)["states"]]
        self.decompose()
        basis = self.check_basis()
        self.encode(self.bundle, self.coeffs)
        shapes = self.r.query_shapes = w.query_shapes()
        self.check_projection(basis, shapes[0])

        # The calls a round makes between its queries: after query i, with
        # the stages each calls. A reconstruct takes the shape of the query
        # just before it, whose descriptor round 0 has written.
        q = len(shapes)
        slots: dict[int, list] = {}

        def at(i, call, *stages):
            slots.setdefault(i, []).append((call, stages))

        for k in range(w.reconstructs):
            i = (2 * k + 1) * q // (2 * w.reconstructs)
            at(i, partial(self.reconstruct, k, shapes[i]), "reconstruct")
        for k, seed in enumerate(CLUSTER_SEEDS):
            at((2 * k + 1) * q // (2 * len(CLUSTER_SEEDS)),
               partial(self.cluster, seed, labels), "cluster")
        if self.deadline is not None:
            at(q // 2, self.write_again, "generate", "encode")

        # round 0 makes every call; later rounds, until the deadline, make
        # each call that ends before it
        for self.round in itertools.count():
            for i, shape in enumerate(shapes):
                if self.round and not self.fits("descriptor", "filter"):
                    return self.r
                self.query(i, shape, labels)
                for call, stages in slots.get(i, []):
                    if self.round == 0 or self.fits(*stages):
                        call()
            if self.deadline is None:
                return self.r

    def check_basis(self) -> SpectralBasis:
        """Criterion-1 bounds on the saved basis against the base operator."""
        basis = SpectralBasis.load(self.basis)
        L = cotangent_laplacian(load_mesh(os.path.join(self.bundle, "base.off")))
        self.r.n_vertices = L.shape[0]
        if (basis.n, basis.m) != (L.shape[0], self.w.modes):
            self.fail(f"basis is {basis.n}x{basis.m}, expected "
                      f"{L.shape[0]}x{self.w.modes}")
            return basis
        E = basis.eigenvectors
        self.r.orthonormality_err = float(np.abs(E.T @ E - np.eye(basis.m)).max())
        self.r.residual_max = float(np.abs(L @ E - E * basis.eigenvalues).max())
        scale = max(1.0, float(np.abs(L.data).max()))
        if not self.r.orthonormality_err <= ORTHONORMALITY_TOL:
            self.fail(f"basis orthonormality error {self.r.orthonormality_err:g} "
                      f"> {ORTHONORMALITY_TOL:g}")
        if not self.r.residual_max <= RESIDUAL_TOL * scale:
            self.fail(f"eigenpair residual {self.r.residual_max:g} > "
                      f"{RESIDUAL_TOL:g} * {scale:g}")
        return basis

    def check_projection(self, basis: SpectralBasis, shape: int) -> None:
        """Full-M reconstruction from the encoded CSV equals the projection."""
        P = load_mesh(os.path.join(self.bundle, "states", f"{shape:03d}.off")).vertices
        coeffs = SpectralCoefficients.load_csv(
            os.path.join(self.coeffs, f"{shape:03d}.csv"))
        E = basis.eigenvectors
        err = np.abs(reconstruct_geometry(basis, coeffs, None) - E @ (E.T @ P)).max()
        if not err <= PROJECTION_TOL * max(1.0, np.abs(P).max()):
            self.fail(f"shape {shape}: full-M reconstruction differs from the "
                      f"M-truncated projection by {err:g}")

    def query(self, i: int, shape: int, labels: list[str]) -> None:
        desc = os.path.join(self.descs, f"{shape:03d}.json")
        ranking = os.path.join(self.out, "ranking.csv")
        ok_d, t_d = self.call(
            "descriptor", "--coeffs", os.path.join(self.coeffs, f"{shape:03d}.csv"),
            "--augment", "--out", desc,
        )
        ok_f, t_f = self.call(
            "filter", "--descriptor", desc, "--coeffs-dir", self.coeffs,
            "--top-k", str(TOP_K), "--out", ranking,
        )
        self.record("query", shape, t_d + t_f)
        if not (ok_d and ok_f):
            return
        with open(ranking) as f:
            ids = [int(row["shape_id"]) for row in csv.DictReader(f)]
        if len(ids) != min(TOP_K, self.w.shapes) or shape not in ids:
            self.fail(f"query {shape}: ranking {ids} lacks the query or has "
                      f"the wrong length")
        if self.round > 0:
            if ids != self.rankings.get(i):
                self.fail(f"query {shape}: ranking {ids} differs from round 0")
            return
        self.rankings[i] = ids
        with open(desc) as f:
            self.r.descriptor_sizes.append(len(json.load(f)["entries"]))
        self.r.precisions.append(
            sum(labels[j] == labels[shape] for j in ids) / len(ids))

    def reconstruct(self, i: int, shape: int) -> None:
        out = os.path.join(self.out, "recon")
        first = ("reconstruct", i) not in self.r.times
        ok, dt = self.call(
            "reconstruct", "--basis", self.basis,
            "--coeffs", os.path.join(self.coeffs, f"{shape:03d}.csv"),
            "--descriptor", os.path.join(self.descs, f"{shape:03d}.json"),
            "--mesh", os.path.join(self.bundle, "base.off"), "--out", out,
        )
        self.record("reconstruct", i, dt)
        if not (ok and first):
            return
        with open(os.path.join(out, "errors.csv")) as f:
            rms = {row["reconstruction"]: float(row["rms_error"])
                   for row in csv.DictReader(f)}
        self.r.rms_ratios.append(rms["descriptor"] / rms["first_m_ordered"])

    def cluster(self, seed: int, labels: list[str]) -> None:
        out = os.path.join(self.out, "clusters.csv")
        first = ("cluster", seed) not in self.r.times
        ok, dt = self.call(
            "cluster", "--coeffs-dir", self.coeffs, "-k", str(CLUSTER_K),
            "--seed", str(seed), "--out", out,
        )
        self.record("cluster", seed, dt)
        if not ok:
            return
        members: dict[str, list[str]] = {}
        with open(out) as f:
            for row in csv.DictReader(f):
                members.setdefault(row["cluster"], []).append(
                    labels[int(row["shape_id"])])
        n = sum(len(v) for v in members.values())
        if n != self.w.shapes:
            self.fail(f"cluster seed {seed}: {n} assignments for "
                      f"{self.w.shapes} shapes")
            return
        if first:
            self.r.purities.append(
                sum(max(map(v.count, set(v))) for v in members.values()) / n)


def run_pass(workload: Workload, seed: int, workdir: str, tracer=None,
             deadline: float | None = None) -> PassResult:
    """Run the pipeline once; with a deadline (a time.perf_counter()
    value), repeat its rounds until the deadline.

    Other load on a shared machine only ever adds time, so each operation is
    reported at its fastest sample, and repeated rounds spread the samples
    of one operation over the whole run.

    Raises PipelineAborted when generate, decompose or encode fails.
    """
    p = _Pass(workload, seed, workdir, tracer, deadline)
    try:
        return p.run()
    except PipelineAborted as e:
        e.result = p.r
        raise


def end_to_end_metrics(r: PassResult) -> dict[str, float]:
    """The end-to-end figures of one untraced pass (setup_s and RSS aside)."""
    # The median takes each query at its fastest round. The tail is taken
    # over all samples: most of it is other load on the machine, which a
    # fastest-round tail catches in some runs and misses in others.
    tail = statistics.quantiles(r.samples("query"), n=10, method="inclusive")[8]
    return {
        "generate_s": min(r.best("generate")),
        "decompose_s": min(r.best("decompose")),
        "encode_s": min(r.best("encode")),
        "query_p50_s": statistics.median(r.best("query")),
        "query_p90_s": tail,
        "reconstruct_p50_s": statistics.median(r.best("reconstruct")),
        "cluster_p50_s": statistics.median(r.best("cluster")),
        "pipeline_s": r.pipeline_s,
        "precision_at_9": statistics.fmean(r.precisions),
        "cluster_purity": statistics.median(r.purities),
        "descriptor_size_mean": statistics.fmean(r.descriptor_sizes),
        "recon_rms_ratio": statistics.fmean(r.rms_ratios),
    }


LAYER_SPANS = {
    "mesh.load": ("_s", "_calls"),
    "mesh.save": ("_s", "_calls"),
    "mesh.validate": ("_s", "_calls"),
    "laplacian.assemble": ("_s",),
    "laplacian.fingerprint": ("_s",),
    "spectral.eigensolve": ("_s", "_calls"),
    "spectral.lanczos": ("_calls",),
    "spectral.basis_save": ("_s",),
    "spectral.basis_load": ("_s", "_calls"),
    "spectral.encode": ("_s", "_calls"),
    "spectral.coeff_load": ("_s", "_calls"),
    "spectral.coeff_save": ("_s", "_calls"),
    "spectral.reconstruct": ("_s", "_calls"),
    "descriptor.select": ("_s",),
    "retrieval.rank": ("_s", "_calls"),
    "retrieval.kmeans": ("_s", "_calls"),
    "bundle.synthesize": ("_s",),
    "bundle.save": ("_s",),
    "bundle.load": ("_s", "_calls"),
}

COUNTERS = (
    "mesh.bytes_read",
    "mesh.bytes_written",
    "laplacian.nnz",
    "spectral.basis_bytes",
    "spectral.encode_flops",
    "spectral.coeff_bytes",
)


def layer_metrics(tracer, traced: PassResult, untraced: PassResult,
                  queries: int) -> dict[str, float]:
    """Per-layer figures of a traced pass, plus the tracing overhead."""
    durations = tracer.durations()
    out: dict[str, float] = {}
    for name, kinds in LAYER_SPANS.items():
        if "_s" in kinds:
            out[name + "_s"] = sum(durations.get(name, []))
        if "_calls" in kinds:
            out[name + "_calls"] = len(durations.get(name, []))
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    out["retrieval.purity_min"] = min(traced.purities)
    out["spectral.residual_max"] = traced.residual_max
    out["spectral.orthonormality_err"] = traced.orthonormality_err
    descriptors = len(durations.get("cli.descriptor", []))
    out["descriptor.size_m"] = (
        tracer.counts.get("descriptor.size_m_total", 0) / max(descriptors, 1))
    out["retrieval.rank_useful_ratio"] = (
        queries / out["retrieval.rank_calls"] if out["retrieval.rank_calls"] else 0.0)
    for name, self_s in tracer.self_times().items():
        out[name + ".self_s"] = self_s
    out["trace.pipeline_s"] = traced.pipeline_s
    out["trace.overhead_s"] = traced.pipeline_s - untraced.pipeline_s
    out["trace.spans"] = len(tracer.spans)
    return out
