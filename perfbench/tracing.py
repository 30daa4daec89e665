"""Spans around the library's public functions, recorded from outside it.

The benchmark opens one root span per CLI stage call (``cli.<stage>``). While
a root span is open, every call into a wrapped public function records a
child span (name, start, end, parent) plus a few counters such as bytes read.
Calls made outside a stage, such as the benchmark's own correctness checks,
go straight through and are not recorded. Spans stay in memory until the
run writes them out.

Functions are rebound in every ``spectral_deform`` module that holds them,
because ``from .x import y`` copies the name into the importing module (cli,
bundle, descriptor, the package itself). Methods are patched on their class.
A wrapped function that a later version of the library no longer has is
skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "spectral_deform"


def _path_bytes(metric, position):
    """Counter: add the size of the file named by a positional argument."""

    def count(counts, args, result):
        counts[metric] += os.path.getsize(args[position])

    return count


def _nnz(counts, args, result):
    counts["laplacian.nnz"] = result.nnz


def _encode_flops(counts, args, result):
    basis = args[0]
    # (M, N) @ (N, 3): 3 columns of N multiply-adds per mode
    counts["spectral.encode_flops"] += 6 * basis.n * basis.m


def _size_m(counts, args, result):
    counts["descriptor.size_m_total"] += result.size_m


# (module, attribute, span name, counter)
FUNCTIONS = [
    ("mesh", "load_mesh", "mesh.load", _path_bytes("mesh.bytes_read", 0)),
    ("mesh", "save_mesh", "mesh.save", _path_bytes("mesh.bytes_written", 0)),
    ("laplacian", "cotangent_laplacian", "laplacian.assemble", _nnz),
    ("laplacian", "operator_fingerprint", "laplacian.fingerprint", None),
    ("spectral", "eigendecompose", "spectral.eigensolve", None),
    # scipy's Lanczos entry point as the spectral module calls it: its call
    # count tells which solver "auto" picked
    ("spectral", "eigsh", "spectral.lanczos", None),
    ("spectral", "encode_geometry", "spectral.encode", _encode_flops),
    ("spectral", "reconstruct_geometry", "spectral.reconstruct", None),
    ("descriptor", "statistical_threshold", "descriptor.select", None),
    ("descriptor", "select_by_threshold", "descriptor.select", None),
    ("descriptor", "complete_descriptor", "descriptor.select", _size_m),
    ("retrieval", "rank_bundle", "retrieval.rank", None),
    ("retrieval", "cluster_coefficients", "retrieval.kmeans", None),
    ("bundle", "generate_bundle", "bundle.synthesize", None),
    ("bundle", "save_bundle", "bundle.save", None),
    ("bundle", "load_bundle", "bundle.load", None),
]

# (module, class, attribute, span name, counter); counters see self/cls as
# args[0]
METHODS = [
    ("mesh", "TriangleMesh", "__post_init__", "mesh.validate", None),
    ("spectral", "SpectralBasis", "save", "spectral.basis_save",
     _path_bytes("spectral.basis_bytes", 1)),
    ("spectral", "SpectralBasis", "load", "spectral.basis_load", None),
    ("spectral", "SpectralCoefficients", "save_csv", "spectral.coeff_save", None),
    ("spectral", "SpectralCoefficients", "load_csv", "spectral.coeff_load",
     _path_bytes("spectral.coeff_bytes", 1)),
]


class Tracer:
    """In-memory span recorder for one traced pipeline pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[dict] = []

    @contextmanager
    def _span(self, name, stage=None):
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent else None,
            "stage": stage if parent is None else parent["stage"],
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def stage(self, stage):
        """Root span around one CLI stage call."""
        return self._span(f"cli.{stage}", stage=stage)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # outside a stage, or re-entered through another public name of
            # the same layer: pass straight through
            if not self._stack or self._stack[-1]["name"] == name:
                return fn(*args, **kwargs)
            with self._span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        undo = []
        try:
            for mod, attr, name, count in FUNCTIONS:
                orig = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr, None)
                if orig is None:
                    continue
                traced = self.wrap(name, orig, count)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, traced)
                            undo.append((m, key, orig))
            for mod, cls_name, attr, name, count in METHODS:
                cls = getattr(sys.modules[f"{PACKAGE}.{mod}"], cls_name, None)
                orig = cls.__dict__.get(attr) if cls is not None else None
                if orig is None:
                    continue
                if isinstance(orig, classmethod):
                    traced = classmethod(self.wrap(name, orig.__func__, count))
                else:
                    traced = self.wrap(name, orig, count)
                setattr(cls, attr, traced)
                undo.append((cls, attr, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def durations(self) -> dict[str, list[float]]:
        """Span durations by name."""
        out = defaultdict(list)
        for s in self.spans:
            out[s["name"]].append(s["end"] - s["start"])
        return out

    def calls(self, name, stage=None) -> int:
        return sum(
            1 for s in self.spans
            if s["name"] == name and (stage is None or s["stage"] == stage)
        )

    def self_times(self) -> dict[str, float]:
        """Summed self time per root span name: its wall minus its children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            if s["parent"] is None:
                out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
