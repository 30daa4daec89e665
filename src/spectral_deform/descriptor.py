"""Compact deformation descriptors by adaptive coefficient selection.

A descriptor is the small set of eigenvector indices whose coefficient
magnitude (or magnitude of difference to an undeformed baseline) exceeds a
threshold, stored together with the full (ax, ay, az) triple per index.
Thresholding is applied to absolute values: selection is about contribution
magnitude, and large negative coefficients matter as much as positive ones.
``build_descriptor`` makes one; ``compare_reconstructions`` judges it
against the eigenvalue-ordered truncation of the same size.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from ._files import open_new
from .spectral import (
    SpectralBasis,
    SpectralCoefficients,
    _check_fingerprint,
    reconstruct_geometry,
)

__all__ = [
    "EmptySelectionError",
    "DeformationDescriptor",
    "statistical_threshold",
    "select_by_threshold",
    "complete_descriptor",
    "build_descriptor",
    "reconstruction_error",
    "compare_reconstructions",
    "tune_threshold",
]

_TUNE_BISECTIONS = 32


class EmptySelectionError(ValueError):
    """Threshold selected no coefficients; decrease the threshold."""


@dataclass(frozen=True)
class DeformationDescriptor:
    """Selected eigenvector indices with their full coefficient triples.

    ``indices`` are 0-based and strictly increasing; ``triples[k]`` holds
    (alpha_x, alpha_y, alpha_z) for ``indices[k]``.
    """

    indices: np.ndarray
    triples: np.ndarray
    threshold: float
    selection_mode: str = "magnitude"
    basis_fingerprint: str = ""
    label: str = ""

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        tri = np.ascontiguousarray(np.asarray(self.triples, dtype=np.float64))
        if idx.ndim != 1 or tri.shape != (idx.shape[0], 3):
            raise ValueError(
                f"inconsistent descriptor shapes: {idx.shape} indices, {tri.shape} triples"
            )
        if idx.size == 0:
            raise EmptySelectionError("descriptor must contain at least one index")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("descriptor indices must be strictly increasing")
        if self.selection_mode not in ("magnitude", "baseline_difference"):
            raise ValueError(f"unknown selection mode {self.selection_mode!r}")
        idx.setflags(write=False)
        tri.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "triples", tri)

    @property
    def size_m(self) -> int:
        return self.indices.shape[0]

    def to_json(self) -> str:
        doc = {
            "label": self.label,
            "selection_mode": self.selection_mode,
            "threshold_t": self.threshold,
            "basis_fingerprint": self.basis_fingerprint,
            "entries": [
                {
                    "index": int(i),
                    "alpha_x": float(x),
                    "alpha_y": float(y),
                    "alpha_z": float(z),
                }
                for i, (x, y, z) in zip(self.indices, self.triples)
            ],
        }
        return json.dumps(doc, indent=2)

    def save(self, path) -> None:
        with open_new(path) as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def from_json(cls, text: str) -> "DeformationDescriptor":
        doc = json.loads(text)
        entries = doc["entries"]
        return cls(
            indices=np.array([e["index"] for e in entries], dtype=np.int64),
            triples=np.array(
                [[e["alpha_x"], e["alpha_y"], e["alpha_z"]] for e in entries]
            ),
            threshold=float(doc["threshold_t"]),
            selection_mode=doc["selection_mode"],
            basis_fingerprint=doc.get("basis_fingerprint", ""),
            label=doc.get("label", ""),
        )

    @classmethod
    def load(cls, path) -> "DeformationDescriptor":
        """Read a descriptor JSON; ValueError naming the file if it is not
        JSON, lacks a key or has a field of the wrong type or value."""
        with open(path) as f:
            text = f.read()
        try:
            return cls.from_json(text)
        # JSONDecodeError is a ValueError
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"descriptor JSON {path}: {type(e).__name__}: {e}") from e


def statistical_threshold(coeffs: SpectralCoefficients) -> float:
    """mean + one population standard deviation of all 3M absolute coefficients."""
    a = np.abs(coeffs.values).ravel()
    return float(a.mean() + a.std())


def select_by_threshold(coeffs: SpectralCoefficients, t: float) -> np.ndarray:
    """Indices where any axis satisfies |alpha| > t, ascending."""
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    idx = np.flatnonzero((np.abs(coeffs.values) > t).any(axis=1))
    if idx.size == 0:
        raise EmptySelectionError(
            f"no coefficient exceeds t={t:g}; decrease the threshold"
        )
    return idx


def complete_descriptor(
    indices: np.ndarray,
    coeffs: SpectralCoefficients,
    augment: bool = False,
    threshold: float = 0.0,
    selection_mode: str = "magnitude",
    label: str = "",
) -> DeformationDescriptor:
    """Build a descriptor carrying the full xyz triple for every index.

    With ``augment`` the first two eigenvectors (indices 0 and 1) are
    unioned in so reconstructions keep the global position and tilt.
    Warns when the descriptor is not actually compact (> 10% of M).
    """
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    if augment:
        idx = np.union1d(idx, [0, 1])
    if idx.size and (idx.min() < 0 or idx.max() >= coeffs.m):
        raise ValueError(f"index out of coefficient range [0, {coeffs.m})")
    if idx.size > 0.1 * coeffs.m:
        warnings.warn(
            f"descriptor has {idx.size} indices, more than 10% of M={coeffs.m}; "
            "not compact"
        )
    return DeformationDescriptor(
        indices=idx,
        triples=coeffs.values[idx],
        threshold=threshold,
        selection_mode=selection_mode,
        basis_fingerprint=coeffs.basis_fingerprint,
        label=label,
    )


def build_descriptor(
    coeffs: SpectralCoefficients,
    baseline: SpectralCoefficients | None = None,
    threshold: float | None = None,
    augment: bool = False,
    label: str = "",
) -> DeformationDescriptor:
    """The descriptor of one shape, with the full triples of ``coeffs``.

    Selects the indices where any axis of ``coeffs``, or of ``coeffs -
    baseline`` when a baseline of the same basis is given, exceeds
    ``threshold`` in magnitude. The default threshold is the
    ``statistical_threshold`` of those selected values.
    """
    selected, mode = coeffs, "magnitude"
    if baseline is not None:
        _check_fingerprint(coeffs.basis_fingerprint, baseline.basis_fingerprint,
                           "deformed and baseline coefficients")
        if baseline.m != coeffs.m:  # an M of 1 would broadcast silently
            raise ValueError(f"baseline has M={baseline.m}, the shape M={coeffs.m}")
        selected = SpectralCoefficients(coeffs.values - baseline.values,
                                        coeffs.basis_fingerprint)
        mode = "baseline_difference"
    t = statistical_threshold(selected) if threshold is None else threshold
    return complete_descriptor(select_by_threshold(selected, t), coeffs, augment=augment,
                               threshold=t, selection_mode=mode, label=label)


def reconstruction_error(
    basis: SpectralBasis,
    coeffs: SpectralCoefficients,
    subset: np.ndarray | None,
    reference: np.ndarray,
) -> float:
    """RMS per-vertex Euclidean error of a subset reconstruction vs. reference."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != (basis.n, 3):
        raise ValueError(
            f"reference has shape {reference.shape}, expected ({basis.n}, 3)"
        )
    subset = np.asarray([] if subset is None else subset, dtype=np.int64)
    if subset.size == 0:
        recon = np.zeros((basis.n, 3))
    else:
        recon = reconstruct_geometry(basis, coeffs, subset)
    return _rms_error(recon, reference)


def _rms_error(recon: np.ndarray, reference: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.sum((recon - reference) ** 2, axis=1))))


def compare_reconstructions(
    basis: SpectralBasis,
    coeffs: SpectralCoefficients,
    desc: DeformationDescriptor,
) -> dict[str, tuple[np.ndarray, float]]:
    """The descriptor judged against an eigenvalue-ordered truncation.

    Reconstructs the shape from the descriptor's indices (``"descriptor"``)
    and from the first ``desc.size_m`` indices (``"first_m_ordered"``), each
    as ``(coordinates, RMS error)`` against the reconstruction from all M
    coefficients. The descriptor and the coefficients must be of one basis.
    """
    _check_fingerprint(desc.basis_fingerprint, coeffs.basis_fingerprint,
                       "descriptor and coefficients")
    reference = reconstruct_geometry(basis, coeffs, None)
    results = {}
    for name, subset in (("descriptor", desc.indices),
                         ("first_m_ordered", np.arange(desc.size_m))):
        coords = reconstruct_geometry(basis, coeffs, subset)
        results[name] = (coords, _rms_error(coords, reference))
    return results


def tune_threshold(
    coeffs: SpectralCoefficients,
    basis: SpectralBasis,
    target_rms: float,
    augment: bool = False,
    label: str = "",
) -> tuple[float, DeformationDescriptor, float]:
    """Find the largest threshold whose reconstruction meets a target error.

    Bisects t over [0, max|alpha|]. Error is measured against the
    M-truncated reference reconstruction (decode of all M coefficients), so
    a target of 0 is achievable for exactly-sparse coefficient vectors.
    Returns (t, descriptor, achieved_rms); if even t=0 misses the target the
    best achieved descriptor is returned with a warning. A threshold that
    selects nothing is never accepted, ``augment`` or not, so coefficients
    that are all zero raise EmptySelectionError.
    """
    if target_rms < 0:
        raise ValueError("target_rms must be >= 0")
    reference = reconstruct_geometry(basis, coeffs, None)

    def evaluate(t: float) -> tuple[float, np.ndarray]:
        try:
            idx = select_by_threshold(coeffs, t)
        except EmptySelectionError:
            idx = np.empty(0, dtype=np.int64)
        if augment and idx.size:
            idx = np.union1d(idx, [0, 1])
        err = reconstruction_error(basis, coeffs, idx, reference)
        return err, idx

    lo = 0.0  # known-feasible end (error minimal at t=0)
    hi = float(np.abs(coeffs.values).max())
    err_lo, idx_lo = evaluate(lo)
    best_t, best_err, best_idx = lo, err_lo, idx_lo
    err_hi, idx_hi = evaluate(hi)
    if err_hi <= target_rms and idx_hi.size:
        best_t, best_err, best_idx = hi, err_hi, idx_hi
    else:
        for _ in range(_TUNE_BISECTIONS):
            mid = 0.5 * (lo + hi)
            err, idx = evaluate(mid)
            if err <= target_rms and idx.size:
                lo = mid
                best_t, best_err, best_idx = mid, err, idx
            else:
                hi = mid
    if best_err > target_rms:
        warnings.warn(
            f"target RMS {target_rms:g} unreachable; best achieved {best_err:g}"
        )
    # an empty best_idx (t=0 selects nothing) raises EmptySelectionError here
    desc = complete_descriptor(
        best_idx,
        coeffs,
        augment=False,  # augmentation already applied during the search
        threshold=best_t,
        label=label,
    )
    return best_t, desc, best_err
