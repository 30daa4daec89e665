"""Compact deformation descriptors by adaptive coefficient selection.

A descriptor is the small set of eigenvector indices whose coefficient
magnitude (or magnitude of difference to an undeformed baseline) exceeds a
threshold, stored together with the full (ax, ay, az) triple per index.
Thresholding is applied to absolute values: selection is about contribution
magnitude, and large negative coefficients matter as much as positive ones.
``build_descriptor`` makes one, also for ``tune_threshold`` once it has
picked the threshold; ``compare_reconstructions`` judges it against the
eigenvalue-ordered truncation of the same size.
The error of a subset is against the reconstruction from all M
coefficients. The basis is orthonormal (``eigendecompose`` checks it), so by
Parseval that error is the RMS energy of the rows left out, and the library
reports it from the coefficients alone (``reconstruction_error`` decodes).
That error and the index rule live in ``spectral``, beside the decode.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._files import _fingerprint, _frozen, open_new, reading
from .spectral import (
    SpectralBasis,
    SpectralCoefficients,
    _check_basis,
    _check_fingerprint,
    _rows,
    _truncation_rms,
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
        # a bool is an int to Python and a str is cast to a float; a float index
        # would be truncated, a negative one would count from the end, and
        # int64 stops below 2**63
        bad = [i for i in np.asarray(self.indices, dtype=object).ravel()
               if isinstance(i, bool) or not isinstance(i, (int, np.integer))
               or not 0 <= i < 2**63]
        if bad:
            raise ValueError(f"descriptor indices must be integers >= 0, got {bad[0]!r}")
        numbers = [self.threshold, *np.asarray(self.triples, dtype=object).ravel()]
        bad = [x for x in numbers
               if isinstance(x, bool) or not isinstance(x, (int, float, np.number))]
        if bad:
            raise ValueError(f"descriptor triples and threshold must be numbers, "
                             f"got {bad[0]!r}")
        # NaN, an infinity, or an integer too large for a float64
        if not all(abs(x) <= sys.float_info.max for x in numbers):
            raise ValueError("descriptor triples and threshold must be finite")
        idx, tri = _frozen(self.indices, np.int64), _frozen(self.triples)
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
        if not isinstance(self.label, str):
            raise ValueError(f"descriptor label must be a str, got {self.label!r}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "triples", tri)
        object.__setattr__(self, "basis_fingerprint", _fingerprint(self.basis_fingerprint))

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
            indices=[e["index"] for e in entries],
            triples=[[e["alpha_x"], e["alpha_y"], e["alpha_z"]] for e in entries],
            threshold=doc["threshold_t"],
            selection_mode=doc["selection_mode"],
            basis_fingerprint=doc.get("basis_fingerprint", ""),
            label=doc.get("label", ""),
        )

    @classmethod
    def load(cls, path) -> "DeformationDescriptor":
        """Read a descriptor JSON; ValueError naming the file if it is not
        JSON, lacks a key or has a field of the wrong type or value."""
        with reading(path, "descriptor JSON"), open(path) as f:
            return cls.from_json(f.read())


def statistical_threshold(coeffs: SpectralCoefficients) -> float:
    """mean + one population standard deviation of all 3M absolute coefficients."""
    a = np.abs(coeffs.values).ravel()
    return float(a.mean() + a.std())


def select_by_threshold(coeffs: SpectralCoefficients, t: float) -> np.ndarray:
    """Indices where any axis satisfies |alpha| > t, ascending."""
    if not t >= 0:
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
    idx = _rows(np.union1d(idx, [0, 1]) if augment else idx, coeffs.m, "coefficient")
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
    """RMS per-vertex Euclidean error of ``reconstruct_geometry(basis, coeffs,
    subset)`` vs. reference; ``subset=None`` uses all M indices."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.shape != (basis.n, 3):
        raise ValueError(
            f"reference has shape {reference.shape}, expected ({basis.n}, 3)"
        )
    recon = reconstruct_geometry(basis, coeffs, subset)
    return float(np.sqrt(np.mean(np.sum((recon - reference) ** 2, axis=1))))


def compare_reconstructions(
    basis: SpectralBasis,
    coeffs: SpectralCoefficients,
    desc: DeformationDescriptor,
) -> dict[str, tuple[np.ndarray, float]]:
    """The descriptor judged against an eigenvalue-ordered truncation.

    Reconstructs the shape from the descriptor's indices (``"descriptor"``)
    and from the first ``desc.size_m`` indices (``"first_m_ordered"``), each
    as ``(coordinates, RMS error)``; the errors come from the coefficients,
    so only the two subsets are decoded. The descriptor and the coefficients
    must be of one basis.
    """
    _check_fingerprint(desc.basis_fingerprint, coeffs.basis_fingerprint,
                       "descriptor and coefficients")
    return {
        name: (reconstruct_geometry(basis, coeffs, subset),
               _truncation_rms(basis, coeffs, subset))
        for name, subset in (("descriptor", desc.indices),
                             ("first_m_ordered", np.arange(desc.size_m)))
    }


def tune_threshold(
    coeffs: SpectralCoefficients,
    basis: SpectralBasis,
    target_rms: float,
    augment: bool = False,
    label: str = "",
) -> tuple[float, DeformationDescriptor, float]:
    """Find the largest threshold whose reconstruction meets a target error.

    Only the distinct nonzero row maxima of |alpha|, the levels, select
    differently. Keeping the levels from one up leaves out the energy of the
    rows below it, so one cumulative sum of that energy, smallest level
    first, gives every level's error (rows 0 and 1 are kept with
    ``augment``); the fewest levels within ``target_rms`` are kept. Keeping
    all leaves out only zero rows, an error of exactly 0, so every target >= 0
    is met. t lies just below the smallest kept level: the largest threshold
    that selects those rows, which ``build_descriptor`` then does. Returns
    (t, descriptor, achieved_rms); all-zero coefficients raise
    EmptySelectionError.
    """
    if not target_rms >= 0:
        raise ValueError(f"target_rms must be >= 0, got {target_rms}")
    row_max = np.abs(coeffs.values).max(axis=1)
    if not row_max.any():
        raise EmptySelectionError("every coefficient is zero; no threshold selects any")
    levels, level_of = np.unique(row_max, return_inverse=True)
    energy = np.sum(coeffs.values ** 2, axis=1)
    if augment:
        energy[:2] = 0.0
    # keeping levels[k:] leaves out the energy of the levels below k
    per_level = np.bincount(level_of, energy, levels.size)
    rms = np.sqrt(np.concatenate(([0.0], np.cumsum(per_level[:-1]))) / basis.n)
    k = np.flatnonzero(rms <= target_rms)[-1]
    # a basis that does not fit fails before the build can warn
    _check_basis(basis, coeffs)
    t = float(np.nextafter(levels[k], 0))
    desc = build_descriptor(coeffs, threshold=t, augment=augment, label=label)
    return t, desc, _truncation_rms(basis, coeffs, desc.indices)
