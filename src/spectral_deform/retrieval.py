"""Similarity scoring, ranking/filtering, and coefficient-space clustering.

Similarity between a descriptor and a candidate shape is the cosine of the
two length-3m vectors formed by flattening the coefficient triples at the
descriptor's indices only: the descriptor is the feature. Signs are kept,
so opposite deformation directions (upward vs. downward bend) score
negatively against each other. A bundle is a ``CoefficientStack``, or a
list of shapes for ``CoefficientStack.of`` to stack with ids 0..S-1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._files import open_new
from .descriptor import DeformationDescriptor
from .spectral import CoefficientStack, _check_fingerprint

__all__ = [
    "SimilarityRanking",
    "ClusterAssignment",
    "rank_bundle",
    "filter_bundle",
    "cluster_coefficients",
    "write_ranking_csv",
    "write_assignment_csv",
    "write_scatter_data",
]

DEGENERATE_NORM = 1e-14


@dataclass(frozen=True)
class SimilarityRanking:
    """Shape ids with non-increasing cosine scores; ties broken by id."""

    ids: tuple
    scores: np.ndarray
    label: str = ""

    def __iter__(self):
        return iter(zip(self.ids, self.scores))


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray  # (n,) cluster index per shape
    centroids: np.ndarray  # (k, d)
    inertia: float


def _scores(
    descriptor: DeformationDescriptor, values: np.ndarray, fp: str
) -> np.ndarray:
    """Cosine of the descriptor against every shape of a stack, in one contraction."""
    _check_fingerprint(descriptor.basis_fingerprint, fp,
                       "descriptor and candidate coefficients")
    if descriptor.indices.max() >= values.shape[1]:
        raise ValueError(
            f"descriptor index {descriptor.indices.max()} out of range for "
            f"M={values.shape[1]} coefficients"
        )
    a = descriptor.triples.ravel()
    b = values[:, descriptor.indices].reshape(len(values), 1, -1)
    # a (1, 3m) @ (3m, 1) product per shape is one BLAS dot each, so a score
    # has the bits of scoring its shape alone; b @ a (gemv) differs in the
    # last bits
    dots = (b @ a[:, None])[:, 0, 0]
    na, nb = np.linalg.norm(a), np.sqrt(b @ b.transpose(0, 2, 1))[:, 0, 0]
    ok = (na >= DEGENERATE_NORM) & (nb >= DEGENERATE_NORM)
    if not ok.all():
        warnings.warn("degenerate coefficient vector: cosine similarity set to 0")
    scores = np.zeros(len(values))
    scores[ok] = dots[ok] / (na * nb[ok])
    return scores


def rank_bundle(
    descriptor: DeformationDescriptor, bundle: CoefficientStack
) -> SimilarityRanking:
    """Rank every shape by descending similarity; ties broken by ascending id."""
    stack = CoefficientStack.of(bundle)
    scores = _scores(descriptor, stack.values, stack.basis_fingerprint)
    order = sorted(range(len(stack.ids)), key=lambda k: (-scores[k], stack.ids[k]))
    return SimilarityRanking(
        ids=tuple(stack.ids[k] for k in order),
        scores=scores[order],
        label=descriptor.label,
    )


def filter_bundle(
    descriptor: DeformationDescriptor,
    bundle: CoefficientStack,
    top_k: int | None = None,
    min_score: float | None = None,
) -> list:
    """Ids of the ranking prefix selected by top_k >= 1 or min_score
    (exactly one)."""
    if (top_k is None) == (min_score is None):
        raise ValueError("specify exactly one of top_k or min_score")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    ranking = rank_bundle(descriptor, bundle)
    if top_k is not None:
        if top_k > len(ranking.ids):
            warnings.warn(
                f"top_k={top_k} exceeds bundle size {len(ranking.ids)}; clamping"
            )
            top_k = len(ranking.ids)
        return list(ranking.ids[:top_k])
    return [i for i, s in ranking if s >= min_score]


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(x.shape[0])]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:  # all remaining points coincide with a center
            centers[c] = x[rng.integers(x.shape[0])]
            continue
        centers[c] = x[rng.choice(x.shape[0], p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(
    x: np.ndarray,
    centers: np.ndarray,
    max_iter: int = 300,
    rtol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, float]:
    prev = np.inf
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(len(x)), labels].sum())
        for c in range(centers.shape[0]):
            members = x[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:  # re-seed an empty cluster at the farthest point
                centers[c] = x[d2.min(axis=1).argmax()]
        if prev - inertia <= rtol * max(prev, 1e-300) and np.isfinite(prev):
            break
        prev = inertia
    return labels, centers, inertia


def cluster_coefficients(
    bundle: CoefficientStack,
    k: int,
    feature: str = "first_eigenvector_xyz",
    m: int | None = None,
    seed: int = 0,
) -> ClusterAssignment:
    """k-means over per-shape coefficient features.

    ``feature`` is "first_eigenvector_xyz" (the 3 coefficients of the first
    eigenvector, enough to separate coarse deformation modes) or "first_m"
    (the flattened first ``m`` triples). Seeded k-means++ initialization and
    Lloyd iterations until the relative inertia change drops below 1e-6.
    """
    values = CoefficientStack.of(bundle).values
    n = len(values)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n} shapes, got k={k}")
    if feature == "first_eigenvector_xyz":
        x = values[:, 0]
    elif feature == "first_m":
        if m is None or m < 1:
            raise ValueError("feature 'first_m' needs m >= 1")
        x = values[:, :m].reshape(n, -1)
    else:
        raise ValueError(f"unknown feature {feature!r}")
    if len(np.unique(x, axis=0)) < k:
        raise ValueError(f"only {len(np.unique(x, axis=0))} distinct points for k={k}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, k, rng)
    labels, centers, inertia = _lloyd(x, centers)
    return ClusterAssignment(labels=labels, centroids=centers, inertia=inertia)


def write_ranking_csv(path, ranking: SimilarityRanking) -> None:
    with open_new(path) as f:
        f.write("shape_id,score,label\n")
        for i, s in ranking:
            f.write(f"{i},{float(s)!r},{ranking.label}\n")


def write_assignment_csv(path, ids: list, assignment: ClusterAssignment) -> None:
    with open_new(path) as f:
        f.write("shape_id,cluster\n")
        for i, c in zip(ids, assignment.labels):
            f.write(f"{i},{c}\n")


def write_scatter_data(path, bundle: CoefficientStack) -> None:
    """First-eigenvector xyz coefficients per shape, gnuplot-compatible."""
    with open_new(path) as f:
        f.write("# alpha_x alpha_y alpha_z\n")
        for x, y, z in CoefficientStack.of(bundle).values[:, 0]:
            f.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
