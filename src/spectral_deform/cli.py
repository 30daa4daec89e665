"""Command-line pipeline: generate | decompose | encode | descriptor |
reconstruct | filter | cluster.

Stages communicate exclusively through files (bundle directory, SPBS basis,
coefficient directory, descriptor JSON, ranking/assignment CSVs), so each
stage is independently runnable and outputs are bitwise-stable given the
same inputs and seeds. Each stage parses its arguments, loads its inputs,
leaves the work to the library and saves what it returns; ``descriptor`` and
``reconstruct`` are one library call each, so their rules live in the library.

``encode`` writes a coefficient directory: one CSV per shape, then a binary
stack of the shapes with a digest of their CSVs, then ``base.csv``.
``filter`` and ``cluster`` read the stack while the digest still matches
the CSVs on disk and parse the CSVs otherwise, with the same results either
way; the CSVs are authoritative.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 empty result.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings

from ._files import open_new
from .bundle import (
    BeamParams,
    generate_bundle,
    load_bundle,
    save_bundle,
)
from .descriptor import (
    DeformationDescriptor,
    EmptySelectionError,
    build_descriptor,
    compare_reconstructions,
    tune_threshold,
)
from .laplacian import cotangent_laplacian, operator_fingerprint, uniform_laplacian
from .mesh import load_mesh, save_mesh
from .retrieval import (
    SimilarityRanking,
    cluster_coefficients,
    filter_bundle,
    rank_bundle,
    write_assignment_csv,
    write_ranking_csv,
    write_scatter_data,
)
from .spectral import (
    CoefficientStack,
    EigensolverError,
    SpectralBasis,
    SpectralCoefficients,
    eigendecompose,
    encode_geometry,
    load_coeff_dir,
    save_coeff_dir,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_EMPTY = 4


def cmd_generate(args) -> int:
    params = BeamParams(
        length=args.length,
        hat_width=args.hat_width,
        hat_height=args.hat_height,
        flange_width=args.flange_width,
        axial_segments=args.axial_segments,
        section_segments=args.section_segments,
    )
    bundle = generate_bundle(
        params, tuple(args.per_mode), seed=args.seed, noise_sigma=args.noise_sigma
    )
    save_bundle(args.out, bundle)
    if args.verbose:
        print(
            f"wrote bundle: N={bundle.base.n_vertices}, "
            f"{len(bundle.states)} states -> {args.out}"
        )
    return EXIT_OK


def cmd_decompose(args) -> int:
    base = load_mesh(os.path.join(args.bundle, "base.off"))
    # eigendecompose rejects a negative M or one above N
    m = args.modes or min(500, base.n_vertices - 1)
    if args.operator == "uniform":
        L = uniform_laplacian(base)
    else:
        L = cotangent_laplacian(base)
    basis = eigendecompose(L, m, operator_fingerprint=operator_fingerprint(L))
    basis.save(args.out)
    if args.verbose:
        print(f"wrote basis: N={basis.n}, M={basis.m} -> {args.out}")
    return EXIT_OK


def cmd_encode(args) -> int:
    basis = SpectralBasis.load(args.basis)
    bundle = load_bundle(args.bundle)
    os.makedirs(args.out, exist_ok=True)
    s = len(bundle.states)
    # first the shapes: save_coeff_dir refuses a directory holding another
    # bundle's shape CSVs before anything is written
    stack = CoefficientStack.of(
        [encode_geometry(basis, state.coordinates) for state in bundle.states],
        [f"{i:03d}" for i in range(s)],
    )
    save_coeff_dir(args.out, stack)
    encode_geometry(basis, bundle.base.vertices).save_csv(
        os.path.join(args.out, "base.csv")
    )
    if args.verbose:
        print(f"wrote {s + 1} coefficient CSVs and the stack of the {s} "
              f"shapes -> {args.out}")
    return EXIT_OK


def cmd_descriptor(args) -> int:
    coeffs = SpectralCoefficients.load_csv(args.coeffs)
    if args.tune is not None:
        t, desc, achieved = tune_threshold(coeffs, SpectralBasis.load(args.basis),
                                           args.tune, augment=args.augment,
                                           label=args.label)
        if args.verbose:
            print(f"tuned t={t:g}, achieved RMS {achieved:g}")
    else:
        baseline = (None if args.baseline is None
                    else SpectralCoefficients.load_csv(args.baseline))
        desc = build_descriptor(coeffs, baseline, args.threshold,
                                augment=args.augment, label=args.label)
    desc.save(args.out)
    if args.verbose:
        print(f"wrote descriptor: t={desc.threshold:g}, size_M={desc.size_m} -> {args.out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    basis = SpectralBasis.load(args.basis)
    coeffs = SpectralCoefficients.load_csv(args.coeffs)
    base = load_mesh(args.mesh)
    desc = DeformationDescriptor.load(args.descriptor)
    results = compare_reconstructions(basis, coeffs, desc)
    os.makedirs(args.out, exist_ok=True)
    for name, (coords, _) in results.items():
        save_mesh(os.path.join(args.out, f"recon_{name}.off"),
                  base.with_vertices(coords))
    with open_new(os.path.join(args.out, "errors.csv")) as f:
        f.write("reconstruction,rms_error\n")
        for name, (_, err) in results.items():
            f.write(f"{name},{err!r}\n")
    if args.verbose:
        for name, (_, err) in results.items():
            print(f"{name}: RMS {err:g}")
    return EXIT_OK


def cmd_filter(args) -> int:
    desc = DeformationDescriptor.load(args.descriptor)
    stack = load_coeff_dir(args.coeffs_dir)
    ranking = rank_bundle(desc, stack)
    n = len(ranking.ids)
    if args.top_k is not None or args.min_score is not None:
        # a prefix of the ranking; filter_bundle ranks the bundle again
        n = len(filter_bundle(desc, stack,
                              top_k=args.top_k, min_score=args.min_score))
    kept = SimilarityRanking(ranking.ids[:n], ranking.scores[:n], ranking.label)
    write_ranking_csv(args.out, kept)
    if args.verbose:
        print(f"wrote {len(kept.ids)} ranked shapes -> {args.out}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    stack = load_coeff_dir(args.coeffs_dir)
    assignment = cluster_coefficients(
        stack, args.k, feature=args.feature, m=args.first_m, seed=args.seed
    )
    write_assignment_csv(args.out, stack.ids, assignment)
    if args.scatter:
        write_scatter_data(args.scatter, stack)
    if args.verbose:
        print(f"k={args.k} inertia {assignment.inertia:g} -> {args.out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it was."""
    p = argparse.ArgumentParser(
        prog="spectral-deform",
        description="Spectral deformation descriptors for simulation bundles",
    )
    p.add_argument("--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic beam bundle")
    g.add_argument("--out", required=True)
    g.add_argument("--per-mode", nargs=3, type=int, default=[34, 33, 33],
                   metavar=("UP", "DOWN", "CRUSH"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--noise-sigma", type=float, default=None)
    g.add_argument("--length", type=float, default=400.0)
    g.add_argument("--hat-width", type=float, default=60.0)
    g.add_argument("--hat-height", type=float, default=40.0)
    g.add_argument("--flange-width", type=float, default=15.0)
    g.add_argument("--axial-segments", type=int, default=60)
    g.add_argument("--section-segments", type=int, default=12)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("decompose", help="eigendecompose the base mesh operator")
    d.add_argument("--bundle", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("--modes", type=int, default=0,
                   help="number of eigenpairs (0, the default: min(500, N-1))")
    d.add_argument("--operator", choices=["cotangent", "uniform"],
                   default="cotangent")
    d.set_defaults(func=cmd_decompose)

    e = sub.add_parser("encode", help="project all bundle states into the basis")
    e.add_argument("--bundle", required=True)
    e.add_argument("--basis", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_encode)

    s = sub.add_parser("descriptor", help="build a deformation descriptor")
    s.add_argument("--coeffs", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--label", default="")
    s.add_argument("--augment", action="store_true",
                   help="always include eigenvector indices 0 and 1")
    s.add_argument("--baseline", default=None,
                   help="baseline coefficient CSV for difference selection "
                        "(not with --tune, which selects by magnitude)")
    group = s.add_mutually_exclusive_group()
    group.add_argument("--threshold", type=float, default=None)
    group.add_argument("--tune", type=float, default=None,
                       help="target reconstruction RMS for threshold tuning")
    s.add_argument("--basis", default=None, help="required with --tune")
    s.set_defaults(func=cmd_descriptor)

    r = sub.add_parser("reconstruct",
                       help="descriptor vs. eigenvalue-ordered reconstruction")
    r.add_argument("--basis", required=True)
    r.add_argument("--coeffs", required=True)
    r.add_argument("--descriptor", required=True)
    r.add_argument("--mesh", required=True, help="base mesh for connectivity")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_reconstruct)

    f = sub.add_parser("filter", help="rank and filter a bundle by similarity")
    f.add_argument("--descriptor", required=True)
    f.add_argument("--coeffs-dir", required=True)
    f.add_argument("--out", required=True)
    group = f.add_mutually_exclusive_group()
    group.add_argument("--top-k", type=int, default=None)
    group.add_argument("--min-score", type=float, default=None)
    f.set_defaults(func=cmd_filter)

    c = sub.add_parser("cluster", help="cluster shapes in coefficient space")
    c.add_argument("--coeffs-dir", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--feature", choices=["first_eigenvector_xyz", "first_m"],
                   default="first_eigenvector_xyz")
    c.add_argument("--first-m", type=int, default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--scatter", default=None,
                   help="optional gnuplot scatter data output")
    c.set_defaults(func=cmd_cluster)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "descriptor" and args.tune is not None:
        if args.basis is None:
            parser.error("--tune requires --basis")
        if args.baseline is not None:
            parser.error("--tune selects by magnitude and takes no --baseline")
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            return args.func(args)
    except EmptySelectionError as e:
        print(f"empty result: {e}", file=sys.stderr)
        return EXIT_EMPTY
    except EigensolverError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    # MeshError and FingerprintMismatchError are ValueErrors
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
