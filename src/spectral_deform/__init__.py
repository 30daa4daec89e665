"""Spectral representation and compact descriptors for mesh deformations."""

from .mesh import (
    MeshError,
    TriangleMesh,
    parse_mesh,
    write_mesh,
    load_mesh,
    save_mesh,
)
from .laplacian import (
    cotangent_laplacian,
    uniform_laplacian,
    graph_laplacian,
    operator_fingerprint,
)
from .spectral import (
    EigensolverError,
    FingerprintMismatchError,
    SpectralBasis,
    SpectralCoefficients,
    CoefficientStack,
    eigendecompose,
    encode,
    decode,
    encode_geometry,
    reconstruct_geometry,
    save_coeff_dir,
    load_coeff_dir,
)
from .descriptor import (
    EmptySelectionError,
    DeformationDescriptor,
    statistical_threshold,
    select_by_threshold,
    complete_descriptor,
    build_descriptor,
    reconstruction_error,
    compare_reconstructions,
    tune_threshold,
)
from .retrieval import (
    SimilarityRanking,
    ClusterAssignment,
    rank_bundle,
    filter_bundle,
    cluster_coefficients,
)
from .bundle import (
    MODES,
    BeamParams,
    DeformationSpec,
    SimulationBundle,
    generate_hat_beam,
    apply_deformation,
    generate_bundle,
    bundle_from_manifest,
    save_bundle,
    load_bundle,
)

__version__ = "0.1.0"
