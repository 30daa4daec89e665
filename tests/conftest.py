import numpy as np
import pytest

import spectral_deform as sd


def grid_mesh(nx: int, ny: int) -> sd.TriangleMesh:
    """Planar unit grid, each square split into two triangles."""
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    verts = np.column_stack(
        [xs.ravel().astype(float), ys.ravel().astype(float), np.zeros(nx * ny)]
    )
    tris = []
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j
            b = a + 1
            c = a + ny
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, d, c))
    return sd.TriangleMesh(verts, np.array(tris))


SMALL_BEAM = sd.BeamParams(axial_segments=24, section_segments=4)  # N = 500


@pytest.fixture(scope="session")
def small_beam():
    return sd.generate_hat_beam(SMALL_BEAM)


@pytest.fixture(scope="session")
def acceptance_bundle():
    """The 100-shape bundle at full scale (N >= 2000, M = 500), decomposed once."""
    bundle = sd.generate_bundle(sd.BeamParams(), (34, 33, 33), seed=7)
    L = sd.cotangent_laplacian(bundle.base)
    basis = sd.eigendecompose(
        L, 500, operator_fingerprint=sd.operator_fingerprint(L)
    )
    coeffs = [sd.encode_geometry(basis, s) for s in bundle.states]
    return bundle, basis, coeffs, bundle.labels
