"""Synthetic hat-section beam and labeled deformation bundles.

Stands in for crash-simulation output: one extruded hat-profile beam plus a
set of analytically deformed copies (upward bend, downward bend, axial
crush) with known labels, randomized amplitude and location, and a little
Gaussian noise. Everything is pure given (params, seed), so bundles can be
regenerated bit-exactly from their manifest.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from ._files import open_new
from .mesh import DeformedState, MeshError, TriangleMesh, load_mesh, save_mesh

__all__ = [
    "BeamParams",
    "DeformationSpec",
    "SimulationBundle",
    "MODES",
    "MODE_DEFAULT_AMPLITUDE",
    "generate_hat_beam",
    "apply_deformation",
    "generate_bundle",
    "bundle_from_manifest",
    "save_bundle",
    "load_bundle",
]

MODES = ("upward_bend", "downward_bend", "axial_crush")

MODE_DEFAULT_AMPLITUDE = {
    "upward_bend": 30.0,
    "downward_bend": 30.0,
    "axial_crush": 20.0,
}

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class BeamParams:
    """Hat-section beam dimensions and tessellation density."""

    length: float = 400.0
    hat_width: float = 60.0
    hat_height: float = 40.0
    flange_width: float = 15.0
    axial_segments: int = 60
    section_segments: int = 12

    def __post_init__(self):
        for name in ("length", "hat_width", "hat_height", "flange_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.axial_segments < 2 or self.section_segments < 2:
            raise ValueError("segment counts must be >= 2")


@dataclass(frozen=True)
class DeformationSpec:
    """One analytic deformation: mode, strength, axial location, noise."""

    mode: str
    amplitude: float
    location: float = 0.5
    fold_count: int = 3
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if not 0.0 <= self.location <= 1.0:
            raise ValueError("location must be in [0, 1]")
        if self.fold_count < 1:
            raise ValueError("fold_count must be >= 1")


@dataclass(frozen=True)
class SimulationBundle:
    base: TriangleMesh
    states: list[DeformedState]
    manifest: dict


def _ring_profile(params: BeamParams) -> np.ndarray:
    """Closed (y, z) cross-section loop: hat path plus base-plate return."""
    w, h, fl = params.hat_width, params.hat_height, params.flange_width
    cs = params.section_segments
    fl_sub = max(2, cs // 4)
    web_sub = max(2, cs // 3)
    corners = [
        (-w / 2 - fl, 0.0),
        (-w / 2, 0.0),
        (-w / 2, h),
        (w / 2, h),
        (w / 2, 0.0),
        (w / 2 + fl, 0.0),
    ]
    subdiv = [fl_sub, web_sub, cs, web_sub, fl_sub]
    pts = [corners[0]]
    for (a, b), ns in zip(zip(corners[:-1], corners[1:]), subdiv):
        for s in range(1, ns + 1):
            f = s / ns
            pts.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    # plate return from the last corner back to the first, endpoints shared
    plate_sub = 2 * cs
    a, b = corners[-1], corners[0]
    for s in range(1, plate_sub):
        f = s / plate_sub
        pts.append((a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1])))
    return np.array(pts)


def generate_hat_beam(params: BeamParams = BeamParams()) -> TriangleMesh:
    """Extrude the hat profile along x into a connected open triangle mesh.

    Vertex ordering is axial-major: vertex (station a, ring point r) sits at
    index a * R + r. The resulting vertex count must land in [500, 20000].
    """
    ring = _ring_profile(params)
    r = ring.shape[0]
    na = params.axial_segments
    n = (na + 1) * r
    if not 500 <= n <= 20000:
        raise ValueError(
            f"parameters produce N={n} vertices, outside the supported [500, 20000]"
        )
    x = np.linspace(0.0, params.length, na + 1)
    verts = np.empty((n, 3))
    verts[:, 0] = np.repeat(x, r)
    verts[:, 1] = np.tile(ring[:, 0], na + 1)
    verts[:, 2] = np.tile(ring[:, 1], na + 1)

    tris = []
    for a in range(na):
        base0 = a * r
        base1 = (a + 1) * r
        for k in range(r):
            k1 = (k + 1) % r
            v00, v01 = base0 + k, base0 + k1
            v10, v11 = base1 + k, base1 + k1
            tris.append((v00, v01, v11))
            tris.append((v00, v11, v10))
    return TriangleMesh(verts, np.array(tris, dtype=np.int64))


def _section_centroid(params: BeamParams) -> np.ndarray:
    return _ring_profile(params).mean(axis=0)


def apply_deformation(
    base: TriangleMesh,
    spec: DeformationSpec,
    seed: int = 0,
    section_centroid: np.ndarray | None = None,
) -> DeformedState:
    """Displace the base beam analytically according to ``spec``.

    Bends shift whole cross-sections in z by a Gaussian bump along the axis;
    axial crush shortens the beam symmetrically about its center and adds
    sinusoidal accordion folds with radial bulging around the fold center.
    Gaussian noise of sigma ``noise_sigma`` is added with the given seed.
    """
    v = base.vertices
    x = v[:, 0]
    x0, length = x.min(), x.max() - x.min()
    xc = x0 + spec.location * length
    u = np.zeros_like(v)

    if spec.mode in ("upward_bend", "downward_bend"):
        sign = 1.0 if spec.mode == "upward_bend" else -1.0
        width = 0.25 * length
        u[:, 2] = sign * spec.amplitude * np.exp(-(((x - xc) / width) ** 2))
    else:  # axial_crush
        # global shortening, symmetric about the beam center
        mid = x0 + 0.5 * length
        u[:, 0] = -spec.amplitude * (x - mid) / (0.5 * length)
        # material drawn into the fold region
        w = 0.15 * length
        g = np.exp(-(((x - xc) / w) ** 2))
        u[:, 0] += -0.6 * spec.amplitude * np.tanh((x - xc) / w) * g
        # accordion bulge, radially outward from the section centroid
        if section_centroid is None:
            yz = v[:, 1:]
            centroid = yz.mean(axis=0)
        else:
            centroid = np.asarray(section_centroid)
        radial = v[:, 1:] - centroid
        norms = np.linalg.norm(radial, axis=1)
        direction = np.divide(
            radial, norms[:, None], out=np.zeros_like(radial), where=norms[:, None] > 0
        )
        ripple = np.cos(spec.fold_count * np.pi * (x - xc) / w) ** 2
        u[:, 1:] += (0.5 * spec.amplitude * ripple * g)[:, None] * direction

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(seed)
        u += rng.normal(0.0, spec.noise_sigma, size=v.shape)

    coords = v + u
    corr = np.corrcoef(x, coords[:, 0])[0, 1]
    if np.ptp(coords[:, 0]) < 0.1 * length or corr < 0.5:
        warnings.warn(
            f"deformation inverts or collapses the beam axis (corr {corr:.2f}); "
            "amplitude is beyond the sane range"
        )
    return DeformedState(coords, label=spec.mode)


def default_noise_sigma(base: TriangleMesh) -> float:
    """0.5% of the bounding-box diagonal: breaks symmetry, keeps mode identity."""
    diag = np.linalg.norm(np.ptp(base.vertices, axis=0))
    return 0.005 * diag


def generate_bundle(
    params: BeamParams,
    n_per_mode: tuple[int, int, int] = (34, 33, 33),
    seed: int = 0,
    noise_sigma: float | None = None,
) -> SimulationBundle:
    """Generate a labeled bundle of deformed beam states.

    Per-shape amplitude is drawn uniformly within +-30% of the mode default
    and the fold/bend location uniformly in [0.2, 0.8]. The manifest records
    every resolved spec (including per-shape noise seeds), and the states
    are built from it by ``bundle_from_manifest``, so regenerating a bundle
    from its manifest is bit-exact by construction.
    """
    if sum(n_per_mode) < 3:
        raise ValueError("need at least 3 states in total")
    base = generate_hat_beam(params)
    if noise_sigma is None:
        noise_sigma = default_noise_sigma(base)
    rng = np.random.default_rng(seed)

    states = []
    for mode, count in zip(MODES, n_per_mode):
        default_amp = MODE_DEFAULT_AMPLITUDE[mode]
        for _ in range(count):
            amp = default_amp * rng.uniform(0.7, 1.3)
            loc = rng.uniform(0.2, 0.8)
            spec = DeformationSpec(
                mode=mode,
                amplitude=float(amp),
                location=float(loc),
                noise_sigma=float(noise_sigma),
            )
            noise_seed = int(rng.integers(2**63))
            states.append({**asdict(spec), "seed": noise_seed, "label": mode})

    manifest = {
        "version": MANIFEST_VERSION,
        "seed": seed,
        "beam_params": asdict(params),
        "states": states,
    }
    return bundle_from_manifest(manifest)


def bundle_from_manifest(manifest: dict) -> SimulationBundle:
    """Regenerate a bundle bit-exactly from its manifest."""
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest.get('version')}")
    params = BeamParams(**manifest["beam_params"])
    base = generate_hat_beam(params)
    centroid = _section_centroid(params)
    states = []
    for entry in manifest["states"]:
        entry = dict(entry)
        s = entry.pop("seed")
        entry.pop("label", None)
        spec = DeformationSpec(**entry)
        states.append(
            apply_deformation(base, spec, seed=s, section_centroid=centroid)
        )
    return SimulationBundle(base=base, states=states, manifest=manifest)


def save_bundle(directory, bundle: SimulationBundle) -> None:
    """Write base.off, states/NNN.off and manifest.json into a directory."""
    os.makedirs(os.path.join(directory, "states"), exist_ok=True)
    save_mesh(os.path.join(directory, "base.off"), bundle.base)
    for i, state in enumerate(bundle.states):
        save_mesh(
            os.path.join(directory, "states", f"{i:03d}.off"),
            TriangleMesh(state.coordinates, bundle.base.triangles),
        )
    with open_new(os.path.join(directory, "manifest.json")) as f:
        json.dump(bundle.manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bundle(directory) -> SimulationBundle:
    """Read a bundle directory back.

    Raises ValueError naming the manifest if it is not JSON, lacks a key
    read here or has such a field of the wrong type, and MeshError unless
    every state has the base's vertex count and the base's triangles, in the
    same order.
    """
    path = os.path.join(directory, "manifest.json")
    with open(path) as f:
        text = f.read()
    try:
        manifest = json.loads(text)
        labels = [entry["label"] for entry in manifest["states"]]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise ValueError(f"bundle manifest {path}: {type(e).__name__}: {e}") from e
    base = load_mesh(os.path.join(directory, "base.off"))
    states = []
    for i, label in enumerate(labels):
        mesh = load_mesh(os.path.join(directory, "states", f"{i:03d}.off"))
        if mesh.n_vertices != base.n_vertices:
            raise MeshError(
                f"state {i} has {mesh.n_vertices} vertices, base has {base.n_vertices}"
            )
        if not np.array_equal(mesh.triangles, base.triangles):
            raise MeshError(f"state {i} has different triangles from the base")
        states.append(DeformedState(mesh.vertices, label=label))
    return SimulationBundle(base=base, states=states, manifest=manifest)
