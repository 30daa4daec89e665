"""Synthetic hat-section beam and labeled deformation bundles.

Stands in for crash-simulation output: one extruded hat-profile beam plus a
set of analytically deformed copies (upward bend, downward bend, axial
crush) with known labels, randomized amplitude and location, and a little
Gaussian noise. Everything is pure given (params, seed), so bundles can be
regenerated bit-exactly from their manifest.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from ._files import _frozen, open_new, reading
from .mesh import MeshError, TriangleMesh, load_mesh, save_mesh

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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
        if not self.amplitude >= 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not 0.0 <= self.location <= 1.0:
            raise ValueError("location must be in [0, 1]")
        if self.fold_count < 1:
            raise ValueError("fold_count must be >= 1")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for name in ("amplitude", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class SimulationBundle:
    """Deformed copies of one base mesh in its vertex order: ``states[k]`` of the
    read-only ``states`` holds the shape that ``manifest["states"][k]`` describes."""

    base: TriangleMesh
    states: np.ndarray  # (S, N, 3)
    manifest: dict

    def __post_init__(self):
        states = _frozen(self.states)
        expected = (len(self.manifest["states"]), *self.base.vertices.shape)
        if states.shape != expected:
            raise ValueError(f"states must be (S, N, 3) = {expected}, got {states.shape}")
        object.__setattr__(self, "states", states)

    @property
    def labels(self) -> list[str]:
        """The label of each state, as the manifest records it."""
        return [entry["label"] for entry in self.manifest["states"]]


def _ring_profile(params: BeamParams) -> np.ndarray:
    """Closed (y, z) cross-section loop: hat path plus base-plate return."""
    w, h, fl = params.hat_width, params.hat_height, params.flange_width
    cs = params.section_segments
    fl_sub = max(2, cs // 4)
    web_sub = max(2, cs // 3)
    corners = np.array([
        (-w / 2 - fl, 0.0),
        (-w / 2, 0.0),
        (-w / 2, h),
        (w / 2, h),
        (w / 2, 0.0),
        (w / 2 + fl, 0.0),
    ])
    # the first corner, then points s / ns of the way along each side, s = 1..ns;
    # the last side returns along the base plate to the first corner, not repeated
    subdiv = [fl_sub, web_sub, cs, web_sub, fl_sub, 2 * cs]
    side = np.repeat(np.arange(len(subdiv)), subdiv)
    s = np.concatenate([np.arange(1, ns + 1) for ns in subdiv])
    a, b = corners[side], np.roll(corners, -1, axis=0)[side]
    pts = a + (s / np.repeat(subdiv, subdiv))[:, None] * (b - a)
    return np.concatenate([corners[:1], pts[:-1]])


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
    verts = np.column_stack([np.repeat(x, r), np.tile(ring, (na + 1, 1))])
    # per station a and ring point k, the two triangles of the quad a, k to a + 1, k + 1
    base0, k = np.arange(na, dtype=np.int64)[:, None] * r, np.arange(r)
    v00, v01 = base0 + k, base0 + (k + 1) % r
    v10, v11 = v00 + r, v01 + r
    tris = np.stack([v00, v01, v11, v00, v11, v10], axis=-1).reshape(-1, 3)
    for a in (verts, tris):  # fresh, so that the mesh takes them without a copy
        a.setflags(write=False)
    return TriangleMesh(verts, tris)


def apply_deformation(
    base: TriangleMesh,
    spec: DeformationSpec,
    seed: int = 0,
    section_centroid: np.ndarray | None = None,
) -> np.ndarray:
    """The (N, 3) coordinates of the base beam displaced according to ``spec``.

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
    return coords


def default_noise_sigma(params: BeamParams) -> float:
    """0.5% of the beam's bounding-box diagonal: breaks symmetry, keeps mode identity."""
    diag = np.linalg.norm([params.length, *np.ptp(_ring_profile(params), axis=0)])
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
    if len(n_per_mode) != 3 or min(n_per_mode) < 0:
        raise ValueError(f"need 3 state counts, each >= 0, got {tuple(n_per_mode)}")
    if sum(n_per_mode) < 3:
        raise ValueError("need at least 3 states in total")
    if noise_sigma is None:
        noise_sigma = default_noise_sigma(params)
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


def _check_version(manifest: dict) -> None:
    """The one manifest version rule: ValueError unless it is MANIFEST_VERSION."""
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version {manifest.get('version')}")


def bundle_from_manifest(manifest: dict) -> SimulationBundle:
    """Regenerate a bundle bit-exactly from its manifest."""
    _check_version(manifest)
    params = BeamParams(**manifest["beam_params"])
    base = generate_hat_beam(params)
    centroid = _ring_profile(params).mean(axis=0)
    states = np.empty((len(manifest["states"]), *base.vertices.shape))
    for i, entry in enumerate(manifest["states"]):
        entry = dict(entry)
        s = entry.pop("seed")
        entry.pop("label", None)
        spec = DeformationSpec(**entry)
        states[i] = apply_deformation(base, spec, seed=s, section_centroid=centroid)
    states.setflags(write=False)  # fresh, so that the bundle takes it without a copy
    return SimulationBundle(base=base, states=states, manifest=manifest)


def save_bundle(directory, bundle: SimulationBundle) -> None:
    """Write base.off, states/NNN.off and manifest.json into a directory.

    Each state is written as the base's validated triangles with the state's
    coordinates, so the triangles are neither validated nor formatted again
    per state. Raises ValueError before making the directory if a coordinate
    of the base or of a state is not finite.
    """
    if not (np.isfinite(bundle.base.vertices).all() and np.isfinite(bundle.states).all()):
        raise ValueError("refusing to write a bundle with non-finite vertex coordinates")
    os.makedirs(os.path.join(directory, "states"), exist_ok=True)
    save_mesh(os.path.join(directory, "base.off"), bundle.base)
    for i, state in enumerate(bundle.states):
        save_mesh(
            os.path.join(directory, "states", f"{i:03d}.off"),
            bundle.base.with_vertices(state),
        )
    with open_new(os.path.join(directory, "manifest.json")) as f:
        json.dump(bundle.manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def load_bundle(directory) -> SimulationBundle:
    """Read a bundle directory back.

    Raises ValueError naming the manifest if it is not JSON, lacks a key read
    here, has such a field of the wrong type or another version, and MeshError
    naming the state and its file unless every state has the base's vertex
    count and triangles, in the same order. Only the base is validated as a
    mesh; the states share its triangles (``load_mesh(..., like=base)``).
    """
    path = os.path.join(directory, "manifest.json")
    with reading(path, "bundle manifest"), open(path) as f:
        manifest = json.load(f)
        labels = [entry["label"] for entry in manifest["states"]]
        _check_version(manifest)  # a dict, as it has states
    base = load_mesh(os.path.join(directory, "base.off"))
    states = np.empty((len(labels), *base.vertices.shape))
    for i in range(len(labels)):
        try:
            states[i] = load_mesh(os.path.join(directory, "states", f"{i:03d}.off"),
                                  like=base).vertices
        except MeshError as e:
            raise MeshError(f"state {i}: {e}") from e
    states.setflags(write=False)  # fresh, so that the bundle takes it without a copy
    return SimulationBundle(base=base, states=states, manifest=manifest)
