"""Eigendecomposition of the mesh operator and the spectral transforms.

A single basis (the first M eigenpairs of the base mesh operator, ascending
eigenvalues, orthonormal eigenvectors) is shared by all deformed states of a
bundle. Mesh functions and xyz coordinate columns are projected into the
basis with plain transposes and reconstructed by partial sums.

All eigenvector indices are 0-based: index 0 is the constant null vector of
a connected mesh.

A coefficient directory holds one CSV per shape, ``<id>.csv``, and the
stack file ``coefficients.spcs``: the same coefficients as one binary
(S, M, 3) array, with a digest of the CSVs it was written over. The CSVs are
authoritative; the stack is read only while its digest still matches them.

scipy is imported only by the solvers that run it, so that the stages which
only read and write coefficients never import it.
"""

from __future__ import annotations

import glob
import hashlib
import io
import os
import re
import struct
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._files import open_new

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "EigensolverError",
    "FingerprintMismatchError",
    "SpectralBasis",
    "SpectralCoefficients",
    "CoefficientStack",
    "eigendecompose",
    "encode",
    "decode",
    "encode_geometry",
    "reconstruct_geometry",
    "save_coeff_dir",
    "load_coeff_dir",
]

# "auto" takes dense LAPACK only up to this N: the dense operator alone is
# 8 N^2 bytes (74 MB at N = 3050), which the banded solve never allocates
DENSE_MAX_N = 2000
# ... and only once M is at least this share of N; below it the banded solve
# is faster (calibration table in CHANGES.md)
DENSE_MIN_SHARE = 0.2

# banded shift-invert Lanczos: eigenpairs per band (64 measured faster than
# 40 or 100 at M = 500), already-kept eigenvalues each later band is placed
# to find again, and how many of a band's top gaps are candidates for its cut
_BAND_K = 64
_BAND_OVERLAP = 6
_BAND_CUT = 4

# acceptance criterion 1, checked after every solve: max |L psi - lambda psi|
# relative to max(1, max |L|), and max |Psi^T Psi - I|
_RESIDUAL_TOL = 1e-7
_ORTHONORMALITY_TOL = 1e-8

_SPBS_MAGIC = b"SPBS"
_SPBS_VERSION = 1
_SPBS_HEADER = "<4sIQQ32s"

_CSV_HEADER = "index,alpha_x,alpha_y,alpha_z\n"

# a coefficient directory's stack file: the header fields (magic, version,
# S, M, basis fingerprint), then the SHA-256 digest of those fields, of each
# shape CSV's name and bytes and of the (S, M, 3) f64 LE body that follows
_STACK_NAME = "coefficients.spcs"
_STACK_MAGIC = b"SPCS"
_STACK_VERSION = 1
_STACK_HEADER = "<4sIQQ32s"


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge, or its eigenpairs fail verification."""


class FingerprintMismatchError(ValueError):
    """Coefficients or descriptor were produced against a different basis."""


@dataclass(frozen=True)
class SpectralBasis:
    """First M eigenpairs of a symmetric mesh operator.

    Eigenvalues ascend; eigenvector columns are orthonormal and carry a
    deterministic sign (largest-magnitude entry positive), so repeated
    decompositions produce bitwise-identical coefficients.
    """

    eigenvalues: np.ndarray  # (M,)
    eigenvectors: np.ndarray  # (N, M)
    operator_fingerprint: str = ""

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.eigenvalues, dtype=np.float64))
        vecs = np.ascontiguousarray(np.asarray(self.eigenvectors, dtype=np.float64))
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.shape[0]:
            raise ValueError(
                f"inconsistent basis shapes: {vals.shape} values, {vecs.shape} vectors"
            )
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        h = hashlib.sha256()
        h.update(self.operator_fingerprint.encode())
        # the arrays' buffers, not a copy of them
        h.update(vals)
        h.update(vecs)
        object.__setattr__(self, "_fingerprint", h.hexdigest())

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def m(self) -> int:
        return self.eigenvectors.shape[1]

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def save(self, path) -> None:
        """Write the SPBS binary format (f64 LE, eigenvectors column-major)."""
        header = struct.pack(
            _SPBS_HEADER,
            _SPBS_MAGIC,
            _SPBS_VERSION,
            self.n,
            self.m,
            bytes.fromhex(self.operator_fingerprint or "00" * 32),
        )
        with open_new(path, binary=True) as f:
            f.write(header)
            f.write(self.eigenvalues.astype("<f8").tobytes())
            f.write(np.asfortranarray(self.eigenvectors).astype("<f8").tobytes("F"))

    @classmethod
    def load(cls, path) -> "SpectralBasis":
        """Read a SPBS file; ValueError unless its length matches its header."""
        with open(path, "rb") as f:
            data = f.read()
        head = struct.calcsize(_SPBS_HEADER)
        if len(data) < head:
            raise ValueError(
                f"truncated SPBS file {path}: expected at least {head} bytes "
                f"for the header, got {len(data)}"
            )
        magic, version, n, m, fp = struct.unpack_from(_SPBS_HEADER, data)
        if magic != _SPBS_MAGIC:
            raise ValueError(f"not a SPBS file (magic {magic!r})")
        if version != _SPBS_VERSION:
            raise ValueError(f"unsupported SPBS version {version}")
        expected = head + 8 * m * (n + 1)
        if len(data) != expected:
            raise ValueError(
                f"SPBS file {path} (N={n}, M={m}) has the wrong length: "
                f"expected {expected} bytes, got {len(data)}"
            )
        vals = np.frombuffer(data, dtype="<f8", count=m, offset=head)
        vecs = np.frombuffer(data, dtype="<f8", count=n * m, offset=head + 8 * m)
        vecs = vecs.reshape((n, m), order="F")
        fp_hex = fp.hex()
        if fp_hex == "00" * 32:
            fp_hex = ""
        return cls(vals.copy(), np.ascontiguousarray(vecs), fp_hex)


@dataclass(frozen=True)
class SpectralCoefficients:
    """Per-shape projection of xyz coordinates: M rows of (ax, ay, az)."""

    values: np.ndarray  # (M, 3)
    basis_fingerprint: str = ""

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"coefficients must be (M, 3), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coefficients must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def save_csv(self, path) -> None:
        with open_new(path) as f:
            if self.basis_fingerprint:
                f.write(f"# basis_fingerprint: {self.basis_fingerprint}\n")
            f.write(f"# m: {self.m}\n")
            f.write(_CSV_HEADER)
            f.write("".join(f"{i},{x!r},{y!r},{z!r}\n"
                            for i, (x, y, z) in enumerate(self.values.tolist())))

    @classmethod
    def load_csv(cls, path) -> "SpectralCoefficients":
        """Read a CSV written by ``save_csv``.

        Raises ValueError naming the file unless the header line is present
        and every data row holds 4 numeric fields: an index counting 0..M-1
        in order, then a finite (alpha_x, alpha_y, alpha_z). A file whose
        comment states M must hold M rows; one written before M was stated
        is read without that check.
        """
        with open(path) as f:
            head, header, body = f.read().partition(_CSV_HEADER)
        if not header:
            raise ValueError(
                f"coefficient CSV {path} lacks the header {_CSV_HEADER.strip()!r}"
            )
        fields = {}  # "# key: value" comment lines
        for line in head.splitlines():
            if line.lstrip().startswith("#"):
                key, _, value = line.lstrip()[1:].partition(":")
                fields[key.strip()] = value.strip()
        fp = fields.get("basis_fingerprint", "")
        if not body.strip():
            raise ValueError(f"coefficient CSV {path} has no data rows")
        try:
            rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as e:
            raise ValueError(f"malformed coefficient CSV {path}: {e}") from e
        if rows.shape[1] != 4:
            raise ValueError(
                f"coefficient CSV {path}: rows have {rows.shape[1]} fields, expected 4"
            )
        wrong = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
        if wrong.size:
            raise ValueError(
                f"coefficient CSV {path}: data row {wrong[0]} has index "
                f"{rows[wrong[0], 0]:g}, expected {wrong[0]}"
            )
        if "m" in fields and fields["m"] != str(len(rows)):
            raise ValueError(
                f"coefficient CSV {path} has {len(rows)} data rows, "
                f"its header states M={fields['m']}"
            )
        try:
            return cls(rows[:, 1:], fp)
        except ValueError as e:
            raise ValueError(f"coefficient CSV {path}: {e}") from e


@dataclass(frozen=True)
class CoefficientStack:
    """A bundle's coefficients in one basis; ``ids[k]`` names ``values[k]``."""

    ids: tuple
    values: np.ndarray  # (S, M, 3): M rows (ax, ay, az) per shape
    basis_fingerprint: str = ""

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 3 or v.shape[2] != 3 or 0 in v.shape or len(v) != len(self.ids):
            raise ValueError(f"a stack of {len(self.ids)} ids needs non-empty (S, M, 3) "
                             f"values with S = {len(self.ids)}, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coefficients must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", v)

    @classmethod
    def of(cls, coeffs, ids=None) -> "CoefficientStack":
        """The stack of a list of shapes of one basis and one M, named ``ids``
        or 0..S-1; a CoefficientStack is returned as it is."""
        if isinstance(coeffs, cls):
            return coeffs
        ids = range(len(coeffs)) if ids is None else ids
        fp = next((c.basis_fingerprint for c in coeffs if c.basis_fingerprint), "")
        for i, c in zip(ids, coeffs):
            _check_fingerprint(fp, c.basis_fingerprint, f"shape {i} and the bundle")
            if c.m != coeffs[0].m:
                raise ValueError(f"shape {i} has M={c.m}, shape {ids[0]} M={coeffs[0].m}")
        return cls(ids, np.array([c.values for c in coeffs]), fp)


def _stack_digest(fields: bytes, paths: list[str], body) -> bytes:
    """SHA-256 of the stack's header fields, of each CSV's name and bytes
    as they are on disk, and of the stack body."""
    h = hashlib.sha256(fields)
    for p in paths:
        with open(p, "rb") as f:
            data = f.read()
        name = os.path.basename(p).encode()
        h.update(struct.pack("<QQ", len(name), len(data)))
        h.update(name)
        h.update(data)
    h.update(body)
    return h.digest()


def save_coeff_dir(directory, stack: CoefficientStack) -> None:
    """Write each shape's coefficients to ``<id>.csv``, then the stack file.

    The basis fingerprint must be empty or a SHA-256 hex digest. The stack
    file holds the shapes in the order ``load_coeff_dir`` finds their CSVs,
    sorted by name.

    Raises ValueError before writing anything if the directory holds a shape
    CSV that this call would not overwrite: ``load_coeff_dir`` would read it
    as one more shape of the bundle.
    """
    fp = stack.basis_fingerprint
    if fp and not re.fullmatch("[0-9a-f]{64}", fp):
        raise ValueError(f"basis fingerprint {fp!r} is not a SHA-256 hex digest")
    order = sorted(range(len(stack.ids)), key=lambda k: f"{stack.ids[k]}.csv")
    paths = [os.path.join(directory, f"{stack.ids[k]}.csv") for k in order]
    names = {os.path.basename(p) for p in paths}
    for p in _shape_csvs(directory):
        if os.path.basename(p) not in names:
            raise ValueError(
                f"{p} is a shape CSV of another bundle: encode into a new "
                "directory or remove it"
            )
    for p, k in zip(paths, order):
        SpectralCoefficients(stack.values[k], fp).save_csv(p)
    body = stack.values[order].astype("<f8").tobytes()
    fields = struct.pack(_STACK_HEADER, _STACK_MAGIC, _STACK_VERSION,
                         *stack.values.shape[:2], bytes.fromhex(fp or "00" * 32))
    with open_new(os.path.join(directory, _STACK_NAME), binary=True) as f:
        f.write(fields)
        f.write(_stack_digest(fields, paths, body))
        f.write(body)


def _read_stack(directory, paths: list[str], ids: list[str]) -> CoefficientStack | None:
    """The directory's stack, named ``ids``, if it matches the CSVs at ``paths``;
    None if it cannot be read, is cut, has another magic or version, was
    written over a different number of CSVs, or its digest differs."""
    try:
        with open(os.path.join(directory, _STACK_NAME), "rb") as f:
            data = f.read()
    except OSError:
        return None
    fields = struct.calcsize(_STACK_HEADER)
    head = fields + hashlib.sha256().digest_size
    if len(data) < head:
        return None
    magic, version, s, m, fp = struct.unpack_from(_STACK_HEADER, data)
    if (magic, version, s) != (_STACK_MAGIC, _STACK_VERSION, len(paths)):
        return None
    body = memoryview(data)[head:]
    if len(body) != 24 * s * m:
        return None
    if _stack_digest(data[:fields], paths, body) != data[fields:head]:
        return None
    fp_hex = "" if fp == bytes(32) else fp.hex()
    values = np.frombuffer(body, dtype="<f8").reshape(s, m, 3)
    return CoefficientStack(ids, values, fp_hex)


def _shape_csvs(directory) -> list[str]:
    """Paths of the directory's ``*.csv`` files but ``base*``, sorted."""
    paths = sorted(glob.glob(os.path.join(directory, "*.csv")))
    return [p for p in paths if not os.path.basename(p).startswith("base")]


def load_coeff_dir(directory) -> CoefficientStack:
    """The shapes of a coefficient directory, named and sorted by file name,
    from every ``*.csv`` but those named ``base*``.

    Reads the stack file when it matches the CSVs (see ``_read_stack``), else
    parses each CSV; both give the same bits. Raises FileNotFoundError when
    there is no CSV, and ValueError naming the file for a malformed one or
    naming the shape for CSVs of different M.
    """
    paths = _shape_csvs(directory)
    if not paths:
        raise FileNotFoundError(f"no coefficient CSVs in {directory}")
    ids = [os.path.splitext(os.path.basename(p))[0] for p in paths]
    stack = _read_stack(directory, paths, ids)
    if stack is None:
        # a CSV that does not state M and was cut after whole rows parses;
        # only its row count, which ``of`` checks, shows the cut
        stack = CoefficientStack.of([SpectralCoefficients.load_csv(p) for p in paths], ids)
    return stack


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column positive.

    Ties are resolved by the first entry within 1e-6 of the maximum: on
    symmetric meshes entries come in +-pairs of equal magnitude, and a plain
    argmax would flip between solvers on rounding noise.
    """
    absv = np.abs(vecs)
    near_max = absv >= (1.0 - 1e-6) * absv.max(axis=0)
    idx = near_max.argmax(axis=0)  # first near-maximal entry per column
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def eigsh(*args, **kwargs):
    """scipy's ``scipy.sparse.linalg.eigsh``, imported on the first call.

    A module-level name that ``_banded_eigsh`` looks up on every call, so
    that one rebinding of ``spectral.eigsh`` reaches every band.
    """
    from scipy.sparse.linalg import eigsh as scipy_eigsh

    return scipy_eigsh(*args, **kwargs)


def _banded_eigsh(
    L: sparse.spmatrix, m: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The m smallest eigenpairs of L, ascending, solved band by band.

    After Vallet & Levy, *Spectral Geometry Processing with Manifold
    Harmonics* (CGF 2008). Each band is one shift-invert Lanczos call: one
    sparse LU of L - sigma*I and the _BAND_K eigenpairs nearest sigma. The
    first sigma sits just below zero (L is PSD, so L - sigma*I is definite).
    Each later sigma sits above the last kept eigenvalue, placed by the
    spectral density the previous band observed so that the new band finds
    about _BAND_OVERLAP kept eigenvalues again. A band that does not reach
    back to the last kept eigenvalue may have skipped some, so it is solved
    again with sigma moved down. Every band but the last is cut in a spectral
    gap wider than gap_tol, so no degenerate cluster is split between two
    bands.
    """
    from scipy.sparse.linalg import ArpackError

    n = L.shape[0]
    A = L.tocsc()
    scale = max(abs(L.diagonal()).max(), 1.0)
    # a cluster within this gap has eigenvectors defined only up to rotation,
    # harmless as all shapes share one basis; lambda_M <= the largest row sum
    gap_tol = 1e-8 * max(abs(L).sum(axis=1).max(), 1.0)
    rng = np.random.default_rng(seed)
    k = min(_BAND_K, n - 1)
    kept_vals, kept_vecs = [], []
    count, last = 0, -np.inf
    sigma, step = -1e-3 * scale, 0.0
    band = 0
    while count < m:
        band += 1
        try:
            vals, vecs = eigsh(A, k=k, sigma=sigma, which="LM",
                               v0=rng.standard_normal(n))
        except ArpackError as e:
            raise EigensolverError(
                f"Lanczos band {band} (sigma={sigma:.6g}, {count}/{m} "
                f"eigenpairs kept before it) failed: {e}"
            ) from e
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        if count and vals[0] > last + gap_tol:
            step /= 2
            sigma = last + step
            continue
        width = vals[-1] - vals[0]
        new = vals > last + gap_tol
        vals, vecs = vals[new], vecs[:, new]
        if count + len(vals) >= m:
            take = m - count
        else:
            # the widest gap among the top _BAND_CUT, else the highest one
            gaps = np.diff(vals)
            cuts = np.flatnonzero(gaps > gap_tol)
            if not cuts.size:
                raise EigensolverError(
                    f"Lanczos band {band}: no spectral gap among its "
                    f"{len(vals)} new eigenvalues to cut the band in"
                )
            top = cuts[cuts >= len(gaps) - _BAND_CUT]
            take = 1 + (top[np.argmax(gaps[top])] if top.size else cuts[-1])
        kept_vals.append(vals[:take])
        kept_vecs.append(vecs[:, :take])
        count += take
        last = vals[take - 1]
        step = width * max(k / 2 - _BAND_OVERLAP, 1.0) / (k - 1)
        sigma = last + step
    return np.concatenate(kept_vals), np.hstack(kept_vecs)


def _verify(L: sparse.spmatrix, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Raise EigensolverError unless the eigenpairs meet criterion 1."""
    bound = _RESIDUAL_TOL * max(1.0, abs(L).max())
    # column blocks keep the residual's temporaries small at large N*M
    residual = 0.0
    for j in range(0, len(vals), _BAND_K):
        block = vecs[:, j:j + _BAND_K]
        residual = max(residual, np.abs(L @ block - block * vals[j:j + _BAND_K]).max())
    if not residual <= bound:
        raise EigensolverError(
            f"eigenpair residual {residual:.3g} exceeds {bound:.3g}"
        )
    ortho = np.abs(vecs.T @ vecs - np.eye(len(vals))).max()
    if not ortho <= _ORTHONORMALITY_TOL:
        raise EigensolverError(
            f"eigenvector orthonormality error {ortho:.3g} exceeds "
            f"{_ORTHONORMALITY_TOL:g}"
        )


def eigendecompose(
    L: sparse.spmatrix,
    m: int,
    method: str = "auto",
    operator_fingerprint: str = "",
    seed: int = 0,
) -> SpectralBasis:
    """Compute the m smallest eigenpairs of a sparse symmetric PSD operator.

    ``method`` is "dense" (LAPACK on the full matrix), "lanczos" (banded
    shift-invert Lanczos: one sparse LU and a few dozen eigenpairs per band,
    start vectors drawn from ``seed`` for reproducibility) or "auto". "auto"
    takes dense when m >= N - 1, or when N <= DENSE_MAX_N and m is at least
    DENSE_MIN_SHARE of N; otherwise the banded solve.

    Every solve is verified: an eigenpair residual over 1e-7 * max(1, max|L|)
    or an orthonormality error over 1e-8 raises EigensolverError, as does a
    Lanczos band that fails to converge.
    """
    n = L.shape[0]
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= N, got m={m}, N={n}")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        dense = m >= n - 1 or (n <= DENSE_MAX_N and m >= DENSE_MIN_SHARE * n)
        method = "dense" if dense else "lanczos"

    if method == "dense":
        from scipy import linalg

        vals, vecs = linalg.eigh(np.asarray(L.todense()), subset_by_index=[0, m - 1])
    else:
        vals, vecs = _banded_eigsh(L, m, seed)
    _verify(L, vals, vecs)
    # both paths return ascending eigenvalues
    return SpectralBasis(vals, _fix_signs(vecs), operator_fingerprint)


def _check_fingerprint(a: str, b: str, what: str) -> None:
    """The one fingerprint rule: an empty one is unknown and passes, two
    known ones must be equal; else FingerprintMismatchError."""
    if a and b and a != b:
        raise FingerprintMismatchError(
            f"{what} come from different bases: fingerprint {a[:12]}... "
            f"does not match {b[:12]}..."
        )


def encode(basis: SpectralBasis, f: np.ndarray) -> np.ndarray:
    """Spectral coefficients alpha_i = <f, psi_i> of f, (N,) or (N, k)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim not in (1, 2) or f.shape[0] != basis.n:
        raise ValueError(f"mesh function has shape {f.shape}, expected {basis.n} rows")
    return basis.eigenvectors.T @ f


def decode(
    basis: SpectralBasis, coeffs: np.ndarray, indices: np.ndarray | None = None
) -> np.ndarray:
    """Partial inverse transform: f = sum over supplied indices of alpha_i psi_i."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if indices is None:
        if coeffs.shape[0] > basis.m:
            raise ValueError(f"{coeffs.shape[0]} coefficients but basis has M={basis.m}")
        return basis.eigenvectors[:, : coeffs.shape[0]] @ coeffs
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and (indices.min() < 0 or indices.max() >= basis.m):
        raise ValueError(f"index out of basis range [0, {basis.m})")
    return basis.eigenvectors[:, indices] @ coeffs


def encode_geometry(basis: SpectralBasis, coordinates: np.ndarray) -> SpectralCoefficients:
    """Project xyz coordinate columns into the basis (one matmul, O(3MN))."""
    p = np.asarray(coordinates, dtype=np.float64)
    if p.shape != (basis.n, 3):
        raise ValueError(f"coordinates have shape {p.shape}, expected ({basis.n}, 3)")
    return SpectralCoefficients(encode(basis, p), basis.fingerprint)


def reconstruct_geometry(
    basis: SpectralBasis,
    coeffs: SpectralCoefficients,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Per-axis partial sums over a subset of eigenvector indices.

    ``subset=None`` uses all M indices. An empty subset yields an all-zero
    geometry with a warning rather than an error.
    """
    _check_fingerprint(basis.fingerprint, coeffs.basis_fingerprint,
                       "basis and coefficients")
    if coeffs.m != basis.m:
        raise ValueError(f"coefficients M={coeffs.m} but basis M={basis.m}")
    if subset is None:
        return decode(basis, coeffs.values)
    subset = np.asarray(subset, dtype=np.int64)
    if subset.size == 0:
        warnings.warn("empty index subset: reconstructing all-zero geometry")
        return np.zeros((basis.n, 3))
    # clipped, so that decode rejects an out-of-range index with ValueError
    return decode(basis, coeffs.values.take(subset, axis=0, mode="clip"), subset)
