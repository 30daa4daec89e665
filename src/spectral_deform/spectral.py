"""Eigendecomposition of the mesh operator and the spectral transforms.

A single basis (the first M eigenpairs of the base mesh operator, ascending
eigenvalues, orthonormal eigenvectors) is shared by all deformed states of a
bundle. Mesh functions and xyz coordinate columns are projected into the
basis with plain transposes and reconstructed by partial sums. A basis file
(SPBS) holds its fingerprint, checked on load, and the arrays in memory order.

All eigenvector indices are 0-based: index 0 is the constant null vector of
a connected mesh, and one rule, ``_rows``, holds every given index in [0, M).
A subset's reconstruction error is taken by Parseval (``_truncation_rms``).

A coefficient directory holds one CSV per shape, ``<id>.csv``, and the
stack file ``coefficients.spcs``: the same coefficients as one binary
(S, M, 3) array, followed by each CSV it was written from, led by its
size. The CSVs are authoritative; the stack is read only while every CSV
still equals its copy byte for byte, so a query reads the CSVs but neither
parses nor hashes them.

scipy is imported only by the solvers that run it, so that the stages which
only read and write coefficients never import it.
"""

from __future__ import annotations

import glob
import hashlib
import io
import os
import struct
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._files import _fingerprint, _frozen, float_rows, open_new, reading

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

# banded shift-invert Lanczos: eigenpairs per band (with the symmetric-mode LU
# at M = 500, 64 ties 80 and beats 100 and 128), kept eigenvalues each later
# band is placed to find again, and how many of a band's top gaps may be its cut
_BAND_K = 64
_BAND_OVERLAP = 6
_BAND_CUT = 4

# acceptance criterion 1, checked after every solve: max |L psi - lambda psi|
# relative to max(1, max |L|), and max |Psi^T Psi - I|
_RESIDUAL_TOL = 1e-7
_ORTHONORMALITY_TOL = 1e-8

# a basis file: the header fields (magic, version, N, M, operator and basis
# fingerprints), then the (M,) eigenvalues and (N, M) eigenvectors, f64 LE in
# C order; versions 1 (column-major) and 2 (no basis fingerprint) are not read
_SPBS_MAGIC = b"SPBS"
_SPBS_VERSION = 3
_SPBS_HEADER = "<4sIQQ32s32s"

_CSV_HEADER = "index,alpha_x,alpha_y,alpha_z\n"

# a coefficient directory's stack file: the header fields (magic, version,
# S, M, basis fingerprint) and the SHA-256 digest of those fields and of the
# body; then the (S, M, 3) f64 LE body and, for each shape CSV in name order,
# its byte size as u64 LE followed by its bytes
_STACK_NAME = "coefficients.spcs"
_STACK_MAGIC = b"SPCS"
_STACK_VERSION = 3
_STACK_HEADER = "<4sIQQ32s"


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge, or its eigenpairs fail verification."""


class FingerprintMismatchError(ValueError):
    """Coefficients or descriptor were produced against a different basis."""


@dataclass(frozen=True)
class SpectralBasis:
    """First M eigenpairs of a symmetric mesh operator.

    Eigenvalues ascend; eigenvector columns are orthonormal, signed so that
    the largest-magnitude entry is positive: repeated decompositions give
    bitwise-identical coefficients with the same BLAS build and thread count.
    """

    eigenvalues: np.ndarray  # (M,)
    eigenvectors: np.ndarray  # (N, M)
    operator_fingerprint: str = ""
    fingerprint: str = field(init=False)  # SHA-256 hex of the fields above, hashed once

    def __post_init__(self):
        vals, vecs = _frozen(self.eigenvalues), _frozen(self.eigenvectors)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape[1] != vals.shape[0]:
            raise ValueError(
                f"inconsistent basis shapes: {vals.shape} values, {vecs.shape} vectors"
            )
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        h = hashlib.sha256(self.operator_fingerprint.encode())
        h.update(vals)  # the arrays' buffers, not a copy of them
        h.update(vecs)
        object.__setattr__(self, "fingerprint", h.hexdigest())

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def m(self) -> int:
        return self.eigenvectors.shape[1]

    def save(self, path) -> None:
        """Write the SPBS file: the header, then the eigenvalues and the
        eigenvectors as they are held, f64 LE in C order, one write each.
        ValueError unless the operator fingerprint is empty or a SHA-256 digest."""
        fp = bytes.fromhex(_fingerprint(self.operator_fingerprint) or "00" * 32)
        with open_new(path, binary=True) as f:
            f.write(struct.pack(_SPBS_HEADER, _SPBS_MAGIC, _SPBS_VERSION, self.n,
                                self.m, fp, bytes.fromhex(self.fingerprint)))
            for a in (self.eigenvalues, self.eigenvectors):
                f.write(np.ascontiguousarray(a, "<f8"))  # a view, not a copy, on LE

    @classmethod
    def load(cls, path) -> "SpectralBasis":
        """Read a SPBS file; ValueError naming it unless it has the SPBS magic
        and version, its length, checked before allocating, matches its
        header, and it holds the basis it was saved with (by its fingerprint).
        Each array is read straight into the basis: loading holds nothing else."""
        head = struct.calcsize(_SPBS_HEADER)
        with reading(path, "SPBS file"), open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size < head:
                raise ValueError(f"truncated: expected at least {head} bytes for the "
                                 f"header, got {size}")
            magic, version, n, m, fp, saved = struct.unpack(_SPBS_HEADER, f.read(head))
            if magic != _SPBS_MAGIC:
                raise ValueError(f"it is not a SPBS file (magic {magic!r})")
            if version != _SPBS_VERSION:
                raise ValueError(f"it has unsupported version {version}; re-run decompose")
            expected = head + 8 * m * (n + 1)
            if size != expected:
                raise ValueError(f"N={n}, M={m} give the wrong length: expected "
                                 f"{expected} bytes, got {size}")
            vals, vecs = np.empty(m, "<f8"), np.empty((n, m), "<f8")
            if head + f.readinto(vals) + f.readinto(vecs) != expected:
                raise ValueError("it changed while it was read")
            for a in (vals, vecs):  # fresh arrays, frozen so that the basis needs no copy
                a.setflags(write=False)
            basis = cls(vals, vecs, "" if fp == bytes(32) else fp.hex())
            if basis.fingerprint != saved.hex():
                raise ValueError("its eigenpairs are not the ones it was saved with; "
                                 "re-run decompose")
            return basis


@dataclass(frozen=True)
class SpectralCoefficients:
    """Per-shape projection of xyz coordinates: M rows of (ax, ay, az)."""

    values: np.ndarray  # (M, 3)
    basis_fingerprint: str = ""

    def __post_init__(self):
        v = _frozen(self.values)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"coefficients must be (M, 3), got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "basis_fingerprint", _fingerprint(self.basis_fingerprint))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    def to_csv(self) -> bytes:
        """The text of the file ``save_csv`` writes: the comment lines, the
        header and M rows of the index and each value's shortest repr
        (``_files.float_rows``)."""
        fp = self.basis_fingerprint
        head = f"# basis_fingerprint: {fp}\n" if fp else ""
        rows = float_rows(self.values, ",", index=True)
        return f"{head}# m: {self.m}\n{_CSV_HEADER}{rows}".encode()

    def save_csv(self, path) -> bytes:
        """Write ``to_csv()`` to ``path``; return the bytes written."""
        text = self.to_csv()
        with open_new(path, binary=True) as f:
            f.write(text)
        return text

    @classmethod
    def load_csv(cls, path) -> "SpectralCoefficients":
        """Read a CSV written by ``save_csv``.

        Raises ValueError naming the file unless the header line is present
        and every data row holds 4 numeric fields: an index counting 0..M-1
        in order, then a finite (alpha_x, alpha_y, alpha_z). A file whose
        comment states M must hold M rows; one written before M was stated
        is read without that check.
        """
        with reading(path, "coefficient CSV"), open(path) as f:
            head, header, body = f.read().partition(_CSV_HEADER)
            if not header:
                raise ValueError(f"it lacks the header {_CSV_HEADER.strip()!r}")
            fields = {}  # "# key: value" comment lines
            for line in head.splitlines():
                if line.lstrip().startswith("#"):
                    key, _, value = line.lstrip()[1:].partition(":")
                    fields[key.strip()] = value.strip()
            if not body.strip():
                raise ValueError("it has no data rows")
            rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            if rows.shape[1] != 4:
                raise ValueError(f"rows have {rows.shape[1]} fields, expected 4")
            wrong = np.flatnonzero(rows[:, 0] != np.arange(len(rows)))
            if wrong.size:
                raise ValueError(f"data row {wrong[0]} has index "
                                 f"{rows[wrong[0], 0]:g}, expected {wrong[0]}")
            if "m" in fields and fields["m"] != str(len(rows)):
                raise ValueError(f"it has {len(rows)} data rows, its header states "
                                 f"M={fields['m']}")
            return cls(rows[:, 1:], fields.get("basis_fingerprint", ""))


@dataclass(frozen=True)
class CoefficientStack:
    """A bundle's coefficients in one basis; ``ids[k]`` names ``values[k]``."""

    ids: tuple
    values: np.ndarray  # (S, M, 3): M rows (ax, ay, az) per shape
    basis_fingerprint: str = ""

    def __post_init__(self):
        v = _frozen(self.values)
        if v.ndim != 3 or v.shape[2] != 3 or 0 in v.shape or len(v) != len(self.ids):
            raise ValueError(f"a stack of {len(self.ids)} ids needs non-empty (S, M, 3) "
                             f"values with S = {len(self.ids)}, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "basis_fingerprint", _fingerprint(self.basis_fingerprint))

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
        values = np.array([c.values for c in coeffs])
        values.setflags(write=False)  # fresh, so that the stack needs no copy
        return cls(ids, values, fp)


def _stack_digest(fields: bytes, body) -> bytes:
    """SHA-256 of the stack's header fields and body; the CSVs are compared, not hashed."""
    h = hashlib.sha256(fields)
    h.update(body)
    return h.digest()


def save_coeff_dir(directory, stack: CoefficientStack) -> None:
    """Write each shape's coefficients to ``<id>.csv``, and the stack file.

    The stack file is written in one forward pass: the header, the digest and
    the body, the shapes in the order ``load_coeff_dir`` finds their CSVs, by
    name; then each CSV's size and bytes, as ``save_csv`` formatted them once
    for the CSV, one CSV held at a time. A save cut short lacks copies.

    Raises ValueError before writing anything if an id would not be read back
    from its ``<id>.csv`` as that id (empty, repeated, holding a path
    separator, or starting with "base" or "."), or if the directory holds a
    shape CSV that this call would not overwrite: ``load_coeff_dir`` would
    read it as one more shape of the bundle.
    """
    fp = stack.basis_fingerprint
    names = set()
    for i in stack.ids:
        name = f"{i}.csv"
        if (name in names or name.startswith((".", "base"))
                or os.path.basename(name) != name):
            raise ValueError(f"shape id {i!r} is empty, repeated, holds a path separator "
                             "or starts with 'base' or '.': it would not be read back")
        names.add(name)
    order = sorted(range(len(stack.ids)), key=lambda k: f"{stack.ids[k]}.csv")
    for p in _shape_csvs(directory):
        if os.path.basename(p) not in names:
            raise ValueError(
                f"{p} is a shape CSV of another bundle: encode into a new "
                "directory or remove it"
            )
    body = np.ascontiguousarray(stack.values[order], "<f8")  # one copy, in name order
    fields = struct.pack(_STACK_HEADER, _STACK_MAGIC, _STACK_VERSION,
                         *stack.values.shape[:2], bytes.fromhex(fp or "00" * 32))
    with open_new(os.path.join(directory, _STACK_NAME), binary=True) as f:
        f.write(fields)
        f.write(_stack_digest(fields, body))
        f.write(body)
        for k in order:
            text = SpectralCoefficients(stack.values[k], fp).save_csv(
                os.path.join(directory, f"{stack.ids[k]}.csv"))
            f.write(struct.pack("<Q", len(text)))
            f.write(text)


def _read_stack(directory, paths: list[str], ids: list[str]) -> CoefficientStack | None:
    """The directory's stack, named ``ids``, if it was written from the CSVs
    at ``paths`` as they are now; else None.

    Read in one forward pass, each check returning None when it fails: the
    magic, the version and S against the number of CSVs; a file long enough
    for the body, before it is allocated; the digest of the header fields and
    the body; then per CSV a size no larger than the file, and the CSV, opened
    once, equal byte for byte to the copy of that size; no byte after the last
    copy. So no CSV is hashed or parsed, and the stack is used only while each
    is the text its body was written from. The digest is unkeyed: it finds a
    damaged stack, not a deliberate edit of it.
    """
    fields = struct.calcsize(_STACK_HEADER)
    head = fields + hashlib.sha256().digest_size
    try:
        with open(os.path.join(directory, _STACK_NAME), "rb", buffering=0) as f:
            size = os.fstat(f.fileno()).st_size
            header = f.read(head)
            magic, version, s, m, fp = struct.unpack_from(_STACK_HEADER, header)
            if (magic, version, s) != (_STACK_MAGIC, _STACK_VERSION, len(paths)):
                return None
            if size < head + 24 * s * m:
                return None
            values = np.empty((s, m, 3), "<f8")
            if (f.readinto(values) != values.nbytes
                    or _stack_digest(header[:fields], values) != header[fields:]):
                return None
            for p in paths:
                (n,) = struct.unpack("<Q", f.read(8))
                if n > size:
                    return None
                # bytes against bytes: comparing through a memoryview is slower
                with open(p, "rb", buffering=0) as csv:
                    if csv.read(n + 1) != f.read(n):
                        return None
            if f.read(1):
                return None
    except (OSError, struct.error):  # unreadable, or cut inside a header or size
        return None
    values.setflags(write=False)  # fresh, so that the stack needs no copy
    return CoefficientStack(ids, values, "" if fp == bytes(32) else fp.hex())


def _shape_csvs(directory) -> list[str]:
    """Paths of the directory's ``*.csv`` files but ``base*``, sorted by name."""
    # root_dir, so that glob characters in the directory's name stay literal
    names = sorted(glob.glob("*.csv", root_dir=directory))
    return [os.path.join(directory, n) for n in names if not n.startswith("base")]


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


def eigsh(*args, **kwargs):
    """scipy's ``scipy.sparse.linalg.eigsh``, imported on the first call.

    A module-level name that ``_banded_eigsh`` looks up on every call, so
    that one rebinding of ``spectral.eigsh`` reaches every band.
    """
    from scipy.sparse.linalg import eigsh as scipy_eigsh

    return scipy_eigsh(*args, **kwargs)


def _banded_eigsh(L: sparse.spmatrix, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m smallest eigenpairs of L, ascending, solved band by band.

    After Vallet & Levy, *Spectral Geometry Processing with Manifold
    Harmonics* (CGF 2008). Each band is one shift-invert Lanczos call: one
    sparse LU of L - sigma*I and the _BAND_K eigenpairs nearest sigma. The LU
    is SuperLU's symmetric mode (minimum degree on A^T + A, diagonal pivots):
    half the fill of eigsh's default COLAMD LU, so each solve costs less. The
    first sigma sits just below zero (L is PSD, so L - sigma*I is definite).
    Each later sigma sits above the last kept eigenvalue, placed by the
    spectral density the previous band observed so that the new band finds
    about _BAND_OVERLAP kept eigenvalues again. A band that does not reach
    back to the last kept eigenvalue may have skipped some, so it is solved
    again with sigma moved down. Every band but the last is cut in a spectral
    gap wider than gap_tol, so no degenerate cluster is split between two
    bands. Each band writes the pairs it keeps into the (m,) and (n, m)
    arrays returned, allocated once, and drops its LU and Ritz vectors before
    the next band factors, so the solve holds the basis and one band's
    ARPACK workspace.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import LinearOperator, splu

    n = L.shape[0]
    A, eye = L.tocsc(), identity(n, format="csc")
    scale = max(abs(L.diagonal()).max(), 1.0)
    # a cluster within this gap has eigenvectors defined only up to rotation,
    # harmless as all shapes share one basis; lambda_M <= the largest row sum
    gap_tol = 1e-8 * max(abs(L).sum(axis=1).max(), 1.0)
    rng = np.random.default_rng(0)
    k = min(_BAND_K, n - 1)
    kept_vals, kept_vecs = np.empty(m), np.empty((n, m))
    count, last = 0, -np.inf
    sigma, step = -1e-3 * scale, 0.0
    band = 0
    while count < m:
        band += 1
        lu = vecs = None  # the last band's factor and Ritz vectors go before the next LU
        try:
            lu = splu(A - sigma * eye, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                      options={"SymmetricMode": True})
            vals, vecs = eigsh(A, k=k, sigma=sigma, which="LM", v0=rng.standard_normal(n),
                               OPinv=LinearOperator((n, n), lu.solve))
        except RuntimeError as e:  # ArpackError, or a singular L - sigma*I
            raise EigensolverError(
                f"Lanczos band {band} (sigma={sigma:.6g}, {count}/{m} "
                f"eigenpairs kept before it) failed: {e}"
            ) from e
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        if count and vals[0] > last + gap_tol:
            step /= 2
            sigma = last + step
            continue
        width = vals[-1] - vals[0]
        new = vals > last + gap_tol
        vals, order = vals[new], order[new]
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
        kept_vals[count:count + take] = vals[:take]
        kept_vecs[:, count:count + take] = vecs[:, order[:take]]
        count += take
        last = vals[take - 1]
        step = width * max(k / 2 - _BAND_OVERLAP, 1.0) / (k - 1)
        sigma = last + step
    return kept_vals, kept_vecs


def _checked_basis(
    L: sparse.spmatrix, vals: np.ndarray, vecs: np.ndarray, operator_fingerprint: str
) -> SpectralBasis:
    """The basis of a fresh solve's ascending eigenpairs, checked and signed.

    One walk over _BAND_K columns at a time, so its temporaries are a few
    blocks, not the basis: each block's eigenpair residual, then its signs,
    in place. The largest-magnitude entry of each column is made positive,
    ties going to the first entry within 1e-6 of the maximum: on symmetric
    meshes entries come in +-pairs of equal magnitude, and a plain argmax
    would flip between solvers on rounding noise. A sign flips a whole
    column, so neither check below sees it. Raises EigensolverError unless
    the eigenpairs meet criterion 1.
    """
    residual = 0.0
    for j in range(0, len(vals), _BAND_K):
        block = vecs[:, j:j + _BAND_K]
        # np.maximum keeps a NaN, which max() would drop
        residual = np.maximum(residual,
                              np.abs(L @ block - block * vals[j:j + _BAND_K]).max())
        absv = np.abs(block)
        idx = (absv >= (1.0 - 1e-6) * absv.max(axis=0)).argmax(axis=0)
        signs = np.sign(block[idx, np.arange(block.shape[1])])
        signs[signs == 0] = 1.0
        block *= signs
    bound = _RESIDUAL_TOL * max(1.0, abs(L).max())
    if not residual <= bound:
        raise EigensolverError(f"eigenpair residual {residual:.3g} exceeds {bound:.3g}")
    ortho = np.abs(vecs.T @ vecs - np.eye(len(vals))).max()
    if not ortho <= _ORTHONORMALITY_TOL:
        raise EigensolverError(
            f"eigenvector orthonormality error {ortho:.3g} exceeds "
            f"{_ORTHONORMALITY_TOL:g}"
        )
    for a in (vals, vecs):  # fresh arrays, frozen so that the basis needs no copy
        a.setflags(write=False)
    return SpectralBasis(vals, vecs, operator_fingerprint)


def eigendecompose(
    L: sparse.spmatrix,
    m: int,
    method: str = "auto",
    operator_fingerprint: str = "",
) -> SpectralBasis:
    """Compute the m smallest eigenpairs of a sparse symmetric PSD operator.

    ``method`` is "dense" (LAPACK on the full matrix), "lanczos" (banded
    shift-invert Lanczos: a few dozen eigenpairs per band, each solved with
    one symmetric-mode minimum-degree sparse LU, about half the fill of
    COLAMD's; start vectors drawn from a fixed seed for reproducibility) or
    "auto". "auto" takes dense when m >= N - 1, or when N <= DENSE_MAX_N and
    m is at least DENSE_MIN_SHARE of N; otherwise the banded solve.

    Every solve is verified: an eigenpair residual over 1e-7 * max(1, max|L|)
    or an orthonormality error over 1e-8 raises EigensolverError, as does a
    Lanczos band that fails to converge or whose L - sigma*I is singular.
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

        # F-ordered and overwritten, so LAPACK works in the operator's one copy
        vals, vecs = linalg.eigh(L.toarray(order="F"), subset_by_index=[0, m - 1],
                                 overwrite_a=True)
    else:
        vals, vecs = _banded_eigsh(L, m)
    return _checked_basis(L, vals, vecs, operator_fingerprint)


def _check_fingerprint(a: str, b: str, what: str) -> None:
    """The one fingerprint rule: an empty one is unknown and passes, two
    known ones must be equal; else FingerprintMismatchError."""
    if a and b and a != b:
        raise FingerprintMismatchError(
            f"{what} come from different bases: fingerprint {a[:12]}... "
            f"does not match {b[:12]}..."
        )


def _rows(indices, m: int, what: str) -> np.ndarray:
    """The one eigenvector-index rule: ``indices`` as an int64 array if each
    is in [0, m); else ValueError naming the ``what`` range."""
    rows = np.asarray(indices, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= m):
        raise ValueError(f"index out of {what} range [0, {m})")
    return rows


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
    return basis.eigenvectors[:, _rows(indices, basis.m, "basis")] @ coeffs


def encode_geometry(basis: SpectralBasis, coordinates: np.ndarray) -> SpectralCoefficients:
    """Project xyz coordinate columns into the basis (one matmul, O(3MN))."""
    p = np.asarray(coordinates, dtype=np.float64)
    if p.shape != (basis.n, 3):
        raise ValueError(f"coordinates have shape {p.shape}, expected ({basis.n}, 3)")
    return SpectralCoefficients(encode(basis, p), basis.fingerprint)


def _check_basis(basis: SpectralBasis, coeffs: SpectralCoefficients) -> None:
    """Coefficients of ``basis``: one fingerprint, then one M; else ValueError."""
    _check_fingerprint(basis.fingerprint, coeffs.basis_fingerprint, "basis and coefficients")
    if coeffs.m != basis.m:
        raise ValueError(f"coefficients M={coeffs.m} but basis M={basis.m}")


def reconstruct_geometry(
    basis: SpectralBasis,
    coeffs: SpectralCoefficients,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Per-axis partial sums over a subset of eigenvector indices.

    ``subset=None`` uses all M indices. An empty subset yields an all-zero
    geometry with a warning rather than an error.
    """
    _check_basis(basis, coeffs)
    if subset is None:
        return decode(basis, coeffs.values)
    # checked here too: a negative index would count from the end of values
    subset = _rows(subset, basis.m, "basis")
    if subset.size == 0:
        warnings.warn("empty index subset: reconstructing all-zero geometry")
    return decode(basis, coeffs.values[subset], subset)


def _truncation_rms(basis: SpectralBasis, coeffs: SpectralCoefficients, subset) -> float:
    """The error of ``reconstruct_geometry(basis, coeffs, subset)`` by Parseval:
    sqrt(sum of |alpha_i|^2 / N) over the rows i left out, summed over them
    rather than as the total minus the kept rows, which cancels."""
    _check_basis(basis, coeffs)
    left_out = np.delete(coeffs.values, _rows(subset, basis.m, "basis"), axis=0)
    return float(np.sqrt(np.sum(left_out ** 2) / basis.n))
