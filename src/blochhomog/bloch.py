"""
Floquet-Bloch eigenproblem on the unit cell, discretized with plane waves.

For a wavevector k in [-pi, pi]^d the shifted operator
    A(k) u = -(1/rho) (grad + ik) . [ G (grad + ik) u ]
is discretized in the basis e_a(x) = exp(i 2 pi j_a . x), |j_a|_inf <= N,
giving the generalized Hermitian pencil

    S(k)[a, b] = G_hat(j_a - j_b) (2 pi j_b + k) . (2 pi j_a + k)
    B[a, b]    = rho_hat(j_a - j_b)

whose eigenvalues are the squared Bloch frequencies omega_m^2(k).

A BlochPencil holds the k-independent parts, G and B (Hermitian-symmetrized)
and 2 pi j, and is built once per call that solves at many k.  It is float64
when both coefficient tables are exactly real (centred inclusions: phase
exp(-0j)) and complex otherwise.  G and rho are real-valued, so
S(-k) = P conj(S(k)) P and B = P conj(B) P with P: j -> -j, and the spectra
at +-k coincide; dispersion_diagram solves each +-k pair once.

Every dense product of the package goes through contract, on scipy's BLAS
?gemm: scipy also does all of the LAPACK work (eigh, ?posv, ?hesv, LU).
numpy and scipy may each bundle their own OpenBLAS, each with its own thread
pool; after a call a pool's workers keep spinning for a while, and the other
pool's work runs at about half speed meanwhile.  With one library, one pool
is busy at a time.  stiffness makes no BLAS call at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .medium import CoefficientTable, MediumSpec, fourier_table

PHASE_FALLBACK_TOL = 1e-8
SIMPLE_REL_TOL = 1e-6
GAP_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Dense products
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gemm(dtype: np.dtype):
    """scipy's BLAS ?gemm for `dtype` (float64 or complex128), looked up
    once per dtype."""
    return scipy.linalg.get_blas_funcs("gemm", dtype=dtype)


def _fortran(m: np.ndarray):
    """(F-contiguous array, trans) with op(array) = m for ?gemm; only a
    matrix that is neither C- nor F-contiguous is copied."""
    if m.flags.f_contiguous:
        return m, 0
    if m.flags.c_contiguous:
        return m.T, 1
    return np.asfortranarray(m), 0


def contract(a, b) -> np.ndarray:
    """Sum over the last axis of `a` and the first axis of `b`, shape
    a.shape[:-1] + b.shape[1:] (np.tensordot(a, b, 1)); a numpy scalar when
    both are vectors.  The package's one dense product, on scipy's ?gemm
    (see the module docstring).

    A real `a` times a complex `b` multiplies `a` by the float64 view of `b`
    (real and imaginary parts as interleaved columns), with no complex copy
    of `a`; a complex `a` times a real `b` uses a complex copy of `b`.
    """
    a, b = np.asarray(a), np.asarray(b)
    shape = a.shape[:-1] + b.shape[1:]
    a2 = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    b2 = b.reshape(b.shape[0], math.prod(b.shape[1:]))
    split = np.iscomplexobj(b2) and not np.iscomplexobj(a2)
    if split:
        b2 = np.ascontiguousarray(b2, dtype=complex).view(np.float64)
    dtype = np.result_type(a2, b2, np.float64)
    # out^T = b2^T a2^T: ?gemm writes it F-contiguous, so out is C-contiguous
    x, trans_a = _fortran(b2.T.astype(dtype, copy=False))
    y, trans_b = _fortran(a2.T.astype(dtype, copy=False))
    out = _gemm(dtype)(1.0, x, y, trans_a=trans_a, trans_b=trans_b).T
    if split:
        out = out.view(complex)
    return out.reshape(shape)[()]


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Truncated Fourier basis exp(i 2 pi j.x), |j|_inf <= cutoff.

    The index array puts j = 0 first; the remaining indices keep their
    lexicographic order.
    """

    dimension: int
    cutoff: int
    indices: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        ax = np.arange(-self.cutoff, self.cutoff + 1)
        grids = np.meshgrid(*(ax,) * self.dimension, indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=-1)
        zero = np.flatnonzero(np.all(idx == 0, axis=1))[0]
        order = np.concatenate([[zero], np.delete(np.arange(len(idx)), zero)])
        object.__setattr__(self, "indices", idx[order])

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def cube_scatter(self):
        """Per-basis-function flat position in the (2N+1)^d coefficient cube."""
        return np.ravel_multi_index(tuple((self.indices + self.cutoff).T),
                                    (2 * self.cutoff + 1,) * self.dimension)

    def coeff_cube(self, vec: np.ndarray) -> np.ndarray:
        """Rearrange coefficients (M, *extra) into a dense (2N+1)^d cube
        with the trailing `extra` axes kept: shape (2N+1,)*d + extra."""
        vec = np.asarray(vec)
        n = 2 * self.cutoff + 1
        cube = np.zeros((n ** self.dimension,) + vec.shape[1:], dtype=complex)
        cube[self.cube_scatter()] = vec
        return cube.reshape((n,) * self.dimension + vec.shape[1:])


@dataclass(frozen=True)
class BlochPencil:
    """G[a, b] = G_hat(j_a - j_b), B[a, b] = rho_hat(j_a - j_b) and tp = 2 pi j
    of one coefficient table; built per call (bloch_pencil), never cached."""

    basis: PlaneWaveBasis
    G: np.ndarray
    B: np.ndarray
    tp: np.ndarray

    def stiffness(self, k) -> np.ndarray:
        """S(k) = G o sum_a outer(kpg_a, kpg_a), kpg = 2 pi j + k: d <= 2
        outer products, no BLAS call, in one new buffer of G's dtype."""
        kpg = (self.tp + k).T
        S = np.multiply.outer(kpg[0], kpg[0], out=np.empty_like(self.G))
        for t in kpg[1:]:
            S += np.multiply.outer(t, t)
        return np.multiply(self.G, S, out=S)

    def blocks(self):
        """(S0, S1_list, Gm, B) with S(k) = S0 + sum k_a S1[a] + |k|^2 Gm."""
        S1 = [self.G * (t[:, None] + t[None, :]) for t in self.tp.T]
        return self.stiffness(0.0), S1, self.G, self.B


def bloch_pencil(table: CoefficientTable, basis: PlaneWaveBasis) -> BlochPencil:
    """Difference matrices of `table` on `basis`; float64 when both tables
    are exactly real, complex otherwise."""
    if table.dimension != basis.dimension:
        raise ValueError("table/basis dimension mismatch")
    if table.cutoff < 2 * basis.cutoff:
        raise ValueError("coefficient table cutoff must be >= 2 * basis cutoff")
    real = not (np.any(table.G_hat.imag) or np.any(table.rho_hat.imag))
    off = tuple(j[:, None] - j[None, :] + table.cutoff for j in basis.indices.T)

    def difference_matrix(arr):
        Q = (arr.real if real else arr)[off]
        return 0.5 * (Q + Q.conj().T)

    return BlochPencil(basis=basis, G=difference_matrix(table.G_hat),
                       B=difference_matrix(table.rho_hat),
                       tp=2.0 * np.pi * basis.indices)


def _wavevector(k, basis: PlaneWaveBasis) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (basis.dimension,):
        raise ValueError("wavevector has wrong dimension")
    return k


def assemble_operator(table: CoefficientTable, basis: PlaneWaveBasis, k):
    """Stiffness and mass matrices of the shifted operator at wavevector k."""
    pencil = bloch_pencil(table, basis)
    return pencil.stiffness(_wavevector(k, basis)), pencil.B


@dataclass
class BandSolution:
    """Lowest eigenpairs of one Bloch pencil, B-orthonormal eigenvectors."""

    k: np.ndarray
    omega2: np.ndarray        # (count,), ascending
    vectors: np.ndarray       # (M, count)
    basis: PlaneWaveBasis


def solve_bands(table, basis, k, count, pencil: BlochPencil | None = None
                ) -> BandSolution:
    """Solve the pencil at wavevector k for the lowest `count` bands; callers
    solving many k on one table pass its `pencil` to build it once."""
    M = basis.size
    if not (1 <= count <= M):
        raise ValueError(f"count must be in [1, {M}]")
    k = _wavevector(k, basis)
    if pencil is None:
        pencil = bloch_pencil(table, basis)
    try:
        vals, vecs = scipy.linalg.eigh(pencil.stiffness(k), pencil.B,
                                       subset_by_index=(0, count - 1),
                                       overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:  # mass not positive definite
        raise ValueError(f"mass matrix not positive definite: {exc}") from exc
    return BandSolution(k=k, omega2=vals, vectors=vecs, basis=basis)


# ---------------------------------------------------------------------------
# Dispersion diagrams and band gaps
# ---------------------------------------------------------------------------

def brillouin_path(dimension: int, samples_per_segment: int = 30):
    """Sampled path through the Brillouin zone.

    1D: uniform samples pi i / n, i = -n..n, exactly symmetric under k -> -k.
    2D: Gamma -> X -> M -> Gamma on the square lattice.
    Returns (k_points, arclength, tick_positions, tick_labels).
    """
    if dimension == 1:
        n = samples_per_segment
        ks = np.pi * (np.arange(-n, n + 1) / n)
        return ks[:, None], ks.copy(), [-np.pi, 0.0, np.pi], ["-pi", "0", "pi"]

    gamma = np.array([0.0, 0.0])
    xpt = np.array([np.pi, 0.0])
    mpt = np.array([np.pi, np.pi])
    nodes = [gamma, xpt, mpt, gamma]
    pts, dist = [], []
    offset = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        ts = np.linspace(0.0, 1.0, samples_per_segment, endpoint=False)
        pts.append(a[None, :] + ts[:, None] * (b - a)[None, :])
        dist.append(offset + ts * np.linalg.norm(b - a))
        offset += np.linalg.norm(b - a)
    pts.append(gamma[None, :])
    dist.append(np.array([offset]))
    ticks = [0.0, np.pi, 2 * np.pi, 2 * np.pi + np.pi * np.sqrt(2.0)]
    return (np.concatenate(pts), np.concatenate(dist), ticks,
            ["Gamma", "X", "M", "Gamma"])


@dataclass
class DispersionDiagram:
    k_points: np.ndarray      # (nk, d)
    arclength: np.ndarray     # (nk,)
    omega2: np.ndarray        # (nk, count)
    tick_positions: list
    tick_labels: list


def dispersion_diagram(spec: MediumSpec, cutoff: int, count: int,
                       samples_per_segment: int = 30,
                       k_points=None, arclength=None) -> DispersionDiagram:
    """Band diagram along the standard path (or explicit k samples).  A k
    whose negative (or itself) was already solved copies that row (exact
    match): omega(-k) = omega(k)."""
    basis = PlaneWaveBasis(spec.dimension, cutoff)
    table = fourier_table(spec, 2 * cutoff)
    pencil = bloch_pencil(table, basis)
    if k_points is None:
        k_points, arclength, ticks, labels = brillouin_path(
            spec.dimension, samples_per_segment)
    else:
        k_points = np.atleast_2d(np.asarray(k_points, dtype=float))
        if arclength is None:
            arclength = np.arange(len(k_points), dtype=float)
        ticks, labels = [], []
    omega2 = np.empty((len(k_points), count))
    solved = {}               # +-k -> omega^2(k)
    for i, k in enumerate(k_points):
        if tuple(k) not in solved:
            solved[tuple(k)] = solved[tuple(-k)] = solve_bands(
                table, basis, k, count, pencil).omega2
        omega2[i] = solved[tuple(k)]
    return DispersionDiagram(k_points=k_points, arclength=np.asarray(arclength),
                             omega2=omega2, tick_positions=ticks,
                             tick_labels=labels)


@dataclass(frozen=True)
class BandGap:
    """Open interval of omega^2 between two consecutive branches."""

    below_branch: int         # gap sits above this branch index
    omega2_low: float
    omega2_high: float

    @property
    def width(self) -> float:
        return self.omega2_high - self.omega2_low

    def contains(self, omega2: float) -> bool:
        return self.omega2_low < omega2 < self.omega2_high


def find_band_gaps(diagram: DispersionDiagram) -> list[BandGap]:
    """Complete gaps between consecutive sampled branches, wider than
    GAP_REL_TOL * max |omega^2|: branches touching up to roundoff are no gap."""
    highs = diagram.omega2.max(axis=0)
    lows = diagram.omega2.min(axis=0)
    floor = GAP_REL_TOL * np.max(np.abs(diagram.omega2))
    gaps = []
    for m in range(diagram.omega2.shape[1] - 1):
        if lows[m + 1] - highs[m] > floor:
            gaps.append(BandGap(below_branch=m, omega2_low=highs[m],
                                omega2_high=lows[m + 1]))
    return gaps


def export_diagram_csv(diagram: DispersionDiagram, path: str,
                       normalized: bool = False, G1: float = 1.0,
                       rho1: float = 1.0, header_lines=()):
    """Write the diagram as long-format CSV: k_index, k components, m, omega.

    With normalized=True, wavenumbers are scaled by pi and frequencies by
    sqrt(G1/rho1) (background sound speed over the half-cell wavenumber).
    """
    omega = np.sqrt(np.clip(diagram.omega2, 0.0, None))
    kpts = diagram.k_points.copy()
    if normalized:
        kpts = kpts / np.pi
        omega = omega / np.sqrt(G1 / rho1)
    d = kpts.shape[1]
    names = ["k_index"] + [f"k_{i + 1}" for i in range(d)] + ["m", "omega"]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for i in range(kpts.shape[0]):
            kcols = ",".join(f"{kpts[i, a]:.12g}" for a in range(d))
            for m in range(omega.shape[1]):
                fh.write(f"{i},{kcols},{m},{omega[i, m]:.12g}\n")


# ---------------------------------------------------------------------------
# Eigenpair at the zone center
# ---------------------------------------------------------------------------

@dataclass
class GammaPair:
    """Phase-fixed branch-p eigenpair at k = 0, plus simplicity info."""

    spec: MediumSpec
    basis: PlaneWaveBasis
    table: CoefficientTable
    branch: int
    omega2: float
    coeffs: np.ndarray        # (M,), B-orthonormal: c^H B c = 1
    simple: bool
    separation: float         # min relative distance to neighbor eigenvalues


def fix_phase(coeffs: np.ndarray) -> np.ndarray:
    """Rotate a coefficient vector so its cell average (j=0 entry) is real > 0.

    Falls back to the largest-magnitude coefficient when the average is
    numerically zero.
    """
    pivot = coeffs[0]
    if abs(pivot) < PHASE_FALLBACK_TOL * np.linalg.norm(coeffs):
        pivot = coeffs[np.argmax(np.abs(coeffs))]
    return coeffs * (pivot.conjugate() / abs(pivot))


def eigenpair_at_gamma(spec: MediumSpec, branch: int, cutoff: int) -> GammaPair:
    """Solve at k = 0 and return the branch-p eigenpair with fixed phase."""
    basis = PlaneWaveBasis(spec.dimension, cutoff)
    table = fourier_table(spec, 2 * cutoff)
    count = min(branch + 2, basis.size)
    sol = solve_bands(table, basis, np.zeros(spec.dimension), count)
    if branch >= len(sol.omega2):
        raise ValueError(f"branch {branch} not available with cutoff {cutoff}")
    lam = sol.omega2[branch]
    # omega2 holds branches 0..branch+1: the nearest others are the neighbours
    near = np.abs(np.delete(sol.omega2, branch) - lam)
    separation = near.min() / max(abs(lam), 1.0) if near.size else np.inf
    coeffs = fix_phase(sol.vectors[:, branch])
    return GammaPair(spec=spec, basis=basis, table=table, branch=branch,
                     omega2=lam, coeffs=coeffs,
                     simple=separation > SIMPLE_REL_TOL, separation=separation)
