"""
Wavefield synthesis: exact Bloch superposition, single-branch restriction,
macroscopic envelopes, and the homogenized approximations of order 0, 1, 2.

All wavenumber integrals share one quadrature over khat in [-K, K]^d; the
exact solution uses the same nodes scaled by eps (k = eps khat), dropping
nodes that leave the Brillouin zone and reporting how many and how much
source mass they carried.  Envelope derivatives are taken spectrally
(multiplication by i khat under the integral), never by grid differencing.

The exact solution sums every Galerkin mode at each node through the
resolvent (S(k) - omega^2 B)^{-1} B c0 on one BlochPencil, with no mode
truncation.  Time reversal of the real medium pairs the nodes: x(-k) =
e^{-i theta} P conj(x(k)) with P: j -> -j and e^{i theta} = c0^H B P
conj(c0), so only the first node of each +-k pair is solved.  The pairing is
guarded by the residual ||P conj(c0) - e^{i theta} c0||_B <= PAIR_TOL; a
degenerate omega_p^2(0) fails it, and then every node is solved.  Below the
spectrum (omega^2 < -DENOM_TOL) the solve is one Cholesky ?posv, and a
failed factorization is a GapViolation.  Otherwise it is a Bunch-Kaufman
?hesv, and the gap condition (no eigenvalue within DENOM_TOL of omega^2) is
checked exactly by Sylvester inertia: the LDL^H factors of S - (omega^2 -+
DENOM_TOL) B must have equally many negative pivots, once per +-k pair.  A
real pencil (centred media) uses the real LAPACK routines (?posv, ?sytrf,
?sysv), a complex one the Hermitian ones.

Synthesis is factored, exp(i (2 pi n + k) x) = exp(i k x) exp(i 2 pi n x):
one periodic phase matrix per axis serves every node (and every cell
function of the homogenized fields, and the source's phi_p).  Its rows
depend on x only through r = x - round(x), so _periodic_blocks, the one
grid synthesizer, folds each axis onto one cell (_fold_axes): it
synthesizes each distinct r once, in slabs of at most SYNTH_BLOCK, and
yields the grid back as row-index blocks of at most SYNTH_BLOCK points (a
reference grid of 57 cells at 64 points per cell synthesizes 65 rows, not
3649).  The matrix is a product of two tables of ~sqrt(2N+1) exponentials
at r, ~1e-14 accurate.  The non-periodic phases exp(i f x) (Bloch f = k,
envelope f = eps khat) share the fold: exp(i f round(x)) exp(i f r) from a
table over the distinct cells and one over the distinct r (57 + 65 rows
of exponentials, not 3649).  The contractions, like every dense product
here, are bloch.contract on scipy's BLAS, the library of the node solves,
so one BLAS thread pool serves the whole loop.

The homogenized fields of every requested order come from one pass
(homogenized_fields): the order-2 cell stack [phi_p, eps chi1, eps^2 (cov
phi_p + chi2)] is synthesized once, and each order contracts its leading
columns with [W0, grad W0] or all of them with [W2, grad W2, grad^2 W2];
the W0 and W2 stacks share one envelope phase per axis, on the fast grid's
fold (the envelope is not periodic), gathered per block of grid rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .bloch import (BlochPencil, GammaPair, PlaneWaveBasis, contract,
                    solve_bands)
from .cell import EffectiveCoefficients
from .source import FrequencySpec, SourceSpec

DENOM_TOL = 1e-8
PAIR_TOL = 1e-10        # time-reversal guard, B-norm residual
ENVELOPE_DENOM_TOL = 1e-10
SYNTH_BLOCK = 512      # points per synthesis slab and per yielded block


class GapViolation(Exception):
    """A Bloch denominator omega_m^2(k) - omega^2 came within DENOM_TOL of zero."""


class EnvelopeSingularity(Exception):
    """The macroscopic symbol vanished on a quadrature node."""


# ---------------------------------------------------------------------------
# Quadrature over the envelope wavenumber
# ---------------------------------------------------------------------------

@dataclass
class WavenumberQuadrature:
    """Tensor-product rule on [-k_max, k_max]^d.

    nodes: (Q, d); weights: (Q,) — full tensor weights.
    axis_nodes/axis_weights keep the 1D factors for separable synthesis.
    """

    dimension: int
    k_max: float
    rule: str
    axis_nodes: np.ndarray
    axis_weights: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


def wavenumber_quadrature(dimension: int, k_max: float = 8.0,
                          points_per_axis: int = 64,
                          rule: str = "gauss") -> WavenumberQuadrature:
    if rule == "gauss":
        x, w = np.polynomial.legendre.leggauss(points_per_axis)
        x = x * k_max
        w = w * k_max
    elif rule == "trapezoid":
        n = points_per_axis     # exactly symmetric nodes, so +-k pair up
        x = k_max * (np.arange(1 - n, n, 2) / (n - 1))
        w = np.full(points_per_axis, 2.0 * k_max / (points_per_axis - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    nodes = _grid_points((x,) * dimension).reshape(-1, dimension)
    weights = np.prod(_grid_points((w,) * dimension), axis=-1).ravel()
    return WavenumberQuadrature(dimension=dimension, k_max=k_max, rule=rule,
                                axis_nodes=x, axis_weights=w,
                                nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# Grids and field containers
# ---------------------------------------------------------------------------

@dataclass
class FieldOnGrid:
    """Complex field sampled on a separable grid in fast coordinates x.

    axes: tuple of 1D coordinate arrays; values has shape tuple(len(ax)).
    """

    axes: tuple
    values: np.ndarray
    label: str = ""
    meta: dict = None

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def line(self, y0: float) -> tuple[np.ndarray, np.ndarray]:
        """Transect values along x2 = y0 (2D only; nearest grid row)."""
        if self.dimension != 2:
            raise ValueError("line extraction needs a 2D field")
        j = int(np.argmin(np.abs(self.axes[1] - y0)))
        return self.axes[0], self.values[:, j]


def synthesize_periodic(basis: PlaneWaveBasis, coeffs: np.ndarray, axes):
    """sum_j c_j exp(i 2 pi j.x) on the separable grid `axes`: the
    coefficients go through _periodic_blocks as a one-column cube."""
    cube = basis.coeff_cube(np.asarray(coeffs)[:, None])
    out = np.empty(tuple(len(ax) for ax in axes), dtype=complex)
    for rows, part in _periodic_blocks(basis, cube, _fold_axes(axes)):
        out[rows] = part[..., 0]
    return out


def _grid_points(axes):
    """Stack separable axes into points of shape (n1[, n2], d)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _fold_axes(axes) -> list:
    """The exact split x = m + r, m = round(x), of each axis: (distinct r,
    index of each point's r, distinct m, index of each point's m)."""
    return [(*np.unique(ax - np.round(ax), return_inverse=True),
             *np.unique(np.round(ax), return_inverse=True)) for ax in axes]


def _nonperiodic_phase(fold, freqs):
    """exp(i x f), f not multiples of 2 pi, on a folded axis: a function of
    point indices (default all) gathering rows exp(i m f) exp(i r f) from
    tables over the distinct m and r, accurate to the rounding of m f."""
    reduced, ir, cells, ic = fold
    cell, row = (np.exp(1j * np.outer(v, freqs)) for v in (cells, reduced))

    def phase(idx=slice(None)):
        E = cell[ic[idx]]
        E *= row[ir[idx]]
        return E
    return phase


def _periodic_phase(x, cutoff: int) -> np.ndarray:
    """exp(i 2 pi n x), n = -N..N (N = cutoff), at 1D x: one row per point.

    With x reduced to x - round(x) and r = ceil(sqrt(2N+1)), column a r + b
    is exp(i 2 pi m x) exp(i 2 pi b x), m = a r - N.  The turns m x are taken
    mod 1 to a rounding: x = hi + lo, hi a multiple of 2^-40, m hi exact.
    """
    x = x - np.round(x)                                   # exact
    n = 2 * cutoff + 1
    r = int(np.ceil(np.sqrt(n)))
    m = np.arange(-cutoff, cutoff + 1, r)
    hi = np.round(x * 2.0 ** 40) / 2.0 ** 40
    turns = np.outer(hi, m) % 1.0 + np.outer(x - hi, m)
    fine = np.exp(2j * np.pi * np.outer(x, np.arange(r)))
    coarse = np.exp(2j * np.pi * turns)
    out = np.empty((len(x), n), dtype=complex)
    a = len(m) - 1                        # complete r-blocks before the last
    np.multiply(coarse[:, :a, None], fine[:, None, :],
                out=out[:, :a * r].reshape(len(x), a, r))
    np.multiply(coarse[:, a:], fine[:, :n - a * r], out=out[:, a * r:])
    return out


def _separable_synth(cube: np.ndarray, phases) -> np.ndarray:
    """Contract the leading d axes of `cube` with per-axis phase matrices.

    cube has shape (n_1, ..., n_d, *extra) and phases[a] shape (X_a, n_a);
    the result has shape (X_1, ..., X_d, *extra).  In 1D this is one GEMM.
    """
    out = cube
    for a, E in enumerate(phases):
        out = np.moveaxis(contract(E, np.moveaxis(out, a, 0)), 0, a)
    return out


def _periodic_blocks(basis: PlaneWaveBasis, cube: np.ndarray, folds):
    """Evaluate sum_j cube[j, ...] exp(i 2 pi j.x) on the grid of the folded
    axes `folds` (_fold_axes), folded onto one cell.

    The sum depends on each coordinate only through x - round(x), which is
    exact, so every axis is folded to its distinct reduced coordinates and
    the synthesis runs on those alone: a grid of whole cells at 2^m points
    per cell folds to 2^m + 1 per axis, however many cells.  Axis 0 is
    synthesized in folded slabs of at most SYNTH_BLOCK distinct points; each
    slab's grid rows are gathered back, in blocks of at most SYNTH_BLOCK
    grid points (one row at least).

    Yields (row indices of axis 0, values of shape (rows, X_2, ..., *extra));
    the blocks cover every row once, and an empty axis yields none.
    """
    if not all(len(f[1]) for f in folds):
        return
    (u0, inv0, _, _), *rest = folds
    phases = [_periodic_phase(f[0], basis.cutoff) for f in rest]
    gather = [f[1] for f in rest]
    slab = max(1, SYNTH_BLOCK // math.prod(len(f[0]) for f in rest))
    block = max(1, SYNTH_BLOCK // math.prod(len(inv) for inv in gather))
    order = np.argsort(inv0, kind="stable")      # grid rows by folded row
    ends = np.searchsorted(inv0[order], np.arange(0, len(u0) + slab, slab))
    for s, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        first = s * slab
        # the slab's phase matrix dies here: the next reuses its pages
        part = _separable_synth(cube, [_periodic_phase(
            u0[first:first + slab], basis.cutoff)] + phases)
        for start in range(lo, hi, block):
            idx = order[start:min(start + block, hi)]
            yield idx, part[np.ix_(inv0[idx] - first, *gather)]


def _bloch_phase(phases, rows) -> np.ndarray:
    """exp(i k_q.x) on the grid rows `rows` of axis 0 (an index array) from
    the per-axis _nonperiodic_phase functions, shape (len(rows), X_2, ..., Q)."""
    d = len(phases)
    for a, phase_a in enumerate(phases):
        E = phase_a(rows if a == 0 else slice(None))
        E = E.reshape((len(E),) + (1,) * (d - 1 - a) + (E.shape[-1],))
        phase = E if a == 0 else phase * E
    return phase


# ---------------------------------------------------------------------------
# Exact Bloch solution and branch restriction
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _lapack(name: str, dtype: np.dtype, n: int):
    """LAPACK routine ?<name> for `dtype` and its optimal work size at order
    n (0 for routines without one); the Hermitian ?he* routines are ?sy* for
    real dtypes.  Cached, so a loop over nodes queries each size once."""
    if not np.issubdtype(dtype, np.complexfloating):
        name = name.replace("he", "sy", 1)
    if name.endswith("posv"):
        return get_lapack_funcs((name,), dtype=dtype)[0], 0
    fn, query = get_lapack_funcs((name, name + "_lwork"), dtype=dtype)
    return fn, int(np.real(query(n, lower=1)[0]))


def _factorization(omega2: float) -> str:
    """"cholesky" below the spectrum (omega^2 < -DENOM_TOL, where S(k) -
    omega^2 B is positive definite and no eigenvalue >= 0 lies within
    DENOM_TOL), "ldl" (Bunch-Kaufman with the inertia check) otherwise."""
    return "cholesky" if omega2 < -DENOM_TOL else "ldl"


def _eigenvalues_below(S: np.ndarray, B: np.ndarray, sigma: float) -> int:
    """Number of pencil eigenvalues below sigma.

    With B positive definite this is the negative inertia of S - sigma B
    (Sylvester), read from its Bunch-Kaufman factors L D L^H: one per
    negative 1x1 pivot (ipiv > 0) and one per 2x2 block (a pair of rows with
    ipiv < 0), since the pivot rule only picks 2x2 blocks with a negative
    determinant (for ?hetrf and ?sytrf alike).
    """
    hetrf, lwork = _lapack("hetrf", S.dtype, len(S))
    shifted = np.multiply(sigma, B, dtype=np.result_type(S, B))
    ldu, ipiv, _ = hetrf(np.subtract(S, shifted, out=shifted), lower=1,
                         lwork=lwork, overwrite_a=True)
    negative_pivots = np.count_nonzero(ldu.diagonal().real[ipiv > 0] < 0.0)
    return int(negative_pivots + np.count_nonzero(ipiv < 0) // 2)


def _resolvent_term(pencil: BlochPencil, omega2: float, k: np.ndarray,
                    rhs: np.ndarray, gap_checked: set) -> np.ndarray:
    """The sum over all M Galerkin modes,
        sum_m phi_m(k) phi_m(k)^H rhs / (omega_m^2(k) - omega^2)
            = (S(k) - omega^2 B)^{-1} rhs,
    since the B-orthonormal eigenvectors diagonalize the pencil.

    Below the spectrum (_factorization: omega^2 < -DENOM_TOL) this is one
    Cholesky solve ?posv: S(k) is positive semidefinite, so S - omega^2 B is
    definite and every eigenvalue lies more than DENOM_TOL above omega^2; a
    failed factorization (a pencil that is not) raises GapViolation.
    Otherwise it is one Bunch-Kaufman solve ?hesv, after an inertia check
    that raises GapViolation when an eigenvalue lies within DENOM_TOL of
    omega^2 (unequal counts below omega^2 -+ DENOM_TOL), unless -k is in
    gap_checked; adds k there.  A complex rhs on a real pencil is solved as
    two real columns.  S(k) - omega^2 B is formed in the stiffness buffer.
    """
    S = pencil.stiffness(k)
    split = np.iscomplexobj(rhs) and not np.iscomplexobj(S)
    cols = np.stack([rhs.real, rhs.imag], axis=1) if split else rhs
    if _factorization(omega2) == "cholesky":
        posv, _ = _lapack("posv", S.dtype, len(S))
        S -= omega2 * pencil.B
        _, x, info = posv(S, cols, lower=1, overwrite_a=True)
        if info > 0:
            raise GapViolation(
                f"S - omega^2 B not positive definite at k = {k}: an "
                f"eigenvalue lies at or below omega^2 = {omega2:.12g}")
        return x[:, 0] + 1j * x[:, 1] if split else x
    if tuple(-k) not in gap_checked:
        lo, hi = (_eigenvalues_below(S, pencil.B, omega2 + t)
                  for t in (-DENOM_TOL, DENOM_TOL))
        if lo != hi:
            raise GapViolation(
                f"{hi - lo} eigenvalue(s) within {DENOM_TOL:.0e} of "
                f"omega^2 = {omega2:.12g} at k = {k}")
        gap_checked.add(tuple(k))
    hesv, lwork = _lapack("hesv", S.dtype, len(S))
    S -= omega2 * pencil.B
    _, _, x, info = hesv(S, cols, lower=1, lwork=lwork, overwrite_a=True)
    if info > 0:
        raise GapViolation(f"singular resolvent at k = {k}")
    return x[:, 0] + 1j * x[:, 1] if split else x


def _branch_term(gamma: GammaPair, pencil: BlochPencil, omega2: float,
                 k: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The m = p term phi_p(k) phi_p(k)^H rhs / (omega_p^2(k) - omega^2)."""
    sol = solve_bands(gamma.table, gamma.basis, k, gamma.branch + 1, pencil)
    denom = sol.omega2 - omega2
    if np.min(np.abs(denom)) < DENOM_TOL:
        raise GapViolation(
            f"denominator {np.min(np.abs(denom)):.3e} at k = {k}")
    v = sol.vectors[:, gamma.branch]
    return v * (contract(v.conj(), rhs) / denom[gamma.branch])


def _time_reversal(basis: PlaneWaveBasis, B: np.ndarray, c0: np.ndarray):
    """(P, e^{i theta}, residual) for the pairing x(-k) = e^{-i theta} P
    conj(x(k)) of solutions with right-hand side B c0.

    P: j -> -j is an index array (P x = x[P]); e^{i theta} = c0^H B P
    conj(c0); residual = ||P conj(c0) - e^{i theta} c0||_B.  A real medium
    has S(-k) = P conj(S(k)) P and B P = P conj(B), so the pairing holds to
    the residual, which is roundoff when omega_p^2(0) is simple.  P conj is
    a B-isometry, so |e^{i theta}|^2 = 1 - residual^2: |e^{i theta}| within
    1e-12 of 1 still allows a residual of 1.4e-6.
    """
    P = basis.reversal()
    mirrored = c0[P].conj()
    phase = contract(c0.conj(), contract(B, mirrored))
    r = mirrored - phase * c0
    return P, phase, float(np.sqrt(abs(contract(r.conj(), contract(B, r)))))


def _paired_solves(ks: np.ndarray, size: int, solve, pairing) -> tuple:
    """Columns solve(k_q) (length `size`) at every node, and the number of
    solves.

    With pairing = (P, e^{i theta}) from _time_reversal, the second node of
    each +-k pair (k = 0 pairs with itself) is filled with e^{-i theta} P
    conj(column of its partner) instead of a solve, which also inherits the
    partner's gap check; with pairing None every node is solved.
    """
    out = np.empty((size, len(ks)), dtype=complex)
    first, mirror = {}, []    # solved node of each k; (node, partner)
    for q, k in enumerate(ks):
        p = first.get(tuple(-k)) if pairing is not None else None
        if p is None:
            out[:, q] = solve(k)
            first[tuple(k)] = q
        else:
            mirror.append((q, p))
    if mirror:
        P, phase = pairing
        q, p = np.array(mirror).T
        out[:, q] = np.conj(phase) * out[np.ix_(P, p)].conj()
    return out, len(first)


def exact_bloch_solution(gamma: GammaPair, freq: FrequencySpec,
                         source: SourceSpec, quad: WavenumberQuadrature,
                         axes, branch_only: bool = False) -> FieldOnGrid:
    """Driven response on a fast-coordinate grid, summed over all modes.

    u(x) = (2 pi)^{-d/2} int_Y sum_m  eps^2 <rho phi_p(0) conj(phi_m(eps khat))>
           F(khat) / (omega_m^2 - omega^2) e^{i eps khat.x} phi_m(x) dkhat

    The mode sum at each node is one resolvent solve (_resolvent_term), so
    there is no mode truncation: a Cholesky solve below the spectrum
    (omega^2 < -DENOM_TOL), otherwise a Bunch-Kaufman solve after an exact
    inertia check.  GapViolation is raised when any Galerkin eigenvalue at a
    node lies within DENOM_TOL of omega^2.  With branch_only=True the sum
    keeps only m = p (one eigenpair per node, and the check covers branches
    0..p).

    By time reversal only the first node of each +-k pair is solved; its
    partner is e^{-i theta} P conj of it (_time_reversal), guarded by
    ||P conj(c0) - e^{i theta} c0||_B <= PAIR_TOL.  When the guard fails (a
    degenerate omega_p^2(0)) every node is solved, and the inertia check
    still runs once per pair.

    Nodes with eps |khat|_inf > pi lie outside the Brillouin zone and are
    skipped.  meta reports their number (dropped_nodes) and their share of
    sum w |F| (dropped_mass), the solves done (linear solves or eigensolves),
    the guard residual (pair_residual) and the factorization ("cholesky" or
    "ldl"; None for the branch term, an eigensolve).
    """
    basis = gamma.basis
    d = basis.dimension
    eps = freq.eps
    pencil = gamma.pencil
    bc0 = contract(pencil.B, gamma.coeffs)

    # (eps^d from dk = eps^d dkhat cancels the eps^{-d} in the projection)
    pref = (2.0 * np.pi) ** (-d / 2.0) * eps ** 2
    wF = quad.weights * source.envelope.spectrum(quad.nodes)
    ks = eps * quad.nodes
    inside = np.max(np.abs(ks), axis=1) <= np.pi
    ks = ks[inside]

    P, phase, residual = _time_reversal(basis, pencil.B, gamma.coeffs)
    if branch_only:
        factorization = None
        solve = lambda k: _branch_term(gamma, pencil, freq.omega2, k, bc0)
    else:
        factorization = _factorization(freq.omega2)
        gap_checked = set()   # nodes whose gap check also covers their -k
        solve = lambda k: _resolvent_term(pencil, freq.omega2, k, bc0,
                                          gap_checked)
    coeffs, solves = _paired_solves(
        ks, basis.size, solve, (P, phase) if residual <= PAIR_TOL else None)

    weights = pref * wF[inside]
    cube = basis.coeff_cube(coeffs)
    folds = _fold_axes(axes)
    bloch = [_nonperiodic_phase(f, ks[:, a]) for a, f in enumerate(folds)]
    out = np.empty(tuple(len(a) for a in axes), dtype=complex)
    for rows, part in _periodic_blocks(basis, cube, folds):
        part *= _bloch_phase(bloch, rows)          # part is a gathered copy
        out[rows] = contract(part, weights)
    total = np.sum(np.abs(wF))
    label = f"branch {gamma.branch} solution" if branch_only else "exact solution"
    return FieldOnGrid(axes=tuple(axes), values=out, label=label,
                       meta={"eps": eps,
                             "dropped_nodes": int(np.count_nonzero(~inside)),
                             "dropped_mass": float(
                                 np.sum(np.abs(wF[~inside])) / total),
                             "solves": solves, "pair_residual": residual,
                             "factorization": factorization})


def branch_solution(gamma, freq, source, quad, axes) -> FieldOnGrid:
    """Single-branch (m = p) restriction of the exact solution."""
    return exact_bloch_solution(gamma, freq, source, quad, axes,
                                branch_only=True)


# ---------------------------------------------------------------------------
# Macroscopic envelopes
# ---------------------------------------------------------------------------

def envelope_denominator(eff: EffectiveCoefficients, freq: FrequencySpec,
                         quad: WavenumberQuadrature, order: int) -> np.ndarray:
    """Symbol of the effective operator on the quadrature nodes.

    order 0:  (mu0/rho0) : khat khat - sigma Omega_hat^2
    order 2:  adds -eps^2 (mu2/rho0) : khat^4
    """
    kh = quad.nodes
    D = np.einsum("qa,ab,qb->q", kh, eff.mu0, kh) / eff.rho0 \
        - freq.sigma * freq.omega_hat ** 2
    if order >= 2:
        k4 = np.einsum("qa,qb,qc,qd,abcd->q", kh, kh, kh, kh, eff.mu2)
        D = D - freq.eps ** 2 * k4 / eff.rho0
    return D


def _envelope_cube(eff: EffectiveCoefficients, freq: FrequencySpec,
                   source: SourceSpec, quad: WavenumberQuadrature,
                   stacks) -> np.ndarray:
    """Spectral integrands of the envelopes W_m and their derivatives.

    stacks is a list of (order, derivatives): order 0 or 2 picks the symbol
    (envelope_denominator) and each derivative is a tuple of axis indices,
    each entry multiplying the integrand by i khat_axis.  The columns follow
    the stacks in order.  Returns shape (n_q,) * d + (columns,).
    """
    d = quad.dimension
    F = source.envelope.spectrum(quad.nodes)
    blocks = []
    for order, derivatives in stacks:
        D = envelope_denominator(eff, freq, quad, order)
        if np.min(np.abs(D)) < ENVELOPE_DENOM_TOL:
            raise EnvelopeSingularity(
                f"effective symbol vanished: min |D| = {np.min(np.abs(D)):.3e}")
        s = (2.0 * np.pi) ** (-d / 2.0) * quad.weights * F / D
        cols = np.empty((len(s), len(derivatives)), dtype=complex)
        for j, deriv in enumerate(derivatives):
            cols[:, j] = s
            for ax in deriv:
                cols[:, j] *= 1j * quad.nodes[:, ax]
        blocks.append(cols)
    cols = np.concatenate(blocks, axis=1)
    return cols.reshape((len(quad.axis_nodes),) * d + (cols.shape[1],))


def _envelopes(eff: EffectiveCoefficients, freq: FrequencySpec,
               source: SourceSpec, quad: WavenumberQuadrature, axes,
               stacks) -> np.ndarray:
    """The _envelope_cube columns on a separable slow-coordinate grid, one
    envelope phase matrix per axis: shape (X_1, ..., X_d, columns)."""
    return _separable_synth(_envelope_cube(eff, freq, source, quad, stacks),
                            [_nonperiodic_phase(f, quad.axis_nodes)()
                             for f in _fold_axes(axes)])


def effective_envelope(eff: EffectiveCoefficients, freq: FrequencySpec,
                       source: SourceSpec, quad: WavenumberQuadrature,
                       order: int, axes, derivative: tuple = ()) -> np.ndarray:
    """W(r) (and spectral derivatives) on a separable slow-coordinate grid.

    derivative is a tuple of axis indices; each entry multiplies the
    integrand by i khat_axis.
    """
    return _envelopes(eff, freq, source, quad, axes,
                      [(order, [derivative])])[..., 0]


# ---------------------------------------------------------------------------
# Homogenized fields
# ---------------------------------------------------------------------------

def homogenized_fields(eff: EffectiveCoefficients, freq: FrequencySpec,
                       source: SourceSpec, quad: WavenumberQuadrature,
                       orders, axes) -> dict[int, FieldOnGrid]:
    """Order-m approximations U_m, m in `orders`, at x (fast grid), r = eps x.

    U0 = phi_p W0
    U1 = U0 + eps chi1 . grad W0
    U2 = phi_p W2 + eps chi1 . grad W2
         + eps^2 (corrector_cov phi_p + chi2) : grad^2 W2

    Order m contracts the first 1, 1 + d or 1 + d + d^2 columns of the cell
    stack [phi_p, eps chi1, eps^2 (corrector_cov phi_p + chi2)], synthesized
    once for all orders, with [W0, grad W0] (m < 2) or [W2, grad W2,
    grad^2 W2]; the W0 and W2 columns share one envelope phase matrix per
    axis and grid block.  Returns {m: FieldOnGrid}.
    """
    orders = sorted(set(orders))
    if not orders or not set(orders) <= {0, 1, 2}:
        raise ValueError("orders must be drawn from 0, 1, 2")
    gamma = eff.gamma
    basis = gamma.basis
    d = basis.dimension
    eps = freq.eps

    second = [(a, b) for a in range(d) for b in range(d)]
    derivs = [()] + [(a,) for a in range(d)] + second
    width = {0: 1, 1: 1 + d, 2: len(derivs)}     # cell columns per order
    cells = ([gamma.coeffs] + [eps * eff.cell.chi1[:, a] for a in range(d)]
             + [eps ** 2 * (eff.corrector_cov[a, b] * gamma.coeffs
                            + eff.cell.chi2[:, a, b]) for a, b in second])
    n0 = max((width[m] for m in orders if m < 2), default=0)   # W0 columns
    stacks = [(0, derivs[:n0])] if n0 else []
    if 2 in orders:
        stacks.append((2, derivs))
    envelopes = _envelope_cube(eff, freq, source, quad, stacks)
    # exp(i eps khat x) on the fast grid, so that m = round(x) is the cell;
    # axis 0 per block of rows: no (points x nodes) matrix over the grid
    folds = _fold_axes(axes)
    first, *rest = [_nonperiodic_phase(f, eps * quad.axis_nodes)
                    for f in folds]
    rest = [E() for E in rest]
    cube = basis.coeff_cube(np.stack(cells[:width[orders[-1]]], axis=-1))
    values = {m: np.empty(tuple(len(a) for a in axes), dtype=complex)
              for m in orders}
    for rows, part in _periodic_blocks(basis, cube, folds):
        W = _separable_synth(envelopes, [first(rows)] + rest)
        for m in orders:
            env = W[..., n0:] if m == 2 else W[..., :width[m]]
            values[m][rows] = np.sum(part[..., :width[m]] * env, axis=-1)
    return {m: FieldOnGrid(axes=tuple(axes), values=values[m],
                           label=f"order-{m} approximation",
                           meta={"eps": eps, "order": m}) for m in orders}


def homogenized_field(eff: EffectiveCoefficients, freq: FrequencySpec,
                      source: SourceSpec, quad: WavenumberQuadrature,
                      order: int, axes) -> FieldOnGrid:
    """Order-m approximation U_m alone: homogenized_fields for one order."""
    return homogenized_fields(eff, freq, source, quad, (order,), axes)[order]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_field_csv(field: FieldOnGrid, path: str, header_lines=()):
    """CSV dump: coordinates, real part, imaginary part."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        d = field.dimension
        fh.write("".join(f"x{a + 1}," for a in range(d)) + "re,im\n")
        pts = _grid_points(field.axes).reshape(-1, d)
        for x, v in zip(pts, field.values.ravel()):
            fh.write("".join(f"{c:.12g}," for c in x)
                     + f"{v.real:.12g},{v.imag:.12g}\n")


def export_field_npz(field: FieldOnGrid, path: str, **extra):
    """Binary dump of axes and values."""
    arrays = {f"axis{i}": a for i, a in enumerate(field.axes)}
    np.savez_compressed(path, values=field.values, label=field.label,
                        **arrays, **extra)
