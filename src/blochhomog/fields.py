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
truncation (_resolvent_term: Cholesky ?posv below the spectrum, otherwise
Bunch-Kaufman ?hesv after an exact Sylvester-inertia gap check, the count
make_frequency's gap test uses; ?sy* for real pencils).  Time reversal of
the real medium pairs the nodes, x(-k) = e^{-i theta} P conj(x(k)) with
P: j -> -j, so only the first node of each +-k class is solved
(bloch.reversal_classes; _time_reversal, guarded by PAIR_TOL).

Every field is a sum over nodes q of a periodic cell part times a phase
exp(i f_q x) (Bloch f = k, envelope f = eps khat).  With x = m + r,
m = round(x), r = x - round(x) (exact), the cell part depends on r alone
and exp(i f x) = exp(i f m) exp(i f r), so _fold_axes splits each axis into
its C distinct cells and R distinct reduced rows; every field is built on
that C R lattice per axis and gathered onto the grid once (_on_grid).  A
uniform_axis of half extent H at ppc points per cell has C R <= (2 H +
2)(ppc + 1), within (1 + 1/ppc)(1 + 1/H) of its points (criterion 7: 57 x
129 for 7297).  An axis whose lattice would exceed FOLD_RATIO times its
distinct points is left unfolded (C = 1), so no lattice exceeds
FOLD_RATIO^d times its grid.  _periodic_blocks, the one grid synthesizer,
synthesizes the cell parts on the distinct r, reduced mod 1, in slabs of
at most SYNTH_BLOCK folded points, from the factored phases exp(i 2 pi n r)
of each axis (~1e-14 accurate; _periodic_sum skips the phase matrix for a
few columns).  The exact and branch fields contract their
nodes in one GEMM per slab, the weighted cell phases w_q exp(i k_q.m) (C x
Q) times the row side phi_q(r) exp(i k_q.r); each envelope axis is one
GEMM too (_lattice_synth).  The phase tables take C + R exponentials per
node and axis, accurate to the rounding of f m.  Every product is
bloch.contract on scipy's BLAS, the library of the node solves.  The
homogenized orders share one cell-stack synthesis (homogenized_fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import (BlochPencil, GammaPair, PlaneWaveBasis, _eigenvalues_below,
                    _lapack, contract, reversal_classes, solve_bands)
from .cell import EffectiveCoefficients
from .source import FrequencySpec, SourceSpec

DENOM_TOL = 1e-8
PAIR_TOL = 1e-10        # time-reversal guard, B-norm residual
ENVELOPE_DENOM_TOL = 1e-10
SYNTH_BLOCK = 512      # folded points per synthesis slab (one row at least)
FOLD_RATIO = 2         # largest fold lattice per axis, in distinct points


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
    """sum_j c_j exp(i 2 pi j.x) on the separable grid `axes`: one column
    through _periodic_blocks, its folded rows gathered onto the grid."""
    cube = basis.coeff_cube(np.asarray(coeffs)[:, None])
    folds = _fold_axes(axes)
    rows = np.empty(tuple(len(f[0]) for f in folds), dtype=complex)
    for sl, part in _periodic_blocks(basis, cube, folds):
        rows[sl] = part[..., 0]
    return rows[np.ix_(*(f[1] for f in folds))]


def _grid_points(axes):
    """Stack separable axes into points of shape (n1[, n2], d)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _fold_axes(axes) -> list:
    """The exact split x = m + r of each axis: (distinct r, index of each
    point's r, distinct m, index of each point's m); m = round(x), or m = 0
    where that C x R lattice would exceed FOLD_RATIO times the points."""
    folds = []
    for ax in axes:
        points, where = np.unique(ax, return_inverse=True)
        fold = (*np.unique(ax - np.round(ax), return_inverse=True),
                *np.unique(np.round(ax), return_inverse=True))
        if len(fold[0]) * len(fold[2]) > FOLD_RATIO * len(points):
            fold = (points, where, np.zeros(1), np.zeros_like(where))
        folds.append(fold)
    return folds


def uniform_axis(half_extent: float, points_per_cell: int) -> np.ndarray:
    """The points -H, -H + h, ..., H, h = 1/ppc (2 H ppc an integer), each
    m + s with s = j / (2 ppc) rounded to a multiple of 2^-45: exact for
    |x| < 128, so x - round(x) takes at most ppc + 1 values however many
    cells (_fold_axes).  A power-of-two ppc gives linspace's points."""
    n = int(round(2 * half_extent * points_per_cell))
    m, j = np.divmod(2 * np.arange(n + 1) - n, 2 * points_per_cell)
    return m + np.round(j / (2 * points_per_cell) * 2.0 ** 45) / 2.0 ** 45


def _lattice(folds) -> np.ndarray:
    """An empty field on the fold lattice, (C_1, ..., C_d, R_1, ..., R_d)."""
    return np.empty([len(f[2]) for f in folds] + [len(f[0]) for f in folds],
                    dtype=complex)


def _on_grid(lattice: np.ndarray, folds) -> np.ndarray:
    """Grid values of a lattice field: x = m + r reads cell m, row r."""
    return lattice[np.ix_(*(f[3] for f in folds))
                   + np.ix_(*(f[1] for f in folds))]


def _nonperiodic_phase(fold, freqs):
    """exp(i x f) on a folded axis as (exp(i m f) over the distinct cells m,
    exp(i r f) over the distinct reduced rows r); the phase at x = m + r is
    their product, accurate to the rounding of m f."""
    reduced, _, cells, _ = fold
    return tuple(np.exp(1j * np.outer(v, freqs)) for v in (cells, reduced))


def _node_product(tables) -> np.ndarray:
    """prod_a tables[a][i_a, q] (tables[a]: n_a x Q), shape (n_1, ..., n_d,
    Q)."""
    return math.prod(t.reshape((len(t),) + (1,) * (len(tables) - 1 - a)
                               + t.shape[1:]) for a, t in enumerate(tables))


def _periodic_factors(x, cutoff: int):
    """(coarse, fine) with exp(i 2 pi n x) = coarse[:, a] fine[:, b] at
    n = a r + b - N (N = cutoff, r = ceil(sqrt(2N+1)), b < r), one row per
    1D point x.  x is reduced to x - round(x), and the turns m x, m = a r -
    N, are taken mod 1 to a rounding: x = hi + lo, hi a multiple of 2^-40,
    m hi exact."""
    x = x - np.round(x)                                   # exact
    r = int(np.ceil(np.sqrt(2 * cutoff + 1)))
    m = np.arange(-cutoff, cutoff + 1, r)
    hi = np.round(x * 2.0 ** 40) / 2.0 ** 40
    turns = np.outer(hi, m) % 1.0 + np.outer(x - hi, m)
    return (np.exp(2j * np.pi * turns),
            np.exp(2j * np.pi * np.outer(x, np.arange(r))))


def _periodic_phase(x, cutoff: int) -> np.ndarray:
    """exp(i 2 pi n x), n = -N..N (N = cutoff), at 1D x: one row per point,
    column a r + b the product of _periodic_factors' coarse a and fine b."""
    coarse, fine = _periodic_factors(x, cutoff)
    n, r = 2 * cutoff + 1, fine.shape[1]
    out = np.empty((len(x), n), dtype=complex)
    a = coarse.shape[1] - 1               # complete r-blocks before the last
    np.multiply(coarse[:, :a, None], fine[:, None, :],
                out=out[:, :a * r].reshape(len(x), a, r))
    np.multiply(coarse[:, a:], fine[:, :n - a * r], out=out[:, a * r:])
    return out


def _periodic_sum(x, cutoff: int, values: np.ndarray) -> np.ndarray:
    """sum_n values[n + N, ...] exp(i 2 pi n x), n = -N..N (N = cutoff), at
    1D x: shape (len(x),) + values.shape[1:].

    For K columns (values.shape[1:]) and A coarse factors, the fine table
    is contracted with the values first, one GEMM to R x A x K partial sums
    that the coarse factors scale and add up, when A K <= 2N + 1: the cell
    stacks and the source (K <= 3) skip the R x (2N + 1) phase matrix.
    With more columns (the exact field's nodes) the partial sums would
    outgrow that matrix, and it is formed (_periodic_phase) and contracted.
    """
    n = 2 * cutoff + 1
    r = int(np.ceil(np.sqrt(n)))
    A = -(-n // r)                        # _periodic_factors' coarse count
    if A * math.prod(values.shape[1:]) > n:
        return contract(_periodic_phase(x, cutoff), values)
    coarse, fine = _periodic_factors(x, cutoff)
    padded = np.zeros((A * r,) + values.shape[1:], dtype=complex)
    padded[:n] = values
    partial = contract(fine, np.moveaxis(
        padded.reshape((A, r) + values.shape[1:]), 1, 0))  # (R, A, ...)
    partial *= coarse.reshape(coarse.shape + (1,) * (values.ndim - 1))
    return partial.sum(axis=1)


def _lattice_synth(cube: np.ndarray, tables) -> np.ndarray:
    """Contract the leading d axes of `cube` (Q_1, ..., Q_d, *extra) with
    exp(i f_q x), tables[a] = (cell, row) of _nonperiodic_phase: per axis one
    GEMM of the row table (R_a x Q_a) with the cell side cell[m, q] cube[q,
    ...], giving the lattice field (C_1, ..., C_d, R_1, ..., R_d, *extra)."""
    d = len(tables)
    out = cube
    for a, (cell, row) in enumerate(tables):
        t = np.moveaxis(out, a, 0)
        t = cell.T.reshape(cell.shape[::-1] + (1,) * (t.ndim - 1)) * t[:, None]
        out = np.moveaxis(contract(row, t), (0, 1), (d + a, a))
    return out


def _periodic_blocks(basis: PlaneWaveBasis, cube: np.ndarray, folds):
    """sum_j cube[j, ...] exp(i 2 pi j.r) at the distinct reduced
    coordinates r of the folded axes `folds` (_fold_axes): axis 0 in slabs
    of rows of at most SYNTH_BLOCK folded points (one row at least), each
    through _periodic_sum, and every other axis through one phase matrix,
    built once.  Yields (slice of axis 0's distinct r, values of
    shape (rows, R_2, ..., R_d, *extra)); the slabs cover every row once,
    and an empty axis yields none.
    """
    if not all(len(f[1]) for f in folds):
        return
    (u0, *_), *rest = folds
    phases = [_periodic_phase(f[0], basis.cutoff) for f in rest]
    slab = max(1, SYNTH_BLOCK // math.prod(len(f[0]) for f in rest))
    for first in range(0, len(u0), slab):
        sl = slice(first, first + slab)
        part = _periodic_sum(u0[sl], basis.cutoff, cube)
        for a, E in enumerate(phases, 1):    # axis a of the cube -> rows
            part = np.moveaxis(contract(E, np.moveaxis(part, a, 0)), 0, a)
        yield sl, part


# ---------------------------------------------------------------------------
# Exact Bloch solution and branch restriction
# ---------------------------------------------------------------------------

def _factorization(omega2: float) -> str:
    """"cholesky" below the spectrum (omega^2 < -DENOM_TOL, where S(k) -
    omega^2 B is positive definite and no eigenvalue >= 0 lies within
    DENOM_TOL: S(k) is positive semidefinite because the pencil's E is
    positive definite under either rule, bloch module docstring), "ldl"
    (Bunch-Kaufman with the inertia check) otherwise."""
    return "cholesky" if omega2 < -DENOM_TOL else "ldl"


def _resolvent_term(pencil: BlochPencil, omega2: float, k: np.ndarray,
                    rhs: np.ndarray, check_gap: bool, work) -> np.ndarray:
    """The sum over all M Galerkin modes,
        sum_m phi_m(k) phi_m(k)^H rhs / (omega_m^2(k) - omega^2)
            = (S(k) - omega^2 B)^{-1} rhs,
    since the B-orthonormal eigenvectors diagonalize the pencil.

    Below the spectrum (_factorization) this is one Cholesky ?posv: S(k) is
    positive semidefinite, so a failed factorization raises GapViolation.
    Otherwise it is one Bunch-Kaufman ?hesv, after an inertia check that
    raises GapViolation when an eigenvalue lies within DENOM_TOL of omega^2,
    if check_gap (a node whose -k was checked has the same spectrum).  A
    complex rhs on a real pencil is two real columns.  S - omega^2 B is
    formed in work[0], with work = (stiffness buffer, omega^2 B) shared by
    one call's nodes; LAPACK gets its F-contiguous transpose, conj(S -
    omega^2 B) (exactly Hermitian), with no copy, so a complex pencil
    solves conj(rhs).
    """
    S, shift = work
    pencil.stiffness(k, out=S)
    conj = np.iscomplexobj(S)
    split = np.iscomplexobj(rhs) and not conj
    cols = np.stack([rhs.real, rhs.imag], axis=1) if split else \
        (rhs.conj() if conj else rhs)
    cholesky = _factorization(omega2) == "cholesky"
    if cholesky:
        solver, options = _lapack("posv", S.dtype, len(S))[0], {}
    else:
        if check_gap:
            lo, hi = (_eigenvalues_below(S, pencil.B, omega2 + t)
                      for t in (-DENOM_TOL, DENOM_TOL))
            if lo != hi:
                raise GapViolation(
                    f"{hi - lo} eigenvalue(s) within {DENOM_TOL:.0e} of "
                    f"omega^2 = {omega2:.12g} at k = {k}")
        solver, lwork = _lapack("hesv", S.dtype, len(S))
        options = {"lwork": lwork}
    S -= shift
    *_, x, info = solver(S.T, cols, lower=1, overwrite_a=True, **options)
    if info > 0:
        raise GapViolation(
            f"S - omega^2 B not positive definite at k = {k}: an eigenvalue "
            f"lies at or below omega^2 = {omega2:.12g}" if cholesky else
            f"singular resolvent at k = {k}")
    return x[:, 0] + 1j * x[:, 1] if split else (x.conj() if conj else x)


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
    """Columns solve(k_q, check_gap) (length `size`) at every node, and the
    number of solves.

    The first node of each +-k class (bloch.reversal_classes) is solved with
    its gap check.  With pairing = (P, e^{i theta}) from _time_reversal, a
    repeat copies that column and a node at minus it is e^{-i theta} P
    conj(column) instead of a solve; with pairing None the other nodes are
    solved too, without the check, since the spectra at +-k coincide.
    """
    first, rep, negated = reversal_classes(ks)
    lead = first[rep]                     # each node's first node
    solved = first if pairing is not None else range(len(ks))
    out = np.empty((size, len(ks)), dtype=complex)
    for q in solved:
        out[:, q] = solve(ks[q], lead[q] == q)
    if pairing is not None:
        P, phase = pairing
        out[:, ~negated] = out[:, lead[~negated]]   # repeats (first nodes too)
        out[:, negated] = np.conj(phase) * out[np.ix_(P, lead[negated])].conj()
    return out, len(solved)


def exact_bloch_solution(gamma: GammaPair, freq: FrequencySpec,
                         source: SourceSpec, quad: WavenumberQuadrature,
                         axes, branch_only: bool = False) -> FieldOnGrid:
    """Driven response on a fast-coordinate grid, summed over all modes.

    u(x) = (2 pi)^{-d/2} int_Y sum_m  eps^2 <rho phi_p(0) conj(phi_m(eps khat))>
           F(khat) / (omega_m^2 - omega^2) e^{i eps khat.x} phi_m(x) dkhat

    The mode sum at each node is one resolvent solve (_resolvent_term), so
    there is no mode truncation; GapViolation is raised when any Galerkin
    eigenvalue at a node lies within DENOM_TOL of omega^2.  With
    branch_only=True the sum keeps only m = p (one eigenpair per node, and
    the check covers branches 0..p).  By time reversal only the first node
    of each +-k class is solved (_paired_solves); when its guard fails (a
    degenerate omega_p^2(0)) every node is solved, and the inertia check
    still runs once per class.

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
        solve = lambda k, _: _branch_term(gamma, pencil, freq.omega2, k, bc0)
    else:
        factorization = _factorization(freq.omega2)
        work = (np.empty_like(pencil.E), freq.omega2 * pencil.B)
        solve = lambda k, check_gap: _resolvent_term(
            pencil, freq.omega2, k, bc0, check_gap, work)
    coeffs, solves = _paired_solves(
        ks, basis.size, solve, (P, phase) if residual <= PAIR_TOL else None)

    # (w_q exp(i k_q.m)) x (exp(i k_q.r) phi_q(r)): one GEMM per slab
    folds = _fold_axes(axes)
    tables = [_nonperiodic_phase(f, ks[:, a]) for a, f in enumerate(folds)]
    cell = _node_product([c for c, _ in tables]) * (pref * wF[inside])
    lattice = _lattice(folds)
    for sl, part in _periodic_blocks(basis, basis.coeff_cube(coeffs), folds):
        part *= _node_product([tables[0][1][sl]] + [r for _, r in tables[1:]])
        lattice[(slice(None),) * d + (sl,)] = contract(
            cell, np.moveaxis(part, -1, 0))
    total = np.sum(np.abs(wF))
    return FieldOnGrid(axes=tuple(axes), values=_on_grid(lattice, folds),
                       label=(f"branch {gamma.branch} solution" if branch_only
                              else "exact solution"),
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


def effective_envelope(eff: EffectiveCoefficients, freq: FrequencySpec,
                       source: SourceSpec, quad: WavenumberQuadrature,
                       order: int, axes, derivative: tuple = ()) -> np.ndarray:
    """W(r) (and spectral derivatives) on a separable slow-coordinate grid.

    derivative is a tuple of axis indices; each entry multiplies the
    integrand by i khat_axis.  The package synthesizes envelopes inside
    homogenized_fields; this is kept as the tests' independent path to W
    and its derivatives, and under its name for the benchmark's span list.
    """
    folds = _fold_axes(axes)
    cube = _envelope_cube(eff, freq, source, quad, [(order, [derivative])])
    tables = [_nonperiodic_phase(f, quad.axis_nodes) for f in folds]
    return _on_grid(_lattice_synth(cube, tables), folds)[..., 0]


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
    once for all orders on the folded rows, with [W0, grad W0] (m < 2) or
    [W2, grad W2, grad^2 W2] on the fold lattice; every order is gathered
    onto the grid once.  Returns {m: FieldOnGrid}.
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
    # exp(i eps khat x) on the fast grid, so that m = round(x) is the cell
    folds = _fold_axes(axes)
    (cell0, row0), *rest = [_nonperiodic_phase(f, eps * quad.axis_nodes)
                            for f in folds]
    cube = basis.coeff_cube(np.stack(cells[:width[orders[-1]]], axis=-1))
    lattices = {m: _lattice(folds) for m in orders}
    for sl, part in _periodic_blocks(basis, cube, folds):
        W = _lattice_synth(envelopes, [(cell0, row0[sl])] + rest)
        for m in orders:
            env = W[..., n0:] if m == 2 else W[..., :width[m]]
            lattices[m][(slice(None),) * d + (sl,)] = np.einsum(
                "...c,...c->...", part[..., :width[m]], env)
    return {m: FieldOnGrid(axes=tuple(axes),
                           values=_on_grid(lattices[m], folds),
                           label=f"order-{m} approximation",
                           meta={"eps": eps, "order": m}) for m in orders}


def homogenized_field(eff: EffectiveCoefficients, freq: FrequencySpec,
                      source: SourceSpec, quad: WavenumberQuadrature,
                      order: int, axes) -> FieldOnGrid:
    """Order-m approximation U_m alone: homogenized_fields for one order.
    The package builds all orders at once; this is kept as the README's
    library example, and under its name for the benchmark's span list."""
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
