"""
Cell problems at the zone center and the effective coefficients they yield.

Everything here lives in the same truncated plane-wave space as the Bloch
eigensolver.  Writing the stiffness pencil at k = eps*khat as

    S(eps*khat) = S0 + eps khat.S1 + eps^2 |khat|^2 Gm,

the branch-p eigenpair admits an expansion whose successive orders are the
cell problems.  Solving them in matrix form keeps the discrete dispersion
relation and the effective tensors consistent to machine precision at any
truncation level.

Cell functions follow the convention that the eigenvector expansion reads

    c(eps khat) = c0 + chi1 . (i eps khat) + chi2 : (i eps khat)^2
                     + chi3 : (i eps khat)^3 + O(eps^4),

with every correction B-orthogonal to c0 (zero rho-weighted mean), and

    omega_p^2(eps khat) = w0 + eps^2 w2(khat) + eps^4 w4(khat) + O(eps^6),
    w2 = -(mu0/rho0) : (i khat)^2,   w4 = -(mu2/rho0) : (i khat)^4.

The problems are solved in the parity blocks the eigenpair carries
(bloch.ParityBlocks): S0, Gm and B keep the parity of a vector and S1 flips
it, so c0 and chi2 share one block and chi1, chi3 lie in the other.  Every
right-hand side lies in one block and the basis change is orthogonal, so
the compatibility, residual and zero-mean checks on the block vectors are
those on the full vectors.  Complex tables give a single block, the full
basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bloch import (GammaPair, ParityBlocks, PlaneWaveBasis, bloch_pencil,
                    contract, norm)
from .medium import CoefficientTable, MediumSpec

COMPAT_TOL = 1e-9
CONSTRAINT_TOL = 1e-10
RESIDUAL_BOUND = 1e-8      # bordered-solve residual allowed per max(|rhs|, 1)
DIAGNOSTIC_TOL = 1e-7


class CompatibilityViolation(Exception):
    """Right-hand side not orthogonal to the zone-center eigenfunction."""


class SingularSystem(Exception):
    """Bordered cell-problem system could not be factorized."""


# ---------------------------------------------------------------------------
# Tensor symmetrization
# ---------------------------------------------------------------------------

def symmetrize_full(T: np.ndarray) -> np.ndarray:
    """Average over all permutations of the tensor indices."""
    n = T.ndim
    perms = list(itertools.permutations(range(n)))
    return sum(np.transpose(T, p) for p in perms) / len(perms)


# ---------------------------------------------------------------------------
# Matrix blocks of the pencil expansion at k = 0
# ---------------------------------------------------------------------------

def pencil_blocks(table: CoefficientTable, basis: PlaneWaveBasis):
    """Return (S0, S1_list, Gm, B) with S(k) = S0 + sum k_a S1[a] + |k|^2 Gm,
    as full M x M matrices.  The cell solve uses the parity blocks its
    GammaPair carries instead; this is kept as the full-basis reference the
    blocked solve is tested against, and under its name for the benchmark's
    span list."""
    return bloch_pencil(table, basis).blocks()


class ConstrainedSolver:
    """Solve (S0 - w0 B) x = rhs subject to c0^H B x = 0 via a bordered system.

    The operator is singular on span(c0); the border adds the Lagrange
    multiplier that projects the right-hand side onto the compatible
    subspace.  One LU factorization is shared by all right-hand sides; it is
    real when S0, B and c0 are (a complex rhs is then two real columns).
    Without c0 (a parity block c0 has no part in, where S0 - w0 B is
    nonsingular when w0 is simple) there is no border, and only the
    residual is checked.
    """

    def __init__(self, S0, B, omega2, c0=None):
        n = S0.shape[0]
        A = S0 - omega2 * B
        if c0 is None:
            b, K = None, np.array(A, order="F")
        else:
            b = contract(B, c0)
            K = np.zeros((n + 1, n + 1), dtype=np.result_type(A, b), order="F")
            K[:n, :n] = A
            K[:n, n] = b
            K[n, :n] = b.conj()
        try:
            self._lu = scipy.linalg.lu_factor(K, overwrite_a=True)  # in place
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularSystem(str(exc)) from exc
        self._A = A
        self._b = b
        self._c0 = c0
        self._n = n
        # roundoff floor: below this an RHS is numerically zero and the
        # relative compatibility test would be meaningless
        self._floor = 1e-12 * (1.0 + np.mean(np.abs(np.diag(A))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for one right-hand side; checks compatibility and residual."""
        scale = norm(rhs)
        if scale < self._floor:
            return np.zeros(self._n, dtype=complex)
        if self._c0 is not None:
            incompat = abs(contract(self._c0.conj(), rhs))
            if scale > 0 and incompat > COMPAT_TOL * scale:
                raise CompatibilityViolation(
                    f"<rhs, phi_p> = {incompat:.3e} exceeds "
                    f"{COMPAT_TOL:.0e} * |rhs|")
        K = self._lu[0]
        split = not np.iscomplexobj(K)              # real K: two columns
        cols = np.stack([rhs.real, rhs.imag], axis=1) if split else rhs
        full = np.zeros((K.shape[0],) + cols.shape[1:], dtype=K.dtype)
        full[:self._n] = cols
        sol = scipy.linalg.lu_solve(self._lu, full)
        sol = sol[:, 0] + 1j * sol[:, 1] if split else sol
        x = sol[:self._n]
        residual = contract(self._A, x) - rhs
        if self._b is not None:
            residual += sol[self._n] * self._b
        res = norm(residual)
        if scale > 0 and res > RESIDUAL_BOUND * max(scale, 1.0):
            raise SingularSystem(f"bordered solve residual {res:.3e}")
        if self._b is not None:
            constraint = abs(contract(self._b.conj(), x))
            if constraint > CONSTRAINT_TOL * max(norm(x), 1.0):
                raise SingularSystem(
                    f"zero-mean constraint violated: {constraint:.3e}")
        return x


# ---------------------------------------------------------------------------
# Cell functions
# ---------------------------------------------------------------------------

@dataclass
class CellFunctions:
    """First, second, and third corrector fields in coefficient form.

    chi1: (M, d); chi2: (M, d, d); chi3: (M, d, d, d).  All have zero
    rho-weighted mean against the zone-center eigenfunction.  For the
    effective averages: A2 = mu0/rho0 and, with c0 unit rho-normalized,
    s1c0[:, a] = S1_a c0, gc0 = Gm c0, bc0 = B c0 and bchi1 = B chi1.
    """

    gamma: GammaPair
    chi1: np.ndarray
    chi2: np.ndarray
    chi3: np.ndarray
    A2: np.ndarray
    s1c0: np.ndarray
    gc0: np.ndarray
    bc0: np.ndarray
    bchi1: np.ndarray


def _parity_of(blocks: ParityBlocks, coeffs: np.ndarray) -> int:
    """The parity block a zone-center vector lies in: the eigenvector of a
    simple eigenvalue has one parity, to CONSTRAINT_TOL here."""
    norms = [norm(blocks.restrict(coeffs, i))
             for i in range(len(blocks.index))]
    s = int(np.argmax(norms))
    if sum(norms) - norms[s] > CONSTRAINT_TOL * norms[s]:
        raise ValueError("zone-center vector has parts of both parities "
                         f"({norms[0]:.3e}, {norms[1]:.3e})")
    return s


def solve_cell_functions(gamma: GammaPair) -> CellFunctions:
    """Solve the three cell problems for one zone-center eigenpair.

    The hierarchy runs in the parity blocks of gamma.blocks: c0 and chi2
    lie in c0's block s, chi1 and chi3 in block flip(s), since S1 maps each
    block onto the other and G, B keep them.  The bordered LU covers block
    s only; chi1 and chi3 take a plain LU of the other block (one block:
    the bordered one, as for complex tables).  Everything is lifted back to
    the full basis at the end.
    """
    if not gamma.simple:
        raise ValueError(
            f"branch {gamma.branch} eigenvalue is not simple "
            f"(relative separation {gamma.separation:.2e})")
    z = gamma.blocks
    d = gamma.basis.dimension
    s = _parity_of(z, gamma.coeffs)
    f = z.flip(s)
    S0, S1, Gm, B = z.S0, z.S1, z.E, z.B
    # the hierarchy below assumes unit rho-normalization; enforce it so a
    # rescaled eigenvector yields identical correctors
    c0 = z.restrict(gamma.coeffs, s)
    c0 = c0 / np.sqrt(np.real(contract(c0.conj(), contract(B[s], c0))))
    solver = ConstrainedSolver(S0[s], B[s], gamma.omega2, c0)
    other = solver if f == s else ConstrainedSolver(S0[f], B[f], gamma.omega2)

    gc0 = contract(Gm[s], c0)
    bc0 = contract(B[s], c0)
    s1c0 = np.stack([contract(S[s], c0) for S in S1], axis=1)

    # first corrector: (S0 - w0 B) chi1_a = i S1_a c0
    chi1 = np.stack([other.solve(1j * v) for v in s1c0.T], axis=1)

    # quadratic dispersion tensor (mu0 / rho0); S1_a is Hermitian
    A2 = 1j * contract(s1c0.conj().T, chi1)
    A2 = 0.5 * (A2 + A2.T) + np.eye(d) * contract(c0.conj(), gc0)

    # second corrector:
    # (S0 - w0 B) chi2_ab = sym_ab[ i S1_a chi1_b + delta_ab Gm c0 - A2_ab B c0 ]
    chi2 = np.zeros((len(c0), d, d), dtype=complex)
    for a, b in itertools.combinations_with_replacement(range(d), 2):
        rhs = 0.5j * (contract(S1[a][f], chi1[:, b])
                      + contract(S1[b][f], chi1[:, a]))
        chi2[:, a, b] = chi2[:, b, a] = solver.solve(
            rhs + (a == b) * gc0 - A2[a, b] * bc0)

    gchi1, bchi1 = contract(Gm[f], chi1), contract(B[f], chi1)
    # third corrector:
    # (S0 - w0 B) chi3_abc =
    #     sym_abc[ i S1_a chi2_bc + delta_ab Gm chi1_c - A2_ab B chi1_c ]
    chi3 = np.zeros((len(chi1), d, d, d), dtype=complex)
    for key in itertools.combinations_with_replacement(range(d), 3):
        perms = set(itertools.permutations(key))
        rhs = sum(1j * contract(S1[i][s], chi2[:, j, l]) + (i == j) * gchi1[:, l]
                  - A2[i, j] * bchi1[:, l] for i, j, l in perms)
        x = other.solve(rhs / len(perms))
        for (i, j, l) in perms:
            chi3[:, i, j, l] = x
    return CellFunctions(gamma=gamma, chi1=z.lift(chi1, f), chi2=z.lift(chi2, s),
                         chi3=z.lift(chi3, f), A2=A2, s1c0=z.lift(s1c0, f),
                         gc0=z.lift(gc0, s), bc0=z.lift(bc0, s),
                         bchi1=z.lift(bchi1, f))


# ---------------------------------------------------------------------------
# Effective coefficients
# ---------------------------------------------------------------------------

@dataclass
class EffectiveCoefficients:
    """Effective tensors of the second-order macroscopic model.

    mu0 (d,d) and mu2 (d,d,d,d) enter the dispersion expansion through
    w2 = -(mu0/rho0):(i khat)^2 and w4 = -(mu2/rho0):(i khat)^4.  The
    odd/cross tensors rho1, mu1, rho2 vanish analytically and are kept as
    numerical diagnostics.  corrector_cov is <rho chi1 (x) conj(chi1)>,
    the tensor weighting the second-gradient term of the order-2 field.
    """

    gamma: GammaPair
    cell: CellFunctions
    alpha_p: float
    rho0: float
    mu0: np.ndarray
    mu2: np.ndarray
    rho1: np.ndarray
    mu1: np.ndarray
    rho2: np.ndarray
    corrector_cov: np.ndarray
    diagnostics_ok: bool


def effective_coefficients(cell: CellFunctions) -> EffectiveCoefficients:
    """Averages of the corrector fields: effective tensors plus diagnostics.

    All cell averages are evaluated exactly in Fourier space; the
    coefficient tables extend to twice the basis cutoff, so products of a
    material field with two basis functions carry no truncation error.
    Each is an inner product with a vector of the cell solve (the pencil
    blocks are Hermitian); diagnostics_ok bounds max|Im| of mu0 and mu2.
    """
    gamma = cell.gamma
    d = gamma.basis.dimension
    # the unit rho-normalized c0 of the cell solve: bc0 = B c0 / |c0|_B
    c0 = gamma.coeffs / np.real(contract(gamma.coeffs.conj(), cell.bc0))

    alpha_p = 1.0 / float(np.real(contract(c0.conj(), c0)))   # <|phi_p|^2>^-1
    rho0 = alpha_p * float(np.real(contract(c0.conj(), cell.bc0)))

    def flux_average(chi_lower, chi_higher):
        """alpha_p < {G(grad chi^(n) + I (x) chi^(n-1)) conj(phi_p)}
                     - {G chi^(n) (x) conj(grad phi_p)} >, fully symmetrized.

        In matrix form the pair of terms contracts to
        i c0^H S1_a chi^(n)_... + delta_ab c0^H Gm chi^(n-1)_...
        """
        flux = 1j * contract(cell.s1c0.conj().T, chi_higher)
        lower = contract(cell.gc0.conj(), chi_lower)
        return alpha_p * symmetrize_full(flux + np.multiply.outer(np.eye(d),
                                                                  lower))

    mu0 = alpha_p * cell.A2                           # = flux_average(c0, chi1)
    mu1 = flux_average(cell.chi1, cell.chi2)          # (d,d,d), should vanish
    mu2 = flux_average(cell.chi2, cell.chi3)          # (d,d,d,d)

    rho1 = alpha_p * contract(cell.bc0.conj(), cell.chi1)
    rho2 = alpha_p * contract(cell.bc0.conj(), cell.chi2)
    cov = contract(cell.bchi1.T, cell.chi1.conj())    # <rho chi1_a conj(chi1_b)>

    scale = max(np.abs(mu0).max(), 1e-300)
    imag = max(np.abs(t.imag).max() / max(np.abs(t).max(), 1e-300)
               for t in (mu0, mu2))
    diag_ok = bool(np.abs(rho1).max() < DIAGNOSTIC_TOL * max(rho0, 1.0)
               and np.abs(rho2).max() < DIAGNOSTIC_TOL * max(rho0, 1.0)
               and np.abs(mu1).max() < DIAGNOSTIC_TOL * scale
               and imag < DIAGNOSTIC_TOL)

    return EffectiveCoefficients(
        gamma=gamma, cell=cell, alpha_p=alpha_p, rho0=rho0,
        mu0=mu0.real.copy(), mu2=mu2.real.copy(),
        rho1=rho1, mu1=mu1, rho2=rho2,
        corrector_cov=cov, diagnostics_ok=diag_ok)


def extrapolated_coefficients(fine: EffectiveCoefficients,
                              coarse: EffectiveCoefficients) -> EffectiveCoefficients:
    """Richardson-extrapolate the effective tensors in 1/cutoff.

    For sharp (discontinuous) media Laurent's rule (2D) gives effective
    tensors that converge like 1/N; combining two cutoffs N and N/2 removes
    the leading bias.  The corrector fields keep the fine-level values.

    In 1D the inverse rule leaves no 1/N term to remove: mu0 is exact at
    every N, and mu2 of two_phase_1d converges as N^-3, 5.0e-6 / 6.3e-7 /
    7.8e-8 / 9.6e-9 relative at N = 32 / 64 / 128 / 256 (against N =
    1024).  Extrapolating 256 against 128 in 1/N makes it worse, 5.9e-8.
    """
    nf = fine.gamma.basis.cutoff
    nc = coarse.gamma.basis.cutoff
    if nf <= nc:
        raise ValueError("fine cutoff must exceed coarse cutoff")
    # weights solving a + b = 1, a/nf + b/nc = 0
    a = nf / (nf - nc)
    b = 1.0 - a
    return EffectiveCoefficients(
        gamma=fine.gamma, cell=fine.cell, alpha_p=fine.alpha_p,
        rho0=a * fine.rho0 + b * coarse.rho0,
        mu0=a * fine.mu0 + b * coarse.mu0,
        mu2=a * fine.mu2 + b * coarse.mu2,
        rho1=fine.rho1, mu1=fine.mu1, rho2=fine.rho2,
        corrector_cov=fine.corrector_cov,
        diagnostics_ok=fine.diagnostics_ok and coarse.diagnostics_ok)
