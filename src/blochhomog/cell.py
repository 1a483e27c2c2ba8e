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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bloch import GammaPair, PlaneWaveBasis, bloch_pencil, solve_bands
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
    """Return (S0, S1_list, Gm, B) with S(k) = S0 + sum k_a S1[a] + |k|^2 Gm."""
    return bloch_pencil(table, basis).blocks()


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for x of shape (M, ...).  A real block times a complex x goes
    through as stacked real and imaginary columns, since numpy would
    otherwise multiply by a complex copy of A."""
    if np.iscomplexobj(A) or not np.iscomplexobj(x):
        return A @ x
    cols = x.reshape(len(x), -1)
    n = cols.shape[1]
    y = A @ np.concatenate([cols.real, cols.imag], axis=1)
    return (y[:, :n] + 1j * y[:, n:]).reshape(x.shape)


class ConstrainedSolver:
    """Solve (S0 - w0 B) x = rhs subject to c0^H B x = 0 via a bordered system.

    The operator is singular on span(c0); the border adds the Lagrange
    multiplier that projects the right-hand side onto the compatible
    subspace.  One LU factorization is shared by all right-hand sides.
    """

    def __init__(self, S0, B, omega2, c0):
        n = S0.shape[0]
        A = S0 - omega2 * B
        b = _matvec(B, c0)
        K = np.zeros((n + 1, n + 1), dtype=complex, order="F")
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
        scale = np.linalg.norm(rhs)
        if scale < self._floor:
            return np.zeros(self._n, dtype=complex)
        incompat = abs(np.vdot(self._c0, rhs))
        if scale > 0 and incompat > COMPAT_TOL * scale:
            raise CompatibilityViolation(
                f"<rhs, phi_p> = {incompat:.3e} exceeds {COMPAT_TOL:.0e} * |rhs|")
        full = np.zeros(self._n + 1, dtype=complex)
        full[:self._n] = rhs
        sol = scipy.linalg.lu_solve(self._lu, full)
        x, mult = sol[:self._n], sol[self._n]
        res = np.linalg.norm(_matvec(self._A, x) + mult * self._b - rhs)
        if scale > 0 and res > RESIDUAL_BOUND * max(scale, 1.0):
            raise SingularSystem(f"bordered solve residual {res:.3e}")
        constraint = abs(np.vdot(self._b, x))
        if constraint > CONSTRAINT_TOL * max(np.linalg.norm(x), 1.0):
            raise SingularSystem(f"zero-mean constraint violated: {constraint:.3e}")
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


def solve_cell_functions(gamma: GammaPair) -> CellFunctions:
    """Solve the three cell problems for one zone-center eigenpair."""
    if not gamma.simple:
        raise ValueError(
            f"branch {gamma.branch} eigenvalue is not simple "
            f"(relative separation {gamma.separation:.2e})")
    basis, table = gamma.basis, gamma.table
    d = basis.dimension
    M = basis.size
    S0, S1, Gm, B = pencil_blocks(table, basis)
    # the hierarchy below assumes unit rho-normalization; enforce it so a
    # rescaled eigenvector yields identical correctors
    c0 = gamma.coeffs
    c0 = c0 / np.sqrt(np.real(np.vdot(c0, _matvec(B, c0))))
    solver = ConstrainedSolver(S0, B, gamma.omega2, c0)

    gc0 = _matvec(Gm, c0)
    bc0 = _matvec(B, c0)
    s1c0 = np.stack([_matvec(S, c0) for S in S1], axis=1)

    # first corrector: (S0 - w0 B) chi1_a = i S1_a c0
    chi1 = np.stack([solver.solve(1j * v) for v in s1c0.T], axis=1)

    # quadratic dispersion tensor (mu0 / rho0); S1_a is Hermitian
    A2 = 1j * (s1c0.conj().T @ chi1)
    A2 = 0.5 * (A2 + A2.T) + np.eye(d) * np.vdot(c0, gc0)

    # second corrector:
    # (S0 - w0 B) chi2_ab = sym_ab[ i S1_a chi1_b + delta_ab Gm c0 - A2_ab B c0 ]
    chi2 = np.zeros((M, d, d), dtype=complex)
    for a, b in itertools.combinations_with_replacement(range(d), 2):
        rhs = 0.5j * (_matvec(S1[a], chi1[:, b]) + _matvec(S1[b], chi1[:, a]))
        chi2[:, a, b] = chi2[:, b, a] = solver.solve(
            rhs + (a == b) * gc0 - A2[a, b] * bc0)

    gchi1, bchi1 = _matvec(Gm, chi1), _matvec(B, chi1)
    # third corrector:
    # (S0 - w0 B) chi3_abc =
    #     sym_abc[ i S1_a chi2_bc + delta_ab Gm chi1_c - A2_ab B chi1_c ]
    chi3 = np.zeros((M, d, d, d), dtype=complex)
    for key in itertools.combinations_with_replacement(range(d), 3):
        perms = set(itertools.permutations(key))
        rhs = sum(1j * _matvec(S1[i], chi2[:, j, l]) + (i == j) * gchi1[:, l]
                  - A2[i, j] * bchi1[:, l] for i, j, l in perms)
        x = solver.solve(rhs / len(perms))
        for (i, j, l) in perms:
            chi3[:, i, j, l] = x
    return CellFunctions(gamma=gamma, chi1=chi1, chi2=chi2, chi3=chi3, A2=A2,
                         s1c0=s1c0, gc0=gc0, bc0=bc0, bchi1=bchi1)


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

    def omega2_expansion(self, khat, eps: float) -> float:
        """omega_p^2(eps*khat) through fourth order."""
        khat = np.atleast_1d(np.asarray(khat, dtype=float))
        w2 = np.einsum("ab,a,b->", self.mu0, khat, khat) / self.rho0
        w4 = -np.einsum("abcd,a,b,c,d->", self.mu2, khat, khat, khat, khat) / self.rho0
        return self.gamma.omega2 + eps ** 2 * w2.real + eps ** 4 * w4.real

    def quadratic_form(self, khat) -> float:
        """(mu0/rho0) : khat khat, the leading dispersion curvature."""
        khat = np.atleast_1d(np.asarray(khat, dtype=float))
        return float(np.einsum("ab,a,b->", self.mu0, khat, khat).real / self.rho0)

    def quartic_form(self, khat) -> float:
        """-(mu2/rho0) : khat^4, the next dispersion correction."""
        khat = np.atleast_1d(np.asarray(khat, dtype=float))
        return float(-np.einsum("abcd,a,b,c,d->", self.mu2,
                                khat, khat, khat, khat).real / self.rho0)


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
    c0 = gamma.coeffs / np.real(np.vdot(gamma.coeffs, cell.bc0))

    alpha_p = 1.0 / float(np.real(np.vdot(c0, c0)))   # <|phi_p|^2>^-1
    rho0 = alpha_p * float(np.real(np.vdot(c0, cell.bc0)))

    def flux_average(chi_lower, chi_higher):
        """alpha_p < {G(grad chi^(n) + I (x) chi^(n-1)) conj(phi_p)}
                     - {G chi^(n) (x) conj(grad phi_p)} >, fully symmetrized.

        In matrix form the pair of terms contracts to
        i c0^H S1_a chi^(n)_... + delta_ab c0^H Gm chi^(n-1)_...
        """
        flux = 1j * np.tensordot(cell.s1c0.conj(), chi_higher, axes=(0, 0))
        lower = np.tensordot(cell.gc0.conj(), chi_lower, axes=(0, 0))
        return alpha_p * symmetrize_full(flux + np.multiply.outer(np.eye(d),
                                                                  lower))

    mu0 = alpha_p * cell.A2                           # = flux_average(c0, chi1)
    mu1 = flux_average(cell.chi1, cell.chi2)          # (d,d,d), should vanish
    mu2 = flux_average(cell.chi2, cell.chi3)          # (d,d,d,d)

    rho1 = alpha_p * np.tensordot(cell.bc0.conj(), cell.chi1, axes=(0, 0))
    rho2 = alpha_p * np.tensordot(cell.bc0.conj(), cell.chi2, axes=(0, 0))
    cov = (cell.chi1.conj().T @ cell.bchi1).T         # <rho chi1_a conj(chi1_b)>

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

    For sharp (discontinuous) media the Galerkin effective tensors converge
    like 1/N; combining two cutoffs N and N/2 removes the leading bias.
    The corrector fields keep the fine-level values.
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


# ---------------------------------------------------------------------------
# Dispersion expansion self-test
# ---------------------------------------------------------------------------

def dispersion_expansion_check(eff: EffectiveCoefficients, khat,
                               eps_list) -> dict:
    """Remainder |omega_p^2(eps khat) - 4th-order expansion| and its slope.

    The remainder should scale like eps^6; the returned slope is the
    log-log least-squares fit over eps_list.
    """
    gamma = eff.gamma
    khat = np.atleast_1d(np.asarray(khat, dtype=float))
    remainders = []
    for eps in eps_list:
        sol = solve_bands(gamma.table, gamma.basis, eps * khat,
                          gamma.branch + 1)
        exact = sol.omega2[gamma.branch]
        approx = eff.omega2_expansion(khat, eps)
        remainders.append(abs(exact - approx))
    eps_arr = np.asarray(eps_list, dtype=float)
    rem = np.asarray(remainders)
    good = rem > 0
    slope = np.nan
    if good.sum() >= 2:
        slope = np.polyfit(np.log(eps_arr[good]), np.log(rem[good]), 1)[0]
    return {"eps": eps_arr, "remainder": rem, "slope": float(slope)}
