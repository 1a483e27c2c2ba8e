import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blochhomog.cell as cell_module
from blochhomog import (CompatibilityViolation, ConstrainedSolver, Inclusion,
                        MediumSpec, SingularSystem, assemble_operator,
                        dispersion_expansion_check,
                        effective_coefficients, eigenpair_at_gamma,
                        extrapolated_coefficients, pencil_blocks, solve_bands,
                        solve_cell_functions, symmetrize_full, two_phase_1d,
                        disk_2d)
from blochhomog.cell import DIAGNOSTIC_TOL


# ---------------------------------------------------------------------------
# Symmetrizers
# ---------------------------------------------------------------------------

def test_symmetrize_full_rank2():
    T = np.array([[1.0, 2.0], [5.0, 3.0]])
    S = symmetrize_full(T)
    assert np.allclose(S, 0.5 * (T + T.T))
    assert np.allclose(symmetrize_full(S), S)       # idempotent


def test_symmetrize_full_rank4_random():
    rng = np.random.default_rng(0)
    T = rng.standard_normal((2, 2, 2, 2))
    S = symmetrize_full(T)
    assert np.allclose(S, np.transpose(S, (1, 0, 3, 2)))
    assert np.allclose(S, np.transpose(S, (3, 1, 2, 0)))


# ---------------------------------------------------------------------------
# Constrained solver
# ---------------------------------------------------------------------------

def test_constrained_solver_diagonal():
    S0 = np.diag([0.0, 1.0, 2.0]).astype(complex)
    B = np.eye(3, dtype=complex)
    c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    solver = ConstrainedSolver(S0, B, 0.0, c0)
    x = solver.solve(np.array([0.0, 1.0, 2.0], dtype=complex))
    assert np.allclose(x, [0.0, 1.0, 1.0])
    assert abs(np.vdot(c0, x)) < 1e-12


def test_constrained_solver_rejects_incompatible_rhs():
    S0 = np.diag([0.0, 1.0]).astype(complex)
    B = np.eye(2, dtype=complex)
    c0 = np.array([1.0, 0.0], dtype=complex)
    solver = ConstrainedSolver(S0, B, 0.0, c0)
    with pytest.raises(CompatibilityViolation):
        solver.solve(np.array([1.0, 0.0], dtype=complex))


def test_solver_refuses_degenerate_branch():
    homog = MediumSpec(dimension=1, background_G=1.0, background_rho=1.0)
    gamma = eigenpair_at_gamma(homog, 1, 8)
    with pytest.raises(ValueError, match="not simple"):
        solve_cell_functions(gamma)


# ---------------------------------------------------------------------------
# Homogeneous limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2])
def test_homogeneous_correctors_vanish(dim):
    spec = MediumSpec(dimension=dim, background_G=2.0, background_rho=3.0)
    gamma = eigenpair_at_gamma(spec, 0, 6 if dim == 1 else 3)
    cell = solve_cell_functions(gamma)
    assert np.max(np.abs(cell.chi1)) < 1e-10
    assert np.max(np.abs(cell.chi2)) < 1e-10
    assert np.max(np.abs(cell.chi3)) < 1e-10
    eff = effective_coefficients(cell)
    assert abs(eff.rho0 - 3.0) < 1e-10
    assert np.allclose(eff.mu0, 2.0 * np.eye(dim), atol=1e-10)
    assert np.max(np.abs(eff.mu2)) < 1e-10
    assert np.max(np.abs(eff.corrector_cov)) < 1e-10
    assert eff.diagnostics_ok


# ---------------------------------------------------------------------------
# 1D two-phase medium
# ---------------------------------------------------------------------------

def test_zero_mean_constraints(gamma1d_32, eff1d_32):
    cell = eff1d_32.cell
    _, B = assemble_operator(gamma1d_32.table, gamma1d_32.basis, [0.0])
    bc0 = B @ gamma1d_32.coeffs
    for chi in (cell.chi1, cell.chi2, cell.chi3):
        flat = chi.reshape(chi.shape[0], -1)
        assert np.max(np.abs(bc0.conj() @ flat)) < 1e-10


def test_quadratic_form_matches_small_k_limit(med1d):
    """mu0/rho0 must equal the discrete dispersion curvature at the same
    truncation (the hierarchy is an exact expansion of the discrete pencil)."""
    gamma = eigenpair_at_gamma(med1d, 0, 64)
    eff = effective_coefficients(solve_cell_functions(gamma))
    lims = []
    for k in (0.08, 0.04):
        w2 = solve_bands(gamma.table, gamma.basis, [k], 1).omega2[0]
        lims.append(w2 / k ** 2)
    limit = (4.0 * lims[1] - lims[0]) / 3.0        # remove O(k^2) bias
    ratio = eff.quadratic_form([1.0])
    assert abs(ratio - limit) / limit < 1e-6
    assert ratio > 0


def test_mu0_positive_and_real(eff1d_32):
    assert eff1d_32.mu0.shape == (1, 1)
    assert eff1d_32.mu0[0, 0] > 0
    assert np.isrealobj(eff1d_32.mu0)


def test_normalization_gauge_invariance(med1d):
    """Rescaling the eigenfunction leaves mu0/rho0 and mu2/rho0 unchanged."""
    gamma = eigenpair_at_gamma(med1d, 0, 16)
    eff = effective_coefficients(solve_cell_functions(gamma))
    scaled = dataclasses.replace(gamma, coeffs=1.7 * gamma.coeffs)
    eff_s = effective_coefficients(solve_cell_functions(scaled))
    r1 = eff.mu0[0, 0] / eff.rho0
    r2 = eff_s.mu0[0, 0] / eff_s.rho0
    assert abs(r1 - r2) < 1e-10 * abs(r1)
    q1 = eff.mu2[0, 0, 0, 0] / eff.rho0
    q2 = eff_s.mu2[0, 0, 0, 0] / eff_s.rho0
    assert abs(q1 - q2) < 1e-10 * abs(q1)


def test_diagnostics_vanish_smoothed_1d():
    spec = two_phase_1d(smoothing=0.05)
    gamma = eigenpair_at_gamma(spec, 0, 32)
    eff = effective_coefficients(solve_cell_functions(gamma))
    scale = np.abs(eff.mu0).max()
    assert np.abs(eff.rho1).max() < 1e-7 * eff.rho0
    assert np.abs(eff.rho2).max() < 1e-7 * eff.rho0
    assert np.abs(eff.mu1).max() < 1e-7 * scale
    assert eff.diagnostics_ok


def test_dispersion_expansion_slope_1d(med1d):
    gamma = eigenpair_at_gamma(med1d, 0, 32)
    eff = effective_coefficients(solve_cell_functions(gamma))
    res = dispersion_expansion_check(eff, [8.0], [0.04, 0.02, 0.01])
    assert res["slope"] >= 5.5


# ---------------------------------------------------------------------------
# 2D medium
# ---------------------------------------------------------------------------

def test_chi_symmetries_2d(med2d):
    gamma = eigenpair_at_gamma(med2d, 0, 6)
    cell = solve_cell_functions(gamma)
    assert np.allclose(cell.chi2, np.transpose(cell.chi2, (0, 2, 1)))
    for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
        assert np.allclose(cell.chi3, np.transpose(cell.chi3, perm),
                           atol=1e-10)


def test_mu0_isotropic_for_square_symmetric_medium(med2d):
    gamma = eigenpair_at_gamma(med2d, 0, 6)
    eff = effective_coefficients(solve_cell_functions(gamma))
    assert abs(eff.mu0[0, 0] - eff.mu0[1, 1]) < 1e-8
    assert abs(eff.mu0[0, 1]) < 1e-8
    assert eff.mu0[0, 0] > 0


# ---------------------------------------------------------------------------
# Extrapolation in the cutoff
# ---------------------------------------------------------------------------

def test_extrapolated_coefficients_weights(med1d):
    g32 = eigenpair_at_gamma(med1d, 0, 32)
    g16 = eigenpair_at_gamma(med1d, 0, 16)
    e32 = effective_coefficients(solve_cell_functions(g32))
    e16 = effective_coefficients(solve_cell_functions(g16))
    ex = extrapolated_coefficients(e32, e16)
    assert abs(ex.rho0 - (2.0 * e32.rho0 - e16.rho0)) < 1e-14
    assert np.allclose(ex.mu0, 2.0 * e32.mu0 - e16.mu0)
    # correctors stay at the fine level
    assert ex.cell is e32.cell
    with pytest.raises(ValueError):
        extrapolated_coefficients(e16, e32)


# ---------------------------------------------------------------------------
# Diagnostics: dropped imaginary parts, extrapolation, residual bound
# ---------------------------------------------------------------------------

def _rotated_chi1_cell(gamma, monkeypatch, phase=np.exp(0.3j)):
    """Cell hierarchy whose chi1 solutions are turned by a non-real phase;
    A2, chi2 and chi3 are then solved from the turned chi1."""
    solve = ConstrainedSolver.solve
    calls = []

    def rotated(self, rhs):
        calls.append(rhs)
        x = solve(self, rhs)
        return phase * x if len(calls) <= gamma.basis.dimension else x

    with monkeypatch.context() as mp:
        mp.setattr(ConstrainedSolver, "solve", rotated)
        return solve_cell_functions(gamma)


def test_imaginary_mu0_fails_diagnostics(gamma1d_32, eff1d_32, monkeypatch):
    eff = effective_coefficients(_rotated_chi1_cell(gamma1d_32, monkeypatch))
    # the vanishing-by-symmetry tensors still vanish: only the imaginary
    # part of mu0, which .real drops, can fail the diagnostics
    assert np.abs(eff.rho1).max() < 1e-7 * eff.rho0
    assert np.abs(eff.rho2).max() < 1e-7 * eff.rho0
    assert np.abs(eff.mu1).max() < 1e-7 * np.abs(eff.mu0).max()
    assert eff1d_32.diagnostics_ok is True
    assert eff.diagnostics_ok is False


def test_extrapolated_diagnostics_need_both_levels(med1d, eff1d_32,
                                                   monkeypatch):
    g16 = eigenpair_at_gamma(med1d, 0, 16)
    good = effective_coefficients(solve_cell_functions(g16))
    bad = effective_coefficients(_rotated_chi1_cell(g16, monkeypatch))
    assert bad.diagnostics_ok is False
    assert extrapolated_coefficients(eff1d_32, good).diagnostics_ok is True
    assert extrapolated_coefficients(eff1d_32, bad).diagnostics_ok is False


@pytest.mark.parametrize("factor, raises", [(0.99, False), (1.01, True)])
def test_residual_bound(factor, raises):
    """The bordered solve accepts a residual up to 1e-8 * |rhs| (|rhs| >= 1),
    the bound cell.RESIDUAL_BOUND names, and raises SingularSystem just
    above it."""
    S0 = np.diag([0.0, 1.0, 2.0]).astype(complex)
    B = np.eye(3, dtype=complex)
    c0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    solver = ConstrainedSolver(S0, B, 0.0, c0)
    rhs = np.array([0.0, 3.0, 4.0], dtype=complex)      # |rhs| = 5, x = (0, 3, 2)
    # the residual is measured with the stored operator: shifting its (1, 1)
    # entry by delta leaves the LU solution as it is and makes the residual
    # delta * x_1
    delta = factor * 1e-8 * 5.0 / 3.0
    solver._A = solver._A + np.diag([0.0, delta, 0.0])
    if raises:
        with pytest.raises(SingularSystem, match="residual"):
            solver.solve(rhs)
    else:
        assert np.allclose(solver.solve(rhs), [0.0, 3.0, 2.0])


def test_pencil_built_once_per_eigenpair(gamma1d_32, monkeypatch):
    """The cell solve builds the pencil blocks; effective_coefficients only
    takes inner products with the vectors the solve hands over."""
    blocks = cell_module.pencil_blocks
    calls = []
    monkeypatch.setattr(cell_module, "pencil_blocks",
                        lambda *args: calls.append(args) or blocks(*args))
    effective_coefficients(solve_cell_functions(gamma1d_32))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Real pencil blocks times complex vectors
# ---------------------------------------------------------------------------

_CELL_ARRAYS = ("chi1", "chi2", "chi3", "A2", "s1c0", "gc0", "bc0", "bchi1")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_real_block_products_equal_complex_products(med1d, med2d, monkeypatch,
                                                    dim, theta):
    """On a real (centred) pencil the cell solve multiplies the blocks by
    stacked real and imaginary columns; every array it returns equals the
    one from plain complex products.  theta != 0 makes c0 complex too."""
    gamma = eigenpair_at_gamma(med1d if dim == 1 else med2d, 0,
                               32 if dim == 1 else 4)
    gamma = dataclasses.replace(gamma, coeffs=np.exp(1j * theta) * gamma.coeffs)
    assert pencil_blocks(gamma.table, gamma.basis)[0].dtype == np.float64
    split = solve_cell_functions(gamma)
    monkeypatch.setattr(cell_module, "_matvec", lambda A, x: A @ x)
    plain = solve_cell_functions(gamma)
    for name in _CELL_ARRAYS:
        a, b = getattr(split, name), getattr(plain, name)
        assert np.linalg.norm(a - b) <= 1e-13 * np.linalg.norm(b), name


def test_bordered_solve_on_real_pencil_copies_no_block(med1d):
    """One bordered solve at cutoff 256 (M = 513) allocates well under the
    4 MiB that a complex copy of the real M x M operator would take."""
    gamma = eigenpair_at_gamma(med1d, 0, 256)
    S0, S1, _, B = pencil_blocks(gamma.table, gamma.basis)
    assert S0.dtype == np.float64
    solver = ConstrainedSolver(S0, B, gamma.omega2, gamma.coeffs)
    rhs = 1j * (S1[0] @ gamma.coeffs)
    tracemalloc.start()
    try:
        solver.solve(rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# Properties of branch 0 over random sharp two-phase media
# ---------------------------------------------------------------------------

_CUTOFF = {1: 16, 2: 4}


@st.composite
def _sharp_media(draw, dim):
    """One inclusion of random contrast, size and (possibly zero) offset."""
    radius = draw(st.floats(0.05, 0.2))
    centred = draw(st.booleans())
    centre = tuple(0.0 if centred else draw(st.floats(-0.25, 0.25))
                   for _ in range(dim))
    return MediumSpec(dimension=dim,
                      background_G=draw(st.floats(0.2, 5.0)),
                      background_rho=draw(st.floats(0.2, 5.0)),
                      inclusions=(Inclusion(center=centre, radius=radius,
                                            G=draw(st.floats(0.2, 20.0)),
                                            rho=draw(st.floats(0.2, 30.0))),))


def _branch0(spec, theta=0.0):
    gamma = eigenpair_at_gamma(spec, 0, _CUTOFF[spec.dimension])
    gamma = dataclasses.replace(gamma, coeffs=np.exp(1j * theta) * gamma.coeffs)
    return effective_coefficients(solve_cell_functions(gamma))


def _volume_fraction(spec):
    r = spec.inclusions[0].radius
    return 2.0 * r if spec.dimension == 1 else np.pi * r ** 2


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_mu0_between_reuss_and_voigt(dim, data):
    """mu0 of branch 0 is the Galerkin homogenized stiffness: the zero
    corrector bounds it by the arithmetic mean <G> (Voigt), and as a Ritz
    value it lies above the exact tensor and so above <1/G>^-1 (Reuss)."""
    spec = data.draw(_sharp_media(dim))
    f = _volume_fraction(spec)
    G1, G2 = spec.background_G, spec.inclusions[0].G
    voigt = (1.0 - f) * G1 + f * G2
    reuss = 1.0 / ((1.0 - f) / G1 + f / G2)
    lam = np.linalg.eigvalsh(_branch0(spec).mu0)
    assert lam.min() >= reuss * (1.0 - 1e-10)
    assert lam.max() <= voigt * (1.0 + 1e-10)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), theta=st.floats(-np.pi, np.pi))
def test_effective_tensors_phase_gauge_invariant(dim, data, theta):
    """c0 -> exp(i theta) c0 rotates every corrector by the same phase, so
    mu0 and mu2 do not move."""
    spec = data.draw(_sharp_media(dim))
    ref, rot = _branch0(spec), _branch0(spec, theta)
    for name in ("mu0", "mu2"):
        a, b = getattr(rot, name), getattr(ref, name)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_odd_and_cross_tensors_vanish(dim, data):
    eff = _branch0(data.draw(_sharp_media(dim)))
    scale = max(eff.rho0, 1.0)
    assert np.abs(eff.rho1).max() < DIAGNOSTIC_TOL * scale
    assert np.abs(eff.rho2).max() < DIAGNOSTIC_TOL * scale
    assert np.abs(eff.mu1).max() < DIAGNOSTIC_TOL * np.abs(eff.mu0).max()
    assert eff.diagnostics_ok is True
