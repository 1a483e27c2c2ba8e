import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

import blochhomog.bloch as bloch_module
import blochhomog.cell as cell_module
import blochhomog.cli as cli_module
from blochhomog import (CellFunctions, CompatibilityViolation,
                        ConstrainedSolver, FrequencySpec, Inclusion,
                        MediumSpec, SingularSystem, assemble_operator,
                        branch_solution, effective_coefficients,
                        eigenpair_at_gamma, exact_bloch_solution,
                        extrapolated_coefficients, pencil_blocks, solve_bands,
                        solve_cell_functions, symmetrize_full, two_phase_1d,
                        disk_2d)
from blochhomog.bloch import contract
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
    ratio = eff.mu0[0, 0] / eff.rho0
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


def test_dispersion_expansion_slope_1d(med1d, dispersion_expansion_check):
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


def test_pencil_built_once_per_eigenpair(med1d, source1d, quad1d,
                                        monkeypatch):
    """An eigenpair gathers its k = 0 parity blocks once, in
    eigenpair_at_gamma; the cell solve and effective_coefficients reuse
    them.  Its full pencil is lifted from those blocks (ParityBlocks.pencil)
    once, on the first k != 0 solve, and the exact and branch fields share
    it: nothing gathers from the table again (bloch_pencil)."""
    builds = {"bloch_pencil": 0, "parity_blocks": 0}
    lifts = []
    lift = bloch_module.ParityBlocks.pencil
    monkeypatch.setattr(bloch_module.ParityBlocks, "pencil",
                        lambda self: lifts.append(1) or lift(self))
    for name in builds:
        build = getattr(bloch_module, name)

        def counted(*args, _build=build, _name=name):
            builds[_name] += 1
            return _build(*args)
        for module in (bloch_module, cell_module, cli_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    gamma = eigenpair_at_gamma(med1d, 0, 16)
    effective_coefficients(solve_cell_functions(gamma))
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=gamma.omega2 - 0.0625)
    axes = (np.linspace(-1.0, 1.0, 5),)
    exact_bloch_solution(gamma, freq, source1d, quad1d, axes)
    branch_solution(gamma, freq, source1d, quad1d, axes)
    assert builds == {"bloch_pencil": 0, "parity_blocks": 1}
    assert len(lifts) == 1


# ---------------------------------------------------------------------------
# Real pencil blocks times complex vectors
# ---------------------------------------------------------------------------

_CELL_ARRAYS = ("chi1", "chi2", "chi3", "A2", "s1c0", "gc0", "bc0", "bchi1")


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_real_block_products_equal_complex_products(med1d, med2d, monkeypatch,
                                                    dim, theta):
    """On a real (centred) pencil the cell solve multiplies the blocks by
    the float64 view of complex columns; every array it returns equals the
    one from plain complex numpy products.  theta != 0 makes c0 complex
    too."""
    gamma = eigenpair_at_gamma(med1d if dim == 1 else med2d, 0,
                               32 if dim == 1 else 4)
    gamma = dataclasses.replace(gamma, coeffs=np.exp(1j * theta) * gamma.coeffs)
    assert pencil_blocks(gamma.table, gamma.basis)[0].dtype == np.float64
    split = solve_cell_functions(gamma)
    monkeypatch.setattr(cell_module, "contract",
                        lambda A, x: np.tensordot(A, x, 1))
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


def _centred(d, G1, rho1, radius, G2, rho2):
    return MediumSpec(dimension=d, background_G=G1, background_rho=rho1,
                      inclusions=(Inclusion(center=(0.0,) * d, radius=radius,
                                            G=G2, rho=rho2),))


# media whose mu2 cancels, each given as {dimension: spec}; the numbers are
# 1D, theta = 1:
# - "cancelling": mu2 = 1.7e-5 is the difference of its two flux averages,
#   up to 9.8e-4 (_flux_scale); the rotation moves it by 7.7e-18;
# - "near_homogeneous": each flux average cancels inside itself too: mu2 =
#   1.5e-9, _flux_scale 8.9e-9, and the rotation moves mu2 by 3.1e-20,
#   above 1e-12 _flux_scale but well below 1e-12 _roundoff_scale (1.5e-6)
_CANCELLING_MU2 = {
    "cancelling": {d: _centred(d, 2.140625, 3.5, 0.15949950290121123,
                               0.5, 16.0) for d in (1, 2)},
    "near_homogeneous": {d: _centred(d, 0.875, 0.75, 0.125, 0.75, 0.875)
                         for d in (1, 2)}}


def _flux_scale(eff):
    """The larger of the two averages whose difference is mu2 (flux_average
    in effective_coefficients): alpha_p c0^H S1 chi3, alpha_p c0^H Gm chi2."""
    cell = eff.cell
    terms = (np.tensordot(cell.s1c0.conj(), cell.chi3, axes=(0, 0)),
             np.tensordot(cell.gc0.conj(), cell.chi2, axes=(0, 0)))
    return eff.alpha_p * max(np.max(np.abs(t)) for t in terms)


def _roundoff_scale(eff):
    """The roundoff scale of the sums behind mu2: _flux_scale's
    contractions of magnitudes, sum_i |a_i| |b_i|, which no cancellation
    inside a sum makes small."""
    cell = eff.cell
    terms = (np.tensordot(np.abs(cell.s1c0), np.abs(cell.chi3), axes=(0, 0)),
             np.tensordot(np.abs(cell.gc0), np.abs(cell.chi2), axes=(0, 0)))
    return eff.alpha_p * max(np.max(t) for t in terms)


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), theta=st.floats(-np.pi, np.pi))
@example(data="cancelling", theta=1.0)       # a str: _CANCELLING_MU2[data]
@example(data="near_homogeneous", theta=1.0)
def test_effective_tensors_phase_gauge_invariant(dim, data, theta):
    """c0 -> exp(i theta) c0 rotates every corrector by the same phase, so
    mu0 and mu2 do not move beyond the roundoff of the sums they come from:
    max|mu0| for mu0, and for mu2, which can cancel, _roundoff_scale."""
    spec = (_CANCELLING_MU2[data][dim] if isinstance(data, str)
            else data.draw(_sharp_media(dim)))
    ref, rot = _branch0(spec), _branch0(spec, theta)
    scale = {"mu0": np.max(np.abs(ref.mu0)), "mu2": _roundoff_scale(ref)}
    for name in ("mu0", "mu2"):
        a, b = getattr(rot, name), getattr(ref, name)
        assert np.max(np.abs(a - b)) <= 1e-12 * scale[name], name


# the corner of _sharp_media(1) closest to the bound below: the softest,
# thinnest inclusion in the stiffest background, error 9.0e-3 = 2.3 / 256
_SOFT_THIN_1D = MediumSpec(dimension=1, background_G=5.0, background_rho=0.2,
                           inclusions=(Inclusion((0.0,), 0.05, 0.2, 0.2),))


@settings(max_examples=10, deadline=None)
@given(spec=_sharp_media(1))
@example(spec=_SOFT_THIN_1D)
def test_mu0_over_rho0_converges_to_harmonic_over_arithmetic_mean(spec):
    """In 1D the homogenized branch-0 coefficient is <1/G>^-1 / <rho>.  The
    Galerkin mu0/rho0 approaches it like 1/N across a jump of G: the
    relative error falls at every step 16 -> 64 -> 256 until it is roundoff
    (no jump of G: exact at every N), and is below 3/256 at N = 256 for
    every medium _sharp_media(1) draws."""
    f = _volume_fraction(spec)
    inc = spec.inclusions[0]
    exact = (1.0 / ((1.0 - f) / spec.background_G + f / inc.G)
             / ((1.0 - f) * spec.background_rho + f * inc.rho))
    errors = []
    for cutoff in (16, 64, 256):
        eff = effective_coefficients(solve_cell_functions(
            eigenpair_at_gamma(spec, 0, cutoff)))
        errors.append(abs(eff.mu0[0, 0] / eff.rho0 / exact - 1.0))
    assert all(e1 < e0 or e1 < 1e-13 for e0, e1 in zip(errors, errors[1:])), \
        errors
    assert errors[2] < 3.0 / 256, errors


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


# ---------------------------------------------------------------------------
# The zone-center stage in parity blocks against the full pencil
# ---------------------------------------------------------------------------

def _full_cell(gamma) -> CellFunctions:
    """The cell hierarchy on the full pencil (pencil_blocks) with one
    bordered ConstrainedSolver for every corrector, products through the
    package's contract: the reference for the blocked solve."""
    d = gamma.basis.dimension
    S0, S1, Gm, B = pencil_blocks(gamma.table, gamma.basis)
    c0 = gamma.coeffs
    c0 = c0 / np.sqrt(np.real(contract(c0.conj(), contract(B, c0))))
    solver = ConstrainedSolver(S0, B, gamma.omega2, c0)
    gc0, bc0 = contract(Gm, c0), contract(B, c0)
    s1c0 = np.stack([contract(S, c0) for S in S1], axis=1)
    chi1 = np.stack([solver.solve(1j * v) for v in s1c0.T], axis=1)
    A2 = 1j * contract(s1c0.conj().T, chi1)
    A2 = 0.5 * (A2 + A2.T) + np.eye(d) * contract(c0.conj(), gc0)
    chi2 = np.zeros((len(c0), d, d), dtype=complex)
    for a, b in itertools.combinations_with_replacement(range(d), 2):
        rhs = 0.5j * (contract(S1[a], chi1[:, b]) + contract(S1[b], chi1[:, a]))
        chi2[:, a, b] = chi2[:, b, a] = solver.solve(
            rhs + (a == b) * gc0 - A2[a, b] * bc0)
    gchi1, bchi1 = contract(Gm, chi1), contract(B, chi1)
    chi3 = np.zeros((len(c0), d, d, d), dtype=complex)
    for key in itertools.combinations_with_replacement(range(d), 3):
        perms = set(itertools.permutations(key))
        rhs = sum(1j * contract(S1[i], chi2[:, j, l]) + (i == j) * gchi1[:, l]
                  - A2[i, j] * bchi1[:, l] for i, j, l in perms)
        x = solver.solve(rhs / len(perms))
        for p in perms:
            chi3[(slice(None),) + p] = x
    return CellFunctions(gamma=gamma, chi1=chi1, chi2=chi2, chi3=chi3, A2=A2,
                         s1c0=s1c0, gc0=gc0, bc0=bc0, bchi1=bchi1)


def _gauge_distance(c, v, B):
    """B-norm distance of c from v turned onto it by one phase."""
    overlap = np.vdot(v, B @ c)
    r = c - overlap / abs(overlap) * v
    return np.sqrt(abs(np.vdot(r, B @ r)))


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), branch=st.integers(0, 2))
def test_blocked_zone_center_stage_equals_full_solve(dim, data, branch):
    """Over random sharp media, centred (two parity blocks) and off-centre
    (one), branches 0-2: the block eigenvalues are those of the full pencil
    (solve_bands at k = 0) to roundoff of max(|lambda|, 1), c0 is the full
    eigenvector up to its phase, and chi1-chi3, mu0 and mu2 equal those of
    one bordered solver on the full S0 - omega^2 B."""
    spec = data.draw(_sharp_media(dim))
    gamma = eigenpair_at_gamma(spec, branch, _CUTOFF[dim])
    count = branch + 2
    full = solve_bands(gamma.table, gamma.basis, np.zeros(dim), count)
    z = gamma.blocks
    blocked = np.sort(np.concatenate([
        scipy.linalg.eigh(S0, B, eigvals_only=True)
        for S0, B in zip(z.S0, z.B)]))[:count]
    # S0 reaches ~1e5 (G up to 20 times (2 pi N)^2) over B >= 0.2: the
    # roundoff of either eigensolve is ~1e-11 relative
    roundoff = 1e-10 * np.maximum(np.abs(full.omega2), 1.0)
    assert np.all(np.abs(blocked - full.omega2) <= roundoff)
    assert abs(gamma.omega2 - full.omega2[branch]) <= roundoff[branch]
    assume(gamma.separation > 1e-3)        # a well-determined eigenvector
    _, B = assemble_operator(gamma.table, gamma.basis, np.zeros(dim))
    assert _gauge_distance(gamma.coeffs, full.vectors[:, branch], B) < 1e-9
    cell, ref = solve_cell_functions(gamma), _full_cell(gamma)
    for name in ("chi1", "chi2", "chi3"):
        a, b = getattr(cell, name), getattr(ref, name)
        assert np.linalg.norm(a - b) <= 1e-9 * max(np.linalg.norm(b), 1.0), name
    eff, eff_ref = effective_coefficients(cell), effective_coefficients(ref)
    assert np.max(np.abs(eff.mu0 - eff_ref.mu0)) <= 1e-10 * np.abs(eff_ref.mu0).max()
    assert np.max(np.abs(eff.mu2 - eff_ref.mu2)) <= 1e-9 * _flux_scale(eff_ref)


@pytest.mark.parametrize("dim", [1, 2])
def test_degenerate_branch_is_not_simple_in_blocks(dim):
    """The homogeneous medium's branch 1 is cos/sin (1D) or cos/sin along
    both axes (2D): its copies fall in different parity blocks, and the
    merged spectrum still reports them as one non-simple eigenvalue."""
    homog = MediumSpec(dimension=dim, background_G=1.0, background_rho=1.0)
    gamma = eigenpair_at_gamma(homog, 1, 4)
    assert len(gamma.blocks.index) == 2
    assert not gamma.simple and gamma.separation < 1e-12
    assert np.isclose(gamma.omega2, (2 * np.pi) ** 2)


def test_offcentre_medium_takes_one_block_exactly_as_the_full_solve():
    """A complex table has one block, the full pencil: the blocked cell
    solve is the full bordered solve, bit for bit."""
    spec = MediumSpec(dimension=1, background_G=1.0, background_rho=1.0,
                      inclusions=(Inclusion((0.15,), 0.2, 6.0, 20.0),))
    gamma = eigenpair_at_gamma(spec, 1, 12)
    assert len(gamma.blocks.index) == 1
    assert np.iscomplexobj(gamma.blocks.S0[0])
    cell, ref = solve_cell_functions(gamma), _full_cell(gamma)
    for name in _CELL_ARRAYS:
        np.testing.assert_array_equal(getattr(cell, name), getattr(ref, name),
                                      err_msg=name)
