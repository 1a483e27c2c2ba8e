import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import trapezoid

import blochhomog
from blochhomog import convergence
from blochhomog import (DecayCheckFailed, FieldOnGrid, GaussianEnvelope,
                        ReferenceConfig, SourceSpec, convergence_study,
                        eigenpair_at_gamma, exact_bloch_solution,
                        reference_solution, relative_error, slope_fit,
                        spec_from_dict, wavenumber_quadrature)
from blochhomog.source import FrequencySpec, drive_frequency


# ---------------------------------------------------------------------------
# Metric and slope fit
# ---------------------------------------------------------------------------

def _field(ax, vals):
    return FieldOnGrid(axes=(ax,), values=vals, label="t")


def test_relative_error_identical_is_zero():
    ax = np.linspace(-4, 4, 33)
    v = np.exp(-ax ** 2) + 0j
    assert relative_error(_field(ax, v), _field(ax, v), 3.0) == 0.0


def test_relative_error_doubled_field_is_one():
    ax = np.linspace(-4, 4, 33)
    v = np.exp(-ax ** 2) + 0j
    e = relative_error(_field(ax, v), _field(ax, 2 * v), 3.0)
    assert abs(e - 1.0) < 1e-13


def test_relative_error_shape_mismatch():
    ax = np.linspace(-4, 4, 33)
    v = np.ones(33, dtype=complex)
    with pytest.raises(ValueError):
        relative_error(_field(ax, v), _field(ax[:-1], v[:-1]), 3.0)


def test_relative_error_window_restricts_support():
    # error located outside the evaluation window is invisible
    ax = np.linspace(-10, 10, 201)
    v = np.exp(-ax ** 2) + 0j
    w = v.copy()
    w[np.abs(ax) > 6] += 5.0
    assert relative_error(_field(ax, v), _field(ax, w), 5.0) < 1e-14


@pytest.mark.parametrize("eval_half_width", [0.5, 0.25])
def test_relative_error_of_an_empty_window_raises(eval_half_width):
    """A window of one point (x = 0) or none has a zero reference norm:
    a ValueError, not the NaN of 0/0."""
    ax = np.linspace(-4, 4, 33)
    v = np.exp(-ax ** 2) + 0j
    with pytest.raises(ValueError, match="zero norm"):
        relative_error(_field(ax, v), _field(ax, 2 * v), eval_half_width)


@pytest.mark.parametrize("shape", [(37,), (23, 31)])
def test_trapezoid_bitwise_equals_scipy(shape):
    """relative_error's trapezoid sum is scipy.integrate.trapezoid's own
    expression: bitwise equal along each axis and nested over the axes, on
    random 1D and 2D fields and nonuniform axes."""
    rng = np.random.default_rng(len(shape))
    y = rng.standard_normal(shape) ** 2
    axes = [np.sort(rng.uniform(-5.0, 5.0, n)) for n in shape]
    assert np.array_equal(convergence._trapezoid(y, axes[-1]),
                          trapezoid(y, axes[-1], axis=-1))
    ours, ref = y, y
    for axis in reversed(range(len(shape))):
        ours = convergence._trapezoid(ours, axes[axis])
        ref = trapezoid(ref, axes[axis], axis=axis)
    assert ours == ref


def test_cli_import_leaves_out_scipy_integrate():
    """scipy.integrate costs a quarter of the package's import time, and
    nothing in the package needs it: the CLI does not import it."""
    src = os.path.dirname(os.path.dirname(blochhomog.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, blochhomog.cli; "
         "print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_slope_fit_exact_power_law():
    eps = [0.5, 0.25, 0.125]
    s, resid = slope_fit(eps, [7.0 * e ** 3 for e in eps])
    assert abs(s - 3.0) < 1e-12
    assert resid < 1e-12


def test_slope_fit_with_noise():
    rng = np.random.default_rng(7)
    eps = np.array([0.5, 0.35, 0.25, 0.175, 0.125])
    errs = 3.0 * eps ** 2 * (1.0 + 0.01 * rng.standard_normal(len(eps)))
    s, _ = slope_fit(eps, errs)
    assert abs(s - 2.0) < 0.05


# ---------------------------------------------------------------------------
# Finite-difference reference
# ---------------------------------------------------------------------------

def _homog_ref_setup(d, cutoff, nodes):
    spec = spec_from_dict({"d": d, "background": {"G": 1.0, "rho": 1.0},
                           "inclusions": []})
    gamma = eigenpair_at_gamma(spec, 0, cutoff)
    source = SourceSpec(envelope=GaussianEnvelope(d), k_max=8.0)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    return gamma, freq, source, wavenumber_quadrature(d, 8.0, nodes)


@pytest.fixture(scope="module")
def homog_ref_setup():
    return _homog_ref_setup(1, 4, 128)


# d -> (cutoff, quadrature nodes per axis, half width, points per cell)
SECOND_ORDER_CASES = {1: (4, 128, 20, (8, 16, 32)),
                      2: (2, 64, 16, (1, 2, 4))}


@pytest.mark.parametrize("d", [1, 2])
def test_reference_second_order_in_h(d):
    """On a constant-coefficient medium the spectral solution is exact, so
    the finite-difference error must shrink by ~4x per mesh doubling."""
    cutoff, nodes, half_width, ppcs = SECOND_ORDER_CASES[d]
    gamma, freq, source, quad_ = _homog_ref_setup(d, cutoff, nodes)
    errs = []
    for ppc in ppcs:
        cfg = ReferenceConfig(half_width=half_width, points_per_cell=ppc,
                              decay_threshold=1e-3)
        ref = reference_solution(gamma, freq, source, cfg)
        exact = exact_bloch_solution(gamma, freq, source, quad_, ref.axes)
        errs.append(relative_error(exact, ref, 8.0))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_reference_records_boundary_ratio(homog_ref_setup):
    gamma, freq, source, _ = homog_ref_setup
    cfg = ReferenceConfig(half_width=20, points_per_cell=16,
                          decay_threshold=1e-3)
    ref = reference_solution(gamma, freq, source, cfg)
    assert 0.0 < ref.meta["boundary_ratio"] < 1e-3
    assert ref.meta["eps"] == 0.5


def test_reference_decay_check(homog_ref_setup):
    gamma, freq, source, _ = homog_ref_setup
    cfg = ReferenceConfig(half_width=4, points_per_cell=16,
                          decay_threshold=1e-6)
    with pytest.raises(DecayCheckFailed):
        reference_solution(gamma, freq, source, cfg)


def _tridiagonal_and_superlu(gamma, freq, source, cfg):
    """The 1D reference, and a SuperLU solve of the very stencil and
    right-hand side the reference handed to ?gtsv, assembled here with
    sp.diags."""
    seen = []

    def spy(names, arrays):
        gtsv = scipy.linalg.get_lapack_funcs(names, arrays)[0]

        def record(dl, d, du, b, **kw):
            seen.append([a.copy() for a in (dl, d, du, b)])
            return gtsv(dl, d, du, b, **kw)
        return (record,)

    with mock.patch.object(convergence, "get_lapack_funcs", spy):
        ref = reference_solution(gamma, freq, source, cfg)
    (dl, d, du, b), = seen
    assert np.array_equal(dl, du)
    A = sp.diags([dl, d, du], offsets=[-1, 0, 1], format="csc")
    sol = spla.splu(A, permc_spec="MMD_AT_PLUS_A").solve(b)
    u = np.zeros_like(ref.values)
    u[1:-1] = sol[:, 0] + 1j * sol[:, 1]
    return ref.values, u


def test_reference_tridiagonal_matches_superlu_below_spectrum(gamma1d_32,
                                                             source1d):
    """Below the spectrum A is positive definite; ?gtsv agrees with SuperLU
    on the same stencil to 1e-12 of max |u|."""
    freq = drive_frequency(gamma1d_32, -1, 1.0, 0.25)
    u, v = _tridiagonal_and_superlu(gamma1d_32, freq, source1d,
                                    ReferenceConfig(28, 64, 1e-6))
    assert np.max(np.abs(u - v)) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("sigma", [1, -1])
def test_reference_tridiagonal_matches_superlu_in_gap(med1d, source1d,
                                                      sigma):
    """An in-gap drive off branch 1 makes A indefinite, so ?gtsv pivots;
    it agrees with SuperLU on the same stencil to 1e-9 of max |u| (the
    drive is near resonant, which amplifies both solves' roundoff)."""
    gamma = eigenpair_at_gamma(med1d, 1, 32)
    freq = drive_frequency(gamma, sigma, 1.0, 0.25)
    u, v = _tridiagonal_and_superlu(gamma, freq, source1d,
                                    ReferenceConfig(14, 32, 1.0))
    assert np.max(np.abs(u - v)) <= 1e-9 * np.max(np.abs(u))


def test_reference_warns_on_interface_inside_a_cell(gamma1d_32, source1d):
    """The interfaces x = -1/4, 1/4 of two_phase_1d are nodes at 64 points
    per cell and lie inside grid cells at 63, where the reference is only
    O(h): that grid warns, naming the interfaces, points_per_cell and
    half_width."""
    freq = drive_frequency(gamma1d_32, -1, 1.0, 0.5)
    caught = {}
    for ppc in (63, 64):
        with warnings.catch_warnings(record=True) as caught[ppc]:
            warnings.simplefilter("always")
            reference_solution(gamma1d_32, freq, source1d,
                               ReferenceConfig(6, ppc, 1.0))
    assert caught[64] == []
    (w,) = caught[63]
    assert w.category is UserWarning
    assert ("x = [-0.25, 0.25] lie inside grid cells (points_per_cell 63, "
            "half_width 6)" in str(w.message))


def test_reference_singular_stencil_raises(homog_ref_setup):
    """Three nodes with G = rho = 1 and h = 1/4: omega^2 = 2/h^2 zeroes the
    diagonal, and elimination meets an exact zero pivot."""
    gamma, _, source, _ = homog_ref_setup
    freq = FrequencySpec(branch=0, sigma=1, omega_hat=1.0, eps=0.5,
                         omega2=32.0)
    with pytest.raises(scipy.linalg.LinAlgError, match="omega\\^2 = 32"):
        reference_solution(gamma, freq, source, ReferenceConfig(0, 4, 1.0))


def test_reference_singular_stencil_raises_2d():
    """The 2D twin: 3 x 3 nodes with G = rho = 1 and h = 1/4, where
    omega^2 = 4/h^2 zeroes the diagonal; SuperLU's singular factor is a
    LinAlgError naming omega^2 (CLI exit 3), as in 1D."""
    gamma, _, source, _ = _homog_ref_setup(2, 2, 8)
    freq = FrequencySpec(branch=0, sigma=1, omega_hat=1.0, eps=0.5,
                         omega2=64.0)
    with pytest.raises(scipy.linalg.LinAlgError, match="omega\\^2 = 64"):
        reference_solution(gamma, freq, source, ReferenceConfig(0, 4, 1.0))


def test_reference_2d_runs_and_decays(med2d, source2d):
    gamma = eigenpair_at_gamma(med2d, 0, 4)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    cfg = ReferenceConfig(half_width=6, points_per_cell=16,
                          decay_threshold=1e-1)
    ref = reference_solution(gamma, freq, source2d, cfg)
    assert ref.values.shape == (len(ref.axes[0]),) * 2
    mid = len(ref.axes[0]) // 2
    assert np.abs(ref.values).max() == pytest.approx(
        np.abs(ref.values[mid - 8:mid + 8, mid - 8:mid + 8]).max())


# ---------------------------------------------------------------------------
# Study harness
# ---------------------------------------------------------------------------

def test_convergence_study_ordering_and_slopes(med1d, source1d):
    gamma = eigenpair_at_gamma(med1d, 0, 64)
    from blochhomog import effective_coefficients, solve_cell_functions
    eff = effective_coefficients(solve_cell_functions(gamma))
    quad_ = wavenumber_quadrature(1, 8.0, 64)
    cfgs = {0.5: ReferenceConfig(12, 32, 1e-3),
            0.25: ReferenceConfig(16, 32, 1e-3)}
    rep = convergence_study(gamma, eff, source1d, quad_, -1, 1.0,
                            [0.5, 0.25], cfgs, 8.0)
    assert rep.ordering_ok()
    assert rep.slopes[0] > 0.8
    assert rep.slopes[1] > rep.slopes[0]
    d = rep.to_dict()
    assert set(d["errors"]) == {"0", "1", "2"}
    assert set(rep.meta["boundary_ratio"]) == {0.5, 0.25}


def test_convergence_study_scalar_config(med1d, source1d):
    gamma = eigenpair_at_gamma(med1d, 0, 32)
    from blochhomog import effective_coefficients, solve_cell_functions
    eff = effective_coefficients(solve_cell_functions(gamma))
    quad_ = wavenumber_quadrature(1, 8.0, 64)
    rep = convergence_study(gamma, eff, source1d, quad_, -1, 1.0, [0.5],
                            ReferenceConfig(12, 16, 1e-3), 8.0, orders=(0, 2))
    assert rep.orders == [0, 2]
    assert rep.errors[2][0] < rep.errors[0][0]


def test_convergence_study_rejects_a_drive_a_branch_crosses(med1d,
                                                            source1d):
    """sigma = +1 drives branch 0 above omega_0^2(0) = 0, on the acoustic
    branch: the study raises NotInGap naming the branch before any
    reference solve, where a reference would fail its decay check."""
    gamma = eigenpair_at_gamma(med1d, 0, 16)
    from blochhomog import (NotInGap, effective_coefficients,
                            solve_cell_functions)
    eff = effective_coefficients(solve_cell_functions(gamma))
    quad_ = wavenumber_quadrature(1, 8.0, 64)
    with mock.patch.object(convergence, "reference_solution") as solve, \
            pytest.raises(NotInGap, match="intersects branch 0"):
        convergence_study(gamma, eff, source1d, quad_, +1, 1.0, [0.5],
                          ReferenceConfig(12, 16, 1e-3), 8.0)
    solve.assert_not_called()


def test_reference_config_needs_a_point_per_cell():
    with pytest.raises(ValueError, match="points_per_cell must be >= 1"):
        ReferenceConfig(12, 0, 1e-3)


@pytest.mark.parametrize("half_width, threshold",
                         [(-1, 1e-3), (12, 0.0), (12, -1e-3),
                          (12, float("nan"))])
def test_reference_config_needs_a_domain_and_a_threshold(half_width,
                                                         threshold):
    with pytest.raises(ValueError, match="reference needs half_width >= 0"):
        ReferenceConfig(half_width, 16, threshold)
    ReferenceConfig(0, 16, 1e-3)                     # the least domain


@pytest.mark.parametrize("d", [1, 2])
def test_study_errors_equal_full_grid_errors(med1d, med2d, source1d,
                                             source2d, d):
    """The study synthesizes the homogenized fields on the evaluation
    window alone; its errors equal relative_error of the fields synthesized
    on the whole reference grid, to 1e-13 relative, in 1D and 2D."""
    from blochhomog import (drive_frequency, effective_coefficients,
                            homogenized_fields, solve_cell_functions)
    medium, source = (med1d, source1d) if d == 1 else (med2d, source2d)
    gamma = eigenpair_at_gamma(medium, 0, 32 if d == 1 else 4)
    eff = effective_coefficients(solve_cell_functions(gamma))
    quad_ = wavenumber_quadrature(d, 8.0, 64 if d == 1 else 12)
    cfg = ReferenceConfig(12, 16, 1e-3) if d == 1 else \
        ReferenceConfig(6, 8, 1e-1)
    eval_hw = 8.0 if d == 1 else 4.0
    eps_list = [0.5, 0.375]
    rep = convergence_study(gamma, eff, source, quad_, -1, 1.0, eps_list,
                            cfg, eval_hw)
    for i, eps in enumerate(eps_list):
        freq = drive_frequency(gamma, -1, 1.0, eps)
        ref = reference_solution(gamma, freq, source, cfg)
        full = homogenized_fields(eff, freq, source, quad_, (0, 1, 2),
                                  ref.axes)
        for m in (0, 1, 2):
            e = relative_error(ref, full[m], eval_hw)
            assert abs(rep.errors[m][i] - e) <= 1e-13 * e
