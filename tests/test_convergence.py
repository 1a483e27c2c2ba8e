import numpy as np
import pytest

from blochhomog import (DecayCheckFailed, FieldOnGrid, GaussianEnvelope,
                        ReferenceConfig, SourceSpec, convergence_study,
                        eigenpair_at_gamma, exact_bloch_solution,
                        reference_solution, relative_error, slope_fit,
                        spec_from_dict, wavenumber_quadrature)
from blochhomog.source import FrequencySpec


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
