"""
End-to-end acceptance suite.

Each test prints a one-line PASS summary on the terminal (even under
capture) so a full run doubles as a report.  Module-scoped fixtures share
the expensive eigensolves across criteria.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from blochhomog import (PlaneWaveBasis, ReferenceConfig, SourceSpec,
                        GaussianEnvelope, assemble_operator,
                        convergence_study, dispersion_diagram,
                        disk_2d,
                        effective_coefficients, eigenpair_at_gamma,
                        exact_bloch_solution, extrapolated_coefficients,
                        find_band_gaps, fourier_table, reference_solution,
                        relative_error, solve_bands, solve_cell_functions,
                        two_phase_1d, wavenumber_quadrature)
from blochhomog.source import FrequencySpec


CUTOFFS = (128, 256, 512)


# ---------------------------------------------------------------------------
# Shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eff_by_cutoff(med1d):
    out = {}
    for N in CUTOFFS:
        gamma = eigenpair_at_gamma(med1d, 0, N)
        out[N] = effective_coefficients(solve_cell_functions(gamma))
    return out


@pytest.fixture(scope="module")
def study(source1d, eff_by_cutoff):
    """Order-m field errors vs the finite-difference reference, three eps."""
    gamma = eff_by_cutoff[512].gamma
    eff = extrapolated_coefficients(eff_by_cutoff[512], eff_by_cutoff[256])
    quad_ = wavenumber_quadrature(1, 8.0, 64)
    cfgs = {0.5: ReferenceConfig(half_width=14, points_per_cell=128),
            0.375: ReferenceConfig(half_width=18, points_per_cell=128),
            0.25: ReferenceConfig(half_width=28, points_per_cell=128)}
    return convergence_study(gamma, eff, source1d, quad_, -1, 1.0,
                             [0.5, 0.375, 0.25], cfgs, 10.0)


@pytest.fixture(scope="module")
def diagram_2d(med2d):
    return dispersion_diagram(med2d, cutoff=10, count=14,
                              samples_per_segment=20)


# ---------------------------------------------------------------------------
# 1 + 2: convergence rates and error ordering
# ---------------------------------------------------------------------------

def test_criterion_1_convergence_rates(study, announce):
    bands = {0: (0.7, 1.7), 1: (1.7, 2.6), 2: (2.7, 3.7)}
    for m, (lo, hi) in bands.items():
        assert lo <= study.slopes[m] <= hi, \
            f"order-{m} slope {study.slopes[m]:.3f} outside [{lo}, {hi}]"
    announce("criterion 1 PASS: order-0/1/2 slopes "
             f"{study.slopes[0]:.2f}/{study.slopes[1]:.2f}/"
             f"{study.slopes[2]:.2f} within bands")


def test_criterion_2_error_ordering(study, announce):
    assert study.ordering_ok()
    worst = max(study.errors[2][i] / study.errors[0][i]
                for i in range(len(study.eps)))
    announce("criterion 2 PASS: e2 < e1 < e0 at every eps "
             f"(worst e2/e0 = {worst:.3f})")


# ---------------------------------------------------------------------------
# 3: band structure vs independent oracles
# ---------------------------------------------------------------------------

def _transfer_matrix_edges(G, rho, n_edges):
    """Half-half bilayer band edges from the monodromy trace = +-1."""
    s1, s2 = np.sqrt(rho[0] / G[0]), np.sqrt(rho[1] / G[1])
    z1, z2 = np.sqrt(G[0] * rho[0]), np.sqrt(G[1] * rho[1])

    def trace(w):
        a, b = 0.5 * w * s1, 0.5 * w * s2
        return (np.cos(a) * np.cos(b)
                - (z1 ** 2 + z2 ** 2) / (2 * z1 * z2) * np.sin(a) * np.sin(b))

    ws = np.linspace(1e-6, 30.0, 60001)
    edges = []
    for target in (1.0, -1.0):
        g = trace(ws) - target
        for i in range(len(ws) - 1):
            if g[i] * g[i + 1] < 0:
                edges.append(brentq(lambda w: trace(w) - target,
                                    ws[i], ws[i + 1]))
    return np.sort(np.asarray(edges))[:n_edges]


def test_criterion_3_band_structure(med1d, diagram_2d, announce):
    gaps = find_band_gaps(diagram_2d)
    # Verified structure of this medium on the Gamma-X-M-Gamma path: five
    # complete gaps among the first 14 branches, of which exactly three sit
    # below omega^2 = 31 (the low-frequency window).  See the lowest three:
    assert len(gaps) == 5
    low = [g for g in gaps if g.omega2_high < 31.0]
    assert len(low) == 3
    assert [g.below_branch for g in low] == [0, 2, 3]
    assert low[0].omega2_low == pytest.approx(1.783, abs=0.05)
    assert low[0].omega2_high == pytest.approx(10.04, abs=0.1)
    assert low[1].omega2_low == pytest.approx(13.72, abs=0.1)

    # 1D edges at N = 128 against the transfer-matrix oracle
    oracle = _transfer_matrix_edges((1.0, 6.0), (1.0, 20.0), 4)
    basis = PlaneWaveBasis(1, 128)
    table = fourier_table(med1d, 2 * 128)
    w0 = solve_bands(table, basis, [0.0], 3).omega2
    wp = solve_bands(table, basis, [np.pi], 3).omega2
    # nonzero edges: branches 0 and 1 at k = pi, branches 1 and 2 at k = 0
    edges = np.sort(np.sqrt(np.array([wp[0], wp[1], w0[1], w0[2]])))
    rel = float(np.max(np.abs(edges - oracle) / oracle))
    assert rel < 1e-6
    announce("criterion 3 PASS: three low-frequency 2D gaps (five complete "
             f"in total); 1D edges match transfer matrix to {rel:.1e}")


# ---------------------------------------------------------------------------
# 4: vanishing odd/second-order density diagnostics on smooth media
# ---------------------------------------------------------------------------

def test_criterion_4_vanishing_diagnostics(announce):
    worst = 0.0
    cases = [(two_phase_1d(smoothing=0.05), 0, 64),
             (disk_2d(smoothing=0.05), 0, 8),
             (disk_2d(smoothing=0.05), 3, 8)]
    for spec, branch, N in cases:
        gamma = eigenpair_at_gamma(spec, branch, N)
        eff = effective_coefficients(solve_cell_functions(gamma))
        scale = max(abs(eff.rho0), float(np.linalg.norm(eff.mu0)))
        for name in ("rho1", "mu1", "rho2"):
            resid = float(np.linalg.norm(getattr(eff, name))) / scale
            worst = max(worst, resid)
            assert resid < 1e-7, f"{name} residual {resid:.2e} (branch {branch})"
        assert eff.diagnostics_ok
    announce(f"criterion 4 PASS: rho1/mu1/rho2 all < 1e-7 x scale "
             f"(worst {worst:.1e})")


# ---------------------------------------------------------------------------
# 5: quartic dispersion expansion remainder
# ---------------------------------------------------------------------------

def test_criterion_5_dispersion_expansion(med1d, gamma2d_p3, announce,
                                          dispersion_expansion_check):
    eps_list = [0.04, 0.02, 0.01]
    gamma1 = eigenpair_at_gamma(med1d, 0, 32)
    eff1 = effective_coefficients(solve_cell_functions(gamma1))
    res1 = dispersion_expansion_check(eff1, [8.0], eps_list)
    eff2 = effective_coefficients(solve_cell_functions(gamma2d_p3))
    res2 = dispersion_expansion_check(eff2, [4.0, 0.0], eps_list)
    assert res1["slope"] >= 5.5
    assert res2["slope"] >= 5.5
    announce("criterion 5 PASS: remainder slopes "
             f"{res1['slope']:.2f} (1D), {res2['slope']:.2f} (2D) >= 5.5")


# ---------------------------------------------------------------------------
# 6: classical homogenization limit
# ---------------------------------------------------------------------------

def test_criterion_6_classical_limit(med1d, eff_by_cutoff, announce):
    exact = (12.0 / 7.0) / 10.5       # (harmonic mean G) / (mean rho)

    # package ratio at every cutoff: under the inverse rule mu0 is the
    # harmonic mean of G at any N
    rel = max(abs(eff_by_cutoff[N].mu0[0, 0] / eff_by_cutoff[N].rho0 - exact)
              / exact for N in CUTOFFS)
    assert rel < 1e-6

    # independent oracle: small-k limit of omega0^2(k)/k^2 at matching N,
    # Richardson in k^2 to strip the next expansion term
    worst = 0.0
    for N in CUTOFFS:
        gamma = eff_by_cutoff[N].gamma

        def lim(k):
            return solve_bands(gamma.table, gamma.basis, [k], 1).omega2[0] / k ** 2

        oracle = (4.0 * lim(0.04) - lim(0.08)) / 3.0
        pkg = eff_by_cutoff[N].mu0[0, 0] / eff_by_cutoff[N].rho0
        worst = max(worst, abs(pkg - oracle) / oracle)
    assert worst < 1e-5
    announce(f"criterion 6 PASS: mu0/rho0 = (12/7)/10.5 at N = {CUTOFFS}, "
             f"worst rel {rel:.1e}; "
             f"eigensolver small-k oracle agrees to {worst:.1e}")


# ---------------------------------------------------------------------------
# 7: oracle cross-validation of the exact solver
# ---------------------------------------------------------------------------

def test_criterion_7_oracle_cross_validation(med1d, source1d, announce):
    gamma = eigenpair_at_gamma(med1d, 0, 256)
    eps = 0.25
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma.omega2 - eps ** 2)
    cfg = ReferenceConfig(half_width=28, points_per_cell=128)
    ref = reference_solution(gamma, freq, source1d, cfg)
    quad_ = wavenumber_quadrature(1, 8.0, 128)
    exact = exact_bloch_solution(gamma, freq, source1d, quad_, ref.axes)
    disc = relative_error(ref, exact, 10.0)
    assert disc < 1e-3

    # homogeneous medium: Fourier closed form u(x) = (2 pi)^{-1/2}
    # int F(k) / (k^2 + 1) e^{i k eps x} dk
    from blochhomog import spec_from_dict
    hom = spec_from_dict({"d": 1, "background": {"G": 1.0, "rho": 1.0},
                          "inclusions": []})
    gh = eigenpair_at_gamma(hom, 0, 4)
    fh = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                       omega2=-eps ** 2)
    ax = np.linspace(-6.0, 6.0, 25)
    u = exact_bloch_solution(gh, fh, source1d, quad_, (ax,))
    env = source1d.envelope
    closed = np.array([quad(lambda k: env.spectrum([k])[0] / (k ** 2 + 1)
                            * np.cos(k * eps * x) / np.sqrt(2 * np.pi),
                            -np.inf, np.inf)[0] for x in ax])
    herr = float(np.max(np.abs(u.values - closed)))
    assert herr < 1e-6
    announce(f"criterion 7 PASS: exact vs finite-difference {disc:.1e}; "
             f"homogeneous closed form {herr:.1e}")


# ---------------------------------------------------------------------------
# 8: solver hygiene on the acceptance eigenpairs
# ---------------------------------------------------------------------------

def test_criterion_8_solver_hygiene(eff_by_cutoff, gamma2d_p3, announce):
    worst = 0.0
    cells = [solve_cell_functions(eff_by_cutoff[256].gamma),
             solve_cell_functions(gamma2d_p3)]
    for cell in cells:
        gamma = cell.gamma
        d = gamma.spec.dimension
        _, B = assemble_operator(gamma.table, gamma.basis, np.zeros(d))
        ortho = abs(np.vdot(gamma.coeffs, B @ gamma.coeffs) - 1.0)
        worst = max(worst, float(ortho))
        assert ortho < 1e-10
        bc0 = B @ gamma.coeffs
        for chi in (cell.chi1, cell.chi2, cell.chi3):
            resid = float(np.max(np.abs(
                bc0.conj() @ chi.reshape(chi.shape[0], -1))))
            worst = max(worst, resid)
            assert resid < 1e-10
    announce("criterion 8 PASS: B-orthonormality and zero-mean constraints "
             f"within 1e-10 (worst {worst:.1e})")


# ---------------------------------------------------------------------------
# Reduced 2D field smoke run
# ---------------------------------------------------------------------------

def test_2d_smoke_run(med2d, source2d, announce):
    gamma = eigenpair_at_gamma(med2d, 0, 8)
    eff = effective_coefficients(solve_cell_functions(gamma))
    quad_ = wavenumber_quadrature(2, 8.0, 32)
    cfg = ReferenceConfig(half_width=6, points_per_cell=24,
                          decay_threshold=1e-2)
    rep = convergence_study(gamma, eff, source2d, quad_, -1, 1.0, [0.5],
                            cfg, 5.0, orders=(0, 2))
    e0, e2 = rep.errors[0][0], rep.errors[2][0]
    assert e2 < e0
    announce(f"2D smoke PASS: e2 = {e2:.3f} < e0 = {e0:.3f} at eps = 0.5")
