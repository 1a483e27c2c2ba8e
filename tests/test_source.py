import numpy as np
import pytest
from scipy.integrate import quad

from blochhomog import (GaussianEnvelope, NotInGap, SourceSpec, bloch_pencil,
                        dispersion_diagram, eigenpair_at_gamma,
                        find_band_gaps, make_frequency, sample_source,
                        synthesize_periodic, wavenumber_quadrature)
from blochhomog.fields import _grid_points


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def test_modulation_matches_brute_force_integral():
    """Closed-form Gaussian modulation vs direct quadrature of the
    defining integral (2 pi)^{-1/2} int F(k) exp(i k y) dk."""
    env = GaussianEnvelope(1)
    for y in (0.0, 0.7, -2.3):
        brute = quad(lambda k: env.spectrum([k])[0] * np.cos(k * y) / np.sqrt(2 * np.pi),
                     -np.inf, np.inf)[0]
        assert abs(env.modulation(np.array(y)) - brute) < 1e-10


def test_modulation_2d_closed_form():
    env2 = GaussianEnvelope(2)
    y = np.array([0.4, -1.1])
    m2 = env2.modulation(y)
    pref = (2 * np.pi) ** -1.0 * env2.amplitude * (2 * np.sqrt(np.pi)) ** 2
    assert abs(m2 - pref * np.exp(-np.sum(y ** 2))) < 1e-14


def test_spectrum_even_and_positive_at_origin():
    env = GaussianEnvelope(2)
    k = np.array([[0.5, -1.0]])
    assert abs(env.spectrum(k)[0] - env.spectrum(-k)[0]) < 1e-15
    assert env.spectrum(np.array([[0.0, 0.0]]))[0] > 0


def test_tail_mass_small_at_default_cutoff():
    env = GaussianEnvelope(1)
    assert env.tail_mass(8.0) < 1e-7
    assert env.tail_mass(8.0) < env.tail_mass(4.0)


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(envelope=GaussianEnvelope(1), k_max=-1.0)


# ---------------------------------------------------------------------------
# Frequency validation
# ---------------------------------------------------------------------------

def test_make_frequency_sub_acoustic(med1d, gamma1d_32):
    diagram = dispersion_diagram(med1d, cutoff=16, count=4,
                                 samples_per_segment=20)
    freq = make_frequency(gamma1d_32, diagram, -1, 1.0, 0.25)
    assert abs(freq.omega2 - (-0.0625)) < 1e-14
    with pytest.raises(NotInGap):
        make_frequency(gamma1d_32, diagram, +1, 1.0, 0.25)


def test_make_frequency_below_spectrum_needs_no_diagram(med1d, gamma1d_32):
    """Every Bloch eigenvalue is >= 0, so omega^2 < 0 is accepted whatever
    the spectrum data, and an empty gap list admits exactly such drives."""
    diagram = dispersion_diagram(med1d, cutoff=16, count=4,
                                 samples_per_segment=20)
    for gaps in ([], find_band_gaps(diagram), diagram):
        assert make_frequency(gamma1d_32, gaps, -1, 1.0, 0.25) == \
            make_frequency(gamma1d_32, diagram, -1, 1.0, 0.25)
    # a window without any sample cannot validate omega^2 >= 0, but
    # omega^2 < 0 needs no sample
    far = make_frequency(gamma1d_32, diagram, -1, 1.0, 0.25, k_window=-1.0)
    assert far.omega2 < 0
    with pytest.raises(ValueError, match="k_window"):
        make_frequency(gamma1d_32, diagram, +1, 1.0, 0.25, k_window=-1.0)
    with pytest.raises(NotInGap):
        make_frequency(gamma1d_32, [], +1, 1.0, 0.25)


def test_make_frequency_gap_list_path(med1d):
    diagram = dispersion_diagram(med1d, cutoff=16, count=4,
                                 samples_per_segment=20)
    gaps = find_band_gaps(diagram)
    gamma1 = eigenpair_at_gamma(med1d, 1, 16)
    # branch 1 tops out at k = 0; sigma = +1 lands in the next gap
    freq = make_frequency(gamma1, gaps, +1, 1.0, 0.25)
    assert any(g.contains(freq.omega2) for g in gaps)
    with pytest.raises(NotInGap):
        make_frequency(gamma1, gaps, -1, 1.0, 0.25)


def test_make_frequency_2d_p3(med2d, gamma2d_p3):
    diagram = dispersion_diagram(med2d, cutoff=8, count=6,
                                 samples_per_segment=12)
    # branch 3 dips below omega_3^2(0) far from the zone center, so the
    # frequency sits in a local (not complete) gap: the global check rejects
    # it while the window matched to the source support accepts it
    with pytest.raises(NotInGap):
        make_frequency(gamma2d_p3, diagram, -1, 1.0, 0.25)
    freq = make_frequency(gamma2d_p3, diagram, -1, 1.0, 0.25, k_window=2.0)
    mask = np.max(np.abs(diagram.k_points), axis=1) <= 2.0
    assert diagram.omega2[mask, 2].max() < freq.omega2 < diagram.omega2[mask, 3].min()


def test_make_frequency_input_validation(gamma1d_32):
    with pytest.raises(ValueError):
        make_frequency(gamma1d_32, [], 0, 1.0, 0.25)
    with pytest.raises(ValueError):
        make_frequency(gamma1d_32, [], -1, -1.0, 0.25)


# ---------------------------------------------------------------------------
# Source sampling
# ---------------------------------------------------------------------------

def _quadrature_modulation(env, quad_, y):
    """(2 pi)^{-d/2} sum_k w F(k) exp(i k.y): the defining integral of the
    modulation by the wavenumber quadrature."""
    d = quad_.dimension
    F = env.spectrum(quad_.nodes)
    phase = np.exp(1j * (y.reshape(-1, d) @ quad_.nodes.T))
    return ((2.0 * np.pi) ** (-d / 2.0)
            * (phase @ (quad_.weights * F))).reshape(y.shape[:-1])


def test_modulation_quadrature_agrees_with_closed_form():
    # k_max = 10 keeps the envelope-tail truncation below the 1e-8 target
    env = GaussianEnvelope(1)
    y = 0.5 * np.linspace(-12.0, 12.0, 401)[:, None]
    numeric = _quadrature_modulation(env, wavenumber_quadrature(1, 10.0, 96), y)
    assert np.max(np.abs(env.modulation(y) - numeric)) < 1e-8


def test_modulation_quadrature_2d():
    env = GaussianEnvelope(2)
    g = 0.5 * np.linspace(-3.0, 3.0, 31)
    y = _grid_points((g, g))
    numeric = _quadrature_modulation(env, wavenumber_quadrature(2, 10.0, 48), y)
    assert np.max(np.abs(env.modulation(y) - numeric)) < 1e-8


def test_source_even_for_centered_medium(gamma1d_32, source1d):
    x = np.linspace(-6.0, 6.0, 121)
    f = sample_source(gamma1d_32, source1d, 0.5, x)
    assert np.max(np.abs(f - f[::-1])) < 1e-10 * np.max(np.abs(f))


# ---------------------------------------------------------------------------
# Projection closed form
# ---------------------------------------------------------------------------

def projection_check(gamma, source, eps, k, coeffs_other, half_width,
                     points_per_cell=32):
    """Discrepancy between the closed-form projection of the source onto a
    Bloch mode and its brute-force trapezoid evaluation.

    Closed form: int f_eps(eps x) conj(e^{ik.x} phi(x)) dx
               = eps^{-d} (2 pi)^{d/2} conj(<rho conj(phi_p) phi>) F(k/eps).
    """
    d = gamma.spec.dimension
    Bmat = bloch_pencil(gamma.table, gamma.basis).B
    # <rho conj(phi_p) phi> with phi = the other mode
    inner = np.vdot(gamma.coeffs, Bmat @ np.asarray(coeffs_other))
    k = np.atleast_1d(np.asarray(k, dtype=float))
    F = source.envelope.spectrum((k / eps)[None, :])[0]
    closed = (eps ** -d) * (2.0 * np.pi) ** (d / 2.0) * np.conj(inner) * F

    h = 1.0 / points_per_cell
    n = int(round(2 * half_width / h))
    ax = -half_width + (np.arange(n) + 0.5) * h
    pts = _grid_points((ax,) * d)
    fvals = sample_source(gamma, source, eps, pts)
    mode = np.exp(1j * (pts @ k)) * synthesize_periodic(
        gamma.basis, np.asarray(coeffs_other), pts)
    brute = np.sum(fvals * np.conj(mode)) * h ** d
    return abs(brute - closed)


def test_projection_check_same_mode(gamma1d_32, source1d):
    diff = projection_check(gamma1d_32, source1d, 0.5, [0.0],
                            gamma1d_32.coeffs, half_width=14.0)
    # closed form has magnitude eps^-1 sqrt(2 pi) F(0) ~ 1.4
    assert diff < 1e-6


def test_projection_check_orthogonal_mode(med1d, source1d):
    from blochhomog import solve_bands
    gamma = eigenpair_at_gamma(med1d, 0, 16)
    sol = solve_bands(gamma.table, gamma.basis, [0.0], 3)
    other = sol.vectors[:, 2]
    # closed form is exactly zero; the brute integral carries the O(h^2)
    # midpoint error of the discontinuous integrand
    d_coarse = projection_check(gamma, source1d, 0.5, [0.0], other,
                                half_width=14.0, points_per_cell=64)
    d_fine = projection_check(gamma, source1d, 0.5, [0.0], other,
                              half_width=14.0, points_per_cell=256)
    assert d_fine < 1e-4
    assert d_fine < 0.1 * d_coarse


def test_projection_check_decays_with_domain(gamma1d_32, source1d):
    d_small = projection_check(gamma1d_32, source1d, 0.5, [0.0],
                               gamma1d_32.coeffs, half_width=4.0)
    d_large = projection_check(gamma1d_32, source1d, 0.5, [0.0],
                               gamma1d_32.coeffs, half_width=12.0)
    assert d_large < d_small
