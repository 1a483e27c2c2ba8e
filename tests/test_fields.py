import dataclasses
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)
from scipy.integrate import quad

from blochhomog import (BlochPencil, EnvelopeSingularity, FieldOnGrid,
                        GapViolation, GaussianEnvelope, Inclusion, MediumSpec,
                        SourceSpec, PlaneWaveBasis, assemble_operator,
                        bloch_pencil, branch_solution,
                        disk_2d,
                        effective_coefficients, effective_envelope,
                        eigenpair_at_gamma,
                        exact_bloch_solution, export_field_csv,
                        export_field_npz, fourier_table, homogenized_field,
                        homogenized_fields, solve_bands,
                        solve_cell_functions, synthesize_periodic,
                        two_phase_1d, wavenumber_quadrature)
from blochhomog import fields
from blochhomog.bloch import _eigenvalues_below
from blochhomog.fields import (SYNTH_BLOCK, _fold_axes,
                               _grid_points, _nonperiodic_phase,
                               _periodic_phase, _periodic_sum,
                               _resolvent_term,
                               uniform_axis)
from blochhomog.source import FrequencySpec


@pytest.fixture(scope="module")
def homog_setup():
    spec = MediumSpec(dimension=1, background_G=1.0, background_rho=1.0)
    gamma = eigenpair_at_gamma(spec, 0, 4)
    eff = effective_coefficients(solve_cell_functions(gamma))
    source = SourceSpec(envelope=GaussianEnvelope(1), k_max=8.0)
    quad_ = wavenumber_quadrature(1, 8.0, 64)
    return gamma, eff, source, quad_


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def quadrature_self_test(quad_):
    """Worst relative error integrating exp(-|k|^2/4) and k^2 exp(-|k|^2/4)."""
    from scipy.special import erf
    k = quad_.axis_nodes
    w = quad_.axis_weights
    a = quad_.k_max
    exact0 = 2.0 * np.sqrt(np.pi) * erf(a / 2.0)
    got0 = float(w @ np.exp(-k ** 2 / 4.0))
    exact2 = 4.0 * np.sqrt(np.pi) * erf(a / 2.0) - 4.0 * a * np.exp(-a ** 2 / 4.0)
    got2 = float(w @ (k ** 2 * np.exp(-k ** 2 / 4.0)))
    return max(abs(got0 - exact0) / exact0, abs(got2 - exact2) / abs(exact2))


def test_quadrature_self_test_gauss():
    q = wavenumber_quadrature(1, 8.0, 64)
    assert quadrature_self_test(q) < 1e-12
    assert np.all(q.weights > 0)


@pytest.mark.parametrize("rule", ["gauss", "trapezoid"])
def test_quadrature_nodes_exactly_symmetric(rule):
    """The exact solver pairs each node with its negative by exact match."""
    q = wavenumber_quadrature(1, 8.0, 64, rule=rule)
    assert np.array_equal(q.axis_nodes, -q.axis_nodes[::-1])
    assert abs(q.axis_nodes[-1]) <= 8.0


def test_quadrature_self_test_trapezoid():
    q = wavenumber_quadrature(1, 8.0, 257, rule="trapezoid")
    assert quadrature_self_test(q) < 1e-5
    assert np.all(q.weights > 0)


def test_quadrature_2d_tensor_weights():
    q = wavenumber_quadrature(2, 8.0, 16)
    assert q.nodes.shape == (256, 2)
    # total weight = area of the square
    assert abs(np.sum(q.weights) - 16.0 ** 2) < 1e-10


def test_quadrature_unknown_rule():
    with pytest.raises(ValueError):
        wavenumber_quadrature(1, 8.0, 16, rule="simpson")


# ---------------------------------------------------------------------------
# Exact solution vs closed-form convolution (homogeneous medium)
# ---------------------------------------------------------------------------

def test_exact_solution_matches_greens_convolution(homog_setup):
    """For G = rho = 1, p = 0, omega^2 = -eps^2, the field solves
    -u'' + eps^2 u = eps^2 g(eps x) and equals the convolution of g with
    the exponential kernel exp(-eps|x|)/(2 eps)."""
    gamma, _, source, _ = homog_setup
    eps = 0.25
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=-eps ** 2)
    quad_ = wavenumber_quadrature(1, 8.0, 128)
    ax = np.linspace(-8.0, 8.0, 65)
    u = exact_bloch_solution(gamma, freq, source, quad_, (ax,))

    g = source.envelope.modulation
    for i in (0, 10, 32, 50, 64):
        x = ax[i]
        val = quad(lambda y: g(np.array(eps * y)) *
                   np.exp(-eps * abs(x - y)) / (2.0 * eps),
                   -np.inf, np.inf, limit=200)[0] * eps ** 2
        assert abs(u.values[i] - val) < 1e-8


def test_branch_solution_equals_exact_for_homogeneous(homog_setup):
    gamma, _, source, quad_ = homog_setup
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    ax = np.linspace(-6.0, 6.0, 49)
    u = exact_bloch_solution(gamma, freq, source, quad_, (ax,))
    up = branch_solution(gamma, freq, source, quad_, (ax,))
    assert np.max(np.abs(u.values - up.values)) < 1e-10


def test_linearity_in_envelope(homog_setup):
    gamma, _, _, quad_ = homog_setup
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    ax = np.linspace(-4.0, 4.0, 33)
    s1 = SourceSpec(envelope=GaussianEnvelope(1), k_max=8.0)
    s2 = SourceSpec(envelope=GaussianEnvelope(1, amplitude=2 * s1.envelope.amplitude),
                    k_max=8.0)
    u1 = exact_bloch_solution(gamma, freq, s1, quad_, (ax,))
    u2 = exact_bloch_solution(gamma, freq, s2, quad_, (ax,))
    assert np.max(np.abs(u2.values - 2.0 * u1.values)) < 1e-14


def test_gap_violation_on_resonant_node(homog_setup):
    gamma, _, source, _ = homog_setup
    # trapezoid rule with 17 nodes on [-8, 8] has a node at khat = 2;
    # eps = 0.5 puts the acoustic branch there at omega^2 = 1
    qt = wavenumber_quadrature(1, 8.0, 17, rule="trapezoid")
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=1.0)
    ax = np.linspace(-2.0, 2.0, 17)
    with pytest.raises(GapViolation):
        exact_bloch_solution(gamma, freq, source, qt, (ax,))


def test_conjugate_symmetry_real_field(gamma1d_32, source1d, quad1d):
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    ax = np.linspace(-6.0, 6.0, 97)
    u = exact_bloch_solution(gamma1d_32, freq, source1d, quad1d, (ax,))
    assert np.max(np.abs(u.values.imag)) < 1e-10 * np.max(np.abs(u.values))


# ---------------------------------------------------------------------------
# Resolvent vs explicit mode superposition
# ---------------------------------------------------------------------------

def _node_spectra(gamma, source, quad_, eps):
    """Full generalized eigendecomposition (all M modes) at every quadrature
    node inside the Brillouin zone: list of (k, w F, values, vectors)."""
    basis = gamma.basis
    spectra = []
    wF = quad_.weights * source.envelope.spectrum(quad_.nodes)
    for khat, w in zip(quad_.nodes, wF):
        k = eps * khat
        if np.max(np.abs(k)) > np.pi:
            continue
        S, B = assemble_operator(gamma.table, basis, k)
        vals, vecs = scipy.linalg.eigh(S, B)
        spectra.append((k, w, vals, vecs))
    return spectra


def _mode_sum(gamma, spectra, freq, axes, keep=None):
    """Reference field: the mode superposition summed node by node and
    evaluated point by point (_direct_periodic), over all modes or only
    branch `keep`."""
    basis = gamma.basis
    d = basis.dimension
    _, B = assemble_operator(gamma.table, basis, np.zeros(d))
    bc0 = B @ gamma.coeffs
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    out = np.zeros(pts.shape[:-1], dtype=complex)
    for k, wF, vals, vecs in spectra:
        amps = (vecs.conj().T @ bc0) / (vals - freq.omega2)
        if keep is not None:
            amps = np.where(np.arange(len(amps)) == keep, amps, 0.0)
        out += wF * np.exp(1j * pts @ k) * _direct_periodic(
            basis, vecs @ amps, axes)
    return (2.0 * np.pi) ** (-d / 2.0) * freq.eps ** 2 * out


def _direct_periodic(basis, coeffs, axes):
    """sum_j c_j exp(i 2 pi j.x) summed point by point, each phase built
    directly (no argument reduction, no folding)."""
    return np.exp(2j * np.pi * (_grid_points(axes) @ basis.indices.T)) @ coeffs


def _first_node_gap(spectra):
    """Midpoint and half width of the interval between branch 0 and branch 1
    over the sampled nodes (negative width: they overlap)."""
    lo = max(vals[0] for _, _, vals, _ in spectra)
    hi = min(vals[1] for _, _, vals, _ in spectra)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_resolvent_equals_full_mode_sum(gamma1d_32, source1d, quad1d):
    eps = 0.5
    ax = np.linspace(-2.0, 2.0, 33)
    spectra = _node_spectra(gamma1d_32, source1d, quad1d, eps)
    mid, half = _first_node_gap(spectra)
    assert half > 1.0
    # below the spectrum (S - omega^2 B definite) and inside the first gap
    # (one negative eigenvalue at every node)
    for omega2 in (-eps ** 2, mid):
        freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                             omega2=omega2)
        u = exact_bloch_solution(gamma1d_32, freq, source1d, quad1d, (ax,))
        ref = _mode_sum(gamma1d_32, spectra, freq, (ax,))
        assert _rel(u.values, ref) < 1e-10
        up = branch_solution(gamma1d_32, freq, source1d, quad1d, (ax,))
        ref_p = _mode_sum(gamma1d_32, spectra, freq, (ax,), keep=0)
        assert _rel(up.values, ref_p) < 1e-10


def test_resolvent_equals_full_mode_sum_2d(source2d):
    gamma = eigenpair_at_gamma(disk_2d(), 0, 3)
    eps = 0.5
    quad_ = wavenumber_quadrature(2, 8.0, 8)
    # off-center axes: the field is even, so symmetric axes would hide an
    # axis reversal
    axes = (np.linspace(-1.0, 0.6, 9), np.linspace(-0.4, 1.5, 7))
    spectra = _node_spectra(gamma, source2d, quad_, eps)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=-eps ** 2)
    u = exact_bloch_solution(gamma, freq, source2d, quad_, axes)
    assert u.values.shape == (9, 7)
    assert _rel(u.values, _mode_sum(gamma, spectra, freq,
                                    axes)) < 1e-10


def test_eigenvalue_count_matches_eigvalsh():
    """The inertia count behind the gap check, on random Hermitian pencils;
    zero diagonals force Bunch-Kaufman 2x2 pivots."""
    rng = np.random.default_rng(7)
    for trial in range(60):
        M = int(rng.integers(2, 40))
        X = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        S = X + X.conj().T
        if trial % 2 == 0:
            S -= np.diag(np.diag(S))
        Y = rng.standard_normal((M, M))
        B = Y @ Y.T + M * np.eye(M)
        sigma = rng.uniform(-2.0, 2.0)
        expected = np.count_nonzero(scipy.linalg.eigvalsh(S, B) < sigma)
        assert _eigenvalues_below(S, B, sigma) == expected


def test_eigenvalue_count_matches_eigvalsh_real():
    """The same inertia count through ?sytrf on real symmetric pencils."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        M = int(rng.integers(2, 40))
        X = rng.standard_normal((M, M))
        S = X + X.T
        if trial % 2 == 0:
            S -= np.diag(np.diag(S))
        Y = rng.standard_normal((M, M))
        B = Y @ Y.T + M * np.eye(M)
        sigma = rng.uniform(-2.0, 2.0)
        expected = np.count_nonzero(scipy.linalg.eigvalsh(S, B) < sigma)
        assert _eigenvalues_below(S, B, sigma) == expected


def _resolve(pencil, omega2, k, rhs):
    """One _resolvent_term solve with its own work buffers."""
    return _resolvent_term(pencil, omega2, k, rhs, True,
                           (np.empty_like(pencil.E), omega2 * pencil.B))


def test_complex_rhs_on_real_pencil(gamma1d_32):
    """A complex right-hand side on a real pencil (two real columns of one
    ?sysv factorization) matches the complex ?hesv solve."""
    real = bloch_pencil(gamma1d_32.table, gamma1d_32.basis)
    assert real.E.dtype == np.float64
    cplx = dataclasses.replace(real, E=real.E.astype(complex),
                               B=real.B.astype(complex))
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(real.B.shape[0]) \
        + 1j * rng.standard_normal(real.B.shape[0])
    k = np.array([0.3])
    x = _resolve(real, -0.5, k, rhs)
    y = _resolve(cplx, -0.5, k, rhs)
    assert np.iscomplexobj(x)
    assert _rel(x, y) < 1e-12


def test_resolvent_on_complex_pencil_matches_dense_solve():
    """On a complex Hermitian pencil LAPACK gets the F-contiguous transpose
    conj(S - omega^2 B) and solves for conj(x): the Cholesky and the
    Bunch-Kaufman path both match a dense solve of S - omega^2 B."""
    spec = MediumSpec(dimension=2, background_G=1.0, background_rho=1.0,
                      inclusions=(Inclusion((0.1, -0.2), 0.25, 8.0, 3.0),))
    basis = PlaneWaveBasis(2, 3)
    pencil = bloch_pencil(fourier_table(spec, 6), basis)
    assert pencil.E.dtype == np.complex128
    k = np.array([0.4, -0.9])
    S = pencil.stiffness(k)
    vals = scipy.linalg.eigvalsh(S, pencil.B)
    rng = np.random.default_rng(9)
    rhs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    for omega2 in (-0.5, 0.5 * (vals[2] + vals[3])):
        x = _resolve(pencil, omega2, k, rhs)
        assert _rel(x, scipy.linalg.solve(S - omega2 * pencil.B, rhs)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(G2=st.floats(1.5, 20.0), rho2=st.floats(1.5, 30.0),
       radius=st.floats(0.05, 0.2), centre=st.floats(-0.25, 0.25),
       cutoff=st.integers(4, 12), node=st.integers(0, 3),
       branch=st.integers(0, 2))
def test_gap_violation_on_paired_node(source1d, G2, rho2, radius, centre,
                                      cutoff, node, branch):
    """omega^2 on an eigenvalue at the second node of a +-k pair, whose gap
    check is inherited from its partner, still raises GapViolation, on the
    complex (off-centre) and the real (centred) pencil."""
    quad_ = wavenumber_quadrature(1, 8.0, 8)
    eps = 0.25
    k = eps * quad_.nodes[4 + node]          # positive node, checked second
    assert np.array_equal(quad_.nodes[3 - node], -quad_.nodes[4 + node])
    ax = np.linspace(-1.0, 1.0, 5)
    for c in (centre, 0.0):
        spec = MediumSpec(dimension=1, background_G=1.0, background_rho=1.0,
                          inclusions=(Inclusion(center=(c,), radius=radius,
                                                G=G2, rho=rho2),))
        gamma = eigenpair_at_gamma(spec, 0, cutoff)
        lam = solve_bands(gamma.table, gamma.basis, k,
                          branch + 1).omega2[branch]
        freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                             omega2=lam)
        with pytest.raises(GapViolation):
            exact_bloch_solution(gamma, freq, source1d, quad_, (ax,))


def test_dropped_nodes_reported(gamma1d_32, source1d, quad1d):
    eps = 0.5
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=-eps ** 2)
    u = exact_bloch_solution(gamma1d_32, freq, source1d, quad1d,
                             (np.linspace(-1.0, 1.0, 9),))
    outside = np.abs(eps * quad1d.nodes[:, 0]) > np.pi
    wF = np.abs(quad1d.weights * source1d.envelope.spectrum(quad1d.nodes))
    assert u.meta["dropped_nodes"] == np.count_nonzero(outside) > 0
    assert u.meta["dropped_mass"] == pytest.approx(
        wF[outside].sum() / wF.sum(), rel=1e-12)
    assert 0.0 < u.meta["dropped_mass"] < 1e-3


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(G2=st.floats(1.5, 20.0), rho2=st.floats(1.5, 30.0),
       radius=st.floats(0.05, 0.45), cutoff=st.integers(4, 16),
       node=st.integers(0, 7), branch=st.integers(0, 2))
def test_resolvent_property_1d(source1d, G2, rho2, radius, cutoff, node,
                               branch):
    gamma = eigenpair_at_gamma(
        two_phase_1d(G=(1.0, G2), rho=(1.0, rho2), fill=2.0 * radius),
        0, cutoff)
    eps = 0.25
    quad_ = wavenumber_quadrature(1, 8.0, 8)
    ax = np.linspace(-1.0, 1.0, 17)
    spectra = _node_spectra(gamma, source1d, quad_, eps)
    mid, half = _first_node_gap(spectra)
    for omega2 in (-eps ** 2, mid) if half > 1e-2 else (-eps ** 2,):
        freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                             omega2=omega2)
        u = exact_bloch_solution(gamma, freq, source1d, quad_, (ax,))
        ref = _mode_sum(gamma, spectra, freq, (ax,))
        assert _rel(u.values, ref) < 1e-10

    # omega^2 on an eigenvalue computed at one quadrature node
    k = eps * quad_.nodes[node]
    lam = solve_bands(gamma.table, gamma.basis, k, branch + 1).omega2[branch]
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=lam)
    with pytest.raises(GapViolation):
        exact_bloch_solution(gamma, freq, source1d, quad_, (ax,))


# ---------------------------------------------------------------------------
# Time-reversal pairing of +-k nodes and the Cholesky path
# ---------------------------------------------------------------------------

@st.composite
def _pairing_case(draw):
    """One inclusion of random contrast and size, centred or off-centre, a
    cutoff per dimension, a branch 0..2 and a gauge phase for c0; a 1D
    medium takes the first coordinate of the centre."""
    radius = draw(st.floats(0.05, 0.2))
    centred = draw(st.booleans())
    centre = tuple(0.0 if centred else draw(st.floats(-0.25, 0.25))
                   for _ in range(2))
    return {"background_G": draw(st.floats(0.2, 5.0)),
            "background_rho": draw(st.floats(0.2, 5.0)),
            "center": centre, "radius": radius,
            "G": draw(st.floats(0.2, 20.0)), "rho": draw(st.floats(0.2, 30.0)),
            "cutoff": {1: draw(st.integers(4, 16)), 2: draw(st.integers(2, 4))},
            "branch": draw(st.integers(0, 2)),
            "theta": draw(st.floats(-np.pi, np.pi))}


def _pairing_spec(dim, case):
    return MediumSpec(dimension=dim, background_G=case["background_G"],
                      background_rho=case["background_rho"],
                      inclusions=(Inclusion(center=case["center"][:dim],
                                            radius=case["radius"],
                                            G=case["G"], rho=case["rho"]),))


# A 2D medium on which the raw-gauge field is 46 times the pair residual off
# the per-node field (4.66e-12 at residual 1.20e-13, LDL path).
_AMPLIFIED_CASE = {"background_G": 0.3125, "background_rho": 0.21875,
                   "center": (0.0, 0.0), "radius": 0.0625, "G": 1.0,
                   "rho": 9.0, "cutoff": {1: 4, 2: 3}, "branch": 2,
                   "theta": 0.0}

# A 1D medium whose drive is 0.0125 from an eigenvalue at two nodes: the
# paired field is 1.54e-12 off the per-node field at a pair residual of
# 6.2e-16, the roundoff of the separate +-k solves (LDL path).
_NEAR_RESONANT_CASE = {"background_G": 0.25, "background_rho": 0.5,
                       "center": (0.0, 0.0), "radius": 0.1953125, "G": 11.0,
                       "rho": 7.0, "cutoff": {1: 6, 2: 3}, "branch": 1,
                       "theta": 0.0}


def _paired_and_per_node(gamma, freq, quad_, axes):
    """The exact field as solved (paired when the guard allows) and with
    every node solved."""
    source = SourceSpec(envelope=GaussianEnvelope(quad_.dimension), k_max=8.0)
    u = exact_bloch_solution(gamma, freq, source, quad_, axes)
    with mock.patch.object(fields, "PAIR_TOL", -1.0):      # never pair
        ref = exact_bloch_solution(gamma, freq, source, quad_, axes)
    assert ref.meta["solves"] == len(quad_.nodes)
    return u, ref


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=15, deadline=None)
@given(case=_pairing_case())
@example(case=_AMPLIFIED_CASE)
@example(case=_NEAR_RESONANT_CASE)
def test_paired_solves_equal_per_node_solves(dim, case):
    """x(-k) = e^{-i theta} P conj(x(k)): one solve per +-k pair gives the
    field solved at every node, on the Cholesky (branch 0) and the
    Bunch-Kaufman (branches 1, 2) path, in any c0 gauge.

    The separate solves at k and -k each carry roundoff of about machine
    eps times the condition number of A = S(k) - omega^2 B, which is at
    most ||A|| / (lambda_min(B) min_m |omega_m^2(k) - omega^2|): the
    largest over the nodes is the floor the fields may differ by when c0 is
    made exactly time-reversal symmetric.  The eigensolver's c0 is so only
    up to pair_residual (~1e-13 on centred media), and a c0 error of that
    size reaches the field through the resolvent: by first-order
    perturbation it is amplified at node k by at most |omega_p^2(k) -
    omega^2| / min_m |omega_m^2(k) - omega^2| (the response along phi_p
    against the largest one off it), and by 10 at the least."""
    spec = _pairing_spec(dim, case)
    branch, theta = case["branch"], case["theta"]
    gamma = eigenpair_at_gamma(spec, branch, case["cutoff"][dim])
    gamma = dataclasses.replace(gamma, coeffs=np.exp(1j * theta) * gamma.coeffs)
    eps = 0.25
    freq = FrequencySpec(branch=branch, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma.omega2 - eps ** 2)
    quad_ = wavenumber_quadrature(dim, 8.0, 8)
    # a drive nearer an eigenvalue amplifies the roundoff of the solves
    # themselves, at k and -k alike
    pencil = bloch_pencil(gamma.table, gamma.basis)
    stiffness = [pencil.stiffness(eps * khat) for khat in quad_.nodes]
    gaps = np.abs([scipy.linalg.eigh(
        S, pencil.B, eigvals_only=True, subset_by_index=(0, branch + 2))
        - freq.omega2 for S in stiffness])
    assume(np.min(gaps) >= 1e-2)
    amplification = max(10.0, np.max(gaps[:, branch] / np.min(gaps, axis=1)))
    lowest_mass = scipy.linalg.eigvalsh(pencil.B)[0]
    roundoff = np.finfo(float).eps * max(
        np.linalg.norm(S - freq.omega2 * pencil.B, 2) / (lowest_mass * gap)
        for S, gap in zip(stiffness, gaps.min(1)))
    axes = (np.linspace(-1.3, 0.9, 11), np.linspace(-0.7, 1.6, 9))[:dim]
    u, ref = _paired_and_per_node(gamma, freq, quad_, axes)
    residual = u.meta["pair_residual"]
    if residual > fields.PAIR_TOL:                 # degenerate: not paired
        assert u.meta["solves"] == len(quad_.nodes)
        assert np.array_equal(u.values, ref.values)
        return
    assert u.meta["solves"] == len(quad_.nodes) // 2
    assert _rel(u.values, ref.values) <= roundoff + amplification * residual
    P, phase, _ = fields._time_reversal(gamma.basis, pencil.B, gamma.coeffs)
    gamma = dataclasses.replace(gamma, coeffs=0.5 * (
        gamma.coeffs + np.conj(phase) * gamma.coeffs[P].conj()))
    u, ref = _paired_and_per_node(gamma, freq, quad_, axes)
    assert u.meta["pair_residual"] <= 1e-14
    assert _rel(u.values, ref.values) <= roundoff


@pytest.mark.parametrize("points, solves", [(64, 32), (65, 33)])
def test_one_solve_per_pm_k_pair(gamma1d_32, source1d, points, solves):
    """k = 0 (odd rule) pairs with itself; eps k_max = 2 keeps every node."""
    quad_ = wavenumber_quadrature(1, 8.0, points)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.0625)
    ax = (np.linspace(-2.0, 2.0, 9),)
    u = exact_bloch_solution(gamma1d_32, freq, source1d, quad_, ax)
    assert u.meta["solves"] == solves
    assert u.meta["pair_residual"] <= fields.PAIR_TOL
    assert u.meta["factorization"] == "cholesky"
    up = branch_solution(gamma1d_32, freq, source1d, quad_, ax)
    assert up.meta["solves"] == solves and up.meta["factorization"] is None


def test_degenerate_branch_falls_back_to_per_node_solves(source2d):
    """Branch 1 of an off-centre disk is degenerate with branch 2 (square
    symmetry), so P conj(c0) is not a multiple of c0: every node is solved
    and the field still equals the mode sum."""
    disk = disk_2d()
    spec = dataclasses.replace(disk, inclusions=(dataclasses.replace(
        disk.inclusions[0], center=(0.13, -0.07)),))
    gamma = eigenpair_at_gamma(spec, 1, 3)
    eps = 0.25
    quad_ = wavenumber_quadrature(2, 8.0, 8)
    freq = FrequencySpec(branch=1, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma.omega2 - eps ** 2)
    axes = (np.linspace(-1.0, 0.6, 7), np.linspace(-0.4, 1.5, 5))
    u = exact_bloch_solution(gamma, freq, source2d, quad_, axes)
    assert u.meta["pair_residual"] > 1e-3
    assert u.meta["solves"] == 64 and u.meta["factorization"] == "ldl"
    spectra = _node_spectra(gamma, source2d, quad_, eps)
    assert _rel(u.values, _mode_sum(gamma, spectra, freq, axes)) < 1e-10


def test_pairing_guard_is_the_residual_not_the_phase_modulus(med1d):
    """c0 + 1e-6 c1 (c1 odd, c0 even) has |e^{i theta}| = 1 - 2e-12 but a
    residual of 2e-6, and pairing it would move the field by ~1e-6: it must
    be solved at every node."""
    c0, c1 = (eigenpair_at_gamma(med1d, p, 16).coeffs for p in (0, 1))
    gamma = eigenpair_at_gamma(med1d, 0, 16)
    gamma = dataclasses.replace(gamma, coeffs=(c0 + 1e-6 * c1) / np.sqrt(
        1.0 + 1e-12))
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.0625)
    quad_ = wavenumber_quadrature(1, 8.0, 8)
    u, ref = _paired_and_per_node(gamma, freq, quad_,
                                  (np.linspace(-1.3, 0.9, 11),))
    assert u.meta["pair_residual"] == pytest.approx(2e-6, rel=1e-3)
    assert u.meta["solves"] == 8
    assert np.array_equal(u.values, ref.values)


def test_gap_violation_just_below_zero_at_gamma(homog_setup):
    """omega^2 = -DENOM_TOL/2 lies within DENOM_TOL of omega_0^2(0) = 0, on
    the node k = 0 of an odd rule: still the checked (LDL) path."""
    gamma, _, source, _ = homog_setup
    quad_ = wavenumber_quadrature(1, 8.0, 9)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.5 * fields.DENOM_TOL)
    ax = (np.linspace(-1.0, 1.0, 5),)
    for solver in (exact_bloch_solution, branch_solution):
        with pytest.raises(GapViolation):
            solver(gamma, freq, source, quad_, ax)


def _diagonal_pencil(eigenvalue, k):
    """Hand-built 3x3 pencil, B = I, with S(k) = diag(eigenvalue, ...)."""
    basis = PlaneWaveBasis(1, 1)
    tp = 2.0 * np.pi * basis.indices
    E = np.diag([eigenvalue / k[0] ** 2, 1.0, 1.0])
    return BlochPencil(basis=basis, E=E, B=np.eye(3), tp=tp)


def test_cholesky_path_starts_strictly_below_minus_denom_tol():
    """At omega^2 = -DENOM_TOL an eigenvalue -DENOM_TOL/2 leaves S - omega^2
    B definite, but lies within DENOM_TOL: the inertia check must see it."""
    k = np.array([0.5])
    pencil = _diagonal_pencil(-0.5 * fields.DENOM_TOL, k)
    with pytest.raises(GapViolation):
        _resolve(pencil, -fields.DENOM_TOL, k, np.ones(3))


def test_indefinite_pencil_below_spectrum_raises(gamma1d_32, source1d,
                                                 quad1d):
    """A failed Cholesky factorization is a GapViolation, for a hand-built
    pencil and for the exact solver given one (S negated): no field."""
    k = np.array([0.5])
    with pytest.raises(GapViolation, match="not positive definite"):
        _resolve(_diagonal_pencil(-1.0, k), -0.5, k, np.ones(3))
    gamma = dataclasses.replace(gamma1d_32)      # its own pencil
    gamma.pencil = dataclasses.replace(gamma.pencil, E=-gamma.pencil.E)
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.0625)
    with pytest.raises(GapViolation, match="not positive definite"):
        exact_bloch_solution(gamma, freq, source1d, quad1d,
                             (np.linspace(-1.0, 1.0, 5),))


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------

def test_w0_matches_exponential_kernel_convolution(homog_setup):
    """With mu0/rho0 = 1, sigma = -1, Omega_hat = 1 the symbol is k^2 + 1,
    so W0 is the convolution of the envelope with exp(-|r|)/2."""
    gamma, eff, source, _ = homog_setup
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.0625)
    quad_ = wavenumber_quadrature(1, 8.0, 128)
    r = np.linspace(-4.0, 4.0, 17)
    W0 = effective_envelope(eff, freq, source, quad_, 0, (r,))
    g = source.envelope.modulation
    for i in (0, 4, 8, 12, 16):
        val = quad(lambda s: g(np.array(s)) * np.exp(-abs(r[i] - s)) / 2.0,
                   -np.inf, np.inf, limit=200)[0]
        assert abs(W0[i] - val) < 1e-8


def test_w2_reduces_to_w0_without_mu2(homog_setup):
    gamma, eff, source, quad_ = homog_setup
    eff0 = dataclasses.replace(eff, mu2=np.zeros_like(eff.mu2))
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    r = np.linspace(-3.0, 3.0, 25)
    W0 = effective_envelope(eff0, freq, source, quad_, 0, (r,))
    W2 = effective_envelope(eff0, freq, source, quad_, 2, (r,))
    assert np.max(np.abs(W2 - W0)) < 1e-14


def envelope_pde_residual(eff, freq, source, quad_, axes):
    """Max residual of  mu0 : grad^2 W0 + rho0 sigma Omega_hat^2 W0 = -rho0 g
    with g the inverse transform of F, all evaluated spectrally."""
    d = quad_.dimension
    second = [(a, b) for a in range(d) for b in range(d)]
    W = np.stack([effective_envelope(eff, freq, source, quad_, 0, axes, deriv)
                  for deriv in second + [()]], axis=-1)
    W0 = W[..., -1]
    g = source.envelope.modulation(_grid_points(axes))
    res = (W[..., :-1] @ eff.mu0.ravel()
           + eff.rho0 * (freq.sigma * freq.omega_hat ** 2 * W0 + g))
    return float(np.max(np.abs(res)) / max(np.max(np.abs(W0)), 1e-300))


def test_envelope_pde_residual(homog_setup):
    gamma, eff, source, _ = homog_setup
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.0625)
    # k_max = 10: the residual floor is the envelope tail beyond the cutoff
    quad_ = wavenumber_quadrature(1, 10.0, 128)
    r = np.linspace(-4.0, 4.0, 33)
    assert envelope_pde_residual(eff, freq, source, quad_, (r,)) < 1e-8


def test_envelope_singularity_raised(homog_setup):
    gamma, eff, source, _ = homog_setup
    # symbol k^2 - Omega_hat^2 vanishes at the trapezoid node khat = 2
    qt = wavenumber_quadrature(1, 8.0, 17, rule="trapezoid")
    freq = FrequencySpec(branch=0, sigma=+1, omega_hat=2.0, eps=0.25,
                         omega2=0.25)
    with pytest.raises(EnvelopeSingularity):
        effective_envelope(eff, freq, source, qt, 0, (np.linspace(-1, 1, 5),))


def test_quadrature_refinement_stability(homog_setup):
    gamma, eff, source, _ = homog_setup
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.25,
                         omega2=-0.0625)
    # the symbol's poles at k = +-i limit the Gauss rate; 128 points reach
    # the 1e-8 stability target comfortably, 64 sit near 3e-5 on this window
    r = np.linspace(-5.0, 5.0, 41)
    qa = wavenumber_quadrature(1, 8.0, 128)
    qb = wavenumber_quadrature(1, 8.0, 256)
    Wa = effective_envelope(eff, freq, source, qa, 0, (r,))
    Wb = effective_envelope(eff, freq, source, qb, 0, (r,))
    assert np.max(np.abs(Wa - Wb)) < 1e-8 * np.max(np.abs(Wb))


# ---------------------------------------------------------------------------
# Homogenized fields
# ---------------------------------------------------------------------------

def test_homogeneous_orders_coincide(homog_setup):
    gamma, eff, source, quad_ = homog_setup
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    ax = np.linspace(-4.0, 4.0, 65)
    u0 = homogenized_field(eff, freq, source, quad_, 0, (ax,))
    u1 = homogenized_field(eff, freq, source, quad_, 1, (ax,))
    u2 = homogenized_field(eff, freq, source, quad_, 2, (ax,))
    assert np.max(np.abs(u1.values - u0.values)) < 1e-12
    assert np.max(np.abs(u2.values - u0.values)) < 1e-12


def test_first_order_correction_vanishes_at_center(gamma1d_32, eff1d_32,
                                                   source1d, quad1d):
    # grad W0 (0) = 0 by evenness, so U1 - U0 must vanish at x = 0
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    ax = np.linspace(-2.0, 2.0, 33)          # includes x = 0
    u0 = homogenized_field(eff1d_32, freq, source1d, quad1d, 0, (ax,))
    u1 = homogenized_field(eff1d_32, freq, source1d, quad1d, 1, (ax,))
    i0 = 16
    assert abs(ax[i0]) < 1e-14
    scale = np.max(np.abs(u0.values))
    assert abs(u1.values[i0] - u0.values[i0]) < 1e-10 * scale


def test_homogenized_field_order_validation(eff1d_32, source1d, quad1d):
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                         omega2=-0.25)
    with pytest.raises(ValueError):
        homogenized_field(eff1d_32, freq, source1d, quad1d, 3,
                          (np.linspace(-1, 1, 5),))


# ---------------------------------------------------------------------------
# Containers and export
# ---------------------------------------------------------------------------

def test_synthesize_periodic_constant():
    from blochhomog import PlaneWaveBasis
    basis = PlaneWaveBasis(1, 3)
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[0] = 2.0                          # j = 0 entry
    vals = synthesize_periodic(basis, coeffs, (np.linspace(-1, 1, 7),))
    assert vals.shape == (7,) and np.allclose(vals, 2.0)


def test_field_line_extraction():
    ax1 = np.linspace(-1, 1, 5)
    ax2 = np.linspace(-2, 2, 9)
    vals = np.arange(45, dtype=complex).reshape(5, 9)
    f = FieldOnGrid(axes=(ax1, ax2), values=vals)
    xs, line = f.line(0.5)
    assert np.allclose(xs, ax1)
    j = int(np.argmin(np.abs(ax2 - 0.5)))
    assert np.allclose(line, vals[:, j])
    f1 = FieldOnGrid(axes=(ax1,), values=np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        f1.line(0.0)


def test_export_roundtrip(tmp_path):
    ax = np.linspace(0, 1, 4)
    vals = np.array([1 + 1j, 2.0, -0.5j, 3.0])
    f = FieldOnGrid(axes=(ax,), values=vals, label="probe")
    csv_path = tmp_path / "f.csv"
    export_field_csv(f, str(csv_path), header_lines=["hello"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# hello" and lines[1] == "x1,re,im"
    assert len(lines) == 6
    npz_path = tmp_path / "f.npz"
    export_field_npz(f, str(npz_path), eps=0.5)
    data = np.load(npz_path)
    assert np.allclose(data["values"], vals)
    assert float(data["eps"]) == 0.5


# ---------------------------------------------------------------------------
# Periodic phase exp(i 2 pi n x): reduced argument, two factored tables
# ---------------------------------------------------------------------------

def _exact_phase(x, cutoff):
    """exp(i 2 pi n x), n = -cutoff..cutoff, with n x mod 1 evaluated in
    rational arithmetic, so the only roundings are those of 2 pi t and exp."""
    turns = [[float(Fraction(v) * n % 1) for n in range(-cutoff, cutoff + 1)]
             for v in x]
    return np.exp(2j * np.pi * np.array(turns).reshape(len(x), -1))


def _direct_phase(x, freqs):
    """exp(i x f) built directly, without argument reduction or factoring."""
    return np.exp(1j * np.outer(x, freqs))


def _synthesis_error(x, cutoff, exact) -> float:
    """Largest error of _periodic_sum against the exact phases times each
    column, per unit of the column's sum of |values|: one unit-modulus
    column (the fine table first at every N), three (from N = 7 on) and
    the identity, whose sums are the phase matrix itself."""
    n = 2 * cutoff + 1
    unit = np.exp(2j * np.pi * np.random.default_rng(n).random((n, 3)))
    err = 0.0
    for values in (unit[:, :1], unit, np.eye(n)):
        got = _periodic_sum(x, cutoff, values)
        assert got.shape == (len(x), values.shape[1])
        diff = np.abs(got - exact @ values)
        err = max(err, np.max(diff / np.sum(np.abs(values), axis=0)))
    return err


@pytest.mark.parametrize("cutoff", [1, 2, 7, 12, 256, 300])
@settings(max_examples=25, deadline=None)
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
def test_periodic_phase_matches_exp(cutoff, x):
    """2N+1 = 3, 5, 15, 513 and 601 leave the last table block partial;
    25 (N = 12) fills it.  The phase and the synthesized sums alike."""
    x = np.array(x)
    got, exact = _periodic_phase(x, cutoff), _exact_phase(x, cutoff)
    assert got.shape == (len(x), 2 * cutoff + 1) and got.flags.c_contiguous
    assert np.max(np.abs(got - exact)) <= 1e-13
    assert _synthesis_error(x, cutoff, exact) <= 1e-13


def test_periodic_phase_accuracy_on_criterion7_grid():
    """N = 256 on the criterion-7 grid (|x| <= 28.5, 7297 points, every
    37th taken): the factored, reduced phase, and the sums synthesized from
    its factors, stay within 3e-14 of the exact ones; a direct exp(i 2 pi n
    x) is off by up to 8e-12 here."""
    x = np.linspace(-28.5, 28.5, 7297)[::37]
    exact = _exact_phase(x, 256)
    assert np.max(np.abs(_periodic_phase(x, 256) - exact)) <= 3e-14
    assert _synthesis_error(x, 256, exact) <= 3e-14


@settings(max_examples=25, deadline=None)
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
       freqs=st.lists(st.floats(-2.0 * np.pi, 2.0 * np.pi).filter(
           lambda f: f != round(f)), min_size=1, max_size=6))
def test_nonperiodic_phase_matches_exp(x, freqs):
    """exp(i x f) as the product of the per-cell and folded-row tables,
    against mpmath at 50 digits.  The error is the rounding of m f
    (m = round(x)), half an ulp of |m f|, as a direct exp's is that of x f,
    plus a few ulps of the exponentials and their product.  The tables have
    one row per cell and one per row of the fold (_fold_rows), at most
    FOLD_RATIO times the distinct points together."""
    x, freqs = np.array(x), np.array(freqs)
    (fold,) = _fold_axes([x])
    cell, row = _nonperiodic_phase(fold, freqs)
    assert cell.shape == (len(fold[2]), len(freqs))
    assert row.shape == (_fold_rows(x), len(freqs))
    assert len(cell) * len(row) <= fields.FOLD_RATIO * len(np.unique(x))
    got = cell[fold[3]] * row[fold[1]]
    with mpmath.workdps(50):
        exact = np.array([[complex(mpmath.expj(mpmath.mpf(v) * mpmath.mpf(f)))
                           for f in freqs] for v in x])
    bound = 1e-14 + 2.0 ** -53 * np.abs(np.outer(np.abs(x) + 0.5, freqs))
    assert np.all(np.abs(got - exact) <= bound)


def test_synthesize_periodic_2d_direct_sum():
    """Slab-wise separable synthesis on random axes against the per-point
    sum sum_j c_j exp(i 2 pi j.x); 41 rows of 29 points leave a partial
    slab (SYNTH_BLOCK // 29 rows each)."""
    basis = PlaneWaveBasis(2, 6)
    rng = np.random.default_rng(5)
    coeffs = (rng.standard_normal(basis.size)
              + 1j * rng.standard_normal(basis.size))
    axes = (np.sort(rng.uniform(-20.0, 20.0, 41)),
            rng.uniform(-20.0, 20.0, 29))
    assert len(axes[0]) % (SYNTH_BLOCK // len(axes[1])) != 0
    got = synthesize_periodic(basis, coeffs, axes)
    assert got.shape == (41, 29)
    assert np.max(np.abs(got - _direct_periodic(basis, coeffs, axes))) \
        < 1e-12 * np.sum(np.abs(coeffs))


# ---------------------------------------------------------------------------
# Folding the grid synthesis onto one cell
# ---------------------------------------------------------------------------

# dyadic reduced coordinates, with the +-0.5 ties where np.round rounds to even
_REDUCED = [-0.5, 0.5, 0.0, 0.25, -0.375, 0.125]


@st.composite
def _folded_axis(draw, length):
    """An axis of `length` (a strategy) points, each one of a few reduced
    coordinates (the +-0.5 ties and arbitrary floats among them) shifted by
    a random integer in [-4, 4]: equal x - round(x) repeat in random order,
    scattered over the axis and across slab and block boundaries."""
    reduced = draw(st.lists(st.sampled_from(_REDUCED) | st.floats(-0.5, 0.5),
                            min_size=1, max_size=4))
    n = draw(length)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.choice(reduced, n) + rng.integers(-4, 5, n)


@st.composite
def _folded_grid(draw, dim):
    """Axes of a 1D grid (some longer than SYNTH_BLOCK) or a 2D grid, and a
    synthesis block size: the default or a small one that splits the folded
    axis into several slabs."""
    if dim == 1:
        axes = (draw(_folded_axis(st.integers(1, 40)
                                  | st.just(SYNTH_BLOCK + 37))),)
    else:
        axes = tuple(draw(_folded_axis(st.integers(1, 12))) for _ in range(2))
    return axes, draw(st.sampled_from([1, 5, 64, SYNTH_BLOCK]))


@pytest.fixture(scope="module")
def fold_setup(gamma1d_32, eff1d_32, source1d, source2d):
    """Per dimension: eigenpair, effective coefficients, source, a small
    quadrature, the drive and the full node spectra for the mode sum."""
    gamma2 = eigenpair_at_gamma(disk_2d(), 0, 4)
    setup = {}
    for d, gamma, eff, source in ((1, gamma1d_32, eff1d_32, source1d),
                                  (2, gamma2, effective_coefficients(
                                      solve_cell_functions(gamma2)),
                                   source2d)):
        quad_ = wavenumber_quadrature(d, 8.0, 16 if d == 1 else 6)
        eps = 0.5
        freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                             omega2=gamma.omega2 - eps ** 2)
        setup[d] = (gamma, eff, source, quad_, freq,
                    _node_spectra(gamma, source, quad_, eps))
    return setup


def _direct_homogenized(eff, freq, source, quad_, axes):
    """U0, U1 and U2 with every cell function summed point by point
    (_direct_periodic) and each envelope from effective_envelope."""
    gamma, cell = eff.gamma, eff.cell
    d, eps = gamma.basis.dimension, freq.eps
    slow = tuple(eps * ax for ax in axes)

    def term(coeffs, order, deriv):
        return _direct_periodic(gamma.basis, coeffs, axes) * \
            effective_envelope(eff, freq, source, quad_, order, slow, deriv)

    second = [(a, b) for a in range(d) for b in range(d)]
    u0 = term(gamma.coeffs, 0, ())
    u1 = u0 + sum(term(eps * cell.chi1[:, a], 0, (a,)) for a in range(d))
    u2 = term(gamma.coeffs, 2, ()) \
        + sum(term(eps * cell.chi1[:, a], 2, (a,)) for a in range(d)) \
        + sum(term(eps ** 2 * (eff.corrector_cov[a, b] * gamma.coeffs
                               + cell.chi2[:, a, b]), 2, (a, b))
              for a, b in second)
    return {0: u0, 1: u1, 2: u2}


def _fold_rows(ax):
    """The rows of an axis's fold: its distinct x - round(x), or its
    distinct points where C R would exceed FOLD_RATIO times those."""
    reduced, cells, points = (len(np.unique(v)) for v in
                              (ax - np.round(ax), np.round(ax), ax))
    return reduced if reduced * cells <= fields.FOLD_RATIO * points \
        else points


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_folded_synthesis_equals_direct_sums(fold_setup, dim, data):
    """On axes whose reduced coordinates repeat out of order, the folded
    synthesis gives the per-point sums: synthesize_periodic, the exact field
    (against the mode sum over every node) and the homogenized fields of
    orders 0, 1, 2.  The slabs cover every distinct reduced coordinate of
    axis 0 once, each holds at most max(SYNTH_BLOCK, one row) folded points,
    and each passes _periodic_factors at most SYNTH_BLOCK distinct reduced
    coordinates (one row at least)."""
    axes, block = data.draw(_folded_grid(dim))
    gamma, eff, source, quad_, freq, spectra = fold_setup[dim]
    basis = gamma.basis
    distinct = [_fold_rows(ax) for ax in axes]
    phase_rows = []

    periodic_factors = fields._periodic_factors

    def counted_factors(x, cutoff):
        phase_rows.append(len(x))
        return periodic_factors(x, cutoff)

    with mock.patch.object(fields, "SYNTH_BLOCK", block), \
            mock.patch.object(fields, "_periodic_factors", counted_factors):
        blocks = list(fields._periodic_blocks(
            basis, basis.coeff_cube(gamma.coeffs[:, None]),
            fields._fold_axes(axes)))
        got = synthesize_periodic(basis, gamma.coeffs, axes)
        u = exact_bloch_solution(gamma, freq, source, quad_, axes)
        homogenized = homogenized_fields(eff, freq, source, quad_, (0, 1, 2),
                                         axes)
    rows = np.concatenate([np.arange(distinct[0])[r] for r, _ in blocks])
    assert np.array_equal(rows, np.arange(distinct[0]))
    row = math.prod(distinct[1:])
    for r, part in blocks:
        n = len(np.arange(distinct[0])[r])
        assert part.shape == (n,) + tuple(distinct[1:]) + (1,)
        assert n * row <= max(block, row)
    slab = max(1, block // row)
    assert max(phase_rows) <= max([slab] + distinct[1:])
    assert sum(phase_rows) == 4 * sum(distinct)     # four syntheses

    scale = np.sum(np.abs(gamma.coeffs))
    assert np.max(np.abs(got - _direct_periodic(basis, gamma.coeffs, axes))) \
        <= 1e-12 * scale
    assert _rel(u.values, _mode_sum(gamma, spectra, freq, axes)) < 1e-10
    direct = _direct_homogenized(eff, freq, source, quad_, axes)
    for m in (0, 1, 2):
        assert _rel(homogenized[m].values, direct[m]) < 1e-12


@settings(max_examples=40, deadline=None)
@given(half=st.integers(0, 40).map(lambda n: n / 2),
       ppc=st.integers(1, 64) | st.sampled_from([24, 128]))
def test_uniform_axis_folds_exactly(half, ppc):
    """uniform_axis(H, ppc) lies within 2^-46 of -H + k/ppc point by point,
    is linspace's axis when ppc is a power of two, and has at most ppc + 1
    distinct x - round(x), so its fold lattice has at most (2 H + 2)(ppc +
    1) points, and at most FOLD_RATIO times the axis's."""
    x = uniform_axis(half, ppc)
    n = int(round(2 * half * ppc))
    assert len(x) == n + 1
    assert all(abs(Fraction(v) - Fraction(2 * k - n, 2 * ppc)) <= 2.0 ** -46
               for k, v in enumerate(x))
    if ppc & (ppc - 1) == 0:
        assert np.array_equal(x, np.linspace(-half, half, n + 1))
    assert len(np.unique(x - np.round(x))) <= ppc + 1
    ((reduced, _, cells, _),) = _fold_axes([x])
    assert len(reduced) * len(cells) <= min((2 * half + 2) * (ppc + 1),
                                            fields.FOLD_RATIO * (n + 1))


def test_empty_axes_give_empty_fields(fold_setup):
    """An empty axis, first or second, gives an empty field of the grid's
    shape from every synthesis (no blocks, no ZeroDivisionError)."""
    grids = {1: [(np.zeros(0),)],
             2: [(np.linspace(0.0, 1.0, 3), np.zeros(0)),
                 (np.zeros(0), np.linspace(0.0, 1.0, 3))]}
    for dim, cases in grids.items():
        gamma, eff, source, quad_, freq, _ = fold_setup[dim]
        for axes in cases:
            shape = tuple(len(ax) for ax in axes)
            assert not list(fields._periodic_blocks(
                gamma.basis, gamma.basis.coeff_cube(gamma.coeffs[:, None]),
                fields._fold_axes(axes)))
            assert synthesize_periodic(gamma.basis, gamma.coeffs,
                                       axes).shape == shape
            u = exact_bloch_solution(gamma, freq, source, quad_, axes)
            assert u.values.shape == shape
            for field in homogenized_fields(eff, freq, source, quad_,
                                            (0, 1, 2), axes).values():
                assert field.values.shape == shape


def _direct_node_sum(basis, axes, freqs, columns):
    """sum_q exp(i f_q.x) sum_j columns[j, q] exp(i 2 pi j.x) at every grid
    point, both phases built per point: exp(i f_q.x) directly, and
    exp(i 2 pi j.x) as the product of each axis's reduced per-point phase
    (_periodic_phase, no folding)."""
    pts = _grid_points(axes).reshape(-1, basis.dimension)
    periodic = np.ones((len(pts), basis.size), dtype=complex)
    for a, ax in enumerate(axes):
        phase = _periodic_phase(ax, basis.cutoff)
        idx = np.meshgrid(*[np.arange(len(x)) for x in axes],
                          indexing="ij")[a].ravel()
        periodic *= phase[np.ix_(idx, basis.indices[:, a] + basis.cutoff)]
    values = np.exp(1j * (pts @ np.asarray(freqs).T)) * (periodic @ columns)
    return values.sum(axis=1).reshape(tuple(len(ax) for ax in axes))


def _direct_orders(eff, freq, source, quad_, axes):
    """U0, U1, U2 as per-point sums over the nodes of each cell function
    times each envelope column (fields._envelope_cube) at the fast
    coordinate, exp(i eps khat.x) built directly."""
    gamma, d, eps = eff.gamma, eff.gamma.basis.dimension, freq.eps
    second = [(a, b) for a in range(d) for b in range(d)]
    derivs = [()] + [(a,) for a in range(d)] + second
    cells = ([gamma.coeffs] + [eps * eff.cell.chi1[:, a] for a in range(d)]
             + [eps ** 2 * (eff.corrector_cov[a, b] * gamma.coeffs
                            + eff.cell.chi2[:, a, b]) for a, b in second])
    width = {0: 1, 1: 1 + d, 2: len(derivs)}
    out = {}
    for m in (0, 1, 2):
        env = fields._envelope_cube(eff, freq, source, quad_,
                                    [(2 if m == 2 else 0, derivs[:width[m]])])
        env = env.reshape(-1, width[m])
        out[m] = sum(_direct_node_sum(gamma.basis, axes, eps * quad_.nodes,
                                      np.outer(c, env[:, j]))
                     for j, c in enumerate(cells[:width[m]]))
    return out


_OFF_CENTRE = {1: MediumSpec(dimension=1, background_G=1.0,
                             background_rho=1.0,
                             inclusions=(Inclusion((0.15,), 0.25, 6.0, 20.0),)),
               2: MediumSpec(dimension=2, background_G=1.0,
                             background_rho=1.0,
                             inclusions=(Inclusion((0.1, -0.2), 0.25, 8.0,
                                                   3.0),))}


@pytest.fixture(scope="module")
def lattice_setup(fold_setup):
    """Per (dimension, centred): eigenpair, effective coefficients, source,
    quadrature and drive; fold_setup's centred media and an off-centre
    (complex-pencil) inclusion of each dimension."""
    setup = {(d, True): fold_setup[d][:5] for d in (1, 2)}
    for d in (1, 2):
        source, quad_ = fold_setup[d][2:4]
        gamma = eigenpair_at_gamma(_OFF_CENTRE[d], 0, 32 if d == 1 else 4)
        assert np.iscomplexobj(gamma.pencil.E)
        freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=0.5,
                             omega2=gamma.omega2 - 0.25)
        setup[d, False] = (gamma, effective_coefficients(
            solve_cell_functions(gamma)), source, quad_, freq)
    return setup


@st.composite
def _lattice_axis(draw, ragged):
    """A uniform axis of whole cells, |x| <= hw + 1/2 at ppc points per
    cell; an offset window of one; `ragged`; or linspace over a non-dyadic
    half width, whose reduced coordinates barely repeat."""
    kind = draw(st.sampled_from(["cells", "window", "ragged", "linspace"]))
    if kind == "ragged":
        return ragged
    if kind == "linspace":
        return np.linspace(-2.7, 2.7, draw(st.integers(2, 40)))
    half = draw(st.integers(0, 3)) + 0.5
    ppc = draw(st.sampled_from([1, 2, 3, 4, 8, 16]))
    ax = np.linspace(-half, half, int(round(2 * half * ppc)) + 1)
    if kind == "window":
        lo = draw(st.integers(0, len(ax) - 1))
        ax = ax[lo:draw(st.integers(lo + 1, len(ax)))]
    return ax


@pytest.mark.parametrize("centred", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_lattice_fields_equal_direct_node_sums(lattice_setup, ragged_axis,
                                               dim, centred, data):
    """The exact and branch fields and the homogenized orders 0, 1, 2,
    contracted on the fold lattice, equal the per-point sums over the nodes
    with every phase built per point, to 1e-13 relative: uniform whole-cell
    axes, offset windows and a ragged axis, 1D and 2D, real and complex
    pencils.  The exact and branch fields use the node solutions the solver
    computed (captured from _paired_solves).  No lattice exceeds
    FOLD_RATIO^d times the grid."""
    gamma, eff, source, quad_, freq = lattice_setup[dim, centred]
    ragged = ragged_axis if dim == 1 else ragged_axis[::29]
    axes = tuple(data.draw(_lattice_axis(ragged)) for _ in range(dim))
    _check_direct_node_sums(gamma, eff, source, quad_, freq, axes)


def _check_direct_node_sums(gamma, eff, source, quad_, freq, axes):
    """The lattice fields on `axes` against the per-point node sums; returns
    the size of every lattice they were built on."""
    dim, solutions, sizes = len(axes), [], []
    paired, lattice = fields._paired_solves, fields._lattice

    def captured(*args):
        out = paired(*args)
        solutions.append(out[0])
        return out

    def counted(folds):
        out = lattice(folds)
        sizes.append(out.size)
        return out

    with mock.patch.object(fields, "_paired_solves", captured), \
            mock.patch.object(fields, "_lattice", counted):
        solved = [exact_bloch_solution(gamma, freq, source, quad_, axes),
                  branch_solution(gamma, freq, source, quad_, axes)]
        homogenized = homogenized_fields(eff, freq, source, quad_, (0, 1, 2),
                                         axes)
    grid = math.prod(len(ax) for ax in axes)
    assert len(sizes) == 5
    assert max(sizes) <= fields.FOLD_RATIO ** dim * grid
    ks = freq.eps * quad_.nodes
    inside = np.max(np.abs(ks), axis=1) <= np.pi
    weights = ((2.0 * np.pi) ** (-dim / 2.0) * freq.eps ** 2 * quad_.weights
               * source.envelope.spectrum(quad_.nodes))[inside]
    for field, coeffs in zip(solved, solutions):
        ref = _direct_node_sum(gamma.basis, axes, ks[inside], coeffs * weights)
        assert _rel(field.values, ref) < 1e-13
    for m, ref in _direct_orders(eff, freq, source, quad_, axes).items():
        assert _rel(homogenized[m].values, ref) < 1e-13
    return sizes


@pytest.mark.parametrize("centred", [True, False])
def test_unfolded_axes_keep_lattices_within_the_grid(lattice_setup, centred):
    """linspace(-6.3, 6.3, 51), 4 points per cell over a half width that is
    no whole number of cells, has 51 distinct reduced coordinates over 13
    cells: its fold would be 13 times the axis, so it is left unfolded and
    every 2D field is built on exactly the grid, equal to the direct sums."""
    axis = np.linspace(-6.3, 6.3, 51)
    assert len(np.unique(axis - np.round(axis))) == 51
    assert len(np.unique(np.round(axis))) == 13
    gamma, eff, source, quad_, freq = lattice_setup[2, centred]
    sizes = _check_direct_node_sums(gamma, eff, source, quad_, freq,
                                    (axis, axis))
    assert sizes == [51 * 51] * 5


@pytest.fixture(scope="module")
def ragged_axis():
    """Off-grid, non-uniform axis longer than one synthesis slab."""
    rng = np.random.default_rng(11)
    return np.sort(rng.uniform(-9.7, 13.3, SYNTH_BLOCK + 141))


def test_homogenized_field_matches_direct_phase_sum(eff1d_32, source1d,
                                                    quad1d, ragged_axis):
    """U2 = phi_p W2 + eps chi1 W2' + eps^2 (cov phi_p + chi2) W2'', each
    cell function summed with a directly built exp(i 2 pi n x) matrix."""
    gamma, cell = eff1d_32.gamma, eff1d_32.cell
    eps = 0.375
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma.omega2 - eps ** 2)
    ax = ragged_axis
    P = _direct_phase(ax, 2.0 * np.pi * gamma.basis.indices[:, 0])
    cells = [gamma.coeffs, eps * cell.chi1[:, 0],
             eps ** 2 * (eff1d_32.corrector_cov[0, 0] * gamma.coeffs
                         + cell.chi2[:, 0, 0])]
    ref = sum((P @ c) * effective_envelope(eff1d_32, freq, source1d, quad1d,
                                           2, (eps * ax,), deriv)
              for c, deriv in zip(cells, [(), (0,), (0, 0)]))
    u = homogenized_field(eff1d_32, freq, source1d, quad1d, 2, (ax,))
    assert _rel(u.values, ref) < 1e-12


@pytest.mark.parametrize("order", [0, 1])
def test_low_orders_match_direct_phase_sum(eff1d_32, source1d, quad1d,
                                           ragged_axis, order):
    """U0 = phi_p W0 and U1 = U0 + eps chi1 W0', each cell function summed
    with a directly built exp(i 2 pi n x) matrix; the one-order call
    synthesizes only the columns its order uses."""
    gamma, cell = eff1d_32.gamma, eff1d_32.cell
    eps = 0.375
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma.omega2 - eps ** 2)
    ax = ragged_axis
    P = _direct_phase(ax, 2.0 * np.pi * gamma.basis.indices[:, 0])
    cells = [gamma.coeffs, eps * cell.chi1[:, 0]][:order + 1]
    ref = sum((P @ c) * effective_envelope(eff1d_32, freq, source1d, quad1d,
                                           0, (eps * ax,), deriv)
              for c, deriv in zip(cells, [(), (0,)]))
    u = homogenized_field(eff1d_32, freq, source1d, quad1d, order, (ax,))
    assert _rel(u.values, ref) < 1e-12


def test_all_orders_equal_per_order_calls_2d(source2d):
    """One homogenized_fields call (one cell synthesis, one envelope phase
    matrix per axis) gives each order as its own call does, and U1 - U0 is
    eps sum_a chi1_a d_a W0 with each chi1_a synthesized on its own."""
    gamma = eigenpair_at_gamma(disk_2d(), 0, 4)
    eff = effective_coefficients(solve_cell_functions(gamma))
    quad_ = wavenumber_quadrature(2, 8.0, 16)
    eps = 0.5
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma.omega2 - eps ** 2)
    axes = (np.linspace(-2.3, 2.9, 37), np.linspace(-1.7, 1.1, 23))
    fields = homogenized_fields(eff, freq, source2d, quad_, (0, 1, 2), axes)
    assert sorted(fields) == [0, 1, 2]
    for m in (0, 1, 2):
        alone = homogenized_field(eff, freq, source2d, quad_, m, axes)
        assert fields[m].meta == alone.meta
        assert _rel(fields[m].values, alone.values) < 1e-12
    slow = tuple(eps * a for a in axes)
    first = sum(eps * synthesize_periodic(gamma.basis, eff.cell.chi1[:, a],
                                          axes)
                * effective_envelope(eff, freq, source2d, quad_, 0, slow, (a,))
                for a in range(2))
    assert _rel(fields[1].values - fields[0].values, first) < 1e-12


def test_exact_solution_matches_direct_phase_sum(gamma1d_32, source1d,
                                                 quad1d, ragged_axis):
    """u = (2 pi)^{-1/2} eps^2 sum_q w_q F_q exp(i x (2 pi n + k_q)) c_q,
    with c_q the resolvent solution at each node and the phase matrix built
    directly per node."""
    eps = 0.375                      # eps k_max = 3 < pi: every node inside
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=eps,
                         omega2=gamma1d_32.omega2 - eps ** 2)
    ax = ragged_axis
    pencil = bloch_pencil(gamma1d_32.table, gamma1d_32.basis)
    bc0 = pencil.B @ gamma1d_32.coeffs
    wF = quad1d.weights * source1d.envelope.spectrum(quad1d.nodes)
    ref = np.zeros(len(ax), dtype=complex)
    for khat, w in zip(quad1d.nodes, wF):
        k = eps * khat
        c = _resolve(pencil, freq.omega2, k, bc0)
        ref += w * (_direct_phase(ax, pencil.tp[:, 0] + k[0]) @ c)
    ref *= (2.0 * np.pi) ** -0.5 * eps ** 2
    u = exact_bloch_solution(gamma1d_32, freq, source1d, quad1d, (ax,))
    assert _rel(u.values, ref) < 1e-12
