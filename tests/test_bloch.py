import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from blochhomog import (DispersionDiagram, Inclusion, MediumSpec,
                        PlaneWaveBasis, assemble_operator, bloch_pencil,
                        dispersion_diagram, effective_coefficients,
                        eigenpair_at_gamma, export_diagram_csv,
                        find_band_gaps, fix_phase, fourier_table,
                        parity_blocks, solve_bands,
                        solve_cell_functions, two_phase_1d, disk_2d,
                        wavenumber_quadrature)
from blochhomog import bloch as bloch_module
from blochhomog.bloch import brillouin_path, reversal_classes


# ---------------------------------------------------------------------------
# Exact spectra on homogeneous media
# ---------------------------------------------------------------------------

def test_homogeneous_spectrum_1d():
    spec = MediumSpec(dimension=1, background_G=2.0, background_rho=5.0)
    basis = PlaneWaveBasis(1, 8)
    table = fourier_table(spec, 16)
    k = 1.3
    sol = solve_bands(table, basis, [k], 5)
    j = np.arange(-8, 9)
    expected = np.sort((2.0 / 5.0) * (2 * np.pi * j + k) ** 2)[:5]
    assert np.max(np.abs(sol.omega2 - expected)) < 1e-10


def test_homogeneous_spectrum_2d():
    spec = MediumSpec(dimension=2, background_G=1.0, background_rho=1.0)
    basis = PlaneWaveBasis(2, 4)
    table = fourier_table(spec, 8)
    k = np.array([0.3, -0.2])
    sol = solve_bands(table, basis, k, 4)
    expected = np.sort(np.sum((2 * np.pi * basis.indices + k) ** 2, axis=1))[:4]
    assert np.max(np.abs(sol.omega2 - expected)) < 1e-10


# ---------------------------------------------------------------------------
# Pencil invariants
# ---------------------------------------------------------------------------

def test_b_orthonormal_eigenvectors(med1d):
    basis = PlaneWaveBasis(1, 16)
    table = fourier_table(med1d, 32)
    sol = solve_bands(table, basis, [0.7], 6)
    _, B = assemble_operator(table, basis, [0.7])
    gram = sol.vectors.conj().T @ B @ sol.vectors
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def _toeplitz_pencil(table, jj):
    """(E, B) gathered by hand on the index set jj (M, d) with the table's
    rule, both Toeplitz: E = [[1/G]]^-1 (1D, the inverse rule) or [[G]] (2D,
    Laurent's rule), and B = [[rho]]."""
    diff = tuple((jj[:, a, None] - jj[None, :, a]) + table.cutoff
                 for a in range(jj.shape[1]))
    if table.compliance_hat is None:
        E = table.G_hat[diff]
    else:
        E = np.linalg.inv(table.compliance_hat[diff])
    return E, table.rho_hat[diff]


def _shifted_bands(table, basis, k, shift, count):
    """Lowest `count` eigenvalues of the pencil at k built by hand on the
    index set {j + shift} (_toeplitz_pencil)."""
    jj = basis.indices + shift
    E, B = _toeplitz_pencil(table, jj)
    kpg = 2 * np.pi * jj + k
    return scipy.linalg.eigh(E * (kpg @ kpg.T), B, eigvals_only=True,
                             subset_by_index=(0, count - 1))


def test_periodicity_under_reciprocal_shift(med1d):
    """The pencil at k + 2*pi*e1 equals the pencil at k on the index-shifted
    basis, so the spectra coincide exactly: [[1/G]] is Toeplitz, so the
    shifted set gathers the same T and E."""
    basis = PlaneWaveBasis(1, 12)
    table = fourier_table(med1d, 26)      # covers all differences; shift safe
    k = 0.9
    w2 = solve_bands(table, basis, [k + 2 * np.pi], 6).omega2
    w2s = _shifted_bands(table, basis, k, 1, 6)
    assert np.max(np.abs(w2 - w2s)) < 1e-10 * max(1.0, np.max(np.abs(w2)))


def test_time_reversal(med1d):
    basis = PlaneWaveBasis(1, 12)
    table = fourier_table(med1d, 24)
    a = solve_bands(table, basis, [1.1], 4).omega2
    b = solve_bands(table, basis, [-1.1], 4).omega2
    assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("dimension, cutoff",
                         [(1, 1), (1, 2), (1, 7), (2, 1), (2, 2), (2, 5)])
def test_basis_order_read_from_the_indices(dimension, cutoff):
    """coeff_cube puts entry a at the cube point j_a + N, and reversal
    takes each position to the one of -j, both checked against the index
    array alone; j = 0 is first."""
    basis = PlaneWaveBasis(dimension, cutoff)
    j = basis.indices
    position = {tuple(x): a for a, x in enumerate(j)}
    assert position[(0,) * dimension] == 0
    v = np.random.default_rng(cutoff).standard_normal((basis.size, 2)) + 1j
    cube = basis.coeff_cube(v)
    assert cube.shape == (2 * cutoff + 1,) * dimension + (2,)
    for a, x in enumerate(j):
        assert np.array_equal(cube[tuple(x + cutoff)], v[a])
    reversed_v = v[basis.reversal()]
    for a, x in enumerate(j):
        assert np.array_equal(reversed_v[a], v[position[tuple(-x)]])


@pytest.mark.parametrize("spec, cutoff", [
    (two_phase_1d(), 32), (two_phase_1d(), 128), (two_phase_1d(), 256),
    (disk_2d(), 8),
    (MediumSpec(dimension=1, background_G=1.0, background_rho=1.0,
                inclusions=(Inclusion((0.1,), 0.25, 6.0, 20.0),)), 64)])
def test_acoustic_frequency_is_exactly_zero(spec, cutoff):
    """omega_0^2(0) is exactly 0.0 from the parity blocks and from the full
    pencil: j = 0 leads the basis, so the zero row and column of S(0) lead
    the elimination (in the cube's own order it is a roundoff instead)."""
    assert eigenpair_at_gamma(spec, 0, cutoff).omega2 == 0.0
    basis = PlaneWaveBasis(spec.dimension, cutoff)
    table = fourier_table(spec, 2 * cutoff)
    k = np.zeros(spec.dimension)
    assert solve_bands(table, basis, k, 1).omega2[0] == 0.0


def test_variational_monotonicity(med2d):
    """Galerkin eigenvalues decrease monotonically as the basis grows: in
    2D, Laurent's rule makes each pencil a principal submatrix of the next
    (Rayleigh-Ritz).  The 1D inverse rule has no such nesting; its
    convergence is tested against the transfer-matrix oracle."""
    k = [1.0, 0.4]
    prev = None
    for N in (2, 4, 6):
        basis = PlaneWaveBasis(2, N)
        table = fourier_table(med2d, 2 * N)
        w2 = solve_bands(table, basis, k, 4).omega2
        if prev is not None:
            assert np.all(w2 <= prev + 1e-12)
        prev = w2


def test_discrete_parseval(med1d):
    basis = PlaneWaveBasis(1, 6)
    table = fourier_table(med1d, 12)
    M = basis.size
    sol = solve_bands(table, basis, [0.4], M)
    _, B = assemble_operator(table, basis, [0.4])
    rng = np.random.default_rng(7)
    x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    coeffs = sol.vectors.conj().T @ (B @ x)
    lhs = float(np.sum(np.abs(coeffs) ** 2))
    rhs = float(np.real(np.vdot(x, B @ x)))
    assert abs(lhs - rhs) < 1e-10 * rhs


# ---------------------------------------------------------------------------
# Transfer-matrix oracle for the layered medium
# ---------------------------------------------------------------------------

def transfer_matrix_edges(G, rho, n_edges=4):
    """Band edges of a half-half bilayer from the monodromy trace.

    cos k = cos(w s1 l1) cos(w s2 l2)
            - (z1^2 + z2^2)/(2 z1 z2) sin(w s1 l1) sin(w s2 l2),
    edges at trace = +-1.
    """
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


def test_inverse_rule_band_edges_converge_as_cube(med1d):
    """Li's inverse rule puts criterion 3's four 1D band edges within 2e-5
    of the transfer-matrix oracle at N = 32 (Laurent's rule: 5.8e-3), and
    the error falls at least 4x per doubling of N (about 8x, N^-3)."""
    oracle = transfer_matrix_edges((1.0, 6.0), (1.0, 20.0), n_edges=4)
    errors = []
    for N in (32, 64, 128):
        basis = PlaneWaveBasis(1, N)
        table = fourier_table(med1d, 2 * N)
        w0 = solve_bands(table, basis, [0.0], 3).omega2
        wp = solve_bands(table, basis, [np.pi], 3).omega2
        edges = np.sort(np.sqrt([wp[0], wp[1], w0[1], w0[2]]))
        errors.append(np.max(np.abs(edges - oracle) / oracle))
    assert errors[0] <= 2e-5
    assert errors[1] <= errors[0] / 4 and errors[2] <= errors[1] / 4


# ---------------------------------------------------------------------------
# Diagrams, gaps, export
# ---------------------------------------------------------------------------

def test_brillouin_path_2d_geometry():
    """Gamma -> X -> M -> Gamma, 10 equal steps per segment."""
    pts = brillouin_path(2, samples_per_segment=10)
    assert pts.shape == (31, 2)
    corners = np.pi * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(pts[::10], corners)
    steps = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
    assert np.allclose(steps, np.repeat([1.0, 1.0, np.sqrt(2.0)], 10) * np.pi
                       / 10, rtol=1e-12)


def test_find_band_gaps_1d(med1d):
    diagram = dispersion_diagram(med1d, cutoff=16, count=4,
                                 samples_per_segment=40)
    gaps = find_band_gaps(diagram)
    assert len(gaps) >= 2
    g0 = gaps[0]
    assert g0.below_branch == 0
    assert abs(g0.omega2_low - diagram.omega2[:, 0].max()) < 1e-12
    assert abs(g0.omega2_high - diagram.omega2[:, 1].min()) < 1e-12


def test_export_diagram_csv(tmp_path, med1d):
    diagram = dispersion_diagram(med1d, cutoff=8, count=3,
                                 samples_per_segment=5)
    path = tmp_path / "disp.csv"
    export_diagram_csv(diagram, str(path), header_lines=["probe"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "k_index,k_1,m,omega"
    nk = diagram.omega2.shape[0]
    assert len(lines) == 2 + 3 * nk

    npath = tmp_path / "disp_norm.csv"
    export_diagram_csv(diagram, str(npath), normalized=True, G1=1.0, rho1=1.0)
    row = npath.read_text().splitlines()[1].split(",")
    assert abs(float(row[1]) - diagram.k_points[0, 0] / np.pi) < 1e-12


# ---------------------------------------------------------------------------
# Zone-center eigenpair
# ---------------------------------------------------------------------------

def test_fix_phase():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    w = fix_phase(v)
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) < 1e-12
    assert w[0].imag < 1e-12 and w[0].real > 0


def test_fix_phase_fallback_takes_first_of_a_tie():
    """A zero-mean vector is pivoted on the first coefficient within
    PHASE_FALLBACK_TOL of the largest, not on whichever roundoff favours."""
    v = np.array([1e-17, -0.6, 0.6 * (1 + 1e-13), 0.1])
    assert fix_phase(v)[1] == 0.6
    assert fix_phase(-v)[1] == 0.6


def test_branch1_gauge_does_not_depend_on_cutoff(med1d):
    """Branch 1 of the two-phase medium is odd: c0[0] is roundoff, and
    j = -1 and j = +1 tie in magnitude.  Its low modes must agree across
    cutoffs, not flip sign with the roundoff that breaks the tie."""
    low = {}
    for cutoff in (16, 32, 64, 128, 256):
        gamma = eigenpair_at_gamma(med1d, 1, cutoff)
        mask = np.abs(gamma.basis.indices[:, 0]) <= 3
        low[cutoff] = (gamma.basis.indices[mask, 0], gamma.coeffs[mask])
    j_ref, c_ref = low[256]
    for cutoff, (j, c) in low.items():
        assert np.array_equal(j, j_ref)
        assert np.linalg.norm(c - c_ref) < 0.1 * np.linalg.norm(c_ref), cutoff


def _parity_cases():
    return [(two_phase_1d(), PlaneWaveBasis(1, 5)),
            (_offcentre_1d(6.0, 20.0, 0.2, 0.1), PlaneWaveBasis(1, 5)),
            (disk_2d(), PlaneWaveBasis(2, 3)),
            (MediumSpec(dimension=2, background_G=1.0, background_rho=1.0,
                        inclusions=(Inclusion((0.1, -0.2), 0.2, 3.0, 2.0),)),
             PlaneWaveBasis(2, 2))]


def _pencil_cases():
    return _parity_cases() + [(two_phase_1d(smoothing=0.05),
                               PlaneWaveBasis(1, 16))]


@pytest.mark.parametrize("case", range(5))
def test_pencil_is_the_toeplitz_gather(case):
    """bloch_pencil's E and B, lifted from the parity blocks for a real
    table, are the Toeplitz gathers built by hand (_toeplitz_pencil); for a
    real table both are exactly symmetric and P-invariant."""
    spec, basis = _pencil_cases()[case]
    table = fourier_table(spec, 2 * basis.cutoff)
    pencil = bloch_pencil(table, basis)
    for got, want in zip((pencil.E, pencil.B),
                         _toeplitz_pencil(table, basis.indices)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if np.isrealobj(pencil.B):
        P = basis.reversal()
        for A in (pencil.E, pencil.B):
            assert np.array_equal(A, A.T)
            assert np.array_equal(A, A[np.ix_(P, P)])


@pytest.mark.parametrize("case", range(4))
def test_parity_blocks_are_the_pencil_in_the_parity_basis(case):
    """The lifted block coordinates are an orthonormal basis Q; Q_r^T A Q_c
    is block (r, c) of S0, G, B and each S1_a, with G and B the Toeplitz
    gathers built by hand (_toeplitz_pencil), and zero off the structure;
    a real table gives an even and an odd block, a complex one a single
    block, which is the full pencil.  The even block's e_0 corner is B's
    (0, 0) entry exactly, as (e_0 B e_0) is, and under Laurent's rule G's."""
    spec, basis = _parity_cases()[case]
    table = fourier_table(spec, 2 * basis.cutoff)
    z = parity_blocks(table, basis)
    G, B = _toeplitz_pencil(table, basis.indices)
    tp = 2.0 * np.pi * basis.indices
    S0 = G * (tp @ tp.T)
    S1 = [G * (t[:, None] + t[None, :]) for t in tp.T]
    n = len(z.index)
    assert n == (2 if np.isrealobj(z.B[0]) else 1)
    Q = [z.lift(np.eye(len(u)), i) for i, u in enumerate(z.index)]
    full = np.concatenate(Q, axis=1)
    assert full.shape == (basis.size,) * 2
    assert np.allclose(full.conj().T @ full, np.eye(basis.size), atol=1e-15)
    scale = np.abs(S0).max()

    def block(A, r, c):
        return Q[r].conj().T @ A @ Q[c]

    for r in range(n):
        for c in range(n):
            for A, blocks in ((S0, z.S0), (G, z.E), (B, z.B)):
                want = blocks[r] if r == c else 0.0
                assert np.allclose(block(A, r, c), want, atol=1e-13 * scale)
            for a, A in enumerate(S1):
                want = z.S1[a][c] if r == z.flip(c) else 0.0
                assert np.allclose(block(A, r, c), want, atol=1e-13 * scale)
    x = np.random.default_rng(case).standard_normal(basis.size)
    assert np.allclose(z.mass(x), B @ x, atol=1e-13)
    if n == 1:                     # the identity change of basis, exactly
        pencil = z.pencil()
        assert pencil.E is z.E[0] and pencil.B is z.B[0]
        assert np.array_equal(pencil.stiffness(0.0), z.S0[0])
        assert np.array_equal(z.restrict(x, 0), x)
    else:
        assert z.B[0][0, 0] == B[0, 0]
        assert table.compliance_hat is not None or z.E[0][0, 0] == G[0, 0]


def test_gamma_pair_normalization(gamma1d_32):
    _, B = assemble_operator(gamma1d_32.table, gamma1d_32.basis, [0.0])
    norm = np.vdot(gamma1d_32.coeffs, B @ gamma1d_32.coeffs)
    assert abs(norm - 1.0) < 1e-10
    assert gamma1d_32.simple


def test_simplicity_flags(med2d):
    homog = MediumSpec(dimension=1, background_G=1.0, background_rho=1.0)
    degenerate = eigenpair_at_gamma(homog, 1, 8)   # +-1 modes coincide
    assert not degenerate.simple
    p3 = eigenpair_at_gamma(med2d, 3, 8)
    assert p3.simple and p3.separation > 1e-2


def test_eigenpair_rejects_a_negative_branch(med1d):
    """branch -1 is an error, not branch 0's pair labelled -1; the
    available range is unchanged."""
    with pytest.raises(ValueError, match="branch must be >= 0"):
        eigenpair_at_gamma(med1d, -1, 8)
    with pytest.raises(ValueError, match="not available"):
        eigenpair_at_gamma(med1d, 17, 8)


def test_solve_bands_validation(med1d):
    basis = PlaneWaveBasis(1, 4)
    table = fourier_table(med1d, 8)
    with pytest.raises(ValueError):
        solve_bands(table, basis, [0.0], 0)
    with pytest.raises(ValueError):
        solve_bands(table, basis, [0.0, 0.0], 2)
    small = fourier_table(med1d, 4)
    with pytest.raises(ValueError):
        assemble_operator(small, basis, [0.0])


# ---------------------------------------------------------------------------
# One pencil: real arithmetic for centred media, +-k pairing
# ---------------------------------------------------------------------------

def test_find_band_gaps_ignores_touching_branches():
    """Branches touching to within roundoff are no gap; a real gap is."""
    ks = np.linspace(0.0, np.pi, 5)[:, None]
    omega2 = np.array([[0.0, 10.0, 20.0], [1.0, 9.0, 25.0], [2.0, 8.0, 24.0],
                       [3.0, 8.5, 22.0], [4.0, 7.0, 21.0]])
    omega2[2, 1] = 10.0 + 1e-12       # branch 1 max touches branch 2 min ...
    omega2[0, 2] = 10.0 + 2e-12       # ... to within 1e-12
    diagram = DispersionDiagram(k_points=ks, omega2=omega2)
    gaps = find_band_gaps(diagram)
    assert [g.below_branch for g in gaps] == [0]
    assert gaps[0].omega2_low == 4.0 and gaps[0].omega2_high == 7.0


def test_pencil_dtype_follows_tables(med1d, med2d):
    basis = PlaneWaveBasis(1, 6)
    assert bloch_pencil(fourier_table(med1d, 12), basis).E.dtype == np.float64
    shifted = _offcentre_1d(6.0, 20.0, 0.2, 0.1)
    pencil = bloch_pencil(fourier_table(shifted, 12), basis)
    assert pencil.E.dtype == pencil.B.dtype == np.complex128
    # density contrast only: G_hat is real, rho_hat is not
    rho_only = fourier_table(_offcentre_1d(1.0, 20.0, 0.2, 0.1), 12)
    assert not np.any(rho_only.G_hat.imag)
    assert bloch_pencil(rho_only, basis).B.dtype == np.complex128
    basis2 = PlaneWaveBasis(2, 3)
    assert bloch_pencil(fourier_table(med2d, 6), basis2).B.dtype == np.float64


@pytest.mark.parametrize("shifted", [False, True])
def test_stiffness_into_buffer_equals_new_array(med1d, shifted):
    """stiffness(k, out=buf) fills and returns buf, bitwise equal to
    stiffness(k), for a real and a complex pencil."""
    spec = _offcentre_1d(6.0, 20.0, 0.2, 0.1) if shifted else med1d
    pencil = bloch_pencil(fourier_table(spec, 16), PlaneWaveBasis(1, 8))
    buf = np.empty_like(pencil.E)
    for k in (0.0, np.array([0.7]), np.array([-2.9])):
        S = pencil.stiffness(k, out=buf)
        assert S is buf
        assert np.array_equal(S, pencil.stiffness(k))


def test_brillouin_path_1d_exactly_symmetric():
    pts = brillouin_path(1, samples_per_segment=30)
    assert np.array_equal(pts[::-1, 0], -pts[:, 0])
    assert pts[0, 0] == -np.pi and pts[-1, 0] == np.pi and pts[30, 0] == 0.0


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("samples", [0, -2])
def test_brillouin_path_needs_a_sample_per_segment(dimension, samples):
    with pytest.raises(ValueError, match="samples_per_segment must be >= 1"):
        brillouin_path(dimension, samples_per_segment=samples)


def test_reversal_classes_symmetric_1d_path():
    """-pi..0 open the n + 1 classes; each k > 0 is minus its class's first
    sample."""
    n = 30
    first, rep, negated = reversal_classes(brillouin_path(1, n))
    assert np.array_equal(first, np.arange(n + 1))
    assert np.array_equal(rep, np.r_[np.arange(n + 1), np.arange(n)[::-1]])
    assert np.array_equal(negated, np.arange(2 * n + 1) > n)


def test_reversal_classes_odd_gauss_rule():
    """k = 0 of an odd rule is a class of one, not negated; the other nodes
    pair off, the first of each pair at k < 0."""
    ks = wavenumber_quadrature(1, 8.0, 65).nodes
    first, rep, negated = reversal_classes(ks)
    assert len(first) == 33 and np.all(ks[first[:32], 0] < 0.0)
    assert ks[first[32], 0] == 0.0 and np.count_nonzero(rep == 32) == 1
    assert np.count_nonzero(negated) == 32 and not negated[32]
    assert np.array_equal(ks[negated], -ks[first[rep[negated]]])


def test_reversal_classes_2d_path_repeats_gamma():
    """The closing Gamma of the 2D path repeats the first sample: the same
    class, not negated; no other sample pairs."""
    first, rep, negated = reversal_classes(brillouin_path(2, 10))
    assert np.array_equal(first, np.arange(30))
    assert rep[-1] == 0 and not negated.any()


def test_reversal_classes_repeats_of_minus_k():
    """A repeat of -k is negated, a repeat of k is not; -0.0 equals 0.0."""
    first, rep, negated = reversal_classes(
        [[0.5], [0.7], [-0.5], [0.5], [-0.5], [0.0], [-0.0]])
    assert np.array_equal(first, [0, 1, 5])
    assert np.array_equal(rep, [0, 1, 0, 0, 0, 2, 2])
    assert np.array_equal(negated, [False, False, True, False, True, False,
                                    False])


def test_diagram_solves_each_pm_k_pair_once(med1d, monkeypatch):
    calls = []
    real_solve = bloch_module.solve_bands

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bloch_module, "solve_bands", counting)
    diagram = dispersion_diagram(med1d, cutoff=8, count=3,
                                 samples_per_segment=10)
    assert diagram.omega2.shape == (21, 3) and len(calls) == 11
    calls.clear()
    dispersion_diagram(med1d, cutoff=4, count=2,
                       k_points=[[0.5], [0.7], [-0.5], [0.5]])
    assert len(calls) == 2


def _offcentre_1d(G2, rho2, radius, centre):
    return MediumSpec(dimension=1, background_G=1.0, background_rho=1.0,
                      inclusions=(Inclusion(center=(centre,), radius=radius,
                                            G=G2, rho=rho2),))


_media = dict(G2=st.floats(0.2, 20.0), rho2=st.floats(0.2, 30.0),
              radius=st.floats(0.05, 0.2), centre=st.floats(-0.25, 0.25),
              k=st.floats(-np.pi, np.pi), cutoff=st.integers(3, 12))


@settings(max_examples=30, deadline=None)
@given(**_media)
def test_translation_invariance_real_vs_complex(G2, rho2, radius, centre, k,
                                                cutoff):
    """Moving the inclusion multiplies the pencil by a diagonal phase, so the
    off-centre medium (complex tables) and the centred one (real tables)
    share their spectrum: the two dtype paths checked against each other."""
    basis = PlaneWaveBasis(1, cutoff)
    centred = fourier_table(_offcentre_1d(G2, rho2, radius, 0.0), 2 * cutoff)
    moved = fourier_table(_offcentre_1d(G2, rho2, radius, centre), 2 * cutoff)
    a = solve_bands(centred, basis, [k], 5)
    b = solve_bands(moved, basis, [k], 5)
    assert a.vectors.dtype == np.float64
    assert np.max(np.abs(a.omega2 - b.omega2)) <= \
        1e-10 * np.max(np.abs(a.omega2))


@settings(max_examples=30, deadline=None)
@given(**_media)
def test_time_reversal_offcentre(G2, rho2, radius, centre, k, cutoff):
    basis = PlaneWaveBasis(1, cutoff)
    table = fourier_table(_offcentre_1d(G2, rho2, radius, centre), 2 * cutoff)
    a = solve_bands(table, basis, [k], 5).omega2
    b = solve_bands(table, basis, [-k], 5).omega2
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


@settings(max_examples=15, deadline=None)
@given(G2=_media["G2"], rho2=_media["rho2"], radius=_media["radius"],
       centre=_media["centre"], cutoff=st.integers(3, 8),
       samples=st.integers(1, 6))
def test_paired_diagram_equals_per_k_solve(G2, rho2, radius, centre, cutoff,
                                           samples):
    spec = _offcentre_1d(G2, rho2, radius, centre)
    diagram = dispersion_diagram(spec, cutoff=cutoff, count=4,
                                 samples_per_segment=samples)
    basis = PlaneWaveBasis(1, cutoff)
    table = fourier_table(spec, 2 * cutoff)
    per_k = np.array([solve_bands(table, basis, k, 4).omega2
                      for k in diagram.k_points])
    assert np.max(np.abs(diagram.omega2 - per_k)) <= \
        1e-10 * np.max(np.abs(per_k))


@st.composite
def _admissible_medium(draw, dim):
    """One inclusion of random contrast, size and position in a random
    background (positive G and rho, the inclusion inside the cell), a
    cutoff and a wavevector in the Brillouin zone."""
    centre = tuple(draw(st.floats(-0.25, 0.25)) for _ in range(dim))
    spec = MediumSpec(dimension=dim, background_G=draw(st.floats(0.2, 5.0)),
                      background_rho=draw(st.floats(0.2, 5.0)),
                      inclusions=(Inclusion(center=centre,
                                            radius=draw(st.floats(0.05, 0.2)),
                                            G=draw(st.floats(0.2, 20.0)),
                                            rho=draw(st.floats(0.2, 30.0))),))
    cutoff = draw(st.integers(3, 12) if dim == 1 else st.integers(2, 4))
    k = np.array([draw(st.floats(-np.pi, np.pi)) for _ in range(dim)])
    return spec, cutoff, k


@pytest.mark.parametrize("dim", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reciprocal_shift_periodicity(dim, data):
    """omega(k + 2 pi e_a) = omega(k) up to the basis truncation.  The
    pencil at k + 2 pi e_a on the cutoff-N basis is the pencil at k on the
    index set {j + e_a}, exactly, under either rule (_shifted_bands).  In
    2D that set holds the cutoff-(N-1) set and lies in the cutoff-(N+1)
    set, and Laurent's rule nests the pencils, so by Rayleigh-Ritz both
    omega_m(k + 2 pi e_a; N) and omega_m(k; N) lie in [omega_m(k; N+1),
    omega_m(k; N-1)]: the shift moves no band by more than that bracket,
    which closes as N grows.  The 1D inverse rule's E = [[1/G]]^-1 is no
    principal submatrix of the larger one's, and has no bracket."""
    spec, N, k = data.draw(_admissible_medium(dim))
    table = fourier_table(spec, 2 * (N + 1))
    count = 4

    def bands(cutoff, kv):
        return solve_bands(table, PlaneWaveBasis(dim, cutoff), kv,
                           count).omega2

    upper, lower = bands(N - 1, k), bands(N + 1, k)
    tol = 1e-10 * np.max(np.abs(upper))
    for a in range(dim):
        shift = np.eye(dim, dtype=int)[a]
        shifted = bands(N, k + 2.0 * np.pi * shift)
        assert np.max(np.abs(shifted - _shifted_bands(
            table, PlaneWaveBasis(dim, N), k, shift, count))) <= tol
        if dim == 2:
            assert np.all(lower - tol <= shifted)
            assert np.all(shifted <= upper + tol)
            assert np.max(np.abs(shifted - bands(N, k))) <= \
                np.max(upper - lower) + tol


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_rule_gives_the_harmonic_mean(data):
    """Under the inverse rule the zone-centre tensor is exact at every
    cutoff: mu0 / rho0 = <1/G>^-1 / <rho> to 1e-13 (the Schur complement
    of E = T^-1 on j = 0 is 1 / T[0, 0] = <1/G>^-1), for each random 1D
    medium and its centred copy.  The centred copy's lifted E is exactly
    symmetric and P-invariant, as the +-k pairing needs, and the same
    whether lifted from the eigenpair's parity blocks or built anew."""
    spec, N, _ = data.draw(_admissible_medium(1))
    (inc,) = spec.inclusions
    centred = MediumSpec(dimension=1, background_G=spec.background_G,
                         background_rho=spec.background_rho,
                         inclusions=(Inclusion((0.0,), inc.radius, inc.G,
                                               inc.rho),))
    fill = 2.0 * inc.radius
    harmonic = 1.0 / ((1.0 - fill) / spec.background_G + fill / inc.G)
    mean_rho = (1.0 - fill) * spec.background_rho + fill * inc.rho
    for medium in (spec, centred):
        eff = effective_coefficients(solve_cell_functions(
            eigenpair_at_gamma(medium, 0, N)))
        assert abs(eff.mu0[0, 0] / eff.rho0 * mean_rho / harmonic - 1.0) \
            <= 1e-13
    gamma = eff.gamma
    E = bloch_pencil(gamma.table, gamma.basis).E
    P = gamma.basis.reversal()
    assert E.dtype == np.float64 and np.array_equal(E, gamma.pencil.E)
    assert np.array_equal(E, E.T) and np.array_equal(E, E[np.ix_(P, P)])


def test_paired_diagram_equals_per_k_solve_2d(med2d):
    """Explicit +-k samples on the 2D medium (real pencil)."""
    ks = np.array([[0.4, -1.1], [-0.4, 1.1], [2.0, 0.3], [-2.0, -0.3]])
    diagram = dispersion_diagram(med2d, cutoff=3, count=5, k_points=ks)
    basis = PlaneWaveBasis(2, 3)
    table = fourier_table(med2d, 6)
    per_k = np.array([solve_bands(table, basis, k, 5).omega2 for k in ks])
    assert np.max(np.abs(diagram.omega2 - per_k)) <= \
        1e-10 * np.max(np.abs(per_k))
