"""
Floquet-Bloch eigenproblem on the unit cell, discretized with plane waves.

For a wavevector k in [-pi, pi]^d the shifted operator
    A(k) u = -(1/rho) (grad + ik) . [ G (grad + ik) u ]
is discretized in the basis e_a(x) = exp(i 2 pi j_a . x), |j_a|_inf <= N,
giving the generalized Hermitian pencil

    S(k)[a, b] = E[a, b] (2 pi j_b + k) . (2 pi j_a + k)
    B[a, b]    = rho_hat(j_a - j_b)

whose eigenvalues are the squared Bloch frequencies omega_m^2(k).  E is the
matrix of the flux G (grad + ik) u.  In 2D it is Laurent's rule, E[a, b] =
G_hat(j_a - j_b).  In 1D it is Li's inverse rule (L. Li, JOSA A 13, 1870,
1996), E = T^{-1} with T[a, b] = (1/G)^(j_a - j_b).  The flux is continuous
where G and the derivative both jump; Laurent's rule for such a product
converges only as O(1/N), and under the inverse rule the band edges
converge as N^-3 and the zone-centre mu0 is exact at every N.  T is the
Toeplitz matrix of a positive symbol, so T and E are positive definite, and
S(k) is positive semidefinite under both rules: every omega_m^2(k) >= 0,
which source.make_frequency and the exact solver's Cholesky factorizations
below the spectrum rely on.

A BlochPencil holds the k-independent parts, E and B (Hermitian) and 2 pi j,
and is built once per call that solves at many k.  It is float64 when both
coefficient tables are exactly real (centred inclusions: phase exp(-0j))
and complex otherwise.  G and rho are real-valued, so S(-k) = P conj(S(k)) P
and B = P conj(B) P with P: j -> -j, and the spectra at +-k coincide.
reversal_classes is the one rule by which every loop over wavevector
samples (dispersion_diagram, source.make_frequency and the exact solver's
node loop) solves each +-k pair once.

At k = 0 a real pencil commutes with P itself, so in P's parity basis it
splits into an even and an odd block of about M/2 each (ParityBlocks, after
Cantoni & Butler, Linear Algebra Appl. 13, 275, 1976).  eigenpair_at_gamma
solves both blocks and the cell problems solve block by block; a complex
pencil (off-centre media) does not commute with P and is one block.  T
commutes with P too, and the change of basis is orthogonal, so the blocks
of E are the inverses of T's.  parity_blocks is the one code that reads a
coefficient table: it chooses the rule, gathers the blocks and inverts T's
(_spd_inverse, one Cholesky each).  Every BlochPencil is ParityBlocks.pencil:
a complex table's one block, or a real table's E and B lifted from their
blocks (_lift), with no M x M factorization and no second gather.

_eigenvalues_below counts the pencil's eigenvalues below a shift by
Sylvester inertia, with no eigensolve: source.make_frequency validates
drives with it, and the exact solver checks its gap condition.

Every dense product of the package goes through contract, on scipy's BLAS
?gemm, and the exact solver's Schur complements are one ?syrk each: scipy
also does all of the LAPACK work (eigh, ?potrf/?potri/?potrs, ?hesv, LU).
numpy and scipy may each bundle their own OpenBLAS, each with its own
thread pool; after a call a pool's workers keep spinning for a while, and
the other pool's work runs at about half speed meanwhile.  With one
library, one pool is busy at a time.  stiffness makes no BLAS call at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .medium import CoefficientTable, MediumSpec, fourier_table

PHASE_FALLBACK_TOL = 1e-8
SIMPLE_REL_TOL = 1e-6
GAP_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Dense products
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gemm(dtype: np.dtype):
    """scipy's BLAS ?gemm for `dtype` (float64 or complex128), looked up
    once per dtype."""
    return scipy.linalg.get_blas_funcs("gemm", dtype=dtype)


def _fortran(m: np.ndarray):
    """(F-contiguous array, trans) with op(array) = m for ?gemm; only a
    matrix that is neither C- nor F-contiguous is copied."""
    if m.flags.f_contiguous:
        return m, 0
    if m.flags.c_contiguous:
        return m.T, 1
    return np.asfortranarray(m), 0


def contract(a, b) -> np.ndarray:
    """Sum over the last axis of `a` and the first axis of `b`, shape
    a.shape[:-1] + b.shape[1:] (np.tensordot(a, b, 1)); a numpy scalar when
    both are vectors.  The package's one dense product, on scipy's ?gemm
    (see the module docstring).

    A real `a` times a complex `b` multiplies `a` by the float64 view of `b`
    (real and imaginary parts as interleaved columns), with no complex copy
    of `a`; a complex `a` times a real `b` uses a complex copy of `b`.
    """
    a, b = np.asarray(a), np.asarray(b)
    shape = a.shape[:-1] + b.shape[1:]
    a2 = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
    b2 = b.reshape(b.shape[0], math.prod(b.shape[1:]))
    split = np.iscomplexobj(b2) and not np.iscomplexobj(a2)
    if split:
        b2 = np.ascontiguousarray(b2, dtype=complex).view(np.float64)
    dtype = np.result_type(a2, b2, np.float64)
    # out^T = b2^T a2^T: ?gemm writes it F-contiguous, so out is C-contiguous
    x, trans_a = _fortran(b2.T.astype(dtype, copy=False))
    y, trans_b = _fortran(a2.T.astype(dtype, copy=False))
    out = _gemm(dtype)(1.0, x, y, trans_a=trans_a, trans_b=trans_b).T
    if split:
        out = out.view(complex)
    return out.reshape(shape)[()]


def norm(x) -> float:
    """The Euclidean (Frobenius) norm of all entries of x, with no BLAS
    call: numpy.linalg.norm runs numpy's own BLAS."""
    return math.sqrt(float(np.sum(np.square(np.abs(x)))))


@dataclass(frozen=True)
class PlaneWaveBasis:
    """Truncated Fourier basis exp(i 2 pi j.x), |j|_inf <= cutoff.

    The order is the (2N+1)^d cube of j in C order with its centre j = 0
    moved to the front.  With M = size and h = M // 2, position 0 is j = 0,
    positions 1..h the first half of the cube (one j of each +-j pair) and
    h+1..M-1 its second half, where the -j of position p >= 1 is M - p.
    j = 0 comes first so that the zero row and column of S(0) lead every
    elimination: eigh then returns the acoustic omega^2(0) as exactly 0.0,
    where the cube's own order leaves a roundoff of 1e-13 to 1e-10.
    """

    dimension: int
    cutoff: int
    indices: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        n, d = 2 * self.cutoff + 1, self.dimension
        cube = np.indices((n,) * d).reshape(d, -1).T - self.cutoff
        h = len(cube) // 2                      # the centre, j = 0
        object.__setattr__(self, "indices", cube[np.r_[h, :h, h + 1:n ** d]])

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def reversal(self) -> np.ndarray:
        """Basis position of -j for every basis function j (P: j -> -j as an
        index array: (P x)[a] = x[reversal[a]]): 0, then M - p for p >= 1."""
        return np.r_[0, self.size - 1:0:-1]

    def coeff_cube(self, vec: np.ndarray) -> np.ndarray:
        """Rearrange coefficients (M, *extra) into a dense complex (2N+1)^d
        cube with the trailing `extra` axes kept: shape (2N+1,)*d + extra;
        j = 0 goes back to the centre."""
        vec = np.asarray(vec)
        h = self.size // 2
        shape = (2 * self.cutoff + 1,) * self.dimension + vec.shape[1:]
        return np.concatenate([vec[1:h + 1], vec[:1], vec[h + 1:]],
                              dtype=complex).reshape(shape)


@dataclass(frozen=True)
class BlochPencil:
    """E (Laurent's rule in 2D, Li's inverse rule in 1D: module docstring),
    B[a, b] = rho_hat(j_a - j_b) and tp = 2 pi j of one coefficient table;
    built from the table's ParityBlocks (ParityBlocks.pencil) per call that
    solves at many k, and once per GammaPair for its k != 0 solves."""

    basis: PlaneWaveBasis
    E: np.ndarray
    B: np.ndarray
    tp: np.ndarray

    def stiffness(self, k, out=None) -> np.ndarray:
        """S(k) = E o sum_a outer(kpg_a, kpg_a), kpg = 2 pi j + k: d <= 2
        outer products, no BLAS call, in `out` (C-contiguous, E's shape and
        dtype) or a new buffer."""
        kpg = (self.tp + k).T
        out = np.empty_like(self.E) if out is None else out
        S = np.multiply.outer(kpg[0], kpg[0], out=out)
        for t in kpg[1:]:
            S += np.multiply.outer(t, t)
        return np.multiply(self.E, S, out=S)

    def blocks(self):
        """(S0, S1_list, Gm, B) with S(k) = S0 + sum k_a S1[a] + |k|^2 Gm:
        S0 = D E D, S1_a = D_a E + E D_a and Gm = E, D_a = diag(tp_a)."""
        S1 = [self.E * (t[:, None] + t[None, :]) for t in self.tp.T]
        return self.stiffness(0.0), S1, self.E, self.B


def _differences(rows: np.ndarray, cols: np.ndarray, cutoff: int):
    """Table index of j_r - j_c for every row index j_r and column index j_c."""
    return tuple(r[:, None] - (c - cutoff)[None, :]
                 for r, c in zip(rows.T, cols.T))


def _spd_inverse(T: np.ndarray) -> np.ndarray:
    """T^{-1} of a Hermitian positive definite T, exactly Hermitian: ?potrf
    and ?potri (Cholesky) on the lower triangle of T's F-contiguous
    transpose conj(T) (no copy of a C-contiguous T, which is overwritten),
    whose inverse's transpose holds the upper triangle of T^{-1}; the lower
    one is mirrored from it."""
    potrf, potri = (_lapack(name, T.dtype, len(T))[0]
                    for name in ("potrf", "potri"))
    factor, info = potrf(T.T, lower=1, clean=1, overwrite_a=True)
    if info == 0:
        inverse, info = potri(factor, lower=1, overwrite_c=True)
    if info != 0:
        raise ValueError(f"compliance matrix not positive definite "
                         f"(LAPACK info {info})")
    E = inverse.T                          # upper triangle, zeros below
    E += np.triu(E, 1).T.conj()
    return E


def _lift(pair) -> np.ndarray:
    """The P-invariant symmetric matrix (E or B of a real table) with even
    and odd parity blocks pair = (Ap, Ao): A = (Ap + Ao) / 2 between j and
    j, Abar = (Ap - Ao) / 2 between j and -j; row and column 0 (j = 0, Ao
    has none) are Ap's unscaled (A = Abar = Ap / sqrt 2, the corner Ap).
    The even rows are positions 0..h and positions h+1..M-1 their -j in
    reverse (PlaneWaveBasis), so each quarter of the matrix is one slice
    copy.  Each entry equals its mirror and its P image exactly."""
    Ap, Ao = pair
    A = 0.5 * Ap
    A[0, 1:] *= math.sqrt(2.0)
    A[1:, 0] *= math.sqrt(2.0)
    A[0, 0] *= 2.0
    Abar = A.copy()
    A[1:, 1:] += 0.5 * Ao
    Abar[1:, 1:] -= 0.5 * Ao
    h = len(Ao)
    full = np.empty((2 * h + 1,) * 2, dtype=A.dtype)
    full[:h + 1, :h + 1] = A
    full[:h + 1, h + 1:] = Abar[:, :0:-1]
    full[h + 1:, :h + 1] = Abar[:0:-1]
    full[h + 1:, h + 1:] = A[:0:-1, :0:-1]
    return full


def bloch_pencil(table: CoefficientTable,
                 basis: PlaneWaveBasis) -> BlochPencil:
    """The pencil of `table` on `basis`, parity_blocks(table, basis).pencil();
    float64 when both tables are exactly real, complex otherwise."""
    return parity_blocks(table, basis).pencil()


@dataclass(frozen=True)
class ParityBlocks:
    """The k = 0 pencil, S(k) = S0 + sum_a k_a S1[a] + |k|^2 E and B, in the
    parity basis of P: j -> -j, on `basis`; built once per eigenpair
    (parity_blocks), carried by its GammaPair and lifted to the full pencil.

    Block i has the orthonormal vectors q = scale (e_u + sign e_ubar), u in
    index[i], ubar = partner[i] its -j, scale 1/sqrt(2) for a pair and 1/2
    where ubar = u.  Real tables are even, so S0, E and B commute with P and
    each S1[a] anticommutes with it: an even block (sign +1: e_0 and (e_j +
    e_-j)/sqrt 2) and an odd one (sign -1), of about M/2 each.  Complex
    tables do not commute with P: one block, ubar = u = every position,
    sign +1, the identity change of basis.  S0[i], E[i], B[i] are the
    diagonal blocks; S1[a][i] is S1_a from block i to block flip(i).
    """

    basis: PlaneWaveBasis
    index: tuple
    partner: tuple
    sign: tuple
    scale: tuple
    S0: tuple
    S1: tuple
    E: tuple
    B: tuple

    def flip(self, i: int) -> int:
        """The block S1 maps block i onto: the other one, or i itself."""
        return len(self.index) - 1 - i

    def restrict(self, x: np.ndarray, i: int) -> np.ndarray:
        """Coordinates of a full-basis x (M, ...) in block i."""
        x = np.asarray(x)
        scale = self.scale[i].reshape((-1,) + (1,) * (x.ndim - 1))
        return scale * (x[self.index[i]] + self.sign[i] * x[self.partner[i]])

    def lift(self, y: np.ndarray, i: int) -> np.ndarray:
        """The full-basis vector(s) (M, ...) with block-i coordinates y."""
        y = np.asarray(y)
        part = self.scale[i].reshape((-1,) + (1,) * (y.ndim - 1)) * y
        size = sum(len(u) for u in self.index)
        x = np.zeros((size,) + y.shape[1:], dtype=y.dtype)
        x[self.index[i]] = part
        x[self.partner[i]] += self.sign[i] * part
        return x

    def mass(self, x: np.ndarray) -> np.ndarray:
        """B x in the full basis, one block product per block."""
        return sum(self.lift(contract(B, self.restrict(x, i)), i)
                   for i, B in enumerate(self.B))

    def pencil(self) -> BlochPencil:
        """The full pencil: a complex table's one block is it, and a real
        table's E and B are lifted from their two blocks (_lift)."""
        if len(self.index) == 1:
            E, B = self.E[0], self.B[0]
        else:
            E, B = _lift(self.E), _lift(self.B)
        return BlochPencil(basis=self.basis, E=E, B=B,
                           tp=2.0 * np.pi * self.basis.indices)


def parity_blocks(table: CoefficientTable, basis: PlaneWaveBasis) -> ParityBlocks:
    """The k = 0 blocks of `table` on `basis` (ParityBlocks), the one code
    that reads a table for the pencil and chooses its rule.  Each table is
    replaced by its Hermitian part (q(n) + conj q(-n)) / 2, float64 when
    both are exactly real.  A complex table gives one block, the full
    pencil, gathered over every j (E = [[G]], or T^{-1} under the inverse
    rule); a real one two blocks, from one gather of each table on the even
    rows u, the positions 0..h (j = 0 and one j of each +-j pair, in the
    order of PlaneWaveBasis), against the columns u (A) and their -j, 0 and
    M - p (Abar).

    A matrix that commutes (or anticommutes) with P has the block (A[u, v]
    + t A[u, vbar]) / sqrt(m_u m_v) between rows u and columns (v, vbar, t),
    so with row and column 0 (e_0, m = 2) scaled by 1/sqrt 2, A + Abar and
    A - Abar are the even block and, from row and column 1 on, the odd block
    of B and of the stiffness table's matrix: E itself under Laurent's rule,
    T under the inverse rule, whose two blocks are then inverted
    (_spd_inverse), giving E's blocks Ep and Em.  As 2 pi j_ubar = -2 pi
    j_u, diag(tp) maps even to odd: S0's even block is sum_a diag(tp_a) Em
    diag(tp_a), its odd block the same of Ep, and S1_a (even to odd) =
    diag(tp_a) Ep + Em diag(tp_a).  No M x M matrix is formed.
    """
    if table.dimension != basis.dimension:
        raise ValueError("table/basis dimension mismatch")
    if table.cutoff < 2 * basis.cutoff:
        raise ValueError("coefficient table cutoff must be >= 2 * basis cutoff")
    inverse = table.compliance_hat is not None    # the rule: Li's or Laurent's
    C_hat = table.compliance_hat if inverse else table.G_hat
    real = not (np.any(C_hat.imag) or np.any(table.rho_hat.imag))

    def hermitian(arr):     # (q(n) + conj q(-n)) / 2: every gather Hermitian
        h = 0.5 * (arr + arr[(slice(None, None, -1),) * arr.ndim].conj())
        return h.real if real else h

    C_hat, rho_hat = hermitian(C_hat), hermitian(table.rho_hat)
    j = basis.indices
    if not real:            # one block, the identity change of basis
        every, off = np.arange(basis.size), _differences(j, j, table.cutoff)
        E = _spd_inverse(C_hat[off]) if inverse else C_hat[off]
        S0, S1, E, B = BlochPencil(basis=basis, E=E, B=rho_hat[off],
                                   tp=2.0 * np.pi * j).blocks()
        return ParityBlocks(basis=basis, index=(every,), partner=(every,),
                            sign=(1,), scale=(np.full(basis.size, 0.5),),
                            S0=(S0,), S1=tuple((x,) for x in S1), E=(E,),
                            B=(B,))
    partner = basis.reversal()
    u = np.arange(basis.size // 2 + 1)     # j = 0, one j of each pair
    pairs, tp = u[1:], 2.0 * np.pi * j[u]              # tp[0] = 0
    near, far = (_differences(j[u], j[v], table.cutoff)
                 for v in (u, partner[u]))
    root = 1.0 / math.sqrt(2.0)

    def combinations(arr):
        """(A + Abar, A - Abar) of arr, row and column 0 scaled by root
        (the corner by 1/2 exactly: root * root is an ulp below)."""
        plus, far_part = arr[near], arr[far]
        minus = plus - far_part
        plus += far_part
        for x in (plus, minus):
            x[0, 1:] *= root
            x[1:, 0] *= root
            x[0, 0] *= 0.5
        return plus, minus

    def gram(x, t):                        # sum_a diag(t_a) x diag(t_a)
        return sum(t[:, a, None] * x * t[:, a] for a in range(t.shape[1]))

    Ep, Em = combinations(C_hat)
    if inverse:                            # E's blocks are T's inverses
        Ep = _spd_inverse(Ep)
        Em[1:, 1:] = _spd_inverse(np.ascontiguousarray(Em[1:, 1:]))
    Bp, Bm = combinations(rho_hat)
    S1 = [tp[1:, a, None] * Ep[1:] + Em[1:] * tp[:, a]
          for a in range(basis.dimension)]
    half = np.full(len(pairs), root)
    return ParityBlocks(
        basis=basis, index=(u, pairs), partner=(partner[u], partner[pairs]),
        sign=(1, -1), scale=(np.concatenate([[0.5], half]), half),
        S0=(gram(Em, tp), gram(Ep[1:, 1:], tp[1:])),
        E=(Ep, np.ascontiguousarray(Em[1:, 1:])),
        B=(Bp, np.ascontiguousarray(Bm[1:, 1:])),
        S1=tuple((x, x.T) for x in S1))


def _wavevector(k, basis: PlaneWaveBasis) -> np.ndarray:
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.shape != (basis.dimension,):
        raise ValueError("wavevector has wrong dimension")
    return k


def assemble_operator(table: CoefficientTable, basis: PlaneWaveBasis, k):
    """Stiffness and mass matrices of the shifted operator at wavevector k.
    The package solves from a BlochPencil instead; this is kept as the
    one-call full assembly the tests check, and under its name for the
    benchmark's span list."""
    pencil = bloch_pencil(table, basis)
    return pencil.stiffness(_wavevector(k, basis)), pencil.B


@dataclass
class BandSolution:
    """Lowest eigenpairs of one Bloch pencil, B-orthonormal eigenvectors."""

    omega2: np.ndarray        # (count,), ascending
    vectors: np.ndarray       # (M, count)


def solve_bands(table, basis, k, count, pencil: BlochPencil | None = None
                ) -> BandSolution:
    """Solve the pencil at wavevector k for the lowest `count` bands; callers
    solving many k on one table pass its `pencil` to build it once."""
    M = basis.size
    if not (1 <= count <= M):
        raise ValueError(f"count must be in [1, {M}]")
    k = _wavevector(k, basis)
    if pencil is None:
        pencil = bloch_pencil(table, basis)
    vals, vecs = _eigh(pencil.stiffness(k), pencil.B, count, overwrite_a=True)
    return BandSolution(omega2=vals, vectors=vecs)


def _eigh(S: np.ndarray, B: np.ndarray, count: int, overwrite_a=False):
    """Lowest `count` eigenpairs of the pencil (S, B), B-orthonormal."""
    try:
        return scipy.linalg.eigh(S, B, subset_by_index=(0, count - 1),
                                 overwrite_a=overwrite_a)
    except scipy.linalg.LinAlgError as exc:  # mass not positive definite
        raise ValueError(f"mass matrix not positive definite: {exc}") from exc


@functools.lru_cache(maxsize=32)
def _lapack(name: str, dtype: np.dtype, n: int):
    """LAPACK routine ?<name> for `dtype` and its optimal work size at order
    n (0 for the Cholesky routines ?po*, which take none); the Hermitian
    ?he* routines are ?sy* for real dtypes.  Cached, so a loop over nodes
    queries each size once."""
    if not np.issubdtype(dtype, np.complexfloating):
        name = name.replace("he", "sy", 1)
    if name.startswith("po"):
        return scipy.linalg.get_lapack_funcs((name,), dtype=dtype)[0], 0
    fn, query = scipy.linalg.get_lapack_funcs(
        (name, name + "_lwork"), dtype=dtype)
    return fn, int(np.real(query(n, lower=1)[0]))


def _eigenvalues_below(S: np.ndarray, B: np.ndarray, sigma: float) -> int:
    """Number of pencil eigenvalues below sigma.

    With B positive definite this is the negative inertia of S - sigma B
    (Sylvester), read from its Bunch-Kaufman factors L D L^H: one per
    negative 1x1 pivot (ipiv > 0) and one per 2x2 block (a pair of rows with
    ipiv < 0), since the pivot rule only picks 2x2 blocks with a negative
    determinant (for ?hetrf and ?sytrf alike).  The factorization runs on
    the F-contiguous transpose conj(S - sigma B), which has the same
    inertia, so f2py makes no copy.
    """
    hetrf, lwork = _lapack("hetrf", S.dtype, len(S))
    shifted = np.multiply(sigma, B, dtype=np.result_type(S, B))
    ldu, ipiv, _ = hetrf(np.subtract(S, shifted, out=shifted).T, lower=1,
                         lwork=lwork, overwrite_a=True)
    negative_pivots = np.count_nonzero(ldu.diagonal().real[ipiv > 0] < 0.0)
    return int(negative_pivots + np.count_nonzero(ipiv < 0) // 2)


# ---------------------------------------------------------------------------
# Dispersion diagrams and band gaps
# ---------------------------------------------------------------------------

def reversal_classes(ks):
    """The +-k classes of the wavevector samples ks (n_k, d), which share
    their spectra (module docstring): (first, rep, negated), with first the
    index of the first sample of each class, in sample order; rep[i] sample
    i's class, as a position in first; negated[i] whether sample i is minus
    that first sample (a repeat, or k = 0, is not).  Samples match by exact
    tuple equality (so -0.0 equals 0.0).
    """
    classes, first, labels = {}, [], []   # k and -k -> (class, negated)
    for i, k in enumerate(np.asarray(ks)):
        if tuple(k) not in classes:
            classes[tuple(-k)] = (len(first), True)
            classes[tuple(k)] = (len(first), False)   # k = 0: not negated
            first.append(i)
        labels.append(classes[tuple(k)])
    rep, negated = np.array(labels, dtype=int).reshape(-1, 2).T
    return np.array(first, dtype=int), rep, negated.astype(bool)


def brillouin_path(dimension: int, samples_per_segment: int = 30) -> np.ndarray:
    """Sampled path through the Brillouin zone, shape (n_k, d).

    1D: uniform samples pi i / n, i = -n..n, exactly symmetric under k -> -k.
    2D: Gamma -> X -> M -> Gamma on the square lattice, n samples per
    segment and the closing Gamma.  n < 1 is a ValueError.
    """
    n = samples_per_segment
    if n < 1:
        raise ValueError(f"samples_per_segment must be >= 1, not {n}")
    if dimension == 1:
        return (np.pi * (np.arange(-n, n + 1) / n))[:, None]
    corners = np.pi * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    ts = np.linspace(0.0, 1.0, n, endpoint=False)[:, None]
    return np.concatenate([a + ts * (b - a) for a, b in
                           zip(corners[:-1], corners[1:])] + [corners[:1]])


@dataclass
class DispersionDiagram:
    k_points: np.ndarray      # (nk, d)
    omega2: np.ndarray        # (nk, count)


def dispersion_diagram(spec: MediumSpec, cutoff: int, count: int,
                       samples_per_segment: int = 30,
                       k_points=None) -> DispersionDiagram:
    """Band diagram along the standard path (or explicit k samples), one
    solve per +-k class (reversal_classes): omega(-k) = omega(k)."""
    basis = PlaneWaveBasis(spec.dimension, cutoff)
    table = fourier_table(spec, 2 * cutoff)
    pencil = bloch_pencil(table, basis)
    if k_points is None:
        k_points = brillouin_path(spec.dimension, samples_per_segment)
    else:
        k_points = np.atleast_2d(np.asarray(k_points, dtype=float))
    first, rep, _ = reversal_classes(k_points)
    omega2 = np.empty((len(first), count))
    for c, k in enumerate(k_points[first]):
        omega2[c] = solve_bands(table, basis, k, count, pencil).omega2
    return DispersionDiagram(k_points=k_points, omega2=omega2[rep])


@dataclass(frozen=True)
class BandGap:
    """Open interval of omega^2 between two consecutive branches."""

    below_branch: int         # gap sits above this branch index
    omega2_low: float
    omega2_high: float

    @property
    def width(self) -> float:
        return self.omega2_high - self.omega2_low


def find_band_gaps(diagram: DispersionDiagram) -> list[BandGap]:
    """Complete gaps between consecutive sampled branches, wider than
    GAP_REL_TOL * max |omega^2|: branches touching up to roundoff are no gap."""
    highs = diagram.omega2.max(axis=0)
    lows = diagram.omega2.min(axis=0)
    floor = GAP_REL_TOL * np.max(np.abs(diagram.omega2))
    gaps = []
    for m in range(diagram.omega2.shape[1] - 1):
        if lows[m + 1] - highs[m] > floor:
            gaps.append(BandGap(below_branch=m, omega2_low=highs[m],
                                omega2_high=lows[m + 1]))
    return gaps


def export_diagram_csv(diagram: DispersionDiagram, path: str,
                       normalized: bool = False, G1: float = 1.0,
                       rho1: float = 1.0, header_lines=()):
    """Write the diagram as long-format CSV: k_index, k components, m, omega.

    With normalized=True, wavenumbers are scaled by pi and frequencies by
    sqrt(G1/rho1) (background sound speed over the half-cell wavenumber).
    """
    omega = np.sqrt(np.clip(diagram.omega2, 0.0, None))
    kpts = diagram.k_points.copy()
    if normalized:
        kpts = kpts / np.pi
        omega = omega / np.sqrt(G1 / rho1)
    d = kpts.shape[1]
    names = ["k_index"] + [f"k_{i + 1}" for i in range(d)] + ["m", "omega"]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for i in range(kpts.shape[0]):
            kcols = ",".join(f"{kpts[i, a]:.12g}" for a in range(d))
            for m in range(omega.shape[1]):
                fh.write(f"{i},{kcols},{m},{omega[i, m]:.12g}\n")


# ---------------------------------------------------------------------------
# Eigenpair at the zone center
# ---------------------------------------------------------------------------

@dataclass
class GammaPair:
    """Phase-fixed branch-p eigenpair at k = 0, plus simplicity info.

    blocks are the k = 0 blocks the pair was solved from, for the cell
    problems and the exact field below the spectrum; pencil, lifted from
    them for the k != 0 solves of the exact and branch fields in and above
    the spectrum, is built on first use, once per pair.
    """

    spec: MediumSpec
    basis: PlaneWaveBasis
    table: CoefficientTable
    branch: int
    omega2: float
    coeffs: np.ndarray        # (M,), B-orthonormal: c^H B c = 1
    simple: bool
    separation: float         # min relative distance to neighbor eigenvalues
    blocks: ParityBlocks = field(repr=False, compare=False)

    @functools.cached_property
    def pencil(self) -> BlochPencil:
        return self.blocks.pencil()


def fix_phase(coeffs: np.ndarray) -> np.ndarray:
    """Rotate a coefficient vector so its cell average (j=0 entry) is real > 0.

    When the average is numerically zero, the pivot is the first coefficient
    in basis order whose magnitude is within PHASE_FALLBACK_TOL of the
    largest: a tie decided by roundoff (the j = +-1 pair of an odd
    eigenfunction) always picks the same member.
    """
    pivot = coeffs[0]
    if abs(pivot) < PHASE_FALLBACK_TOL * norm(coeffs):
        mag = np.abs(coeffs)
        pivot = coeffs[np.argmax(mag >= (1.0 - PHASE_FALLBACK_TOL) * mag.max())]
    return coeffs * (pivot.conjugate() / abs(pivot))


def eigenpair_at_gamma(spec: MediumSpec, branch: int, cutoff: int) -> GammaPair:
    """Solve at k = 0 and return the branch-p eigenpair with fixed phase.

    Each parity block gives its lowest branch + 2 pairs; a stable sort
    merges them, and the chosen vector is lifted back to the full basis.
    A negative branch is a ValueError, raised before any work.
    """
    if branch < 0:
        raise ValueError(f"branch must be >= 0, got {branch}")
    basis = PlaneWaveBasis(spec.dimension, cutoff)
    table = fourier_table(spec, 2 * cutoff)
    blocks = parity_blocks(table, basis)
    count = min(branch + 2, basis.size)
    found = []                                # (omega^2, block, vector)
    for i, (S0, B) in enumerate(zip(blocks.S0, blocks.B)):
        vals, vecs = _eigh(S0, B, min(count, len(S0)))
        found += [(w, i, vecs[:, n]) for n, w in enumerate(vals)]
    found = sorted(found, key=lambda f: f[0])[:count]
    if branch >= len(found):
        raise ValueError(f"branch {branch} not available with cutoff {cutoff}")
    lam, i, vec = found[branch]
    # found holds branches 0..branch+1: the nearest others are the neighbours
    near = np.abs(np.delete([f[0] for f in found], branch) - lam)
    separation = near.min() / max(abs(lam), 1.0) if near.size else np.inf
    coeffs = fix_phase(blocks.lift(vec, i))
    return GammaPair(spec=spec, basis=basis, table=table, branch=branch,
                     omega2=lam, coeffs=coeffs,
                     simple=separation > SIMPLE_REL_TOL, separation=separation,
                     blocks=blocks)
