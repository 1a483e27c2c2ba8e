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
which source.make_frequency and the exact solver's Cholesky branch rely on.

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
of E are the inverses of T's.  parity_blocks is the one code that gathers
a table into parity blocks and inverts T's (_spd_inverse, one Cholesky
each); bloch_pencil lifts a real table's E from them (_lift), with no M x M
factorization, and is the one code that assembles a complex table's pencil.

_eigenvalues_below counts the pencil's eigenvalues below a shift by
Sylvester inertia, with no eigensolve: source.make_frequency validates
drives with it, and the exact solver checks its gap condition.

Every dense product of the package goes through contract, on scipy's BLAS
?gemm: scipy also does all of the LAPACK work (eigh, ?potrf/?potri, ?posv,
?hesv, LU).  numpy and scipy may each bundle their own OpenBLAS, each with
its own thread pool; after a call a pool's workers keep spinning for a
while, and the other pool's work runs at about half speed meanwhile.  With
one library, one pool is busy at a time.  stiffness makes no BLAS call at
all.
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

    The index array puts j = 0 first; the remaining indices keep their
    lexicographic order.
    """

    dimension: int
    cutoff: int
    indices: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        ax = np.arange(-self.cutoff, self.cutoff + 1)
        grids = np.meshgrid(*(ax,) * self.dimension, indexing="ij")
        idx = np.stack([g.ravel() for g in grids], axis=-1)
        zero = np.flatnonzero(np.all(idx == 0, axis=1))[0]
        order = np.concatenate([[zero], np.delete(np.arange(len(idx)), zero)])
        object.__setattr__(self, "indices", idx[order])

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    def cube_scatter(self):
        """Per-basis-function flat position in the (2N+1)^d coefficient cube."""
        return np.ravel_multi_index(tuple((self.indices + self.cutoff).T),
                                    (2 * self.cutoff + 1,) * self.dimension)

    def reversal(self) -> np.ndarray:
        """Basis position of -j for every basis function j (P: j -> -j as an
        index array: (P x)[a] = x[reversal[a]]); reversing every axis of the
        cube maps flat position f to n^d - 1 - f."""
        scatter = self.cube_scatter()
        position = np.empty_like(scatter)      # cube position -> basis index
        position[scatter] = np.arange(self.size)
        return position[(2 * self.cutoff + 1) ** self.dimension - 1 - scatter]

    def coeff_cube(self, vec: np.ndarray) -> np.ndarray:
        """Rearrange coefficients (M, *extra) into a dense (2N+1)^d cube
        with the trailing `extra` axes kept: shape (2N+1,)*d + extra."""
        vec = np.asarray(vec)
        n = 2 * self.cutoff + 1
        cube = np.zeros((n ** self.dimension,) + vec.shape[1:], dtype=complex)
        cube[self.cube_scatter()] = vec
        return cube.reshape((n,) * self.dimension + vec.shape[1:])


@dataclass(frozen=True)
class BlochPencil:
    """E (Laurent's rule in 2D, Li's inverse rule in 1D: module docstring),
    B[a, b] = rho_hat(j_a - j_b) and tp = 2 pi j of one coefficient table;
    built per call that solves at many k (bloch_pencil), and once per
    GammaPair for its k != 0 solves."""

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


def _hermitian_tables(table: CoefficientTable, basis: PlaneWaveBasis):
    """(C_hat, rho_hat, real): the stiffness table C_hat (1/G under the
    inverse rule, G otherwise) and rho_hat, each replaced by its Hermitian
    part (q(n) + conj q(-n)) / 2, so every matrix gathered from it is
    Hermitian; float64 when both tables are exactly real, complex
    otherwise."""
    if table.dimension != basis.dimension:
        raise ValueError("table/basis dimension mismatch")
    if table.cutoff < 2 * basis.cutoff:
        raise ValueError("coefficient table cutoff must be >= 2 * basis cutoff")
    C_hat = table.G_hat if table.compliance_hat is None else \
        table.compliance_hat
    real = not (np.any(C_hat.imag) or np.any(table.rho_hat.imag))

    def hermitian(arr):
        h = 0.5 * (arr + arr[(slice(None, None, -1),) * arr.ndim].conj())
        return h.real if real else h

    return hermitian(C_hat), hermitian(table.rho_hat), real


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


def _parity_gather(basis: PlaneWaveBasis, cutoff: int):
    """(u, partner, combinations) of parity_blocks' split: u the even rows
    (j = 0 and one j of each +-j pair), partner each position's -j, and
    combinations(arr) the (A + Abar, A - Abar) of a table of that cutoff,
    A and Abar its gather on rows u against the columns u and their -j."""
    j, size = basis.indices, basis.size
    partner = basis.reversal()
    u = np.concatenate([[0], np.flatnonzero(np.arange(size) < partner)])
    near, far = (_differences(j[u], j[v], cutoff) for v in (u, partner[u]))
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

    return u, partner, combinations


def _lift(blocks: ParityBlocks) -> np.ndarray:
    """The P-invariant symmetric E of a real table's ParityBlocks, from its
    even block Ep and odd block Eo (rows u = index[0], their -j ubar =
    partner[0]): an O(M^2) scatter of A = (Ep + Eo) / 2 to E[u, v] and
    E[ubar, vbar] and of Abar = (Ep - Eo) / 2 to E[u, vbar] and E[ubar, v],
    where row and column 0 (j = 0, Eo has none) are Ep's unscaled (A = Abar
    = Ep / sqrt 2, the corner Ep).  Every entry and its mirror and P image
    are the same number, so E is exactly symmetric and P-invariant."""
    (Ep, Eo), u, ubar = blocks.E, blocks.index[0], blocks.partner[0]
    A = 0.5 * Ep
    A[0, 1:] *= math.sqrt(2.0)
    A[1:, 0] *= math.sqrt(2.0)
    A[0, 0] *= 2.0
    Abar = A.copy()
    A[1:, 1:] += 0.5 * Eo
    Abar[1:, 1:] -= 0.5 * Eo
    size = len(u) + len(Eo)
    E = np.empty((size, size), dtype=A.dtype)
    for rows, cols, x in ((u, u, A), (u, ubar, Abar), (ubar, u, Abar),
                          (ubar, ubar, A)):
        E[np.ix_(rows, cols)] = x
    return E


def bloch_pencil(table: CoefficientTable, basis: PlaneWaveBasis,
                 blocks: ParityBlocks | None = None) -> BlochPencil:
    """The pencil of `table` on `basis`; float64 when both tables are
    exactly real, complex otherwise.

    Under Laurent's rule E is gathered from the table.  Under the inverse
    rule a complex table inverts the full T, and a real table's E is lifted
    (_lift) from the inverses of T's parity blocks: those of `blocks`, the
    table's own ParityBlocks when the caller has them (GammaPair.pencil),
    or else of parity_blocks(table, basis), the one code that gathers and
    inverts them; no M x M matrix is factorized.
    """
    C_hat, rho_hat, real = _hermitian_tables(table, basis)
    j = basis.indices
    off = _differences(j, j, table.cutoff)
    if table.compliance_hat is None:
        E = C_hat[off]
    elif not real:
        E = _spd_inverse(C_hat[off])
    else:
        E = _lift(parity_blocks(table, basis) if blocks is None else blocks)
    return BlochPencil(basis=basis, E=E, B=rho_hat[off], tp=2.0 * np.pi * j)


@dataclass(frozen=True)
class ParityBlocks:
    """The k = 0 pencil, S(k) = S0 + sum_a k_a S1[a] + |k|^2 E and B, in the
    parity basis of P: j -> -j; built once per eigenpair (parity_blocks)
    and carried by its GammaPair.

    Block i has the orthonormal vectors q = scale (e_u + sign e_ubar), u in
    index[i], ubar = partner[i] its -j, scale 1/sqrt(2) for a pair and 1/2
    where ubar = u.  Real tables are even, so S0, E and B commute with P and
    each S1[a] anticommutes with it: an even block (sign +1: e_0 and (e_j +
    e_-j)/sqrt 2) and an odd one (sign -1), of about M/2 each.  Complex
    tables do not commute with P: one block, ubar = u = every position,
    sign +1, the identity change of basis.  S0[i], E[i], B[i] are the
    diagonal blocks; S1[a][i] is S1_a from block i to block flip(i).
    """

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


def parity_blocks(table: CoefficientTable, basis: PlaneWaveBasis) -> ParityBlocks:
    """The k = 0 blocks of `table` on `basis` (ParityBlocks): for complex
    tables one block, the full pencil's (bloch_pencil(...).blocks()); for
    real ones, two blocks from one gather of each table on the even rows u
    (j = 0 and one j of each +-j pair) against the columns u (A) and their
    -j (Abar).

    A matrix that commutes (or anticommutes) with P has the block (A[u, v]
    + t A[u, vbar]) / sqrt(m_u m_v) between rows u and columns (v, vbar, t),
    so with row and column 0 (e_0, m = 2) scaled by 1/sqrt 2, A + Abar and
    A - Abar are the even block and, from row and column 1 on, the odd block
    of B and of the stiffness table's matrix: E itself under Laurent's rule,
    T under the inverse rule, whose two blocks are then inverted
    (_spd_inverse), giving E's blocks Ep and Em, from which bloch_pencil
    lifts E.  As 2 pi j_ubar = -2 pi j_u, diag(tp) maps even to odd: S0's
    even block is sum_a diag(tp_a) Em diag(tp_a), its odd block the same of
    Ep, and S1_a (even to odd) = diag(tp_a) Ep + Em diag(tp_a).  No M x M
    matrix is formed.
    """
    C_hat, rho_hat, real = _hermitian_tables(table, basis)
    if not real:            # one block, the identity change of basis
        every = np.arange(basis.size)
        S0, S1, E, B = bloch_pencil(table, basis).blocks()
        return ParityBlocks(index=(every,), partner=(every,), sign=(1,),
                            scale=(np.full(basis.size, 0.5),), S0=(S0,),
                            S1=tuple((x,) for x in S1), E=(E,), B=(B,))
    u, partner, combinations = _parity_gather(basis, table.cutoff)
    pairs = u[1:]
    tp = 2.0 * np.pi * basis.indices[u]                # tp[0] = 0

    def gram(x, t):                        # sum_a diag(t_a) x diag(t_a)
        return sum(t[:, a, None] * x * t[:, a] for a in range(t.shape[1]))

    Ep, Em = combinations(C_hat)
    if table.compliance_hat is not None:   # inverse rule: E's blocks = T's^-1
        Ep = _spd_inverse(Ep)
        Em[1:, 1:] = _spd_inverse(np.ascontiguousarray(Em[1:, 1:]))
    Bp, Bm = combinations(rho_hat)
    S1 = [tp[1:, a, None] * Ep[1:] + Em[1:] * tp[:, a]
          for a in range(basis.dimension)]
    half = np.full(len(pairs), 1.0 / math.sqrt(2.0))
    return ParityBlocks(
        index=(u, pairs), partner=(partner[u], partner[pairs]), sign=(1, -1),
        scale=(np.concatenate([[0.5], half]), half),
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
    segment and the closing Gamma.
    """
    n = samples_per_segment
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
    problems; pencil is the full pencil for the k != 0 solves of the exact
    and branch fields, built on first use, once per pair.
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
        return bloch_pencil(self.table, self.basis, self.blocks)


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
    """
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
