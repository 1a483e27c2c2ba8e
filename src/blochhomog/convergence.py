"""
Independent finite-difference reference solver and the convergence harness.

The reference discretizes  -div(G grad u) - omega^2 rho u = eps^2 f_eps(eps x)
on the truncated domain [-L, L]^d, L = half_width + 1/2, with homogeneous
Dirichlet conditions — legitimate because in-gap frequencies make the
solution decay exponentially.  One assembler serves every d: along each
axis a, the face between nodes j and j+1 carries the harmonic mean
G_f = 2 G_- G_+ / (G_- + G_+) of G sampled h/4 to either side, and with
w = G_f / h^2 the conservative second-order stencil is

    A = diag(sum_a (w_lo,a + w_hi,a) - omega^2 rho) - w on the +-stride_a bands,

stride_a = n_i^(d-1-a) for n_i interior nodes per axis (C order), with no
coupling past the last node along an axis.  A is real, so the complex
right-hand side is solved as two real columns of one factorization.  The
nodes are fields.uniform_axis, so the grid folds onto one cell exactly.

The factorization follows the structure of A.  In 1D A is tridiagonal and
goes to LAPACK ?gtsv (Gaussian elimination with partial pivoting, so one
path serves drives below the spectrum, where A is positive definite, and
in-gap drives, where it is indefinite): O(n) work and no workspace beyond
its bands, in about a twentieth of SuperLU's time on the same matrix.  For
d >= 2 the half-bandwidth is n_i (about 289 on the 2D smoke grid), so a
banded factorization would cost about n n_i^2 flops (8e9) where SuperLU,
ordering by minimum degree on A^T + A, takes well under a second.

The stencil is second order only where every interface is a node; one
inside a grid cell leaves an O(h) error, which reference_solution warns of
in 1D (a 2D disk's boundary is never on the grid).

convergence_study compares every requested homogenized order with one
reference per eps, on the window relative_error reads: the reference is
solved on its full grid, the orders are synthesized on the window alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, get_lapack_funcs

from .bloch import GammaPair
from .fields import (FieldOnGrid, _grid_points, homogenized_fields,
                     uniform_axis)
from .medium import evaluate_coefficient
from .source import (SourceSpec, FrequencySpec, make_frequency,
                     sample_source)


class DecayCheckFailed(Exception):
    """Solution has not decayed at the truncation boundary."""


@dataclass
class ReferenceConfig:
    half_width: int = 14              # domain is [-(half_width+1/2), ...]^d
    points_per_cell: int = 64
    decay_threshold: float = 1e-6

    def __post_init__(self):
        if self.points_per_cell < 1:
            raise ValueError(f"reference points_per_cell must be >= 1, "
                             f"not {self.points_per_cell}")
        if self.half_width < 0 or not self.decay_threshold > 0:
            raise ValueError(f"reference needs half_width >= 0 and "
                             f"decay_threshold > 0, not {self}")


def reference_solution(gamma: GammaPair, freq: FrequencySpec,
                       source: SourceSpec, cfg: ReferenceConfig) -> FieldOnGrid:
    """Sparse direct solve of the truncated-domain problem (see module doc).

    Warns (UserWarning) when a 1D sharp medium has an interface strictly
    inside a grid cell, where the reference is only O(h) accurate."""
    spec = gamma.spec
    d = spec.dimension
    L = cfg.half_width + 0.5
    h = 1.0 / cfg.points_per_cell
    if d == 1 and spec.smoothing == 0:
        # the nodes are -L + j h: x0 is a node when (x0 + L) / h is whole,
        # and then so is each periodic image x0 + n
        x0 = np.array([inc.center[0] + side * inc.radius
                       for inc in spec.inclusions for side in (-1, 1)])
        j = (x0 + L) * cfg.points_per_cell
        off = x0[np.abs(j - np.round(j)) > 1e-9]
        if off.size:
            import warnings
            warnings.warn(
                f"interfaces at x = {off.tolist()} lie inside grid cells "
                f"(points_per_cell {cfg.points_per_cell}, half_width "
                f"{cfg.half_width}): the reference is only O(h) accurate",
                UserWarning, stacklevel=2)
    x = uniform_axis(L, cfg.points_per_cell)
    xi = x[1:-1]                        # interior nodes per axis
    ni = len(xi)
    faces = x[:-1] + 0.5 * h            # face between node j and j+1

    main = np.zeros((ni,) * d)
    bands, offsets = [], []
    for a in range(d):
        along = [xi] * d
        along[a] = faces - 0.25 * h
        G_minus = evaluate_coefficient(spec, "G", _grid_points(along))
        along[a] = faces + 0.25 * h
        G_plus = evaluate_coefficient(spec, "G", _grid_points(along))
        w = 2.0 * G_minus * G_plus / (G_minus + G_plus) / h ** 2
        w_lo = np.take(w, np.arange(ni), axis=a)
        w_hi = np.take(w, np.arange(1, ni + 1), axis=a)
        main += w_lo
        main += w_hi
        # a node first (last) along a meets the Dirichlet wall on its lo
        # (hi) face: that weight stays on the diagonal only
        first = (np.arange(ni) == 0).reshape((-1,) + (1,) * (d - 1 - a))
        stride = ni ** (d - 1 - a)
        bands += [-np.where(first, 0.0, w_lo).ravel()[stride:],
                  -np.where(first[::-1], 0.0, w_hi).ravel()[:-stride]]
        offsets += [-stride, stride]
    main = main.ravel() - freq.omega2 * evaluate_coefficient(
        spec, "rho", _grid_points((xi,) * d)).ravel()
    # assembled before the source is sampled: the other order raises the
    # peak RSS of the 2D smoke study by about 3 MiB
    A = None if d == 1 else sp.diags([main] + bands, offsets=[0] + offsets,
                                     format="csc")
    rhs = freq.eps ** 2 * sample_source(gamma, source, freq.eps,
                                        (xi,) * d).ravel()
    # A is real: the real and imaginary parts share one factorization
    cols = np.column_stack([rhs.real, rhs.imag])
    if A is None:
        gtsv = get_lapack_funcs(("gtsv",), (main,))[0]
        *_, sol, info = gtsv(bands[0], main, bands[1], cols, overwrite_dl=1,
                             overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise LinAlgError(
                f"finite-difference matrix singular at omega^2 = "
                f"{freq.omega2:.12g} (zero pivot in row {info})")
    else:
        # symmetric, so the ordering is minimum degree on A^T + A
        try:
            lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:       # SuperLU: factor exactly singular
            raise LinAlgError(
                f"finite-difference matrix singular at omega^2 = "
                f"{freq.omega2:.12g} ({exc})") from exc
        sol = lu.solve(cols)

    u = np.zeros((len(x),) * d, dtype=complex)
    u[(slice(1, -1),) * d] = (sol[:, 0] + 1j * sol[:, 1]).reshape((ni,) * d)
    peak = np.max(np.abs(u))
    edge = max(np.abs(np.take(u, [1, -2], axis=a)).max() for a in range(d))
    if peak > 0 and edge > cfg.decay_threshold * peak:
        raise DecayCheckFailed(
            f"boundary/peak = {edge / peak:.2e} exceeds {cfg.decay_threshold:.0e}")
    return FieldOnGrid(axes=(x,) * d, values=u, label="reference solution",
                       meta={"eps": freq.eps,
                             "boundary_ratio": edge / peak if peak else 0.0})


# ---------------------------------------------------------------------------
# Error metric and slope fit
# ---------------------------------------------------------------------------

def window(field: FieldOnGrid, eval_half_width: float) -> FieldOnGrid:
    """`field` on the points relative_error reads, |x|_inf <=
    eval_half_width - 1/2 (to 1e-12)."""
    masks = [np.abs(a) <= eval_half_width - 0.5 + 1e-12 for a in field.axes]
    return FieldOnGrid(axes=tuple(a[m] for a, m in zip(field.axes, masks)),
                       values=field.values[np.ix_(*masks)], label=field.label,
                       meta=field.meta)


def relative_error(reference: FieldOnGrid, approx: FieldOnGrid,
                   eval_half_width: float) -> float:
    """||u_approx - u_ref|| / ||u_ref|| in L2 over the window, trapezoid
    rule on the common grid; a ValueError when ||u_ref|| is 0 there (a
    window of at most one point, eval_half_width <= 1/2)."""
    if reference.values.shape != approx.values.shape:
        raise ValueError("fields must share a grid")
    ref, app = (window(f, eval_half_width) for f in (reference, approx))
    num = np.abs(app.values - ref.values) ** 2
    den = np.abs(ref.values) ** 2
    for x in reversed(ref.axes):
        num, den = _trapezoid(num, x), _trapezoid(den, x)
    if not den > 0.0:
        raise ValueError(f"the reference has zero norm on the window "
                         f"|x| <= eval_half_width - 1/2 = "
                         f"{eval_half_width - 0.5:g}")
    return float(np.sqrt(num / den))


def _trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid rule along the last axis of y: scipy.integrate.trapezoid's
    own expression, so bitwise equal to it, without importing
    scipy.integrate (a quarter of the package's import time)."""
    return (np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0).sum(axis=-1)


def slope_fit(eps_list, errors):
    """Least-squares slope of log(err) vs log(eps); returns (slope, max
    residual).  The line is fitted in closed form about the means, with no
    LAPACK call (np.polyfit runs numpy's own)."""
    le = np.log(np.asarray(eps_list, dtype=float))
    lv = np.log(np.asarray(errors, dtype=float))
    if len(le) < 2:
        return float("nan"), 0.0
    de, dv = le - le.mean(), lv - lv.mean()
    slope = np.sum(de * dv) / np.sum(de * de)
    return float(slope), float(np.max(np.abs(slope * de - dv)))


@dataclass
class ErrorReport:
    eps: list
    orders: list
    errors: dict          # order -> list of e(eps)
    slopes: dict          # order -> fitted slope
    residuals: dict       # order -> max log-fit residual
    meta: dict = field(default_factory=dict)

    def ordering_ok(self) -> bool:
        """e(2) < e(1) < e(0) at every eps (for the orders present)."""
        present = sorted(self.orders)
        for i, e in enumerate(self.eps):
            vals = [self.errors[m][i] for m in present]
            if any(b >= a for a, b in zip(vals[:-1], vals[1:])):
                return False
        return True

    def to_dict(self) -> dict:
        return {"eps": list(self.eps), "orders": list(self.orders),
                "errors": {str(m): list(map(float, v))
                           for m, v in self.errors.items()},
                "slopes": {str(m): float(s) for m, s in self.slopes.items()},
                "residuals": {str(m): float(r) for m, r in self.residuals.items()},
                "meta": self.meta}


def convergence_study(gamma: GammaPair, eff, source: SourceSpec,
                      quad, sigma: int, omega_hat: float, eps_list,
                      ref_cfgs, eval_half_width: float,
                      orders=(0, 1, 2), samples_per_segment: int = 30
                      ) -> ErrorReport:
    """Full harness: reference vs homogenized orders over a list of eps.

    ref_cfgs: one ReferenceConfig or a dict eps -> ReferenceConfig.
    Every drive comes from make_frequency, on samples_per_segment path
    samples within k_window = eps * k_max, so a drive that a branch crosses
    raises NotInGap before any solve at that eps (drive_frequency alone
    checks only the inputs).  At each eps the reference is solved on its
    full grid and restricted to the window relative_error reads (window),
    and every order comes from one homogenized_fields call on the window
    alone: one cell synthesis and one fold lattice per order (README: 21 x
    65 for the 1217-point window, not the 1857 to 3649 points of the
    reference grids).
    """
    errors = {m: [] for m in orders}
    boundary = {}
    for eps in eps_list:
        cfg = ref_cfgs[eps] if isinstance(ref_cfgs, dict) else ref_cfgs
        freq = make_frequency(gamma, sigma, omega_hat, eps,
                              k_window=eps * source.k_max,
                              samples_per_segment=samples_per_segment)
        ref = window(reference_solution(gamma, freq, source, cfg),
                     eval_half_width)
        boundary[eps] = ref.meta["boundary_ratio"]
        fields = homogenized_fields(eff, freq, source, quad, orders, ref.axes)
        for m in orders:
            errors[m].append(relative_error(ref, fields[m], eval_half_width))
    slopes, residuals = {}, {}
    for m in orders:
        slopes[m], residuals[m] = slope_fit(eps_list, errors[m])
    return ErrorReport(eps=list(eps_list), orders=list(orders),
                       errors=errors, slopes=slopes, residuals=residuals,
                       meta={"eval_half_width": eval_half_width,
                             "boundary_ratio": boundary})
