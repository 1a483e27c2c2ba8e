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
right-hand side is solved as two real columns of one sparse LU.

convergence_study compares every requested homogenized order with one
reference per eps; the orders share one cell synthesis on that grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import trapezoid

from .bloch import GammaPair
from .fields import FieldOnGrid, _grid_points, homogenized_fields
from .medium import evaluate_coefficient
from .source import (SourceSpec, FrequencySpec, drive_frequency,
                     make_frequency, sample_source)


class DecayCheckFailed(Exception):
    """Solution has not decayed at the truncation boundary."""


@dataclass
class ReferenceConfig:
    half_width: int = 14              # domain is [-(half_width+1/2), ...]^d
    points_per_cell: int = 64
    decay_threshold: float = 1e-6


def reference_solution(gamma: GammaPair, freq: FrequencySpec,
                       source: SourceSpec, cfg: ReferenceConfig) -> FieldOnGrid:
    """Sparse direct solve of the truncated-domain problem (see module doc)."""
    spec = gamma.spec
    d = spec.dimension
    L = cfg.half_width + 0.5
    h = 1.0 / cfg.points_per_cell
    x = np.linspace(-L, L, int(round(2 * L / h)) + 1)
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
    interior = _grid_points((xi,) * d)
    main = main.ravel() - freq.omega2 * evaluate_coefficient(
        spec, "rho", interior).ravel()
    A = sp.diags([main] + bands, offsets=[0] + offsets, format="csc")
    rhs = freq.eps ** 2 * sample_source(gamma, source, freq.eps,
                                        interior).ravel()
    # A is real: the real and imaginary parts share one factorization
    sol = spla.splu(A).solve(np.column_stack([rhs.real, rhs.imag]))

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

def relative_error(reference: FieldOnGrid, approx: FieldOnGrid,
                   eval_half_width: float) -> float:
    """||u_approx - u_ref|| / ||u_ref|| in L2 over |x|_inf <= eval_half_width - 1/2,
    trapezoid rule on the common grid."""
    if reference.values.shape != approx.values.shape:
        raise ValueError("fields must share a grid")
    R = eval_half_width - 0.5
    masks = [np.abs(a) <= R + 1e-12 for a in reference.axes]
    axes = [a[m] for a, m in zip(reference.axes, masks)]
    window = np.ix_(*masks)
    num = np.abs(approx.values - reference.values)[window] ** 2
    den = np.abs(reference.values)[window] ** 2
    for axis in reversed(range(num.ndim)):
        num = trapezoid(num, axes[axis], axis=axis)
        den = trapezoid(den, axes[axis], axis=axis)
    return float(np.sqrt(num / den))


def slope_fit(eps_list, errors):
    """Least-squares slope of log(err) vs log(eps); returns (slope, max residual)."""
    le = np.log(np.asarray(eps_list, dtype=float))
    lv = np.log(np.asarray(errors, dtype=float))
    if len(le) < 2:
        return float("nan"), 0.0
    coef = np.polyfit(le, lv, 1)
    resid = np.max(np.abs(np.polyval(coef, le) - lv))
    return float(coef[0]), float(resid)


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
                      orders=(0, 1, 2), diagram=None) -> ErrorReport:
    """Full harness: reference vs homogenized orders over a list of eps.

    ref_cfgs: one ReferenceConfig or a dict eps -> ReferenceConfig.
    diagram: what make_frequency validates each drive against (a
    DispersionDiagram or a gap list); None skips the validation.  All orders
    at one eps come from one homogenized_fields call, so the cell functions
    are synthesized once per eps on the reference grid.
    """
    errors = {m: [] for m in orders}
    boundary = {}
    for eps in eps_list:
        cfg = ref_cfgs[eps] if isinstance(ref_cfgs, dict) else ref_cfgs
        freq = make_frequency(gamma, diagram, sigma, omega_hat, eps,
                              k_window=eps * source.k_max) \
            if diagram is not None else drive_frequency(gamma, sigma,
                                                        omega_hat, eps)
        ref = reference_solution(gamma, freq, source, cfg)
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
