"""
Independent finite-difference reference solver and the convergence harness.

The reference discretizes  -div(G grad u) - omega^2 rho u = eps^2 f_eps(eps x)
on the truncated domain [-L, L]^d, L = half_width + 1/2, with homogeneous
Dirichlet conditions — legitimate because in-gap frequencies make the
solution decay exponentially.  A conservative second-order stencil is used,
with face conductivities formed by harmonic averaging across each face.

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
from .fields import FieldOnGrid, homogenized_fields
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


def _grid_1d(cfg: ReferenceConfig):
    L = cfg.half_width + 0.5
    h = 1.0 / cfg.points_per_cell
    n = int(round(2 * L / h)) + 1
    return np.linspace(-L, L, n), h


def reference_solution(gamma: GammaPair, freq: FrequencySpec,
                       source: SourceSpec, cfg: ReferenceConfig) -> FieldOnGrid:
    """Sparse direct solve of the truncated-domain problem."""
    if gamma.spec.dimension == 1:
        return _reference_1d(gamma, freq, source, cfg)
    return _reference_2d(gamma, freq, source, cfg)


def _reference_1d(gamma, freq, source, cfg):
    spec = gamma.spec
    x, h = _grid_1d(cfg)
    n = len(x)
    eps = freq.eps

    faces = x[:-1] + 0.5 * h
    Gl = evaluate_coefficient(spec, "G", faces - 0.25 * h)
    Gr = evaluate_coefficient(spec, "G", faces + 0.25 * h)
    Gf = 2.0 * Gl * Gr / (Gl + Gr)
    rho = evaluate_coefficient(spec, "rho", x)

    xi = x[1:-1]                        # interior unknowns
    wl = Gf[:-1] / h ** 2               # face left of node i+1
    wr = Gf[1:] / h ** 2
    main = wl + wr - freq.omega2 * rho[1:-1]
    A = sp.diags([-wl[1:], main, -wr[:-1]], offsets=[-1, 0, 1], format="csc")
    rhs = eps ** 2 * sample_source(gamma, source, eps, xi)

    u_int = spla.spsolve(A, rhs.astype(complex))
    u = np.zeros(n, dtype=complex)
    u[1:-1] = u_int

    peak = np.max(np.abs(u))
    edge = max(abs(u[1]), abs(u[-2]))
    if peak > 0 and edge > cfg.decay_threshold * peak:
        raise DecayCheckFailed(
            f"boundary/peak = {edge / peak:.2e} exceeds {cfg.decay_threshold:.0e}")
    return FieldOnGrid(axes=(x,), values=u, label="reference solution",
                       meta={"eps": eps, "boundary_ratio": edge / peak if peak else 0.0})


def _reference_2d(gamma, freq, source, cfg):
    spec = gamma.spec
    x, h = _grid_1d(cfg)
    n = len(x)
    eps = freq.eps
    ni = n - 2
    xi = x[1:-1]

    X1, X2 = np.meshgrid(x, x, indexing="ij")
    pts = np.stack([X1, X2], axis=-1)
    rho = evaluate_coefficient(spec, "rho", pts)

    def face_cond(axis):
        # faces between node i and i+1 along `axis`, sampled h/4 to each side
        if axis == 0:
            fp = np.stack(np.meshgrid(x[:-1] + 0.5 * h, x, indexing="ij"), axis=-1)
            off = np.array([0.25 * h, 0.0])
        else:
            fp = np.stack(np.meshgrid(x, x[:-1] + 0.5 * h, indexing="ij"), axis=-1)
            off = np.array([0.0, 0.25 * h])
        Ga = evaluate_coefficient(spec, "G", fp - off)
        Gb = evaluate_coefficient(spec, "G", fp + off)
        return 2.0 * Ga * Gb / (Ga + Gb)

    Gx = face_cond(0)                   # (n-1, n)
    Gy = face_cond(1)                   # (n, n-1)

    def gid(i, j):                      # interior numbering
        return (i - 1) * ni + (j - 1)

    N2 = ni * ni
    I, J = np.meshgrid(np.arange(1, n - 1), np.arange(1, n - 1), indexing="ij")
    I = I.ravel()
    J = J.ravel()
    me = gid(I, J)

    wW = Gx[I - 1, J] / h ** 2
    wE = Gx[I, J] / h ** 2
    wS = Gy[I, J - 1] / h ** 2
    wN = Gy[I, J] / h ** 2
    main = wW + wE + wS + wN - freq.omega2 * rho[I, J]

    rows = [me]
    cols = [me]
    vals = [main]
    for w, di, dj in ((wW, -1, 0), (wE, 1, 0), (wS, 0, -1), (wN, 0, 1)):
        keep = (I + di >= 1) & (I + di <= n - 2) & (J + dj >= 1) & (J + dj <= n - 2)
        rows.append(me[keep])
        cols.append(gid(I[keep] + di, J[keep] + dj))
        vals.append(-w[keep])
    A = sp.csc_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N2, N2))

    Xi, Xj = np.meshgrid(xi, xi, indexing="ij")
    pts_i = np.stack([Xi, Xj], axis=-1)
    rhs = eps ** 2 * sample_source(gamma, source, eps, pts_i).ravel()

    u_int = spla.spsolve(A, rhs.astype(complex))
    u = np.zeros((n, n), dtype=complex)
    u[1:-1, 1:-1] = u_int.reshape(ni, ni)

    peak = np.max(np.abs(u))
    edge = max(np.abs(u[1, :]).max(), np.abs(u[-2, :]).max(),
               np.abs(u[:, 1]).max(), np.abs(u[:, -2]).max())
    if peak > 0 and edge > cfg.decay_threshold * peak:
        raise DecayCheckFailed(
            f"boundary/peak = {edge / peak:.2e} exceeds {cfg.decay_threshold:.0e}")
    return FieldOnGrid(axes=(x, x), values=u, label="reference solution",
                       meta={"eps": eps, "boundary_ratio": edge / peak if peak else 0.0})


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
