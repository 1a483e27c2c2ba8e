"""
Periodic two-phase media on the unit cell [-1/2, 1/2]^d.

A medium is a constant background (stiffness G1, density rho1) plus
non-overlapping inclusions (interval segments in 1D, disks in 2D) with
their own constant properties.  Fourier coefficients of both material
fields are available in closed form, which keeps the Galerkin matrices
free of sampling/aliasing error.

Conventions:
    coefficient q_hat(n) = integral over the cell of q(x) exp(-i 2 pi n.x) dx
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import j1

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class Inclusion:
    """Single inclusion: an interval (1D, 'radius' = half-length) or a disk (2D)."""

    center: tuple[float, ...]
    radius: float
    G: float
    rho: float


@dataclass(frozen=True)
class MediumSpec:
    """Validated description of a periodic medium."""

    dimension: int
    background_G: float
    background_rho: float
    inclusions: tuple[Inclusion, ...] = ()
    smoothing: float = 0.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.background_G <= 0 or self.background_rho <= 0:
            raise ValueError("background G and rho must be positive")
        if self.smoothing < 0:
            raise ValueError("smoothing width must be >= 0")
        for inc in self.inclusions:
            if len(inc.center) != self.dimension:
                raise ValueError("inclusion center has wrong dimension")
            if inc.radius <= 0 or inc.G <= 0 or inc.rho <= 0:
                raise ValueError("inclusion radius, G, rho must be positive")
            for c in inc.center:
                if abs(c) + inc.radius >= 0.5:
                    raise ValueError("inclusion must lie strictly inside the unit cell")
        # pairwise non-overlap (conservative: bounding distance of centers)
        for i, a in enumerate(self.inclusions):
            for b in self.inclusions[i + 1:]:
                dist = np.linalg.norm(np.subtract(a.center, b.center))
                if dist < a.radius + b.radius:
                    raise ValueError("inclusions overlap")


@dataclass
class CoefficientTable:
    """Fourier coefficients of G and rho on the index cube |n|_inf <= cutoff.

    Arrays are indexed with an offset: q_hat(n) = table[n + cutoff] (per axis).
    """

    dimension: int
    cutoff: int
    G_hat: np.ndarray
    rho_hat: np.ndarray


def _indicator_hat(dimension: int, center, radius: float, n_grid):
    """Fourier coefficients of the inclusion indicator on an integer index grid.

    n_grid is a tuple of integer arrays (one per axis, broadcastable).
    """
    if dimension == 1:
        n = n_grid[0].astype(float)
        out = 2.0 * radius * np.sinc(2.0 * radius * n)
        phase = np.exp(-2j * np.pi * n * center[0])
        return out * phase
    n1 = n_grid[0].astype(float)
    n2 = n_grid[1].astype(float)
    norm = np.hypot(n1, n2)
    out = np.empty_like(norm)
    nz = norm > 0
    out[nz] = radius * j1(2.0 * np.pi * norm[nz] * radius) / norm[nz]
    out[~nz] = np.pi * radius ** 2
    phase = np.exp(-2j * np.pi * (n1 * center[0] + n2 * center[1]))
    return out * phase


def fourier_table(spec: MediumSpec, cutoff: int) -> CoefficientTable:
    """Closed-form Fourier coefficients of G and rho for |n|_inf <= cutoff.

    For a Galerkin basis truncated at N, pass cutoff = 2N so every
    difference index is covered exactly.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    d = spec.dimension
    ax = np.arange(-cutoff, cutoff + 1)
    n_grid = np.meshgrid(*(ax,) * d, indexing="ij")
    shape = (2 * cutoff + 1,) * d

    G_hat = np.zeros(shape, dtype=complex)
    rho_hat = np.zeros(shape, dtype=complex)
    zero = tuple(cutoff for _ in range(d))
    G_hat[zero] = spec.background_G
    rho_hat[zero] = spec.background_rho
    for inc in spec.inclusions:
        ind = _indicator_hat(d, inc.center, inc.radius, n_grid)
        G_hat += (inc.G - spec.background_G) * ind
        rho_hat += (inc.rho - spec.background_rho) * ind

    if spec.smoothing > 0:
        k2 = sum((2.0 * np.pi * n) ** 2 for n in n_grid)
        damp = np.exp(-0.5 * spec.smoothing ** 2 * k2)
        G_hat *= damp
        rho_hat *= damp

    return CoefficientTable(dimension=d, cutoff=cutoff, G_hat=G_hat, rho_hat=rho_hat)


def evaluate_coefficient(spec: MediumSpec, which: str, x) -> np.ndarray:
    """Pointwise (sharp, unsmoothed) value of G or rho at physical points.

    x: array of shape (..., d) or (...,) in 1D.  Points are wrapped into
    the unit cell.  Exactly on an interface the two-sided mean is returned,
    matching the limit of the Fourier series.
    """
    if which not in ("G", "rho"):
        raise ValueError("which must be 'G' or 'rho'")
    d = spec.dimension
    x = np.asarray(x, dtype=float)
    if d == 1 and (x.ndim == 0 or x.shape[-1] != 1):
        x = x[..., None]
    x = x - np.round(x)

    bg = spec.background_G if which == "G" else spec.background_rho
    out = np.full(x.shape[:-1], bg, dtype=float)
    for inc in spec.inclusions:
        val = inc.G if which == "G" else inc.rho
        delta = x - np.asarray(inc.center)
        if d == 1:
            dist = np.abs(delta[..., 0])
        else:
            dist = np.linalg.norm(delta, axis=-1)
        inside = dist < inc.radius - _BOUNDARY_TOL
        boundary = np.abs(dist - inc.radius) <= _BOUNDARY_TOL
        out[inside] = val
        out[boundary] = 0.5 * (val + bg)
    return out


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

_SPEC_KEYS = {"d", "background", "inclusions", "smoothing"}
_BG_KEYS = {"G", "rho"}
_INC_KEYS = {"shape", "center", "radius", "G", "rho"}


def spec_from_dict(data: dict) -> MediumSpec:
    """Parse {"d":2,"background":{"G":1,"rho":1},"inclusions":[...],"smoothing":0}."""
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise ValueError(f"unknown medium keys: {sorted(unknown)}")
    bg = data["background"]
    bad = set(bg) - _BG_KEYS
    if bad:
        raise ValueError(f"unknown background keys: {sorted(bad)}")
    dim = int(data["d"])
    incs = []
    for raw in data.get("inclusions", []):
        bad = set(raw) - _INC_KEYS
        if bad:
            raise ValueError(f"unknown inclusion keys: {sorted(bad)}")
        shape = raw.get("shape")
        if shape is not None:
            expected = "interval" if dim == 1 else "disk"
            if shape != expected:
                raise ValueError(f"unsupported inclusion shape {shape!r} in {dim}D")
        incs.append(Inclusion(center=tuple(float(c) for c in raw["center"]),
                              radius=float(raw["radius"]),
                              G=float(raw["G"]), rho=float(raw["rho"])))
    return MediumSpec(dimension=dim,
                      background_G=float(bg["G"]),
                      background_rho=float(bg["rho"]),
                      inclusions=tuple(incs),
                      smoothing=float(data.get("smoothing", 0.0)))


def spec_to_dict(spec: MediumSpec) -> dict:
    return {
        "d": spec.dimension,
        "background": {"G": spec.background_G, "rho": spec.background_rho},
        "smoothing": spec.smoothing,
        "inclusions": [
            {"shape": "interval" if spec.dimension == 1 else "disk",
             "center": list(inc.center), "radius": inc.radius,
             "G": inc.G, "rho": inc.rho}
            for inc in spec.inclusions
        ],
    }


def load_spec(path: str) -> MediumSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Stock media used throughout the tests and docs
# ---------------------------------------------------------------------------

def two_phase_1d(G=(1.0, 6.0), rho=(1.0, 20.0), fill=0.5, smoothing=0.0) -> MediumSpec:
    """1D layered medium: background phase 1, centered interval of phase 2."""
    return MediumSpec(dimension=1, background_G=G[0], background_rho=rho[0],
                      inclusions=(Inclusion(center=(0.0,), radius=fill / 2.0,
                                            G=G[1], rho=rho[1]),),
                      smoothing=smoothing)


def disk_2d(G=(1.0, 6.0), rho=(1.0, 20.0), radius=0.3, smoothing=0.0) -> MediumSpec:
    """2D square-lattice medium with one centered disk inclusion."""
    return MediumSpec(dimension=2, background_G=G[0], background_rho=rho[0],
                      inclusions=(Inclusion(center=(0.0, 0.0), radius=radius,
                                            G=G[1], rho=rho[1]),),
                      smoothing=smoothing)
