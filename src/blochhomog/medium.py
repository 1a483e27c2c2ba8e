"""
Periodic two-phase media on the unit cell [-1/2, 1/2]^d.

A medium is a constant background (stiffness G1, density rho1) plus
non-overlapping inclusions (interval segments in 1D, disks in 2D) with
their own constant properties.  Fourier coefficients of both material
fields, and in 1D of the compliance 1/G, are available in closed form,
which keeps the Galerkin matrices free of sampling/aliasing error.  A
smoothed medium's compliance is the one exception: 1/G_s has no closed
form, and comes from an FFT of the sampled series (_smoothed_compliance).

Conventions:
    coefficient q_hat(n) = integral over the cell of q(x) exp(-i 2 pi n.x) dx
"""

from __future__ import annotations

import json
import math
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
                dist = math.dist(a.center, b.center)
                if dist < a.radius + b.radius:
                    raise ValueError("inclusions overlap")


@dataclass
class CoefficientTable:
    """Fourier coefficients of G and rho on the index cube |n|_inf <= cutoff,
    and in 1D those of the compliance 1/G, from which the Bloch pencil builds
    its stiffness by Li's inverse rule (bloch module docstring); None in 2D.

    Arrays are indexed with an offset: q_hat(n) = table[n + cutoff] (per axis).
    """

    dimension: int
    cutoff: int
    G_hat: np.ndarray
    rho_hat: np.ndarray
    compliance_hat: np.ndarray | None = None


def _indicator_hat(dimension: int, center, radius: float, n_grid):
    """Fourier coefficients of the inclusion indicator on an integer index
    grid n_grid (one float array per axis, all one shape): the centred
    ball's transform at |n| (interval or disk) times exp(-2 pi i n.c)."""
    norm = np.abs(np.hypot.reduce(n_grid))
    if dimension == 1:
        out = 2.0 * radius * np.sinc(2.0 * radius * norm)
    else:
        out = np.full_like(norm, np.pi * radius ** 2)      # n = 0
        nz = norm > 0
        out[nz] = radius * j1(2.0 * np.pi * norm[nz] * radius) / norm[nz]
    phase = np.exp(-2j * np.pi * sum(n * c for n, c in zip(n_grid, center)))
    return out * phase


def _smoothing_damp(spec: MediumSpec, n_grid) -> np.ndarray:
    """The Gaussian factor exp(-s^2 |2 pi n|^2 / 2) of a smoothed series."""
    k2 = sum((2.0 * np.pi * n) ** 2 for n in n_grid)
    return np.exp(-0.5 * spec.smoothing ** 2 * k2)


def _smoothed_compliance(spec: MediumSpec, cutoff: int) -> np.ndarray:
    """Fourier coefficients of 1/G_s for |n| <= cutoff (1D), G_s the damped
    series of G: G_s sampled on L points of the cell, L a power of two >=
    4096, 8 cutoff and 16 / smoothing (enough to resolve G_s and 1/G_s to
    roundoff), inverted there and transformed back.  A real series (centred
    inclusions) has real coefficients, 1/G_s being even: the FFT's roundoff
    imaginary part is dropped, so such a table stays exactly real."""
    size = max(4096.0, 8.0 * cutoff, 16.0 / spec.smoothing)
    L = 1 << math.ceil(math.log2(size))
    if L > 1 << 20:
        raise ValueError(f"smoothing {spec.smoothing} too narrow to sample "
                         "1/G on 2^20 points; use 0 for a sharp medium")
    n = np.fft.fftfreq(L, 1.0 / L)                  # integers, FFT order
    series = np.zeros(L, dtype=complex)
    series[0] = spec.background_G
    for inc in spec.inclusions:
        series += (inc.G - spec.background_G) * _indicator_hat(
            1, inc.center, inc.radius, (n,))
    samples = L * np.fft.ifft(series * _smoothing_damp(spec, (n,))).real
    if samples.min() <= 0.0:
        raise ValueError("smoothed G is not positive on the sampling grid")
    coeffs = np.fft.fft(1.0 / samples)[np.arange(-cutoff, cutoff + 1)] / L
    if not np.any(series.imag):
        coeffs = coeffs.real + 0j
    return coeffs


def fourier_table(spec: MediumSpec, cutoff: int) -> CoefficientTable:
    """Closed-form Fourier coefficients of G and rho for |n|_inf <= cutoff,
    and in 1D of 1/G (the indicator transform with 1/G values; for a
    smoothed medium, _smoothed_compliance).

    For a Galerkin basis truncated at N, pass cutoff = 2N so every
    difference index is covered exactly.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    d = spec.dimension
    ax = np.arange(-cutoff, cutoff + 1.0)          # integers, as floats
    n_grid = np.meshgrid(*(ax,) * d, indexing="ij")
    shape = (2 * cutoff + 1,) * d

    G_hat = np.zeros(shape, dtype=complex)
    rho_hat = np.zeros(shape, dtype=complex)
    zero = tuple(cutoff for _ in range(d))
    G_hat[zero] = spec.background_G
    rho_hat[zero] = spec.background_rho
    compliance = np.zeros(shape, dtype=complex) if d == 1 else None
    if d == 1:
        compliance[zero] = 1.0 / spec.background_G
    for inc in spec.inclusions:
        ind = _indicator_hat(d, inc.center, inc.radius, n_grid)
        G_hat += (inc.G - spec.background_G) * ind
        rho_hat += (inc.rho - spec.background_rho) * ind
        if d == 1:
            compliance += (1.0 / inc.G - 1.0 / spec.background_G) * ind

    if spec.smoothing > 0:
        damp = _smoothing_damp(spec, n_grid)
        G_hat *= damp
        rho_hat *= damp
        if d == 1:
            compliance = _smoothed_compliance(spec, cutoff)

    return CoefficientTable(dimension=d, cutoff=cutoff, G_hat=G_hat,
                            rho_hat=rho_hat, compliance_hat=compliance)


def _as_points(x, dimension: int) -> np.ndarray:
    """x as points of shape (..., d).  In 1D a scalar or flat array lists
    coordinates; a trailing axis of length 1 behind another is the d axis."""
    x = np.asarray(x, dtype=float)
    if dimension == 1 and (x.ndim < 2 or x.shape[-1] != 1):
        x = x[..., None]
    return x


def evaluate_coefficient(spec: MediumSpec, which: str, x) -> np.ndarray:
    """Pointwise (sharp, unsmoothed) value of G or rho at physical points.

    x: points (see _as_points); the result has shape x.shape[:-1].  Points
    are wrapped into the unit cell.  Exactly on an interface the two-sided
    mean is returned, matching the limit of the Fourier series.
    """
    if which not in ("G", "rho"):
        raise ValueError("which must be 'G' or 'rho'")
    x = _as_points(x, spec.dimension)
    x = x - np.round(x)

    bg = spec.background_G if which == "G" else spec.background_rho
    out = np.full(x.shape[:-1], bg, dtype=float)
    for inc in spec.inclusions:
        val = inc.G if which == "G" else inc.rho
        offset = x - np.asarray(inc.center)
        dist = np.sqrt(np.sum(offset * offset, axis=-1))
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
    """The JSON-ready dict spec_from_dict reads back to `spec`.  No package
    code writes specs; this is kept for the JSON round trip of MediumSpec
    (with load_spec), a public export."""
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
    """The MediumSpec of a JSON file in spec_from_dict's format.  The CLI
    reads the medium from its config; this is kept for the JSON round trip
    of MediumSpec (with spec_to_dict), a public export."""
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
