"""
Band-gap driving frequencies and the admissible long-wavelength source family.

The source has the separated form

    f_eps(x) = (2 pi)^{-d/2} ( int F(khat) e^{i khat.x} dkhat )
               * rho(x/eps) * phi_p(0; x/eps),

with F a rapidly decaying envelope spectrum.  For the built-in Gaussian
F(khat) = (2 sqrt(pi))^{-1} exp(-|khat|^2/4) the inner integral is itself a
Gaussian, available in closed form.

The driving frequency is omega^2 = omega_p^2(0) + eps^2 sigma Omega_hat^2
and must sit strictly inside a band gap or below the whole spectrum.  The
pencil S(k) - omega^2 B has S(k) positive semidefinite and B positive
definite, so every Bloch eigenvalue omega_m^2(k) is >= 0 and any omega^2 < 0
(p = 0, sigma = -1) lies below the spectrum: that needs no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BandGap, DispersionDiagram, GammaPair
from .medium import evaluate_coefficient


class NotInGap(Exception):
    """Requested frequency intersects a sampled dispersion branch."""


@dataclass(frozen=True)
class GaussianEnvelope:
    """F(khat) = amplitude * exp(-|khat|^2/4)."""

    dimension: int
    amplitude: float = 1.0 / (2.0 * np.sqrt(np.pi))

    def spectrum(self, khat) -> np.ndarray:
        khat = np.asarray(khat, dtype=float)
        if khat.ndim == 1 and self.dimension == 1:
            sq = khat ** 2
        else:
            sq = np.sum(np.atleast_2d(khat) ** 2, axis=-1)
        return self.amplitude * np.exp(-sq / 4.0)

    def modulation(self, y) -> np.ndarray:
        """Closed form of (2 pi)^{-d/2} int F(khat) exp(i khat.y) dkhat.

        Gaussian integral: the prefactor is
        (2 pi)^{-d/2} * amplitude * (2 sqrt(pi))^d.
        """
        y = np.asarray(y, dtype=float)
        if self.dimension > 1:
            sq = np.sum(y ** 2, axis=-1)
        else:
            if y.ndim >= 2 and y.shape[-1] == 1:
                y = y[..., 0]
            sq = y ** 2
        pref = (2.0 * np.pi) ** (-self.dimension / 2.0) * self.amplitude \
            * (2.0 * np.sqrt(np.pi)) ** self.dimension
        return pref * np.exp(-sq)

    def tail_mass(self, k_max: float) -> float:
        """Envelope magnitude at the quadrature cutoff (tail indicator)."""
        return float(self.amplitude * np.exp(-k_max ** 2 / 4.0))


@dataclass(frozen=True)
class SourceSpec:
    """Envelope plus wavenumber cutoff for all quadratures."""

    envelope: GaussianEnvelope
    k_max: float = 8.0

    def __post_init__(self):
        if self.k_max <= 0:
            raise ValueError("k_max must be positive")


@dataclass(frozen=True)
class FrequencySpec:
    """Driving frequency; make_frequency validates it against the spectrum."""

    branch: int
    sigma: int
    omega_hat: float
    eps: float
    omega2: float


def drive_frequency(gamma: GammaPair, sigma: int, omega_hat: float,
                    eps: float) -> FrequencySpec:
    """omega^2 = omega_p^2(0) + eps^2 sigma Omega_hat^2, not validated."""
    omega2 = gamma.omega2 + eps ** 2 * sigma * omega_hat ** 2
    return FrequencySpec(branch=gamma.branch, sigma=sigma,
                         omega_hat=omega_hat, eps=eps, omega2=omega2)


def make_frequency(gamma: GammaPair, gaps: list[BandGap] | DispersionDiagram,
                   sigma: int, omega_hat: float, eps: float,
                   k_window: float | None = None) -> FrequencySpec:
    """Build omega^2 = omega_p^2(0) + eps^2 sigma Omega_hat^2 and validate it.

    omega^2 < 0 lies below the whole spectrum (every omega_m^2(k) >= 0, see
    the module docstring) and is accepted without looking at `gaps`; an
    empty gap list therefore admits exactly those drives.  Otherwise
    omega^2 must lie in a gap: `gaps` may be a DispersionDiagram (preferred:
    branch ranges are checked directly) or a precomputed gap list.

    With `k_window` set (only meaningful for the diagram path), the branch
    ranges are taken over |k|_inf <= k_window.  This admits frequencies that
    sit in a local gap around the zone center -- the regime a long-wavelength
    source actually probes -- even when a distant part of some branch crosses
    omega^2.  Pass eps * K_max of the source to match the synthesis window.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if omega_hat <= 0 or eps <= 0:
        raise ValueError("omega_hat and eps must be positive")
    freq = drive_frequency(gamma, sigma, omega_hat, eps)
    omega2 = freq.omega2

    if omega2 < 0:
        pass                           # below the whole spectrum: sub-acoustic
    elif isinstance(gaps, DispersionDiagram):
        omega2_table = gaps.omega2
        if k_window is not None:
            mask = np.max(np.abs(gaps.k_points), axis=1) <= k_window
            if not mask.any():
                raise ValueError("k_window excludes every diagram sample")
            omega2_table = omega2_table[mask]
        lows = omega2_table.min(axis=0)
        highs = omega2_table.max(axis=0)
        for m in range(len(lows)):
            if lows[m] <= omega2 <= highs[m]:
                raise NotInGap(
                    f"omega^2 = {omega2:.6g} intersects branch {m} "
                    f"range [{lows[m]:.6g}, {highs[m]:.6g}]")
        if omega2 > highs[-1]:
            raise NotInGap(
                f"omega^2 = {omega2:.6g} above the last computed branch")
    elif not any(g.contains(omega2) for g in gaps):
        raise NotInGap(f"omega^2 = {omega2:.6g} not inside any gap")
    return freq


def sample_source(gamma: GammaPair, source: SourceSpec, eps: float,
                  x_points) -> np.ndarray:
    """Evaluate f_eps(eps x) on points in fast coordinates.

    Material density is the sharp pointwise value; the eigenfunction is
    synthesized from its Fourier coefficients and the envelope modulation
    is the closed form.
    """
    from .fields import synthesize_periodic  # local import, no cycle at module load

    x = np.asarray(x_points, dtype=float)
    rho = evaluate_coefficient(gamma.spec, "rho", x)
    phi = synthesize_periodic(gamma.basis, gamma.coeffs, x)
    return source.envelope.modulation(eps * x) * rho * phi
