"""
Band-gap driving frequencies and the admissible long-wavelength source family.

The source has the separated form

    f_eps(x) = (2 pi)^{-d/2} ( int F(khat) e^{i khat.x} dkhat )
               * rho(x/eps) * phi_p(0; x/eps),

with F a rapidly decaying envelope spectrum.  For the built-in Gaussian
F(khat) = (2 sqrt(pi))^{-1} exp(-|khat|^2/4) the inner integral is itself a
Gaussian, available in closed form.  sample_source evaluates f_eps on the
separable grid of the fields, with their synthesizer for phi_p.

The driving frequency is omega^2 = omega_p^2(0) + eps^2 sigma Omega_hat^2
and must sit strictly inside a band gap or below the whole spectrum.  The
pencil S(k) - omega^2 B has S(k) = D_k E D_k positive semidefinite, because
the stiffness-coefficient matrix E is positive definite under either rule
(bloch module docstring: [[G]] in 2D, [[1/G]]^-1 in 1D), and B positive
definite, so every Bloch eigenvalue omega_m^2(k) is >= 0 and any omega^2 < 0
(p = 0, sigma = -1) lies below the spectrum: that needs no factorization.
Otherwise make_frequency counts the eigenvalues below omega^2 by Sylvester
inertia (bloch._eigenvalues_below, one LDL^H factorization of the
eigenpair's own pencil per k) along the Brillouin path, at the first
sample of each +-k class (bloch.reversal_classes): omega^2 is in a gap
exactly when that count is the same at every sample, since a branch that
crosses omega^2 changes it.  No eigenvalue is computed, and no number of
branches has to be chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (GammaPair, _eigenvalues_below, brillouin_path,
                    reversal_classes)
from .medium import _as_points, evaluate_coefficient


class NotInGap(Exception):
    """Requested frequency intersects a dispersion branch between two
    sampled wavevectors."""


@dataclass(frozen=True)
class GaussianEnvelope:
    """F(khat) = amplitude * exp(-|khat|^2/4)."""

    dimension: int
    amplitude: float = 1.0 / (2.0 * np.sqrt(np.pi))

    def spectrum(self, khat) -> np.ndarray:
        """F at wavenumber points khat (medium._as_points): shape
        khat.shape[:-1]."""
        sq = np.sum(_as_points(khat, self.dimension) ** 2, axis=-1)
        return self.amplitude * np.exp(-sq / 4.0)

    def modulation(self, y) -> np.ndarray:
        """Closed form of (2 pi)^{-d/2} int F(khat) exp(i khat.y) dkhat at
        points y (medium._as_points): shape y.shape[:-1].

        Gaussian integral: the prefactor is
        (2 pi)^{-d/2} * amplitude * (2 sqrt(pi))^d.
        """
        sq = np.sum(_as_points(y, self.dimension) ** 2, axis=-1)
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
        if not self.k_max > 0:
            raise ValueError("k_max must be positive")


@dataclass(frozen=True)
class FrequencySpec:
    """Driving frequency; make_frequency validates it against the spectrum."""

    branch: int
    sigma: int
    omega_hat: float
    eps: float
    omega2: float


def check_drive(sigma: int, omega_hat: float, eps: float):
    """A drive's inputs: sigma = +-1, Omega_hat > 0 and eps > 0."""
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if not (omega_hat > 0 and eps > 0):
        raise ValueError("omega_hat and eps must be positive")


def drive_frequency(gamma: GammaPair, sigma: int, omega_hat: float,
                    eps: float) -> FrequencySpec:
    """omega^2 = omega_p^2(0) + eps^2 sigma Omega_hat^2 from checked inputs
    (check_drive); the spectrum is make_frequency's part."""
    check_drive(sigma, omega_hat, eps)
    omega2 = gamma.omega2 + eps ** 2 * sigma * omega_hat ** 2
    return FrequencySpec(branch=gamma.branch, sigma=sigma,
                         omega_hat=omega_hat, eps=eps, omega2=omega2)


def make_frequency(gamma: GammaPair, sigma: int, omega_hat: float,
                   eps: float, k_window: float | None = None,
                   samples_per_segment: int = 30) -> FrequencySpec:
    """Build omega^2 = omega_p^2(0) + eps^2 sigma Omega_hat^2 and validate it.

    omega^2 < 0 lies below the whole spectrum (every omega_m^2(k) >= 0, see
    the module docstring) and is accepted at once.  Otherwise, at every
    brillouin_path(d, samples_per_segment) sample (each +-k class once,
    reversal_classes, since the spectra coincide), the eigenvalues of
    gamma.pencil below omega^2 are counted by inertia; omega^2 is in a gap
    when every count is the same, and NotInGap names branch min(count)
    otherwise.

    With `k_window` set, only the samples with |k|_inf <= k_window count.
    This admits frequencies that sit in a local gap around the zone center
    -- the regime a long-wavelength source actually probes -- even when a
    distant part of some branch crosses omega^2.  Pass eps * K_max of the
    source to match the synthesis window.
    """
    freq = drive_frequency(gamma, sigma, omega_hat, eps)
    if freq.omega2 < 0:
        return freq                    # below the whole spectrum: sub-acoustic
    ks = brillouin_path(gamma.spec.dimension, samples_per_segment)
    if k_window is not None:
        ks = ks[np.max(np.abs(ks), axis=1) <= k_window]
        if not len(ks):
            raise ValueError("k_window excludes every path sample")
    pencil = gamma.pencil
    counts = [_eigenvalues_below(pencil.stiffness(k), pencil.B, freq.omega2)
              for k in ks[reversal_classes(ks)[0]]]
    low, high = min(counts), max(counts)
    if low != high:
        raise NotInGap(
            f"omega^2 = {freq.omega2:.6g} intersects branch {low}: "
            f"{low} to {high} eigenvalues lie below it along the path")
    return freq


def sample_source(gamma: GammaPair, source: SourceSpec, eps: float,
                  axes) -> np.ndarray:
    """Evaluate f_eps(eps x) on the separable fast-coordinate grid `axes`.

    Material density is the sharp pointwise value; the eigenfunction is
    synthesized on the grid from its Fourier coefficients, and the envelope
    modulation is the closed form.
    """
    from .fields import _grid_points, synthesize_periodic  # no cycle at load

    x = _grid_points(axes)
    rho = evaluate_coefficient(gamma.spec, "rho", x)
    phi = synthesize_periodic(gamma.basis, gamma.coeffs, axes)
    return source.envelope.modulation(eps * x) * rho * phi
