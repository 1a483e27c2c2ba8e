import os

import numpy as np
import pytest
from hypothesis import settings

from blochhomog import (GaussianEnvelope, MediumSpec, SourceSpec,
                        effective_coefficients, eigenpair_at_gamma,
                        solve_bands, solve_cell_functions, two_phase_1d,
                        disk_2d, wavenumber_quadrature)

# CI sets HYPOTHESIS_PROFILE=ci: every run draws the same examples.  Local
# runs keep the random default.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def med1d():
    return two_phase_1d()


@pytest.fixture(scope="session")
def homog1d():
    return MediumSpec(dimension=1, background_G=1.0, background_rho=1.0)


@pytest.fixture(scope="session")
def med2d():
    return disk_2d()


@pytest.fixture(scope="session")
def gamma1d_32(med1d):
    return eigenpair_at_gamma(med1d, 0, 32)


@pytest.fixture(scope="session")
def eff1d_32(gamma1d_32):
    return effective_coefficients(solve_cell_functions(gamma1d_32))


@pytest.fixture(scope="session")
def gamma2d_p3(med2d):
    return eigenpair_at_gamma(med2d, 3, 8)


@pytest.fixture(scope="session")
def quad1d():
    return wavenumber_quadrature(1, 8.0, 64)


@pytest.fixture(scope="session")
def source1d():
    return SourceSpec(envelope=GaussianEnvelope(1), k_max=8.0)


@pytest.fixture(scope="session")
def source2d():
    return SourceSpec(envelope=GaussianEnvelope(2), k_max=8.0)


@pytest.fixture
def announce(capsys):
    """Print a line to the real terminal even under output capture."""
    def _say(msg):
        with capsys.disabled():
            print(msg)
    return _say


def _omega2_expansion(eff, khat, eps: float) -> float:
    """omega_p^2(eps*khat) through fourth order."""
    khat = np.atleast_1d(np.asarray(khat, dtype=float))
    w2 = np.einsum("ab,a,b->", eff.mu0, khat, khat) / eff.rho0
    w4 = -np.einsum("abcd,a,b,c,d->", eff.mu2, khat, khat, khat,
                    khat) / eff.rho0
    return eff.gamma.omega2 + eps ** 2 * w2.real + eps ** 4 * w4.real


def _dispersion_expansion_check(eff, khat, eps_list) -> dict:
    """Remainder |omega_p^2(eps khat) - 4th-order expansion| and its slope.

    The remainder should scale like eps^6; the returned slope is the
    log-log least-squares fit over eps_list.
    """
    gamma = eff.gamma
    khat = np.atleast_1d(np.asarray(khat, dtype=float))
    remainders = []
    for eps in eps_list:
        sol = solve_bands(gamma.table, gamma.basis, eps * khat,
                          gamma.branch + 1)
        exact = sol.omega2[gamma.branch]
        approx = _omega2_expansion(eff, khat, eps)
        remainders.append(abs(exact - approx))
    eps_arr = np.asarray(eps_list, dtype=float)
    rem = np.asarray(remainders)
    good = rem > 0
    slope = np.nan
    if good.sum() >= 2:
        slope = np.polyfit(np.log(eps_arr[good]), np.log(rem[good]), 1)[0]
    return {"eps": eps_arr, "remainder": rem, "slope": float(slope)}


@pytest.fixture(scope="session")
def dispersion_expansion_check():
    """The eps^6 remainder check of the fourth-order dispersion expansion,
    shared by the cell tests and criterion 5."""
    return _dispersion_expansion_check
