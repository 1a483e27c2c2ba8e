import os

import numpy as np
import pytest
from hypothesis import settings

from blochhomog import (GaussianEnvelope, MediumSpec, SourceSpec,
                        effective_coefficients, eigenpair_at_gamma,
                        solve_cell_functions, two_phase_1d, disk_2d,
                        wavenumber_quadrature)

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
