import json

import numpy as np
import pytest

from blochhomog import (GaussianEnvelope, Inclusion, MediumSpec,
                        evaluate_coefficient, fourier_table, load_spec,
                        spec_from_dict, spec_to_dict,
                        two_phase_1d, disk_2d)


# ---------------------------------------------------------------------------
# Fourier coefficients
# ---------------------------------------------------------------------------

def test_mean_values_1d(med1d):
    table = fourier_table(med1d, 4)
    # q_hat(n) sits at index n + cutoff on each axis
    assert abs(table.G_hat[4] - 3.5) < 1e-12
    assert abs(table.rho_hat[4] - 10.5) < 1e-12


def test_mean_values_2d(med2d):
    table = fourier_table(med2d, 4)
    # background + contrast * disk area
    assert abs(table.rho_hat[4, 4] - (1.0 + 19.0 * np.pi * 0.09)) < 1e-12
    assert abs(table.rho_hat[4, 4] - 6.372123437638546) < 1e-12
    assert abs(table.G_hat[4, 4] - (1.0 + 5.0 * np.pi * 0.09)) < 1e-12


def test_hermitian_symmetry_off_center():
    spec = MediumSpec(dimension=1, background_G=1.0, background_rho=1.0,
                      inclusions=(Inclusion(center=(0.13,), radius=0.2,
                                            G=4.0, rho=9.0),))
    table = fourier_table(spec, 6)
    for n in range(1, 7):
        assert abs(table.G_hat[6 + n] - np.conj(table.G_hat[6 - n])) < 1e-14
        assert abs(table.rho_hat[6 + n] - np.conj(table.rho_hat[6 - n])) < 1e-14


def test_partial_sum_converges_to_sharp_profile(med1d):
    x = np.linspace(-0.5, 0.5, 2001)[:-1]
    target = evaluate_coefficient(med1d, "rho", x)

    def l2_err(cutoff):
        table = fourier_table(med1d, cutoff)
        n = np.arange(-cutoff, cutoff + 1)
        synth = np.real(np.exp(2j * np.pi * np.outer(x, n)) @
                        table.rho_hat)
        return np.sqrt(np.mean(np.abs(synth - target) ** 2))

    e16, e64, e256 = l2_err(16), l2_err(64), l2_err(256)
    assert e64 < e16 and e256 < e64
    # L2 convergence rate ~ 1/sqrt(N) for a jump profile
    assert e256 < 0.6 * e16


def test_smoothing_damps_high_modes(med1d):
    sharp = fourier_table(med1d, 8)
    smooth = fourier_table(two_phase_1d(smoothing=0.05), 8)
    assert abs(smooth.G_hat[16]) < 0.1 * abs(sharp.G_hat[16])
    assert abs(smooth.G_hat[8] - sharp.G_hat[8]) < 1e-12


def test_disk_coefficient_matches_numeric_integral(med2d):
    # brute-force the (2, 1) coefficient of rho over the cell
    n = np.array([2, 1])
    m = 400
    g = (np.arange(m) + 0.5) / m - 0.5
    X1, X2 = np.meshgrid(g, g, indexing="ij")
    pts = np.stack([X1, X2], axis=-1)
    vals = evaluate_coefficient(med2d, "rho", pts)
    brute = np.mean(vals * np.exp(-2j * np.pi * (n[0] * X1 + n[1] * X2)))
    table = fourier_table(med2d, 4)
    assert abs(brute - table.rho_hat[tuple(n + 4)]) < 1e-3


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------

def test_evaluate_coefficient_values(med1d):
    assert evaluate_coefficient(med1d, "rho", np.array([0.0])) == 20.0
    assert evaluate_coefficient(med1d, "rho", np.array([0.4])) == 1.0
    # interface at x = 0.25: two-sided mean
    assert evaluate_coefficient(med1d, "rho", np.array([0.25])) == 10.5
    # periodic wrapping
    assert evaluate_coefficient(med1d, "G", np.array([1.1])) == 6.0


@pytest.mark.parametrize("dim, x, shape", [
    (1, np.array([0.3]), (1,)),          # one-element array: one point
    (1, 0.3, ()),
    (1, np.full(4, 0.3), (4,)),
    (1, np.full((4, 1), 0.3), (4,)),     # trailing d axis
    (2, np.array([0.3, 0.1]), ()),       # a single 2D point
    (2, np.full((4, 3, 2), 0.3), (4, 3)),
])
def test_point_shapes_one_convention(med1d, med2d, dim, x, shape):
    """evaluate_coefficient, GaussianEnvelope.spectrum and .modulation read
    points one way (medium._as_points) and return points.shape[:-1]."""
    spec = med1d if dim == 1 else med2d
    env = GaussianEnvelope(dim)
    for value in (evaluate_coefficient(spec, "rho", x), env.spectrum(x),
                  env.modulation(x)):
        assert np.shape(value) == shape


def test_evaluate_coefficient_2d(med2d):
    pts = np.array([[0.0, 0.0], [0.31, 0.0], [0.3, 0.0]])
    vals = evaluate_coefficient(med2d, "G", pts)
    assert vals[0] == 6.0 and vals[1] == 1.0 and vals[2] == 3.5


# ---------------------------------------------------------------------------
# Validation and JSON round trip
# ---------------------------------------------------------------------------

def test_validation_errors():
    with pytest.raises(ValueError):
        MediumSpec(dimension=3, background_G=1.0, background_rho=1.0)
    with pytest.raises(ValueError):
        MediumSpec(dimension=1, background_G=-1.0, background_rho=1.0)
    with pytest.raises(ValueError):          # sticks out of the cell
        MediumSpec(dimension=1, background_G=1.0, background_rho=1.0,
                   inclusions=(Inclusion((0.4,), 0.2, 1.0, 1.0),))
    with pytest.raises(ValueError):          # overlap
        MediumSpec(dimension=2, background_G=1.0, background_rho=1.0,
                   inclusions=(Inclusion((-0.2, 0.0), 0.15, 2.0, 2.0),
                               Inclusion((0.0, 0.0), 0.15, 2.0, 2.0)))


def test_json_round_trip(med2d):
    data = spec_to_dict(med2d)
    back = spec_from_dict(json.loads(json.dumps(data)))
    assert back == med2d


def test_unknown_keys_rejected():
    good = {"d": 1, "background": {"G": 1.0, "rho": 1.0},
            "inclusions": [{"shape": "interval", "center": [0.0],
                            "radius": 0.25, "G": 6.0, "rho": 20.0}],
            "smoothing": 0.0}
    spec_from_dict(good)                     # sanity
    bad = dict(good, typo=1)
    with pytest.raises(ValueError, match="unknown medium keys"):
        spec_from_dict(bad)
    bad = dict(good, background={"G": 1.0, "rho": 1.0, "mu": 1.0})
    with pytest.raises(ValueError, match="unknown background keys"):
        spec_from_dict(bad)
    bad = dict(good)
    bad["inclusions"] = [dict(good["inclusions"][0], color="red")]
    with pytest.raises(ValueError, match="unknown inclusion keys"):
        spec_from_dict(bad)
    bad = dict(good)
    bad["inclusions"] = [dict(good["inclusions"][0], shape="disk")]
    with pytest.raises(ValueError, match="unsupported inclusion shape"):
        spec_from_dict(bad)


def test_load_spec(tmp_path, med1d):
    path = tmp_path / "medium.json"
    path.write_text(json.dumps(spec_to_dict(med1d)))
    assert load_spec(str(path)) == med1d
