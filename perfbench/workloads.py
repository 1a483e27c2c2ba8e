"""
The three benchmark workloads, driven through the public API of blochhomog.

Each workload has two halves:

* ``make_inputs(seed, tiny, workdir)`` builds everything a pass needs from
  the seed alone (medium, source, quadrature, run config).  Seed 0 gives the
  unperturbed configuration; any other seed scales the inclusion's stiffness
  and density by factors within ``1 +- JITTER``, a range where every check
  still passes.  The geometry is not perturbed: moving an interface off the
  finite-difference grid changes the reference's staircase error by far more
  than the physics changes (a 0.3 % larger 2D disk radius takes the 2D
  order-2 error from 5.5e-3 to 1.3e-2), so the oracle error would no
  longer be comparable between seeds.
* ``run_pass(inputs)`` runs the pipeline once and returns a ``PassResult``:
  the workload's oracle error against its independent finite-difference
  reference and the list of failed output checks (empty when all pass).

``tiny=True`` shrinks the sizes so that a pass takes a second or two; the
self-test uses it.  The checks are the same at both sizes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad as scipy_quad

from blochhomog import (GaussianEnvelope, ReferenceConfig, SourceSpec,
                        convergence_study, disk_2d, dispersion_diagram,
                        effective_coefficients, eigenpair_at_gamma,
                        exact_bloch_solution, find_band_gaps,
                        reference_solution, relative_error,
                        solve_cell_functions, spec_from_dict, two_phase_1d,
                        wavenumber_quadrature)
from blochhomog.cli import main as cli_main
from blochhomog.source import FrequencySpec

JITTER = 0.005         # largest relative perturbation of a medium parameter
EPS = 0.25             # exact_1d driving scale
README_SLOPE_BANDS = {"0": [0.7, 1.7], "1": [1.7, 2.6], "2": [2.7, 3.7]}
# Branches 10 and 11 of the 2D medium touch (max of one equals min of the
# other up to roundoff); find_band_gaps reports such a touching as a gap of
# width ~1e-12 whenever roundoff happens to fall that way.  Gaps narrower
# than this share of the largest omega^2 are counted as touchings, and
# reported in the pass notes.
GAP_ROUNDOFF = 1e-9


@dataclass
class PassResult:
    oracle_err: float
    problems: list = field(default_factory=list)   # failed checks
    notes: list = field(default_factory=list)      # findings that pass


def _jitter(seed: int):
    """Relative perturbation factors for the inclusion; all 1.0 at seed 0."""
    rng = random.Random(seed)

    def factor() -> float:
        return 1.0 + rng.uniform(-JITTER, JITTER) if seed else 1.0
    return factor


# ---------------------------------------------------------------------------
# exact_1d: criterion 7 at reduced size
# ---------------------------------------------------------------------------

def exact_1d_inputs(seed: int, tiny: bool, workdir: str) -> dict:
    j = _jitter(seed)
    medium = two_phase_1d(G=(1.0, 6.0 * j()), rho=(1.0, 20.0 * j()))
    source = SourceSpec(envelope=GaussianEnvelope(1), k_max=8.0)
    quad_ = wavenumber_quadrature(1, 8.0, 64)
    hom = spec_from_dict({"d": 1, "background": {"G": 1.0, "rho": 1.0},
                          "inclusions": []})
    hom_axis = np.linspace(-6.0, 6.0, 25)
    env = source.envelope
    # Fourier closed form of the homogeneous-medium field:
    # u(x) = (2 pi)^{-1/2} int F(k) / (k^2 + 1) e^{i k eps x} dk
    closed = np.array([scipy_quad(
        lambda k: env.spectrum([k])[0] / (k ** 2 + 1)
        * np.cos(k * EPS * x) / np.sqrt(2 * np.pi), -np.inf, np.inf)[0]
        for x in hom_axis])
    return {"medium": medium, "source": source, "quad": quad_,
            "cutoff": 64 if tiny else 128,
            "ref": ReferenceConfig(half_width=28,
                                   points_per_cell=16 if tiny else 64),
            "hom": hom, "hom_axis": hom_axis, "hom_closed": closed}


def exact_1d_pass(inp: dict) -> PassResult:
    gamma = eigenpair_at_gamma(inp["medium"], 0, inp["cutoff"])
    freq = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=EPS,
                         omega2=gamma.omega2 - EPS ** 2)
    ref = reference_solution(gamma, freq, inp["source"], inp["ref"])
    exact = exact_bloch_solution(gamma, freq, inp["source"], inp["quad"],
                                 ref.axes)
    disc = relative_error(ref, exact, 10.0)

    gh = eigenpair_at_gamma(inp["hom"], 0, 4)
    fh = FrequencySpec(branch=0, sigma=-1, omega_hat=1.0, eps=EPS,
                       omega2=-EPS ** 2)
    u = exact_bloch_solution(gh, fh, inp["source"], inp["quad"],
                             (inp["hom_axis"],))
    herr = float(np.max(np.abs(u.values - inp["hom_closed"])))

    res = PassResult(oracle_err=disc)
    if not disc < 1e-3:
        res.problems.append(f"exact vs FD {disc:.3e} >= 1e-3")
    if not herr < 1e-6:
        res.problems.append(f"homogeneous closed form {herr:.3e} >= 1e-6")
    return res


# ---------------------------------------------------------------------------
# converge_cli_1d: `blochhomog converge` in-process, cold cache every pass
# ---------------------------------------------------------------------------

def converge_config(seed: int, tiny: bool) -> dict:
    """The README example config with cutoff 256, extrapolated effective
    tensors and one finite-difference reference per eps (see README.md of
    this benchmark for why the README config itself cannot be used)."""
    j = _jitter(seed)
    ppc = 32 if tiny else 128
    return {
        "medium": {"d": 1,
                   "background": {"G": 1.0, "rho": 1.0},
                   "inclusions": [{"shape": "interval", "center": [0.0],
                                   "radius": 0.25, "G": 6.0 * j(),
                                   "rho": 20.0 * j()}]},
        "cutoff": 128 if tiny else 256, "branch": 0, "sigma": -1,
        "omega_hat": 1.0,
        "quadrature": {"rule": "gauss", "points_per_axis": 64, "k_max": 8.0},
        "dispersion": {"count": 6,
                       "samples_per_segment": 10 if tiny else 30},
        "effective": {"extrapolate": True},
        "fields": {"eps": 0.25, "half_width": 10, "points_per_cell": 32,
                   "outputs": ["exact", "order0", "order1", "order2"]},
        "reference": {
            "0.5": {"half_width": 14, "points_per_cell": ppc,
                    "decay_threshold": 1e-6},
            "0.375": {"half_width": 18, "points_per_cell": ppc,
                      "decay_threshold": 1e-6},
            "0.25": {"half_width": 28, "points_per_cell": ppc,
                     "decay_threshold": 1e-6}},
        "converge": {"eps": [0.5, 0.375, 0.25], "eval_half_width": 10.0,
                     "slope_bands": README_SLOPE_BANDS},
    }


def converge_cli_1d_inputs(seed: int, tiny: bool, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    cfg_path = os.path.join(workdir, "run.json")
    with open(cfg_path, "w") as fh:
        json.dump(converge_config(seed, tiny), fh, indent=2)
    return {"config": cfg_path, "out": os.path.join(workdir, "out"),
            "passes": 0}


def converge_cli_1d_pass(inp: dict) -> PassResult:
    inp["passes"] += 1
    out = f"{inp['out']}-{inp['passes']}"   # fresh directory: cold cache
    code = cli_main(["converge", "--config", inp["config"], "--out", out])
    if code != 0:
        return PassResult(float("nan"), [f"exit code {code}"])
    with open(os.path.join(out, "converge.json")) as fh:
        rep = json.load(fh)
    errors = {int(m): v for m, v in rep["errors"].items()}
    res = PassResult(oracle_err=float(errors[2][-1]))
    for m, (lo, hi) in README_SLOPE_BANDS.items():
        s = rep["slopes"][m]
        if not lo <= s <= hi:
            res.problems.append(f"order-{m} slope {s:.3f} outside [{lo}, {hi}]")
    for i, eps in enumerate(rep["eps"]):
        if not errors[2][i] < errors[1][i] < errors[0][i]:
            res.problems.append(f"e2 < e1 < e0 violated at eps {eps}")
    return res


# ---------------------------------------------------------------------------
# pipeline_2d: diagram + gaps, two zone-center cell hierarchies, 2D smoke study
# ---------------------------------------------------------------------------

def pipeline_2d_inputs(seed: int, tiny: bool, workdir: str) -> dict:
    j = _jitter(seed)
    return {"medium": disk_2d(G=(1.0, 6.0 * j()), rho=(1.0, 20.0 * j())),
            "source": SourceSpec(envelope=GaussianEnvelope(2), k_max=8.0),
            "quad": wavenumber_quadrature(2, 8.0, 32),
            "diagram_cutoff": 8 if tiny else 10,
            "samples": 5 if tiny else 20,
            "cell_cutoff": 4 if tiny else 8,
            "ref": ReferenceConfig(half_width=6,
                                   points_per_cell=12 if tiny else 24,
                                   decay_threshold=1e-2)}


def pipeline_2d_pass(inp: dict) -> PassResult:
    med = inp["medium"]
    problems = []
    diagram = dispersion_diagram(med, cutoff=inp["diagram_cutoff"], count=14,
                                 samples_per_segment=inp["samples"])
    reported = find_band_gaps(diagram)
    tol = GAP_ROUNDOFF * float(np.max(np.abs(diagram.omega2)))
    gaps = [g for g in reported if g.width > tol]
    notes = [f"find_band_gaps: zero-width gap above branch {g.below_branch} "
             f"(width {g.width:.1e})" for g in reported if g.width <= tol]
    low = [g.below_branch for g in gaps if g.omega2_high < 31.0]
    if len(gaps) != 5 or low != [0, 2, 3]:
        problems.append(f"gap structure {len(gaps)} gaps, low three above "
                        f"{low} (want 5 and [0, 2, 3])")

    effs = {}
    for branch in (3, 0):
        gamma = eigenpair_at_gamma(med, branch, inp["cell_cutoff"])
        effs[branch] = effective_coefficients(solve_cell_functions(gamma))
        if not effs[branch].diagnostics_ok:
            problems.append(f"branch {branch} diagnostics not ok")

    eff = effs[0]
    rep = convergence_study(eff.gamma, eff, inp["source"], inp["quad"], -1,
                            1.0, [0.5], inp["ref"], 5.0, orders=(0, 2))
    e0, e2 = rep.errors[0][0], rep.errors[2][0]
    if not e2 < e0:
        problems.append(f"e2 = {e2:.3e} not below e0 = {e0:.3e}")
    return PassResult(oracle_err=float(e2), problems=problems, notes=notes)


WORKLOADS = {
    "exact_1d": (exact_1d_inputs, exact_1d_pass),
    "converge_cli_1d": (converge_cli_1d_inputs, converge_cli_1d_pass),
    "pipeline_2d": (pipeline_2d_inputs, pipeline_2d_pass),
}
