"""
Batch command-line driver.

One JSON run-config feeds every subcommand; flags only steer output
location and verbosity.  All emitted CSV/JSON files carry a provenance
header (tool version plus config hash) and contain no timestamps, so
re-running an identical config reproduces byte-identical payloads.  Each
subcommand recomputes the eigenpair and cell functions it needs and writes
only its outputs: nothing is cached on disk.

Exit codes: 0 ok, 2 validation error, 3 numerical failure,
4 acceptance violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np
import scipy.linalg

from . import __version__
from .bloch import (contract, dispersion_diagram, eigenpair_at_gamma,
                    export_diagram_csv, find_band_gaps, GammaPair, norm)
from .cell import (DIAGNOSTIC_TOL, CompatibilityViolation, SingularSystem,
                   CellFunctions, effective_coefficients,
                   extrapolated_coefficients, solve_cell_functions)
from .convergence import (DecayCheckFailed, ReferenceConfig,
                          convergence_study)
from .fields import (EnvelopeSingularity, FieldOnGrid, GapViolation,
                     branch_solution, exact_bloch_solution, export_field_csv,
                     export_field_npz, homogenized_fields, uniform_axis,
                     wavenumber_quadrature)
from .medium import spec_from_dict
from .source import (GaussianEnvelope, NotInGap, SourceSpec, drive_frequency,
                     make_frequency)


class AcceptanceViolation(Exception):
    """A configured acceptance band or ordering requirement failed."""


class DiagnosticsFailed(Exception):
    """Effective tensors whose dropped parts do not vanish."""


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

_TOP_KEYS = {"medium", "cutoff", "branch", "sigma", "omega_hat", "envelope",
             "quadrature", "reference", "dispersion", "effective", "fields",
             "converge", "output_dir"}
_QUAD_KEYS = {"rule", "points_per_axis", "k_max"}
_REF_KEYS = {"half_width", "points_per_cell", "decay_threshold"}
_DISP_KEYS = {"count", "samples_per_segment"}
_EFF_KEYS = {"extrapolate", "coarse_cutoff"}
_FIELD_KEYS = {"eps", "half_width", "points_per_cell", "outputs",
               "validate_gap"}
_CONV_KEYS = {"eps", "eval_half_width", "orders", "slope_bands",
              "require_ordering", "validate_gap"}
_ENV_KEYS = {"name", "amplitude"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("run config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "medium" not in cfg:
        raise ValueError("config requires a 'medium' block")
    spec_from_dict(cfg["medium"])  # validate early
    for key, allowed in (("quadrature", _QUAD_KEYS), ("dispersion", _DISP_KEYS),
                         ("effective", _EFF_KEYS), ("fields", _FIELD_KEYS),
                         ("converge", _CONV_KEYS), ("envelope", _ENV_KEYS)):
        if key in cfg:
            _check_keys(cfg[key], allowed, key)
    if "reference" in cfg:
        ref = cfg["reference"]
        blocks = ref.values() if _is_per_eps(ref) else [ref]
        for b in blocks:
            _check_keys(b, _REF_KEYS, "reference")
    return cfg


def _is_per_eps(ref: dict) -> bool:
    return all(isinstance(v, dict) for v in ref.values())


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def _provenance(cfg: dict) -> list:
    return [f"blochhomog {__version__}", f"config {config_hash(cfg)}"]


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------

def _quad_from(cfg: dict, dimension: int):
    q = cfg.get("quadrature", {})
    return wavenumber_quadrature(dimension,
                                 k_max=float(q.get("k_max", 8.0)),
                                 points_per_axis=int(q.get("points_per_axis", 64)),
                                 rule=q.get("rule", "gauss"))


def _source_from(cfg: dict, dimension: int) -> SourceSpec:
    env = cfg.get("envelope", {})
    name = env.get("name", "gaussian")
    if name != "gaussian":
        raise ValueError(f"unknown envelope {name!r}")
    kwargs = {}
    if "amplitude" in env:
        kwargs["amplitude"] = float(env["amplitude"])
    k_max = float(cfg.get("quadrature", {}).get("k_max", 8.0))
    return SourceSpec(envelope=GaussianEnvelope(dimension, **kwargs),
                      k_max=k_max)


def _ref_config(block: dict) -> ReferenceConfig:
    return ReferenceConfig(
        half_width=int(block.get("half_width", 14)),
        points_per_cell=int(block.get("points_per_cell", 64)),
        decay_threshold=float(block.get("decay_threshold", 1e-6)))


def cached_gamma(cfg: dict) -> GammaPair:
    """The config's zone-center eigenpair, recomputed on every call (the
    name stays: perfbench/spans.py traces cli.cached_gamma by name)."""
    return eigenpair_at_gamma(spec_from_dict(cfg["medium"]),
                              int(cfg.get("branch", 0)),
                              int(cfg.get("cutoff", 32)))


def cached_cell(gamma: GammaPair) -> CellFunctions:
    """The eigenpair's cell functions, recomputed on every call (the name
    stays: perfbench/spans.py traces cli.cached_cell by name)."""
    return solve_cell_functions(gamma)


def _effective(cfg: dict):
    gamma = cached_gamma(cfg)
    eff = effective_coefficients(cached_cell(gamma))
    eff_cfg = cfg.get("effective", {})
    if eff_cfg.get("extrapolate", False):
        coarse_cutoff = int(eff_cfg.get("coarse_cutoff",
                                        int(cfg.get("cutoff", 32)) // 2))
        coarse = dict(cfg)
        coarse["cutoff"] = coarse_cutoff
        gamma_c = cached_gamma(coarse)
        eff_c = effective_coefficients(cached_cell(gamma_c))
        eff = extrapolated_coefficients(eff, eff_c)
    return gamma, eff


def _require_diagnostics(eff):
    """converge and fields build on the real tensors: an imaginary part of
    mu0/mu2, or a rho1/mu1/rho2 that does not vanish, which the tensors drop
    (diagnostics_ok False), makes the run a numerical failure."""
    if not eff.diagnostics_ok:
        raise DiagnosticsFailed(
            f"effective tensors fail their diagnostics: |rho1| = "
            f"{norm(eff.rho1):.3e}, |mu1| = "
            f"{norm(eff.mu1):.3e}, |rho2| = "
            f"{norm(eff.rho2):.3e}, or an imaginary part of mu0/mu2 "
            f"above {DIAGNOSTIC_TOL:.0e} relative was dropped")


def _diagram(cfg: dict):
    spec = spec_from_dict(cfg["medium"])
    disp = cfg.get("dispersion", {})
    return dispersion_diagram(spec,
                              cutoff=int(cfg.get("cutoff", 32)),
                              count=int(disp.get("count", 14)),
                              samples_per_segment=_samples_per_segment(cfg))


def _samples_per_segment(cfg: dict) -> int:
    """The Brillouin-path sampling of diagrams and drive validation."""
    return int(cfg.get("dispersion", {}).get("samples_per_segment", 30))


def _write_json(path: str, payload: dict, cfg: dict):
    body = {"provenance": {"tool": f"blochhomog {__version__}",
                           "config": config_hash(cfg)}}
    body.update(payload)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_axes(block: dict):
    hw = float(block.get("half_width", 8))
    ppc = int(block.get("points_per_cell", 32))
    if ppc < 1 or hw < 0 or abs(2 * hw * ppc - round(2 * hw * ppc)) > 1e-9:
        raise ValueError("fields needs points_per_cell >= 1 and half_width "
                         ">= 0 with 2 half_width points_per_cell whole")
    return uniform_axis(hw, ppc)


def _tensor_list(arr: np.ndarray):
    return np.real(arr).tolist()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_dispersion(cfg, out, args):
    diagram = _diagram(cfg)
    bg = cfg["medium"]["background"]
    path = os.path.join(out, "dispersion.csv")
    export_diagram_csv(diagram, path, normalized=args.normalized,
                       G1=float(bg["G"]), rho1=float(bg["rho"]),
                       header_lines=_provenance(cfg))
    if args.verbose:
        print(f"wrote {path} ({diagram.omega2.shape[0]} k-points, "
              f"{diagram.omega2.shape[1]} branches)")
    return [path]


def cmd_gaps(cfg, out, args):
    diagram = _diagram(cfg)
    gaps = find_band_gaps(diagram)
    path = os.path.join(out, "gaps.json")
    _write_json(path, {
        "count": len(gaps),
        "gaps": [{"below_branch": g.below_branch,
                  "omega2_low": g.omega2_low,
                  "omega2_high": g.omega2_high,
                  "width": g.width} for g in gaps],
    }, cfg)
    if args.verbose:
        print(f"wrote {path} ({len(gaps)} complete gaps)")
    return [path]


def cmd_cell(cfg, out, args):
    gamma = cached_gamma(cfg)
    cell = cached_cell(gamma)
    bc0h = gamma.blocks.mass(gamma.coeffs).conj()

    def zero_mean(chi):
        return float(np.max(np.abs(contract(bc0h, chi))))

    npz_path = os.path.join(out, "cell.npz")
    np.savez(npz_path, chi1=cell.chi1, chi2=cell.chi2, chi3=cell.chi3,
             omega2=gamma.omega2, coeffs=gamma.coeffs)
    json_path = os.path.join(out, "cell.json")
    _write_json(json_path, {
        "branch": int(gamma.branch),
        "omega2": float(gamma.omega2),
        "simple": bool(gamma.simple),
        "separation": float(gamma.separation),
        "norms": {"chi1": norm(cell.chi1),
                  "chi2": norm(cell.chi2),
                  "chi3": norm(cell.chi3)},
        "zero_mean_residual": {"chi1": zero_mean(cell.chi1),
                               "chi2": zero_mean(cell.chi2),
                               "chi3": zero_mean(cell.chi3)},
    }, cfg)
    if args.verbose:
        print(f"wrote {json_path} and {npz_path}")
    return [json_path, npz_path]


def cmd_effective(cfg, out, args):
    _, eff = _effective(cfg)
    path = os.path.join(out, "effective.json")
    _write_json(path, {
        "branch": eff.gamma.branch,
        "omega2": eff.gamma.omega2,
        "alpha_p": eff.alpha_p,
        "rho0": eff.rho0,
        "mu0": _tensor_list(eff.mu0),
        "mu2": _tensor_list(eff.mu2),
        "corrector_cov": _tensor_list(eff.corrector_cov),
        "diagnostics": {"rho1": norm(eff.rho1),
                        "mu1": norm(eff.mu1),
                        "rho2": norm(eff.rho2),
                        "tolerances_met": bool(eff.diagnostics_ok)},
    }, cfg)
    if args.verbose:
        print(f"wrote {path}")
    return [path]


_ORDER_OUTPUTS = ("order0", "order1", "order2")


def cmd_fields(cfg, out, args):
    fcfg = cfg.get("fields", {})
    if args.line is not None and spec_from_dict(cfg["medium"]).dimension != 2:
        raise ValueError("--line extracts transects of 2D fields; "
                         "the medium is 1D")
    ax = _field_axes(fcfg)
    gamma, eff = _effective(cfg)
    _require_diagnostics(eff)
    d = gamma.spec.dimension
    quad = _quad_from(cfg, d)
    source = _source_from(cfg, d)
    eps = float(fcfg.get("eps", 0.25))
    sigma = int(cfg.get("sigma", -1))
    omega_hat = float(cfg.get("omega_hat", 1.0))
    if fcfg.get("validate_gap", True):
        freq = make_frequency(gamma, sigma, omega_hat, eps,
                              k_window=eps * source.k_max,
                              samples_per_segment=_samples_per_segment(cfg))
    else:
        freq = drive_frequency(gamma, sigma, omega_hat, eps)
    axes = (ax,) * d
    outputs = fcfg.get("outputs", ["exact", "order0", "order1", "order2"])
    orders = [int(name[-1]) for name in outputs if name in _ORDER_OUTPUTS]
    homogenized = (homogenized_fields(eff, freq, source, quad, orders, axes)
                   if orders else {})

    written = []
    for name in outputs:
        if name == "exact":
            fld = exact_bloch_solution(gamma, freq, source, quad, axes)
        elif name == "branch":
            fld = branch_solution(gamma, freq, source, quad, axes)
        elif name in _ORDER_OUTPUTS:
            fld = homogenized[int(name[-1])]
        else:
            raise ValueError(f"unknown field output {name!r}")
        base = os.path.join(out, f"field_{name}")
        export_field_csv(fld, base + ".csv", header_lines=_provenance(cfg))
        export_field_npz(fld, base + ".npz", eps=eps)
        written += [base + ".csv", base + ".npz"]
        if args.line is not None:
            xs, vals = fld.line(args.line)
            export_field_csv(FieldOnGrid(axes=(xs,), values=vals),
                             base + "_line.csv", header_lines=_provenance(cfg))
            written.append(base + "_line.csv")
        if args.verbose:
            print(f"wrote field '{name}' "
                  f"(peak {np.max(np.abs(fld.values)):.4g})")
    return written


def cmd_converge(cfg, out, args):
    ccfg = cfg.get("converge", {})
    gamma, eff = _effective(cfg)
    _require_diagnostics(eff)
    d = gamma.spec.dimension
    quad = _quad_from(cfg, d)
    source = _source_from(cfg, d)
    sigma = int(cfg.get("sigma", -1))
    omega_hat = float(cfg.get("omega_hat", 1.0))
    eps_list = [float(e) for e in ccfg.get("eps", [0.5, 0.375, 0.25])]
    orders = tuple(int(m) for m in ccfg.get("orders", [0, 1, 2]))
    eval_hw = float(ccfg.get("eval_half_width", 10.0))

    ref_block = cfg.get("reference", {})
    if ref_block and _is_per_eps(ref_block):
        ref_cfgs = {float(k): _ref_config(v) for k, v in ref_block.items()}
    else:
        ref_cfgs = _ref_config(ref_block)

    samples = (_samples_per_segment(cfg) if ccfg.get("validate_gap", True)
               else None)
    report = convergence_study(gamma, eff, source, quad, sigma, omega_hat,
                               eps_list, ref_cfgs, eval_hw, orders=orders,
                               samples_per_segment=samples)

    json_path = os.path.join(out, "converge.json")
    _write_json(json_path, report.to_dict(), cfg)
    csv_path = os.path.join(out, "converge.csv")
    with open(csv_path, "w") as fh:
        for line in _provenance(cfg):
            fh.write(f"# {line}\n")
        for m in orders:
            fh.write(f"# slope order {m}: {report.slopes[m]:.6g}\n")
        fh.write("eps,order,error\n")
        for i, eps in enumerate(eps_list):
            for m in orders:
                fh.write(f"{eps:.12g},{m},{report.errors[m][i]:.12g}\n")
    if args.verbose:
        for m in orders:
            print(f"order {m}: errors "
                  + " ".join(f"{e:.3e}" for e in report.errors[m])
                  + f"  slope {report.slopes[m]:.3f}")

    bands = ccfg.get("slope_bands")
    if bands is not None:
        for m_str, (lo, hi) in bands.items():
            s = report.slopes[int(m_str)]
            if not lo <= s <= hi:
                raise AcceptanceViolation(
                    f"order-{m_str} slope {s:.3f} outside [{lo}, {hi}]")
    if ccfg.get("require_ordering", bands is not None):
        if not report.ordering_ok():
            raise AcceptanceViolation("error ordering e2 < e1 < e0 violated")
    return [json_path, csv_path]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"dispersion": cmd_dispersion, "gaps": cmd_gaps, "cell": cmd_cell,
             "effective": cmd_effective, "fields": cmd_fields,
             "converge": cmd_converge}


def _parse_line(value: str) -> float:
    """Accept the --line y0=<value> form only."""
    if not value.startswith("y0="):
        raise argparse.ArgumentTypeError("expected --line y0=<value>")
    return float(value[3:])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochhomog",
        description="Bloch dispersion, cell problems, effective coefficients "
                    "and wavefields for periodic media.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--normalized", action="store_true",
                        help="normalize dispersion CSV by pi and sqrt(G1/rho1)")
    parser.add_argument("--line", type=_parse_line, default=None,
                        metavar="y0=<v>", help="emit 2D field transects")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.line is not None and args.command != "fields":
        print(f"validation error: --line applies to the fields subcommand "
              f"only, not {args.command}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or cfg.get("output_dir", ".")
    os.makedirs(out, exist_ok=True)
    try:
        _COMMANDS[args.command](cfg, out, args)
    except AcceptanceViolation as exc:
        print(f"acceptance violation: {exc}", file=sys.stderr)
        return 4
    except (NotInGap, GapViolation, EnvelopeSingularity, DecayCheckFailed,
            CompatibilityViolation, SingularSystem, DiagnosticsFailed,
            scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, TypeError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
