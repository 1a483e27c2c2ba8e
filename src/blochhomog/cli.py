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
                     branch_solution, check_quadrature, exact_bloch_solution,
                     export_field_csv, export_field_npz, homogenized_fields,
                     uniform_axis, wavenumber_quadrature)
from .medium import spec_from_dict
from .source import (GaussianEnvelope, NotInGap, SourceSpec, check_drive,
                     make_frequency)


class AcceptanceViolation(Exception):
    """A configured acceptance band or ordering requirement failed."""


class DiagnosticsFailed(Exception):
    """Effective tensors whose dropped parts do not vanish."""


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

# Every settable value outside "medium", with its default (README.md lists
# them).  A per-eps "reference" maps each converge eps to its own block.
_DEFAULTS = {
    "cutoff": 32, "branch": 0, "sigma": -1, "omega_hat": 1.0,
    "quadrature": {"rule": "gauss", "points_per_axis": 64, "k_max": 8.0},
    "reference": {"half_width": 14, "points_per_cell": 64,
                  "decay_threshold": 1e-6},
    "dispersion": {"count": 14, "samples_per_segment": 30},
    "effective": {"extrapolate": False},
    "fields": {"eps": 0.25, "half_width": 8, "points_per_cell": 32,
               "outputs": ["exact", "order0", "order1", "order2"]},
    "converge": {"eps": [0.5, 0.375, 0.25], "eval_half_width": 10.0,
                 "slope_bands": None},
}
_FIELD_OUTPUTS = ("exact", "branch", "order0", "order1", "order2")


def _check_keys(block: dict, allowed, path: str = ""):
    """Reject a block that is not a JSON object or holds a key outside
    `allowed`, naming each unknown key by its dotted path (an unknown
    block by each of its keys)."""
    if not isinstance(block, dict):
        raise ValueError(f"{path or 'run config'} must be a JSON object")
    unknown = []
    for key in sorted(set(block) - set(allowed)):
        name = f"{path}.{key}" if path else key
        inner = block[key] if isinstance(block[key], dict) else {}
        unknown += [f"{name}.{k}" for k in inner] or [name]
    if unknown:
        raise ValueError(f"unknown keys: {unknown}")


def load_config(path: str) -> dict:
    """The run config at `path`, checked before any solve: no unknown key;
    a valid medium, drive, quadrature and source; converge eps a non-empty
    list of positive numbers and eval_half_width > 1/2; a valid reference
    block (for every converge eps when given per eps); slope bands of
    computed orders; field outputs; samples_per_segment >= 1, a cutoff >= 1
    and a count within its basis; a boolean effective.extrapolate."""
    with open(path) as fh:
        cfg = json.load(fh)
    _check_keys(cfg, {"medium", *_DEFAULTS})
    if "medium" not in cfg:
        raise ValueError("config requires a 'medium' block")
    d = spec_from_dict(cfg["medium"]).dimension
    for key, allowed in _DEFAULTS.items():
        if isinstance(allowed, dict) and key in cfg:
            per_eps = key == "reference" and _is_per_eps(cfg[key])
            for block in cfg[key].values() if per_eps else [cfg[key]]:
                _check_keys(block, allowed, key)
    check_drive(int(_get(cfg, "sigma")), float(_get(cfg, "omega_hat")),
                float(_get(cfg, "fields", "eps")))
    check_quadrature(_get(cfg, "quadrature", "rule"),
                     int(_get(cfg, "quadrature", "points_per_axis")))
    SourceSpec(GaussianEnvelope(d), float(_get(cfg, "quadrature", "k_max")))
    eps_list = _get(cfg, "converge", "eps")
    if not (isinstance(eps_list, list) and eps_list
            and all(_is_number(e) and e > 0 for e in eps_list)):
        raise ValueError(f"converge.eps must be a non-empty list of positive "
                         f"numbers, not {eps_list!r}")
    ref_cfgs = _ref_configs(cfg)
    if isinstance(ref_cfgs, dict):
        missing = [e for e in eps_list if float(e) not in ref_cfgs]
        if missing:
            raise ValueError(f"reference has no block for converge eps "
                             f"{missing}")
    if not float(_get(cfg, "converge", "eval_half_width")) > 0.5:
        raise ValueError("converge.eval_half_width must exceed 1/2: the "
                         "error window is |x| <= eval_half_width - 1/2")
    _check_slope_bands(_get(cfg, "converge", "slope_bands"))
    unknown = [n for n in _get(cfg, "fields", "outputs")
               if n not in _FIELD_OUTPUTS]
    if unknown:
        raise ValueError(f"unknown field outputs {unknown}; choose from "
                         f"{list(_FIELD_OUTPUTS)}")
    if int(_get(cfg, "dispersion", "samples_per_segment")) < 1:
        raise ValueError("dispersion.samples_per_segment must be >= 1")
    cutoff = int(_get(cfg, "cutoff"))
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    size = (2 * cutoff + 1) ** d
    if not 1 <= int(_get(cfg, "dispersion", "count")) <= size:
        raise ValueError(f"dispersion.count must be in [1, (2 cutoff + 1)^d]"
                         f" = [1, {size}]")
    if not isinstance(_get(cfg, "effective", "extrapolate"), bool):
        raise ValueError("effective.extrapolate must be true or false")
    return cfg


def _get(cfg: dict, *path: str):
    """The value at `path` ("cutoff", or a block and its key), or its
    default."""
    value, default = cfg, _DEFAULTS
    for key in path:
        default = default[key]
        value = value.get(key, default)
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_slope_bands(bands):
    """converge.slope_bands is null or maps some of the orders "0", "1",
    "2" to a [lo, hi] number pair."""
    if bands is None:
        return
    if not isinstance(bands, dict):
        raise ValueError(f"converge.slope_bands must be null or an object "
                         f'mapping "0", "1", "2" to [lo, hi], not {bands!r}')
    for order, band in bands.items():
        if order not in ("0", "1", "2"):
            raise ValueError(f"converge.slope_bands has a band for order "
                             f"{order!r}; the orders are 0, 1, 2")
        if not (isinstance(band, list) and len(band) == 2
                and all(map(_is_number, band))):
            raise ValueError(f"converge.slope_bands[{order!r}] must be a "
                             f"[lo, hi] number pair, not {band!r}")


def _is_per_eps(ref) -> bool:
    return (isinstance(ref, dict) and bool(ref)
            and all(isinstance(v, dict) for v in ref.values()))


def config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _provenance(cfg: dict) -> list:
    return [f"blochhomog {__version__}", f"config {config_hash(cfg)}"]


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------

def _ref_config(block: dict) -> ReferenceConfig:
    ref = {**_DEFAULTS["reference"], **block}
    return ReferenceConfig(half_width=int(ref["half_width"]),
                           points_per_cell=int(ref["points_per_cell"]),
                           decay_threshold=float(ref["decay_threshold"]))


def _ref_configs(cfg: dict):
    """The converge reference: one ReferenceConfig, or a dict eps ->
    ReferenceConfig when the config gives a block per eps."""
    ref = cfg.get("reference", {})
    if _is_per_eps(ref):
        return {float(k): _ref_config(v) for k, v in ref.items()}
    return _ref_config(ref)


def cached_gamma(cfg: dict) -> GammaPair:
    """The config's zone-center eigenpair, recomputed on every call (the
    name stays: perfbench/spans.py traces cli.cached_gamma by name)."""
    return eigenpair_at_gamma(spec_from_dict(cfg["medium"]),
                              int(_get(cfg, "branch")),
                              int(_get(cfg, "cutoff")))


def cached_cell(gamma: GammaPair) -> CellFunctions:
    """The eigenpair's cell functions, recomputed on every call (the name
    stays: perfbench/spans.py traces cli.cached_cell by name)."""
    return solve_cell_functions(gamma)


def _effective(cfg: dict):
    """The eigenpair and its effective tensors, extrapolated against the
    half cutoff when effective.extrapolate is set."""
    gamma = cached_gamma(cfg)
    eff = effective_coefficients(cached_cell(gamma))
    if _get(cfg, "effective", "extrapolate"):
        coarse = cached_gamma({**cfg, "cutoff": gamma.basis.cutoff // 2})
        eff = extrapolated_coefficients(
            eff, effective_coefficients(cached_cell(coarse)))
    return gamma, eff


def _drive(cfg: dict):
    """What fields and converge share: the eigenpair and its effective
    tensors, the quadrature and Gaussian source, sigma, omega_hat, and the
    path sampling (dispersion.samples_per_segment) that make_frequency
    validates every drive on.  Both build on the real tensors: an
    imaginary part of mu0/mu2, or a rho1/mu1/rho2 that does not vanish,
    which the tensors drop (diagnostics_ok False), makes the run a
    numerical failure."""
    gamma, eff = _effective(cfg)
    if not eff.diagnostics_ok:
        raise DiagnosticsFailed(
            f"effective tensors fail their diagnostics: |rho1| = "
            f"{norm(eff.rho1):.3e}, |mu1| = "
            f"{norm(eff.mu1):.3e}, |rho2| = "
            f"{norm(eff.rho2):.3e}, or an imaginary part of mu0/mu2 "
            f"above {DIAGNOSTIC_TOL:.0e} relative was dropped")
    d = gamma.spec.dimension
    quad = wavenumber_quadrature(
        d, k_max=float(_get(cfg, "quadrature", "k_max")),
        points_per_axis=int(_get(cfg, "quadrature", "points_per_axis")),
        rule=_get(cfg, "quadrature", "rule"))
    source = SourceSpec(envelope=GaussianEnvelope(d), k_max=quad.k_max)
    return (gamma, eff, quad, source, int(_get(cfg, "sigma")),
            float(_get(cfg, "omega_hat")),
            int(_get(cfg, "dispersion", "samples_per_segment")))


def _diagram(cfg: dict):
    samples = int(_get(cfg, "dispersion", "samples_per_segment"))
    return dispersion_diagram(spec_from_dict(cfg["medium"]),
                              cutoff=int(_get(cfg, "cutoff")),
                              count=int(_get(cfg, "dispersion", "count")),
                              samples_per_segment=samples)


def _write_json(path: str, payload: dict, cfg: dict):
    body = {"provenance": {"tool": f"blochhomog {__version__}",
                           "config": config_hash(cfg)}}
    body.update(payload)
    with open(path, "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_axes(cfg: dict):
    hw = float(_get(cfg, "fields", "half_width"))
    ppc = int(_get(cfg, "fields", "points_per_cell"))
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


def cmd_fields(cfg, out, args):
    if args.line is not None and spec_from_dict(cfg["medium"]).dimension != 2:
        raise ValueError("--line extracts transects of 2D fields; "
                         "the medium is 1D")
    ax = _field_axes(cfg)
    gamma, eff, quad, source, sigma, omega_hat, samples = _drive(cfg)
    eps = float(_get(cfg, "fields", "eps"))
    freq = make_frequency(gamma, sigma, omega_hat, eps,
                          k_window=eps * source.k_max,
                          samples_per_segment=samples)
    axes = (ax,) * gamma.spec.dimension
    outputs = _get(cfg, "fields", "outputs")
    orders = [int(name[-1]) for name in outputs if name.startswith("order")]
    homogenized = (homogenized_fields(eff, freq, source, quad, orders, axes)
                   if orders else {})

    written = []
    for name in outputs:
        if name == "exact":
            fld = exact_bloch_solution(gamma, freq, source, quad, axes)
        elif name == "branch":
            fld = branch_solution(gamma, freq, source, quad, axes)
        else:
            fld = homogenized[int(name[-1])]
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
    gamma, eff, quad, source, sigma, omega_hat, samples = _drive(cfg)
    eps_list = [float(e) for e in _get(cfg, "converge", "eps")]
    report = convergence_study(
        gamma, eff, source, quad, sigma, omega_hat, eps_list,
        _ref_configs(cfg), float(_get(cfg, "converge", "eval_half_width")),
        samples_per_segment=samples)

    json_path = os.path.join(out, "converge.json")
    _write_json(json_path, report.to_dict(), cfg)
    csv_path = os.path.join(out, "converge.csv")
    with open(csv_path, "w") as fh:
        for line in _provenance(cfg):
            fh.write(f"# {line}\n")
        for m in report.orders:
            fh.write(f"# slope order {m}: {report.slopes[m]:.6g}\n")
        fh.write("eps,order,error\n")
        for i, eps in enumerate(eps_list):
            for m in report.orders:
                fh.write(f"{eps:.12g},{m},{report.errors[m][i]:.12g}\n")
    if args.verbose:
        for m in report.orders:
            print(f"order {m}: errors "
                  + " ".join(f"{e:.3e}" for e in report.errors[m])
                  + f"  slope {report.slopes[m]:.3f}")

    # slope bands turn on the acceptance gates: the bands, then the
    # ordering e2 < e1 < e0 at every eps
    bands = _get(cfg, "converge", "slope_bands")
    if bands is not None:
        for m_str, (lo, hi) in bands.items():
            s = report.slopes[int(m_str)]
            if not lo <= s <= hi:
                raise AcceptanceViolation(
                    f"order-{m_str} slope {s:.3f} outside [{lo}, {hi}]")
        if not report.ordering_ok():
            raise AcceptanceViolation("error ordering e2 < e1 < e0 violated")
    return [json_path, csv_path]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"dispersion": cmd_dispersion, "gaps": cmd_gaps, "cell": cmd_cell,
             "effective": cmd_effective, "fields": cmd_fields,
             "converge": cmd_converge}
# the flags only one subcommand reads, each with that subcommand
_FLAG_COMMANDS = {"line": "fields", "normalized": "dispersion"}


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
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--normalized", action="store_true",
                        help="normalize dispersion CSV by pi and sqrt(G1/rho1)")
    parser.add_argument("--line", type=_parse_line, default=None,
                        metavar="y0=<v>", help="emit 2D field transects")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, command in _FLAG_COMMANDS.items():
        used = getattr(args, flag) != parser.get_default(flag)
        if used and args.command != command:
            print(f"validation error: --{flag} applies to the {command} "
                  f"subcommand only, not {args.command}", file=sys.stderr)
            return 2
    try:
        cfg = load_config(args.config)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    try:
        _COMMANDS[args.command](cfg, args.out, args)
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
