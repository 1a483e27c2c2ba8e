import json
import os
import re
from unittest import mock

import numpy as np
import pytest

from blochhomog import (bloch, cell, cli, effective_coefficients,
                        eigenpair_at_gamma, fields, solve_cell_functions,
                        spec_from_dict)
from blochhomog.cli import config_hash, load_config, main


MED_1D = {"d": 1,
          "background": {"G": 1.0, "rho": 1.0},
          "inclusions": [{"shape": "interval", "center": [0.0], "radius": 0.25,
                          "G": 6.0, "rho": 20.0}]}
MED_2D = {"d": 2,
          "background": {"G": 1.0, "rho": 1.0},
          "inclusions": [{"shape": "disk", "center": [0.0, 0.0],
                          "radius": 0.3, "G": 20.0, "rho": 10.0}]}


def write_cfg(tmp_path, body, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def base_cfg():
    return {"medium": MED_1D, "cutoff": 16, "branch": 0,
            "sigma": -1, "omega_hat": 1.0,
            "dispersion": {"count": 4, "samples_per_segment": 10}}


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    cfg_path = write_cfg(tmp_path, base_cfg())
    cfg = load_config(cfg_path)
    assert cfg["cutoff"] == 16


def test_unknown_top_level_key_rejected(tmp_path):
    body = base_cfg()
    body["bogus"] = 1
    assert main(["gaps", "--config", write_cfg(tmp_path, body)]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    body = base_cfg()
    body["dispersion"]["n_bands"] = 4
    assert main(["gaps", "--config", write_cfg(tmp_path, body)]) == 2


def _set(body, path, value):
    """Set the key at a dotted path ("cutoff", "converge.eps")."""
    *block, key = path.split(".")
    (body.setdefault(block[0], {}) if block else body)[key] = value


# each key earlier versions accepted, with a value it could take
_REMOVED_KEYS = {"envelope.name": "gaussian", "envelope.amplitude": 0.5,
                 "output_dir": ".", "converge.orders": [0, 1, 2],
                 "converge.require_ordering": True,
                 "effective.coarse_cutoff": 8,
                 "fields.validate_gap": False, "converge.validate_gap": False}


@pytest.mark.parametrize("path", sorted(_REMOVED_KEYS))
def test_removed_key_rejected(tmp_path, capsys, path):
    """A removed key is an unknown key like any typo, and the error names
    it by its dotted path."""
    body = base_cfg()
    _set(body, path, _REMOVED_KEYS[path])
    assert main(["gaps", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "out")]) == 2
    assert f"unknown keys: ['{path}']" in capsys.readouterr().err


def _flat(defaults, prefix=""):
    for key, value in defaults.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def test_readme_key_table_lists_every_key(tmp_path):
    """README's key table lists exactly the keys load_config accepts
    besides medium, each with its default, and a config setting every one
    to that default loads."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    rows = re.findall(r"^\| `([a-z_.]+)` \| `(.*?)` \|",
                      open(readme).read(), re.M)
    table = {key: json.loads(default) for key, default in rows}
    assert len(table) == len(rows) == 20
    assert table == dict(_flat(cli._DEFAULTS))
    body = {"medium": MED_1D}
    for path, value in table.items():
        _set(body, path, value)
    assert load_config(write_cfg(tmp_path, body)) == body


def test_bad_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["gaps", "--config", str(path)]) == 2


def test_missing_medium_rejected(tmp_path):
    assert main(["gaps", "--config",
                 write_cfg(tmp_path, {"cutoff": 8})]) == 2


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [2, 3]}
    b = {"y": [2, 3], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 16


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_dispersion_and_gaps(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    out = str(tmp_path / "out")
    assert main(["dispersion", "--config", cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "dispersion.csv")).read().splitlines()
    assert lines[0].startswith("# blochhomog ")
    assert lines[1].startswith("# config ")
    assert lines[2] == "k_index,k_1,m,omega"

    assert main(["gaps", "--config", cfg, "--out", out]) == 0
    gaps = json.load(open(os.path.join(out, "gaps.json")))
    assert gaps["count"] >= 1
    assert gaps["gaps"][0]["omega2_high"] > gaps["gaps"][0]["omega2_low"]
    assert gaps["provenance"]["tool"].startswith("blochhomog")


def test_dispersion_normalized_flag(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    out = str(tmp_path / "out")
    assert main(["dispersion", "--config", cfg, "--out", out,
                 "--normalized"]) == 0
    rows = [l for l in open(os.path.join(out, "dispersion.csv"))
            if not l.startswith(("#", "k_index"))]
    k1 = float(rows[0].split(",")[1])
    assert abs(k1 - (-1.0)) < 1e-12   # path starts at -pi, normalized by pi


def test_cell_and_effective(tmp_path):
    cfg = write_cfg(tmp_path, base_cfg())
    out = str(tmp_path / "out")
    assert main(["cell", "--config", cfg, "--out", out]) == 0
    cell = json.load(open(os.path.join(out, "cell.json")))
    assert cell["simple"] is True
    assert cell["zero_mean_residual"]["chi1"] < 1e-10
    npz = np.load(os.path.join(out, "cell.npz"))
    assert npz["chi1"].shape[0] == npz["coeffs"].shape[0]

    assert main(["effective", "--config", cfg, "--out", out]) == 0
    eff = json.load(open(os.path.join(out, "effective.json")))
    assert eff["rho0"] > 0
    assert eff["mu0"][0][0] > 0
    assert eff["diagnostics"]["tolerances_met"] is True
    # each subcommand writes its outputs and nothing else
    assert sorted(os.listdir(out)) == ["cell.json", "cell.npz",
                                       "effective.json"]


def test_effective_extrapolation_differs(tmp_path):
    """In 2D (Laurent's rule) mu0 carries an O(1/cutoff) truncation error;
    extrapolation must move it toward its limit, which lies below the
    Galerkin value at any finer cutoff (a conforming Galerkin method, so
    mu0 falls as the basis grows) and above the Hashin-Shtrikman lower
    bound of the disk's isotropic effective stiffness.  (1D mu0 is exact at
    every cutoff under the inverse rule: there is nothing to remove.)"""
    body = base_cfg()
    body.update(medium=MED_2D, cutoff=6)
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["effective", "--config", write_cfg(tmp_path, body),
                 "--out", out1]) == 0
    body["effective"] = {"extrapolate": True}      # against cutoff 3
    assert main(["effective", "--config",
                 write_cfg(tmp_path, body, "run2.json"), "--out", out2]) == 0
    plain, extrap = (json.load(open(os.path.join(out, "effective.json")))
                     ["mu0"][0][0] for out in (out1, out2))
    fine = effective_coefficients(solve_cell_functions(
        eigenpair_at_gamma(spec_from_dict(MED_2D), 0, 16)))
    (inc,) = MED_2D["inclusions"]
    g1, g2 = MED_2D["background"]["G"], inc["G"]
    fill = np.pi * inc["radius"] ** 2
    lower = g1 + fill / (1.0 / (g2 - g1) + (1.0 - fill) / (2.0 * g1))
    upper = fine.mu0[0, 0]
    assert lower < upper < plain and plain != extrap
    # closer to every limit in [lower, upper] than plain is to any of them
    assert max(abs(extrap - lower), abs(extrap - upper)) < plain - upper


def test_fields_outputs_and_rerun_identical(tmp_path):
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 6, "points_per_cell": 16,
                      "outputs": ["exact", "order2"]}
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert main(["fields", "--config", cfg, "--out", out]) == 0
    for name in ("exact", "order2"):
        assert os.path.exists(os.path.join(out, f"field_{name}.csv"))
        npz = np.load(os.path.join(out, f"field_{name}.npz"))
        assert npz["values"].shape == (6 * 2 * 16 + 1,)
    first = open(os.path.join(out, "field_exact.csv"), "rb").read()
    assert main(["fields", "--config", cfg, "--out", out]) == 0
    assert open(os.path.join(out, "field_exact.csv"), "rb").read() == first


def test_fields_2d_line_transect(tmp_path):
    body = {"medium": MED_2D, "cutoff": 4, "branch": 0,
            "sigma": -1, "omega_hat": 1.0,
            "quadrature": {"points_per_axis": 8},
            "fields": {"eps": 0.5, "half_width": 2, "points_per_cell": 8,
                       "outputs": ["order0"]}}
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert main(["fields", "--config", cfg, "--out", out,
                 "--line", "y0=0.0"]) == 0
    lines = open(os.path.join(out, "field_order0_line.csv")).read().splitlines()
    assert lines[2] == "x1,re,im"
    assert len(lines) == 3 + 2 * 2 * 8 + 1


def test_fields_line_rejected_in_1d(tmp_path):
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 2, "points_per_cell": 8,
                      "outputs": ["order0"]}
    out = str(tmp_path / "out")
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", out, "--line", "y0=0.0"]) == 2
    assert not os.path.exists(os.path.join(out, "field_order0.csv"))


def test_unknown_field_output_fails_before_any_solve(tmp_path, capsys):
    """An unknown fields output is a config error (exit 2) that names it,
    raised before any output is computed or written."""
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 2, "points_per_cell": 8,
                      "outputs": ["exact", "order2", "ordr1"]}
    out = tmp_path / "out"
    out.mkdir()
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", str(out)]) == 2
    assert "'ordr1'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_fields_mode_count_key_rejected(tmp_path):
    # the exact field sums every Galerkin mode; there is no truncation to set
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "mode_count": 30}
    assert main(["fields", "--config", write_cfg(tmp_path, body)]) == 2


def test_fields_not_in_gap_exits_3(tmp_path):
    body = base_cfg()
    body["sigma"] = +1      # just above the acoustic branch: not a gap
    body["fields"] = {"eps": 0.5, "half_width": 4, "points_per_cell": 8}
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "out")]) == 3


# (values, named): every value _drive reads, each bad one rejected in
# load_config by the check the solve runs (source.check_drive,
# fields.check_quadrature, SourceSpec)
_BAD_DRIVES = [({"sigma": 0}, "sigma must be +1 or -1"),
               ({"omega_hat": -1.0}, "omega_hat and eps must be positive"),
               ({"fields": {"eps": 0.0}}, "omega_hat and eps must be"),
               ({"quadrature": {"rule": "simpson"}}, "unknown quadrature"),
               ({"quadrature": {"points_per_axis": 0}}, "more than 0 points"),
               ({"quadrature": {"rule": "trapezoid", "points_per_axis": 1}},
                "more than 1 points"),
               ({"quadrature": {"k_max": 0.0}}, "k_max must be positive"),
               ({"quadrature": {"k_max": float("nan")}}, "k_max must be")]


def _merged(body, values):
    """body with each block of `values` merged into body's block."""
    for key, value in values.items():
        body[key] = ({**body.get(key, {}), **value}
                     if isinstance(value, dict) else value)
    return body


@pytest.mark.parametrize("bad", _BAD_DRIVES)
def test_fields_bad_drive_exits_2(tmp_path, capsys, work_counts, bad):
    """A sigma other than +-1, a non-positive omega_hat or fields.eps, or a
    quadrature the solve could not build exits 2 before any solve."""
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 2, "points_per_cell": 8,
                      "outputs": ["order0"]}
    _fails_before_any_solve(tmp_path, capsys, work_counts,
                            _merged(body, bad[0]), "fields", bad[1])


@pytest.mark.parametrize("bad", _BAD_DRIVES)
def test_converge_bad_drive_exits_2(tmp_path, capsys, work_counts, bad):
    body = base_cfg()
    body["converge"] = {"eps": [0.5], "eval_half_width": 3.0}
    _fails_before_any_solve(tmp_path, capsys, work_counts,
                            _merged(body, bad[0]), "converge", bad[1])


def test_converge_outputs_and_slope_gate(tmp_path):
    body = base_cfg()
    body["quadrature"] = {"points_per_axis": 64}
    body["reference"] = {"0.5": {"half_width": 12, "points_per_cell": 32,
                                 "decay_threshold": 1e-3},
                         "0.25": {"half_width": 16, "points_per_cell": 32,
                                  "decay_threshold": 1e-3}}
    body["converge"] = {"eps": [0.5, 0.25], "eval_half_width": 8.0}
    cfg = write_cfg(tmp_path, body)
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "converge.json")))
    assert set(rep["errors"]) == {"0", "1", "2"}
    rows = [l for l in open(os.path.join(out, "converge.csv"))
            if not l.startswith(("#", "eps"))]
    assert len(rows) == 2 * 3

    # an absurd slope band must trip the acceptance gate
    body["converge"]["slope_bands"] = {"0": [5.0, 6.0]}
    cfg2 = write_cfg(tmp_path, body, "run2.json")
    assert main(["converge", "--config", cfg2, "--out", out]) == 4


def test_reference_without_an_eps_fails_before_any_solve(tmp_path, capsys,
                                                        work_counts):
    """A per-eps reference with no block for a converge eps is a config
    error (exit 2) that names the eps, raised before any eigensolve."""
    body = base_cfg()
    body["reference"] = {"0.5": {"half_width": 12}}
    body["converge"] = {"eps": [0.5, 0.25], "eval_half_width": 8.0}
    out = tmp_path / "out"
    out.mkdir()
    assert main(["converge", "--config", write_cfg(tmp_path, body),
                 "--out", str(out)]) == 2
    assert "converge eps [0.25]" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert work_counts["pencils"] == 0


def _fails_before_any_solve(tmp_path, capsys, work_counts, body, command,
                            named):
    """`command` on `body` exits 2 with an error naming `named`, before any
    pencil is gathered and with nothing written to --out."""
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", write_cfg(tmp_path, body),
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert work_counts["pencils"] == 0


@pytest.mark.parametrize("bands, named", [
    ([[0.7, 1.7]], "[[0.7, 1.7]]"),               # a list, not an object
    ({"3": [0.7, 1.7]}, "order '3'"),              # no order 3 is computed
    ({"0": [0.7]}, "slope_bands['0']"),            # not a pair
    ({"1": ["0.7", 1.7]}, "slope_bands['1']")])    # not numbers
def test_bad_slope_bands_fail_before_any_solve(tmp_path, capsys, work_counts,
                                               bands, named):
    body = base_cfg()
    body["converge"] = {"eps": [0.5], "eval_half_width": 3.0,
                        "slope_bands": bands}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "converge",
                            named)


@pytest.mark.parametrize("eps", [[], [0.5, 0.0], [0.5, -0.25]])
def test_bad_converge_eps_fails_before_any_solve(tmp_path, capsys,
                                                 work_counts, eps):
    """No eps (which would fit NaN slopes) or a non-positive one."""
    body = base_cfg()
    body["converge"] = {"eps": eps, "eval_half_width": 3.0}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "converge",
                            "converge.eps")


@pytest.mark.parametrize("reference", [{"points_per_cell": 0},
                                       {"0.5": {"points_per_cell": 0}}])
def test_reference_without_points_fails_before_any_solve(
        tmp_path, capsys, work_counts, reference):
    """A reference block with no points per cell, shared or per eps."""
    body = base_cfg()
    body["reference"] = reference
    body["converge"] = {"eps": [0.5], "eval_half_width": 3.0}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "converge",
                            "points_per_cell must be >= 1")


@pytest.mark.parametrize("reference", [{"half_width": -1},
                                       {"decay_threshold": 0},
                                       {"0.5": {"decay_threshold": -1.0}}])
def test_bad_reference_fails_before_any_solve(tmp_path, capsys, work_counts,
                                              reference):
    """A negative half width or a non-positive decay threshold is a config
    error, not an array-size error or a failed decay check after the
    solves."""
    body = base_cfg()
    body["reference"] = reference
    body["converge"] = {"eps": [0.5], "eval_half_width": 3.0}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "converge",
                            "reference needs half_width >= 0")


@pytest.mark.parametrize("eval_half_width", [0.5, 0.25])
def test_eval_half_width_at_most_half_fails_before_any_solve(
        tmp_path, capsys, work_counts, eval_half_width):
    """A window |x| <= eval_half_width - 1/2 of at most one point would
    give 0/0 errors, NaN slopes and a blamed homogenization."""
    body = base_cfg()
    body["converge"] = {"eps": [0.5], "eval_half_width": eval_half_width,
                        "slope_bands": {"0": [0.7, 1.7]}}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "converge",
                            "converge.eval_half_width must exceed 1/2")


@pytest.mark.parametrize("command", ["gaps", "fields"])
@pytest.mark.parametrize("values, named", [
    ({"dispersion": {"samples_per_segment": 0}},
     "samples_per_segment must be >= 1"),
    ({"dispersion": {"samples_per_segment": -2}},
     "samples_per_segment must be >= 1"),
    ({"dispersion": {"count": 0}}, "dispersion.count must be in"),
    ({"dispersion": {"count": 34}}, "= [1, 33]"),  # 2 * 16 + 1 plane waves
    ({"cutoff": 0}, "cutoff must be >= 1")],
    ids=["samples-0", "samples-negative", "count-0", "count-above-basis",
         "cutoff-0"])
def test_bad_dispersion_block_fails_before_any_solve(
        tmp_path, capsys, work_counts, command, values, named):
    """A path with no sample per segment (which samples Gamma alone, or
    divides by zero in 1D) or a branch count outside the basis, which a
    cutoff below 1 leaves empty."""
    body = _merged(base_cfg(), values)
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, command,
                            named)


@pytest.mark.parametrize("extrapolate", ["false", 1, None])
def test_extrapolate_must_be_a_boolean(tmp_path, capsys, work_counts,
                                       extrapolate):
    """The string "false" is truthy: it would extrapolate."""
    body = {**base_cfg(), "effective": {"extrapolate": extrapolate}}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "effective",
                            "effective.extrapolate must be true or false")


def test_negative_branch_exits_2(tmp_path, capsys, work_counts):
    """branch -1 is not branch 0 relabelled: cell writes nothing."""
    body = {**base_cfg(), "branch": -1}
    _fails_before_any_solve(tmp_path, capsys, work_counts, body, "cell",
                            "branch must be >= 0")


def test_converge_decay_failure_exits_3(tmp_path):
    body = base_cfg()
    body["reference"] = {"half_width": 4, "points_per_cell": 16,
                         "decay_threshold": 1e-8}
    body["converge"] = {"eps": [0.5], "eval_half_width": 3.0}
    assert main(["converge", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("command, flag", [
    ("gaps", ["--line", "y0=0.0"]), ("gaps", ["--normalized"]),
    ("cell", ["--normalized"])], ids=["line-gaps", "normalized-gaps",
                                      "normalized-cell"])
def test_flag_rejected_outside_its_subcommand(tmp_path, capsys, command,
                                              flag):
    """--line is read by fields only and --normalized by dispersion only:
    either on another subcommand exits 2 and writes nothing."""
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, base_cfg()),
                 "--out", str(out), *flag]) == 2
    assert flag[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["cell", "effective"])
def test_rerun_into_same_out_is_identical(tmp_path, command):
    """A second run into the same out dir writes the first run's bytes."""
    cfg = write_cfg(tmp_path, base_cfg())
    out = str(tmp_path / "out")
    path = os.path.join(out, f"{command}.json")
    assert main([command, "--config", cfg, "--out", out]) == 0
    first = open(path, "rb").read()
    assert main([command, "--config", cfg, "--out", out]) == 0
    assert open(path, "rb").read() == first


def test_fields_drive_above_the_diagram_branches_is_in_gap(tmp_path, capsys):
    """The gap test does not depend on dispersion.count: branch 1 driven
    sigma = +1 lies in the gap above it, beyond the two branches a diagram
    of count 2 holds, and passes; sigma = -1 lies on branch 1 and fails."""
    body = base_cfg()
    body.update(branch=1, sigma=+1)
    body["dispersion"]["count"] = 2
    body["fields"] = {"eps": 0.25, "half_width": 4, "points_per_cell": 8,
                      "outputs": ["order0"]}
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "above")]) == 0
    body["sigma"] = -1
    capsys.readouterr()
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "on")]) == 3
    assert "intersects branch 1" in capsys.readouterr().err


def _readme_config():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    (block,) = re.findall(r"```json\n(.*?)```", open(readme).read(), re.S)
    return json.loads(block)


@pytest.fixture
def work_counts(monkeypatch):
    """Count dispersion diagrams built by the CLI, pencils gathered from a
    coefficient table (parity_blocks, the one code that reads one), and
    periodic syntheses on a grid (fields._periodic_blocks passes): those of
    the source's phi_p (fields.synthesize_periodic, one pass each) apart
    from the rest, which here are cell stacks.  lattices lists the shape of
    every field synthesized on a fold lattice (fields._lattice), one per
    homogenized order."""
    counts = {"diagrams": 0, "pencils": 0, "cell_stacks": 0, "sources": 0,
              "lattices": []}
    diagram = cli.dispersion_diagram
    periodic_blocks = fields._periodic_blocks
    synthesize = fields.synthesize_periodic
    lattice = fields._lattice
    gather = bloch.parity_blocks

    def counted_pencil(*args):
        counts["pencils"] += 1
        return gather(*args)
    monkeypatch.setattr(bloch, "parity_blocks", counted_pencil)

    def counted_diagram(*args, **kwargs):
        counts["diagrams"] += 1
        return diagram(*args, **kwargs)

    def counted_blocks(*args):
        counts["cell_stacks"] += 1
        return periodic_blocks(*args)

    def counted_source(*args):
        counts["sources"] += 1
        counts["cell_stacks"] -= 1          # its own pass through the blocks
        return synthesize(*args)

    def counted_lattice(folds):
        out = lattice(folds)
        counts["lattices"].append(out.shape)
        return out

    monkeypatch.setattr(cli, "dispersion_diagram", counted_diagram)
    monkeypatch.setattr(fields, "_periodic_blocks", counted_blocks)
    monkeypatch.setattr(fields, "synthesize_periodic", counted_source)
    monkeypatch.setattr(fields, "_lattice", counted_lattice)
    return counts


def test_readme_example_config_converges(tmp_path, work_counts):
    """The example config in README.md runs `converge` to exit 0, i.e. its
    slopes sit inside its slope_bands and e2 < e1 < e0 at every eps.  It
    drives branch 0 at omega^2 < 0, below every Bloch eigenvalue: no diagram
    is built, and each eps synthesizes the cell functions once for all three
    orders and the source's phi_p once for the reference.  Each of the two
    eigenpairs (cutoff 256 and the coarse 128) gathers its k = 0 blocks
    once, for the eigensolve and the cell solve alike.  Each order is
    synthesized on the lattice of the evaluation window only, |x| <= 9.5 at
    64 points per cell: 21 cells by 65 reduced rows, whatever the reference
    grid's half width."""
    cfg = write_cfg(tmp_path, _readme_config())
    out = str(tmp_path / "out")
    assert main(["converge", "--config", cfg, "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "converge.json")))
    assert set(rep["slopes"]) == {"0", "1", "2"}
    assert work_counts == {"diagrams": 0, "pencils": 2, "cell_stacks": 3,
                           "sources": 3, "lattices": [(21, 65)] * 9}


def test_readme_syntheses_fold_onto_one_cell(tmp_path, monkeypatch):
    """Every grid synthesis of the README `converge` run passes
    _periodic_factors one row per distinct x - round(x), 65 at 64 points per
    cell, not one per grid point: the source's phi_p on each reference
    interior (hw 14, 18, 28) and the cell stack on the evaluation window
    |x| <= 9.5 (1217 points) alone.  The window's lattice, 21 cells by 65
    rows, is within (1 + 1/64)(1 + 1/9.5) of its points."""
    syntheses = []
    periodic_blocks = fields._periodic_blocks
    periodic_factors = fields._periodic_factors

    def counted_blocks(basis, cube, folds):
        ((reduced, ir, cells, ic),) = folds
        x = cells[ic] + reduced[ir]                  # the axis: exact
        syntheses.append({"points": len(x), "phase_rows": 0,
                          "distinct": len(np.unique(x - np.round(x))),
                          "cells": len(np.unique(np.round(x)))})
        yield from periodic_blocks(basis, cube, folds)

    def counted_factors(x, cutoff):
        syntheses[-1]["phase_rows"] += len(x)
        return periodic_factors(x, cutoff)

    monkeypatch.setattr(fields, "_periodic_blocks", counted_blocks)
    monkeypatch.setattr(fields, "_periodic_factors", counted_factors)
    cfg = write_cfg(tmp_path, _readme_config())
    assert main(["converge", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    # phi_p on the reference interior, then the cell stack, per eps
    assert [s["points"] for s in syntheses] == [1855, 1217, 2367, 1217,
                                                3647, 1217]
    for s in syntheses:
        assert s["phase_rows"] == s["distinct"] == 65
    for s in syntheses[1::2]:
        assert s["cells"] == 21
        assert 21 * 65 <= (1 + 1 / 64) * (1 + 1 / 9.5) * s["points"]


def test_readme_nonperiodic_phases_fold_onto_one_cell(tmp_path, monkeypatch):
    """Every non-periodic phase of the README `converge` run (the envelope
    phases exp(i eps khat x), one axis per eps) exponentiates one row per
    distinct cell round(x) and one per distinct x - round(x) of the
    evaluation window, 21 and 65, not one per grid point."""
    tables = []
    nonperiodic_phase = fields._nonperiodic_phase
    exp = np.exp

    def counted_phase(fold, freqs):
        reduced, ir, cells, ic = fold
        x = cells[ic] + reduced[ir]                  # the axis: exact
        rows = []

        def counted_exp(z, *args, **kwargs):
            rows.append(len(z))
            return exp(z, *args, **kwargs)

        with mock.patch.object(np, "exp", counted_exp):
            phase = nonperiodic_phase(fold, freqs)
        tables.append({"points": len(x), "exp_rows": sum(rows),
                       "cells": len(np.unique(np.round(x))),
                       "reduced": len(np.unique(x - np.round(x)))})
        return phase

    monkeypatch.setattr(fields, "_nonperiodic_phase", counted_phase)
    cfg = write_cfg(tmp_path, _readme_config())
    assert main(["converge", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 0
    assert tables == [{"points": 1217, "exp_rows": 21 + 65, "cells": 21,
                       "reduced": 65}] * 3            # one axis per eps


def test_converge_above_acoustic_branch_builds_no_diagram(tmp_path, capsys,
                                                          work_counts):
    """sigma = +1 puts omega^2 on the acoustic branch: the inertia scan on
    the eigenpair's own pencil (lifted from its blocks, no second gather)
    rejects the drive (exit 3), and no dispersion diagram is built."""
    body = _readme_config()
    body["sigma"] = +1
    body["cutoff"] = 32          # the rejection does not depend on the size
    cfg = write_cfg(tmp_path, body)
    assert main(["converge", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    assert "intersects branch 0" in capsys.readouterr().err
    assert work_counts == {"diagrams": 0, "pencils": 2, "cell_stacks": 0,
                           "sources": 0, "lattices": []}


def test_fields_orders_share_one_synthesis(tmp_path, work_counts):
    """The three orders share one cell synthesis, each on the lattice of
    the 65-point axis |x| <= 4 at 8 points per cell: 9 cells by 9 rows."""
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 4, "points_per_cell": 8,
                      "outputs": ["order0", "order1", "order2"]}
    out = str(tmp_path / "out")
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", out]) == 0
    assert work_counts == {"diagrams": 0, "pencils": 1, "cell_stacks": 1,
                           "sources": 0, "lattices": [(9, 9)] * 3}
    for name in ("order0", "order1", "order2"):
        assert os.path.exists(os.path.join(out, f"field_{name}.csv"))


def test_fields_axis_folds_at_any_points_per_cell(tmp_path, work_counts):
    """The `fields` axis is uniform_axis: |x| <= 2 at 24 points per cell
    (97 points) folds onto 5 cells by 25 rows, as a power of two would."""
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 2, "points_per_cell": 24,
                      "outputs": ["order0"]}
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "out")]) == 0
    assert work_counts["lattices"] == [(5, 25)]


@pytest.mark.parametrize("block", [{"half_width": 6.3},
                                   {"points_per_cell": 0},
                                   {"half_width": -1}])
def test_fields_axis_needs_whole_points(tmp_path, capsys, block):
    """A `fields` grid that uniform_axis cannot build (2 half_width
    points_per_cell not whole, no points per cell, a negative half width)
    is a validation error, before any solve."""
    body = base_cfg()
    body["fields"] = {"eps": 0.5, "half_width": 2, "points_per_cell": 32,
                      **block}
    assert main(["fields", "--config", write_cfg(tmp_path, body),
                 "--out", str(tmp_path / "out")]) == 2
    assert "2 half_width points_per_cell whole" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["converge", "fields"])
def test_failed_tensor_diagnostics_exit_3(tmp_path, monkeypatch, capsys,
                                          command):
    """chi1 turned by a non-real phase gives mu0 an imaginary part, which
    the real tensors drop: converge and fields, which use them, stop with a
    numerical failure; effective reports tolerances_met = false."""
    solve = cell.ConstrainedSolver.solve
    calls = []

    def rotated(self, rhs):                   # the 1D chi1 is the first solve
        calls.append(rhs)
        x = solve(self, rhs)
        return np.exp(0.3j) * x if len(calls) == 1 else x

    monkeypatch.setattr(cell.ConstrainedSolver, "solve", rotated)
    cfg = write_cfg(tmp_path, base_cfg())
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / command)]) == 3
    assert "diagnostics" in capsys.readouterr().err
    calls.clear()
    out = str(tmp_path / "effective")
    assert main(["effective", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "effective.json")) as fh:
        assert json.load(fh)["diagnostics"]["tolerances_met"] is False
