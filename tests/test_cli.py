"""CLI exit-code contract and artifact round-trips on the shipped configs."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import strict_json

from warpforge import cli
from warpforge.cli import build, check, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_in(tmp_path, monkeypatch, name, command, patch=None):
    cfg = json.loads((CONFIGS / name).read_text())
    if patch:
        cfg.update(patch)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    return main([command, "-c", str(path)]), cfg


def small_grid(cfg):
    cfg = dict(cfg)
    cfg["grid"] = {"points_per_piece": 256, "refine_factor": 4}
    return cfg


def test_surgery_fixture_passes(tmp_path, monkeypatch):
    code, cfg = run_in(tmp_path, monkeypatch, "surgery.json", "surgery",
                       patch={"grid": {"points_per_piece": 512, "refine_factor": 4}})
    assert code == 0
    report = json.loads((tmp_path / cfg["out_report"]).read_text())
    assert report["passed"] is True


@pytest.mark.parametrize("grid, interval", [
    ({}, [0.0005, 2.0]),                             # defaults: r_hat/2, the metric's end
    ({"r_min": 0.5}, [0.5, 2.0]),
    ({"r_min": 0.03, "r_max": 0.75}, [0.03, 0.75]),
])
def test_surgery_grid_clip_defaults_yield_to_config(tmp_path, monkeypatch, grid, interval):
    code, cfg = run_in(tmp_path, monkeypatch, "surgery.json", "surgery",
                       patch={"grid": {"points_per_piece": 64, **grid}})
    assert code == 0
    pieces = json.loads((tmp_path / cfg["out_report"]).read_text())["pieces"]
    assert [pieces[0]["interval"][0], pieces[-1]["interval"][1]] == interval


def test_bubble_fixture_reports_violation(tmp_path, monkeypatch):
    # the r3 = 1e3 bubble cannot hold Ric > 0 through the flattening region;
    # the CLI must exit 2 and still write the full report
    code, cfg = run_in(tmp_path, monkeypatch, "bubble.json", "bubble",
                       patch={"grid": {"points_per_piece": 512, "refine_factor": 4}})
    assert code == 2
    report = json.loads((tmp_path / cfg["out_report"]).read_text())
    assert report["passed"] is False
    margins = [
        stat["margin"]
        for piece in report["pieces"]
        for stat in piece["blocks"].values()
    ]
    assert min(margins) < 0
    assert (tmp_path / cfg["out_csv"]).exists()


def test_broken_bubble_via_verify_exits_2(tmp_path, monkeypatch):
    code, cfg = run_in(
        tmp_path, monkeypatch, "bubble_broken.json", "verify",
        patch={"grid": {"points_per_piece": 512, "refine_factor": 4}},
    )
    assert code == 2
    assert (tmp_path / cfg["out_report"]).exists()


def test_limits_fixture_prints_schedule(tmp_path, monkeypatch, capsys):
    code, cfg = run_in(tmp_path, monkeypatch, "limits.json", "limits")
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_3 = 0.95625" in out
    data = json.loads((tmp_path / cfg["out_report"]).read_text())
    assert data["lambda_j"] == pytest.approx(0.95625)


def test_limits_without_C_measures_it_from_the_bubble(tmp_path, monkeypatch, capsys):
    cfg = json.loads((CONFIGS / "limits.json").read_text())
    del cfg["C"]
    path = tmp_path / "limits.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["limits", "-c", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "C measured from the default bubble blow-down: 1.38225"
    assert "max distortion product over stages <= 3, at every breakpoint: 1.0001" in lines
    data = json.loads((tmp_path / cfg["out_report"]).read_text())
    assert data["C"] == pytest.approx(1.38225, rel=1e-5)
    assert data["alpha"] == pytest.approx(0.938902, rel=1e-6)


@pytest.mark.parametrize("command, config", [("bubble", "bubble.json"),
                                             ("surgery", "surgery.json"),
                                             ("glue", "glue.json")])
def test_verifying_commands_end_with_the_report_line(tmp_path, monkeypatch, capsys,
                                                     command, config):
    # the lines after the summary, then where the report went
    _, cfg = run_in(tmp_path, monkeypatch, config, command,
                    patch={"grid": {"points_per_piece": 64, "refine_factor": 1}})
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("metric ")
    assert out[-1] == f"report written to {cfg['out_report']}"
    assert out[-2].startswith({"bubble": "blow-down stretch sup: ",
                               "surgery": "delta = ",
                               "glue": "common warp coefficient: "}[command])


@pytest.mark.parametrize("delta", [0.6, 0.9])
def test_limits_certificate_failure_is_one_error_line(tmp_path, monkeypatch, capsys, delta):
    # above delta = 1/2 the composed distortion outgrows its Holder bound
    code, _ = run_in(tmp_path, monkeypatch, "limits.json", "limits", patch={"delta": delta})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("construction error: distortion product") and "Traceback" not in err
    assert all(f"{key}=" in err for key in ("r", "j", "delta", "C"))
    assert len(err.strip().splitlines()) == 1


def test_scan_fixture(tmp_path, monkeypatch):
    code, cfg = run_in(
        tmp_path, monkeypatch, "scan.json", "scan",
        patch={"grid": {"points_per_piece": 128, "refine_factor": 2},
               "ranges": {"alpha2": [0.005, 0.1, 0.3]}},
    )
    assert code == 0
    rows = json.loads((tmp_path / cfg["out_report"]).read_text())
    assert len(rows) == 3
    sphere = [row["block_margin"]["sYZ"] for row in rows]
    assert sphere[0] > sphere[-1]


def test_scan_prints_a_boolean_range_value_as_its_table_writes_it(tmp_path, monkeypatch,
                                                                  capsys):
    # %g printed True and False as 1 and 0
    scan = json.loads((CONFIGS / "scan.json").read_text())
    code, cfg = run_in(
        tmp_path, monkeypatch, "scan.json", "scan",
        patch={"base": {**scan["base"], "alpha2": 0.01},
               "ranges": {"smooth": [True, False], "m": [0.001]},
               "grid": {"points_per_piece": 64, "refine_factor": 2}},
    )
    assert code == 0
    rows = strict_json(tmp_path / cfg["out_report"])
    assert [row["smooth"] for row in rows] == [True, False]
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == \
        ["  m=0.001, smooth=true", "  m=0.001, smooth=false"]


def test_a_scan_row_whose_verify_raises_is_a_row(tmp_path, monkeypatch, capsys):
    # with r_min = 500 the r3 = 50 bubble, on [0, 150], leaves the grid no
    # piece: its verify raised and ended the scan, losing the r3 = 1000 row
    scan = json.loads((CONFIGS / "scan.json").read_text())
    code, cfg = run_in(
        tmp_path, monkeypatch, "scan.json", "scan",
        patch={"base": {**scan["base"], "alpha2": 0.01}, "ranges": {"r3": [1000, 50]},
               "grid": {"points_per_piece": 64, "refine_factor": 2, "r_min": 500}},
    )
    assert code == 0
    first, second = strict_json(tmp_path / cfg["out_report"])
    assert first["built"] and first["error"] is None and first["worst_margin"] < 0
    error = "ParameterError: the grid samples no piece of bubble in [500, 150]"
    assert second.pop("error").startswith(error)
    assert second == {"r3": 50, "built": True, "passed": False}
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("scan: 2 points, 0 passed")
    assert lines[1].startswith("  r3=1000: FAIL worst margin")
    assert lines[2].startswith(f"  r3=50: verify error ({error}")


def test_scan_table_writes_non_finite_as_null(tmp_path, monkeypatch):
    row = {"alpha2": 0.005, "built": True, "error": None, "passed": False,
           "worst_margin": math.nan, "block_margin": {"rr": -math.inf, "s2": 0.5}}
    monkeypatch.setattr(cli, "scan_params", lambda *args: [row])
    code, cfg = run_in(tmp_path, monkeypatch, "scan.json", "scan")
    assert code == 0
    (written,) = strict_json(tmp_path / cfg["out_report"])
    assert written["worst_margin"] is None
    assert written["block_margin"] == {"rr": None, "s2": 0.5}


def test_limits_report_writes_non_finite_as_null(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "gh_error", lambda *args: math.inf)
    code, cfg = run_in(tmp_path, monkeypatch, "limits.json", "limits")
    assert code == 0
    written = strict_json(tmp_path / cfg["out_report"])
    assert written["gh_tail"] is None and written["lambda_j"] == pytest.approx(0.95625)


def test_glue_fixture_writes_report(tmp_path, monkeypatch):
    code, cfg = run_in(
        tmp_path, monkeypatch, "glue.json", "glue",
        patch={"grid": {"points_per_piece": 128, "refine_factor": 2}},
    )
    # the glued metric inherits the bubble's flattening-region defect
    assert code == 2
    report = json.loads((tmp_path / cfg["out_report"]).read_text())
    assert report["metric_id"] == "glued"


def test_export_roundtrip_bit_exact(tmp_path, monkeypatch):
    # every column of a round (surgery) and a Berger (bubble) export, against
    # the metric's own coefficients and blocks at the same radii
    monkeypatch.chdir(tmp_path)
    for cfg in (
        {"target": "surgery", "kappa": 0.0, "f0": 1.0, "lambda_bound": -0.1, "epsilon": 0.02,
         "alpha": 0.01, "r_hat": 0.001, "delta_hat": 0.001, "lo": 0.001, "hi": 1.9},
        {"target": "bubble", "epsilon": 0.05, "alpha2": 0.01, "delta2": 0.01, "r3": 1000.0,
         "lo": 0.001, "hi": 2900.0},
    ):
        target = cfg["target"]
        path = tmp_path / f"{target}.json"
        path.write_text(json.dumps({**cfg, "points": 200, "out_csv": f"{target}.csv"}))
        assert main(["export", "-c", str(path)]) == 0

        _, metric, _, _ = build(target, cfg)
        rows = (tmp_path / f"{target}.csv").read_text().strip().splitlines()[1:]
        table = np.array([[float(x) for x in line.split(",")] for line in rows])
        rs = table[:, 0]
        assert np.array_equal(rs, np.geomspace(cfg["lo"], cfg["hi"], 200)), target
        blocks = metric.blocks(rs)
        expected = np.column_stack([rs, *metric.coefficients(rs),
                                    blocks.rr, blocks.sX, blocks.sYZ, blocks.s2])
        assert table.shape == (200, 8) and np.array_equal(table, expected), target
        assert np.array_equal(table[:, 1], table[:, 2]) == metric.is_round, target


def test_profile_export(tmp_path, monkeypatch):
    cfg = {
        "target": "bubble", "epsilon": 0.05, "alpha2": 0.01, "delta2": 0.01,
        "r3": 1000.0, "profile": "f", "lo": 0.1, "hi": 100.0, "points": 50,
        "out_csv": "f.csv",
    }
    path = tmp_path / "export.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["export", "-c", str(path)]) == 0
    header = (tmp_path / "f.csv").read_text().splitlines()[0]
    assert header == "r,v,d1,d2"


def test_descriptor_output(tmp_path, monkeypatch):
    code, cfg = run_in(
        tmp_path, monkeypatch, "surgery.json", "surgery",
        patch={"grid": {"points_per_piece": 128, "refine_factor": 2},
               "out_descriptor": "surgery_metric.json"},
    )
    assert code == 0
    desc = json.loads((tmp_path / "surgery_metric.json").read_text())
    assert desc["form"] == "cone"
    piece = desc["profiles"]["phi"]["pieces"][0]
    assert set(piece) == {"interval", "rule", "params"}


def test_unknown_key_rejected(tmp_path, monkeypatch):
    code, _ = run_in(tmp_path, monkeypatch, "surgery.json", "surgery",
                     patch={"bogus_key": 1})
    assert code == 1


@pytest.mark.parametrize("grid", [
    {"points_per_piece": "abc"},
    {"points_per_piece": 0},
    {"points_per_piece": 1.5},
    {"points_per_piece": True},
    {"refine_factor": -4},
    {"n_oracle": "4"},
])
def test_malformed_grid_count_rejected(tmp_path, monkeypatch, capsys, grid):
    code, _ = run_in(tmp_path, monkeypatch, "surgery.json", "surgery", patch={"grid": grid})
    assert code == 1
    assert "must be a positive integer" in capsys.readouterr().err


def shipped(name, **patch):
    return {**json.loads((CONFIGS / name).read_text()), **patch}


def without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


GLUE, SCAN = shipped("glue.json"), shipped("scan.json")
EXPORT_BUBBLE = {"target": "bubble", "epsilon": 0.05, "alpha2": 0.01, "delta2": 0.01,
                 "r3": 1000.0, "out_csv": "bubble.csv"}
EXPORT_SURGERY = {"target": "surgery", "kappa": 0.0, "f0": 1.0, "lambda_bound": -0.1,
                  "epsilon": 0.02, "alpha": 0.01, "r_hat": 0.001, "delta_hat": 0.001,
                  "out_csv": "surgery.csv"}


# (command, malformed config, the key its one-line error must name)
@pytest.mark.parametrize("command,cfg,key", [
    pytest.param("bubble", shipped("bubble.json", epsilon="0.05"), "epsilon", id="number-string"),
    pytest.param("bubble", shipped("bubble.json", bound="0"), "bound", id="bound-string"),
    pytest.param("bubble", shipped("bubble.json", grid=[1]), "grid", id="grid-list"),
    pytest.param("surgery", shipped("surgery.json", ricci_constant="150"), "ricci_constant",
                 id="ricci-constant-string"),
    pytest.param("glue", {**GLUE, "surgery": without(GLUE["surgery"], "delta_hat")},
                 "delta_hat", id="glue-missing-delta-hat"),
    pytest.param("glue", {**GLUE, "bubble": without(GLUE["bubble"], "r3")}, "r3",
                 id="glue-missing-r3"),
    pytest.param("scan", {**SCAN, "base": {**SCAN["base"], "bogus": 1}}, "bogus",
                 id="scan-unknown-base-key"),
    pytest.param("scan", {**SCAN, "ranges": {"alpha2": 0.01}}, "alpha2", id="scan-range-scalar"),
    pytest.param("scan", {**SCAN, "base": without(SCAN["base"], "epsilon")}, "epsilon",
                 id="scan-missing-epsilon"),
    pytest.param("export", without(EXPORT_BUBBLE, "epsilon"), "epsilon",
                 id="export-missing-epsilon"),
    pytest.param("bubble", shipped("bubble.json", smooth="false"), "smooth", id="flag-string"),
    pytest.param("bubble", shipped("bubble.json", grid={"oracle": "no"}), "grid.oracle",
                 id="oracle-string"),
    pytest.param("bubble", shipped("bubble.json", grid={"r_min_frac": -1}), "grid.r_min_frac",
                 id="negative-r-min-frac"),
    pytest.param("bubble", shipped("bubble.json", grid={"points_per_piece": 64, "oracle": True,
                                                        "n_oracle": 4, "seed": -5000000}),
                 "grid.seed", id="negative-seed"),
    pytest.param("surgery", shipped("surgery.json", grid={"bogus": 1}), "bogus",
                 id="unknown-grid-key"),
    pytest.param("limits", shipped("limits.json", j=2.5), "j", id="j-fraction"),
    pytest.param("limits", shipped("limits.json", j="3"), "j", id="j-string"),
    pytest.param("limits", {"j": 3, "epsilon": 0, "delta": 0.1, "lambda_plus": 0, "C": 2},
                 "epsilon", id="limits-epsilon-0"),
    pytest.param("limits", shipped("limits.json", C=0.5), "C = 0.5 must be >= 1",
                 id="limits-C-below-1"),
    pytest.param("export", {**EXPORT_BUBBLE, "points": 0}, "points", id="export-points-0"),
    pytest.param("export", {**EXPORT_BUBBLE, "points": 2.7}, "points",
                 id="export-points-fraction"),
    pytest.param("export", {**EXPORT_BUBBLE, "lo": 0}, "lo out of range", id="export-lo-0"),
    pytest.param("export", {**EXPORT_BUBBLE, "lo": -1}, "lo out of range",
                 id="export-lo-negative"),
    pytest.param("export", {**EXPORT_BUBBLE, "hi": 1e9}, "hi out of range",
                 id="export-hi-past-range"),
    pytest.param("export", {**EXPORT_SURGERY, "hi": 5.0}, "hi out of range",
                 id="export-surgery-hi-past-range"),
    *(pytest.param("export", {**EXPORT_SURGERY, key: value}, key, id=f"export-surgery-{key}")
      for key, value in [("alpha2", 0.01), ("bound", 0.0), ("out_report", "r.json"),
                         ("out_descriptor", "d.json"), ("grid", {"points_per_piece": 0})]),
    pytest.param("bubble", shipped("bubble.json", grid={"r_min": 5.0, "r_max": 1.0}), "grid",
                 id="empty-grid-clip"),
    pytest.param("bubble", shipped("bubble.json", grid={"r_min_frac": 2.0}), "r_min_frac",
                 id="grid-floor-above-range"),
    pytest.param("bubble", shipped("bubble.json", r3=1e300), "r3", id="non-finite-f4"),
    pytest.param("bubble", shipped("bubble.json", r3=1.0, r1=0.999), "r3", id="r3-at-1"),
    pytest.param("limits", shipped("limits.json", C=1e300), "C = 1e+300 must be below 2/delta",
                 id="limits-C-vacuous"),
    pytest.param("surgery", shipped("surgery.json", r_m=-0.125), "r_m", id="negative-r-m"),
    pytest.param("surgery", shipped("surgery.json", r_m=0), "r_m", id="zero-r-m"),
    pytest.param("surgery", shipped("surgery.json", rho=0), "rho", id="zero-rho"),
    pytest.param("surgery", shipped("surgery.json", r_hat=-0.001), "r_hat", id="negative-r-hat"),
    pytest.param("bubble", shipped("bubble.json", r1=0), "r1", id="zero-r1"),
    pytest.param("bubble", shipped("bubble.json", r1=-2), "r1", id="negative-r1"),
    pytest.param("glue", {**GLUE, "surgery": {**GLUE["surgery"], "rho": 0}}, "rho",
                 id="glue-zero-rho"),
    pytest.param("bubble", shipped("bubble.json", grid={"h_fd": 1e-4}), "h_fd",
                 id="grid-h-fd"),
    pytest.param("bubble", shipped("bubble.json", grid={"refine_frac": 0.01}), "refine_frac",
                 id="grid-refine-frac"),
])
def test_malformed_config_rejected(tmp_path, monkeypatch, capsys, command, cfg, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main([command, "-c", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_fits_schema(path):
    cfg = json.loads(path.read_text())
    if path.stem == "bubble_broken":
        check(cfg, "verify")
        check(without(cfg, "target"), cfg["target"])
    else:
        check(cfg, path.stem.split("_")[0])


def test_missing_key_rejected(tmp_path, monkeypatch):
    cfg = {"epsilon": 0.05}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    assert main(["bubble", "-c", str(path)]) == 1


def test_unreadable_config_is_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bubble", "-c", "does_not_exist.json"]) == 1


def test_parameter_domain_error_is_exit_1(tmp_path, monkeypatch):
    code, _ = run_in(tmp_path, monkeypatch, "surgery.json", "surgery",
                     patch={"epsilon": 0.3})
    assert code == 1
