"""Fresh verification reports of the shipped configs against committed goldens.

The goldens (tests/golden/*.json, written by tests/golden/make_golden.py)
pin every report field.  Verdicts, intervals, grid sizes and block keys
must match exactly; block minima and margins may move by rounding only
(relative 1e-12), and a moved argmin must be a grid point of the same
piece whose value ties the minimum within that tolerance.  Oracle errors
are compared at relative 1e-9 (of max(1, |golden|)), and the oracle table
of three targets x 20 seeds at relative 1e-9 of each entry.  The metric
descriptors of bubble, surgery, surgery_curved and glue, as
`verify.write_json` writes them, must match byte for byte, and must
determine the metric: rebuilt from that JSON alone, each gives the same
report and the same block bits.  `make_golden.py --check` compares every
golden byte for byte; only its comparison is tested here, and of the CLI
stdout golden, the sups it pins and the capture of one invocation.
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from warpforge import construction, profiles, verify
from warpforge.curvature import WarpedMetric
from warpforge.profiles import Piece, Profile
from warpforge.verify import _piece_grids, verify_ric_lower

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
import make_golden  # noqa: E402
from make_golden import (  # noqa: E402
    DESCRIPTOR_CASES, NAMES, case, descriptor_text, oracle_table,
)

ROUNDING = 1e-12


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    metric, bound, grid = case(name)
    fresh = verify_ric_lower(metric, bound, grid).as_dict()
    golden = json.loads((GOLDEN / f"{name}.json").read_text())

    for key in ("passed", "metric_id", "bound", "oracle_checked"):
        assert fresh[key] == golden[key], key
    assert close(fresh["oracle_max_rel_err"], golden["oracle_max_rel_err"], 1e-9)
    assert len(fresh["pieces"]) == len(golden["pieces"])

    hi_clip = metric.r_range[1] if grid.r_max is None else grid.r_max
    for i, (got, want) in enumerate(zip(fresh["pieces"], golden["pieces"])):
        where = f"piece {i} {want['interval']}"
        assert got["interval"] == want["interval"], where
        assert got["grid"] == want["grid"], where
        assert set(got["blocks"]) == set(want["blocks"]), where
        for block, stat in got["blocks"].items():
            ref = want["blocks"][block]
            assert close(stat["min"], ref["min"], ROUNDING), (where, block, stat, ref)
            assert close(stat["margin"], ref["margin"], ROUNDING), (where, block, stat, ref)
            if stat["argmin"] != ref["argmin"]:
                # a tie broken differently: the new argmin must be a sample of
                # this piece whose value ties the golden minimum
                lo, hi = got["interval"]
                (rs,) = _piece_grids([max(lo, grid.r_min_frac * hi_clip)], [hi], grid)
                values = metric.blocks(rs).as_dict(metric.is_round)[block]
                at = rs == stat["argmin"]
                assert at.any(), (where, block, stat["argmin"])
                assert close(float(values[at][0]), ref["min"], ROUNDING), (where, block)


def test_oracle_table_matches_golden():
    golden = json.loads((GOLDEN / "oracle_table.json").read_text())
    fresh = oracle_table()
    assert set(fresh) == set(golden["oracle_max_rel_err"])
    for config, errs in fresh.items():
        want = golden["oracle_max_rel_err"][config]
        assert len(errs) == len(want) == len(golden["seeds"]), config
        for seed, got, ref in zip(golden["seeds"], errs, want):
            assert abs(got - ref) <= 1e-9 * abs(ref), (config, seed, got, ref)


@pytest.mark.parametrize("config", DESCRIPTOR_CASES)
def test_descriptor_matches_golden(config):
    assert descriptor_text(config) == (GOLDEN / f"{config}_descriptor.json").read_text()


def rule_named(name: str):
    """The one module-level function of that name in warpforge.profiles or
    warpforge.construction: a lambda, a closure or a partial has none."""
    found = [fn for module in (profiles, construction)
             if inspect.isfunction(fn := getattr(module, name, None))
             and fn.__module__ == module.__name__ and fn.__qualname__ == name]
    assert len(found) == 1, f"rule {name!r}: {len(found)} module-level functions"
    return found[0]


def rule_params(params: dict) -> dict:
    """A descriptor's params with each nested rule name resolved."""
    return {k: rule_named(v) if k == "rule" else rule_params(v) if isinstance(v, dict) else v
            for k, v in params.items()}


def metric_from(d: dict) -> WarpedMetric:
    """The metric a descriptor describes, from the descriptor alone."""
    built = {key: Profile([Piece(*p["interval"], rule_named(p["rule"]), rule_params(p["params"]))
                           for p in prof["pieces"]], prof["label"])
             for key, prof in d["profiles"].items()}
    A, B = (built["phi"],) * 2 if d["form"] == "cone" else (built["A"], built["B"])
    return WarpedMetric(A, B, built["f"], tuple(d["r_range"]), d["label"])


def verified_blocks(monkeypatch, metric, bound, grid):
    """(report dict, each piece's blocks as one array) of one verify."""
    seen, ricci = [], verify.ricci_berger
    with monkeypatch.context() as patch:
        patch.setattr(verify, "ricci_berger", lambda *jets: seen.append(ricci(*jets)) or seen[-1])
        report = verify_ric_lower(metric, bound, grid).as_dict()
    return report, [np.stack(list(b.as_dict(metric.is_round).values())) for b in seen]


@pytest.mark.parametrize("config", DESCRIPTOR_CASES)
def test_descriptor_determines_the_metric(monkeypatch, config):
    metric, bound, grid = case(config)
    descriptor = json.loads(descriptor_text(config))
    rebuilt = metric_from(descriptor)
    assert rebuilt.descriptor() == metric.descriptor()
    report, blocks = verified_blocks(monkeypatch, metric, bound, grid)
    report_rebuilt, blocks_rebuilt = verified_blocks(monkeypatch, rebuilt, bound, grid)
    assert report_rebuilt == report
    assert len(blocks_rebuilt) == len(blocks) == len(report["pieces"])
    for got, want in zip(blocks_rebuilt, blocks):
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def test_check_names_each_golden_that_differs(tmp_path, monkeypatch, capsys):
    texts = {"a.json": "{}", "b.json": '{\n  "x": 1.0,\n  "y": [-4.0, 2e-06, 7]\n}',
             "d.json": '{"s2": 1.5}'}
    monkeypatch.setattr(make_golden, "goldens", lambda: dict(texts))
    monkeypatch.setattr(make_golden, "HERE", tmp_path)
    assert make_golden.main([]) == 0
    assert make_golden.main(["--check"]) == 0
    # changed numbers, a golden that is missing, and a changed key; each
    # differing file says how many numbers moved and the worst move
    # relative to max(1, |committed|)
    (tmp_path / "b.json").write_text('{\n  "x": 1.0000000000000002,\n  "y": [-4.5, 3e-06, 7]\n}')
    (tmp_path / "d.json").write_text('{"s3": 1.5}')
    texts["c.json"] = "[]"
    capsys.readouterr()
    assert make_golden.main(["--check"]) == 1
    assert capsys.readouterr().out.split("\n")[:3] == [
        "differs: b.json (3 of 4 numbers moved, worst by 0.11 of max(1, |x|))",
        "differs: d.json (text differs outside its numbers)",
        "differs: c.json (no committed file)"]
    assert not (tmp_path / "c.json").exists()
    assert make_golden.moved('[1e-3, 2]', '[0.001, 2]') == \
        "0 of 2 numbers moved, worst by 0 of max(1, |x|)"


def test_cli_stdout_golden_pins_the_printed_sups():
    golden = json.loads((GOLDEN / "cli_stdout.json").read_text())
    assert {config: run["exit_code"] for config, run in golden.items()} == {
        "bubble": 2, "surgery": 0, "surgery_curved": 0, "glue": 2, "scan": 0, "limits": 0,
        "bubble_broken": 2}
    assert "\nblow-down stretch sup: 1.38225\n" in golden["bubble"]["stdout"]
    assert "\nbi-Lipschitz sup 1.02041 <= " in golden["surgery"]["stdout"]
    assert "; measured Ricci constant C = 92.82 " in golden["surgery"]["stdout"]
    # the capture itself, on the fastest invocation
    assert make_golden.cli_stdout([("limits", "limits")]) == {"limits": golden["limits"]}
