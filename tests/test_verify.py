"""Grid verification: reports, determinism, refinement, profile bounds, scans."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from warpforge.cli import build, load_config
from warpforge.construction import build_bubble
from warpforge.curvature import WarpedMetric
from warpforge.jets import jet_sin
from warpforge.profiles import (
    ParameterError, Piece, Profile, make_A, make_f2, make_h3, make_lambda, rule_const,
)
from warpforge.verify import (
    REFINE_FRAC,
    GridConfig,
    _piece_grids,
    export_curvature_csv,
    radial_grid,
    scan_params,
    verify_ric_lower,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = (("bubble", "bubble"), ("surgery", "surgery"), ("surgery", "surgery_curved"),
           ("glue", "glue"), ("verify", "bubble_broken"))


def shipped(command, config):
    """(metric, bound, grid) of a shipped config, as its CLI command builds it."""
    cfg = load_config(CONFIGS / f"{config}.json", command)
    _, metric, bound, grid = build(cfg.get("target", command), cfg)
    return metric, bound, grid


def cone(phi_rule, f_rule, r_range, label, r_max=None):
    r_max = r_max or r_range[1]
    phi = Profile([Piece(0.0, r_max, phi_rule, "phi", {})], label + "_phi")
    f = Profile([Piece(0.0, r_max, f_rule, "f", {})], label + "_f")
    return WarpedMetric(phi, None, f, r_range, label)


@pytest.fixture(scope="module")
def round_s4():
    return cone(lambda rj: jet_sin(rj), rule_const(0.5), (0.0, 3.0), "roundS4")


@pytest.fixture(scope="module")
def bubble():
    return build_bubble(epsilon=0.05, alpha2=0.01, delta2=0.01, m=1e-3, r3=1e3)


def bubble_builder(**kw):
    return build_bubble(**kw).metric


def test_round_sphere_passes_with_tight_bound(round_s4):
    # the (1 - phi'^2)/phi^2 term cancels to eps/r^2 noise near a flat
    # center, so the sphere fixture is verified from r = 1e-3 up; the
    # default 1e-8 floor is for cone pieces whose blocks scale like 1/r^2
    report = verify_ric_lower(
        round_s4, bound=2.9, cfg=GridConfig(points_per_piece=512, r_min=1e-3)
    )
    assert report.passed
    assert report.block_min("rr") == pytest.approx(3.0, abs=1e-9)
    assert report.block_min("s3") == pytest.approx(3.0, abs=1e-9)
    assert report.block_min("s2") == pytest.approx(4.0, abs=1e-9)


def test_report_json_schema(round_s4, tmp_path):
    report = verify_ric_lower(round_s4, bound=0.0, cfg=GridConfig(points_per_piece=64))
    path = tmp_path / "report.json"
    report.write(path)
    data = json.loads(path.read_text())
    assert set(data) == {
        "metric_id", "bound", "passed", "oracle_checked", "oracle_max_rel_err", "pieces",
    }
    piece = data["pieces"][0]
    assert set(piece) == {"interval", "grid", "blocks"}
    assert set(piece["blocks"]) == {"rr", "s3", "s2"}
    assert set(piece["blocks"]["rr"]) == {"min", "argmin", "margin"}


def test_bubble_report_localizes_negative_radial_block(bubble):
    report = verify_ric_lower(bubble.metric, bound=0.0,
                              cfg=GridConfig(points_per_piece=1024))
    assert not report.passed
    block, margin, arg = report.worst()
    assert block == "rr"
    assert margin < -0.1
    assert 2.0 < arg < 1e3
    # margins are reported on failing pieces too
    for piece in report.pieces:
        for stat in piece.blocks.values():
            assert stat.margin == stat.min - 0.0


def test_broken_bubble_fails_on_sphere_block():
    # alpha2 = 0.4 drives the S^3 block negative inside the flattening region
    # (at that size it also poisons the core blocks; the flattening-region
    # sphere violation is the signature this test pins down)
    metric = bubble_builder(epsilon=0.05, alpha2=0.4, delta2=0.01, m=1e-3, r3=1e3)
    report = verify_ric_lower(metric, bound=0.0, cfg=GridConfig(points_per_piece=1024))
    assert not report.passed
    s3_bad = [
        piece.interval
        for piece in report.pieces
        for name, stat in piece.blocks.items()
        if name in ("sX", "sYZ") and stat.margin < 0
    ]
    assert any(2.0 <= lo and hi <= 1e3 + 1.0 for lo, hi in s3_bad), s3_bad


def test_healthy_alpha2_keeps_sphere_block_positive(bubble):
    report = verify_ric_lower(bubble.metric, bound=0.0,
                              cfg=GridConfig(points_per_piece=1024))
    for piece in report.pieces:
        for name in ("sX", "sYZ", "s2"):
            if name in piece.blocks:
                assert piece.blocks[name].margin > 0, (piece.interval, name)


def test_determinism_bit_identical(round_s4):
    cfg = GridConfig(points_per_piece=256, oracle=True, n_oracle=4, seed=7)
    a = verify_ric_lower(round_s4, bound=0.0, cfg=cfg)
    b = verify_ric_lower(round_s4, bound=0.0, cfg=cfg)
    assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())


def test_refinement_stability(bubble):
    from warpforge.construction import build_surgery

    surgery = build_surgery(kappa=0.0, f0=1.0, lambda_bound=-0.1, epsilon=0.02,
                            alpha=0.01, r_hat=1e-3, delta_hat=1e-3)
    for metric in (bubble.metric, surgery.metric):
        lo = verify_ric_lower(metric, 0.0, GridConfig(points_per_piece=4096))
        hi = verify_ric_lower(metric, 0.0, GridConfig(points_per_piece=8192))
        for pa, pb in zip(lo.pieces, hi.pieces):
            for name in pa.blocks:
                a, b = pa.blocks[name].min, pb.blocks[name].min
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), (pa.interval, name, a, b)


@pytest.mark.parametrize("grid", [dict(r_min=2.0, r_max=1.0), dict(r_min_frac=2.0)])
def test_grid_sampling_no_piece_is_an_error(round_s4, grid):
    # an empty clip or a floor above the range would leave PASS vacuous
    with pytest.raises(ParameterError, match="samples no piece"):
        verify_ric_lower(round_s4, bound=0.0, cfg=GridConfig(points_per_piece=64, **grid))


def test_oracle_agreement_on_passing_fixture(round_s4):
    cfg = GridConfig(points_per_piece=128, oracle=True, n_oracle=8, seed=3)
    report = verify_ric_lower(round_s4, bound=2.9, cfg=cfg)
    assert report.oracle_checked
    assert report.oracle_max_rel_err < 1e-4


def test_oracle_nan_error_reaches_the_report(round_s4, monkeypatch):
    # Python's max(worst, nan) keeps worst, which read as perfect agreement
    from warpforge import verify
    from warpforge.curvature import fd_ricci_oracle

    def nan_rr(metric, r0, h_fd):
        blocks = fd_ricci_oracle(metric, r0, h_fd=h_fd)
        blocks.rr = np.full_like(blocks.rr, np.nan)
        return blocks

    monkeypatch.setattr(verify, "fd_ricci_oracle", nan_rr)
    cfg = GridConfig(points_per_piece=128, oracle=True, n_oracle=8, seed=3)
    assert math.isnan(verify_ric_lower(round_s4, bound=2.9, cfg=cfg).oracle_max_rel_err)


def test_oracle_nothing_checked_reads_zero():
    # a piece too narrow to difference (h_fd would fall below 1e-7) is skipped
    narrow = cone(lambda rj: jet_sin(rj), rule_const(0.5), (1.0, 1.000004), "narrow", r_max=3.0)
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=8, seed=3)
    report = verify_ric_lower(narrow, bound=0.0, cfg=cfg)
    assert report.oracle_checked and report.oracle_max_rel_err == 0.0


# -- verification evaluates pieces, not profiles ---------------------------------

def test_verify_never_evaluates_a_profile(monkeypatch):
    # every verification piece lies inside one piece of each profile, so the
    # dense path calls the pieces' closed forms and never Profile.__call__
    targets = [(config, shipped(command, config)) for command, config in SHIPPED]

    def refuse(self, r):
        raise AssertionError(f"profile {self.label} evaluated")

    monkeypatch.setattr(Profile, "__call__", refuse)
    for config, (metric, bound, grid) in targets:
        assert not grid.oracle, config
        report = verify_ric_lower(metric, bound, grid)
        golden = json.loads((Path(__file__).parent / "golden" / f"{config}.json").read_text())
        assert report.passed == golden["passed"], config
        assert [list(p.interval) for p in report.pieces] == \
            [p["interval"] for p in golden["pieces"]], config


def test_glue_evaluates_each_shared_phi_piece_once(monkeypatch):
    # glued A and B share the surgery's phi pieces: one jet serves both
    metric, bound, grid = shipped("glue", "glue")
    shared = [p for p in metric.A.pieces if any(p is q for q in metric.B.pieces)]
    assert len(shared) == 5
    calls, call = Counter(), Piece.__call__
    monkeypatch.setattr(Piece, "__call__",
                        lambda self, r: calls.update([id(self)]) or call(self, r))
    report = verify_ric_lower(metric, bound, grid)
    reported = [p.interval for p in report.pieces]
    pieces = metric.verification_pieces()
    for piece in shared:
        mine = [(lo, hi, B) for lo, hi, A, B, _ in pieces if A is piece]
        assert mine and all(B is piece for *_, B in mine), piece.name
        spans = sum((lo, hi) in reported for lo, hi, _ in mine)
        assert spans and calls[id(piece)] == spans, (piece.name, calls[id(piece)], spans)


# -- the batched grid builder against the per-piece reference ------------------

def piece_grid_reference(lo, hi, cfg, global_max):
    """One span's grid as verify built it before the grids were batched."""
    lo_eff = max(lo, cfg.r_min_frac * global_max)
    if lo_eff >= hi:
        return np.array([])
    inset = 1e-12 * (hi - lo_eff)
    a, b = lo_eff + inset, hi - inset
    base = np.geomspace(a, b, cfg.points_per_piece)
    width = hi - lo_eff
    n_ref = max(cfg.refine_factor * 8, 32)
    near_lo = np.geomspace(a, min(a + REFINE_FRAC * width, b), n_ref)
    near_hi = np.geomspace(max(b - REFINE_FRAC * width, a), b, n_ref)
    return np.unique(np.concatenate([base, near_lo, near_hi]))


def random_spans(rng, k):
    """k spans with log-uniform left ends, some at 0 and some of relative
    width 1e-6; global_max is their largest right end."""
    lo = np.exp(rng.uniform(np.log(1e-10), np.log(1e3), k))
    lo[rng.random(k) < 0.2] = 0.0
    rel = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), k))
    rel[rng.random(k) < 0.2] = 1e-6
    hi = np.where(lo > 0, lo * (1.0 + rel), np.exp(rng.uniform(np.log(1e-6), 1.0, k)))
    return lo, hi


def random_cases(points):
    """40 (lo, hi, cfg) batches of random_spans, seeded by points."""
    rng = np.random.default_rng(points)
    for _ in range(40):
        lo, hi = random_spans(rng, int(rng.integers(1, 12)))
        yield lo, hi, GridConfig(points_per_piece=points,
                                 refine_factor=int(rng.choice([1, 4, 16])),
                                 r_min_frac=float(rng.choice([1e-8, 1e-4, 0.3])))


# numpy rounds every row of a geomspace call differently once one row has
# equal log10 ends, as [1e5, 1e5 + 2 ulp] has; its batch-mates must not move
FLAT_SPAN = (np.array([0.5, 3.0, 1e5, 7e5]),
             np.array([1.0, 7.0, np.nextafter(np.nextafter(1e5, 2e5), 2e5), 9e5]),
             GridConfig(points_per_piece=64, refine_factor=4))


@pytest.mark.parametrize("points", [1, 2, 3, 64, 4096, "flat-span"])
def test_batched_grids_equal_per_piece_reference(points):
    cases = [FLAT_SPAN] if points == "flat-span" else random_cases(points)
    for trial, (lo, hi, cfg) in enumerate(cases):
        global_max = float(hi.max())
        grids = _piece_grids(lo, hi, cfg, global_max)
        assert len(grids) == lo.size
        for l, h, got in zip(lo, hi, grids):
            want = piece_grid_reference(l, h, cfg, global_max)
            assert got.shape == want.shape and np.array_equal(
                got.view(np.uint64), want.view(np.uint64)), (trial, l, h, cfg)


def test_batched_grids_cut_by_the_floor():
    # a span below the floor is empty, a span across it starts at the floor
    cfg = GridConfig(points_per_piece=16, refine_factor=1, r_min_frac=1e-2)
    lo, hi = np.array([0.0, 1e-3, 5e-3, 0.5]), np.array([1e-3, 5e-3, 0.5, 1.0])
    grids = _piece_grids(lo, hi, cfg, 1.0)
    assert [g.size for g in grids[:2]] == [0, 0]
    assert grids[2][0] == pytest.approx(1e-2) and grids[3].size > 0
    for l, h, got in zip(lo, hi, grids):
        assert np.array_equal(got, piece_grid_reference(l, h, cfg, 1.0))
    assert all(g.size == 0 for g in _piece_grids(lo[:2], hi[:2], cfg, 1.0))


# -- profile bounds, sampled on radial_grid ------------------------------------

def test_h3_budget_constraint():
    A = make_A(1e-3, 2.0)
    h3 = make_h3(1e-3, 0.05, 2.0, 1e3, A.params["A_r1"])
    rs = radial_grid(2.0, 1e3, 4096)
    r_h3pp = rs * h3(rs).d2
    assert np.all((0.0 <= r_h3pp) & (r_h3pp <= 10.0 / math.log(1e3)))


def test_f2_log_slope_constraint():
    f2 = make_f2(0.01, 0.01, r_max=10.0)
    jet = f2(radial_grid(f2.r_min, f2.r_max, 4096))
    assert np.all(jet.d1 / jet.v <= 0.01 / 2)  # f2'/f2 <= alpha2/2


def test_lambda_below_identity_constraint():
    lam = make_lambda(1e3, 159.0)
    rs = radial_grid(lam.r_min, lam.r_max, 4096)
    assert np.all(lam(rs).v <= rs)


# -- scans ----------------------------------------------------------------------

def test_scan_sphere_block_frontier():
    rows = scan_params(
        bubble_builder,
        base=dict(epsilon=0.05, delta2=0.01, m=1e-3, r3=1e3, smooth=False),
        ranges={"alpha2": [0.005, 0.02, 0.1, 0.3, 0.45]},
        bound=0.0,
    )
    margins = [row["block_margin"]["sYZ"] for row in rows]
    # sphere-block margin decreases monotonically with alpha2 and eventually fails
    assert all(a > b for a, b in zip(margins, margins[1:]))
    assert margins[0] > 0 > margins[-1]


def test_scan_precondition_failures_are_rows():
    rows = scan_params(
        bubble_builder,
        base=dict(alpha2=0.01, delta2=0.01, m=1e-3, r3=1e3, smooth=False),
        ranges={"epsilon": [0.05, 0.2]},
        bound=0.0,
    )
    assert rows[0]["built"]
    assert not rows[1]["built"] and "epsilon" in rows[1]["error"]


def test_scan_delta2_leaves_base_blocks_unchanged():
    rows = scan_params(
        bubble_builder,
        base=dict(epsilon=0.05, alpha2=0.01, m=1e-3, r3=1e3, smooth=False),
        ranges={"delta2": [0.01, 0.001]},
        bound=0.0,
    )
    a, b = rows[0]["block_margin"], rows[1]["block_margin"]
    for name in ("rr", "sX", "sYZ"):
        assert a[name] == pytest.approx(b[name], rel=1e-9), name


# -- exports ----------------------------------------------------------------------

def test_curvature_csv_roundtrip(round_s4, tmp_path):
    rs = np.geomspace(0.1, 2.9, 41)
    path = tmp_path / "curv.csv"
    export_curvature_csv(round_s4, rs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,phi_or_A,B,f,ric_rr,ric_s3_or_sX,ric_sYZ,ric_s2"
    blocks = round_s4.blocks(rs)
    a, b, f = round_s4.coefficients(rs)
    for i, line in enumerate(lines[1:]):
        vals = [float(x) for x in line.split(",")]
        assert vals == [rs[i], a[i], b[i], f[i],
                        blocks.rr[i], blocks.sX[i], blocks.sYZ[i], blocks.s2[i]]
