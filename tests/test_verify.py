"""Grid verification: reports, determinism, refinement, profile bounds, scans."""

import dataclasses
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from conftest import strict_json

from warpforge import verify
from warpforge.cli import build, load_config
from warpforge.construction import build_bubble
from warpforge.curvature import WarpedMetric, berger_jets, fd_ricci_oracle, ricci_berger
from warpforge.jets import jet_sin
from warpforge.profiles import (
    ParameterError, Piece, Profile, make_A, make_f2, make_h3, make_lambda, const, radial_grid,
)
from warpforge.verify import (
    BASES_KEPT,
    REFINE_FRAC,
    GridConfig,
    _base_plans,
    _log_rows,
    _oracle_radii,
    _piece_grids,
    export_curvature_csv,
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


def cone(phi_rule, f_value, r_range, label, r_max=None):
    r_max = r_max or r_range[1]
    phi = Profile([Piece(0.0, r_max, phi_rule)], label + "_phi")
    f = Profile([Piece(0.0, r_max, const, {"value": f_value})], label + "_f")
    return WarpedMetric(phi, phi, f, r_range, label)


@pytest.fixture(scope="module")
def round_s4():
    return cone(lambda rj: jet_sin(rj), 0.5, (0.0, 3.0), "roundS4")


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


@pytest.fixture
def nan_oracle_report(round_s4, monkeypatch):
    """The report of a verify whose oracle returns NaN for every rr."""
    from warpforge import verify
    from warpforge.curvature import fd_ricci_oracle

    def nan_rr(metric, r0, h_fd, radial):
        blocks = fd_ricci_oracle(metric, r0, h_fd=h_fd, radial=radial)
        blocks.rr = np.full_like(blocks.rr, np.nan)
        return blocks

    monkeypatch.setattr(verify, "fd_ricci_oracle", nan_rr)
    cfg = GridConfig(points_per_piece=128, oracle=True, n_oracle=8, seed=3)
    return verify_ric_lower(round_s4, bound=2.9, cfg=cfg)


@pytest.mark.parametrize("n_oracle", [0, -1])
def test_oracle_sample_count_must_be_positive(round_s4, n_oracle):
    # it used to end inside numpy (a zero-size maximum, negative dimensions)
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=n_oracle)
    with pytest.raises(ParameterError, match="n_oracle"):
        verify_ric_lower(round_s4, bound=0.0, cfg=cfg)


@pytest.mark.parametrize("seed", [-1, -5_000_000, 2.5])
def test_oracle_seed_must_be_a_non_negative_integer(round_s4, seed):
    # a seed from -1 to -1,000,003 ran; below that numpy's generator raised
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=4, seed=seed)
    with pytest.raises(ParameterError, match=f"^seed must be a non-negative integer, "
                                             f"got {seed!r}$"):
        verify_ric_lower(round_s4, bound=0.0, cfg=cfg)


@pytest.mark.parametrize("field, value", [
    ("points_per_piece", -3), ("points_per_piece", 0), ("points_per_piece", 2.5),
    ("refine_factor", 0), ("refine_factor", -4), ("refine_factor", 2.5),
])
def test_grid_counts_must_be_positive(round_s4, field, value):
    # they used to end inside numpy (negative dimensions, a raw TypeError),
    # verify on the refinement radii alone (points_per_piece = 0) or take 32
    # refinement radii per end (refine_factor <= 0), without a word
    cfg = GridConfig(**{"points_per_piece": 64, field: value})
    with pytest.raises(ParameterError, match=field):
        verify_ric_lower(round_s4, bound=0.0, cfg=cfg)


def test_one_point_per_piece_is_allowed(round_s4):
    # as the CLI schema allows: the piece is sampled on its 2 x 128
    # refinement radii, which include its one log-spaced radius
    report = verify_ric_lower(round_s4, bound=0.0, cfg=GridConfig(points_per_piece=1, r_min=1e-3))
    assert report.passed and [p.grid for p in report.pieces] == [256]


def test_oracle_nan_error_reaches_the_report(nan_oracle_report):
    # Python's max(worst, nan) keeps worst, which read as perfect agreement
    assert math.isnan(nan_oracle_report.oracle_max_rel_err)


def test_report_writes_non_finite_as_null(nan_oracle_report, tmp_path):
    # a bare NaN token is not JSON: strict parsers reject it
    report = nan_oracle_report
    report.pieces[0].blocks["rr"].margin = -math.inf
    report.write(tmp_path / "report.json")
    written = strict_json(tmp_path / "report.json")
    assert written["oracle_max_rel_err"] is None
    assert written["pieces"][0]["blocks"]["rr"]["margin"] is None
    assert math.isnan(report.oracle_max_rel_err)
    assert written["pieces"][0]["blocks"]["rr"]["min"] == report.pieces[0].blocks["rr"].min


def test_oracle_nothing_checked_reads_zero():
    # a piece too narrow to difference (h_fd would fall below 1e-7) is skipped
    narrow = cone(lambda rj: jet_sin(rj), 0.5, (1.0, 1.000004), "narrow", r_max=3.0)
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=8, seed=3)
    report = verify_ric_lower(narrow, bound=0.0, cfg=cfg)
    assert report.oracle_checked and report.oracle_max_rel_err == 0.0


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("command", ["bubble", "surgery", "glue"])
def test_oracle_error_keeps_the_bits_of_a_per_piece_evaluation(command, seed):
    # verify evaluates each piece once, on its grid followed by its oracle
    # radii; the error must equal, bit for bit, one recomputed from an
    # evaluation of each piece's closed forms on its oracle radii alone
    metric, _, _ = shipped(command, command)
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=32, seed=seed)  # criterion 5
    report = verify_ric_lower(metric, 0.0, cfg)
    reported = [p.interval for p in report.pieces]
    lo_clip, hi_clip = metric.r_range
    errs = []
    for i, (plo, phi_, *forms) in enumerate(metric.verification_pieces()):
        lo, hi = max(plo, lo_clip), min(phi_, hi_clip)
        drawn = _oracle_radii(lo, hi, i, cfg)
        if [lo, hi] not in reported or drawn[0].size == 0:
            continue
        radii, h_fd = drawn
        formula = ricci_berger(*berger_jets(*forms, radii)).as_dict(metric.is_round)
        oracle = fd_ricci_oracle(metric, radii, h_fd=h_fd)
        fd = oracle.as_dict(metric.is_round)
        errs += [np.abs(fd[k] - f) / np.maximum(0.1, np.abs(f)) for k, f in formula.items()]
        errs.append(oracle.cross_ir_mag / np.maximum(0.1, np.abs(formula["rr"])))
    assert len(errs) > 10
    want = float(np.max(np.concatenate(errs)))
    assert float.hex(report.oracle_max_rel_err) == float.hex(want)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("command", ["bubble", "surgery", "glue"])
def test_oracle_radii_never_enter_a_grid_minimum(command, seed):
    # the oracle radii share their piece's evaluation with its grid, yet
    # every piece reads as it does with the oracle off
    metric, _, _ = shipped(command, command)
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=32, seed=seed)  # criterion 5
    on = verify_ric_lower(metric, 0.0, cfg)
    off = verify_ric_lower(metric, 0.0, dataclasses.replace(cfg, oracle=False))
    assert on.oracle_max_rel_err > 0.0 and off.oracle_max_rel_err == 0.0
    assert json.dumps(on.as_dict()["pieces"]) == json.dumps(off.as_dict()["pieces"])


def test_a_piece_too_narrow_to_difference_keeps_its_grid_report(monkeypatch):
    # the middle piece draws no oracle radii (h_fd would fall below 1e-7):
    # it is reported from its grid, and the pieces around it are checked
    # as a verify clipped to each of them alone checks it
    from warpforge import verify

    edges = [0.0, 1.0, 1.000004, 3.0]
    phi = Profile([Piece(a, b, lambda rj: jet_sin(rj)) for a, b in zip(edges, edges[1:])], "phi")
    f = Profile([Piece(0.0, 3.0, const, {"value": 0.5})], "f")
    metric = WarpedMetric(phi, phi, f, (0.0, 3.0), "narrow_middle")
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=8, seed=3)
    sizes, jets = [], verify.berger_jets
    monkeypatch.setattr(verify, "berger_jets", lambda *a: sizes.append(a[-1].size) or jets(*a))
    on = verify_ric_lower(metric, 0.0, cfg)
    # 8 oracle radii and the 9 stencil radii of each, beyond the grid
    assert [n - p.grid for n, p in zip(sizes, on.pieces)] == [80, 0, 80]
    off = verify_ric_lower(metric, 0.0, dataclasses.replace(cfg, oracle=False))
    assert [p.interval for p in on.pieces] == [[a, b] for a, b in zip(edges, edges[1:])]
    assert json.dumps(on.as_dict()["pieces"]) == json.dumps(off.as_dict()["pieces"])
    alone = [verify_ric_lower(metric, 0.0, dataclasses.replace(cfg, **clip)).oracle_max_rel_err
             for clip in (dict(r_max=1.0), dict(r_min=1.000004))]
    assert 0.0 < min(alone) and max(alone) < 1e-4
    assert float.hex(on.oracle_max_rel_err) == float.hex(max(alone))


@pytest.mark.parametrize("oracle", [False, True])
def test_verify_evaluates_each_reported_piece_once(monkeypatch, oracle):
    # one berger_jets call per piece, on its grid and, with the oracle, its
    # oracle radii and their stencil radii
    from warpforge import verify

    sizes, jets = [], verify.berger_jets
    monkeypatch.setattr(verify, "berger_jets", lambda *a: sizes.append(a[-1].size) or jets(*a))
    for command, config in SHIPPED:
        metric, bound, grid = shipped(command, config)
        cfg = dataclasses.replace(grid, points_per_piece=64, oracle=oracle, n_oracle=32)
        sizes.clear()
        report = verify_ric_lower(metric, bound, cfg)
        grids = [p.grid for p in report.pieces]
        assert len(sizes) == len(grids), config
        assert (sizes != grids) == oracle and all(s >= g for s, g in zip(sizes, grids)), config


@pytest.mark.parametrize("command,config", SHIPPED)
def test_as_dict_is_dataclasses_asdict(command, config):
    # as_dict walks the dataclass fields without copying: the same dict, keys
    # in the same order, NaN and infinities kept
    metric, bound, grid = shipped(command, config)
    report = verify_ric_lower(metric, bound, dataclasses.replace(grid, points_per_piece=64))
    report.oracle_max_rel_err = math.nan
    report.pieces[0].blocks["rr"].margin = -math.inf
    got, want = report.as_dict(), dataclasses.asdict(report)
    assert got == want and json.dumps(got) == json.dumps(want)


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


def test_oracle_checked_verify_never_evaluates_a_profile(monkeypatch):
    # the oracle reads the profile values at its stencil radii from verify's
    # own evaluation of each piece: with the oracle on, no profile is called
    targets = [(config, shipped(command, config)) for command, config in SHIPPED]

    def refuse(self, r):
        raise AssertionError(f"profile {self.label} evaluated")

    monkeypatch.setattr(Profile, "__call__", refuse)
    for config, (metric, bound, grid) in targets:
        cfg = dataclasses.replace(grid, points_per_piece=64, oracle=True, n_oracle=32)
        report = verify_ric_lower(metric, bound, cfg)
        assert report.oracle_checked and 0.0 < report.oracle_max_rel_err < 1e-3, config


def test_glue_evaluates_each_shared_phi_piece_once(monkeypatch):
    # glued A and B share the surgery's phi pieces, and the surgery's round
    # metric has B = A: one jet serves both
    calls, call = Counter(), Piece.__call__
    monkeypatch.setattr(Piece, "__call__",
                        lambda self, r: calls.update([id(self)]) or call(self, r))
    for command in ("glue", "surgery"):
        metric, bound, grid = shipped(command, command)
        shared = [p for p in metric.A.pieces if any(p is q for q in metric.B.pieces)]
        assert len(shared) == 5, command
        calls.clear()
        report = verify_ric_lower(metric, bound, grid)
        reported = [p.interval for p in report.pieces]
        pieces = metric.verification_pieces()
        for piece in shared:
            mine = [(lo, hi, B) for lo, hi, A, B, _ in pieces if A is piece]
            assert mine and all(B is piece for *_, B in mine), (command, piece.name)
            # a grid clip (the surgery's r_min) trims a reported span inside its piece
            spans = sum(any(lo <= a and b <= hi for a, b in reported) for lo, hi, _ in mine)
            assert spans and calls[id(piece)] == spans, (command, piece.name, calls[id(piece)],
                                                          spans)


def _inner_name(piece):
    """A piece's rule name, or for a glue piece the name of the rule it rescales."""
    return piece.params["rule"].__name__ if piece.name == "rescaled" else piece.name


@pytest.mark.parametrize("command, calls_per_verify", [("bubble", 15), ("glue", 29)])
def test_berger_jets_shares_pieces_of_equal_rule_and_params(monkeypatch, command,
                                                            calls_per_verify):
    # the bubble's A and B are distinct profiles, yet on 3 of its 6
    # verification pieces (log_flatten, the r3 window and the exterior
    # affine) their pieces hold the same rule on equal params, and so do the
    # glue's rescaled copies of them: one jet serves both (a verify made 18
    # and 32 rule calls while only a B that is A shared)
    metric, bound, grid = shipped(command, command)
    equal = [(A, B) for _, _, A, B, _ in metric.verification_pieces()
             if A is not B and A.rule is B.rule and A.params == B.params]
    assert sorted(_inner_name(A) for A, _ in equal) == \
        ["affine", "log_flatten", "smoothing_window"], command
    for A, B in equal:  # B's own evaluation, were it made, gives the same bits
        rs = np.linspace(A.lo, A.hi, 17)[1:-1]
        a, b = A(rs), B(rs)
        for got, want in ((a.v, b.v), (a.d1, b.d1), (a.d2, b.d2)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    calls, call = Counter(), Piece.__call__
    monkeypatch.setattr(Piece, "__call__",
                        lambda self, r: calls.update([_inner_name(self)]) or call(self, r))
    verify_ric_lower(metric, bound, grid)
    assert sum(calls.values()) == calls_per_verify, calls
    assert calls["log_flatten"] == calls["affine"] == 1, calls


# -- the span sampler: batched grids against each span alone ---------------------

def piece_grid_reference(start, stop, cfg):
    """One span's grid from its sampled start, by per-span np.geomspace calls."""
    inset = 1e-12 * (stop - start)
    a, b = start + inset, stop - inset
    base = np.geomspace(a, b, cfg.points_per_piece)
    width = stop - start
    n_ref = max(cfg.refine_factor * 8, 32)
    near_lo = np.geomspace(a, min(a + REFINE_FRAC * width, b), n_ref)
    near_hi = np.geomspace(max(b - REFINE_FRAC * width, a), b, n_ref)
    return np.unique(np.concatenate([base, near_lo, near_hi]))


def random_spans(rng, k):
    """k spans with log-uniform left ends, some at 0 and some of relative
    width 1e-6."""
    lo = np.exp(rng.uniform(np.log(1e-10), np.log(1e3), k))
    lo[rng.random(k) < 0.2] = 0.0
    rel = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), k))
    rel[rng.random(k) < 0.2] = 1e-6
    hi = np.where(lo > 0, lo * (1.0 + rel), np.exp(rng.uniform(np.log(1e-6), 1.0, k)))
    return lo, hi


def random_cases(points):
    """40 (start, stop, cfg) batches of random_spans, seeded by points, each
    span started at the floor r_min_frac * (largest stop) as verify starts
    it, and the spans the floor cuts whole left out."""
    rng = np.random.default_rng(points)
    for _ in range(40):
        lo, hi = random_spans(rng, int(rng.integers(1, 12)))
        cfg = GridConfig(points_per_piece=points, refine_factor=int(rng.choice([1, 4, 16])),
                         r_min_frac=float(rng.choice([1e-8, 1e-4, 0.3])))
        start = np.maximum(lo, cfg.r_min_frac * hi.max())
        yield start[start < hi], hi[start < hi], cfg


# [1e5, 1e5 + 2 ulp] has equal log10 ends: a batched np.geomspace call
# rounds every row differently once it holds such a row
FLAT_SPAN = (np.array([0.5, 3.0, 1e5, 7e5]),
             np.array([1.0, 7.0, np.nextafter(np.nextafter(1e5, 2e5), 2e5), 9e5]),
             GridConfig(points_per_piece=64, refine_factor=4))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("points", [1, 2, 3, 64, 4096, "flat-span"])
def test_batched_grids_equal_per_piece_reference(points):
    # a span's grid in any batch is its grid alone, and its np.geomspace grid
    cases = [FLAT_SPAN] if points == "flat-span" else random_cases(points)
    for trial, (start, stop, cfg) in enumerate(cases):
        grids = _piece_grids(start, stop, cfg)
        assert len(grids) == start.size
        for a, b, got in zip(start, stop, grids):
            (alone,) = _piece_grids([a], [b], cfg)
            assert same_bits(got, alone), (trial, a, b, cfg)
            assert same_bits(got, piece_grid_reference(a, b, cfg)), (trial, a, b, cfg)


@pytest.mark.parametrize("points", [1, 2, 3, 64, 4096, "flat-span"])
def test_grids_are_sorted_distinct_with_exact_ends(points):
    cases = [FLAT_SPAN] if points == "flat-span" else random_cases(points)
    for trial, (start, stop, cfg) in enumerate(cases):
        for a, b, rs in zip(start, stop, _piece_grids(start, stop, cfg)):
            inset = 1e-12 * (b - a)
            assert rs[0] == a + inset and rs[-1] == b - inset, (trial, a, b, cfg)
            assert np.all(np.diff(rs) > 0), (trial, a, b, cfg)


def test_log_rows_are_log_spaced_with_exact_ends():
    start, stop = np.array([1e-7, 2.0, 5.0]), np.array([3e-2, 1e30, 5.0])
    assert np.array_equal(_log_rows(start, stop, 1), start[:, None])
    rows = _log_rows(start, stop, 9)
    assert np.array_equal(rows[:, 0], start) and np.array_equal(rows[:, -1], stop)
    steps = np.diff(np.log(rows[:2]), axis=1)
    assert np.allclose(steps, np.log(stop / start)[:2, None] / 8, rtol=1e-12, atol=0)
    assert np.allclose(rows[2], 5.0, rtol=4e-16, atol=0)  # a flat row stays flat


def four_piece_cone():
    """A round metric on [0, 1] with pieces at 1e-3, 5e-3 and 0.5."""
    edges = [0.0, 1e-3, 5e-3, 0.5, 1.0]
    phi = Profile([Piece(lo, hi, jet_sin) for lo, hi in zip(edges, edges[1:])], "phi4")
    f = Profile([Piece(0.0, 1.0, const, {"value": 0.5})], "f4")
    return WarpedMetric(phi, phi, f, (0.0, 1.0), "cone4")


def test_a_span_the_floor_cuts_whole_is_never_planned():
    # the floor 1e-2 cuts [0, 1e-3] and [1e-3, 5e-3] whole; [5e-3, 0.5]
    # keeps its interval and is sampled from the floor up
    metric, store = four_piece_cone(), {}
    cfg = GridConfig(points_per_piece=16, refine_factor=1, r_min_frac=1e-2)
    report = verify_ric_lower(metric, 0.0, cfg, _store=store)
    assert [p.interval for p in report.pieces] == [[5e-3, 0.5], [0.5, 1.0]]
    ((_, _, plans),) = store.values()
    assert sorted(plans) == [(2, 5e-3, 0.5, 1e-2), (3, 0.5, 1.0, 0.5)]
    assert plans[2, 5e-3, 0.5, 1e-2][0][0] == pytest.approx(1e-2)
    assert hexed(report) == hexed(verify_ric_lower(metric, 0.0, cfg))


def test_verifies_of_one_base_at_different_r_max_share_one_store_entry():
    metric, store = four_piece_cone(), {}
    cfgs = [GridConfig(points_per_piece=16, refine_factor=1, r_min_frac=1e-2, r_max=r_max)
            for r_max in (1.0, 0.75, 0.25, 1.0)]
    reports = [verify_ric_lower(metric, 0.0, cfg, _store=store) for cfg in cfgs]
    assert len(store) == 1
    # each r_max moves the floor, so [5e-3, 0.5] gets a plan per sampled
    # start; the last verify plans nothing new
    ((_, _, plans),) = store.values()
    assert sorted(plans) == [(1, 1e-3, 5e-3, 2.5e-3), (2, 5e-3, 0.25, 5e-3),
                             (2, 5e-3, 0.5, 1e-2 * 0.75), (2, 5e-3, 0.5, 1e-2),
                             (3, 0.5, 0.75, 0.5), (3, 0.5, 1.0, 0.5)]
    for cfg, report in zip(cfgs, reports):
        assert hexed(report) == hexed(verify_ric_lower(metric, 0.0, cfg))


def test_metrics_that_share_only_a_are_two_bases():
    # the B jets a plan holds are B's: a metric with the same A and another B
    # must not reuse them
    A = four_piece_cone().A
    B = Profile([Piece(0.0, 1.0, const, {"value": 0.75})], "b")
    metrics = [WarpedMetric(A, A, B, (0.0, 1.0), "round"),
               WarpedMetric(A, B, B, (0.0, 1.0), "berger")]
    cfg, store = GridConfig(points_per_piece=16, refine_factor=1), {}
    reports = [verify_ric_lower(m, -10.0, cfg, _store=store) for m in metrics]
    assert len(store) == 2
    for m, report in zip(metrics, reports):
        assert hexed(report) == hexed(verify_ric_lower(m, -10.0, cfg))


# -- known false PASSes of the sampling rule (ROADMAP item 1) ---------------------

@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the global floor r_min_frac * r_max "
                   "cuts 3 of the 6 pieces whole, and the report drops them")
def test_a_wide_bubble_is_not_passed_on_half_its_pieces():
    metric = build_bubble(epsilon=0.05, alpha2=0.05, delta2=0.01, r3=1e30).metric
    assert not verify_ric_lower(metric, 0.0, GridConfig()).passed


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the inset and refine zones are "
                   "shares of the span's width, so no sample of [2, 1e30] falls in [2, 20]")
def test_a_wide_flattening_dip_fails_the_verify():
    metric = build_bubble(epsilon=0.05, alpha2=0.05, delta2=0.01, r3=1e30, smooth=False).metric
    assert metric.blocks(np.geomspace(2.0, 20.0, 20001)).rr.min() < -0.005  # the dip is there
    assert not verify_ric_lower(metric, 0.0, GridConfig(r_min_frac=0)).passed


# -- profile bounds, sampled on radial_grid ------------------------------------

def test_h3_budget_constraint():
    A = make_A(1e-3, 2.0)
    h3, _ = make_h3(1e-3, 0.05, 2.0, 1e3, A)
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
        cfg=GridConfig(points_per_piece=512, refine_factor=4),
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
        cfg=GridConfig(points_per_piece=512, refine_factor=4),
    )
    assert rows[0]["built"]
    assert not rows[1]["built"] and "epsilon" in rows[1]["error"]


def test_scan_delta2_leaves_base_blocks_unchanged():
    rows = scan_params(
        bubble_builder,
        base=dict(epsilon=0.05, alpha2=0.01, m=1e-3, r3=1e3, smooth=False),
        ranges={"delta2": [0.01, 0.001]},
        bound=0.0,
        cfg=GridConfig(points_per_piece=512, refine_factor=4),
    )
    a, b = rows[0]["block_margin"], rows[1]["block_margin"]
    for name in ("rr", "sX", "sYZ"):
        assert a[name] == pytest.approx(b[name], rel=1e-9), name


# -- scan rows that share a base reuse its piece plans ---------------------------

SHARED_BASES = dict(alpha2=[0.005, 0.05, 0.2], epsilon=[0.03, 0.07], smooth=[True, False])
SCAN = json.loads((CONFIGS / "scan.json").read_text())


def scanned_reports(monkeypatch, ranges, cfg):
    """[(metric, report)] of each row a scan_params call verifies; the scan
    calls verify_ric_lower through the module, as the tracer sees it."""
    seen, call = [], verify.verify_ric_lower

    def recorded(metric, *args, **kwargs):
        seen.append((metric, call(metric, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(verify, "verify_ric_lower", recorded)
    rows = scan_params(bubble_builder, dict(delta2=0.01, m=1e-3, r3=1e3), ranges, 0.0, cfg)
    monkeypatch.setattr(verify, "verify_ric_lower", call)
    assert len(rows) == len(seen) and all(row["built"] for row in rows)
    return seen


def hexed(report):
    """Every float of a report, as float.hex gives it."""
    return [float.hex(report.oracle_max_rel_err)] + [
        (p.interval, p.grid, [(k, float.hex(b.min), float.hex(b.argmin), float.hex(b.margin))
                              for k, b in p.blocks.items()]) for p in report.pieces]


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])  # None: the oracle off
def test_scan_rows_equal_standalone_verifies(cold, monkeypatch, seed):
    # rows that share a base (alpha2 varies over each of the 4 bases) reuse
    # its grids, oracle radii and A and B jets; each report keeps its bits
    cfg = GridConfig(points_per_piece=64, refine_factor=2, oracle=seed is not None,
                     n_oracle=8, seed=seed or 0)
    seen = scanned_reports(monkeypatch, SHARED_BASES, cfg)
    assert len(seen) == 12 and len({(id(m.A), id(m.B)) for m, _ in seen}) == 4
    for metric, report in seen:
        assert report.oracle_checked == cfg.oracle
        assert (report.oracle_max_rel_err > 0) == cfg.oracle
        assert hexed(report) == hexed(verify_ric_lower(metric, 0.0, cfg))


def verify_piece_calls(monkeypatch):
    """A Counter of (id of the piece, first radius) that Piece.__call__
    counts while a verify_ric_lower call runs (the first radius names the
    span), and each counted piece by its id."""
    calls, pieces, inside = Counter(), {}, []
    piece_call, call = Piece.__call__, verify.verify_ric_lower

    def verifying(*args, **kwargs):
        inside.append(True)
        try:
            return call(*args, **kwargs)
        finally:
            inside.pop()

    def counted(self, r):
        if inside:
            pieces[id(self)] = self
            calls[id(self), float(np.ravel(r)[0])] += 1
        return piece_call(self, r)

    monkeypatch.setattr(verify, "verify_ric_lower", verifying)
    monkeypatch.setattr(Piece, "__call__", counted)
    return calls, pieces


def shipped_scan(monkeypatch):
    """(Counter of verify's piece calls, the pieces, metrics) of the shipped
    scan, as warpforge scan runs it."""
    metrics = []
    calls, pieces = verify_piece_calls(monkeypatch)
    rows = scan_params(lambda **kw: metrics.append(bubble_builder(**kw)) or metrics[-1],
                       {"smooth": False, **SCAN["base"]}, SCAN["ranges"], SCAN["bound"],
                       GridConfig(**SCAN["grid"]))
    assert len(rows) == len(metrics) == 5
    return calls, pieces, metrics


def test_scan_evaluates_a_shared_base_once_per_span(cold, monkeypatch):
    # the 5 alpha2 rows of the shipped scan share one base: each A or B
    # piece is evaluated once per span over the scan, f on each span 5 times
    calls, pieces, metrics = shipped_scan(monkeypatch)
    assert len({(id(m.A), id(m.B)) for m in metrics}) == 1
    base = {id(p) for p in metrics[0].A.pieces + metrics[0].B.pieces}
    warps = {id(p) for m in metrics for p in m.f.pieces}
    ab = Counter({key: n for key, n in calls.items() if key[0] in base})
    f = Counter()
    for (piece, r0), n in calls.items():
        if piece not in base:
            assert piece in warps
            f[r0] += n
    spans = {r0 for _, r0 in ab}
    assert len(spans) == len(metrics[0].verification_pieces()) == 4
    assert set(ab.values()) == {1} and set(f) == spans and set(f.values()) == {5}


def test_a_scan_keeps_nothing_for_the_next(cold, monkeypatch):
    # the store lives for one scan_params call: the second identical scan
    # (its bases now cached by build_bubble) evaluates as many pieces
    runs = []
    for _ in range(2):
        calls, pieces, _ = shipped_scan(monkeypatch)
        runs.append(Counter())
        for (piece, r0), n in calls.items():
            runs[-1][pieces[piece].name, r0] += n
        monkeypatch.undo()
    # f on 4 spans in 5 rows, A and B on 2 spans, their shared pieces on 2
    assert sum(runs[0].values()) == 4 * 5 + 2 * 2 + 2 and runs[1] == runs[0]


def test_the_store_keeps_the_most_recently_used_bases():
    # base k is metric k's own profile
    profiles = [Profile([Piece(0.0, 1.0, const, {"value": 1.0 + k})], f"p{k}")
                for k in range(BASES_KEPT + 2)]
    metrics = [WarpedMetric(p, p, p, (0.0, 1.0), "m") for p in profiles]
    store = {}
    plans = [_base_plans(store, m) for m in metrics[:BASES_KEPT]]
    assert _base_plans(store, metrics[0]) is plans[0]  # a hit: base 0 is the newest
    _base_plans(store, metrics[BASES_KEPT])  # a new base: base 1 goes
    _base_plans(store, metrics[BASES_KEPT + 1])  # a new base: base 2 goes
    assert len(store) == BASES_KEPT
    assert _base_plans(store, metrics[0]) is plans[0]
    assert _base_plans(store, metrics[3]) is plans[3]
    assert _base_plans(store, metrics[1]) is not plans[1]


def test_a_scan_whose_rows_share_no_base_keeps_at_most_bases_kept(cold, monkeypatch):
    # a sweep over r3 builds a new base on every row
    sizes, plans = [], verify._base_plans

    def recorded(store, *args):
        out = plans(store, *args)
        sizes.append(len(store))
        return out

    monkeypatch.setattr(verify, "_base_plans", recorded)
    r3 = [1e3 + 50.0 * k for k in range(BASES_KEPT + 3)]
    scan_params(bubble_builder, dict(epsilon=0.05, alpha2=0.01, delta2=0.01, smooth=False),
                {"r3": r3}, 0.0, GridConfig(points_per_piece=16, refine_factor=1))
    assert sizes == [min(k + 1, BASES_KEPT) for k in range(len(r3))]


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


@pytest.mark.parametrize("command, config", SHIPPED)
def test_export_evaluates_each_profile_once(tmp_path, monkeypatch, command, config):
    # the coefficients and the blocks of a CSV row come from the same jets
    metric, _, _ = shipped(command, config)
    calls, call = Counter(), Profile.__call__
    monkeypatch.setattr(Profile, "__call__",
                        lambda self, r: calls.update([self.label]) or call(self, r))
    export_curvature_csv(metric, radial_grid(*metric.r_range, 64), tmp_path / "curv.csv")
    assert calls == Counter(p.label for p in metric.profiles().values())
