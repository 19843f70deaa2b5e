"""Acceptance suite: one test per criterion, one printed verdict line each.

Criteria 3 and 10 are implemented exactly as stated.  Both are expected to
fail for reasons measured and documented in the assertion messages (and in
README.md): the r3 = 1e3 bubble cannot keep its radial Ricci block
positive through the cone-flattening region at alpha2 = 0.01, and the
space-form factor satisfies |d(mu^2)/dr| ~ (2|kappa|/3) r near 0, which
exceeds the stated 0.5 r constant at |kappa| = 1.  Every other criterion
must pass at its stated tolerance.
"""

import json
import math

import numpy as np
import pytest

from warpforge.construction import (
    bilipschitz_check,
    blowdown_lipschitz,
    bubble_alpha2_for_alpha,
    build_berger_core,
    build_bubble,
    build_surgery,
    glue_bubble,
)
from warpforge.curvature import WarpedMetric, fd_ricci_oracle, scale_warp
from warpforge.jets import jet_sin, jet_var
from warpforge.limits import compose_distortion, gh_error, holder_exponent
from warpforge.profiles import Piece, Profile, make_model_mu, rule_const
from warpforge.verify import GridConfig, verify_ric_lower

BUBBLE_KW = dict(epsilon=0.05, alpha2=0.01, delta2=0.01, m=1e-3, r1=2.0, r3=1e3)
SURGERY_KW = dict(kappa=0.0, f0=1.0, lambda_bound=-0.1, epsilon=0.02, alpha=0.01,
                  r_hat=1e-3, delta_hat=1e-3)
RICCI_CONSTANT = 150.0  # pinned universal constant for the surgery contract


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def single(rule, name, r_max):
    return Profile([Piece(0.0, r_max, rule, name, {})], "smooth", name)


@pytest.fixture(scope="module")
def bubble():
    return build_bubble(**BUBBLE_KW)


@pytest.fixture(scope="module")
def bubble_raw():
    return build_bubble(smooth=False, **BUBBLE_KW)


@pytest.fixture(scope="module")
def surgery():
    return build_surgery(**SURGERY_KW)


@pytest.fixture(scope="module")
def glued(surgery):
    alpha2 = bubble_alpha2_for_alpha(0.01, 0.02, 1e-3, 2.0, 1e3)
    b = build_bubble(epsilon=0.02, alpha2=alpha2, delta2=0.01, r3=1e3)
    return glue_bubble(surgery, b)


def test_criterion_01_analytic_oracles():
    # closed form is checked from r = 1e-2 up: below that the cancellation in
    # (1 - phi'^2)/phi^2 costs eps/r^2 and the identity is pure noise
    round_s4 = WarpedMetric(
        single(lambda rj: jet_sin(rj), "sin", 3.0), None,
        single(rule_const(0.5), "f", 3.0), (0.0, 3.0), "roundS4",
    )
    flat = WarpedMetric(
        single(lambda rj: rj, "id", 4.0), None,
        single(rule_const(0.1), "f", 4.0), (0.0, 4.0), "flat",
    )
    worst_closed = 0.0
    rs = np.geomspace(1e-2, 2.9, 200)
    blocks = round_s4.blocks(rs)
    for name in ("rr", "sX", "sYZ"):
        worst_closed = max(worst_closed, float(np.max(np.abs(getattr(blocks, name) - 3.0))))
    blocks = flat.blocks(rs)
    for name, target in (("rr", 0.0), ("sX", 0.0), ("s2", 100.0)):
        err = np.abs(getattr(blocks, name) - target) / max(1.0, target)
        worst_closed = max(worst_closed, float(err.max()))

    worst_oracle = 0.0
    for r in (0.4, 1.1, 2.3):
        o = fd_ricci_oracle(round_s4, r)
        worst_oracle = max(worst_oracle,
                           *(abs(float(getattr(o, n)) - 3.0) for n in ("rr", "sX", "sYZ")))
        o = fd_ricci_oracle(flat, r)
        worst_oracle = max(worst_oracle, abs(float(o.rr)), abs(float(o.sX)),
                           abs(float(o.s2) - 100.0) / 100.0)
    verdict(1, worst_closed <= 1e-9 and worst_oracle <= 1e-5,
            f"closed-form err {worst_closed:.2e} (<=1e-9), oracle err {worst_oracle:.2e} (<=1e-5)")


def test_criterion_02_plateau_identity():
    core = build_berger_core(m=1e-3, r1=2.0, r_max=1e3)
    k = core.params["k"]
    rs = np.geomspace(1e-3, 0.999, 400)
    plateau_err = float(np.max(np.abs(core.blocks(rs).rr / (k * k) - 1.0)))
    rs = np.geomspace(2.0001, 999.0, 400)
    blocks = core.blocks(rs)
    a = core.A(rs).v
    rr_err = float(np.max(np.abs(blocks.rr)))
    sx_err = float(np.max(np.abs(blocks.sX / (2 * (1 - 1e-6) / a**2) - 1.0)))
    ok = plateau_err <= 1e-9 and rr_err <= 1e-12 and sx_err <= 1e-9
    verdict(2, ok, f"rr=k^2 rel err {plateau_err:.2e}, exterior rr {rr_err:.2e}, "
                   f"sX rel err {sx_err:.2e} (all <=1e-9)")


def test_criterion_03_full_bubble_positivity(bubble_raw, bubble):
    # KNOWN RED: Ric_rr = -3 h3''/h3 - 2 f2''/f2 < 0 just beyond r1 whenever
    # ln(r3/r1) is far below the slope-budget threshold ~1.5/alpha2; at
    # r3 = 1e3, alpha2 = 0.01 the deficit is ~ -0.18 and no float64
    # representable r3 can fix it (see README / decisions ledger)
    ok = True
    details = []
    for tag, b in (("raw", bubble_raw), ("smoothed", bubble)):
        report = verify_ric_lower(b.metric, bound=0.0, cfg=GridConfig())
        block, margin, arg = report.worst()
        details.append(f"{tag}: worst margin {margin:.4g} ({block} at r={arg:.4g})")
        ok = ok and report.passed
    verdict(3, ok, "; ".join(details))


def test_criterion_04_warped_cone_closed_form(bubble_raw):
    p = bubble_raw.params
    t3 = p.r3 - p.R3
    ts = np.geomspace(t3, 10 * p.r3, 10_000)
    rs = ts + p.R3
    rr = bubble_raw.metric.blocks(rs).rr
    expected = -2 * p.alpha * (p.alpha - 1) / ts**2
    err = float(np.max(np.abs(rr / expected - 1.0)))
    verdict(4, err <= 1e-10, f"rr vs -2 alpha(alpha-1)/t^2 rel err {err:.2e} (<=1e-10)")


def test_criterion_05_oracle_equivalence(bubble, surgery, glued):
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=32, seed=11)
    details = []
    worst = 0.0
    for metric in (bubble.metric, surgery.metric, glued):
        report = verify_ric_lower(metric, bound=0.0, cfg=cfg)
        details.append(f"{metric.label}: {report.oracle_max_rel_err:.2e}")
        worst = max(worst, report.oracle_max_rel_err)
    verdict(5, worst <= 1e-4, "oracle scaled err " + ", ".join(details) + " (<=1e-4)")


def test_criterion_06_surgery_contract(surgery):
    p = surgery.params
    # item 1: Ricci lower bound with the pinned constant on [r_hat/2, 2]
    bound = p.lambda_bound - RICCI_CONSTANT * p.epsilon
    cfg = GridConfig(r_min=p.r_hat / 2.0, r_max=2.0)
    report = verify_ric_lower(surgery.metric, bound, cfg)
    min_ric = min(report.block_min(k) for k in ("rr", "s3", "s2"))
    measured_C = (p.lambda_bound - min_ric) / p.epsilon

    # item 2: exterior is the ambient model, warp scaled by delta_hat, bit-exact
    exterior_exact = all(
        float(surgery.metric.A(r).v) == r and float(surgery.metric.f(r).v) == 1e-3
        for r in (1.0, 1.37, 1.99)
    )
    # item 3: warped-cone interior, bit-exact
    interior_exact = all(
        float(surgery.metric.A(r).v) == (1.0 - p.epsilon) * r
        and float(surgery.metric.f(r).v) == p.delta * r**p.alpha
        for r in (1e-4, 4.4e-4, 9.9e-4)
    )
    # item 4
    sup = bilipschitz_check(surgery)
    ok = (report.passed and exterior_exact and interior_exact
          and sup <= 1.0 + 2.0 * p.epsilon)
    verdict(6, ok,
            f"min Ric {min_ric:.4g} > {bound:g} (measured C = {measured_C:.3g}); "
            f"exterior exact: {exterior_exact}; interior exact: {interior_exact}; "
            f"bi-Lipschitz sup {sup:.6g} <= {1 + 2 * p.epsilon:g}")


def test_criterion_07_logwarp_concavity(surgery):
    p = surgery.params
    rs = np.linspace(p.r2, p.r2plus, 10_000)[1:-1]
    out = surgery.warp(rs)
    excess = out.d2 / out.v + p.alpha / rs**2  # must be <= 0
    worst = float(excess.max())
    verdict(7, worst <= 0.0, f"max of f''/f + alpha/r^2 = {worst:.4g} (<=0)")


def test_criterion_08_scaling_monotonicity(bubble, surgery, glued):
    ok = True
    for metric in (bubble.metric, surgery.metric, glued):
        lo, hi = metric.r_range
        rs = np.geomspace(max(lo, 1e-6 * hi), hi * (1 - 1e-9), 2000)
        blocks = metric.blocks(rs)
        fj = metric.f(rs)
        prev = blocks.s2
        for lam in (0.5, 0.1, 0.01):
            scaled = scale_warp(blocks, fj, lam)
            ok = ok and bool(np.all(scaled.s2 >= prev))
            ok = ok and scaled.rr is blocks.rr and scaled.sX is blocks.sX \
                and scaled.sYZ is blocks.sYZ
            prev = scaled.s2
    verdict(8, ok, "S^2 block pointwise non-decreasing for lambda in {0.5,0.1,0.01}, "
                   "base blocks bit-identical (3 fixtures x 2000 radii)")


def test_criterion_09_blowdown_and_limit_bounds(bubble):
    p = bubble.params
    lam = bubble.blowdown()
    C = blowdown_lipschitz(bubble, lam)  # raises if any regional bound fails

    # beyond r3 (and its smoothing window) the map is an isometry
    start = max(bp for bp in bubble.base_A.breakpoints if bp >= p.r3)
    rs = np.geomspace(start * (1 + 1e-9), bubble.metric.r_range[1], 200)
    iso = float(np.max(np.abs((1 - p.epsilon) * lam(rs).v / bubble.base_A(rs).v - 1.0)))

    # regional suprema
    rs = np.geomspace(1e-6, p.r1, 2000)
    core = float(np.max((1 - p.epsilon) * lam(rs).v / bubble.base_B(rs).v))
    rs = np.geomspace(p.r1, p.r3, 2000)
    mid = float(np.max((1 - p.epsilon) * lam(rs).v / bubble.base_A(rs).v))

    C_eff = max(C, 1.0)
    delta = 0.01
    alpha = holder_exponent(delta, C_eff)
    rng = np.random.default_rng(31)
    distortion_ok = True
    gh_ok = True
    for _ in range(1000):
        r = float(np.exp(rng.uniform(np.log(1e-12), 0.0)))
        j = int(rng.integers(0, 41))
        try:
            compose_distortion(r, j, delta, C_eff)
        except AssertionError:
            distortion_ok = False
        i = int(rng.integers(0, 30))
        total = gh_error(i, int(rng.integers(i, i + 40)), delta, C_eff)
        gh_ok = gh_ok and total <= C_eff * 2.0 ** (-i) * delta * (1 + 1e-12)

    ok = (iso <= 1e-9 and core <= math.pi * (1 - p.epsilon)
          and mid <= (1 - p.epsilon) / p.m and distortion_ok and gh_ok and alpha < 1.0)
    verdict(9, ok,
            f"isometry defect {iso:.1e}; core sup {core:.4g} <= pi(1-eps); "
            f"mid sup {mid:.4g} <= (1-eps)/m = {(1-p.epsilon)/p.m:g}; "
            f"C = {C:.4g}, alpha({delta}) = {alpha:.5g}; "
            f"distortion/GH bounds on 1000 samples: {distortion_ok}/{gh_ok}")


def test_criterion_10_model_base_regularity():
    # KNOWN RED (second bound): d(mu^2)/dr -> -(2 kappa/3) r as r -> 0, so the
    # stated 0.5 r envelope is impossible once |kappa| > 3/4; the measured
    # sup ratio is 2/3 at kappa = +1 and ~0.865 at kappa = -1, r = 1
    value_ok, value_sup = True, 0.0
    deriv_ok, deriv_sup = True, 0.0
    for kappa in (-1.0, -0.75, -0.25, 0.25, 0.75, 1.0):
        mu = make_model_mu(kappa, r_max=1.2)
        rs = np.geomspace(1e-6, 1.0, 4000)
        out = mu(rs)
        mu2 = out.v * out.v
        dmu2 = 2.0 * out.v * out.d1
        value_sup = max(value_sup, float(np.max(np.abs(mu2 - 1.0) / rs**2)))
        deriv_sup = max(deriv_sup, float(np.max(np.abs(dmu2) / rs)))
        value_ok = value_ok and bool(np.all(np.abs(mu2 - 1.0) <= 0.5 * rs**2))
        deriv_ok = deriv_ok and bool(np.all(np.abs(dmu2) <= 0.5 * rs))
    verdict(10, value_ok and deriv_ok,
            f"sup |mu^2-1|/r^2 = {value_sup:.4g} (<=0.5: {value_ok}); "
            f"sup |d(mu^2)/dr|/r = {deriv_sup:.4g} (<=0.5: {deriv_ok})")


def test_criterion_11_negative_fixture(tmp_path, monkeypatch):
    metric = build_bubble(epsilon=0.05, alpha2=0.4, delta2=0.01, m=1e-3, r3=1e3).metric
    report = verify_ric_lower(metric, bound=0.0, cfg=GridConfig(points_per_piece=2048))
    sphere_neg = [
        (piece.interval, name, stat.margin)
        for piece in report.pieces
        for name, stat in piece.blocks.items()
        if name in ("sX", "sYZ") and stat.margin < 0
        and piece.interval[0] >= 2.0 and piece.interval[1] <= 1e3 + 1
    ]

    from pathlib import Path
    from warpforge.cli import main

    cfg_path = Path(__file__).resolve().parent.parent / "configs" / "bubble_broken.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["grid"] = {"points_per_piece": 512, "refine_factor": 4}
    local = tmp_path / "broken.json"
    local.write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    code = main(["verify", "-c", str(local)])

    ok = (not report.passed) and bool(sphere_neg) and code == 2
    worst_sphere = min((m for _, _, m in sphere_neg), default=float("nan"))
    verdict(11, ok,
            f"verification failed: {not report.passed}; sphere-block margin "
            f"{worst_sphere:.3g} < 0 on [r1, r3]; CLI exit code {code} (== 2)")
