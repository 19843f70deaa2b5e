"""Acceptance suite: one test per criterion, one printed verdict line each.

Every criterion must pass at its stated tolerance.  Two criteria check the
bound the mathematics allows instead of a stronger one that no correct
program can meet (README.md, "Corrected criteria"):

  * criterion 3: Ric >= 0 on the whole r3 = 1e3 bubble at alpha2 = 0.01 is
    impossible, because the rr block of the cone-flattening region would
    need a slope budget of 0.949 and the warp pays for at most ~0.046.  The
    test pins the sign pattern instead: every block positive on the Berger
    core and the exterior, the sphere and warp blocks positive everywhere,
    rr on the raw bubble's [r1, r3] equal to its closed form, and the
    failure located in rr on the flattening region;
  * criterion 10: mu = sn_kappa(r)/r has d(mu^2)/dr -> -(2 kappa/3) r as
    r -> 0, so a 0.5 r envelope fails for |kappa| > 3/4.  The test keeps
    the value bound |mu^2 - 1| <= 0.5 r^2, bounds the derivative by the
    sharp (1 - e^-2)|kappa| r for |kappa| r^2 <= 1, and checks the limit
    -2 kappa/3 itself.
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
from warpforge.jets import jet_sin
from warpforge.limits import gh_error, holder_exponent, max_distortion
from warpforge.profiles import Piece, Profile, const, make_model_mu
from warpforge.verify import GridConfig, verify_ric_lower

BUBBLE_KW = dict(epsilon=0.05, alpha2=0.01, delta2=0.01, m=1e-3, r1=2.0, r3=1e3)
SURGERY_KW = dict(kappa=0.0, f0=1.0, lambda_bound=-0.1, epsilon=0.02, alpha=0.01,
                  r_hat=1e-3, delta_hat=1e-3)
RICCI_CONSTANT = 150.0  # pinned universal constant for the surgery contract


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def single(rule, name, r_max, **params):
    return Profile([Piece(0.0, r_max, rule, params)], name)


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
    sine, ident = single(lambda rj: jet_sin(rj), "sin", 3.0), single(lambda rj: rj, "id", 4.0)
    round_s4 = WarpedMetric(sine, sine, single(const, "f", 3.0, value=0.5), (0.0, 3.0), "roundS4")
    flat = WarpedMetric(ident, ident, single(const, "f", 4.0, value=0.1), (0.0, 4.0), "flat")
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
    k = core.A.pieces[0].params["k"]
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


def flattening_region(b) -> tuple[float, float]:
    """[r1 - w1, r3 + w3]: the cone-flattening region with its smoothing
    windows (w1 = w3 = 0 for a raw bubble)."""
    w = {piece.params["at"]: piece.params["window"]
         for piece in b.metric.A.pieces if piece.name == "smoothing_window"}
    return b.params.r1 - w.get(b.params.r1, 0.0), b.params.r3 + w.get(b.params.r3, 0.0)


def test_criterion_03_full_bubble_positivity(bubble_raw, bubble):
    # Ric >= 0 on the whole bubble is out of reach here.  On [r1, r3] the rr
    # block is -3 h3''/h3 - 2 f2''/f2, and
    # -f2''/f2 = alpha2 ((1 - alpha2) r^2 - 1)/(1 + r^2)^2 <= alpha2/r^2, so
    # rr >= 0 needs h3'' <= (2 alpha2/3) h3/r^2.  With slope h3' <= 1,
    # h3(r) <= h3(r1) + r, and integrating over [r1, r3] lets the slope grow
    # by at most (2 alpha2/3)(h3(r1)(1/r1 - 1/r3) + ln(r3/r1)) ~ 0.046 at
    # alpha2 = 0.01, r3 = 1e3; the construction must take it from m to
    # 1 - eps, a growth of 0.949.  No convex flattening profile does that, so
    # the test pins the sign pattern the construction does have:
    #   (a) every block > 0 on the Berger core [0, r1 - w1] and the exterior
    #       [r3 + w3, 3 r3], where sampled (w1, w3: smoothing windows);
    #   (b) sX, sYZ and s2 > 0 everywhere sampled;
    #   (c) on the raw bubble's [r1, r3], rr equals the closed form
    #       -3 c/(r h3) - 2 alpha2 (1 + (alpha2 - 1) r^2)/(1 + r^2)^2, with
    #       h3 = A(r1) + m (r - r1) + c (r ln(r/r1) - r + r1), to rel 1e-9;
    #   (d) the report fails, and its worst block is rr in [r1 - w1, r3 + w3].
    # r_min starts the grid at 1e-4 and names it in the report; the default
    # floor r_min_frac * r_max would leave the start implicit, and raising r3
    # moves that floor far out (at r3 = 1e30 the default grid starts at 3e22
    # and misses the negative rr entirely).
    p = bubble_raw.params
    a = p.alpha2
    flatten = next(q.params for q in bubble_raw.metric.A.pieces if q.name == "log_flatten")
    A_r1 = flatten["A_r1"]
    budget = (2 * a / 3) * (A_r1 * (1 / p.r1 - 1 / p.r3) + math.log(p.r3 / p.r1))
    needed = 1 - p.epsilon - p.m
    ok = budget < needed

    c, m = flatten["c"], p.m
    rs = np.geomspace(p.r1 * (1 + 1e-12), p.r3 * (1 - 1e-12), 10_000)
    h3 = A_r1 + m * (rs - p.r1) + c * (rs * np.log(rs / p.r1) - rs + p.r1)
    closed = -3 * c / (rs * h3) - 2 * a * (1 + (a - 1) * rs**2) / (1 + rs**2) ** 2
    closed_err = float(np.max(np.abs(bubble_raw.metric.blocks(rs).rr / closed - 1.0)))
    ok = ok and closed_err <= 1e-9
    details = [f"slope budget {budget:.3g} < needed {needed:.3g}",
               f"raw rr vs closed form rel err {closed_err:.2e} (<=1e-9), "
               f"{closed[0]:.4g} at r1+"]

    for tag, b in (("raw", bubble_raw), ("smoothed", bubble)):
        lo, hi = flattening_region(b)
        report = verify_ric_lower(b.metric, bound=0.0, cfg=GridConfig(r_min=1e-4))
        core = [s.margin for piece in report.pieces if piece.interval[1] <= lo
                for s in piece.blocks.values()]
        exterior = [s.margin for piece in report.pieces if piece.interval[0] >= hi
                    for s in piece.blocks.values()]
        sphere = [piece.blocks[n].margin for piece in report.pieces
                  for n in ("sX", "sYZ", "s2")]
        block, margin, arg = report.worst()
        ok = (ok and bool(core) and bool(exterior)
              and min(core + exterior) > 0 and min(sphere) > 0
              and not report.passed and block == "rr" and lo <= arg <= hi)
        details.append(
            f"{tag}: core/exterior min {min(core + exterior, default=float('nan')):.3g} (>0), "
            f"sX/sYZ/s2 min {min(sphere):.3g} (>0), "
            f"worst {block} {margin:.4g} at r={arg:.4g} (flattening region "
            f"[{lo:g}, {hi:g}])")
    verdict(3, ok, "; ".join(details))


def test_criterion_04_warped_cone_closed_form(bubble_raw):
    r3, tail = bubble_raw.params.r3, bubble_raw.metric.f.pieces[-1].params
    alpha = tail["alpha"]
    t3 = r3 - tail["R3"]
    ts = np.geomspace(t3, 10 * r3, 10_000)
    rs = ts + tail["R3"]
    rr = bubble_raw.metric.blocks(rs).rr
    expected = -2 * alpha * (alpha - 1) / ts**2
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
    delta = surgery.metric.f.pieces[0].params["delta"]
    interior_exact = all(
        float(surgery.metric.A(r).v) == (1.0 - p.epsilon) * r
        and float(surgery.metric.f(r).v) == delta * r**p.alpha
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
    rs = np.linspace((1 - p.rho) * p.r_m, (1 + p.rho) * p.r_m, 10_000)[1:-1]
    out = surgery.metric.f(rs)
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
    start = max(bp for bp in bubble.metric.A.breakpoints if bp >= p.r3)
    rs = np.geomspace(start * (1 + 1e-9), bubble.metric.r_range[1], 200)
    iso = float(np.max(np.abs((1 - p.epsilon) * lam(rs).v / bubble.metric.A(rs).v - 1.0)))

    # regional suprema
    rs = np.geomspace(1e-6, p.r1, 2000)
    core = float(np.max((1 - p.epsilon) * lam(rs).v / bubble.metric.B(rs).v))
    rs = np.geomspace(p.r1, p.r3, 2000)
    mid = float(np.max((1 - p.epsilon) * lam(rs).v / bubble.metric.A(rs).v))

    C_eff = max(C, 1.0)
    delta = 0.01
    alpha = holder_exponent(delta, C_eff)
    # stage 40, which bounds every earlier stage, at every r where
    # product/bound peaks; raises
    # ConstructionError at the first product above its Holder bound
    worst = max_distortion(40, delta, C_eff)
    distortion_ok = worst <= 1.0 + delta  # the bound's value at r = 1
    rng = np.random.default_rng(31)
    gh_ok = True
    for _ in range(1000):
        i = int(rng.integers(0, 30))
        total = gh_error(i, int(rng.integers(i, i + 40)), delta, C_eff)
        gh_ok = gh_ok and total <= C_eff * 2.0 ** (-i) * delta * (1 + 1e-12)

    ok = (iso <= 1e-9 and core <= math.pi * (1 - p.epsilon)
          and mid <= (1 - p.epsilon) / p.m and distortion_ok and gh_ok and alpha < 1.0)
    verdict(9, ok,
            f"isometry defect {iso:.1e}; core sup {core:.4g} <= pi(1-eps); "
            f"mid sup {mid:.4g} <= (1-eps)/m = {(1-p.epsilon)/p.m:g}; "
            f"C = {C:.4g}, alpha({delta}) = {alpha:.5g}; "
            f"distortion certified for j <= 40 (max {worst:.6g}): {distortion_ok}; "
            f"GH bounds on 1000 samples: {gh_ok}")


def test_criterion_10_model_base_regularity():
    # Value half as stated: |mu^2 - 1| <= 0.5 r^2.  Derivative half: for
    # mu = sn_kappa(r)/r, d(mu^2)/dr -> -(2 kappa/3) r as r -> 0, so a 0.5 r
    # envelope fails for every |kappa| > 3/4.  With x = sqrt|kappa| r and
    # g(x) = (sinh x/x)^2 = (cosh 2x - 1)/(2 x^2), |d(mu^2)/dr| is
    # |kappa| r g'(x)/x for kappa < 0; g'(x)/x has a series of positive
    # coefficients, so it increases to g'(1) = 1 - e^-2 on x <= 1, and
    # (sin x/x)^2 has the same coefficients with alternating signs.  Hence
    # |d(mu^2)/dr| <= (1 - e^-2)|kappa| r whenever |kappa| r^2 <= 1, with
    # equality at kappa = -1, r = 1; 1e-12 relative allows for rounding.
    # An envelope alone passes a mu of the wrong sign or scale, so two checks
    # pin -2 kappa/3: the limit of d(mu^2)/dr / r at the smallest radius (the
    # series branch below r = 1e-3), and, since g'(x)/x - 2/3 also has
    # positive coefficients, the remainder
    # |d(mu^2)/dr + (2 kappa/3) r| <= (1/3 - e^-2) kappa^2 r^3 (the closed
    # branch; checked from r = 1e-2 up, where the cancellation in
    # cosh(x)/r - sinh(x)/(s r^2) stays far below the bound).
    sharp = 1.0 - math.exp(-2.0)
    value_ok, value_sup = True, 0.0
    deriv_ok, deriv_sup = True, 0.0
    rem_ok, rem_sup = True, 0.0
    limit_err = 0.0
    for kappa in (-1.0, -0.75, -0.25, 0.25, 0.75, 1.0):
        mu = make_model_mu(kappa, r_max=1.2)
        rs = np.geomspace(1e-6, 1.0, 4000)
        out = mu(rs)
        mu2 = out.v * out.v
        dmu2 = 2.0 * out.v * out.d1
        envelope = sharp * abs(kappa) * rs
        value_sup = max(value_sup, float(np.max(np.abs(mu2 - 1.0) / rs**2)))
        deriv_sup = max(deriv_sup, float(np.max(np.abs(dmu2) / envelope)))
        limit_err = max(limit_err, abs(dmu2[0] / rs[0] / (-2.0 * kappa / 3.0) - 1.0))
        far = rs >= 1e-2
        rem = np.abs(dmu2 + (2.0 * kappa / 3.0) * rs)[far]
        rem_bound = (sharp - 2.0 / 3.0) * kappa**2 * rs[far] ** 3
        rem_sup = max(rem_sup, float(np.max(rem / rem_bound)))
        rem_ok = rem_ok and bool(np.all(rem <= rem_bound + 1e-12 * abs(kappa) * rs[far]))
        value_ok = value_ok and bool(np.all(np.abs(mu2 - 1.0) <= 0.5 * rs**2))
        deriv_ok = deriv_ok and bool(np.all(np.abs(dmu2) <= envelope * (1.0 + 1e-12)))
    limit_ok = limit_err <= 1e-9
    verdict(10, value_ok and deriv_ok and limit_ok and rem_ok,
            f"sup |mu^2-1|/r^2 = {value_sup:.4g} (<=0.5: {value_ok}); "
            f"sup |d(mu^2)/dr|/((1-e^-2)|kappa| r) = {deriv_sup:.6g} "
            f"(<=1+1e-12: {deriv_ok}); "
            f"d(mu^2)/dr/r at r=1e-6 vs -2 kappa/3 rel err {limit_err:.2e} (<=1e-9); "
            f"sup remainder/((1/3-e^-2) kappa^2 r^3) = {rem_sup:.4g} (<=1: {rem_ok})")


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
