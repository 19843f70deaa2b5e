"""Bubble/surgery assembly, smoothing, gluing, map distortion."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import named_radius

from warpforge import construction, profiles
from warpforge.construction import (
    Bubble,
    SmoothingError,
    bilipschitz_check,
    blowdown_lipschitz,
    bubble_alpha2_for_alpha,
    build_berger_core,
    build_bubble,
    build_surgery,
    _affine_pieces,
    c1_smooth,
    glue_bubble,
)
from warpforge.curvature import fd_ricci_oracle
from warpforge.profiles import (
    ConstructionError,
    ParameterError,
    Piece,
    Profile,
    affine,
    const,
    make_A,
    make_B,
    make_f2,
    make_f4,
    make_h3,
    poly_in_t,
    quintic_hermite_coeffs,
    smoothing_window,
)
from warpforge.jets import JetDomainError, jet_sin
from warpforge.verify import GridConfig, scan_params, verify_ric_lower

BUBBLE_KW = dict(epsilon=0.05, alpha2=0.01, delta2=0.01, m=1e-3, r1=2.0, r3=1e3)
SURGERY_KW = dict(
    kappa=0.0, f0=1.0, lambda_bound=-0.1, epsilon=0.02, alpha=0.01,
    r_hat=1e-3, delta_hat=1e-3,
)


@pytest.fixture(scope="module")
def bubble():
    return build_bubble(**BUBBLE_KW)


@pytest.fixture(scope="module")
def bubble_raw():
    return build_bubble(smooth=False, **BUBBLE_KW)


@pytest.fixture(scope="module")
def surgery():
    return build_surgery(**SURGERY_KW)


# -- c1_smooth ---------------------------------------------------------------

def test_smooth_of_smooth_piece_is_identity():
    prof = Profile([Piece(0.0, 4.0, lambda rj: jet_sin(rj) + 2.0)], "s")
    out = c1_smooth(prof, [(2.0, 0.01)])
    rs = np.linspace(1.99, 2.01, 101)
    a, b = prof(rs), out(rs)
    assert np.max(np.abs(a.v - b.v)) < 1e-12
    assert np.max(np.abs(a.d1 - b.d1)) < 1e-10


def test_smoothing_a_one_piece_profile_reports_C1():
    # the window adds two joints, and the quintic is only C2 at its ends
    prof = Profile([Piece(0.0, 4.0, lambda rj: jet_sin(rj) + 2.0)], "s")
    out = c1_smooth(prof, [(2.0, 0.01)])
    assert (prof.smoothness, len(out.pieces)) == ("smooth", 3)
    assert out.smoothness == out.descriptor()["smoothness"] == "C1"


def window_deviation(profile, hermite):
    """c1_smooth's C1 deviation, recomputed: max |dv| + |dd1| of a window's
    Hermite piece against the profile's own dispatch on the window's 255
    interior radii."""
    rs = np.linspace(hermite.lo, hermite.hi, 257)[1:-1]
    new, old = hermite(rs), profile(rs)
    return float(np.max(np.abs(new.v - old.v) + np.abs(new.d1 - old.d1)))


def test_smooth_deviation_scales_with_window_and_jump(bubble_raw):
    # C1 deviation ~ window * |d2 jump| across the joint (pieces 0 and 1
    # meet at r1 = 2)
    base = bubble_raw.metric.A
    devs = {}
    for w in (1e-3, 2e-3, 4e-3):
        sm = c1_smooth(base, [(2.0, w)])
        hermite, = (p for p in sm.pieces if p.name == "smoothing_window")
        devs[w] = window_deviation(base, hermite)
    jump = abs(float(base.pieces[1](2.0).d2) - float(base.pieces[0](2.0).d2))
    for w, dev in devs.items():
        assert 0.02 * w * jump < dev < w * jump
    assert devs[2e-3] / devs[1e-3] == pytest.approx(2.0, rel=0.05)


def test_smoothing_error_names_the_joint_and_its_deviation():
    # one piece, so no d2 jump: the declared degradation is window * 1e-3,
    # which the curvature 0.025 * 40^2 of 2 + 0.025 sin(40 r) exceeds at a
    # window of 0.01 and not at 0.001
    wavy = Profile([Piece(0.0, 4.0, lambda rj: jet_sin(rj * 40.0) * 0.025 + 2.0)], "wavy")
    for window, raises in ((0.01, True), (0.001, False)):
        x0, x1 = 2.0 - window, 2.0 + window
        ends = wavy(np.array([x0, x1]))
        coeffs = quintic_hermite_coeffs(x0, ends.v[0], ends.d1[0], ends.d2[0],
                                        x1, ends.v[1], ends.d1[1], ends.d2[1])
        reference = Piece(x0, x1, smoothing_window,
                          {"at": 2.0, "window": window, "coeffs": coeffs})
        dev, limit = window_deviation(wavy, reference), window * 1e-3
        if raises:
            message = (f"C1 deviation {dev:.3e} exceeds declared degradation {limit:.3e} "
                       f"at r=2.0; use a smaller window")
            with pytest.raises(SmoothingError) as exc:
                c1_smooth(wavy, [(2.0, window)])
            assert str(exc.value) == message
            assert f"{dev:.3e}" == "2.417e-05"
        else:
            out = c1_smooth(wavy, [(2.0, window)])
            assert dev <= limit
            assert [p.name for p in out.pieces].count("smoothing_window") == 1


def test_smooth_window_cannot_cross_breakpoints(bubble_raw):
    # B has joints at r1/2 = 1 and r1 = 2; a window of 1.5 around r1
    # would swallow the first one
    with pytest.raises(ParameterError):
        c1_smooth(bubble_raw.metric.B, [(2.0, 1.5)])


# -- bubble -------------------------------------------------------------------

def make_f4_of_large_delta2():
    _, h3_r3 = make_h3(1e-3, 0.05, 2.0, 1e3, make_A(1e-3, 2.0))
    return make_f4(0.5, 0.9, 0.05, 1e3, h3_r3, make_f2(0.9, 0.5, 1.6e4))


K_R1_OUTSIDE = r"k\*r1 = 1\.57\d* outside \[pi/3, pi/2\)"


# kw: build_bubble's overrides, or the constructor to call
@pytest.mark.parametrize("kw, message", [
    # m rounds k*r1 up to pi/2
    ({"m": 1e-17}, K_R1_OUTSIDE),
    # a large delta2 with a small alpha2 makes the exterior coefficient >= 1
    ({"delta2": 0.9, "alpha2": 0.5}, r"delta = 1\.67\d* outside \(0, 1\)"),
    # each check raises in the constructor that computes its value
    pytest.param(lambda: make_A(1e-17, 2.0), K_R1_OUTSIDE, id="make_A"),
    # m = 2e-16 keeps k*r1 below pi/2 but rounds m r1/4 out of b
    pytest.param(lambda: make_B(2e-16, 2.0, make_A(2e-16, 2.0)),
                 r"^b = 1\.27\d* >= sqrt\(1-m\^2\)/k$", id="make_B"),
    pytest.param(make_f4_of_large_delta2, r"^delta = 1\.6768867218476853 outside \(0, 1\)$",
                 id="make_f4"),
])
def test_bubble_params_validate_names_the_failing_check(kw, message):
    with pytest.raises(ParameterError, match=message):
        if callable(kw):
            kw()
        else:
            build_bubble(**{"epsilon": 0.05, "alpha2": 0.01, "delta2": 0.01, "smooth": False,
                            **kw})


def test_bubble_core_plateau_identity():
    core = build_berger_core(m=1e-3, r1=2.0, r_max=1e3)
    k = core.A.pieces[0].params["k"]
    rs = np.linspace(0.05, 0.999, 200)
    blocks = core.blocks(rs)
    assert np.allclose(blocks.rr, k * k, rtol=1e-12)
    rs = np.geomspace(2.001, 999.0, 200)
    blocks = core.blocks(rs)
    a = core.A(rs).v
    assert np.max(np.abs(blocks.rr)) < 1e-15
    assert np.allclose(blocks.sX, 2 * (1 - 1e-6) / a**2, rtol=1e-9)


def test_bubble_parameters(bubble):
    p, tail = bubble.params, bubble.metric.f.pieces[-1].params
    assert bubble.metric.A.pieces[0].params["k"] == pytest.approx(0.784898, abs=1e-6)
    assert tail["R3"] > 0
    assert tail["alpha"] < p.alpha2
    assert 0 < tail["delta"] < 1
    # the glue reads the exterior as exact from 2 r3: no joint lies at or past it
    assert max(bubble.metric.A.breakpoints + bubble.metric.f.breakpoints) < 2 * p.r3


def test_bubble_exterior_exactness(bubble):
    # beyond 2 r3 both base and warp follow the closed cone form bit-exactly
    one_m_eps = 1.0 - bubble.params.epsilon
    tail = bubble.metric.f.pieces[-1].params
    R3 = tail["R3"]
    for r in (2e3, 2.7e3, 2.99e3):
        assert float(bubble.metric.A(r).v) == one_m_eps * (r - R3)
        assert float(bubble.metric.f(r).v) == tail["delta"] * (r - R3) ** tail["alpha"]


def test_bubble_c1_everywhere(bubble):
    bubble.metric.A.validate_c1()
    bubble.metric.B.validate_c1()
    bubble.metric.f.validate_c1()


def test_bubble_smoothing_keeps_oracle_clean_across_old_joints(bubble):
    # the former r1 breakpoint is now interior to a quintic window
    for r in (2.0, 1e3):
        formula = bubble.metric.blocks(r)
        oracle = fd_ricci_oracle(bubble.metric, r, h_fd=1e-5)
        for name in ("rr", "sX", "sYZ", "s2"):
            fv, ov = float(getattr(formula, name)), float(getattr(oracle, name))
            assert abs(ov - fv) <= max(2e-4, 1e-3 * abs(fv)), (r, name, fv, ov)


def test_smoothing_degrades_minima_within_declared_margin(bubble, bubble_raw):
    # smoothing may deepen block minima only by the d2-overshoot footprint:
    # |delta Ric| <= 3 * |d2 jump| / coefficient at each smoothed joint
    raw = verify_ric_lower(bubble_raw.metric, 0.0, GridConfig(points_per_piece=1024))
    smo = verify_ric_lower(bubble.metric, 0.0, GridConfig(points_per_piece=1024))
    budget = 0.0
    for prof in (bubble_raw.metric.A, bubble_raw.metric.B, bubble_raw.metric.f):
        for at in (2.0, 1e3):
            if at not in prof.breakpoints:
                continue
            i = prof.breakpoints.index(at)
            jump = abs(float(prof.pieces[i + 1](at).d2) - float(prof.pieces[i](at).d2))
            budget += 3.0 * jump / float(prof(at).v)
    for name in ("rr", "sX", "sYZ", "s2"):
        assert smo.block_min(name) >= raw.block_min(name) - budget, name


def test_bubble_known_negative_flattening_region(bubble):
    # r3 = 1e3 is far below the cone-flattening feasibility threshold, so the
    # radial block must dip negative just beyond r1 (measured, not assumed)
    blocks = bubble.metric.blocks(np.geomspace(2.01, 990.0, 512))
    assert blocks.rr.min() < -0.1
    assert blocks.sX.min() > 0  # the sphere blocks stay positive at alpha2 = 0.01
    assert blocks.s2.min() > 0


def test_bubble_alpha2_inversion():
    alpha2 = bubble_alpha2_for_alpha(0.01, 0.02, 1e-3, 2.0, 1e3)
    b = build_bubble(epsilon=0.02, alpha2=alpha2, delta2=0.01, r3=1e3, smooth=False)
    assert b.metric.f.pieces[-1].params["alpha"] == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("epsilon", [0.2, -0.5])
def test_alpha2_inversion_checks_epsilon_and_caches_nothing(cold, epsilon):
    message = f"^epsilon = {epsilon} outside \\(0, 1/10\\)$"
    with pytest.raises(ParameterError, match=message):
        build_bubble(**{**BUBBLE_KW, "epsilon": epsilon})
    with pytest.raises(ParameterError, match=message):
        bubble_alpha2_for_alpha(0.01, epsilon)
    assert construction._bubble_core.cache_info().currsize == 0


def test_make_B_rejects_only_an_m_that_rounds_out_of_b():
    # bubble_alpha2_for_alpha reads h3 from build_bubble's core (A, B, h3),
    # so it checks B as well.  b = A(r1) - m r1 T1/2 > A(r1)/2 on all of
    # make_A's domain, so only the upper check can fire, once m r1/4 rounds
    # out of b: below m = 3e-16, where build_bubble rejects the bubble with
    # the same error
    ms = np.concatenate([np.geomspace(1e-18, 0.01, 61)[:-1],
                         np.random.default_rng(0).uniform(0.0, 0.01, 40)])
    accepted, rejected = 0, []
    for m in ms.tolist():
        for r1 in np.geomspace(1e-6, 1e6, 13).tolist():
            try:
                A = make_A(m, r1)
            except ParameterError:
                continue
            try:
                make_B(m, r1, A)
                accepted += 1
            except ParameterError as exc:
                assert m < 3e-16 and " >= sqrt(1-m^2)/k" in str(exc), (m, r1, exc)
                rejected.append(m)
    assert accepted > 1000 and rejected
    with pytest.raises(ParameterError) as via_glue:
        bubble_alpha2_for_alpha(0.01, 0.02, 2e-16, 2.0, 1e3)
    with pytest.raises(ParameterError) as via_build:
        build_bubble(epsilon=0.02, alpha2=0.01, delta2=0.01, m=2e-16)
    assert str(via_glue.value) == str(via_build.value)


# -- build_bubble's caches -----------------------------------------------------

@pytest.mark.parametrize("smooth", [True, False])
def test_bubbles_differing_in_the_warp_share_their_base(cold, smooth):
    a = build_bubble(smooth=smooth, **BUBBLE_KW).metric
    for change in ({"alpha2": 0.2}, {"delta2": 0.3}):
        b = build_bubble(smooth=smooth, **{**BUBBLE_KW, **change}).metric
        assert b.A is a.A and b.B is a.B, change
        assert b.f is not a.f and b.f.descriptor() != a.f.descriptor(), change
    assert build_bubble(smooth=not smooth, **BUBBLE_KW).metric.A is not a.A


SCAN_GRID = GridConfig(points_per_piece=64, refine_factor=4)
SCAN_RANGES = {"alpha2": [0.005, 0.05, 0.7], "epsilon": [0.03, 0.06, 0.12],
               "smooth": [True, False]}


def scan_with_reports():
    """A scan's rows as JSON, and each built row's metric descriptor and
    verification report."""
    reports = []

    def builder(**kw):
        metric = build_bubble(**kw).metric
        report = verify_ric_lower(metric, 0.0, SCAN_GRID).as_dict()
        reports.append(json.dumps([metric.descriptor(), report]))
        return metric

    rows = scan_params(builder, {"delta2": 0.01}, SCAN_RANGES, 0.0, SCAN_GRID)
    return json.dumps(rows), reports


def test_scan_is_the_same_from_a_cold_and_a_warm_cache(cold):
    cold_rows, cold_reports = scan_with_reports()
    assert construction._bubble_base.cache_info().currsize == 4  # 2 epsilon x smooth
    warm_rows, warm_reports = scan_with_reports()
    assert construction._bubble_base.cache_info().hits >= 12
    assert len(cold_reports) == 8
    assert (warm_rows, warm_reports) == (cold_rows, cold_reports)


def test_int_and_float_r3_never_share_a_cache_entry(cold):
    as_int = build_bubble(smooth=False, **{**BUBBLE_KW, "r3": 1000}).metric
    as_float = build_bubble(smooth=False, **{**BUBBLE_KW, "r3": 1000.0}).metric
    assert as_int.A is not as_float.A and as_int.B is not as_float.B
    assert construction._bubble_core.cache_info().currsize == 2
    assert construction._bubble_base.cache_info().currsize == 2
    # a piece's ends keep the type of the r3 it was built from
    assert [type(p.hi) for p in as_int.A.pieces if p.hi == 1000] == [int]
    assert [type(p.hi) for p in as_float.A.pieces if p.hi == 1000] == [float]


@pytest.mark.parametrize("change", [
    {"epsilon": 0.2},                   # before the core
    {"m": 0.02},                        # make_A, in the core
    {"r3": 1.5},                        # make_h3, in the core
    {"alpha2": 0.7},                    # make_f2, after a cached core
    {"delta2": 0.9, "alpha2": 0.5},     # make_f4, after a cached core
])
def test_rejected_build_raises_the_same_message_twice(cold, change):
    build_bubble(**BUBBLE_KW)  # the core of the last two is cached
    messages = []
    for _ in range(2):
        with pytest.raises(ParameterError) as exc:
            build_bubble(**{**BUBBLE_KW, **change})
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_smoothed_scan_varying_only_alpha2_smooths_the_base_once(cold, monkeypatch):
    # twice for the base (A and B), then once per row for the warp's r3
    # window; building every row's base made 3 calls a row
    calls, smooth = [], construction.c1_smooth
    monkeypatch.setattr(construction, "c1_smooth",
                        lambda profile, windows: calls.append(profile.label) or
                        smooth(profile, windows))
    rows = scan_params(lambda **kw: build_bubble(**kw).metric,
                       {**BUBBLE_KW, "smooth": True}, {"alpha2": [0.005, 0.02, 0.05]},
                       0.0, SCAN_GRID)
    assert [row["built"] for row in rows] == [True] * 3
    assert calls == ["bubble_base_A", "bubble_base_B", "f4", "f4", "f4"]


def test_scan_varying_only_alpha2_evaluates_h3_at_r3_once(cold, monkeypatch):
    # make_h3 evaluates its flattening piece at r3 once, and the core caches
    # that value beside A, B and h3 for every row's make_f4; re-evaluating
    # it per row would cost about 31 us a build
    calls, call = [], Piece.__call__

    def counted(piece, r):
        if piece.rule is profiles.log_flatten and np.ndim(r) == 0:
            calls.append(float(r))
        return call(piece, r)

    monkeypatch.setattr(Piece, "__call__", counted)
    rows = scan_params(lambda **kw: build_bubble(**kw).metric,
                       {**BUBBLE_KW, "smooth": False}, {"alpha2": [0.005, 0.02, 0.05]},
                       0.0, SCAN_GRID)
    assert [row["built"] for row in rows] == [True] * 3
    assert calls == [1e3]
    _, _, h3, h3_r3 = construction._bubble_core(1e-3, 2.0, 1e3, 0.05)
    assert h3_r3 == float(h3.pieces[0](1e3).v)


# -- surgery -------------------------------------------------------------------

def test_surgery_exterior_bit_exact(surgery):
    # on [1, 2] the metric is the ambient model times the delta_hat scaling
    for r in (1.0, 1.31, 1.99):
        assert float(surgery.metric.A(r).v) == r  # kappa = 0: sn(r) = r
        assert float(surgery.metric.f(r).v) == 1e-3 * 1.0


def test_surgery_interior_cone_bit_exact(surgery):
    p, delta = surgery.params, surgery.metric.f.pieces[0].params["delta"]
    for r in (1e-4, 5e-4, 9.9e-4):
        assert float(surgery.metric.A(r).v) == (1.0 - p.epsilon) * r
        assert float(surgery.metric.f(r).v) == delta * r**p.alpha


def test_surgery_delta_formula_and_monotonicity():
    deltas = []
    for dh in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        s = build_surgery(**{**SURGERY_KW, "delta_hat": dh})
        delta = s.metric.f.pieces[0].params["delta"]  # the inner cone's delta r^alpha
        assert delta == pytest.approx(dh * 0.125 ** (-0.01), rel=1e-12)
        deltas.append(delta)
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_surgery_delta_hat_halved_keeps_base_fixed(surgery):
    half = build_surgery(**{**SURGERY_KW, "delta_hat": 5e-4})
    rs = np.geomspace(1e-5, 1.999, 300)
    assert np.array_equal(half.metric.A(rs).v, surgery.metric.A(rs).v)
    assert np.all(half.metric.f(rs).v < surgery.metric.f(rs).v)


def test_surgery_ricci_bound_with_measured_constant(surgery):
    p = surgery.params
    cfg = GridConfig(points_per_piece=1024, r_min=p.r_hat / 2, r_max=2.0)
    report = verify_ric_lower(surgery.metric, bound=p.lambda_bound - 150 * p.epsilon,
                              cfg=cfg)
    assert report.passed, report.summary()
    min_ric = min(report.block_min(k) for k in ("rr", "s3", "s2"))
    measured_C = (p.lambda_bound - min_ric) / p.epsilon
    assert measured_C < 150.0


def test_surgery_bilipschitz(surgery):
    sup = bilipschitz_check(surgery)
    assert sup <= 1 + 2 * surgery.params.epsilon
    assert sup == pytest.approx(1 / (1 - surgery.params.epsilon), rel=1e-6)


def test_bilipschitz_violation_names_its_radius(surgery):
    # a record claiming a smaller epsilon than the one the surgery was built
    # with: the cone's stretch 1/(1 - 0.02) exceeds 1 + 2 * 0.005
    claimed = dataclasses.replace(surgery, params=dataclasses.replace(surgery.params, epsilon=0.005))
    with pytest.raises(ConstructionError, match=r"^bi-Lipschitz bound violated: sup ratio "
                                                r"1\.02041 > 1\+2eps = 1\.01 at r = ") as exc:
        bilipschitz_check(claimed)
    assert 0.0 < named_radius(exc.value) <= 0.5


def test_surgery_curved_base_builds_and_verifies():
    s = build_surgery(kappa=-0.2, f0=1.0, lambda_bound=-0.7, epsilon=0.02,
                      alpha=0.01, r_hat=1e-3, delta_hat=1e-3)
    s.metric.A.validate_c1()
    cfg = GridConfig(points_per_piece=512, r_min=s.params.r_hat / 2, r_max=2.0)
    report = verify_ric_lower(s.metric, bound=s.params.lambda_bound - 150 * 0.02, cfg=cfg)
    assert report.passed, report.summary()
    assert bilipschitz_check(s) <= 1.04


def test_surgery_rejects_bad_radii():
    with pytest.raises(ParameterError):
        build_surgery(**{**SURGERY_KW, "r_hat": 0.2})


# -- glue -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def glued(surgery):
    alpha2 = bubble_alpha2_for_alpha(0.01, 0.02, 1e-3, 2.0, 1e3)
    b = build_bubble(epsilon=0.02, alpha2=alpha2, delta2=0.01, r3=1e3)
    return glue_bubble(surgery, b), b


def test_glue_collar_isometry_and_c1(glued):
    g, _ = glued
    g.A.validate_c1()
    g.f.validate_c1()
    shift, r_hat = g.params["shift"], 1e-3
    xs = np.linspace(shift + 0.55 * r_hat, shift + 0.95 * r_hat, 100)
    phi = g.A(xs).v
    expected = (1 - 0.02) * (xs - shift)
    assert np.allclose(phi, expected, rtol=1e-10)


def test_glue_collar_base_mismatch_names_its_radius(cold, monkeypatch, surgery, glued):
    # every glued piece 5e-10 high: within the joints' C1 tolerance (1e-9),
    # outside the collar's (1e-10)
    g, b = glued
    rescaled = construction.rescaled
    monkeypatch.setattr(construction, "rescaled",
                        lambda rj, **kw: rescaled(rj, **kw) * (1 + 5e-10))
    with pytest.raises(ConstructionError, match=r"^collar base mismatch: relative error "
                                                r".* > 1e-10 at x = ") as exc:
        glue_bubble(surgery, b)
    assert 0.55e-3 <= named_radius(exc.value) - g.params["shift"] <= 0.95e-3


def test_glue_collar_warp_mismatch_names_its_radius(monkeypatch, glued):
    # a surgery whose inner cone warp is 5e-10 above the delta r^alpha its
    # piece's delta says (within the joints' C1 tolerance): the surgery side
    # of the collar [0.75, 0.95] r_hat carries the wrong coefficient
    g, b = glued
    power_warp = profiles.power_warp
    monkeypatch.setattr(profiles, "power_warp",
                        lambda rj, **kw: power_warp(rj, **kw) * (1 + 5e-10))
    off = build_surgery(**SURGERY_KW)
    with pytest.raises(ConstructionError, match=r"^collar warp mismatch: relative error "
                                                r".* > 1e-10 at x = ") as exc:
        glue_bubble(off, b)
    assert 0.75e-3 <= named_radius(exc.value) - g.params["shift"] <= 0.95e-3


def test_glue_min_rule_coefficient(glued):
    g, b = glued
    assert g.params["common_delta"] == min(g.params["delta_I"], g.params["delta_II"])
    # warp on the collar carries the common coefficient
    shift = g.params["shift"]
    x = shift + 0.7e-3
    t = x - shift
    assert float(g.f(x).v) == pytest.approx(
        g.params["common_delta"] * t**0.01, rel=1e-10
    )


def test_glue_angle_mismatch_rejected(surgery):
    alpha2 = bubble_alpha2_for_alpha(0.01, 0.05, 1e-3, 2.0, 1e3)
    wrong = build_bubble(epsilon=0.05, alpha2=alpha2, delta2=0.01, r3=1e3)
    with pytest.raises(ParameterError):
        glue_bubble(surgery, wrong)


def test_glue_exponent_mismatch_rejected(surgery):
    alpha2 = bubble_alpha2_for_alpha(0.02, 0.02, 1e-3, 2.0, 1e3)
    wrong = build_bubble(epsilon=0.02, alpha2=alpha2, delta2=0.01, r3=1e3)
    with pytest.raises(ParameterError):
        glue_bubble(surgery, wrong)


def test_glue_piece_domain_error_names_the_rule_it_rescales(glued):
    # every glue piece's rule is rescaled: the message names the rule inside,
    # while the descriptor keeps the rule's own name
    h3, _ = make_h3(1e-3, 0.05, 2.0, 1e3, make_A(1e-3, 2.0))
    (piece,) = _affine_pieces(h3, 2.0, 0.0, 0.0, 100.0)
    message = (r"piece 'rescaled\(log_flatten\)' on \[4, 100\]: "
               r"ln of nonpositive value \(min v=-3\.0, 1 of 1 entries\)")
    with pytest.raises(JetDomainError, match=f"^{message}$"):
        piece(-12.0)
    assert piece.name == "rescaled"
    metric, _ = glued
    rules = {p["rule"] for p in metric.A.descriptor()["pieces"]}
    assert rules == {"rescaled"}


# -- blow-down ---------------------------------------------------------------------

def test_blowdown_regional_bounds(bubble):
    sup = blowdown_lipschitz(bubble)
    eps, m = bubble.params.epsilon, bubble.params.m
    assert sup <= (1 - eps) / m
    assert sup < math.pi * (1 - eps)  # the YZ bound dominates in practice


def test_blowdown_flat_degenerate_case(bubble):
    # lambda(r) = r keeps every core stretch in bounds but is not the exterior
    # isometry r - R3; the bubble's own blow-down gives the default sup
    ident = Profile([Piece(0.0, 1.5 * bubble.metric.r_range[1], lambda rj: rj)], "id")
    with pytest.raises(ConstructionError, match="not an isometry beyond r3"):
        blowdown_lipschitz(bubble, lam=ident)
    sup = blowdown_lipschitz(bubble, lam=bubble.blowdown())
    assert sup == blowdown_lipschitz(bubble) == pytest.approx(1.382254069670445, rel=1e-12)


@pytest.mark.parametrize("smooth", [True, False])
def test_blowdown_exterior_is_the_exact_affine_piece(cold, monkeypatch, smooth):
    # the isometry region starts at A's last piece, the exact affine past any
    # smoothing window at r3, read from the build rather than guessed from
    # the breakpoints near r3
    los, sup = [], construction.sampled_sup
    monkeypatch.setattr(construction, "sampled_sup",
                        lambda values, lo, hi: los.append(lo) or sup(values, lo, hi))
    b = build_bubble(smooth=smooth, **BUBBLE_KW)
    los.clear()
    blowdown_lipschitz(b)
    exterior = b.metric.A.pieces[-1]
    assert exterior.name == "affine" and los == [0.0, b.params.r1, exterior.lo]
    assert (exterior.lo > b.params.r3) == smooth



def test_blowdown_sup_on_a_span_of_many_decades():
    # r3 = 6.6e19 r1, and the sup sits on [r1, r3]; sampling that span from
    # 1e-8 r3 = 2.1e11 instead of from r1 would read 1.13
    b = build_bubble(epsilon=0.01, alpha2=0.1, delta2=0.01, m=1e-3, r1=0.32, r3=2.1e19,
                     smooth=False)
    lam = b.blowdown()
    rs = np.geomspace(0.32, 2.1e19, 200_001)
    dense = float(np.max(0.99 * lam(rs).v / b.metric.A(rs).v))
    assert dense == pytest.approx(5.03, abs=0.01)
    assert blowdown_lipschitz(b) == pytest.approx(dense, rel=1e-5)


def lam_line(bubble, slope, value=0.0, anchor=0.0):
    """A one-piece blow-down value + slope (r - anchor) past the bubble's end."""
    r_max = 1.5 * bubble.metric.r_range[1]
    return Profile([Piece(0.0, r_max, affine, {"value": value, "slope": slope, "anchor": anchor})],
                   "lam")


def lam_bent(bubble):
    """r up to r1, then r + (r - r1)^2: C1, and far above A on [r1, r3]."""
    r1, r_max = bubble.params.r1, 1.5 * bubble.metric.r_range[1]
    return Profile([Piece(0.0, r1, affine, {"value": 0.0, "slope": 1.0, "anchor": 0.0}),
                    Piece(r1, r_max, poly_in_t, {"coeffs": [r1, 1.0, 1.0], "x0": r1, "L": 1.0})],
                   "lam")


def thin_B(bubble):
    """The bubble with B a constant a quarter of its blow-down at r1."""
    quarter = float(bubble.blowdown()(bubble.params.r1).v) / 4
    B = Profile([Piece(0.0, 1.5 * bubble.metric.r_range[1], const, {"value": quarter})], "B")
    return Bubble(dataclasses.replace(bubble.metric, B=B), bubble.params)


@pytest.mark.parametrize("region, message, make", [
    ("core", r"lambda' on the core 1\.5 > 1", lambda b: (b, lam_line(b, 1.5))),
    ("core", r"Hopf stretch .* > pi/2 \(1-eps\)", lambda b: (b, lam_line(b, 0.5, value=1.0))),
    ("core", r"YZ stretch .* > pi \(1-eps\)", lambda b: (thin_B(b), None)),
    ("flattening", r"stretch on \[r1, r3\] .* > \(1-eps\)/m", lambda b: (b, lam_bent(b))),
    ("exterior", r"blow-down is not an isometry beyond r3: \|stretch - 1\| .* > 1e-9",
     lambda b: (b, lam_line(b, 1.0))),
    ("exterior", r"blow-down is not an isometry beyond r3: \|lambda' - 1\| .* > 1e-12",
     lambda b: (b, lam_line(b, 1 + 1e-11, anchor=b.metric.f.pieces[-1].params["R3"]))),
], ids=["core-slope", "core-hopf", "core-yz", "flattening", "exterior-stretch", "exterior-slope"])
def test_blowdown_bound_violation_names_its_radius(bubble, region, message, make):
    b, lam = make(bubble)
    with pytest.raises(ConstructionError, match=f"^{message} at r = ") as exc:
        blowdown_lipschitz(b, lam)
    r1, r3 = bubble.params.r1, bubble.params.r3
    lo, hi = {"core": (0.0, r1), "flattening": (r1, r3),
              "exterior": (r3, bubble.metric.r_range[1])}[region]
    assert lo < named_radius(exc.value) <= hi
