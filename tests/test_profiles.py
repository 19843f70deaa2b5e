"""Profile constructors: matching conditions, budgets, derivative checks."""

import math
from pathlib import Path

import numpy as np
import pytest
from conftest import bisect_root, fd_profile_check, named_radius

from warpforge import profiles, verify
from warpforge.cli import build, load_config
from warpforge.jets import Jet2, JetDomainError, jet_ln, jet_pow
from warpforge.profiles import (
    BRIDGE_PANELS,
    SUP_POINTS,
    ConstructionError,
    ParameterError,
    make_A,
    make_B,
    make_cubic_logwarp,
    make_f2,
    make_f4,
    make_h3,
    make_lambda,
    make_model_mu,
    make_step2_h,
    make_xi,
    affine,
    const,
    radial_grid,
    sampled_sup,
    Piece,
    Profile,
    _flat_step,
    _flat_step_integral,
    _flat_step_jet,
    _flat_step_quadrature,
)
from warpforge.verify import verify_ric_lower

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

M, R1 = 1e-3, 2.0


@pytest.fixture(scope="module")
def A():
    return make_A(M, R1, r_max=32.0)


@pytest.fixture(scope="module")
def B(A):
    return make_B(M, R1, A)


# -- make_A -----------------------------------------------------------------

def test_k_matches_bisection_oracle(A):
    # independent oracle: bisection on cos(k*r1) - m
    k_oracle = bisect_root(lambda k: math.cos(k * R1) - M, 1e-6, math.pi / (2 * R1))
    k = A.pieces[0].params["k"]  # sin_over_k's
    assert k == pytest.approx(k_oracle, abs=1e-12)
    assert k == pytest.approx(0.784898, abs=1e-6)  # frozen from oracle


def test_A_value_at_r1_trig_identity(A):
    k = A.pieces[0].params["k"]
    assert float(A(R1).v) == pytest.approx(math.sqrt(1 - M * M) / k, rel=1e-12)


def test_A_slope_continuity(A):
    left = A.pieces[0](R1)
    right = A.pieces[1](R1)
    assert left.d1 == pytest.approx(M, abs=1e-12)
    assert right.d1 == pytest.approx(M, abs=1e-15)


def test_A_rejects_bad_m():
    with pytest.raises(ParameterError):
        make_A(0.02, R1)
    with pytest.raises(ParameterError):
        make_A(0.0, R1)


# -- make_B -----------------------------------------------------------------

def test_B_bridge_endpoint_slopes(B):
    assert float(B(R1 / 2).d1) == pytest.approx(0.0, abs=1e-12)
    assert float(B.pieces[1](R1).d1) == pytest.approx(M, rel=1e-9)


def test_B_plateau_bound(B, A):
    # back-integration oracle: b = A(r1) - m * integral of the bridge slope
    k = A.pieces[0].params["k"]
    b = B.pieces[0].params["value"]
    assert b > 1.0 / (2 * k)
    assert 1.0 / (2 * k) == pytest.approx(0.637024, abs=1e-5)
    rs = np.linspace(R1 / 2, R1, 20001)
    slopes = B(rs).d1
    b_oracle = float(A(R1).v) - np.trapezoid(slopes, rs)
    assert b == pytest.approx(b_oracle, rel=1e-8)


def test_B_second_derivative_budget(B):
    rs = np.linspace(R1 / 2, R1, 20001)
    d2 = B(rs).d2
    assert d2.min() >= -1e-15
    assert d2.max() <= 4 * M / R1 * (1 + 1e-9)


def test_B_ordering_invariants(A, B):
    # B >= A and 0 <= B' <= m <= A' on [0, r1]
    rs = np.linspace(1e-6, R1, 2001)
    a, b = A(rs), B(rs)
    assert np.all(b.v >= a.v - 1e-12)
    assert np.all(b.d1 >= -1e-15) and np.all(b.d1 <= M + 1e-12)
    assert np.all(a.d1 >= M - 1e-12)


def test_bridge_table_matches_quadrature():
    t = np.random.default_rng(10).uniform(0.0, 1.0, 100_000)
    err = np.abs(_flat_step_integral(t) - _flat_step_quadrature(t))
    assert err.max() <= 2.3e-16
    # every table node gives the quadrature's value exactly
    nodes = np.arange(BRIDGE_PANELS + 1) / BRIDGE_PANELS
    assert np.array_equal(_flat_step_integral(nodes), _flat_step_quadrature(nodes))
    # clamped to 0 below t = 0, extended with slope 1 above t = 1
    T1 = _flat_step_quadrature(1.0)[0]
    outside = np.array([-1.0, -1e-300, 1.0 + 2.0**-52, 1.5, 3.0])
    expect = [0.0, 0.0, T1 + 2.0**-52, T1 + 0.5, T1 + 2.0]
    assert np.array_equal(_flat_step_integral(outside), expect)


@pytest.mark.parametrize("command, name", [
    ("bubble", "bubble.json"), ("verify", "bubble_broken.json"), ("glue", "glue.json"),
])
def test_bridge_B_within_one_ulp_of_quadrature(monkeypatch, command, name):
    # B on every radius the shipped config's verification samples, table
    # against the quadrature the table was built from
    cfg = load_config(CONFIGS / name, command)
    _, metric, bound, grid = build(cfg.get("target", command), cfg)
    seen, berger_jets = [], verify.berger_jets
    monkeypatch.setattr(verify, "berger_jets",
                        lambda *args: seen.append(args[-1]) or berger_jets(*args))
    verify_ric_lower(metric, bound, grid)
    rs = np.concatenate(seen)
    on_bridge = sum(((rs >= p.lo) & (rs < p.hi)).sum() for p in metric.B.pieces
                    if profiles.bump_bridge in (p.rule, p.params.get("rule")))
    assert on_bridge > 1000
    table = metric.B(rs).v
    monkeypatch.setattr(profiles, "_flat_step_integral", _flat_step_quadrature)
    quad = metric.B(rs).v
    assert np.all(np.abs(table - quad) <= np.spacing(np.abs(quad)))


def test_bridge_slope_channels_are_the_step_and_its_derivative(B):
    # the bridge reads the step once for both channels: bit for bit the
    # expressions that read it once per use
    bridge = B.pieces[1]
    L, m = bridge.lo, bridge.params["m"]
    rs = np.concatenate([np.linspace(L, R1, 4097),
                         np.random.default_rng(11).uniform(L, R1, 4096)])
    t = (rs - L) / L
    out = bridge(rs)
    d1 = m * _flat_step(t) * 1.0
    d2 = (m / L) * _flat_step_jet(t)[1] * 1.0 * 1.0 + m * _flat_step(t) * 0.0
    assert np.array_equal(out.d1.view(np.int64), d1.view(np.int64))
    assert np.array_equal(out.d2.view(np.int64), d2.view(np.int64))


# -- make_f2 ------------------------------------------------------------------

def test_f2_taylor_at_zero():
    f2 = make_f2(0.1, 0.5, r_max=10.0)
    out = f2(0.0)
    assert out.v == pytest.approx(0.1, abs=1e-15)
    assert out.d1 == pytest.approx(0.0, abs=1e-15)
    assert out.d2 == pytest.approx(0.05, abs=1e-12)


def test_f2_log_slope_bound():
    f2 = make_f2(0.1, 0.5, r_max=50.0)
    rs = np.geomspace(1e-4, 50.0, 3000)
    out = f2(rs)
    assert np.all(out.d1 / out.v <= 0.5 * 0.5 + 1e-12)
    assert np.allclose(out.d1 / out.v, 0.5 * rs / (1 + rs * rs), rtol=1e-10)


def test_f2_jets_match_fd():
    fd_profile_check(make_f2(0.1, 0.5, r_max=10.0), n=50, seed=5, rel=1e-6, lo=0.05)


# -- make_h3 ------------------------------------------------------------------

def test_h3_budget_arithmetic(A):
    h3, _ = make_h3(M, 0.05, R1, 1e6, A)
    c = h3.pieces[0].params["c"]
    assert c == pytest.approx((1 - 0.05 - M) / math.log(5e5), rel=1e-12)
    assert c == pytest.approx(0.0723191, abs=1e-6)  # frozen: direct arithmetic
    assert c <= 10 / math.log(1e6)


def test_h3_terminal_slope(A):
    h3, _ = make_h3(M, 0.05, R1, 1e3, A)
    assert float(h3(1e3).d1) == pytest.approx(1 - 0.05, rel=1e-12)
    assert float(h3(5e3).d1) == pytest.approx(1 - 0.05, rel=1e-15)


def test_h3_r_h3pp_budget_exact(A):
    h3, _ = make_h3(M, 0.05, R1, 1e3, A)
    rs = np.geomspace(R1, 1e3, 2000)[:-1]
    out = h3(rs)
    rh = rs * out.d2
    assert np.all(rh >= -1e-15)
    assert np.allclose(rh, h3.pieces[0].params["c"], rtol=1e-12)
    assert rh.max() <= 10 / math.log(1e3)


def test_h3_infeasible_budget_names_minimal_r3(A):
    with pytest.raises(ParameterError, match="minimal r3"):
        make_h3(M, 0.05, R1, 2.05, A)


def test_h3_jets_match_fd(A):
    fd_profile_check(make_h3(M, 0.05, R1, 1e3, A)[0], n=100, seed=2)


# -- make_f4 ------------------------------------------------------------------

@pytest.fixture(scope="module")
def f4_pair(A):
    eps, alpha2, delta2, r3 = 0.05, 0.01, 0.01, 1e3
    h3, h3_r3 = make_h3(M, eps, R1, r3, A)
    f2 = make_f2(delta2, alpha2, r_max=16 * r3)
    f4 = make_f4(alpha2, delta2, eps, r3, h3_r3, f2)
    return h3, f4


def test_f4_c1_matching(f4_pair):
    _, f4 = f4_pair
    r3 = 1e3
    left = f4.pieces[0](r3)
    right = f4.pieces[1](r3)
    assert abs(left.v - right.v) / abs(left.v) < 1e-9
    assert abs(left.d1 - right.d1) / abs(left.d1) < 1e-9


def test_f4_alpha_below_alpha2_and_R3_positive(f4_pair):
    h3, f4 = f4_pair
    assert f4.pieces[-1].params["alpha"] < 0.01
    # f4's tail and h3's affine piece hold the same R3, to the bit
    assert f4.pieces[-1].params["R3"] == h3.pieces[-1].params["anchor"] > 0


def test_f4_jets_match_fd(f4_pair):
    _, f4 = f4_pair
    fd_profile_check(f4, n=100, seed=3, lo=0.5)


def test_f4_non_finite_exponent_names_r3(A):
    # at r3 = 1e300, r3^2 overflows and the matching exponent is inf/inf
    eps, alpha2, delta2, r3 = 0.05, 0.01, 0.01, 1e300
    _, h3_r3 = make_h3(M, eps, R1, r3, A)
    f2 = make_f2(delta2, alpha2, r_max=16 * r3)
    with pytest.raises(ParameterError, match="r3 = 1e[+]300"):
        make_f4(alpha2, delta2, eps, r3, h3_r3, f2)


# -- make_lambda --------------------------------------------------------------

def test_lambda_anchors():
    lam = make_lambda(1e3, 159.0)
    assert float(lam(1e3).v) == pytest.approx(1e3 - 159.0, rel=1e-14)
    assert float(lam.pieces[0](1e3).d1) == pytest.approx(1.0, abs=1e-12)


def test_lambda_below_identity_and_convex():
    lam = make_lambda(1e3, 159.0)
    rs = np.geomspace(1e-3, 1.5e4, 1000)
    out = lam(rs)
    assert np.all(out.v <= rs * (1 + 1e-12))
    inside = rs < 1e3
    assert np.all(out.d1[inside] > 0) and np.all(out.d2[inside] > 0)


# -- make_step2_h --------------------------------------------------------------

def test_step2_h_anchors():
    eps = 0.05
    h = make_step2_h(eps)
    assert float(h(0.5).v) == pytest.approx((1 - eps) / 2, rel=1e-12)
    assert float(h(1.0).v) == pytest.approx(1.0, rel=1e-12)
    assert float(h(0.2).d2) == 0.0
    assert float(h(1.7).d2) == 0.0


def test_step2_h_bridge_budget():
    # exact anchors force max |h''| >= 12 eps (bang-bang lower bound), so
    # budgets below that are infeasible; the quintic is verified at 21 eps
    eps = 0.05
    rs = np.linspace(0.5, 1.0, 4001)
    out = make_step2_h(eps)(rs)
    worst = np.max(np.abs(out.v - rs) + np.abs(out.d1 - 1.0) + np.abs(out.d2))
    assert worst <= 21 * eps
    assert worst > 12 * eps


def test_step2_h_jets_match_fd():
    fd_profile_check(make_step2_h(0.05), n=100, seed=4, lo=0.05)


def test_step2_h_bridge_violation_names_its_radius(cold, monkeypatch):
    # K t^2 (1-t)^2 keeps the quintic's value and slope at both ends (so the
    # profile stays C1) and adds 2K/L^2 = 0.8 to |h''| there
    hermite = profiles.quintic_hermite_coeffs
    monkeypatch.setattr(profiles, "quintic_hermite_coeffs",
                        lambda *a: list(np.add(hermite(*a), [0, 0, 0.1, -0.2, 0.1, 0])))
    with pytest.raises(ConstructionError,
                       match=r"^bridge bound violated: .* > 21\*eps = 1\.05 at r = ") as exc:
        make_step2_h(0.05)
    assert 0.5 <= named_radius(exc.value) <= 1.0


# -- make_cubic_logwarp ---------------------------------------------------------

def constant_profile(c, r_max=2.0, label="fplus"):
    return Profile([Piece(0.0, r_max, const, {"value": c})], label)


def test_cubic_logwarp_constant_ambient():
    fp = constant_profile(3e-4)
    prof = make_cubic_logwarp(fp, alpha=0.01, r_m=0.125, eta=0.0)
    assert prof.pieces[0].params["delta"] == pytest.approx(3e-4 * 0.125 ** (-0.01), rel=1e-12)
    r2, r2p = (1 - 1 / 32) * 0.125, (1 + 1 / 32) * 0.125
    for r, side in ((r2, 0), (r2p, 1)):
        left = prof.pieces[side](r)
        right = prof.pieces[side + 1](r)
        assert abs(left.v - right.v) <= 1e-10 * abs(left.v)
        assert abs(left.d1 - right.d1) <= 1e-10 * max(1.0, abs(left.d1))


def test_cubic_logwarp_left_log_slope():
    fp = constant_profile(3e-4)
    prof = make_cubic_logwarp(fp, alpha=0.01, r_m=0.125, eta=0.0)
    r2 = (1 - 1 / 32) * 0.125
    out = prof.pieces[1](r2)  # interpolation side
    assert float(out.d1 / out.v) == pytest.approx(0.01 / r2, rel=1e-9)


def test_cubic_logwarp_concavity_bound():
    fp = constant_profile(3e-4)
    prof = make_cubic_logwarp(fp, alpha=0.01, r_m=0.125, eta=0.0)
    r2, r2p = (1 - 1 / 32) * 0.125, (1 + 1 / 32) * 0.125
    rs = np.linspace(r2, r2p, 10_000)[1:-1]
    out = prof(rs)
    assert np.all(out.d2 / out.v <= -0.01 / rs**2)


def test_cubic_logwarp_concavity_violation_names_its_radius():
    # an ambient warp 1 + 50 r is log-convex enough at r2p to break f''/f <= -alpha/r^2
    fp = Profile([Piece(0.0, 2.0, affine, {"value": 1.0, "slope": 50.0, "anchor": 0.0})], "fp")
    with pytest.raises(ParameterError, match=r"^concavity postcondition .* violated by .* "
                                             r"at r = .* use a smaller r_m$") as exc:
        make_cubic_logwarp(fp, alpha=0.01, r_m=0.125)
    assert (1 - 1 / 32) * 0.125 <= named_radius(exc.value) <= (1 + 1 / 32) * 0.125


def test_cubic_logwarp_smallness_violation_named():
    fp = constant_profile(3e-4)
    with pytest.raises(ParameterError, match="rho"):
        make_cubic_logwarp(fp, alpha=0.01, r_m=0.125, rho=1.0 / 16.0)
    with pytest.raises(ParameterError, match="eta|exp"):
        make_cubic_logwarp(fp, alpha=0.01, r_m=0.125, eta=0.5)


# -- make_xi / make_model_mu ------------------------------------------------------

def test_xi_endpoints():
    xi = make_xi(0.02)
    assert float(xi(0.02).v) == 0.0
    assert float(xi(0.04).v) == 1.0
    assert float(xi.pieces[1](0.02).d1) == pytest.approx(0.0, abs=1e-12)
    assert float(xi.pieces[1](0.04).d1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("K, message", [
    (5.0, r"\|xi''\| r\^2 = 40 > 19"),  # 2K/L^2 at 2 r3, times (2 r3)^2
    (20.0, r"\|xi'\| r = .* > 4"),
], ids=["second-derivative", "first-derivative"])
def test_xi_bound_violation_names_its_radius(cold, monkeypatch, K, message):
    # K t^2 (1-t)^2 keeps the step's ends at 0 and 1, both flat, so xi stays C1
    monkeypatch.setattr(profiles, "SMOOTHSTEP",
                        tuple(np.add(profiles.SMOOTHSTEP, np.multiply(K, [0, 0, 1, -2, 1, 0]))))
    with pytest.raises(ConstructionError, match=f"^cutoff bound violated: {message} at r = ") as exc:
        make_xi(0.02)
    assert 0.02 <= named_radius(exc.value) <= 0.04


def test_mu_limit_at_zero():
    for kappa in (-1.0, -0.3, 0.0, 0.5, 1.0):
        mu = make_model_mu(kappa, r_max=1.2)
        assert float(mu(1e-9).v) == pytest.approx(1.0, abs=1e-12)


def test_mu_series_closed_form_agree_near_switch():
    # below the switch the series must agree with the (cancellation-prone
    # but still usable) closed form sn(r)/r evaluated at the same radius
    for kappa, sn in ((-1.0, np.sinh), (0.7, lambda x: np.sin(x))):
        s = math.sqrt(abs(kappa))
        mu = make_model_mu(kappa, r_max=1.2)
        for r in (2e-4, 9e-4):
            out = mu(r)
            assert out.v == pytest.approx(sn(s * r) / (s * r), rel=1e-12)
            # d(mu)/dr ~ -kappa r / 3 near zero
            assert out.d1 == pytest.approx(-kappa * r / 3.0, rel=1e-5)
            assert out.d2 == pytest.approx(-kappa / 3.0, rel=1e-5)


def test_mu_quadratic_decay_kappa_one():
    # |mu - 1| <= (1/6 + margin) r^2 on (0, 1]
    mu = make_model_mu(1.0, r_max=1.2)
    rs = np.geomspace(1e-6, 1.0, 500)
    vals = mu(rs).v
    assert np.all(np.abs(vals - 1.0) <= (1.0 / 6.0 + 0.01) * rs * rs)


def test_mu_jets_match_fd():
    fd_profile_check(make_model_mu(-0.8, r_max=1.2), n=60, seed=6, lo=0.01)
    fd_profile_check(make_model_mu(0.8, r_max=1.2), n=60, seed=7, lo=0.01)


# -- profile plumbing ----------------------------------------------------------

def test_every_constructed_profile_passes_c1(A, B, f4_pair):
    h3, f4 = f4_pair
    for prof in (A, B, h3, f4, make_step2_h(0.03), make_xi(0.05), make_lambda(1e3, 100.0)):
        prof.validate_c1()


def test_profile_checks_its_joints_when_constructed():
    pieces = [Piece(0.0, 1.0, lambda rj: rj),
              Piece(1.0, 2.0, lambda rj: rj + 0.5)]
    with pytest.raises(ConstructionError, match=r"profile 'p' is not C1 at r=1\.0"):
        Profile(pieces, "p")


def test_one_piece_profile_is_not_evaluated_when_constructed():
    def rule(rj):
        raise AssertionError("rule evaluated")

    prof = Profile([Piece(0.0, 1.0, rule)], "p")
    assert prof.breakpoints == []


def test_profile_csv_roundtrip(tmp_path, A):
    rs = np.geomspace(0.1, 30.0, 57)
    path = tmp_path / "a.csv"
    A.export_csv(rs, path)
    rows = path.read_text().strip().splitlines()[1:]
    out = A(rs)
    for row, r, v, d1, d2 in zip(rows, rs, out.v, out.d1, out.d2):
        fr, fv, fd1, fd2 = (float(x) for x in row.split(","))
        assert (fr, fv, fd1, fd2) == (r, v, d1, d2)


def test_jets_match_fd_bubble_profiles(A, B):
    fd_profile_check(A, n=200, seed=1, lo=0.05)
    fd_profile_check(B, n=200, seed=1, lo=0.05)


def test_domain_error_reports_worst_value_and_count():
    # array failures name the smallest offending value, how many entries
    # offend and the piece's radius range, never a whole array repr
    def ln_shift(rj):
        return jet_ln(rj - 0.5)

    prof = Profile([Piece(0.0, 1.0, ln_shift), Piece(1.0, 4.0, ln_shift)], "p")
    cases = [
        (lambda: prof(np.array([0.0, 0.25, 0.5, 0.75, 0.9, 2.0])),
         r"piece 'ln_shift' on \[0, 1\]: ln of nonpositive value \(min v=-0\.5, 3 of 5 entries\)"),
        (lambda: prof(0.25),
         r"piece 'ln_shift' on \[0, 1\]: ln of nonpositive value \(min v=-0\.25, 1 of 1 entries\)"),
        (lambda: Jet2(1.0, 0.0, 0.0) / Jet2(np.array([1.0, 0.0, 0.0]), 1.0, 0.0),
         r"jet division by zero value \(min v=0\.0, 2 of 3 entries\)"),
        (lambda: jet_pow(Jet2(np.array([-2.0, 3.0]), 1.0, 0.0), 0.5),
         r"fractional power 0\.5 of nonpositive base \(min v=-2\.0, 1 of 2 entries\)"),
    ]
    for call, message in cases:
        with pytest.raises(JetDomainError, match=f"^{message}$") as info:
            call()
        assert "array(" not in str(info.value)


# -- radial_grid and sampled_sup ---------------------------------------------------

def test_radial_grid_floors_only_a_span_that_starts_at_zero():
    rs = radial_grid(0.0, 2.0, 5)
    assert rs[0] == 2e-8 and rs[-1] == 2.0 * (1 - 1e-12)
    # a span above r = 0 starts at its own lo, however many decades it spans
    assert radial_grid(0.32, 2.1e19, 5)[0] == 0.32
    assert np.all(np.diff(radial_grid(0.5, 1.0, 7)) > 0)


def test_sampled_sup_gives_each_rows_sup_and_its_radius():
    sizes = []

    def rows(rs):
        sizes.append(rs.size)
        return -np.log(rs / 3.0) ** 2, rs

    (peak, at), (top, top_at) = sampled_sup(rows, 1.0, 10.0)
    assert sizes == [SUP_POINTS] and SUP_POINTS >= 10_001
    assert peak == pytest.approx(0.0, abs=1e-7) and at == pytest.approx(3.0, rel=1e-3)
    assert top == top_at == 10.0 * (1 - 1e-12)
    # one row gives one pair; on a span from r = 0 the first radius is the floor
    [(sup, sup_at)] = sampled_sup(lambda rs: -rs, 0.0, 1.0)
    assert sup == -sup_at == -1e-8
