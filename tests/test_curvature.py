"""Closed-form Ricci blocks vs analytic identities and the fd oracle."""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from warpforge.cli import build, load_config
from warpforge.construction import build_bubble
from warpforge.jets import Jet2, JetDomainError, jet_var
from warpforge.curvature import (
    RicciBlocks,
    WarpedMetric,
    fd_ricci_oracle,
    ricci_berger,
    scale_warp,
)
from warpforge.profiles import (
    ParameterError,
    Piece,
    Profile,
    rule_affine,
    rule_const,
)
from warpforge.jets import jet_sin, jet_pow

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_piece(rule, name, r_max=4.0):
    return Profile([Piece(0.0, r_max, rule, name, {})], name)


def sin_profile(r_max=3.0):
    return single_piece(lambda rj: jet_sin(rj), "sin", r_max)


def id_profile(r_max=4.0):
    return single_piece(lambda rj: rj, "identity", r_max)


def const_profile(c, r_max=4.0):
    return single_piece(rule_const(c), "const", r_max)


def jet_at(profile, r):
    return profile(r)


# -- analytic identities -------------------------------------------------------


def test_round_s4_blocks_are_three():
    # phi = sin r, f const: the base is the unit round S^4, every block = 3
    for r in (0.3, 1.0, 2.2):
        phi = jet_at(sin_profile(), r)
        blocks = ricci_berger(phi, phi, Jet2(0.5, 0.0, 0.0))
        assert blocks.rr == pytest.approx(3.0, abs=1e-12)
        assert blocks.sX == pytest.approx(3.0, abs=1e-9)
        assert blocks.s2 == pytest.approx(1 / 0.25, rel=1e-12)


def test_flat_cone_with_small_sphere():
    phi = jet_var(1.7)
    blocks = ricci_berger(phi, phi, Jet2(0.1, 0.0, 0.0))
    assert blocks.rr == 0.0
    assert blocks.sX == pytest.approx(0.0, abs=1e-14)
    assert blocks.s2 == pytest.approx(100.0, rel=1e-12)


def test_warped_cone_closed_form():
    # phi = (1-eps) t, f = delta t^alpha
    eps, alpha, delta = 0.05, 0.2, 0.3
    for t in (0.7, 3.0, 40.0):
        tj = jet_var(t)
        phi = tj * (1 - eps)
        f = jet_pow(tj, alpha) * delta
        blocks = ricci_berger(phi, phi, f)
        assert blocks.rr == pytest.approx(-2 * alpha * (alpha - 1) / t**2, rel=1e-10)
        assert blocks.sX == pytest.approx(
            2 * (1 / (1 - eps) ** 2 - 1 - alpha) / t**2, rel=1e-10
        )
        s2_expected = (
            alpha * (1 - alpha) + t ** (2 - 2 * alpha) / delta**2 - alpha**2 - 3 * alpha
        ) / t**2
        assert blocks.s2 == pytest.approx(s2_expected, rel=1e-10)


def cone_warp_reference(phi, f):
    """Blocks of dr^2 + phi^2 g_{S^3} + f^2 g_{S^2} in their cone-form
    closed form: (rr, s3, s2)."""
    p, w = phi.v, f.v
    rr = -3.0 * phi.d2 / p - 2.0 * f.d2 / w
    s3 = 2.0 * (1.0 - phi.d1 * phi.d1) / (p * p) - phi.d2 / p - 2.0 * (phi.d1 / p) * (f.d1 / w)
    s2 = (1.0 - f.d1 * f.d1) / (w * w) - f.d2 / w - 3.0 * (f.d1 / w) * (phi.d1 / p)
    return rr, s3, s2


def test_berger_round_degeneration():
    # A = B reduces the Berger form to the cone form
    rng = np.random.default_rng(0)
    for _ in range(100):
        v, d1, d2 = rng.uniform(0.5, 2.0), rng.standard_normal(), rng.standard_normal()
        fv, fd1, fd2 = rng.uniform(0.2, 1.5), rng.standard_normal(), rng.standard_normal()
        phi, f = Jet2(v, d1, d2), Jet2(fv, fd1, fd2)
        bb = ricci_berger(phi, phi, f)
        rr, s3, s2 = cone_warp_reference(phi, f)
        assert bb.rr == pytest.approx(rr, rel=1e-10, abs=1e-10)
        assert bb.sX == pytest.approx(s3, rel=1e-10, abs=1e-10)
        assert bb.sYZ == pytest.approx(s3, rel=1e-10, abs=1e-10)
        assert bb.s2 == pytest.approx(s2, rel=1e-10, abs=1e-10)


def test_warp_from_base_gaussian_vs_oracle():
    # flat base, f = 0.4 exp(-r^2/4): the warped S^2 block against the oracle
    from warpforge.jets import jet_exp

    def f_rule(rj):
        return jet_exp(rj * rj * (-0.25)) * 0.4

    phi = id_profile()
    f = single_piece(f_rule, "gauss", r_max=4.0)
    m = WarpedMetric(phi, None, f, (0.1, 3.5), "flat_gauss")
    for r in (0.4, 1.0, 2.2):
        formula = m.blocks(r)
        oracle = fd_ricci_oracle(m, r)
        assert abs(float(oracle.s2) - float(formula.s2)) <= max(
            1e-5, 1e-4 * abs(float(formula.s2))
        )
        assert abs(float(oracle.rr) - float(formula.rr)) <= 1e-5


def ricci_berger_textbook(A, B, f):
    """The blocks written out term by term, each shared term recomputed in
    every block: the reference ricci_berger must round exactly like."""
    a, b, w = A.v, B.v, f.v
    rr = -A.d2 / a - 2.0 * B.d2 / b - 2.0 * f.d2 / w
    sX = (-A.d2 / a - 2.0 * A.d1 * B.d1 / (a * b) + 2.0 * a * a / b**4
          - 2.0 * A.d1 * f.d1 / (a * w))
    sYZ = (-B.d2 / b - A.d1 * B.d1 / (a * b) - (B.d1 / b) ** 2
           + 2.0 * (2.0 * b * b - a * a) / b**4 - 2.0 * B.d1 * f.d1 / (b * w))
    s2 = (1.0 / (w * w) - f.d2 / w - (f.d1 / w) ** 2 - A.d1 * f.d1 / (a * w)
          - 2.0 * B.d1 * f.d1 / (b * w))
    return rr, sX, sYZ, s2


def random_jet(rng, n):
    v = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), n))
    return Jet2(v, rng.normal(size=n) * v ** rng.uniform(-1, 1, n),
                rng.normal(size=n) * v ** rng.uniform(-2, 1, n))


@pytest.mark.parametrize("seed", range(5))
def test_ricci_berger_bit_identical_to_textbook(seed):
    rng = np.random.default_rng(seed)
    A, B, f = (random_jet(rng, 20_000) for _ in range(3))
    for b in (B, A):  # Berger, and the round case B is A
        got = ricci_berger(A, b, f)
        want = ricci_berger_textbook(A, b, f)
        for name, w in zip(("rr", "sX", "sYZ", "s2"), want):
            assert np.array_equal(getattr(got, name).view(np.uint64), w.view(np.uint64)), name


# -- scale_warp -----------------------------------------------------------------


def test_scale_warp_identity():
    blocks = RicciBlocks(1.0, 2.0, 2.0, 5.0)
    out = scale_warp(blocks, Jet2(0.3, 0.1, 0.0), 1.0)
    assert (out.rr, out.sX, out.sYZ, out.s2) == (1.0, 2.0, 2.0, 5.0)


def test_scale_warp_const_f_half():
    f = Jet2(0.5, 0.0, 0.0)
    blocks = ricci_berger(jet_var(2.0), jet_var(2.0), f)
    out = scale_warp(blocks, f, 0.5)
    assert blocks.s2 == pytest.approx(4.0, rel=1e-12)
    assert out.s2 == pytest.approx(16.0, rel=1e-12)


def test_scale_warp_monotone_random_profile():
    rng = np.random.default_rng(2)
    rs = rng.uniform(0.3, 3.0, size=1000)
    phi = jet_var(rs)
    f = Jet2(0.2 + 0.1 * np.sin(rs), 0.1 * np.cos(rs), -0.1 * np.sin(rs))
    blocks = ricci_berger(phi, phi, f)
    prev = blocks.s2
    for lam in (1.0, 0.5, 0.1, 0.01):
        out = scale_warp(blocks, f, lam)
        assert np.all(out.s2 >= prev - 1e-12)
        assert out.rr is blocks.rr and out.sX is blocks.sX
        prev = out.s2


def test_scale_warp_rejects_bad_lambda():
    with pytest.raises(ParameterError):
        scale_warp(RicciBlocks(0, 0, 0, 0), Jet2(1.0, 0, 0), 1.5)


def test_nonpositive_profile_value_is_domain_error():
    with pytest.raises(JetDomainError):
        ricci_berger(Jet2(-1.0, 0.0, 0.0), Jet2(-1.0, 0.0, 0.0), Jet2(1.0, 0.0, 0.0))


# -- fd oracle -------------------------------------------------------------------


def cone_metric(phi_profile, f_profile, r_range, label):
    return WarpedMetric(phi_profile, None, f_profile, r_range, label)


def test_oracle_round_s4():
    m = cone_metric(sin_profile(), const_profile(0.5, r_max=3.0), (0.1, 3.0), "roundS4")
    for r in (0.5, 1.1, 2.0):
        blocks = fd_ricci_oracle(m, r)
        assert blocks.rr == pytest.approx(3.0, abs=1e-5)
        assert blocks.sX == pytest.approx(3.0, abs=1e-5)
        assert blocks.sYZ == pytest.approx(3.0, abs=1e-5)
        assert blocks.s2 == pytest.approx(4.0, abs=2e-5)
        assert blocks.cross_ir_mag < 1e-6


def test_oracle_flat_r4_times_sphere():
    m = cone_metric(id_profile(), const_profile(0.1), (0.05, 4.0), "flatxS2")
    for r in (0.3, 1.0, 3.0):
        blocks = fd_ricci_oracle(m, r)
        assert blocks.rr == pytest.approx(0.0, abs=1e-4)
        assert blocks.sX == pytest.approx(0.0, abs=1e-4)
        assert blocks.s2 == pytest.approx(100.0, rel=1e-4)


def test_oracle_matches_closed_form_generic_smooth():
    # a deliberately lumpy smooth cone-warp metric
    def phi_rule(rj):
        return rj * (1.0 + 0.1 * jet_sin(rj))

    def f_rule(rj):
        return (0.3 + 0.05 * jet_sin(rj * 2.0)) * jet_pow(rj * rj + 1.0, 0.1)

    m = cone_metric(
        single_piece(phi_rule, "lumpy_phi"),
        single_piece(f_rule, "lumpy_f"),
        (0.2, 3.5),
        "lumpy",
    )
    rng = np.random.default_rng(3)
    for r in rng.uniform(0.3, 3.2, size=12):
        formula = m.blocks(float(r))
        oracle = fd_ricci_oracle(m, float(r))
        for name in ("rr", "sX", "sYZ", "s2"):
            fv, ov = getattr(formula, name), getattr(oracle, name)
            assert abs(ov - fv) <= max(1e-5, 1e-4 * abs(fv)), (name, r, fv, ov)


def test_oracle_berger_vs_closed_form():
    # squashed Berger sphere with warp: A != B exercises the Hopf block
    A = single_piece(lambda rj: jet_sin(rj) * 0.8, "A", r_max=3.0)
    B = single_piece(lambda rj: jet_sin(rj) * 0.9 + 0.1, "B", r_max=3.0)
    f = single_piece(lambda rj: (rj * 0.05 + 0.3), "f", r_max=3.0)
    m = WarpedMetric(A, B, f, (0.3, 2.8), "berger_test")
    for r in (0.6, 1.3, 2.4):
        formula = m.blocks(r)
        oracle = fd_ricci_oracle(m, r)
        for name in ("rr", "sX", "sYZ", "s2"):
            fv, ov = getattr(formula, name), getattr(oracle, name)
            assert abs(ov - fv) <= max(1e-5, 1e-4 * abs(fv)), (name, r, fv, ov)
        assert oracle.cross_ir_mag < 1e-5


def test_oracle_zoom_handles_extreme_radii():
    # scale invariance of the zoomed chart: flat cone at huge and tiny radii
    m = cone_metric(
        single_piece(lambda rj: rj * 0.95, "cone95", r_max=1e9),
        single_piece(lambda rj: jet_pow(rj, 0.01) * 0.001, "warp", r_max=1e9),
        (1e-6, 1e9),
        "zoom",
    )
    for r in (1e-4, 1.0, 1e6):
        formula = m.blocks(r)
        oracle = fd_ricci_oracle(m, r)
        for name in ("rr", "sX", "s2"):
            fv, ov = getattr(formula, name), getattr(oracle, name)
            assert abs(ov - fv) <= max(1e-7 / r**2, 1e-4 * abs(fv)), (name, r, fv, ov)


def test_oracle_rejects_breakpoint_proximity():
    phi = Profile(
        [
            Piece(0.0, 1.0, lambda rj: rj, "id", {}),
            Piece(1.0, 3.0, rule_affine(1.0, 1.0, 1.0), "affine", {}),
        ],
        "split",
    )
    m = cone_metric(phi, const_profile(0.2, r_max=3.0), (0.1, 3.0), "split")
    with pytest.raises(ParameterError):
        fd_ricci_oracle(m, 1.0005)


def test_oracle_reads_each_profile_once_per_call(monkeypatch):
    # the nested 5-point stencils make 169 chart points per radius; the chart
    # reads each profile once per fd_ricci_oracle call, at all their radii
    metric = build_bubble(epsilon=0.05, alpha2=0.01, delta2=0.01).metric
    calls = Counter()
    evaluate = Profile.__call__

    def counted(self, r):
        calls[self.label] += 1
        return evaluate(self, r)

    monkeypatch.setattr(Profile, "__call__", counted)
    for r0 in (0.7, 50.0, 2500.0, np.array([0.7, 1.4, 50.0, 2500.0])):
        calls.clear()
        fd_ricci_oracle(metric, r0)
        assert calls == {"bubble_base_A": 1, "bubble_base_B": 1, "f4": 1}, (r0, calls)


def _block_bits(blocks):
    return np.stack([np.asarray(getattr(blocks, k), dtype=float)
                     for k in ("rr", "sX", "sYZ", "s2", "cross_ir_mag")]).view(np.uint64)


@pytest.mark.parametrize("name", ["bubble", "surgery", "glue"])
def test_oracle_batch_equals_one_radius_calls(name):
    # one batched call per piece must give every radius the blocks of a call
    # on that radius alone, bit for bit, with fields shaped like the input
    _, metric, _, _ = build(name, load_config(CONFIGS / f"{name}.json", name))
    rng = np.random.default_rng(5)
    for lo, hi, *_ in metric.verification_pieces():
        lo = max(lo, 0.04 * hi)
        h_fd = min(1e-4, (hi - lo) / hi / 50.0)
        if h_fd < 1e-7:
            continue
        rs = np.exp(rng.uniform(np.log(lo * (1 + 12 * h_fd)), np.log(hi * (1 - 12 * h_fd)), 6))
        batch = fd_ricci_oracle(metric, rs, h_fd=h_fd)
        assert all(np.shape(getattr(batch, k)) == rs.shape
                   for k in ("rr", "sX", "sYZ", "s2", "cross_ir_mag"))
        alone = [fd_ricci_oracle(metric, float(r), h_fd=h_fd) for r in rs]
        assert all(np.shape(b.rr) == () for b in alone)
        assert np.array_equal(_block_bits(batch), np.stack([_block_bits(b) for b in alone], 1)), \
            (name, lo, hi)
        grid = fd_ricci_oracle(metric, rs.reshape(2, 3), h_fd=h_fd)
        assert np.array_equal(_block_bits(grid).reshape(5, -1), _block_bits(batch))
