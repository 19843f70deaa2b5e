"""Closed-form Ricci blocks vs analytic identities and the fd oracle."""

import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from warpforge.cli import build, load_config
from warpforge.construction import build_bubble
from warpforge.jets import Jet2, JetDomainError, jet_var
from warpforge import curvature, verify
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
    affine,
    const,
)
from warpforge.jets import jet_sin, jet_pow
from warpforge.verify import GridConfig, verify_ric_lower

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def single_piece(rule, name, r_max=4.0, **params):
    return Profile([Piece(0.0, r_max, rule, params)], name)


def sin_profile(r_max=3.0):
    return single_piece(lambda rj: jet_sin(rj), "sin", r_max)


def id_profile(r_max=4.0):
    return single_piece(lambda rj: rj, "identity", r_max)


def const_profile(c, r_max=4.0):
    return single_piece(const, "const", r_max, value=c)


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
    m = WarpedMetric(phi, phi, f, (0.1, 3.5), "flat_gauss")
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
    return WarpedMetric(phi_profile, phi_profile, f_profile, r_range, label)


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
            Piece(0.0, 1.0, lambda rj: rj),
            Piece(1.0, 3.0, affine, {"value": 1.0, "slope": 1.0, "anchor": 1.0}),
        ],
        "split",
    )
    m = cone_metric(phi, const_profile(0.2, r_max=3.0), (0.1, 3.0), "split")
    with pytest.raises(ParameterError):
        fd_ricci_oracle(m, 1.0005)


def test_oracle_reads_each_profile_once_per_call(monkeypatch):
    # the nested 5-point stencils make 169 chart points per radius, of which
    # the 5 x 5 radial sub-stencil holds every distinct rho, 9 at H_FD; the
    # chart reads each profile once per fd_ricci_oracle call, at those 9
    # radii per radius
    metric = build_bubble(epsilon=0.05, alpha2=0.01, delta2=0.01).metric
    calls, points = Counter(), Counter()
    evaluate = Profile.__call__

    def counted(self, r):
        calls[self.label] += 1
        points[self.label] += np.size(r)
        return evaluate(self, r)

    monkeypatch.setattr(Profile, "__call__", counted)
    for r0 in (0.7, 50.0, 2500.0, np.array([0.7, 1.4, 50.0, 2500.0])):
        calls.clear()
        points.clear()
        fd_ricci_oracle(metric, r0)
        assert calls == {"bubble_base_A": 1, "bubble_base_B": 1, "f4": 1}, (r0, calls)
        assert set(points.values()) == {9 * np.size(r0)}, (r0, points)
    # past the cap, once per chunk of at most ORACLE_CHUNK radii
    calls.clear()
    fd_ricci_oracle(metric, np.linspace(40.0, 60.0, 2 * curvature.ORACLE_CHUNK + 1))
    assert calls == {"bubble_base_A": 3, "bubble_base_B": 3, "f4": 3}, calls


def test_stencil_radii_are_the_distinct_radii_of_the_chart():
    # 9 distinct rho at H_FD, sorted, each the radius times its rho; at
    # another step the sums may round apart into more, never beyond 25
    r = np.array([0.7, 50.0])
    rs = curvature.stencil_radii(r)
    assert rs.shape == (2, 9) and np.all(np.diff(rs, axis=1) > 0)
    rho, where = curvature._radial_factors(curvature.H_FD)
    offs = np.concatenate([[0.0], curvature._OFFS * curvature.H_FD])
    sub = (1.0 + offs[:, None]) + offs
    assert np.array_equal(rho, np.unique(sub)) and where.shape == (13, 13)
    assert np.array_equal(rho[where[:5, :5]], sub)
    assert np.array_equal(rs, r[:, None] * rho)
    assert curvature.stencil_radii(1.0, 1e-5).shape == (1, 14)


def test_oracle_takes_the_profile_values_it_is_given():
    # the values at stencil_radii are the oracle's only reads of the metric:
    # given the profiles' own values it matches its own reads bit for bit,
    # and values of any other shape are refused
    metric = build_bubble(epsilon=0.05, alpha2=0.01, delta2=0.01).metric
    rs = np.array([0.7, 1.4, 50.0, 2500.0])
    radial = metric.coefficients(curvature.stencil_radii(rs))
    given = fd_ricci_oracle(metric, rs, radial=radial)
    assert np.array_equal(_block_bits(given), _block_bits(fd_ricci_oracle(metric, rs)))
    with pytest.raises(ParameterError, match="radial"):
        fd_ricci_oracle(metric, rs[:3], radial=radial)
    with pytest.raises(ParameterError, match="radial"):
        fd_ricci_oracle(metric, rs, radial=radial[:2])


def _block_bits(blocks):
    return np.stack([np.asarray(getattr(blocks, k), dtype=float)
                     for k in ("rr", "sX", "sYZ", "s2", "cross_ir_mag")]).view(np.uint64)


def _piece_radii(metric, rng, k):
    """(k radii, h_fd) per piece wide enough to difference, as in verify."""
    for lo, hi, *_ in metric.verification_pieces():
        lo = max(lo, 0.04 * hi)
        h_fd = min(1e-4, (hi - lo) / hi / 50.0)
        if h_fd >= 1e-7:
            yield np.exp(rng.uniform(np.log(lo * (1 + 12 * h_fd)),
                                     np.log(hi * (1 - 12 * h_fd)), k)), h_fd


def _assert_joined_call_matches(metric, pieces):
    """One call per step on the joined radii of pieces [(radii, h_fd,
    blocks of the piece's own call)] gives each radius its piece's bits."""
    for h_fd in {h for _, h, _ in pieces}:
        same = [(rs, blocks) for rs, h, blocks in pieces if h == h_fd]
        joined = fd_ricci_oracle(metric, np.concatenate([rs for rs, _ in same]), h_fd=h_fd)
        want = np.concatenate([_block_bits(blocks) for _, blocks in same], axis=1)
        assert np.array_equal(_block_bits(joined), want), (metric.label, h_fd)


@pytest.mark.parametrize("name", ["bubble", "surgery", "glue"])
def test_oracle_batch_equals_one_radius_calls(name):
    # one batched call per piece must give every radius the blocks of a call
    # on that radius alone, bit for bit, with fields shaped like the input
    _, metric, _, _ = build(name, load_config(CONFIGS / f"{name}.json", name))
    pieces = []
    for rs, h_fd in _piece_radii(metric, np.random.default_rng(5), 6):
        batch = fd_ricci_oracle(metric, rs, h_fd=h_fd)
        assert all(np.shape(getattr(batch, k)) == rs.shape
                   for k in ("rr", "sX", "sYZ", "s2", "cross_ir_mag"))
        alone = [fd_ricci_oracle(metric, float(r), h_fd=h_fd) for r in rs]
        assert all(np.shape(b.rr) == () for b in alone)
        assert np.array_equal(_block_bits(batch), np.stack([_block_bits(b) for b in alone], 1)), \
            (name, rs)
        grid = fd_ricci_oracle(metric, rs.reshape(2, 3), h_fd=h_fd)
        assert np.array_equal(_block_bits(grid).reshape(5, -1), _block_bits(batch))
        pieces.append((rs, h_fd, batch))
    # every piece's radii in one call, as verify makes it
    _assert_joined_call_matches(metric, pieces)
    # more radii than one chunk: the joined call crosses chunk boundaries
    k = curvature.ORACLE_CHUNK // 2 + 1
    pieces = [(rs, h_fd, fd_ricci_oracle(metric, rs, h_fd=h_fd))
              for rs, h_fd in _piece_radii(metric, np.random.default_rng(6), k)]
    assert len(pieces) * k > curvature.ORACLE_CHUNK
    _assert_joined_call_matches(metric, pieces)


def test_oracle_memory_is_bounded_by_the_chunk():
    # the radii are differenced ORACLE_CHUNK at a time, so a call on 8 chunks
    # peaks about where a call on one does, not 8 times higher
    _, metric, _, _ = build("glue", load_config(CONFIGS / "glue.json", "glue"))
    lo, hi, *_ = metric.verification_pieces()[5]
    fd_ricci_oracle(metric, 0.5 * (lo + hi))

    def peak(n):
        rs = np.geomspace(lo * 1.01, hi * 0.99, n)
        tracemalloc.start()
        try:
            fd_ricci_oracle(metric, rs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(curvature.ORACLE_CHUNK), peak(8 * curvature.ORACLE_CHUNK)
    assert eight <= 1.25 * one, (one, eight)


@pytest.mark.parametrize("r0", [np.array([]), np.zeros((0, 3)), []], ids=["1d", "2d", "list"])
def test_oracle_empty_input_gives_empty_blocks(r0):
    m = cone_metric(sin_profile(), const_profile(0.5, r_max=3.0), (0.1, 3.0), "roundS4")
    blocks = fd_ricci_oracle(m, r0)
    for k in ("rr", "sX", "sYZ", "s2", "cross_ir_mag"):
        assert np.shape(getattr(blocks, k)) == np.shape(r0), k


@pytest.mark.parametrize("h_fd", [0.0, -1e-4, math.nan, math.inf, "1e-4", None])
def test_oracle_rejects_bad_step(h_fd):
    # h_fd = 0 used to return all-NaN blocks behind a RuntimeWarning
    m = cone_metric(sin_profile(), const_profile(0.5, r_max=3.0), (0.1, 3.0), "roundS4")
    with pytest.raises(ParameterError, match="h_fd"):
        fd_ricci_oracle(m, 1.5, h_fd=h_fd)


# -- the oracle against its dense reference --------------------------------------


def _stencil_steps_dense(h):
    """(n, 13, 6) steps of one 5-point stencil per radius: slot 0 is the
    center, slot 1 + 4k + j steps by _OFFS[j] * h along _VARYING[k]."""
    steps = np.zeros((len(h), 13, 6))
    for k, c in enumerate(curvature._VARYING):
        steps[:, 1 + 4 * k:5 + 4 * k, c] = curvature._OFFS * h[:, c, None]
    return steps


def _by_value_dense(x, *fns):
    """Each fn at each entry of x, called once per distinct value."""
    values, where = np.unique(x, return_inverse=True)
    return tuple(np.array([fn(v) for v in values.tolist()])[where].reshape(x.shape)
                 for fn in fns)


def _chart_metric_dense(metric, r0, x):
    """The full (..., 6, 6) coordinate metric at chart points x (..., 6),
    zoomed by 1/r0; the coefficients are read at the distinct radii."""
    rho, theta, u = x[..., 0], x[..., 1], x[..., 4]
    radii, where = np.unique(rho * r0, return_inverse=True)
    where, s = where.reshape(rho.shape), 1.0 / r0
    a, b, w = (s * c[where] for c in metric.coefficients(radii))
    ct, st = _by_value_dense(theta, math.cos, math.sin)
    (su2,) = _by_value_dense(u, lambda t: math.sin(t) ** 2)
    g = np.zeros(rho.shape + (6, 6))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 0.25 * b * b
    g[..., 2, 2] = 0.25 * (b * b * st * st + a * a * ct * ct)
    g[..., 3, 3] = 0.25 * a * a
    g[..., 2, 3] = g[..., 3, 2] = 0.25 * a * a * ct
    g[..., 4, 4] = w * w
    g[..., 5, 5] = w * w * su2
    return g


def _block_inverse_dense(g):
    """Inverse of g (..., 6, 6) with blocks {rho},{theta},{phi,psi},{u},{v}."""
    inv = np.zeros_like(g)
    for i in (0, 1, 4, 5):
        inv[..., i, i] = 1.0 / g[..., i, i]
    det = g[..., 2, 2] * g[..., 3, 3] - g[..., 2, 3] * g[..., 3, 2]
    inv[..., 2, 2] = g[..., 3, 3] / det
    inv[..., 3, 3] = g[..., 2, 2] / det
    inv[..., 2, 3] = inv[..., 3, 2] = -g[..., 2, 3] / det
    return inv


def _derivative_dense(f, h):
    """Every entry of f differenced along each varying coordinate in turn."""
    out = np.zeros(f.shape[:1] + (6,) + f.shape[2:])
    for k, c in enumerate(curvature._VARYING):
        acc = np.zeros_like(f[:, 0])
        for j, wgt in enumerate(curvature._W5):
            acc += wgt * (f[:, 1 + 4 * k + j] - f[:, 0])
        out[:, c] = acc / h[:, c].reshape((-1,) + (1,) * (acc.ndim - 1))
    return out


def _dense_chart(metric, r, h_fd):
    """(h, g): per-radius steps and the full metric on each radius' 13 x 13
    nested stencil, (n, 13, 13, 6, 6)."""
    lo, hi = metric.r_range
    edges = np.array(metric.breakpoints() + [lo, hi])
    margin = np.min(np.abs(r[:, None] - edges) / r[:, None], axis=1)
    h = np.full((r.size, 6), h_fd)
    h[:, 0] = np.minimum(h_fd, margin / 8.0)
    steps = _stencil_steps_dense(h)
    x = np.array([1.0, curvature._THETA0, curvature._PHI0, curvature._PSI0,
                  curvature._U0, curvature._V0]) + steps[:, :, None]
    return h, _chart_metric_dense(metric, r[:, None, None], x + steps[:, None])


def fd_ricci_oracle_dense(metric, r, h_fd):
    """fd_ricci_oracle on the dense 6 x 6 algebra: every entry differenced,
    the index raised by a full einsum with g^{-1}, and each frame pair
    projected by its own e @ Ric @ e, one radius at a time."""
    h, g = _dense_chart(metric, r, h_fd)
    dg = _derivative_dense(g.reshape((-1,) + g.shape[2:]), np.repeat(h, 13, axis=0))
    dg = dg.reshape(g.shape[:2] + (6, 6, 6))
    sym = dg + dg.swapaxes(-1, -3) - dg.swapaxes(-2, -3)
    gamma = 0.5 * np.einsum("...ad,...bdc->...abc", _block_inverse_dense(g[:, :, 0]), sym)
    dgamma = _derivative_dense(gamma, h)
    g0 = g[:, 0, 0]
    a, b, w = np.sqrt(4.0 * g0[:, 3, 3]), np.sqrt(4.0 * g0[:, 1, 1]), np.sqrt(g0[:, 4, 4])
    frame = np.zeros((r.size, 5, 6))
    frame[:, 0, 0] = 1.0
    frame[:, 1, 3] = 2.0 / a
    frame[:, 2, 1] = 2.0 / b
    frame[:, 3, 2] = 2.0 / (b * math.sin(curvature._THETA0))
    frame[:, 3, 3] = frame[:, 3, 2] * -math.cos(curvature._THETA0)
    frame[:, 4, 4] = 1.0 / w
    gam = gamma[:, 0]
    ricci = (np.einsum("...aabd->...bd", dgamma) - np.einsum("...daba->...bd", dgamma)
             + np.einsum("...aae,...ebd->...bd", gam, gam)
             - np.einsum("...ade,...eba->...bd", gam, gam))
    pairs = np.empty((r.size, 8))
    for i, (e, ric) in enumerate(zip(frame, ricci)):
        pairs[i] = [e[j] @ ric @ e[l] for j, l in
                    ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 1), (0, 2), (0, 3))]
    scale = 1.0 / (r * r)
    return RicciBlocks(pairs[:, 0] * scale, pairs[:, 1] * scale,
                       0.5 * (pairs[:, 2] + pairs[:, 3]) * scale, pairs[:, 4] * scale,
                       np.max(np.abs(pairs[:, 5:]), axis=1) * scale)


def _oracle_calls(monkeypatch, metric, cfg):
    """(radii, h_fd, blocks) of every oracle call one verify makes, on the
    profile values verify hands it."""
    calls = []

    def recorded(m, r0, h_fd, radial):
        blocks = fd_ricci_oracle(m, r0, h_fd=h_fd, radial=radial)
        calls.append((r0, h_fd, blocks))
        return blocks

    monkeypatch.setattr(verify, "fd_ricci_oracle", recorded)
    verify_ric_lower(metric, 0.0, cfg)
    return calls


@pytest.mark.parametrize("name", ["bubble", "surgery", "glue"])
def test_oracle_bit_identical_to_dense_reference(monkeypatch, name):
    # each oracle-sampled piece of the shipped targets, at criterion 5's grid;
    # the oracle reads the values of verify's own evaluation of each piece,
    # the reference reads the profiles, so this also checks that every
    # stencil radius lies in its radius' verification piece
    _, metric, _, _ = build(name, load_config(CONFIGS / f"{name}.json", name))
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=8, seed=11)
    calls = _oracle_calls(monkeypatch, metric, cfg)
    assert calls
    for rs, h_fd, blocks in calls:
        want = fd_ricci_oracle_dense(metric, rs, h_fd)
        assert np.array_equal(_block_bits(blocks), _block_bits(want)), (name, rs.min(), rs.max())


@pytest.mark.parametrize("name", ["bubble", "surgery", "glue"])
def test_verify_makes_one_oracle_call(monkeypatch, name):
    # every sampled piece of the shipped targets takes the full step, so the
    # oracle check of a verify at criterion 5's grid is one batch
    _, metric, _, _ = build(name, load_config(CONFIGS / f"{name}.json", name))
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=32, seed=11)
    (rs, h_fd, _), = _oracle_calls(monkeypatch, metric, cfg)
    assert h_fd == verify.H_FD
    assert rs.size == 32 * {"bubble": 6, "surgery": 7, "glue": 13}[name]


def test_verify_differences_each_piece_at_its_own_step(monkeypatch):
    # a piece narrower than 50 H_FD (relative) takes a smaller step: verify
    # makes one oracle call per distinct step, on exactly the radii of the
    # pieces that take it
    phi = Profile([Piece(0.0, 1.0, jet_sin), Piece(1.0, 1.002, jet_sin),
                   Piece(1.002, 3.0, jet_sin)], "sin_narrow")
    m = cone_metric(phi, const_profile(0.5, r_max=3.0), (0.1, 3.0), "narrow")
    step = {(lo, hi): min(verify.H_FD, (hi - lo) / hi / 50.0)
            for lo, hi, *_ in m.verification_pieces()}
    assert len(set(step.values())) == 2
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=8, seed=2)
    calls = _oracle_calls(monkeypatch, m, cfg)
    assert sorted(h_fd for _, h_fd, _ in calls) == sorted(set(step.values()))
    assert sum(rs.size for rs, _, _ in calls) == 8 * len(step)
    for rs, h_fd, _ in calls:
        for r in rs:
            (own,) = [h for (lo, hi), h in step.items() if lo < r < hi]
            assert own == h_fd, (r, own, h_fd)
    report = verify_ric_lower(m, 0.0, cfg)
    assert 0.0 < report.oracle_max_rel_err < 1e-4


def test_oracle_bit_identical_to_dense_reference_round(monkeypatch):
    m = cone_metric(sin_profile(), const_profile(0.5, r_max=3.0), (0.1, 3.0), "roundS4")
    cfg = GridConfig(points_per_piece=64, oracle=True, n_oracle=16, seed=4)
    (rs, h_fd, blocks), = _oracle_calls(monkeypatch, m, cfg)
    assert np.array_equal(_block_bits(blocks), _block_bits(fd_ricci_oracle_dense(m, rs, h_fd)))


@pytest.mark.parametrize("name", ["bubble", "surgery", "glue"])
def test_oracle_live_entries_are_the_charts_nonzeros(name):
    # the oracle carries only _LIVE: every other entry of the dense chart is
    # an exact zero at every stencil point, and the live ones are the
    # oracle's own chart entries, bit for bit
    _, metric, _, _ = build(name, load_config(CONFIGS / f"{name}.json", name))
    dead = np.ones((6, 6), dtype=bool)
    dead[tuple(np.array(curvature._LIVE).T)] = False
    pieces = list(_piece_radii(metric, np.random.default_rng(7), 4))
    assert pieces
    for rs, h_fd in pieces:
        _, g = _dense_chart(metric, rs, h_fd)
        assert np.all(g[..., dead] == 0.0), (name, rs)
        live = np.stack([g[..., i, j] for i, j in curvature._LIVE], axis=-1)
        radial = metric.coefficients(curvature.stencil_radii(rs, h_fd))
        _, where = curvature._radial_factors(h_fd)
        got = curvature._chart_metric(radial, rs, where, curvature._chart_angles(h_fd))
        assert np.array_equal(got.view(np.uint64), live.view(np.uint64)), (name, rs)
    assert curvature._GAMMA.size == 66 and curvature._SYM_TERMS.shape == (3, 66)
