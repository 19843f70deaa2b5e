"""Jet arithmetic against independent finite-difference oracles."""

import math
from pathlib import Path

import numpy as np
import pytest

from warpforge.cli import build, load_config
from warpforge.jets import (
    Jet2,
    JetDomainError,
    jet_exp,
    jet_ln,
    jet_pow,
    jet_sin,
    jet_sinh,
    jet_var,
)
from warpforge.profiles import Piece, _flat_step_integral, bump_bridge
from warpforge.profiles import radial_grid

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def fd_d1(f, x, h):
    """5-point central difference for f'(x)."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def fd_d2(f, x, h):
    """5-point central difference for f''(x)."""
    return (
        -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
    ) / (12 * h * h)


def test_mul_constant_factor():
    out = Jet2(2.0, 1.0, 0.0) * Jet2(3.0, 0.0, 0.0)
    assert (out.v, out.d1, out.d2) == (6.0, 3.0, 0.0)


def test_mul_by_a_float_scales_each_field():
    # a plain constant scales v, d1 and d2, on either side, as the product
    # with its zero-derivative lift does (up to the sign of an exact zero)
    rng = np.random.default_rng(2)
    x = Jet2(*rng.normal(size=(3, 64)))
    for c in (2.5, -0.75, 0.0):
        for out in (x * c, c * x):
            lifted = x * Jet2(c, 0.0, 0.0)
            for got, want, raw in ((out.v, lifted.v, x.v), (out.d1, lifted.d1, x.d1),
                                   (out.d2, lifted.d2, x.d2)):
                assert np.array_equal(got.view(np.uint64), (raw * c).view(np.uint64))
                assert np.array_equal(got, want)


def test_constant_operand_moves_the_value_only():
    # j + c, c + j, j - c and c - j never lift c to a jet; each channel keeps
    # the bits of the lifted form with Jet2(c, 0.0, 0.0), with one intended
    # difference: j + c and c + j keep a -0.0 derivative entry, which the
    # lifted form's + 0.0 made +0.0 (d - 0.0 and 0.0 - d round as before)
    rng = np.random.default_rng(21)
    v, d1, d2 = rng.normal(size=(3, 256))
    d1[::7], d1[1::7], d2[::5], d2[2::5] = -0.0, 0.0, -0.0, 0.0
    x = Jet2(v, d1, d2)
    for c in (2.5, -0.75, 0.0, -0.0, float(rng.normal())):
        lift = Jet2(c, 0.0, 0.0)
        for op, got, lifted in (("j + c", x + c, x + lift), ("c + j", c + x, lift + x),
                                ("j - c", x - c, x - lift), ("c - j", c - x, lift - x)):
            assert np.array_equal(_bits(got.v), _bits(lifted.v)), (op, c)
            for raw, g, want in ((d1, got.d1, lifted.d1), (d2, got.d2, lifted.d2)):
                negzero = (raw == 0.0) & np.signbit(raw)
                if op in ("j - c", "c - j"):
                    assert np.array_equal(_bits(g), _bits(want)), (op, c)
                    continue
                assert np.array_equal(_bits(g), _bits(raw)), (op, c)
                assert np.array_equal(_bits(g)[:, ~negzero], _bits(want)[:, ~negzero]), (op, c)
                assert np.all(np.signbit(g[negzero])) and negzero.any(), (op, c)


def test_pow_sqrt_at_4():
    out = jet_pow(jet_var(4.0), 0.5)
    assert out.v == pytest.approx(2.0, abs=1e-15)
    assert out.d1 == pytest.approx(0.25, abs=1e-15)
    assert out.d2 == pytest.approx(-0.03125, abs=1e-15)


def test_div_against_central_differences():
    # oracle: 2nd-order central differences of 1/f with h = 1e-5
    rng = np.random.default_rng(7)
    f = lambda x: 2.0 + np.sin(x) + 0.25 * x * x  # bounded away from 0

    def inv_f(x):
        return 1.0 / f(x)

    h = 1e-5
    for x in rng.uniform(-3.0, 3.0, size=100):
        fj = Jet2(f(x), np.cos(x) + 0.5 * x, -np.sin(x) + 0.5)
        out = Jet2(1.0, 0.0, 0.0) / fj
        d1_fd = (inv_f(x + h) - inv_f(x - h)) / (2 * h)
        assert out.d1 == pytest.approx(d1_fd, rel=1e-9, abs=1e-12)
        # d2 needs the wider 5-point stencil to beat round-off
        assert out.d2 == pytest.approx(fd_d2(inv_f, x, 1e-4), rel=1e-6, abs=1e-6)


def test_sin_near_zero():
    out = jet_sin(jet_var(0.0))
    assert (out.v, out.d1, out.d2) == (0.0, 1.0, 0.0)


def test_ln_exp_inverse_pair():
    for x in (-1.3, 0.0, 0.7, 2.5):
        out = jet_ln(jet_exp(jet_var(x)))
        assert out.v == pytest.approx(x, abs=1e-12)
        assert out.d1 == pytest.approx(1.0, abs=1e-12)
        assert out.d2 == pytest.approx(0.0, abs=1e-12)


def test_division_by_zero_is_domain_error():
    with pytest.raises(JetDomainError):
        Jet2(1.0, 0.0, 0.0) / Jet2(0.0, 1.0, 0.0)


def test_ln_nonpositive_is_domain_error():
    with pytest.raises(JetDomainError):
        jet_ln(Jet2(-1.0, 1.0, 0.0))
    with pytest.raises(JetDomainError):
        jet_ln(Jet2(0.0, 1.0, 0.0))


def test_fractional_pow_nonpositive_is_domain_error():
    with pytest.raises(JetDomainError):
        jet_pow(Jet2(-2.0, 1.0, 0.0), 0.5)


def test_integer_pow_zero_keeps_the_input_shape():
    # x**0 is the constant jet 1, with fields shaped like x, so a piece whose
    # rule is a zeroth power evaluates on arrays as on scalars
    piece = Piece(0.0, 1.0, lambda rj: jet_pow(rj, 0))
    out = piece(np.array([0.25, 0.5, 0.75]))
    assert [f.tolist() for f in (out.v, out.d1, out.d2)] == [[1.0] * 3, [0.0] * 3, [0.0] * 3]
    out = piece(0.5)
    assert (out.v.shape, float(out.v), float(out.d1), float(out.d2)) == ((), 1.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "op,domain",
    [
        (jet_sin, (-3.0, 3.0)),
        (jet_sinh, (-3.0, 3.0)),
        (jet_exp, (-2.0, 2.0)),
        (jet_ln, (0.1, 5.0)),
        (lambda j: jet_pow(j, 1.7), (0.1, 5.0)),
        (lambda j: j * jet_sin(j), (-3.0, 3.0)),
        (lambda j: jet_exp(j) / (2.0 + jet_sin(j)), (-3.0, 3.0)),
    ],
)
def test_elementary_ops_match_fd(op, domain):
    # invariant: d1, d2 agree with 5-point central differences (h = 1e-4)
    # of the v-channel to relative tolerance 1e-6 over randomized inputs
    rng = np.random.default_rng(11)
    h = 1e-4

    def val(x):
        return op(jet_var(x)).v

    for x in rng.uniform(*domain, size=50):
        out = op(jet_var(x))
        assert out.d1 == pytest.approx(fd_d1(val, x, h), rel=1e-6, abs=1e-9)
        assert out.d2 == pytest.approx(fd_d2(val, x, h), rel=1e-6, abs=1e-6)


def test_add_mul_commute_bitwise():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = Jet2(*rng.standard_normal(3))
        b = Jet2(*rng.standard_normal(3))
        ab, ba = a + b, b + a
        assert (ab.v, ab.d1, ab.d2) == (ba.v, ba.d1, ba.d2)
        ab, ba = a * b, b * a
        assert (ab.v, ab.d1, ab.d2) == (ba.v, ba.d1, ba.d2)


def _bits(*fields):
    return np.stack([np.asarray(f, dtype=float) for f in fields]).view(np.uint64)


def _assert_batch_matches_points(prof, rs, where):
    """prof on the batch rs equals prof on each radius alone, bit for bit."""
    out = prof(rs)
    assert out.v.shape == out.d1.shape == out.d2.shape == rs.shape
    points = [prof(float(r)) for r in rs]
    one_by_one = _bits([p.v for p in points], [p.d1 for p in points], [p.d2 for p in points])
    differ = int(np.sum(one_by_one != _bits(out.v, out.d1, out.d2)))
    assert differ == 0, f"{where}: {differ} of {one_by_one.size} channels differ"
    assert all(np.shape(c) == () for p in points for c in (p.v, p.d1, p.d2))


def test_array_and_scalar_agree():
    # one evaluation path: a scalar radius is a one-point array, so it must
    # agree with the same radius inside an array bit for bit
    xs = np.linspace(0.2, 2.0, 17)
    arr = jet_pow(jet_sin(jet_var(xs)) + 1.5, 0.5)
    for i, x in enumerate(xs):
        s = jet_pow(jet_sin(jet_var(float(x))) + 1.5, 0.5)
        assert np.array_equal(_bits(arr.v[i], arr.d1[i], arr.d2[i]).ravel(),
                              _bits(s.v, s.d1, s.d2).ravel())

    # every profile of the shipped metrics, on grid radii, breakpoints and the
    # finite-difference oracle's stencil radii (1 + k 1e-4) r0 around each
    # piece's midpoint; then random batches of 2-64 radii on every bump
    # bridge, whose integral once rounded a row by how many rows it had.
    # Adding the integral to the plateau hides most such roundings in B,
    # so the bridge's integral rows are compared too
    rng = np.random.default_rng(8)
    metrics = {}
    for name in ("bubble", "surgery", "glue"):
        _, metrics[name], _, _ = build(name, load_config(CONFIGS / f"{name}.json", name))
        metric = metrics[name]
        stencils = [
            (1.0 + k * 1e-4) * math.sqrt(max(lo, 1e-3 * hi) * hi)
            for lo, hi, *_ in metric.verification_pieces()
            for k in range(-4, 5)
        ]
        rs = np.concatenate([radial_grid(*metric.r_range, 64), metric.breakpoints(), stencils])
        for label, prof in metric.profiles().items():
            _assert_batch_matches_points(prof, rs, f"{name} {label}")
            for piece in prof.pieces:
                if bump_bridge not in (piece.rule, piece.params.get("rule")):
                    continue
                for size in range(2, 65):
                    batch = np.sort(rng.uniform(piece.lo, piece.hi, size))
                    _assert_batch_matches_points(prof, batch, f"{name} {label} {piece.name}")
                    t = (batch - piece.lo) / (piece.hi - piece.lo)
                    rows = [_flat_step_integral(x)[0] for x in t]
                    assert np.array_equal(_bits(_flat_step_integral(t)), _bits(rows)), \
                        f"{name} {label}: integral of a {size}-radius batch"

    # the 9 distinct radii of the oracle's nested stencils around one glue
    # radius, where B once differed by 5.3e-23 from its value alone
    r0 = 4.962481358130372e-07
    stencil = r0 * np.unique([(1.0 + i * 1e-4) + j * 1e-4 for i in range(-2, 3)
                              for j in range(-2, 3)])
    _assert_batch_matches_points(metrics["glue"].B, stencil, "glue B stencil")
