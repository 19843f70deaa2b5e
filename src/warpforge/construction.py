"""End-to-end metric constructions.

Three pipelines are assembled from the profile constructors:

  * build_bubble: the positive-Ricci bubble on the line-bundle total space,
    Berger form near the core, cone form after the flattening region, with
    an exactly warped-cone exterior.  Ricci is positive on the core and the
    exterior, but the radial block is negative on the flattening region at
    the shipped parameters (r3 = 1e3, alpha2 = 0.01: about -0.177 just
    beyond r1), since the warp cannot pay for the slope change there;
  * build_surgery: the conical-surgery metric on a model-base ball, exact
    ambient form on [1, 2] and exact warped cone below r_hat;
  * glue_bubble: rescales a bubble so its exterior collar matches the
    surgery's interior cone and splices the two, equalizing the warp
    coefficients by the min-rule.

Each piece is a rule and its params (see profiles); the rules of the
surgery's pieces and of the glue's rescaled pieces are defined here, and
their params hold every value they read, the glue's warp factor included.

Every profile checks its own C1 joints when it is built; every other
structural claim a builder makes (exactness of the outer and inner pieces,
bi-Lipschitz distortion, blow-down factors) is re-measured on grids.
Ricci lower bounds are the verify module's job.

build_bubble memoizes what no warp parameter enters, in two bounded
caches (16 keys each, an int and a float kept apart): the core A, B, h3
by (m, r1, r3, epsilon), and the base metric.A, metric.B by those and
smooth.  Scan rows that differ only in alpha2 or delta2 build their base
once and share its Profiles as values, so nothing may mutate a built
Profile or Piece; a test that patches a builder internal clears both
caches (_bubble_core.cache_clear(), _bubble_base.cache_clear()).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import WarpedMetric
from .jets import Jet2, jet_sqrt, jet_var
from .profiles import (
    ConstructionError,
    ParameterError,
    Piece,
    Profile,
    const,
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
    poly_in_t,
    quintic_hermite_coeffs,
    smoothing_window,
    sn_jet,
    sn_over_r,
)
from .verify import radial_grid


class SmoothingError(ConstructionError):
    """c1_smooth left a larger footprint than its declared degradation."""


DISTORTION_POINTS = 4096  # radii per region in the distortion checks


# ---------------------------------------------------------------------------
# C1 -> smooth joints
# ---------------------------------------------------------------------------

def c1_smooth(profile: Profile, windows: list[tuple[float, float]]) -> Profile:
    """Replace profile on [at - window, at + window], for each (at, window)
    pair, by the quintic Hermite matching value/d1/d2 at the window ends;
    the result is built, and its joints checked, once.

    The C1 deviation over a window scales like window * |d2 jump| at the
    joint; a deviation above window * (|d2 jump| + 1e-3) raises
    SmoothingError, and the measured one is stored in
    params['smooth_dev@<at>'].
    """
    pieces, checks, start = [], [], profile.r_min
    for at, window in sorted(windows):
        x0, x1 = at - window, at + window
        if not start < x0 < x1 < profile.r_max:
            raise ParameterError(f"smoothing window [{x0}, {x1}] leaves the profile "
                                 f"or overlaps another window")
        crossed = [bp for bp in profile.breakpoints if x0 < bp < x1]
        if not set(crossed) <= {at}:
            raise ParameterError(
                f"smoothing window [{x0}, {x1}] crosses other breakpoints {crossed}"
            )
        # each side's piece once: at the window end, the joint and the
        # deviation radii on its side (the joint's radius belongs to the right)
        rs = np.linspace(x0, x1, 257)[1:-1]
        k = int(np.searchsorted(rs, at))
        left = profile.pieces[profile.piece_index(x0)](np.concatenate(([x0, at], rs[:k])))
        right = profile.pieces[profile.piece_index(x1)](np.concatenate(([at, x1], rs[k:])))
        coeffs = quintic_hermite_coeffs(x0, left.v[0], left.d1[0], left.d2[0],
                                        x1, right.v[1], right.d1[1], right.d2[1])
        hermite = Piece(x0, x1, smoothing_window, {"at": at, "window": window, "coeffs": coeffs})
        new = hermite(rs)
        dev = float(np.max(np.abs(new.v - np.concatenate((left.v[2:], right.v[2:])))
                           + np.abs(new.d1 - np.concatenate((left.d1[2:], right.d1[2:])))))
        checks.append((at, dev, window * (abs(float(right.d2[0] - left.d2[1])) + 1e-3)))
        pieces += profile.trimmed(start, x0) + [hermite]
        start = x1
    out = Profile(pieces + profile.trimmed(start, profile.r_max), profile.label,
                  dict(profile.params))

    for at, dev, eps_smooth in checks:
        if dev > eps_smooth:
            raise SmoothingError(
                f"C1 deviation {dev:.3e} exceeds declared degradation {eps_smooth:.3e} "
                f"at r={at}; use a smaller window"
            )
        out.params[f"smooth_dev@{at:g}"] = dev
    return out


# ---------------------------------------------------------------------------
# the bubble
# ---------------------------------------------------------------------------

# Smoothing windows are this fraction of the shorter adjacent piece.  Below
# ~5e-3 the curvature signal inside a window sinks under the finite-difference
# oracle's noise floor (the window's metric variation is Ric * width^2), so
# windows stay independently checkable.
WINDOW_FRAC = 1e-2


@dataclass
class BubbleParams:
    """build_bubble's inputs; each derived constant lives in the piece that computes it."""

    m: float
    r1: float
    epsilon: float
    alpha2: float
    delta2: float
    r3: float


@dataclass
class Bubble:
    """The bubble metric (base A, B and warp f are metric.A/B/f) and its
    parameter record.  The warp's last piece is the exterior power tail
    delta (r - R3)^alpha, whose params hold alpha, delta and R3."""

    metric: WarpedMetric
    params: BubbleParams

    def blowdown(self) -> Profile:
        R3 = self.metric.f.pieces[-1].params["R3"]
        return make_lambda(self.params.r3, R3, r_max=self.metric.r_range[1] * 1.5)


def build_berger_core(m: float = 1e-3, r1: float = 2.0, r_max: float = 1e3) -> WarpedMetric:
    """The unwarped core metric: Berger pair (A, B) continued affinely, with
    a unit-radius sphere factor.  On (0, r1/2) the radial block equals
    k^2 exactly; beyond r1 it vanishes and the Hopf block is 2(1-m^2)/A^2."""
    A = make_A(m, r1, r_max=r_max)
    B = make_B(m, r1, A)
    f = Profile([Piece(0.0, r_max, const, {"value": 1.0})], "f_const")
    return WarpedMetric(A, B, f, (0.0, r_max), "berger_core")


def _windows(r1: float, r3: float) -> tuple[float, float]:
    """The smoothing windows at r1 and r3 of a bubble on [0, 16 r3]."""
    r_max = 16.0 * r3
    return WINDOW_FRAC * min(r1 / 2.0, r3 - r1), WINDOW_FRAC * min(r3 - r1, r_max - r3)


@functools.lru_cache(maxsize=16, typed=True)
def _bubble_core(m: float, r1: float, r3: float,
                 epsilon: float) -> tuple[Profile, Profile, Profile]:
    """(A, B, h3) of a bubble on [0, 16 r3]: no warp parameter enters them."""
    A = make_A(m, r1, r_max=16.0 * r3)
    B = make_B(m, r1, A)
    return A, B, make_h3(m, epsilon, r1, r3, A.params["A_r1"])


@functools.lru_cache(maxsize=16, typed=True)
def _bubble_base(m: float, r1: float, r3: float, epsilon: float,
                 smooth: bool) -> tuple[Profile, Profile]:
    """The bubble's base (A, B): the core's A and B up to r1, then h3, with
    the r1 and r3 joints smoothed if smooth."""
    A, B, h3 = _bubble_core(m, r1, r3, epsilon)
    base_A = Profile(A.trimmed(0.0, r1) + h3.pieces, "bubble_base_A")
    base_B = Profile(B.trimmed(0.0, r1) + h3.pieces, "bubble_base_B")
    if smooth:
        w1, w3 = _windows(r1, r3)
        base_A = c1_smooth(base_A, [(r1, w1), (r3, w3)])
        base_B = c1_smooth(base_B, [(r1, w1), (r3, w3)])
    return base_A, base_B


def build_bubble(
    epsilon: float,
    alpha2: float,
    delta2: float,
    m: float = 1e-3,
    r1: float = 2.0,
    r3: float = 1e3,
    smooth: bool = True,
) -> Bubble:
    """Assemble the full bubble on [0, 16 r3]: Berger core, cone flattening,
    warped-cone exterior; optionally smooth the r1 and r3 joints, each with
    a window of WINDOW_FRAC times the shorter adjacent piece.

    Structural parameter-domain violations raise; qualitative curvature
    budgets (which the source constructions leave as 'small enough'
    thresholds) are left to grid verification, so a bubble that builds can
    still fail verify_ric_lower.

    Only the warp reads alpha2 and delta2, so the rest is memoized, each
    part for its 16 most recent keys (typed: r3=1000 and r3=1000.0 are two
    keys): the core (A, B, h3) by (m, r1, r3, epsilon), and the base
    (metric.A, metric.B) by those and smooth.  Bubbles built from equal keys
    share their base profiles as values, which nothing may mutate; each
    call builds its own warp f2, f4 and f4's r3 window.  The checks fire
    in the same order as without the caches (epsilon, A, B, h3, the warp,
    then the smoothing), so a rejected build raises the same error, and a
    call that raises caches nothing.
    """
    if not 0.0 < epsilon < 0.1:
        raise ParameterError(f"epsilon = {epsilon} outside (0, 1/10)")
    h3 = _bubble_core(m, r1, r3, epsilon)[2]
    f2 = make_f2(delta2, alpha2, r_max=16.0 * r3)
    f4 = make_f4(alpha2, delta2, epsilon, r3, h3, f2)
    base_A, base_B = _bubble_base(m, r1, r3, epsilon, smooth)
    if smooth:
        f4 = c1_smooth(f4, [(r3, _windows(r1, r3)[1])])

    params = BubbleParams(m=m, r1=r1, epsilon=epsilon, alpha2=alpha2, delta2=delta2, r3=r3)
    return Bubble(WarpedMetric(base_A, base_B, f4, (0.0, 3.0 * r3), "bubble"), params)


def bubble_alpha2_for_alpha(alpha: float, epsilon: float, m: float = 1e-3, r1: float = 2.0,
                            r3: float = 1e3) -> float:
    """Invert the exterior-exponent matching formula: the alpha2 that makes
    the bubble's exterior warp exponent equal alpha (defaults as in
    build_bubble).  It reads h3 from build_bubble's cached core."""
    h3 = _bubble_core(m, r1, r3, epsilon)[2]
    t3 = h3.params["h3_r3"] / (1.0 - epsilon)
    alpha2 = alpha * (1.0 + r3 * r3) / (r3 * t3)
    if not 0.0 < alpha2 <= 0.5:
        raise ParameterError(
            f"target alpha = {alpha} needs alpha2 = {alpha2}, outside (0, 1/2]"
        )
    return alpha2


# ---------------------------------------------------------------------------
# the surgery
# ---------------------------------------------------------------------------

@dataclass
class SurgeryParams:
    """build_surgery's inputs (r3 resolved) and the delta make_cubic_logwarp returns."""

    lambda_bound: float
    epsilon: float
    alpha: float
    r_hat: float
    delta_hat: float
    rho: float
    r_m: float
    r3: float          # cutoff radius of the cone/ambient interpolation
    delta: float
    eta: float
    kappa: float
    f0: float


@dataclass
class SurgeryMetric:
    metric: WarpedMetric
    params: SurgeryParams


def cone(rj: Jet2, angle: float) -> Jet2:
    return rj * angle


def cutoff_blend(rj: Jet2, angle: float, coeffs, x0: float, L: float, kappa: float) -> Jet2:
    """angle r sqrt(xi mu^2 + 1 - xi): the cutoff xi (a polynomial in t) takes
    the model sphere family's factor mu = sn_kappa(r)/r to the round sphere's 1."""
    xij = poly_in_t(rj, coeffs, x0, L)
    muj = sn_over_r(rj, kappa)
    return rj * angle * jet_sqrt(xij * muj * muj + (1.0 - xij))


def model_cone(rj: Jet2, angle: float, kappa: float) -> Jet2:
    return sn_jet(kappa, rj) * angle


def angle_bridge(rj: Jet2, coeffs, x0: float, L: float, kappa: float) -> Jet2:
    """The cone-angle bridge h (a polynomial in t) times mu = sn_kappa(r)/r."""
    return poly_in_t(rj, coeffs, x0, L) * sn_over_r(rj, kappa)


def ambient(rj: Jet2, kappa: float) -> Jet2:
    return sn_jet(kappa, rj)


def build_surgery(
    kappa: float,
    f0: float,
    lambda_bound: float,
    epsilon: float,
    alpha: float,
    r_hat: float,
    delta_hat: float,
    eta: float = 0.0,
    rho: float = 1.0 / 32.0,
    r_m: float = 0.125,
    r3: Optional[float] = None,
) -> SurgeryMetric:
    """Conical surgery on the curvature-kappa model base ball of radius 2
    with constant ambient warp f0.

    The output metric is exactly ambient (up to the delta_hat warp scaling)
    on [1, 2] and exactly the warped cone (1-eps, delta r^alpha) on
    (0, r_hat]; in between it composes the cone-angle bridge, the log-cubic
    warp interpolation, and the cutoff between the model sphere family and
    the round sphere.
    """
    if not 0.0 < epsilon < 0.1:
        raise ParameterError(f"epsilon = {epsilon} outside (0, 1/10)")
    if not 0.0 < delta_hat <= 1.0:
        raise ParameterError(f"delta_hat = {delta_hat} outside (0, 1]")
    if f0 <= 0:
        raise ParameterError(f"f0 = {f0} must be positive")
    if not r_hat > 0:
        raise ParameterError(f"r_hat = {r_hat} must be positive")

    r_max = 2.0  # radius of the model base ball
    make_model_mu(kappa, r_max=r_max)  # rejects a kappa whose sn vanishes on the ball
    h = make_step2_h(epsilon).pieces[1].params  # the bridge's polynomial, checked when built
    f_plus = Profile([Piece(0.0, r_max, const, {"value": delta_hat * f0})], "f_plus")
    warp, delta = make_cubic_logwarp(f_plus, alpha, r_m, rho=rho, eta=eta)
    r2 = (1 - rho) * r_m
    if r3 is None:
        r3 = r2 / 5.0
    if not r_hat < r3:
        raise ParameterError(f"need r_hat < r3, got {r_hat} >= {r3}")
    if not 2.0 * r3 < r2:
        raise ParameterError(f"cutoff interval [r3, 2 r3] must end below r2 = {r2}")

    one_m_eps = 1.0 - epsilon
    xi = make_xi(r3, r_max=r_max).pieces[1].params  # the cutoff's polynomial, checked when built
    phi = Profile(
        [
            Piece(0.0, r3, cone, {"angle": one_m_eps}),
            Piece(r3, 2 * r3, cutoff_blend, {"angle": one_m_eps, **xi, "kappa": kappa}),
            Piece(2 * r3, 0.5, model_cone, {"angle": one_m_eps, "kappa": kappa}),
            Piece(0.5, 1.0, angle_bridge, {**h, "kappa": kappa}),
            Piece(1.0, r_max, ambient, {"kappa": kappa}),
        ],
        "surgery_phi",
    )

    params = SurgeryParams(
        lambda_bound=lambda_bound, epsilon=epsilon, alpha=alpha, r_hat=r_hat,
        delta_hat=delta_hat, rho=rho, r_m=r_m, r3=r3,
        delta=delta, eta=eta, kappa=kappa, f0=f0,
    )
    return SurgeryMetric(WarpedMetric(phi, phi, warp, (0.0, r_max), "surgery"), params)


def bilipschitz_check(s: SurgeryMetric) -> float:
    """sup over (0, 2] of the spherical stretch max(phi_hat/phi, phi/phi_hat)
    between the surgery base and the ambient model base; must be <= 1+2 eps."""
    rs = radial_grid(*s.metric.r_range, DISTORTION_POINTS)
    phi_hat = s.metric.A(rs).v
    phi_base = sn_jet(s.params.kappa, jet_var(rs)).v
    ratio = np.maximum(phi_hat / phi_base, phi_base / phi_hat)
    j = int(np.argmax(ratio))
    sup = float(ratio[j])
    limit = 1.0 + 2.0 * s.params.epsilon
    if sup > limit:
        raise ConstructionError(
            f"bi-Lipschitz bound violated: sup ratio {sup:.6g} > 1+2eps = {limit:.6g} "
            f"at r = {rs[j]:.6g}"
        )
    return sup


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def rescaled(rj: Jet2, rule, params: dict, scale: float, shift: float,
             factor: float) -> Jet2:
    """factor * scale * rule((r - shift) / scale, **params)."""
    inv = 1.0 / scale
    c = factor * scale
    # fed the reparametrized jet, the inner rule carries the chain rule
    j = rule(Jet2((rj.v - shift) * inv, rj.d1 * inv, rj.d2 * inv), **params)
    return Jet2(c * j.v, c * j.d1, c * j.d2)


def _affine_pieces(profile: Profile, s: float, shift: float, lo: float, hi: float,
                   warp_factor: float = 1.0) -> list[Piece]:
    """Pieces of x -> warp_factor * s * profile((x - shift) / s) on [lo, hi]."""
    inv = 1.0 / s
    return [Piece(p.lo * s + shift, p.hi * s + shift, rescaled,
                  {"rule": p.rule, "params": p.params, "scale": s, "shift": shift,
                   "factor": warp_factor})
            for p in profile.trimmed((lo - shift) * inv, (hi - shift) * inv)]


def glue_bubble(s: SurgeryMetric, b: Bubble) -> WarpedMetric:
    """Replace the surgery's inner cone ball by the rescaled bubble, gluing
    isometrically along the collar [r_hat/2, r_hat] and multiplying each
    side's warp by min(delta_I, delta_II)/delta_side."""
    eps_s, eps_b = s.params.epsilon, b.params.epsilon
    if abs(eps_s - eps_b) > 1e-12:
        raise ParameterError(f"cone angles differ: surgery {eps_s}, bubble {eps_b}")
    tail = b.metric.f.pieces[-1].params  # the exterior delta (r - R3)^alpha
    if abs(s.params.alpha - tail["alpha"]) > 1e-9 * s.params.alpha:
        raise ParameterError(
            f"warp exponents differ: surgery {s.params.alpha}, bubble {tail['alpha']}"
        )
    alpha = s.params.alpha
    r_hat = s.params.r_hat
    t_ext = 2.0 * b.params.r3 - tail["R3"]  # exterior-exact from 2 r3, in t = r - R3
    s_B = (r_hat / 2.0) / t_ext
    shift = s_B * tail["R3"]

    delta_I = s.params.delta
    delta_II = tail["delta"] * s_B ** (1.0 - alpha)
    common = min(delta_I, delta_II)

    x_switch = shift + 0.75 * r_hat
    x_max = s.metric.r_range[1] + shift

    bub_A = _affine_pieces(b.metric.A, s_B, 0.0, 0.0, x_switch)
    bub_B = _affine_pieces(b.metric.B, s_B, 0.0, 0.0, x_switch)
    bub_f = _affine_pieces(b.metric.f, s_B, 0.0, 0.0, x_switch, warp_factor=common / delta_II)
    sur_phi = _affine_pieces(s.metric.A, 1.0, shift, x_switch, x_max)
    sur_f = _affine_pieces(s.metric.f, 1.0, shift, x_switch, x_max,
                           warp_factor=common / delta_I)

    A = Profile(bub_A + sur_phi, "glued_A")
    B = Profile(bub_B + sur_phi, "glued_B")
    f = Profile(bub_f + sur_f, "glued_f")

    # collar isometry: both descriptions must agree on [r_hat/2, r_hat]
    collar = np.linspace(shift + 0.55 * r_hat, shift + 0.95 * r_hat, 100)
    t = collar - shift
    for what, got, expected in (("base", A(collar).v, (1.0 - eps_s) * t),
                                ("warp", f(collar).v, common * t**alpha)):
        bad = np.abs(got - expected) > 1e-10 * expected
        if bad.any():
            j = int(np.argmax(bad))
            raise ConstructionError(
                f"collar {what} mismatch at x={collar[j]}: {got[j]} vs {expected[j]}"
            )

    return WarpedMetric(
        A, B, f, (0.0, x_max), "glued",
        {"shift": shift, "delta_I": delta_I, "delta_II": delta_II, "common_delta": common},
    )


# ---------------------------------------------------------------------------
# blow-down map distortion
# ---------------------------------------------------------------------------

def blowdown_lipschitz(b: Bubble, lam: Optional[Profile] = None) -> float:
    """sup of the blow-down differential norms over the bubble, asserting
    the regional bounds: pi/2 (1-eps) for the Hopf direction and pi (1-eps)
    for the orthogonal sphere directions on [0, r1], (1-eps)/m on [r1, r3],
    exactly 1 beyond r3."""
    lam = lam or b.blowdown()
    eps, m, r1, r3 = b.params.epsilon, b.params.m, b.params.r1, b.params.r3
    one_m_eps = 1.0 - eps

    sup = 0.0
    # core region [0, r1]
    rs = np.geomspace(1e-8 * r1, r1, DISTORTION_POINTS)
    lj, aj, bj = lam(rs), b.metric.A(rs), b.metric.B(rs)
    fac_r = np.abs(lj.d1)
    fac_x = one_m_eps * lj.v / aj.v
    fac_yz = one_m_eps * lj.v / bj.v
    if fac_r.max() > 1.0 + 1e-9:
        raise ConstructionError(f"lambda' exceeds 1 on the core: {fac_r.max()}")
    if fac_x.max() > (math.pi / 2) * one_m_eps * (1 + 1e-9):
        raise ConstructionError(f"Hopf stretch {fac_x.max():.6g} > pi/2 (1-eps)")
    if fac_yz.max() > math.pi * one_m_eps * (1 + 1e-9):
        raise ConstructionError(f"YZ stretch {fac_yz.max():.6g} > pi (1-eps)")
    sup = max(sup, float(fac_r.max()), float(fac_x.max()), float(fac_yz.max()))

    # flattening region [r1, r3]
    rs = np.geomspace(r1, r3, DISTORTION_POINTS)
    lj, hj = lam(rs), b.metric.A(rs)
    fac = one_m_eps * lj.v / hj.v
    if fac.max() > one_m_eps / m * (1 + 1e-9):
        raise ConstructionError(f"stretch {fac.max():.6g} > (1-eps)/m on [r1, r3]")
    sup = max(sup, float(fac.max()), float(np.abs(lj.d1).max()))

    # exterior: isometry, starting past any smoothing window around r3
    start = max([r3] + [bp for bp in b.metric.A.breakpoints if bp > r3 * 0.9])
    rs = np.geomspace(start * (1 + 1e-9), b.metric.r_range[1], 256)
    lj, hj = lam(rs), b.metric.A(rs)
    fac = one_m_eps * lj.v / hj.v
    if np.max(np.abs(fac - 1.0)) > 1e-9 or np.max(np.abs(lj.d1 - 1.0)) > 1e-12:
        raise ConstructionError("blow-down is not an isometry beyond r3")
    sup = max(sup, float(fac.max()))
    return sup
