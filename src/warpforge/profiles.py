"""Piecewise radial profiles.

Every metric coefficient in this package is a Profile: an ordered list of
closed-form pieces on [0, r_max], each evaluable to a 2-jet, and a label.
A piece is a rule and its params: a module-level function rule(rj, **params)
and a dict holding exactly that function's inputs, so a profile's
descriptor (its label, each piece's interval, rule name and params)
determines it, and a derived constant is read from its piece.  Constructors
below build the specific profiles the metric constructions need (Berger
warp pair A/B, polynomial warp factors, cone-flattening slopes, cutoffs,
space-form factors, blow-down reparameterizations) and re-verify every
inequality they are supposed to satisfy, as a sampled sup on SUP_POINTS
radii (sampled_sup), instead of trusting the algebra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .jets import (
    Jet2,
    JetDomainError,
    jet_exp,
    jet_ln,
    jet_poly,
    jet_pow,
    jet_sin,
    jet_sinh,
    jet_var,
)

TAU_C1 = 1e-9  # relative C^1 matching tolerance at breakpoints


class ParameterError(ValueError):
    """A constructor was handed parameters outside its stated domain."""


class ConstructionError(RuntimeError):
    """A built object violates one of its own postconditions."""


# ---------------------------------------------------------------------------
# pieces and profiles
# ---------------------------------------------------------------------------

@dataclass
class Piece:
    """One closed form on [lo, hi]: rule(rj, **params).  rule maps the
    identity jet of a 1-d array of radii to fields of the same shape, or to
    float constants (the identity's own derivatives are), and params holds
    exactly its other inputs; calling the piece at a radius or an array of
    radii gives fresh arrays of the input's shape (0-d for a scalar), each
    float channel filled out with np.full."""

    lo: float
    hi: float
    rule: Callable[..., Jet2]
    params: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.rule.__name__

    def __call__(self, r) -> Jet2:
        try:
            out = self.rule(jet_var(r), **self.params)
        except JetDomainError as e:
            raise JetDomainError(f"piece '{_rule_label(self.rule, self.params)}' on "
                                 f"[{self.lo:g}, {self.hi:g}]: {e}") from e
        shape = np.shape(r)
        return Jet2(*(np.full(shape, c) if np.ndim(c) == 0 else c.reshape(shape)
                      for c in (out.v, out.d1, out.d2)))


@dataclass
class Profile:
    """Pieces ordered by radius, each breakpoint belonging to the piece on its
    right, and a label.  Called like a Piece: a scalar radius gives 0-d fields.

    Every joint is C^1: constructing a profile of two or more pieces runs
    validate_c1, which raises ConstructionError at the first joint that is
    not, and its smoothness reads "C1".  A one-piece profile has no joint,
    is not evaluated, and reads "smooth"."""

    pieces: list[Piece]
    label: str

    def __post_init__(self) -> None:
        if len(self.pieces) > 1:
            self.validate_c1()

    @property
    def smoothness(self) -> str:
        return "smooth" if len(self.pieces) == 1 else "C1"

    @property
    def breakpoints(self) -> list[float]:
        """Interior breakpoints (piece boundaries, endpoints excluded)."""
        return [p.hi for p in self.pieces[:-1]]

    @property
    def r_min(self) -> float:
        return self.pieces[0].lo

    @property
    def r_max(self) -> float:
        return self.pieces[-1].hi

    def piece_index(self, r):
        # per radius in r; breakpoint radii belong to the right-hand piece
        return np.searchsorted(self.breakpoints, r, side="right")

    def __call__(self, r) -> Jet2:
        rs = np.asarray(r, dtype=float)
        idx = self.piece_index(rs)
        # visit only the pieces from the first to the last one hit (no radii: none)
        first, last = int(idx.min(initial=len(self.pieces) - 1)), int(idx.max(initial=0))
        if first == last:
            return self.pieces[first](rs)
        v, d1, d2 = np.empty_like(rs), np.empty_like(rs), np.empty_like(rs)
        for i in range(first, last + 1):
            mask = idx == i
            if mask.any():
                out = self.pieces[i](rs[mask])
                v[mask], d1[mask], d2[mask] = out.v, out.d1, out.d2
        return Jet2(v, d1, d2)

    def validate_c1(self) -> None:
        """Check value/slope agreement of adjacent pieces at breakpoints."""
        bps = self.breakpoints
        # each piece once, at the breakpoints on either side of it
        ends = [p(bps[max(i - 1, 0):i + 1]) for i, p in enumerate(self.pieces)]
        for i, r in enumerate(bps):
            left, right = ends[i], ends[i + 1]
            dv = abs(left.v[-1] - right.v[0]) / max(1.0, abs(left.v[-1]))
            dd = abs(left.d1[-1] - right.d1[0]) / max(1.0, abs(left.d1[-1]))
            if dv > TAU_C1 or dd > TAU_C1:
                raise ConstructionError(
                    f"profile '{self.label}' is not C1 at r={r}: "
                    f"|dv|={dv:.3e}, |dd1|={dd:.3e} (tol {TAU_C1:.1e})"
                )

    def trimmed(self, lo: float, hi: float) -> list[Piece]:
        """Pieces covering [lo, hi], clipped to that window."""
        out = []
        for p in self.pieces:
            a, b = max(p.lo, lo), min(p.hi, hi)
            if a < b:
                out.append(Piece(a, b, p.rule, dict(p.params)))
        if not out:
            raise ParameterError(f"[{lo}, {hi}] is outside profile '{self.label}'")
        return out

    def descriptor(self) -> dict:
        return {
            "label": self.label,
            "smoothness": self.smoothness,
            "pieces": [
                {"interval": [p.lo, p.hi], "rule": p.name, "params": _jsonable(p.params)}
                for p in self.pieces
            ],
        }

    def export_csv(self, rs: np.ndarray, path) -> None:
        """Write r,v,d1,d2 rows at the given radii."""
        out = self(np.asarray(rs, dtype=float))
        write_csv(path, "r,v,d1,d2", rs, out.v, out.d1, out.d2)


def write_csv(path, header: str, *columns) -> None:
    """A header line, then one row per index of the columns, floats in shortest round-trip form."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _rule_label(rule, params: dict) -> str:
    """rule's name, followed by the label of the rule it wraps when its
    params hold one as "rule" with its own "params" (the glue's rescaled
    pieces read rescaled(log_flatten))."""
    inner = params.get("rule")
    if not callable(inner):
        return rule.__name__
    return f"{rule.__name__}({_rule_label(inner, params.get('params', {}))})"


def _jsonable(x):
    """params as JSON values: a nested rule by its name, numbers as floats."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x.__name__ if callable(x) else float(x)


SUP_POINTS = 10_001  # radii of every builder check and distortion bound


def radial_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced radii on [lo, hi): a span that starts at r = 0 starts
    at 1e-8 * hi, any other at lo itself, and hi is left out."""
    return np.geomspace(lo if lo > 0 else 1e-8 * hi, hi * (1 - 1e-12), n)


def sampled_sup(values, lo: float, hi: float) -> list[tuple[float, float]]:
    """(sup, radius of the sup) of each row of values(rs), one row or
    several, evaluated once at rs = radial_grid(lo, hi, SUP_POINTS)."""
    rs = radial_grid(lo, hi, SUP_POINTS)
    rows = np.atleast_2d(values(rs))
    at = np.argmax(rows, axis=1)
    return [(float(row[j]), float(rs[j])) for row, j in zip(rows, at)]


# ---------------------------------------------------------------------------
# shared closed forms
# ---------------------------------------------------------------------------

def quintic_hermite_coeffs(x0, v0, d10, d20, x1, v1, d11, d21):
    """Coefficients (in t = (x-x0)/(x1-x0)) of the quintic matching value,
    first and second derivative at both ends."""
    L = x1 - x0
    c0, c1, c2 = v0, d10 * L, 0.5 * d20 * L * L
    D1, A1 = d11 * L, d21 * L * L
    r0 = v1 - c0 - c1 - c2
    r1 = D1 - c1 - 2.0 * c2
    r2 = A1 - 2.0 * c2
    c3 = 10.0 * r0 - 4.0 * r1 + 0.5 * r2
    c4 = -15.0 * r0 + 7.0 * r1 - r2
    c5 = 6.0 * r0 - 3.0 * r1 + 0.5 * r2
    return [c0, c1, c2, c3, c4, c5]


def affine(rj: Jet2, value: float, slope: float, anchor: float) -> Jet2:
    """value + slope (r - anchor)."""
    return (rj - anchor) * slope + value


def const(rj: Jet2, value: float) -> Jet2:
    return rj * 0.0 + value


def poly_in_t(rj: Jet2, coeffs, x0: float, L: float) -> Jet2:
    """sum_k coeffs[k] t^k in t = (r - x0)/L."""
    return jet_poly(coeffs, (rj - x0) * (1.0 / L))


SMOOTHSTEP = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)  # 6t^5 - 15t^4 + 10t^3 on [0, 1]


def smoothing_window(rj: Jet2, at: float, window: float, coeffs) -> Jet2:
    """c1_smooth's quintic in t on [at - window, at + window]."""
    x0 = at - window
    return poly_in_t(rj, coeffs, x0, (at + window) - x0)


def _flat_step(t):
    """C-infinity step 1/(1 + exp(1/t - 1/(1-t))): 0 at t<=0, 1 at t>=1,
    all derivatives vanishing at both ends."""
    return _flat_step_jet(t)[0]


def _flat_step_jet(t):
    """(_flat_step(t), its derivative) from one exp; the derivative peaks at
    exactly 2 at t = 1/2."""
    t = np.asarray(t, dtype=float)
    inner = np.clip(t, 1e-12, 1.0 - 1e-12)
    g = np.clip(1.0 / inner - 1.0 / (1.0 - inner), -700.0, 700.0)
    s = 1.0 / (1.0 + np.exp(g))
    d = (1.0 / inner**2 + 1.0 / (1.0 - inner) ** 2) * s * (1.0 - s)
    below, above = t <= 0.0, t >= 1.0
    return np.where(below, 0.0, np.where(above, 1.0, s)), np.where(below | above, 0.0, d)


def _flat_step_quadrature(t):
    """Integral of _flat_step from 0 to t by 80-point Gauss-Legendre: the
    reference the bridge table is built from and tested against.

    One dot product per row: a matrix-vector product can round a row
    differently depending on how many rows share the call, and a radius
    must get the same value alone as inside a grid.
    """
    nodes, weights = _gauss_legendre_80()
    t = np.atleast_1d(np.asarray(t, dtype=float))
    half = 0.5 * t
    vals = _flat_step(half[..., None] * (nodes + 1.0))  # map [-1,1] -> [0,t]
    return half * (vals[..., None, :] @ weights[:, None])[..., 0, 0]


@functools.cache
def _gauss_legendre_80():
    return np.polynomial.legendre.leggauss(80)


BRIDGE_PANELS = 1024  # uniform panels of the bridge table on [0, 1]


@functools.cache
def _flat_step_table() -> np.ndarray:
    """Quintic Hermite coefficients (6, BRIDGE_PANELS + 1) of the integral of
    _flat_step: panel i interpolates the quadrature's value and _flat_step's
    value and slope at both of its nodes i/N and (i+1)/N.  Column N holds the
    value at t = 1, so every node evaluates to its quadrature value exactly."""
    n = BRIDGE_PANELS
    x = np.arange(n + 1) / n
    # 16 slices keep the quadrature's 80-points-per-node temporaries small
    v = np.concatenate([_flat_step_quadrature(part) for part in np.array_split(x, 16)])
    d1, d2 = _flat_step_jet(x)
    lo, hi = slice(0, n), slice(1, n + 1)
    coeffs = quintic_hermite_coeffs(x[lo], v[lo], d1[lo], d2[lo], x[hi], v[hi], d1[hi], d2[hi])
    table = np.zeros((6, n + 1))
    table[:, :n] = coeffs
    table[0, n] = v[n]
    return table


def _flat_step_integral(t):
    """Integral of _flat_step from 0 to t, from the bridge table: 0 below
    t = 0, and the integral at 1 plus (t - 1) above t = 1, where the step
    is 1.  Within 2.3e-16 of _flat_step_quadrature on [0, 1] and equal to
    it at every node.  Each entry is its own panel lookup and Horner
    evaluation, so a radius gets the same value alone as inside a grid."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    table = _flat_step_table()
    x = np.clip(t, 0.0, 1.0) * BRIDGE_PANELS
    i = x.astype(np.intp)  # floor; t >= 1 lands on the value-only column
    u = x - i
    out = table[5].take(i, mode="clip")  # clip: a NaN t stays NaN, via u
    for k in (4, 3, 2, 1, 0):
        out *= u
        out += table[k].take(i, mode="clip")
    return out + np.maximum(t - 1.0, 0.0)


# ---------------------------------------------------------------------------
# bubble profiles
# ---------------------------------------------------------------------------

def solve_cone_slope(m: float, r1: float) -> float:
    """Smallest k > 0 with cos(k*r1) = m."""
    return math.acos(m) / r1


def sin_over_k(rj: Jet2, k: float) -> Jet2:
    return jet_sin(rj * k) * (1.0 / k)


def make_A(m: float, r1: float = 2.0, r_max: Optional[float] = None) -> Profile:
    """Hopf-fiber warp: sin(k r)/k up to r1, then affine with slope m."""
    if not 0.0 < m < 0.01:
        raise ParameterError(f"m = {m} outside (0, 1/100)")
    if not r1 > 0:
        raise ParameterError(f"r1 = {r1} must be positive")
    if r_max is None:
        r_max = 8.0 * r1
    k = solve_cone_slope(m, r1)
    if not math.pi / 3 <= k * r1 < math.pi / 2:
        raise ParameterError(f"k*r1 = {k * r1} outside [pi/3, pi/2)")
    A1 = math.sin(k * r1) / k
    return Profile(
        pieces=[
            Piece(0.0, r1, sin_over_k, {"k": k}),
            Piece(r1, r_max, affine, {"value": A1, "slope": m, "anchor": r1}),
        ],
        label="A",
    )


def bump_bridge(rj: Jet2, b: float, m: float, L: float) -> Jet2:
    """b + m L F((r - L)/L), F the integral of _flat_step: slope m times the step."""
    t = (rj.v - L) / L
    s, ds = _flat_step_jet(t)
    return Jet2(
        b + m * L * _flat_step_integral(t),
        m * s * rj.d1,
        (m / L) * ds * rj.d1 * rj.d1 + m * s * rj.d2,
    )


def make_B(m: float, r1: float, A: Profile) -> Profile:
    """Plateau b, then a bump bridge with 0 <= B'' <= 4m/r1, then affine = A.

    B' on the bridge is m times a C-infinity step, so B'' = m * step' peaks
    at exactly 4m/r1; b comes from back-integrating to hit A(r1) (A's affine
    piece's value) at r1, and k is the k of A's sin_over_k piece.
    The step's integral is read from a table built once per process
    (_flat_step_integral).
    """
    k, A1 = A.pieces[0].params["k"], A.pieces[1].params["value"]
    L = 0.5 * r1
    T1 = float(_flat_step_integral(1.0)[0])  # = 1/2 up to quadrature
    b = A1 - m * L * T1
    if not b > 1.0 / (2.0 * k):
        raise ConstructionError(
            f"plateau b = {b} <= 1/(2k) = {1/(2*k)}; m = {m} too large"
        )
    if not b < math.sqrt(1 - m**2) / k:
        raise ParameterError(f"b = {b} >= sqrt(1-m^2)/k")
    return Profile(
        pieces=[
            Piece(0.0, L, const, {"value": b}),
            Piece(L, r1, bump_bridge, {"b": b, "m": m, "L": L}),
            Piece(r1, A.r_max, affine, {"value": A1, "slope": m, "anchor": r1}),
        ],
        label="B",
    )


def poly_warp(rj: Jet2, delta2: float, alpha2: float) -> Jet2:
    return jet_pow(rj * rj + 1.0, 0.5 * alpha2) * delta2


def make_f2(delta2: float, alpha2: float, r_max: float) -> Profile:
    """Polynomial-growth warp delta2 * (1 + r^2)^(alpha2/2)."""
    if not 0.0 < alpha2 <= 0.5:
        raise ParameterError(f"alpha2 = {alpha2} outside (0, 1/2]")
    if not 0.0 < delta2 < 1.0:
        raise ParameterError(f"delta2 = {delta2} outside (0, 1)")
    return Profile([Piece(0.0, r_max, poly_warp, {"delta2": delta2, "alpha2": alpha2})], "f2")


def log_flatten(rj: Jet2, c: float, m: float, A_r1: float, r1: float) -> Jet2:
    """A_r1 + m (r - r1) + c (r ln(r/r1) - r + r1)."""
    return (rj - r1) * m + (rj * jet_ln(rj * (1.0 / r1)) - rj + r1) * c + A_r1


def make_h3(m: float, epsilon: float, r1: float, r3: float, A: Profile) -> tuple[Profile, float]:
    """(h3, h3(r3)): h'' = c/r on [r1, r3] from A(r1), A's affine piece's value,
    then slope 1-eps from R3 = r3 - h3(r3)/(1-eps) up to 16 r3.

    c = (1 - eps - m)/ln(r3/r1) spends the slope budget exactly; the
    constraint r*h'' = c <= 10/ln(r3) is checked, not assumed.
    """
    if r3 <= r1:
        raise ParameterError(f"r3 = {r3} must exceed r1 = {r1}")
    if r3 <= 1.0:
        raise ParameterError(f"r3 = {r3} must exceed 1, so that the budget 10/ln(r3) is positive")
    c = (1.0 - epsilon - m) / math.log(r3 / r1)
    budget = 10.0 / math.log(r3)
    if c > budget:
        # minimal feasible r3 solves (1-eps-m) ln r3 = 10 ln(r3/r1)
        ln_min = 10.0 * math.log(r1) / (10.0 - (1.0 - epsilon - m))
        raise ParameterError(
            f"slope budget infeasible: c = {c:.6g} > 10/ln(r3) = {budget:.6g}; "
            f"minimal r3 is {math.exp(ln_min):.6g}"
        )

    A_r1 = A.pieces[1].params["value"]
    flatten = Piece(r1, r3, log_flatten, {"c": c, "m": m, "A_r1": A_r1, "r1": r1})
    h3_r3 = float(flatten(r3).v)
    R3 = r3 - h3_r3 / (1.0 - epsilon)

    return Profile(
        pieces=[
            flatten,
            Piece(r3, 16.0 * r3, affine, {"value": 0.0, "slope": 1.0 - epsilon, "anchor": R3}),
        ],
        label="h3",
    ), h3_r3


def power_tail(rj: Jet2, delta: float, alpha: float, R3: float) -> Jet2:
    return jet_pow(rj - R3, alpha) * delta


def make_f4(alpha2: float, delta2: float, epsilon: float, r3: float, h3_r3: float,
            f2: Profile) -> Profile:
    """Switch the warp to delta*(r - R3)^alpha on [r3, 16 r3], C1 by the
    matching exponent/coefficient formulas (verified, not trusted); h3_r3
    is make_h3's, and R3 = r3 - h3_r3/(1-eps) has the bits of h3's anchor."""
    t3 = h3_r3 / (1.0 - epsilon)
    R3 = r3 - t3
    alpha = alpha2 * (r3 * t3) / (1.0 + r3 * r3)
    delta = delta2 * (1.0 + r3 * r3) ** (0.5 * alpha2) / t3**alpha
    if not (math.isfinite(alpha) and math.isfinite(delta)):
        raise ParameterError(f"r3 = {r3} gives a non-finite exterior warp: "
                             f"alpha = {alpha}, delta = {delta}")
    if not alpha < alpha2:
        raise ConstructionError(f"alpha = {alpha} >= alpha2 = {alpha2}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta = {delta} outside (0, 1)")
    if not R3 > 0:
        raise ConstructionError(f"R3 = {R3} <= 0")
    pieces = f2.trimmed(0.0, r3) + [
        Piece(r3, 16.0 * r3, power_tail, {"delta": delta, "alpha": alpha, "R3": R3})
    ]
    try:
        return Profile(pieces, label="f4")
    except ConstructionError as exc:
        raise ConstructionError(f"f4 matching formulas failed C1 check: {exc}") from exc


def power_law(rj: Jet2, p: float, coeff: float, r3: float) -> Jet2:
    return jet_pow(rj * (1.0 / r3), p) * coeff


def make_lambda(r3: float, R3: float, r_max: Optional[float] = None) -> Profile:
    """Blow-down reparameterization: power law forcing lambda'(r3) = 1,
    then the exact isometry lambda = r - R3."""
    if not 0.0 < R3 < r3:
        raise ParameterError(f"need 0 < R3 < r3, got R3 = {R3}, r3 = {r3}")
    if r_max is None:
        r_max = 16.0 * r3
    p = r3 / (r3 - R3)
    C0 = r3 - R3
    return Profile(
        pieces=[
            Piece(0.0, r3, power_law, {"p": p, "coeff": C0, "r3": r3}),
            Piece(r3, r_max, affine, {"value": C0, "slope": 1.0, "anchor": r3}),
        ],
        label="lambda",
    )


# ---------------------------------------------------------------------------
# surgery profiles
# ---------------------------------------------------------------------------

def make_step2_h(epsilon: float) -> Profile:
    """Cone-angle bridge on [0, 2]: (1-eps) r below 1/2, r above 1, quintic
    Hermite between, matching value/slope/curvature at both ends.

    The exact anchors force mean slope 1 + eps on the bridge, so any C^1
    choice has max |h''| >= 12 eps; the quintic lands near 20 eps and the
    combined bound |h - r| + |h' - 1| + |h''| <= 21 eps is verified here.
    """
    if not 0.0 < epsilon < 0.1:
        raise ParameterError(f"epsilon = {epsilon} outside (0, 1/10)")
    lo, hi = 0.5, 1.0
    coeffs = quintic_hermite_coeffs(
        lo, (1.0 - epsilon) * lo, 1.0 - epsilon, 0.0, hi, 1.0, 1.0, 0.0
    )
    prof = Profile(
        pieces=[
            Piece(0.0, lo, affine, {"value": 0.0, "slope": 1.0 - epsilon, "anchor": 0.0}),
            Piece(lo, hi, poly_in_t, {"coeffs": coeffs, "x0": lo, "L": hi - lo}),
            Piece(hi, 2.0, affine, {"value": hi, "slope": 1.0, "anchor": hi}),
        ],
        label="step2_h",
    )

    def triple(rs):
        out = prof(rs)
        return np.abs(out.v - rs) + np.abs(out.d1 - 1.0) + np.abs(out.d2)

    [(worst, at)] = sampled_sup(triple, lo, hi)
    if worst > 21.0 * epsilon:
        raise ConstructionError(
            f"bridge bound violated: max(|h-r|+|h'-1|+|h''|) = {worst:.4g} "
            f"> 21*eps = {21*epsilon:.4g} at r = {at:.6g}"
        )
    return prof


C_UNIVERSAL = 8.0  # the universal constant C of the smallness inequalities


def cubic_logwarp_smallness_checks(alpha: float, r_m: float, rho: float, eta: float) -> None:
    """The 'r_m small enough' regime, materialized as named inequalities."""
    if not 0.0 < rho < 1.0:
        raise ParameterError(f"rho = {rho} outside (0, 1)")
    if not r_m > 0:
        raise ParameterError(f"r_m = {r_m} must be positive")
    if not (-1.0 / (2.0 * rho) + C_UNIVERSAL / (1.0 - rho) < -4.0 / (1.0 - rho)):
        raise ParameterError(
            f"rho = {rho} too large: need -1/(2 rho) + C/(1-rho) < -4/(1-rho) with C = {C_UNIVERSAL}"
        )
    if not alpha <= ((1.0 - rho) / (1.0 + rho)) ** 2:
        raise ParameterError(
            f"alpha = {alpha} > ((1-rho)/(1+rho))^2 = {((1-rho)/(1+rho))**2:.6g}"
        )
    decay = math.exp(-4.0 * eta * r_m / alpha)
    if not decay > 1.0 - rho:
        raise ParameterError(
            f"exp(-4 eta r_m / alpha) = {decay:.6g} <= 1 - rho = {1-rho:.6g}"
        )
    if not abs(1.0 - decay) <= 2.0 * rho**2 / (3.0 * (1.0 - rho)):
        raise ParameterError(
            f"|1 - exp(-4 eta r_m/alpha)| = {abs(1-decay):.3g} > "
            f"2 rho^2/(3(1-rho)) = {2*rho**2/(3*(1-rho)):.3g}"
        )
    lhs = eta / r_m
    rhs = alpha / (
        (1.0 / (2.0 * rho) + 1.0 / (1.0 - rho) + C_UNIVERSAL * r_m)
        * (1.0 - rho) ** 2
        * r_m**2
    )
    if not lhs <= rhs:
        raise ParameterError(
            f"eta/r_m = {lhs:.6g} > absorption threshold {rhs:.6g}; shrink r_m"
        )


def power_warp(rj: Jet2, delta: float, alpha: float) -> Jet2:
    return jet_pow(rj, alpha) * delta


def log_cubic(rj: Jet2, coeffs, x0: float, L: float) -> Jet2:
    """exp of a cubic in t = (r - x0)/L."""
    return jet_exp(poly_in_t(rj, coeffs, x0, L))


def make_cubic_logwarp(
    f_plus: Profile,
    alpha: float,
    r_m: float,
    rho: float = 1.0 / 32.0,
    eta: float = 0.0,
) -> Profile:
    """Warp interpolation delta r^alpha -> f_plus via a cubic in ln f.

    delta = f_plus(0) r_m^-alpha e^{2 eta r_m} is the first piece's delta.
    The radial log-concavity f''/f <= -alpha/r^2 on the interpolation interval
    is sampled, and its failure names the fix (smaller r_m).
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha = {alpha} outside (0, 1)")
    cubic_logwarp_smallness_checks(alpha, r_m, rho, eta)
    r2 = (1.0 - rho) * r_m
    r2p = (1.0 + rho) * r_m
    if r2p >= f_plus.r_max:
        raise ParameterError("interpolation interval exceeds the ambient profile")

    f_center = float(f_plus(0.0).v)
    delta = f_center * r_m ** (-alpha) * math.exp(2.0 * eta * r_m)

    # cubic Hermite of ln f on [r2, r2p] in t = (r - r2)/L
    L = r2p - r2
    y0 = math.log(delta) + alpha * math.log(r2)
    m0 = alpha / r2
    fp = f_plus(r2p)
    y1 = math.log(float(fp.v))
    m1 = float(fp.d1 / fp.v)
    d0, d1_ = m0 * L, m1 * L
    dy = y1 - y0
    coeffs = [y0, d0, 3.0 * dy - 2.0 * d0 - d1_, -2.0 * dy + d0 + d1_]
    prof = Profile(
        pieces=[
            Piece(0.0, r2, power_warp, {"delta": delta, "alpha": alpha}),
            Piece(r2, r2p, log_cubic, {"coeffs": coeffs, "x0": r2, "L": L}),
        ]
        + f_plus.trimmed(r2p, f_plus.r_max),
        label="f2_surgery",
    )

    def excess(rs):
        out = prof(rs)
        return out.d2 / out.v + alpha / rs**2

    [(worst, at)] = sampled_sup(excess, r2, r2p)
    if worst > 0.0:
        raise ParameterError(
            f"concavity postcondition f''/f <= -alpha/r^2 violated by {worst:.3g} "
            f"at r = {at:.6g} on the interpolation interval; use a smaller r_m"
        )
    return prof


def make_xi(r3: float, r_max: Optional[float] = None) -> Profile:
    """Cutoff 0 -> 1 across [r3, 2 r3] with |xi'| <= 4/r, |xi''| <= 19/r^2."""
    if r3 <= 0:
        raise ParameterError(f"r3 = {r3} must be positive")
    if r_max is None:
        r_max = 8.0 * r3
    prof = Profile(
        pieces=[
            Piece(0.0, r3, const, {"value": 0.0}),
            Piece(r3, 2.0 * r3, poly_in_t, {"coeffs": SMOOTHSTEP, "x0": r3, "L": r3}),
            Piece(2.0 * r3, r_max, const, {"value": 1.0}),
        ],
        label="xi",
    )

    def scaled(rs):
        out = prof(rs)
        return np.abs(out.d1) * rs, np.abs(out.d2) * rs * rs

    for (sup, at), what, limit in zip(sampled_sup(scaled, r3, 2.0 * r3),
                                      ("|xi'| r", "|xi''| r^2"), (4.0, 19.0)):
        if sup > limit:
            raise ConstructionError(f"cutoff bound violated: {what} = {sup:.6g} > {limit:g} "
                                    f"at r = {at:.6g}")
    return prof


_MU_SERIES_SWITCH = 1e-3


def sn_over_r(rj: Jet2, kappa: float) -> Jet2:
    """mu(r) = sn_kappa(r)/r, series-evaluated below r = 1e-3; the constant 1
    when kappa = 0.  Only the branches the radii need are evaluated."""
    if kappa == 0.0:
        return const(rj, 1.0)
    small = rj.v < _MU_SERIES_SWITCH
    if not small.any():
        return sn_jet(kappa, rj) / rj
    series = [1.0, 0.0, -kappa / 6.0, 0.0, kappa**2 / 120.0, 0.0,
              -kappa**3 / 5040.0, 0.0, kappa**4 / 362880.0]
    ser = jet_poly(series, rj)
    if small.all():
        return ser
    safe = Jet2(np.where(small, _MU_SERIES_SWITCH, rj.v), rj.d1, rj.d2)
    closed = sn_jet(kappa, safe) / safe
    return Jet2(np.where(small, ser.v, closed.v), np.where(small, ser.d1, closed.d1),
                np.where(small, ser.d2, closed.d2))


def make_model_mu(kappa: float, r_max: float = 2.0) -> Profile:
    """Space-form factor mu(r) = sn_kappa(r)/r on [0, r_max]."""
    if kappa > 0 and kappa * r_max**2 >= (math.pi / 2) ** 2:
        raise ParameterError(
            f"kappa = {kappa} too large for r_max = {r_max}: sn would vanish"
        )
    return Profile([Piece(0.0, r_max, sn_over_r, {"kappa": kappa})], "mu")


def sn_jet(kappa: float, rj: Jet2) -> Jet2:
    """sn_kappa(r): sin, identity or sinh depending on the sign of kappa."""
    if kappa == 0.0:
        return rj
    s = math.sqrt(abs(kappa))
    return (jet_sin(rj * s) if kappa > 0 else jet_sinh(rj * s)) * (1.0 / s)
