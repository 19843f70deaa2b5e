"""Ricci curvature of rotationally symmetric warped metrics.

Every metric is a Berger-form ansatz on a radial coordinate r,

  dr^2 + A^2 dX^2 + B^2 (dY^2 + dZ^2) + f^2 g_{S^2},

where X, Y, Z is the left-invariant coframe on S^3 normalized so that
dX^2 + dY^2 + dZ^2 is the unit round metric (Hopf fiber along X).  The
cone-warp form dr^2 + phi^2 g_{S^3} + f^2 g_{S^2} is the case A = B = phi
(the unsquashed Berger sphere is the round one), so `ricci_berger` is the
only closed form.  All blocks are reported as orthonormal-frame
eigenvalues: a lower-bound comparison is a plain scalar comparison.

The closed form evaluates through exact 2-jets; `fd_ricci_oracle` is the
independent cross-check, computing the same blocks from 5-point finite
differences of the raw coordinate metric on an explicit 6-dimensional
Euler-angle chart, after zooming coordinates so the chart is O(1) at any
radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .jets import Jet2, JetDomainError
from .profiles import ParameterError, Profile


@dataclass
class RicciBlocks:
    """Diagonal Ricci components; s3 names sX, and sX == sYZ (up to
    rounding) in round symmetry."""

    rr: object
    sX: object
    sYZ: object
    s2: object
    cross_ir_mag: object = 0.0

    @property
    def s3(self):
        return self.sX

    def as_dict(self, is_round: bool) -> dict:
        if is_round:
            return {"rr": self.rr, "s3": self.sX, "s2": self.s2}
        return {"rr": self.rr, "sX": self.sX, "sYZ": self.sYZ, "s2": self.s2}


def _require_positive(name: str, value) -> None:
    if np.any(np.asarray(value) <= 0.0):
        raise JetDomainError(f"{name} must be positive, got min {np.min(value)}")


def ricci_berger(A: Jet2, B: Jet2, f: Jet2) -> RicciBlocks:
    """Blocks of dr^2 + A^2 dX^2 + B^2(dY^2+dZ^2) + f^2 g_{S^2}."""
    _require_positive("A", A.v)
    _require_positive("B", B.v)
    _require_positive("f", f.v)
    a, b, w = A.v, B.v, f.v
    rr = -A.d2 / a - 2.0 * B.d2 / b - 2.0 * f.d2 / w
    sX = (
        -A.d2 / a
        - 2.0 * A.d1 * B.d1 / (a * b)
        + 2.0 * a * a / b**4
        - 2.0 * A.d1 * f.d1 / (a * w)
    )
    sYZ = (
        -B.d2 / b
        - A.d1 * B.d1 / (a * b)
        - (B.d1 / b) ** 2
        + 2.0 * (2.0 * b * b - a * a) / b**4
        - 2.0 * B.d1 * f.d1 / (b * w)
    )
    s2 = (
        1.0 / (w * w)
        - f.d2 / w
        - (f.d1 / w) ** 2
        - A.d1 * f.d1 / (a * w)
        - 2.0 * B.d1 * f.d1 / (b * w)
    )
    return RicciBlocks(rr, sX, sYZ, s2)


def scale_warp(blocks: RicciBlocks, f: Jet2, lam: float) -> RicciBlocks:
    """Blocks after f -> lam * f, lam in (0, 1]: base untouched, S^2 block
    gains (lam^-2 - 1)/f^2 >= 0."""
    if not 0.0 < lam <= 1.0:
        raise ParameterError(f"lambda = {lam} outside (0, 1]")
    s2_new = blocks.s2 + (1.0 / (lam * lam) - 1.0) / (f.v * f.v)
    if np.any(np.asarray(s2_new) < np.asarray(blocks.s2) - 1e-12):
        raise RuntimeError("warp rescaling decreased the S^2 block")
    return RicciBlocks(blocks.rr, blocks.sX, blocks.sYZ, s2_new, blocks.cross_ir_mag)


# ---------------------------------------------------------------------------
# metric container
# ---------------------------------------------------------------------------

@dataclass
class WarpedMetric:
    """A complete radial metric: Berger triple (A, B, f), or a round S^3
    factor of radius A when B is None.

    A round metric is the Berger case B = A: blocks() reuses A's jet as B,
    and the report keys and the descriptor's "form" follow from B is None.
    """

    A: Profile
    B: Optional[Profile]
    f: Profile
    r_range: tuple[float, float]
    label: str
    params: dict = field(default_factory=dict)

    @property
    def is_round(self) -> bool:
        return self.B is None

    def profiles(self) -> dict[str, Profile]:
        out = {"phi" if self.is_round else "A": self.A, "f": self.f}
        if self.B is not None:
            out["B"] = self.B
        return out

    def blocks(self, rs) -> RicciBlocks:
        aj = self.A(rs)
        bj = aj if self.B is None else self.B(rs)
        return ricci_berger(aj, bj, self.f(rs))

    def coefficients(self, rs):
        """(phi_or_A, B, f) value arrays for reporting."""
        a = self.A(rs).v
        b = a if self.B is None else self.B(rs).v
        return a, b, self.f(rs).v

    def breakpoints(self) -> list[float]:
        lo, hi = self.r_range
        pts = set()
        for prof in ([self.A, self.f] if self.B is None else [self.A, self.B, self.f]):
            pts.update(b for b in prof.breakpoints if lo < b < hi)
        return sorted(pts)

    def verification_pieces(self) -> list[tuple[float, float]]:
        lo, hi = self.r_range
        edges = [lo] + self.breakpoints() + [hi]
        return list(zip(edges[:-1], edges[1:]))

    def descriptor(self) -> dict:
        return {
            "label": self.label,
            "form": "cone" if self.is_round else "berger",
            "r_range": list(self.r_range),
            "profiles": {k: p.descriptor() for k, p in self.profiles().items()},
        }


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

# chart base point: generic Euler/sphere angles away from coordinate poles
_THETA0, _PHI0, _PSI0, _U0, _V0 = 1.04719755, 0.31, 0.73, 1.13, 0.41

# the metric depends only on (rho, theta, u); indices of those coordinates
_VARYING = (0, 1, 4)

_W5 = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0
_OFFS = np.array([2.0, 1.0, -1.0, -2.0])


def _stencil_derivative(fn, x: np.ndarray, c: int, hc: float, center):
    """5-point first derivative of a matrix field along coordinate c.

    Differences are taken against the center value so entries that are
    exactly constant differentiate to exactly zero; the raw weighted sum
    would leave O(eps) residue that huge inverse-metric entries amplify.
    """
    acc = np.zeros_like(center)
    for wgt, off in zip(_W5, _OFFS):
        xp = x.copy()
        xp[c] += off * hc
        acc += wgt * (fn(xp) - center)
    return acc / hc


def _chart_metric(a: float, b: float, w: float, theta: float, u: float) -> np.ndarray:
    """Coordinate metric at (theta, u) for Berger coefficients a, b, warp w,
    coordinates (rho, theta, phi, psi, u, v)."""
    g = np.zeros((6, 6))
    ct, st = math.cos(theta), math.sin(theta)
    g[0, 0] = 1.0
    g[1, 1] = 0.25 * b * b
    g[2, 2] = 0.25 * (b * b * st * st + a * a * ct * ct)
    g[3, 3] = 0.25 * a * a
    g[2, 3] = g[3, 2] = 0.25 * a * a * ct
    g[4, 4] = w * w
    g[5, 5] = w * w * math.sin(u) ** 2
    return g


class _ZoomedChart:
    """Metric as a function of 6 chart coordinates, zoomed so that the base
    point sits at rho = 1 regardless of the physical radius.  The stencils
    revisit few rho values, so each rho's zoomed (a, b, w) is kept."""

    def __init__(self, metric: WarpedMetric, r0: float):
        self.metric = metric
        self.r0 = r0
        self.coeffs: dict[float, tuple[float, float, float]] = {}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x[0] not in self.coeffs:
            r, s = x[:1] * self.r0, 1.0 / self.r0
            a = s * float(self.metric.A(r).v[0])
            b = a if self.metric.B is None else s * float(self.metric.B(r).v[0])
            self.coeffs[x[0]] = (a, b, s * float(self.metric.f(r).v[0]))
        return _chart_metric(*self.coeffs[x[0]], x[1], x[4])


def _block_inverse(g: np.ndarray) -> np.ndarray:
    """Exact inverse for the chart's block structure {rho},{theta},{phi,psi},
    {u},{v}; np.linalg.inv would lose elementwise accuracy once the S^2
    entries are many orders smaller than the S^3 ones."""
    inv = np.zeros_like(g)
    for i in (0, 1, 4, 5):
        inv[i, i] = 1.0 / g[i, i]
    det = g[2, 2] * g[3, 3] - g[2, 3] * g[3, 2]
    inv[2, 2] = g[3, 3] / det
    inv[3, 3] = g[2, 2] / det
    inv[2, 3] = inv[3, 2] = -g[2, 3] / det
    return inv


def _christoffel(chart, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    g = chart(x)
    ginv = _block_inverse(g)
    dg = np.zeros((6, 6, 6))
    for c in _VARYING:
        dg[c] = _stencil_derivative(chart, x, c, h[c], g)
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    return 0.5 * np.einsum("ad,bdc->abc", ginv, dg + dg.transpose(2, 1, 0) - dg.transpose(1, 0, 2))


def _ricci_tensor(chart, x: np.ndarray, h: np.ndarray) -> np.ndarray:
    gamma = _christoffel(chart, x, h)
    gamma_fn = lambda xp: _christoffel(chart, xp, h)
    dgamma = np.zeros((6, 6, 6, 6))
    for c in _VARYING:
        dgamma[c] = _stencil_derivative(gamma_fn, x, c, h[c], gamma)
    # R_{bd} = d_a G^a_{bd} - d_d G^a_{ba} + G^a_{ae} G^e_{bd} - G^a_{de} G^e_{ba}
    term1 = np.einsum("aabd->bd", dgamma)
    term2 = np.einsum("daba->bd", dgamma)
    term3 = np.einsum("aae,ebd->bd", gamma, gamma)
    term4 = np.einsum("ade,eba->bd", gamma, gamma)
    return term1 - term2 + term3 - term4


def fd_ricci_oracle(metric: WarpedMetric, r0: float, h_fd: float = 1e-4) -> RicciBlocks:
    """Ricci blocks at radius r0 from finite differences of the raw chart.

    Shares nothing with the closed-form path except the profile value
    channel.  r0 must sit inside a smooth piece, at relative distance
    > 10*h_fd from the nearest breakpoint.
    """
    lo, hi = metric.r_range
    if not lo < r0 < hi:
        raise ParameterError(f"r0 = {r0} outside metric range {metric.r_range}")
    margin = min(
        [abs(r0 - b) / r0 for b in metric.breakpoints()]
        + [abs(r0 - lo) / r0, abs(hi - r0) / r0]
    )
    if margin <= 10.0 * h_fd:
        raise ParameterError(
            f"r0 = {r0} within 10*h_fd of a breakpoint (relative margin {margin:.2e})"
        )

    chart = _ZoomedChart(metric, r0)
    x0 = np.array([1.0, _THETA0, _PHI0, _PSI0, _U0, _V0])
    h = np.full(6, h_fd)
    h[0] = min(h_fd, margin / 8.0)

    ric = _ricci_tensor(chart, x0, h)
    g = chart(x0)

    # orthonormal frame: e_r, e_X (Hopf), e_Y, e_Z, e_u
    a = math.sqrt(4.0 * g[3, 3])
    b = math.sqrt(4.0 * g[1, 1])
    w = math.sqrt(g[4, 4])
    ct, st = math.cos(_THETA0), math.sin(_THETA0)
    e_r = _basis(0, 1.0)
    e_X = _basis(3, 2.0 / a)
    e_Y = _basis(1, 2.0 / b)
    e_Z = (2.0 / (b * st)) * (_basis(2, 1.0) - ct * _basis(3, 1.0))
    e_u = _basis(4, 1.0 / w)

    def pair(u_, v_):
        return float(u_ @ ric @ v_)

    scale = 1.0 / (r0 * r0)  # undo the zoom: Ric(g) = s^2 Ric(s^2 g), s = 1/r0
    cross = max(abs(pair(e_r, e_X)), abs(pair(e_r, e_Y)), abs(pair(e_r, e_Z)))
    return RicciBlocks(
        rr=pair(e_r, e_r) * scale,
        sX=pair(e_X, e_X) * scale,
        sYZ=0.5 * (pair(e_Y, e_Y) + pair(e_Z, e_Z)) * scale,
        s2=pair(e_u, e_u) * scale,
        cross_ir_mag=cross * scale,
    )


def _basis(i: int, c: float) -> np.ndarray:
    v = np.zeros(6)
    v[i] = c
    return v
