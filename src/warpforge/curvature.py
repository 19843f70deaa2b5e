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
radius.  It takes a batch of radii as numpy arrays and gives each radius
the same blocks, bit for bit, as a call on that radius alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .jets import Jet2, JetDomainError
from .profiles import ParameterError, Piece, Profile


@dataclass
class RicciBlocks:
    """Diagonal Ricci components.  In round symmetry sX == sYZ (up to
    rounding), and as_dict reports the pair as the one S^3 block "s3"."""

    rr: object
    sX: object
    sYZ: object
    s2: object
    cross_ir_mag: object = 0.0

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
    # each term shared between blocks is computed once; doubling a shared
    # term is exact, so every block rounds as the textbook expression does
    ad2, bd2, fd2 = A.d2 / a, B.d2 / b, f.d2 / w
    ab = A.d1 * B.d1 / (a * b)
    af = A.d1 * f.d1 / (a * w)
    bf = B.d1 * f.d1 / (b * w)
    aa, b4 = a * a, b**4
    rr = -ad2 - 2.0 * bd2 - 2.0 * fd2
    sX = -ad2 - 2.0 * ab + 2.0 * (aa / b4) - 2.0 * af
    sYZ = -bd2 - ab - (B.d1 / b) ** 2 + 2.0 * (2.0 * b * b - aa) / b4 - 2.0 * bf
    s2 = 1.0 / (w * w) - fd2 - (f.d1 / w) ** 2 - af - 2.0 * bf
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

    def verification_pieces(self) -> list[tuple[float, float, Piece, Optional[Piece], Piece]]:
        """(lo, hi, A's piece, B's piece, f's piece) per smooth piece of the
        metric, B's piece None when round.  [lo, hi] lies inside one piece of
        each profile, so its blocks come from those closed forms alone; the
        glue's A and B share their surgery pieces (B's piece is A's)."""
        lo, hi = self.r_range
        edges = [lo] + self.breakpoints() + [hi]
        starts = edges[:-1]
        columns = [[p.pieces[i] for i in p.piece_index(starts)] if p else [None] * len(starts)
                   for p in (self.A, self.B, self.f)]
        return list(zip(starts, edges[1:], *columns))

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


def _by_value(fn, x: np.ndarray) -> np.ndarray:
    """fn at each entry of x, called once per distinct value: the chart
    takes sin and cos from math, which numpy's own need not match bit for
    bit on every build."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([fn(v) for v in values.tolist()])[where].reshape(x.shape)


def _stencil_steps(h: np.ndarray) -> np.ndarray:
    """(n, 13, 6) steps of one 5-point stencil per radius: slot 0 is the
    center, slot 1 + 4k + j steps by _OFFS[j] * h along _VARYING[k]."""
    steps = np.zeros((len(h), 13, 6))
    for k, c in enumerate(_VARYING):
        steps[:, 1 + 4 * k:5 + 4 * k, c] = _OFFS * h[:, c, None]
    return steps


def _derivative(f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """5-point first derivatives of a field sampled on the stencil slots,
    f (n, 13, ...) -> (n, 6, ...), zero along coordinates not in _VARYING.

    Differences are taken against the center value so entries that are
    exactly constant differentiate to exactly zero; the raw weighted sum
    would leave O(eps) residue that huge inverse-metric entries amplify.
    """
    out = np.zeros(f.shape[:1] + (6,) + f.shape[2:])
    for k, c in enumerate(_VARYING):
        acc = np.zeros_like(f[:, 0])
        for j, wgt in enumerate(_W5):
            acc += wgt * (f[:, 1 + 4 * k + j] - f[:, 0])
        out[:, c] = acc / h[:, c].reshape((-1,) + (1,) * (acc.ndim - 1))
    return out


def _chart_metric(metric: WarpedMetric, r0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Coordinate metrics (..., 6, 6) at chart points x (..., 6), coordinates
    (rho, theta, phi, psi, u, v), zoomed by 1/r0 so that the base point sits
    at rho = 1 regardless of the physical radius.  The coefficients are
    read once, at the distinct physical radii rho * r0."""
    rho, theta, u = x[..., 0], x[..., 1], x[..., 4]
    radii, where = np.unique(rho * r0, return_inverse=True)
    where, s = where.reshape(rho.shape), 1.0 / r0
    a, b, w = (s * c[where] for c in metric.coefficients(radii))
    ct, st = _by_value(math.cos, theta), _by_value(math.sin, theta)
    g = np.zeros(rho.shape + (6, 6))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = 0.25 * b * b
    g[..., 2, 2] = 0.25 * (b * b * st * st + a * a * ct * ct)
    g[..., 3, 3] = 0.25 * a * a
    g[..., 2, 3] = g[..., 3, 2] = 0.25 * a * a * ct
    g[..., 4, 4] = w * w
    g[..., 5, 5] = w * w * _by_value(lambda t: math.sin(t) ** 2, u)
    return g


def _block_inverse(g: np.ndarray) -> np.ndarray:
    """Exact inverse for the chart's block structure {rho},{theta},{phi,psi},
    {u},{v}; np.linalg.inv would lose elementwise accuracy once the S^2
    entries are many orders smaller than the S^3 ones."""
    inv = np.zeros_like(g)
    for i in (0, 1, 4, 5):
        inv[..., i, i] = 1.0 / g[..., i, i]
    det = g[..., 2, 2] * g[..., 3, 3] - g[..., 2, 3] * g[..., 3, 2]
    inv[..., 2, 2] = g[..., 3, 3] / det
    inv[..., 3, 3] = g[..., 2, 2] / det
    inv[..., 2, 3] = inv[..., 3, 2] = -g[..., 2, 3] / det
    return inv


def fd_ricci_oracle(metric: WarpedMetric, r0, h_fd: float = 1e-4) -> RicciBlocks:
    """Ricci blocks at radius r0 (a float or an array of radii) from finite
    differences of the raw chart, shaped like r0.

    Shares nothing with the closed-form path except the profile value
    channel.  Each r0 must sit inside a smooth piece, at relative distance
    > 10*h_fd from the nearest breakpoint.  All radii are differenced in one
    batch: the Christoffel symbols on nested 5-point stencils (13 x 13 chart
    points per radius), then Ricci from their differences.  A radius gets
    the same blocks, bit for bit, alone or in any batch.
    """
    r = np.array(r0, dtype=float, ndmin=1).ravel()
    lo, hi = metric.r_range
    if not np.all((lo < r) & (r < hi)):
        raise ParameterError(f"r0 = {r0} outside metric range {metric.r_range}")
    edges = np.array(metric.breakpoints() + [lo, hi])
    margin = np.min(np.abs(r[:, None] - edges) / r[:, None], axis=1)
    if np.any(margin <= 10.0 * h_fd):
        raise ParameterError(f"r0 = {r[np.argmin(margin)]} within 10*h_fd of a breakpoint "
                             f"(relative margin {np.min(margin):.2e})")

    h = np.full((r.size, 6), h_fd)
    h[:, 0] = np.minimum(h_fd, margin / 8.0)
    steps = _stencil_steps(h)
    x = np.array([1.0, _THETA0, _PHI0, _PSI0, _U0, _V0]) + steps[:, :, None]
    g = _chart_metric(metric, r[:, None, None], x + steps[:, None])  # (n, 13, 13, 6, 6)

    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc}) at each stencil slot
    dg = _derivative(g.reshape((-1,) + g.shape[2:]), np.repeat(h, 13, axis=0))
    dg = dg.reshape(g.shape[:2] + (6, 6, 6))
    sym = dg + dg.swapaxes(-1, -3) - dg.swapaxes(-2, -3)
    gamma = 0.5 * np.einsum("...ad,...bdc->...abc", _block_inverse(g[:, :, 0]), sym)
    dgamma = _derivative(gamma, h)

    # orthonormal frame: e_r, e_X (Hopf), e_Y, e_Z, e_u
    g0 = g[:, 0, 0]
    a, b, w = np.sqrt(4.0 * g0[:, 3, 3]), np.sqrt(4.0 * g0[:, 1, 1]), np.sqrt(g0[:, 4, 4])
    frame = np.zeros((r.size, 5, 6))
    frame[:, 0, 0] = 1.0
    frame[:, 1, 3] = 2.0 / a
    frame[:, 2, 1] = 2.0 / b
    frame[:, 3, 2] = 2.0 / (b * math.sin(_THETA0))
    frame[:, 3, 3] = frame[:, 3, 2] * -math.cos(_THETA0)
    frame[:, 4, 4] = 1.0 / w

    # R_{bd} = d_a G^a_{bd} - d_d G^a_{ba} + G^a_{ae} G^e_{bd} - G^a_{de} G^e_{ba}
    gam = gamma[:, 0]
    ricci = (np.einsum("...aabd->...bd", dgamma) - np.einsum("...daba->...bd", dgamma)
             + np.einsum("...aae,...ebd->...bd", gam, gam)
             - np.einsum("...ade,...eba->...bd", gam, gam))
    pairs = np.empty((r.size, 8))  # rr, XX, YY, ZZ, uu, rX, rY, rZ
    for i, (e, ric) in enumerate(zip(frame, ricci)):
        pairs[i] = [e[j] @ ric @ e[l] for j, l in
                    ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (0, 1), (0, 2), (0, 3))]

    scale = 1.0 / (r * r)  # undo the zoom: Ric(g) = s^2 Ric(s^2 g), s = 1/r0
    shape = np.shape(r0)
    return RicciBlocks(
        rr=(pairs[:, 0] * scale).reshape(shape),
        sX=(pairs[:, 1] * scale).reshape(shape),
        sYZ=(0.5 * (pairs[:, 2] + pairs[:, 3]) * scale).reshape(shape),
        s2=(pairs[:, 4] * scale).reshape(shape),
        cross_ir_mag=(np.max(np.abs(pairs[:, 5:]), axis=1) * scale).reshape(shape),
    )
