"""Ricci curvature of rotationally symmetric warped metrics.

Every metric is a Berger-form ansatz on a radial coordinate r,

  dr^2 + A^2 dX^2 + B^2 (dY^2 + dZ^2) + f^2 g_{S^2},

where X, Y, Z is the left-invariant coframe on S^3 normalized so that
dX^2 + dY^2 + dZ^2 is the unit round metric (Hopf fiber along X).  The
cone-warp form dr^2 + phi^2 g_{S^3} + f^2 g_{S^2} is the case A = B = phi
(the unsquashed Berger sphere is the round one), a WarpedMetric whose B is
its A, so `ricci_berger` is the only closed form.  All blocks are reported
as orthonormal-frame eigenvalues: a lower-bound comparison is a plain
scalar comparison.

The closed form evaluates through exact 2-jets, which `berger_jets` gives
any triple (A, B, f); `fd_ricci_oracle` is the independent cross-check,
computing the same blocks from 5-point finite differences of the raw
coordinate metric on an explicit 6-dimensional Euler-angle chart, after
zooming coordinates so the chart is O(1) at any radius.  It takes a batch
of radii of any size as numpy arrays, differences them ORACLE_CHUNK at a
time so its working memory stays bounded, and gives each radius the same
blocks, bit for bit, as a call on that radius alone.  The chart metric has
8 live (possibly nonzero) entries of 36 and varies along 3 of the 6
coordinates, so up to the Ricci contractions the oracle carries only live
entries: the metric's 8, their first derivatives, and the 66 first-kind
and 66 second-kind Christoffel symbols the live pattern allows, by index
tables derived at import.  The trig of the chart angles is evaluated once
per call, since every radius takes the same angle steps.  Every distinct
radius of a radius' 169 chart points lies on its 5 x 5 radial sub-stencil,
which holds only 9 distinct radii at the step H_FD: `stencil_radii` names
them, and the oracle reads the profile values there once, or takes them
from its caller (verify_ric_lower hands over the values of its own
evaluation of each piece).  Each entry is computed from the same operands
in the same order as in the dense 6 x 6 algebra, so the blocks match it
bit for bit.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

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


def berger_jets(A: Callable, B: Callable, f: Callable, rs) -> tuple[Jet2, Jet2, Jet2]:
    """The jets of a Berger triple of radial callables at rs: a metric's
    profiles, or one verification piece's closed forms.  A B that is A (a
    round metric, or a piece the glue's A and B share), or a piece of A's
    rule on equal params, reuses A's jet: a rule is a pure function of its
    params, so B's own evaluation would give the same bits."""
    aj = A(rs)
    same = B is A or (isinstance(A, Piece) and isinstance(B, Piece)
                      and B.rule is A.rule and B.params == A.params)
    return aj, aj if same else B(rs), f(rs)


# ---------------------------------------------------------------------------
# metric container
# ---------------------------------------------------------------------------

@dataclass
class WarpedMetric:
    """A complete radial metric: the Berger triple (A, B, f).

    A round S^3 factor of radius A is the Berger case B = A, the same
    profile: the report keys and the descriptor's "form" follow from
    B is A, and berger_jets evaluates A once.
    """

    A: Profile
    B: Profile
    f: Profile
    r_range: tuple[float, float]
    label: str
    params: dict = field(default_factory=dict)

    @property
    def is_round(self) -> bool:
        return self.B is self.A

    def profiles(self) -> dict[str, Profile]:
        if self.is_round:
            return {"phi": self.A, "f": self.f}
        return {"A": self.A, "f": self.f, "B": self.B}

    def blocks(self, rs) -> RicciBlocks:
        return ricci_berger(*berger_jets(self.A, self.B, self.f, rs))

    def coefficients(self, rs):
        """(phi_or_A, B, f) value arrays for reporting."""
        return tuple(j.v for j in berger_jets(self.A, self.B, self.f, rs))

    def breakpoints(self) -> list[float]:
        lo, hi = self.r_range
        return sorted({b for p in (self.A, self.B, self.f) for b in p.breakpoints if lo < b < hi})

    def verification_pieces(self) -> list[tuple[float, float, Piece, Piece, Piece]]:
        """(lo, hi, A's piece, B's piece, f's piece) per smooth piece of the
        metric.  [lo, hi] lies inside one piece of each profile, so its
        blocks come from those closed forms alone; where A and B share a
        piece (every piece of a round metric, the glue's surgery pieces),
        B's piece is A's."""
        lo, hi = self.r_range
        edges = [lo] + self.breakpoints() + [hi]
        starts = edges[:-1]
        columns = [[p.pieces[i] for i in p.piece_index(starts)] for p in (self.A, self.B, self.f)]
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
# the chart metric's entries that can be nonzero, and so its inverse's: the
# blocks {rho}, {theta}, {phi, psi}, {u}, {v}.  Every other entry is an exact
# zero at every chart point.
_LIVE = ((0, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5))

# most radii differenced at a time: the algebra's working memory is about
# 22 kB per radius in flight, so a call's peak stays near 1.4 MB at any size
ORACLE_CHUNK = 64
H_FD = 1e-4  # oracle step in the chart zoomed by 1/r0; narrow pieces take less

_W5 = np.array([-1.0, 8.0, -8.0, 1.0]) / 12.0
_OFFS = np.array([2.0, 1.0, -1.0, -2.0])
# stencil slot -> the slot of the radial sub-stencil (slots 0-4) with its rho
_RADIAL_SLOT = np.array([0, 1, 2, 3, 4] + [0] * 8)

# frame pairs projected from Ricci: rr, XX, YY, ZZ, uu, rX, rY, rZ
_LEFT = [0, 1, 2, 3, 4, 0, 0, 0]
_RIGHT = [0, 1, 2, 3, 4, 1, 2, 3]


def _symbol_tables() -> tuple:
    """Index tables of the Christoffel stage, derived from _VARYING and _LIVE.

    The first derivatives sit in columns k * len(_LIVE) + e (d_{_VARYING[k]}
    of g_{_LIVE[e]}), followed by a zero column; the inverse's live entries
    and the first-kind symbols are laid out the same way.  The symbol
    sym_{bdc} = d_b g_{dc} + d_c g_{db} - d_d g_{bc} is kept when any of its
    terms is live: column s of `terms` (3, n_sym) names the derivative
    columns of symbol s's three terms.  Gamma^a_{bc} = 1/2 g^{ad} sym_{bdc}
    is kept when a sym_{bdc} of its sum is: `gamma` holds its flat index
    into (6, 6, 6), and row p of `raise_inv` and `raise_sym` (width,
    n_gamma) the inverse and symbol columns of its p-th product, d
    increasing, padded by the zero columns."""
    coords, zero = range(6), len(_VARYING) * len(_LIVE)
    dg = {(c, i, j): k * len(_LIVE) + e
          for k, c in enumerate(_VARYING) for e, (i, j) in enumerate(_LIVE)}
    terms = {(b, d, c): (dg.get((b, d, c), zero), dg.get((c, d, b), zero), dg.get((d, b, c), zero))
             for b in coords for d in coords for c in coords}
    sym = {bdc: k for k, bdc in enumerate(bdc for bdc, t in terms.items() if min(t) < zero)}
    blocks = [[d for i, d in _LIVE if i == a] for a in coords]
    width = max(map(len, blocks))
    gamma, raise_inv, raise_sym = [], [], []
    for a, b, c in terms:
        cols = [sym.get((b, d, c), len(sym)) for d in blocks[a]]
        if min(cols) < len(sym):
            pad = width - len(cols)
            gamma.append(36 * a + 6 * b + c)
            raise_inv.append([_LIVE.index((a, d)) for d in blocks[a]] + [len(_LIVE)] * pad)
            raise_sym.append(cols + [len(sym)] * pad)
    return (np.array([terms[bdc] for bdc in sym]).T, np.array(gamma),
            np.array(raise_inv).T, np.array(raise_sym).T)


_SYM_TERMS, _GAMMA, _RAISE_INV, _RAISE_SYM = _symbol_tables()


def _by_value(x: np.ndarray, *fns) -> tuple:
    """Each fn at each entry of x, called once per distinct value: the chart
    takes sin and cos from math, which numpy's own need not match bit for
    bit on every build."""
    values, where = np.unique(x, return_inverse=True)
    return tuple(np.array([fn(v) for v in values.tolist()])[where].reshape(x.shape)
                 for fn in fns)


def _with_zero(x: np.ndarray) -> np.ndarray:
    """x (m, k) with a zero column k appended, for the tables' dead entries."""
    return np.concatenate([x, np.zeros((len(x), 1))], axis=1)


def _stencil_steps(h: float) -> np.ndarray:
    """(13, 6) steps of the 5-point stencil of step h: slot 0 is the
    center, slot 1 + 4k + j steps by _OFFS[j] * h along _VARYING[k]."""
    steps = np.zeros((13, 6))
    for k, c in enumerate(_VARYING):
        steps[1 + 4 * k:5 + 4 * k, c] = _OFFS * h
    return steps


def _derivative(f: np.ndarray, h: float) -> np.ndarray:
    """5-point first derivatives along _VARYING of fields sampled on the
    stencil slots, f (n, 13, m) -> (n, 3, m), with step h.

    Differences are taken against the center value so entries that are
    exactly constant differentiate to exactly zero; the raw weighted sum
    would leave O(eps) residue that huge inverse-metric entries amplify.
    """
    n, _, m = f.shape
    acc = np.zeros((n, 3, m))  # from +0 in _W5 order, as a per-entry sum rounds
    for j, wgt in enumerate(_W5):
        # slots 1 + j, 5 + j, 9 + j: offset j along each varying coordinate
        acc += wgt * (f[:, 1 + j::4] - f[:, :1])
    return acc / h


@functools.lru_cache(maxsize=8)
def _chart_angles(h_fd: float) -> tuple:
    """(cos theta, sin theta, sin^2 u) on the 13 x 13 angle stencil of step
    h_fd, which every radius shares: point (i, j) is the base point plus
    steps i and j.  Read-only, as they are cached per step."""
    steps = _stencil_steps(h_fd)
    x = (np.array([1.0, _THETA0, _PHI0, _PSI0, _U0, _V0]) + steps[:, None]) + steps
    angles = (*_by_value(x[..., 1], math.cos, math.sin),
              *_by_value(x[..., 4], lambda t: math.sin(t) ** 2))
    for a in angles:
        a.flags.writeable = False
    return angles


@functools.lru_cache(maxsize=8)
def _radial_factors(h: float) -> tuple[np.ndarray, np.ndarray]:
    """(rho, where): the sorted distinct rho of the 5 x 5 radial sub-stencil
    of step h, and the index into rho of each of the 13 x 13 chart points,
    both read-only (they are cached per step).  Only slots 0-4 step along
    rho, and adding a zero step is exact, so point (i, j) has the rho of
    sub-stencil point (_RADIAL_SLOT[i], _RADIAL_SLOT[j])."""
    offs = np.zeros(5)
    offs[1:] = _OFFS * h
    rho, where = np.unique((1.0 + offs[:, None]) + offs, return_inverse=True)
    where = where.reshape(5, 5)[_RADIAL_SLOT[:, None], _RADIAL_SLOT]
    rho.flags.writeable = where.flags.writeable = False
    return rho, where


def stencil_radii(r0, h_fd: float = H_FD) -> np.ndarray:
    """(n, k) radii at which fd_ricci_oracle(metric, r0, h_fd) reads the
    profiles: row i is r0's i-th radius (flattened) times the k distinct rho
    of its radial sub-stencil (k = 9 at H_FD), in increasing order."""
    r = np.array(r0, dtype=float, ndmin=1).ravel()
    return r[:, None] * _radial_factors(h_fd)[0]


def _chart_metric(radial, r: np.ndarray, where: np.ndarray, angles: tuple) -> np.ndarray:
    """Live entries (n, 13, 13, len(_LIVE)) of the coordinate metric in
    coordinates (rho, theta, phi, psi, u, v), zoomed by 1/r so that the base
    point sits at rho = 1 regardless of the physical radius.  Point (i, j)
    of radius r[k]'s stencil is the base point plus steps i and j; radial
    holds the profile values (A, B, f), each (n, k), at stencil_radii(r),
    and where (13, 13) and angles the radial slots and the angles' trig of
    the step, from _radial_factors and _chart_angles."""
    ct, st, su2 = angles
    s = 1.0 / r[:, None]
    a, b, w = ((s * c)[:, where] for c in radial)
    g = np.empty(a.shape + (len(_LIVE),))
    e = _entries(g)  # views of g's entries, each written in place
    e[0, 0][...] = 1.0
    e[1, 1][...] = 0.25 * b * b
    e[2, 2][...] = 0.25 * (b * b * st * st + a * a * ct * ct)
    e[2, 3][...] = e[3, 2][...] = 0.25 * a * a * ct
    e[3, 3][...] = 0.25 * a * a
    e[4, 4][...] = w * w
    e[5, 5][...] = w * w * su2
    return g


def _entries(g: np.ndarray) -> dict:
    """Live entries g (..., len(_LIVE)) by their (row, column)."""
    return dict(zip(_LIVE, np.moveaxis(g, -1, 0)))


def _block_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of the chart metric from its live entries g (..., len(_LIVE)),
    in the same layout, exact on the blocks {rho},{theta},{phi,psi},{u},{v};
    np.linalg.inv would lose elementwise accuracy once the S^2 entries are
    many orders smaller than the S^3 ones."""
    g = _entries(g)
    det = g[2, 2] * g[3, 3] - g[2, 3] * g[2, 3]  # the chart's g_32 is g_23
    inv = {(i, i): 1.0 / g[i, i] for i in (0, 1, 4, 5)}
    inv[2, 2], inv[3, 3] = g[3, 3] / det, g[2, 2] / det
    inv[2, 3] = inv[3, 2] = -g[2, 3] / det
    return np.stack([inv[ij] for ij in _LIVE], axis=-1)


def _oracle_pairs(radial, r: np.ndarray, h_fd: float, where: np.ndarray,
                  angles: tuple) -> np.ndarray:
    """The oracle's frame pairs (n, 8) of Ricci in the zoomed chart at radii
    r (n,), with step h_fd along every coordinate, from the profile values
    radial at stencil_radii(r, h_fd)."""
    n, m = r.size, len(_LIVE)
    g = _chart_metric(radial, r, where, angles)  # (n, 13, 13, m)
    g0 = _entries(g[:, 0, 0].copy())  # the center, for the frame

    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc}) at each
    # stencil slot.  Each stage works in place where it can and releases its
    # input once used, so at most about 22 kB per radius is live at a time;
    # every entry still takes the dense algebra's operands in its order.
    dg = _derivative(g.reshape(n * 13, 13, m), h_fd)
    inv = _with_zero(_block_inverse(g[:, :, 0].reshape(n * 13, m)))
    del g
    dg = _with_zero(dg.reshape(n * 13, 3 * m))
    sym = dg[:, _SYM_TERMS[0]]
    sym += dg[:, _SYM_TERMS[1]]
    sym -= dg[:, _SYM_TERMS[2]]
    del dg
    sym = _with_zero(sym)
    terms = [sym[:, j] for j in _RAISE_SYM]
    del sym
    for term, i in zip(terms, _RAISE_INV):
        term *= inv[:, i]
    del inv
    gamma = terms[0]
    for term in terms[1:]:
        gamma += term
    del terms, term
    gamma *= 0.5
    gamma = gamma.reshape(n, 13, _GAMMA.size)
    dgamma = _derivative(gamma, h_fd)

    # the Ricci contractions take fresh C-ordered dense arrays: einsum sums in
    # memory order, so the operands' layout decides how they round
    gam = np.zeros((n, 216))
    gam[:, _GAMMA] = gamma[:, 0]
    del gamma
    gam = gam.reshape(n, 6, 6, 6)
    dgam = np.zeros((n, 6, 216))
    dgam[:, np.array(_VARYING)[:, None], _GAMMA] = dgamma
    dgam = dgam.reshape(n, 6, 6, 6, 6)

    # orthonormal frame: e_r, e_X (Hopf), e_Y, e_Z, e_u
    a, b, w = np.sqrt(4.0 * g0[3, 3]), np.sqrt(4.0 * g0[1, 1]), np.sqrt(g0[4, 4])
    frame = np.zeros((n, 5, 6))
    frame[:, 0, 0] = 1.0
    frame[:, 1, 3] = 2.0 / a
    frame[:, 2, 1] = 2.0 / b
    frame[:, 3, 2] = 2.0 / (b * math.sin(_THETA0))
    frame[:, 3, 3] = frame[:, 3, 2] * -math.cos(_THETA0)
    frame[:, 4, 4] = 1.0 / w

    # R_{bd} = d_a G^a_{bd} - d_d G^a_{ba} + G^a_{ae} G^e_{bd} - G^a_{de} G^e_{ba}
    ricci = (np.einsum("...aabd->...bd", dgam) - np.einsum("...daba->...bd", dgam)
             + np.einsum("...aae,...ebd->...bd", gam, gam)
             - np.einsum("...ade,...eba->...bd", gam, gam))
    # e_j . Ric . e_l for every frame pair at once, as the same BLAS
    # vector-matrix and dot products a per-pair loop would take
    return (frame[:, _LEFT, None, :] @ ricci[:, None] @ frame[:, _RIGHT, :, None])[..., 0, 0]


def fd_ricci_oracle(metric: WarpedMetric, r0, h_fd: float = H_FD,
                    radial=None) -> RicciBlocks:
    """Ricci blocks at radius r0 (a float or an array of radii, possibly
    empty) from finite differences of the raw chart, shaped like r0.

    Shares nothing with the closed-form path except the profile value
    channel: radial, the values (A, B, f) of the metric's profiles at
    stencil_radii(r0, h_fd), each (n, k), as metric.coefficients gives
    them there; when it is None the oracle reads them itself, once per
    chunk.  Each r0 must sit inside a smooth piece, at relative distance
    > 10*h_fd from the nearest breakpoint, so its stencil (within 4*h_fd)
    lies in that piece too; h_fd must be finite and > 0.  The radii are
    differenced in batches of at most ORACLE_CHUNK: the Christoffel symbols
    on nested 5-point stencils (13 x 13 chart points per radius, at the k
    distinct radii of stencil_radii), then Ricci from their differences.
    The angle trig is shared by all chunks.  Up to the Ricci contractions,
    the stages carry only the live entries: the chart metric's 8 of 36 and
    the Christoffel symbols' 66 of 216, with each entry computed from the
    same operands in the same order as the dense 6 x 6 algebra.  So a
    radius gets the same blocks, bit for bit, as the dense algebra would
    give, alone or in any batch or chunk.
    """
    if not (isinstance(h_fd, numbers.Real) and math.isfinite(h_fd) and h_fd > 0.0):
        raise ParameterError(f"h_fd = {h_fd!r} must be a finite number > 0")
    r = np.array(r0, dtype=float, ndmin=1).ravel()
    lo, hi = metric.r_range
    if not np.all((lo < r) & (r < hi)):
        raise ParameterError(f"r0 = {r0} outside metric range {metric.r_range}")
    edges = np.array(metric.breakpoints() + [lo, hi])
    margin = np.min(np.abs(r[:, None] - edges) / r[:, None], axis=1)
    if np.any(margin <= 10.0 * h_fd):
        raise ParameterError(f"r0 = {r[np.argmin(margin)]} within 10*h_fd of a breakpoint "
                             f"(relative margin {np.min(margin):.2e})")
    rho, where = _radial_factors(h_fd)
    if radial is not None and [np.shape(c) for c in radial] != [(r.size, rho.size)] * 3:
        raise ParameterError(f"radial must be 3 arrays of shape {(r.size, rho.size)}, "
                             f"got {[np.shape(c) for c in radial]}")

    angles = _chart_angles(h_fd)
    pairs = []
    for k in range(0, max(r.size, 1), ORACLE_CHUNK):
        rk = r[k:k + ORACLE_CHUNK]
        values = (metric.coefficients(stencil_radii(rk, h_fd)) if radial is None
                  else [c[k:k + ORACLE_CHUNK] for c in radial])
        pairs.append(_oracle_pairs(values, rk, h_fd, where, angles))
    pairs = np.concatenate(pairs)

    scale = 1.0 / (r * r)  # undo the zoom: Ric(g) = s^2 Ric(s^2 g), s = 1/r0
    shape = np.shape(r0)
    return RicciBlocks(
        rr=(pairs[:, 0] * scale).reshape(shape),
        sX=(pairs[:, 1] * scale).reshape(shape),
        sYZ=(0.5 * (pairs[:, 2] + pairs[:, 3]) * scale).reshape(shape),
        s2=(pairs[:, 4] * scale).reshape(shape),
        cross_ir_mag=(np.max(np.abs(pairs[:, 5:]), axis=1) * scale).reshape(shape),
    )
