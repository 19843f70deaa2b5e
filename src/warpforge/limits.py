"""Inductive parameter schedules and map-distortion bookkeeping.

Pure arithmetic for the iterated-surgery limit: the geometric schedule of
radii/warp sizes/curvature allowances, the Holder exponent of composed
blow-down maps, the finite distortion products they satisfy, and the
geometric-series bound on accumulated Gromov-Hausdorff error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .profiles import ConstructionError, ParameterError


@dataclass(frozen=True)
class Schedule:
    j: int
    r_j: float
    delta_j: float
    eps_j: float
    lambda_j: float


def schedule(j: int, eps: float, delta: float, lambda_plus: float) -> Schedule:
    """Stage-j parameters: r_j = 2^-j, delta_j = delta^(1+j), eps_j = eps 2^-j,
    lambda_j = lambda_plus - sum_{k<=j} eps_k > lambda_plus - eps."""
    if j < 0:
        raise ParameterError(f"stage j = {j} must be nonnegative")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta = {delta} outside (0, 1)")
    if not eps > 0.0:
        raise ParameterError(f"epsilon = {eps} must be positive")
    eps_spent = eps * sum(2.0 ** (-k) for k in range(1, j + 1))
    lam = lambda_plus - eps_spent
    if not lam > lambda_plus - eps:
        raise ConstructionError(f"lambda_{j} = {lam!r} does not stay above "
                                f"lambda_plus - epsilon = {lambda_plus - eps!r}")
    return Schedule(
        j=j,
        r_j=2.0 ** (-j),
        delta_j=delta ** (1 + j),
        eps_j=eps * 2.0 ** (-j),
        lambda_j=lam,
    )


def holder_exponent(delta: float, C: float) -> float:
    """alpha(delta) = 1 + ln(C)/ln(delta/2); tends to 1 as delta -> 0.  It is
    positive exactly when C < 2/delta: beyond, the Holder bound is vacuous."""
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta = {delta} outside (0, 1)")
    if C < 1.0:
        raise ParameterError(f"C = {C} must be >= 1")
    alpha = 1.0 + math.log(C) / math.log(delta / 2.0)
    if alpha <= 0.0:
        raise ParameterError(f"C = {C:g} must be below 2/delta = {2.0 / delta:g}: "
                             f"the Holder exponent {alpha:.6g} is not positive")
    return alpha


def compose_distortion(r: float, j: int, delta: float, C: float) -> float:
    """Distortion bound for a j-fold composed blow-down at separation r:

        prod_{k <= j, r <= delta_k r_k} C * prod_{k <= j, r > delta_k r_k} (1 + delta_k) * r

    and the product is certified against (1 + delta) r^alpha(delta) on
    r in (0, 1] (above separation 1 the power bound is simply false)."""
    if not 0.0 < r <= 1.0:
        raise ParameterError(f"separation r = {r} outside (0, 1]")
    out = r
    for k in range(1, j + 1):
        dk = delta ** (1 + k)
        out *= C if r <= dk * 2.0 ** (-k) else (1.0 + dk)
    bound = (1.0 + delta) * r ** holder_exponent(delta, C)
    if out > bound:
        raise ConstructionError(
            f"distortion product {out:.6g} exceeds Holder bound {bound:.6g} "
            f"(r={r}, j={j}, delta={delta}, C={C})"
        )
    return out


def max_distortion(j: int, delta: float, C: float) -> float:
    """Largest compose_distortion over r in (0, 1] and every stage up to j,
    each point certified against its Holder bound.

    Every factor is C >= 1 or 1 + delta_k > 1, so the product only grows
    with the stage while the bound does not depend on it: stage j alone
    covers the earlier ones.  Between the breakpoints r = delta_k r_k the
    product is a constant times r and the bound a constant times r^alpha
    with alpha <= 1, so their ratio grows with r and peaks at a breakpoint
    (where the C side holds: each is computed by compose_distortion's own
    expression) or at r = 1.  A breakpoint that underflows to 0 bounds no
    separation and is skipped."""
    radii = [1.0] + [delta ** (1 + k) * 2.0 ** (-k) for k in range(1, j + 1)]
    return max(compose_distortion(r, j, delta, C) for r in radii if r > 0.0)


def gh_error(i: int, j: Optional[int], delta: float, C: float) -> float:
    """Accumulated GH error of the composed maps from stage j down to i:
    C * sum_{k=i+1}^{j} delta^(1+k), with j = None for the full tail.

    For delta <= 1/2 this is certified against the collapse bound C 2^-i delta.
    """
    if j is not None and j < i:
        raise ParameterError(f"need i <= j, got i={i}, j={j}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta = {delta} outside (0, 1)")
    if j is None:
        total = C * delta ** (i + 2) / (1.0 - delta)
    else:
        total = C * sum(delta ** (1 + k) for k in range(i + 1, j + 1))
    collapse = C * 2.0 ** (-i) * delta
    if delta <= 0.5 and not total <= collapse * (1 + 1e-12):
        raise ConstructionError(f"GH error {total:.6g} exceeds the collapse bound {collapse:.6g} "
                                f"(i={i}, j={j}, delta={delta}, C={C})")
    return total
