"""Shared helpers: independent derivative oracles for profile checks, a
strict JSON reader for the files the package writes, the radius a check's
error names, and the fixture that empties build_bubble's caches."""

import json
import re

import numpy as np
import pytest

from warpforge import construction


@pytest.fixture
def cold():
    """Empty build_bubble's caches, as in a fresh process: a test that
    patches a builder internal starts from here."""
    construction._bubble_core.cache_clear()
    construction._bubble_base.cache_clear()


def named_radius(exc) -> float:
    """The radius an error message names as "at r = <r>" or "at x = <x>"."""
    return float(re.search(r" at [rx] = ([-+.\deE]+)", str(exc)).group(1))


def strict_json(path):
    """The file's JSON; a NaN or Infinity token, which strict parsers
    reject, fails."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def fd_profile_check(profile, n=200, seed=0, rel=1e-6, lo=None, hi=None):
    """Compare jet d1/d2 of a profile against 5-point central differences of
    its value channel at random interior points.

    d1 uses h = 1e-5 * r; d2 uses the wider h = 1e-4 * max(1, r) since the
    second-difference round-off floor eps*|v|/h^2 would otherwise swamp the
    1e-6 relative target.  Errors are measured against the local derivative
    scale (|d| plus |v| over the matching power of r) so that exactly-zero
    derivatives of affine pieces are not held to an absolute-zero standard.
    """
    rng = np.random.default_rng(seed)
    lo = profile.r_min if lo is None else lo
    hi = profile.r_max if hi is None else hi
    edges = [lo] + [b for b in profile.breakpoints if lo < b < hi] + [hi]
    spans = list(zip(edges[:-1], edges[1:]))
    eps = np.finfo(float).eps
    worst = 0.0
    for _ in range(n):
        a, b = spans[rng.integers(len(spans))]
        width = b - a
        r = float(rng.uniform(a + 0.05 * width, b - 0.05 * width))
        out = profile(r)
        val = lambda x: float(profile(x).v)

        h1 = min(1e-5 * max(r, 1e-2), 0.02 * width)
        d1 = (-val(r + 2 * h1) + 8 * val(r + h1) - 8 * val(r - h1) + val(r - 2 * h1)) / (
            12 * h1
        )
        scale1 = max(abs(d1), abs(out.v) / max(r, 1.0), 1e-12)
        worst = max(worst, abs(out.d1 - d1) / scale1)

        h2 = min(1e-4 * max(r, 1.0), 0.02 * width)
        d2 = (
            -val(r + 2 * h2)
            + 16 * val(r + h2)
            - 30 * val(r)
            + 16 * val(r - h2)
            - val(r - 2 * h2)
        ) / (12 * h2 * h2)
        noise = 50.0 * eps * max(abs(out.v), 1.0) / (h2 * h2)
        scale2 = max(
            abs(d2), (abs(out.v) + r * abs(out.d1)) / max(r, 1.0) ** 2, noise / rel, 1e-12
        )
        worst = max(worst, abs(out.d2 - d2) / scale2)
    assert worst < rel, f"profile '{profile.label}': jet/fd mismatch {worst:.3e}"


def bisect_root(f, lo, hi, tol=1e-14, max_iter=200):
    """Plain bisection; used as the independent root-finding oracle."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "root not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
