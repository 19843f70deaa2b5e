"""Forward-mode 2-jet arithmetic.

A Jet2 carries a function value together with its first and second radial
derivatives.  All profile evaluation and curvature assembly in this package
runs through Jet2 arithmetic, so derivatives are exact up to floating-point
rounding (no symbolic algebra, no finite differencing on the main path).

There is one evaluation path, on numpy arrays: jet_var lifts any radius,
a scalar included, to a 1-d array, and constants (coefficients, lifted
numbers) stay plain floats that broadcast against it.  Jet2 is a slotted
class, and only division lifts a constant c to Jet2(c, 0.0, 0.0): j +- c
moves the value only (j + c keeps a -0.0 derivative that the lifted
form's + 0.0 made +0.0), c - j takes its derivatives as 0.0 - d, and
j * c scales each channel.  Every operation is a pure function of its
inputs and safe for unrestricted parallel use.
"""

from __future__ import annotations

from typing import Union

import numpy as np

# a field: an array of evaluation points, or a float constant that broadcasts
Real = Union[float, np.ndarray]


class JetDomainError(ValueError):
    """Raised when a jet operation leaves its domain (divide by zero, ln of
    a nonpositive value, fractional power of a nonpositive base)."""


def _check(values, bad, what: str) -> None:
    """Raise for the entries flagged bad, naming the smallest offending
    value and how many entries offend (short on arrays of any size)."""
    if np.count_nonzero(bad):
        hits = np.asarray(values)[bad]
        raise JetDomainError(f"{what} (min v={float(hits.min())!r}, {hits.size} of "
                             f"{np.size(bad)} entries)")


class Jet2:
    """Value, first derivative and second derivative at the evaluation points."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v: Real, d1: Real, d2: Real):
        self.v, self.d1, self.d2 = v, d1, d2

    def __repr__(self) -> str:
        return f"Jet2(v={self.v!r}, d1={self.d1!r}, d2={self.d2!r})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet2):  # a constant moves the value only
            return Jet2(self.v + other, self.d1, self.d2)
        return Jet2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.v - other, self.d1, self.d2)
        return Jet2(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)

    def __rsub__(self, other):
        return Jet2(other - self.v, 0.0 - self.d1, 0.0 - self.d2)

    def __mul__(self, other):
        if not isinstance(other, Jet2):  # a constant scales each field
            return Jet2(self.v * other, self.d1 * other, self.d2 * other)
        # grouping keeps a*b == b*a bit-for-bit
        return Jet2(self.v * other.v, self.d1 * other.v + self.v * other.d1,
                    (self.d2 * other.v + self.v * other.d2) + 2.0 * (self.d1 * other.d1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, Jet2) else Jet2(other, 0.0, 0.0)
        _check(o.v, o.v == 0.0, "jet division by zero value")
        q = self.v / o.v
        d1 = (self.d1 - q * o.d1) / o.v
        d2 = (self.d2 - 2.0 * d1 * o.d1 - q * o.d2) / o.v
        return Jet2(q, d1, d2)

    def __rtruediv__(self, other):
        return Jet2(other, 0.0, 0.0) / self


def jet_var(r: Real) -> Jet2:
    """The identity jet (r, 1, 0) at the evaluation points, as 1-d arrays
    (a scalar radius becomes one point)."""
    r = np.array(r, dtype=float, ndmin=1)
    return Jet2(r, np.ones(r.shape), np.zeros(r.shape))


def jet_pow(base: Jet2, exponent: float) -> Jet2:
    """base**exponent with exact jet propagation; base.v must be positive."""
    _check(base.v, base.v <= 0.0, f"fractional power {exponent} of nonpositive base")
    p = float(exponent)
    w = base.v ** p
    wp = p * base.v ** (p - 1.0)
    wpp = p * (p - 1.0) * base.v ** (p - 2.0)
    return Jet2(w, wp * base.d1, wpp * base.d1 * base.d1 + wp * base.d2)


def jet_sqrt(x: Jet2) -> Jet2:
    return jet_pow(x, 0.5)


def jet_sin(x: Jet2) -> Jet2:
    s, c = np.sin(x.v), np.cos(x.v)
    return Jet2(s, c * x.d1, -s * x.d1 * x.d1 + c * x.d2)


def jet_sinh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.v), np.cosh(x.v)
    return Jet2(s, c * x.d1, s * x.d1 * x.d1 + c * x.d2)


def jet_exp(x: Jet2) -> Jet2:
    e = np.exp(x.v)
    return Jet2(e, e * x.d1, e * (x.d1 * x.d1 + x.d2))


def jet_ln(x: Jet2) -> Jet2:
    _check(x.v, x.v <= 0.0, "ln of nonpositive value")
    q = x.d1 / x.v
    return Jet2(np.log(x.v), q, x.d2 / x.v - q * q)


def jet_poly(coeffs, x: Jet2) -> Jet2:
    """Evaluate a polynomial sum(coeffs[k] * x**k) by Horner's rule."""
    acc = Jet2(coeffs[-1], 0.0, 0.0)
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc
