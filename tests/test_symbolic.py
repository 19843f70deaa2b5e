"""Symbolic proof of the closed-form Ricci blocks.

sympy derives the Ricci tensor of the raw Berger metric

  dr^2 + A^2 dX^2 + B^2 (dY^2 + dZ^2) + F^2 g_{S^2}

in the Euler-angle chart (r, theta, phi, psi, u, v) that the finite-difference
oracle differences, projects it on the oracle's orthonormal frame, and checks
that `ricci_berger`, run on symbols, gives the same blocks exactly and that
the radial/S^3 cross terms vanish.  So the formula holds for every profile,
not only at the radii the numeric cross-checks (acceptance criteria 1 and 5)
sample.
"""

import sympy as sp

from warpforge.curvature import ricci_berger
from warpforge.jets import Jet2


def test_closed_form_blocks_equal_the_chart_ricci():
    x = r, theta, phi, psi, u, v = sp.symbols("r theta phi psi u v")
    A, B, F = profiles = [sp.Function(name)(r) for name in "ABF"]
    g = sp.zeros(6, 6)
    g[0, 0] = 1
    g[1, 1] = B**2 / 4
    g[2, 2] = (B**2 * sp.sin(theta) ** 2 + A**2 * sp.cos(theta) ** 2) / 4
    g[3, 3] = A**2 / 4
    g[2, 3] = g[3, 2] = A**2 * sp.cos(theta) / 4
    g[4, 4] = F**2
    g[5, 5] = F**2 * sp.sin(u) ** 2
    ginv = g.inv(method="ADJ")

    n = range(6)
    dg = [[[sp.diff(g[i, j], x[c]) for j in n] for i in n] for c in n]
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    gamma = [[[sp.cancel(sum(ginv[a, d] * (dg[b][d][c] + dg[c][d][b] - dg[d][b][c])
                             for d in n) / 2)
               for c in n] for b in n] for a in n]

    def ricci(b, d):
        # R_{bd} = d_a G^a_{bd} - d_d G^a_{ba} + G^a_{ae} G^e_{bd} - G^a_{de} G^e_{ba}
        return sum(sp.diff(gamma[a][b][d], x[a]) - sp.diff(gamma[a][b][a], x[d])
                   + sum(gamma[a][a][e] * gamma[e][b][d] - gamma[a][d][e] * gamma[e][b][a]
                         for e in n)
                   for a in n)

    def vec(*entries):
        e = sp.zeros(6, 1)
        for i, c in entries:
            e[i] = c
        return e

    # the oracle's frame: e_r, e_X (Hopf), e_Y, e_Z, e_u, plus e_v
    e_r, e_X, e_Y = vec((0, 1)), vec((3, 2 / A)), vec((1, 2 / B))
    e_Z = vec((2, 2 / (B * sp.sin(theta))), (3, -2 * sp.cos(theta) / (B * sp.sin(theta))))
    e_u, e_v = vec((4, 1 / F)), vec((5, 1 / (F * sp.sin(u))))

    # value, first and second derivative symbols of each profile
    jets = [sp.symbols(f"{p}0 {p}1 {p}2", positive=True) for p in "abf"]
    subs = {}
    for prof, (j0, j1, j2) in zip(profiles, jets):
        subs.update({prof.diff(r, 2): j2, prof.diff(r): j1, prof: j0})
    # rational half-angle parametrisation: an identity in theta and u becomes
    # one between rational functions, which cancel decides exactly
    s, t = sp.symbols("s t")
    subs.update({sp.sin(theta): 2 * s / (1 + s**2), sp.cos(theta): (1 - s**2) / (1 + s**2),
                 sp.sin(u): 2 * t / (1 + t**2), sp.cos(u): (1 - t**2) / (1 + t**2)})

    closed = ricci_berger(*(Jet2(*j) for j in jets))
    checks = {
        "rr": (e_r, e_r, closed.rr), "sX": (e_X, e_X, closed.sX),
        "sY": (e_Y, e_Y, closed.sYZ), "sZ": (e_Z, e_Z, closed.sYZ),
        "s2 (u)": (e_u, e_u, closed.s2), "s2 (v)": (e_v, e_v, closed.s2),
        "r-X": (e_r, e_X, 0), "r-Y": (e_r, e_Y, 0), "r-Z": (e_r, e_Z, 0),
    }
    for name, (p, q, want) in checks.items():
        chart = sum(p[b] * q[d] * ricci(b, d) for b in n for d in n if p[b] != 0 and q[d] != 0)
        chart = chart.subs(subs)
        assert sp.cancel(chart - want) == 0, name
