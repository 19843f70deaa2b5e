"""warpforge: explicit warped-product metrics and their Ricci verification.

The package builds piecewise radial metric profiles (Berger-sphere bubbles,
warped cones, surgery interpolations), evaluates their Ricci curvature
block-by-block in closed form through exact 2-jet arithmetic, and verifies
curvature lower bounds on dense grids with an independent finite-difference
oracle.  Builders re-measure their own profile inequalities and
map-distortion estimates.
"""

__version__ = "0.1.0"

from .jets import Jet2, jet_var  # noqa: F401
