"""Sweep the finite-difference oracle's seeds against its tolerance.

Runs acceptance criterion 5's check, oracle_max_rel_err <= 1e-4, on the
oracle-checked verify of bubble, surgery and glue at the oracle table's
grid (64 points per piece, 8 oracle radii per piece) for seeds 0-299,
and compares the seeds that exceed the tolerance with KNOWN, the committed
list of known exceedances (ROADMAP item 10).  It exits 1 on any exceedance
that KNOWN does not list.  A listed seed that now passes is printed, but
does not fail the sweep: a numpy release may round the oracle differently.

    PYTHONPATH=src python tests/golden/oracle_sweep.py
"""

from __future__ import annotations

import sys

from make_golden import ORACLE_CASES, TABLE_GRID, cli_case
from warpforge.verify import GridConfig, verify_ric_lower

TOLERANCE = 1e-4
SEEDS = range(300)
# (config, seed) exceedances measured with numpy 2.4.6 on Python 3.11.7
KNOWN = {("glue", seed) for seed in (12, 58, 64, 128, 149, 150, 180, 230)}


def exceedances() -> dict[tuple[str, int], float]:
    """{(config, seed): oracle_max_rel_err} of every run above TOLERANCE."""
    found = {}
    for config in ORACLE_CASES:
        metric, _, _ = cli_case(config)
        for seed in SEEDS:
            err = verify_ric_lower(metric, 0.0, GridConfig(**TABLE_GRID, seed=seed)).oracle_max_rel_err
            if not err <= TOLERANCE:  # a NaN error exceeds too
                found[config, seed] = err
    return found


def main() -> int:
    found = exceedances()
    runs = len(ORACLE_CASES) * len(SEEDS)
    for (config, seed), err in sorted(found.items()):
        status = "known" if (config, seed) in KNOWN else "NEW"
        print(f"{status}: {config} seed {seed} oracle_max_rel_err {err:.4e} > {TOLERANCE:g}")
    for config, seed in sorted(KNOWN - set(found)):
        print(f"known exceedance now within tolerance: {config} seed {seed}")
    new = set(found) - KNOWN
    print(f"{len(found)} of {runs} runs exceed {TOLERANCE:g}; {len(new)} not in the known list")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
