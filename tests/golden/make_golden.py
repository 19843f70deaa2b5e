"""Write the golden verification reports that tests/test_golden_reports.py
compares fresh reports against.

Each shipped config is built, bounded and gridded the way its CLI command
does it (`bubble`, `surgery`, `glue`, and `verify` for bubble_broken.json);
bubble, surgery and glue also get an oracle-checked report at a small grid.
Regenerate only when a change is meant to alter reports, from the
repository root:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from warpforge.construction import (
    bubble_alpha2_for_alpha,
    build_bubble,
    build_surgery,
    glue_bubble,
)
from warpforge.verify import GridConfig, verify_ric_lower

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent.parent / "configs"

CLI_CASES = ("bubble", "surgery", "surgery_curved", "glue", "bubble_broken")
ORACLE_CASES = ("bubble", "surgery", "glue")
ORACLE_GRID = dict(points_per_piece=64, oracle=True, n_oracle=4, seed=0)

SURGERY_ARGS = ("kappa", "f0", "lambda_bound", "epsilon", "alpha", "r_hat", "delta_hat",
                "eta", "rho", "r_m", "r3")


def _bubble(cfg: dict):
    return build_bubble(
        epsilon=cfg["epsilon"], alpha2=cfg["alpha2"], delta2=cfg["delta2"], r3=cfg["r3"],
        m=cfg.get("m", 1e-3), r1=cfg.get("r1", 2.0), smooth=cfg.get("smooth", True),
    )


def _surgery(cfg: dict):
    return build_surgery(**{k: cfg[k] for k in SURGERY_ARGS if k in cfg})


def build(config: str):
    """(metric, bound, grid) of a shipped config, as the CLI sets them up."""
    cfg = json.loads((CONFIGS / f"{config}.json").read_text())
    grid = GridConfig.from_dict(cfg.get("grid", {}))
    target = cfg.get("target", config.split("_")[0])
    if target == "bubble":
        return _bubble(cfg).metric, cfg.get("bound", 0.0), grid
    if target == "surgery":
        s = _surgery(cfg)
        bound = s.params.lambda_bound - cfg.get("ricci_constant", 150.0) * s.params.epsilon
        grid.r_min, grid.r_max = s.params.r_hat / 2.0, 2.0
        return s.metric, bound, grid
    s = _surgery(cfg["surgery"])
    b_cfg = cfg["bubble"]
    m, r1, r3 = b_cfg.get("m", 1e-3), b_cfg.get("r1", 2.0), b_cfg["r3"]
    alpha2 = b_cfg.get("alpha2", "auto")
    if alpha2 == "auto":
        alpha2 = bubble_alpha2_for_alpha(s.params.alpha, s.params.epsilon, m, r1, r3)
    b = build_bubble(epsilon=s.params.epsilon, alpha2=alpha2, delta2=b_cfg["delta2"],
                     m=m, r1=r1, r3=r3)
    return glue_bubble(s, b), cfg.get("bound", 0.0), grid


NAMES = CLI_CASES + tuple(f"{config}_oracle" for config in ORACLE_CASES)


def case(name: str):
    """(metric, bound, grid) of one golden report, named as in NAMES."""
    metric, bound, grid = build(name.removesuffix("_oracle"))
    if name.endswith("_oracle"):
        grid = dataclasses.replace(grid, **ORACLE_GRID)
    return metric, bound, grid


def main() -> None:
    for name in NAMES:
        verify_ric_lower(*case(name)).write(HERE / f"{name}.json")
        print(f"wrote {name}.json")


if __name__ == "__main__":
    main()
