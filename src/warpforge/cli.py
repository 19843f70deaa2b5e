"""Command-line front end.

All numeric input arrives through JSON config files (the pipelines carry
~15 coupled parameters each; committed configs keep runs reproducible).
Exit codes are stable for CI use:

    0  built and verified, every requested bound holds
    1  configuration or runtime error
    2  verification found a violation (the machine report is still written)

Commands: bubble, surgery, glue, verify, scan, limits, export.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .construction import (
    bilipschitz_check,
    blowdown_lipschitz,
    bubble_alpha2_for_alpha,
    build_bubble,
    build_surgery,
    glue_bubble,
)
from .jets import JetDomainError
from .limits import compose_distortion, gh_error, holder_exponent, schedule
from .profiles import ConstructionError, ParameterError
from .verify import (
    GridConfig,
    export_curvature_csv,
    radial_grid,
    scan_params,
    verify_ric_lower,
)

EXIT_OK, EXIT_ERROR, EXIT_VIOLATION = 0, 1, 2


class ConfigError(ValueError):
    pass


def _validate_keys(cfg: dict, required: set[str], optional: set[str]) -> dict:
    unknown = set(cfg) - required - optional
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = required - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return cfg


def _load_config(path: str, required: set[str], optional: set[str]) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return _validate_keys(cfg, required, optional)


def _grid(cfg: dict) -> GridConfig:
    raw = dict(cfg.get("grid", {}))
    for key in ("points_per_piece", "refine_factor", "n_oracle"):
        value = raw.get(key)
        if key in raw and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
            raise ConfigError(f"grid.{key} must be a positive integer, got {value!r}")
    return GridConfig.from_dict(raw)


def _write_report(report, cfg: dict, default_name: str) -> Path:
    path = Path(cfg.get("out_report", default_name))
    report.write(path)
    return path

def _maybe_csv(metric, cfg: dict) -> None:
    if "out_csv" in cfg:
        export_curvature_csv(metric, radial_grid(*metric.r_range, 2048), cfg["out_csv"])


def _maybe_descriptor(metric, cfg: dict) -> None:
    if "out_descriptor" in cfg:
        with open(cfg["out_descriptor"], "w") as fh:
            json.dump(metric.descriptor(), fh, indent=2)


BUBBLE_KEYS = {"epsilon", "alpha2", "delta2", "r3"}
BUBBLE_OPT = {"m", "r1", "smooth", "bound", "grid", "out_report", "out_csv",
              "out_descriptor"}


def _build_bubble_from(cfg: dict):
    kwargs = dict(
        epsilon=cfg["epsilon"], alpha2=cfg["alpha2"], delta2=cfg["delta2"],
        r3=cfg["r3"], m=cfg.get("m", 1e-3), r1=cfg.get("r1", 2.0),
        smooth=cfg.get("smooth", True),
    )
    return build_bubble(**kwargs)


def cmd_bubble(cfg: dict) -> int:
    bubble = _build_bubble_from(cfg)
    report = verify_ric_lower(bubble.metric, cfg.get("bound", 0.0), _grid(cfg))
    path = _write_report(report, cfg, "bubble_report.json")
    _maybe_csv(bubble.metric, cfg)
    _maybe_descriptor(bubble.metric, cfg)
    print(report.summary())
    print(f"report written to {path}")
    blowdown = blowdown_lipschitz(bubble)
    print(f"blow-down stretch sup: {blowdown:.6g}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


SURGERY_KEYS = {"kappa", "f0", "lambda_bound", "epsilon", "alpha", "r_hat",
                "delta_hat"}
SURGERY_OPT = {"eta", "rho", "r_m", "r3", "ricci_constant", "grid",
               "out_report", "out_csv", "out_descriptor"}


def _build_surgery_from(cfg: dict):
    kwargs = {k: cfg[k] for k in SURGERY_KEYS}
    for k in ("eta", "rho", "r_m", "r3"):
        if k in cfg:
            kwargs[k] = cfg[k]
    return build_surgery(**kwargs)


def cmd_surgery(cfg: dict) -> int:
    s = _build_surgery_from(cfg)
    constant = cfg.get("ricci_constant", 150.0)
    bound = s.params.lambda_bound - constant * s.params.epsilon
    grid = _grid(cfg)
    grid.r_min = s.params.r_hat / 2.0
    grid.r_max = 2.0
    report = verify_ric_lower(s.metric, bound, grid)
    path = _write_report(report, cfg, "surgery_report.json")
    _maybe_csv(s.metric, cfg)
    _maybe_descriptor(s.metric, cfg)
    print(report.summary())

    ok = report.passed
    try:
        sup = bilipschitz_check(s)
        print(f"bi-Lipschitz sup {sup:.6g} <= 1 + 2 eps = {1 + 2 * s.params.epsilon:.6g}")
    except ConstructionError as exc:
        print(f"bi-Lipschitz check FAILED: {exc}")
        ok = False
    min_ric = min(report.block_min(k) for k in ("rr", "s3", "s2"))
    measured = (s.params.lambda_bound - min_ric) / s.params.epsilon
    print(f"delta = {s.params.delta:.8g}; measured Ricci constant C = {measured:.4g} "
          f"(asserted <= {constant:g})")
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_VIOLATION


GLUE_KEYS = {"surgery", "bubble"}
GLUE_OPT = {"bound", "grid", "out_report", "out_csv", "out_descriptor"}


def cmd_glue(cfg: dict) -> int:
    s_cfg = cfg["surgery"]
    b_cfg = cfg["bubble"]
    unknown = set(s_cfg) - SURGERY_KEYS - {"eta", "rho", "r_m", "r3"}
    if unknown:
        raise ConfigError(f"unknown surgery keys: {sorted(unknown)}")
    unknown = set(b_cfg) - {"delta2", "r3", "m", "r1", "alpha2"}
    if unknown:
        raise ConfigError(f"unknown bubble keys: {sorted(unknown)}")
    s = _build_surgery_from(s_cfg)
    m, r1, r3 = b_cfg.get("m", 1e-3), b_cfg.get("r1", 2.0), b_cfg["r3"]
    alpha2 = b_cfg.get("alpha2", "auto")
    if alpha2 == "auto":
        alpha2 = bubble_alpha2_for_alpha(s.params.alpha, s.params.epsilon, m, r1, r3)
    bubble = build_bubble(epsilon=s.params.epsilon, alpha2=alpha2,
                          delta2=b_cfg["delta2"], m=m, r1=r1, r3=r3)
    glued = glue_bubble(s, bubble)
    report = verify_ric_lower(glued, cfg.get("bound", 0.0), _grid(cfg))
    path = _write_report(report, cfg, "glue_report.json")
    _maybe_csv(glued, cfg)
    _maybe_descriptor(glued, cfg)
    print(report.summary())
    print(f"common warp coefficient: {glued.params['common_delta']:.8g} "
          f"(delta_I {glued.params['delta_I']:.4g}, delta_II {glued.params['delta_II']:.4g})")
    print(f"report written to {path}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


VERIFY_OPT = {"bound", "grid", "out_report", "out_csv"}


def cmd_verify(cfg_path: str) -> int:
    head = _load_config(cfg_path, {"target"},
                        BUBBLE_KEYS | BUBBLE_OPT | SURGERY_KEYS | SURGERY_OPT
                        | GLUE_KEYS | GLUE_OPT | VERIFY_OPT)
    target = head.pop("target")
    schemas = {
        "bubble": (cmd_bubble, BUBBLE_KEYS, BUBBLE_OPT),
        "surgery": (cmd_surgery, SURGERY_KEYS, SURGERY_OPT),
        "glue": (cmd_glue, GLUE_KEYS, GLUE_OPT),
    }
    if target not in schemas:
        raise ConfigError(f"unknown verify target {target!r}")
    fn, required, optional = schemas[target]
    return fn(_validate_keys(head, required, optional | VERIFY_OPT))


SCAN_KEYS = {"target", "ranges"}
SCAN_OPT = {"base", "bound", "grid", "out_report"}


def cmd_scan(cfg: dict) -> int:
    if cfg["target"] != "bubble":
        raise ConfigError(f"scan target {cfg['target']!r} not supported")
    base = dict(cfg.get("base", {}))
    base.setdefault("smooth", False)

    def builder(**kw):
        return build_bubble(**kw).metric

    rows = scan_params(builder, base, cfg["ranges"], cfg.get("bound", 0.0), _grid(cfg))
    out = Path(cfg.get("out_report", "scan_report.json"))
    with open(out, "w") as fh:
        json.dump(rows, fh, indent=2, default=float)
    n_pass = sum(1 for r in rows if r.get("passed"))
    print(f"scan: {len(rows)} points, {n_pass} passed; table written to {out}")
    for row in rows:
        keys = ", ".join(f"{k}={row[k]:g}" for k in sorted(cfg["ranges"]))
        if row["built"]:
            print(f"  {keys}: {'PASS' if row['passed'] else 'FAIL'} "
                  f"worst margin {row['worst_margin']:.4g}")
        else:
            print(f"  {keys}: rejected ({row['error']})")
    return EXIT_OK


LIMITS_KEYS = {"j", "epsilon", "delta", "lambda_plus"}
LIMITS_OPT = {"C", "out_report"}


def cmd_limits(cfg: dict) -> int:
    j, eps = int(cfg["j"]), cfg["epsilon"]
    delta, lam_plus = cfg["delta"], cfg["lambda_plus"]
    C = cfg.get("C")
    if C is None:
        bubble = build_bubble(epsilon=min(eps, 0.09), alpha2=0.01, delta2=0.01,
                              r3=1e3, smooth=False)
        C = blowdown_lipschitz(bubble)
        print(f"C measured from the default bubble blow-down: {C:.6g}")
    sched = schedule(j, eps, delta, lam_plus)
    print(f"r_{j} = {sched.r_j:g}")
    print(f"delta_{j} = {sched.delta_j:g}")
    print(f"eps_{j} = {sched.eps_j:g}")
    print(f"lambda_{j} = {sched.lambda_j:g}")
    alpha = holder_exponent(delta, max(C, 1.0))
    print(f"alpha(delta) = {alpha:.6g}")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        r = float(np.exp(rng.uniform(np.log(1e-10), 0.0)))
        jj = int(rng.integers(0, j + 1))
        worst = max(worst, compose_distortion(r, jj, delta, max(C, 1.0)))
    print(f"max distortion product over 1000 samples: {worst:.6g}")
    tail = gh_error(0, None, delta, max(C, 1.0))
    print(f"GH error tail from stage 0: {tail:.6g} <= {max(C,1.0) * delta:.6g}")
    if "out_report" in cfg:
        with open(cfg["out_report"], "w") as fh:
            json.dump({"j": j, "r_j": sched.r_j, "delta_j": sched.delta_j,
                       "eps_j": sched.eps_j, "lambda_j": sched.lambda_j,
                       "C": C, "alpha": alpha, "gh_tail": tail}, fh, indent=2)
    return EXIT_OK


EXPORT_KEYS = {"target", "out_csv"}
EXPORT_OPT = (BUBBLE_KEYS | BUBBLE_OPT | SURGERY_KEYS | SURGERY_OPT
              | {"lo", "hi", "points", "profile"}) - {"out_csv"}


def cmd_export(cfg: dict) -> int:
    target = cfg["target"]
    if target == "bubble":
        obj = _build_bubble_from(cfg)
        metric = obj.metric
    elif target == "surgery":
        obj = _build_surgery_from(cfg)
        metric = obj.metric
    else:
        raise ConfigError(f"unknown export target {target!r}")
    rs = radial_grid(*metric.r_range, int(cfg.get("points", 1024)))
    if "lo" in cfg or "hi" in cfg:
        # geomspace returns its endpoints exactly, so rs[0] and rs[-1] are
        # the default bounds
        rs = np.geomspace(cfg.get("lo", rs[0]), cfg.get("hi", rs[-1]), rs.size)
    if "profile" in cfg:
        profiles = metric.profiles()
        name = cfg["profile"]
        if name not in profiles:
            raise ConfigError(f"no profile {name!r}; have {sorted(profiles)}")
        profiles[name].export_csv(rs, cfg["out_csv"])
    else:
        export_curvature_csv(metric, rs, cfg["out_csv"])
    print(f"csv written to {cfg['out_csv']}")
    return EXIT_OK


_COMMANDS = {
    "bubble": (cmd_bubble, BUBBLE_KEYS, BUBBLE_OPT),
    "surgery": (cmd_surgery, SURGERY_KEYS, SURGERY_OPT),
    "glue": (cmd_glue, GLUE_KEYS, GLUE_OPT),
    "scan": (cmd_scan, SCAN_KEYS, SCAN_OPT),
    "limits": (cmd_limits, LIMITS_KEYS, LIMITS_OPT),
    "export": (cmd_export, EXPORT_KEYS, EXPORT_OPT),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="warpforge",
        description="build and verify warped-product metrics with Ricci lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["verify"]:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="JSON config file")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            return cmd_verify(args.config)
        fn, required, optional = _COMMANDS[args.command]
        cfg = _load_config(args.config, required, optional)
        return fn(cfg)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ConstructionError, JetDomainError) as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
