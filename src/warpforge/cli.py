"""Command-line front end.

All numeric input arrives through JSON config files (the pipelines carry
~15 coupled parameters each; committed configs keep runs reproducible).
Exit codes are stable for CI use:

    0  built and verified, every requested bound holds
    1  configuration or runtime error
    2  verification found a violation (the machine report is still written)

Commands: bubble, surgery, glue, verify, scan, limits, export.  SCHEMA
lists every key each command's config takes, with its value kind; a
config is checked against it before anything is built.
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
from .limits import gh_error, holder_exponent, max_distortion, schedule
from .profiles import ConstructionError, ParameterError, radial_grid
from .verify import (
    GridConfig,
    export_curvature_csv,
    scan_params,
    verify_ric_lower,
    write_json,
)

EXIT_OK, EXIT_ERROR, EXIT_VIOLATION = 0, 1, 2


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: section -> {key: (kind, required)}
# ---------------------------------------------------------------------------

# A kind is a value kind below (its text completes "<key> must be ..."), a
# nested section (a dict), or [kind] for a non-empty list of that kind.
# Physical parameter ranges are the constructors' to check, not the schema's.
NUMBER, NONNEG, AUTO = "a finite number", "a finite number >= 0", 'a finite number or "auto"'
FLAG, COUNT, INTEGER, TEXT = "a boolean", "a positive integer", "an integer", "a string"
NATURAL = "a non-negative integer"

_IS = {  # JSON true/false are not numbers; NaN and infinities are not finite
    NUMBER: lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    NONNEG: lambda v: _IS[NUMBER](v) and v >= 0,
    AUTO: lambda v: v == "auto" or _IS[NUMBER](v),
    INTEGER: lambda v: type(v) is int, COUNT: lambda v: type(v) is int and v >= 1,
    NATURAL: lambda v: type(v) is int and v >= 0,
    FLAG: lambda v: type(v) is bool, TEXT: lambda v: type(v) is str,
}

# keyword arguments of build_bubble / build_surgery; their defaults stay in
# the builder signatures and only the keys a config gives are passed on
_BUBBLE = {"epsilon": (NUMBER, True), "alpha2": (NUMBER, True), "delta2": (NUMBER, True),
           "r3": (NUMBER, True), "m": (NUMBER, False), "r1": (NUMBER, False),
           "smooth": (FLAG, False)}
_SURGERY = {"kappa": (NUMBER, True), "f0": (NUMBER, True), "lambda_bound": (NUMBER, True),
            "epsilon": (NUMBER, True), "alpha": (NUMBER, True), "r_hat": (NUMBER, True),
            "delta_hat": (NUMBER, True), "eta": (NUMBER, False), "rho": (NUMBER, False),
            "r_m": (NUMBER, False), "r3": (NUMBER, False)}
# a scan point (base plus one value per range) is a bubble config, r3 optional
_SCAN_POINT = {**_BUBBLE, "r3": (NUMBER, False)}
_GRID = {"points_per_piece": (COUNT, False), "refine_factor": (COUNT, False),
         "r_min_frac": (NONNEG, False), "oracle": (FLAG, False), "n_oracle": (COUNT, False),
         "seed": (NATURAL, False), "r_min": (NUMBER, False), "r_max": (NUMBER, False)}
_OUT = {"grid": (_GRID, False), "out_report": (TEXT, False), "out_csv": (TEXT, False),
        "out_descriptor": (TEXT, False)}

# One section per command.  A `target` key's kind maps each allowed target
# to the section whose keys it adds to the config.
SCHEMA = {
    "bubble": {**_BUBBLE, "bound": (NUMBER, False), **_OUT},
    "surgery": {**_SURGERY, "ricci_constant": (NUMBER, False), **_OUT},
    "glue": {"surgery": (_SURGERY, True),
             "bubble": ({"delta2": (NUMBER, True), "r3": (NUMBER, True), "m": (NUMBER, False),
                         "r1": (NUMBER, False), "alpha2": (AUTO, False)}, True),
             "bound": (NUMBER, False), **_OUT},
    "scan": {"target": ({"bubble": {}}, True),
             "base": ({k: (kind, False) for k, (kind, _) in _SCAN_POINT.items()}, False),
             "ranges": ({k: ([kind], False) for k, (kind, _) in _SCAN_POINT.items()}, True),
             "bound": (NUMBER, False), "grid": (_GRID, False), "out_report": (TEXT, False)},
    "limits": {"j": (INTEGER, True), "epsilon": (NUMBER, True), "delta": (NUMBER, True),
               "lambda_plus": (NUMBER, True), "C": (NUMBER, False), "out_report": (TEXT, False)},
    "export": {"target": ({"bubble": _BUBBLE, "surgery": _SURGERY}, True),
               "out_csv": (TEXT, True), "lo": (NUMBER, False), "hi": (NUMBER, False),
               "points": (COUNT, False), "profile": (TEXT, False)},
}
SCHEMA["verify"] = {"target": ({t: SCHEMA[t] for t in ("bubble", "surgery", "glue")}, True)}


def _check(cfg, spec: dict, where: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object, got {cfg!r}")
    if "target" in spec:
        targets, target = spec["target"][0], cfg.get("target")
        if not isinstance(target, str) or target not in targets:
            raise ConfigError(f"{where}: target must be one of {sorted(targets)}, got {target!r}")
        spec = {**spec, **targets[target], "target": (TEXT, True)}
    unknown = sorted(set(cfg) - set(spec))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = sorted(k for k, (_, required) in spec.items() if required and k not in cfg)
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")
    for key, value in cfg.items():
        _check_value(value, spec[key][0], key if where == "config" else f"{where}.{key}")
    return cfg


def _check_value(value, kind, name: str) -> None:
    if isinstance(kind, dict):
        _check(value, kind, name)
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        for item in value:
            _check_value(item, kind[0], name)
    elif not _IS[kind](value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def check(cfg, command: str) -> dict:
    """cfg, if it fits the command's SCHEMA section; else a ConfigError
    naming the first offending key."""
    return _check(cfg, SCHEMA[command], "config")


def load_config(path, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return check(cfg, command)


def build(target: str, cfg: dict) -> tuple:
    """(Bubble | SurgeryMetric | glued metric, metric, bound, grid) of a
    checked bubble, surgery or glue config, as its command verifies them."""
    grid = GridConfig(**cfg.get("grid", {}))
    if target == "bubble":
        b = build_bubble(**{k: cfg[k] for k in _BUBBLE if k in cfg})
        return b, b.metric, cfg.get("bound", 0.0), grid
    if target == "surgery":
        s = build_surgery(**{k: cfg[k] for k in _SURGERY if k in cfg})
        # the clip defaults to the collar's inner edge and the metric's end
        grid = GridConfig(**{"r_min": s.params.r_hat / 2.0, "r_max": s.metric.r_range[1],
                             **cfg.get("grid", {})})
        bound = s.params.lambda_bound - cfg.get("ricci_constant", 150.0) * s.params.epsilon
        return s, s.metric, bound, grid
    s = build_surgery(**cfg["surgery"])
    kw = {"epsilon": s.params.epsilon, **cfg["bubble"]}
    alpha2, delta2 = kw.pop("alpha2", "auto"), kw.pop("delta2")
    if alpha2 == "auto":
        alpha2 = bubble_alpha2_for_alpha(s.params.alpha, **kw)
    glued = glue_bubble(s, build_bubble(alpha2=alpha2, delta2=delta2, **kw))
    return glued, glued, cfg.get("bound", 0.0), grid


# lines each verifying target prints after the report summary; False
# fails the run even when every block clears the bound

def _bubble_lines(bubble, report, bound) -> bool:
    print(f"blow-down stretch sup: {blowdown_lipschitz(bubble):.6g}")
    return True


def _surgery_lines(s, report, bound) -> bool:
    ok = True
    try:
        sup = bilipschitz_check(s)
        print(f"bi-Lipschitz sup {sup:.6g} <= 1 + 2 eps = {1 + 2 * s.params.epsilon:.6g}")
    except ConstructionError as exc:
        print(f"bi-Lipschitz check FAILED: {exc}")
        ok = False
    min_ric = min(report.block_min(k) for k in ("rr", "s3", "s2"))
    measured = (s.params.lambda_bound - min_ric) / s.params.epsilon
    constant = (s.params.lambda_bound - bound) / s.params.epsilon
    print(f"delta = {s.metric.f.pieces[0].params['delta']:.8g}; "  # inner cone delta r^alpha
          f"measured Ricci constant C = {measured:.4g} (asserted <= {constant:g})")
    return ok


def _glue_lines(glued, report, bound) -> bool:
    print(f"common warp coefficient: {glued.params['common_delta']:.8g} "
          f"(delta_I {glued.params['delta_I']:.4g}, delta_II {glued.params['delta_II']:.4g})")
    return True


_AFTER_SUMMARY = {"bubble": _bubble_lines, "surgery": _surgery_lines, "glue": _glue_lines}


# `warpforge <name>` runs cmd_<name> on its checked config; bubble, surgery
# and glue run cmd_verify with themselves as the target

def cmd_verify(cfg: dict, target: str) -> int:
    built, metric, bound, grid = build(target, cfg)
    report = verify_ric_lower(metric, bound, grid)
    path = Path(cfg.get("out_report", f"{target}_report.json"))
    report.write(path)
    if "out_csv" in cfg:
        export_curvature_csv(metric, radial_grid(*metric.r_range, 2048), cfg["out_csv"])
    if "out_descriptor" in cfg:
        write_json(cfg["out_descriptor"], metric.descriptor())
    print(report.summary())
    ok = _AFTER_SUMMARY[target](built, report, bound) and report.passed
    print(f"report written to {path}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _shown(value) -> str:
    """A scan's range value: a boolean as its table writes it, else as %g."""
    return str(value).lower() if isinstance(value, bool) else f"{value:g}"


def cmd_scan(cfg: dict) -> int:
    base = {"smooth": False, **cfg.get("base", {})}
    first = {k: values[0] for k, values in cfg["ranges"].items()}
    _check({**base, **first}, _SCAN_POINT, "scan base and ranges")

    def builder(**kw):
        return build_bubble(**kw).metric

    rows = scan_params(builder, base, cfg["ranges"], cfg.get("bound", 0.0),
                       GridConfig(**cfg.get("grid", {})))
    out = Path(cfg.get("out_report", "scan_report.json"))
    write_json(out, rows)
    n_pass = sum(1 for r in rows if r.get("passed"))
    print(f"scan: {len(rows)} points, {n_pass} passed; table written to {out}")
    for row in rows:
        keys = ", ".join(f"{k}={_shown(row[k])}" for k in sorted(cfg["ranges"]))
        if not row["built"]:
            print(f"  {keys}: rejected ({row['error']})")
        elif row["error"]:
            print(f"  {keys}: verify error ({row['error']})")
        else:
            print(f"  {keys}: {'PASS' if row['passed'] else 'FAIL'} "
                  f"worst margin {row['worst_margin']:.4g}")
    return EXIT_OK


def cmd_limits(cfg: dict) -> int:
    j, eps = cfg["j"], cfg["epsilon"]
    delta, lam_plus = cfg["delta"], cfg["lambda_plus"]
    C = cfg.get("C")
    if C is None:
        bubble = build_bubble(epsilon=min(eps, 0.09), alpha2=0.01, delta2=0.01,
                              r3=1e3, smooth=False)
        C = blowdown_lipschitz(bubble)
        print(f"C measured from the default bubble blow-down: {C:.6g}")
    sched = schedule(j, eps, delta, lam_plus)
    alpha = holder_exponent(delta, C)
    print(f"r_{j} = {sched.r_j:g}")
    print(f"delta_{j} = {sched.delta_j:g}")
    print(f"eps_{j} = {sched.eps_j:g}")
    print(f"lambda_{j} = {sched.lambda_j:g}")
    print(f"alpha(delta) = {alpha:.6g}")
    worst = max_distortion(j, delta, C)
    print(f"max distortion product over stages <= {j}, at every breakpoint: {worst:.6g}")
    tail = gh_error(0, None, delta, C)
    print(f"GH error tail from stage 0: {tail:.6g} <= {C * delta:.6g}")
    if "out_report" in cfg:
        write_json(cfg["out_report"], {"j": j, "r_j": sched.r_j, "delta_j": sched.delta_j,
                                       "eps_j": sched.eps_j, "lambda_j": sched.lambda_j,
                                       "C": C, "alpha": alpha, "gh_tail": tail})
    return EXIT_OK


def cmd_export(cfg: dict) -> int:
    _, metric, _, _ = build(cfg["target"], cfg)
    rs = radial_grid(*metric.r_range, cfg.get("points", 1024))
    if "lo" in cfg or "hi" in cfg:
        # geomspace returns its endpoints exactly, so rs[0] and rs[-1] are
        # the default bounds
        lo, hi = cfg.get("lo", rs[0]), cfg.get("hi", rs[-1])
        r_lo, r_hi = metric.r_range
        if not r_lo < lo < hi <= r_hi:
            key = "hi" if r_lo < lo and (hi > r_hi or "lo" not in cfg) else "lo"
            raise ConfigError(f"{key} out of range: need {r_lo:g} < lo < hi <= {r_hi:g} (the "
                              f"metric's r_range), got lo = {lo:g}, hi = {hi:g}")
        rs = np.geomspace(lo, hi, rs.size)
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


def _run(command: str, cfg: dict) -> int:
    if command in (*_AFTER_SUMMARY, "verify"):
        return cmd_verify(cfg, cfg.get("target", command))
    return globals()[f"cmd_{command}"](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="warpforge",
        description="build and verify warped-product metrics with Ricci lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCHEMA:
        sub.add_parser(name).add_argument("-c", "--config", required=True,
                                          help="JSON config file")
    args = parser.parse_args(argv)

    try:
        return _run(args.command, load_config(args.config, args.command))
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
