"""The four benchmark workloads and their output checks.

Each workload is a closed loop with one caller.  `setup` builds the inputs
from the seed; `cycle` runs one round of operations and returns an `Op`
per operation, with the check failures of that operation attached.  Only
the call into warpforge (or the CLI subprocess) is inside an op's time.

Inputs use the public API with the parameters of the shipped configs, in
the way the CLI turns a config into a build, a bound and a grid.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# calls go through the module attributes, so the tracer's wrappers see them
from warpforge import construction, limits, verify
from warpforge.verify import GridConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = HERE / "out"

REL_TOL = 1e-9        # relative tolerance on every compared float
ABS_TOL = 1e-12       # absolute floor, for minima that cancel to ~0
ORACLE_TOL = 1e-4     # bound on the oracle's scaled error (acceptance criterion 5)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SURGERY_REQUIRED = ("kappa", "f0", "lambda_bound", "epsilon", "alpha", "r_hat", "delta_hat")
SURGERY_OPTIONAL = ("eta", "rho", "r_m", "r3")
DEFAULT_RICCI_CONSTANT = 150.0


@dataclass
class Op:
    seconds: float          # time of the call alone
    work: float             # units of work the call did (see Workload.work_unit)
    ms: float               # the time per op_unit, reported as op_ms_p50
    errors: list[str] = field(default_factory=list)
    completed: bool = True  # False when the call raised or timed out
    cycle: int = 0          # which cycle of the run the op belongs to


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_config(name: str) -> dict:
    with open(CONFIGS / name) as fh:
        return json.load(fh)


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + ABS_TOL


# ---------------------------------------------------------------------------
# config -> (metric, bound, grid), as the CLI does it
# ---------------------------------------------------------------------------

@dataclass
class Target:
    name: str
    metric: object
    bound: float
    grid: GridConfig


def grid_config(cfg: dict, **overrides) -> GridConfig:
    return GridConfig(**{**cfg.get("grid", {}), **overrides})


def bubble_from(cfg: dict):
    return construction.build_bubble(
        epsilon=cfg["epsilon"], alpha2=cfg["alpha2"], delta2=cfg["delta2"], r3=cfg["r3"],
        m=cfg.get("m", 1e-3), r1=cfg.get("r1", 2.0), smooth=cfg.get("smooth", True),
    )


def surgery_from(cfg: dict):
    keys = [k for k in SURGERY_REQUIRED + SURGERY_OPTIONAL if k in cfg]
    return construction.build_surgery(**{k: cfg[k] for k in keys})


def target_from(kind: str, cfg: dict) -> Target:
    """Build, bound and grid of the CLI's `bubble`, `surgery` and `glue`
    commands (and of `verify`, which dispatches on the same kinds)."""
    if kind == "bubble":
        return Target(kind, bubble_from(cfg).metric, cfg.get("bound", 0.0), grid_config(cfg))
    if kind == "surgery":
        s = surgery_from(cfg)
        constant = cfg.get("ricci_constant", DEFAULT_RICCI_CONSTANT)
        bound = s.params.lambda_bound - constant * s.params.epsilon
        grid = grid_config(cfg, r_min=s.params.r_hat / 2.0, r_max=2.0)
        return Target(kind, s.metric, bound, grid)
    if kind == "glue":
        s = surgery_from(cfg["surgery"])
        b_cfg = cfg["bubble"]
        m, r1, r3 = b_cfg.get("m", 1e-3), b_cfg.get("r1", 2.0), b_cfg["r3"]
        alpha2 = b_cfg.get("alpha2", "auto")
        if alpha2 == "auto":
            alpha2 = construction.bubble_alpha2_for_alpha(s.params.alpha, s.params.epsilon,
                                                          m, r1, r3)
        bubble = construction.build_bubble(epsilon=s.params.epsilon, alpha2=alpha2,
                                           delta2=b_cfg["delta2"], m=m, r1=r1, r3=r3)
        glued = construction.glue_bubble(s, bubble)
        return Target(kind, glued, cfg.get("bound", 0.0), grid_config(cfg))
    raise ValueError(f"unknown target kind {kind!r}")


SHIPPED_TARGETS = (("bubble", "bubble.json"), ("surgery", "surgery.json"), ("glue", "glue.json"))


def shipped_targets() -> list[Target]:
    return [target_from(kind, load_config(name)) for kind, name in SHIPPED_TARGETS]


# ---------------------------------------------------------------------------
# report checks
# ---------------------------------------------------------------------------

def report_summary(report: dict) -> dict:
    """The compared part of a report: verdict, pieces, grid sizes, block minima."""
    return {
        "passed": report["passed"],
        "pieces": [
            {"interval": p["interval"], "grid": p["grid"],
             "min": {k: b["min"] for k, b in p["blocks"].items()},
             "argmin": {k: b["argmin"] for k, b in p["blocks"].items()}}
            for p in report["pieces"]
        ],
    }


def compare_report(label: str, got: dict, want: dict) -> list[str]:
    got = report_summary(got)
    if got["passed"] != want["passed"]:
        return [f"{label}: verdict {got['passed']} != expected {want['passed']}"]
    if len(got["pieces"]) != len(want["pieces"]):
        return [f"{label}: {len(got['pieces'])} pieces != expected {len(want['pieces'])}"]
    errors = []
    for i, (g, w) in enumerate(zip(got["pieces"], want["pieces"])):
        if g["grid"] != w["grid"] or not all(map(close, g["interval"], w["interval"])):
            errors.append(f"{label}: piece {i} grid/interval {g['grid']} {g['interval']} "
                          f"!= expected {w['grid']} {w['interval']}")
            continue
        if set(g["min"]) != set(w["min"]):
            errors.append(f"{label}: piece {i} blocks {sorted(g['min'])} != {sorted(w['min'])}")
            continue
        for block, value in w["min"].items():
            if not close(g["min"][block], value):
                errors.append(f"{label}: piece {i} {block} min {g['min'][block]!r} "
                              f"!= expected {value!r}")
    return errors


def bubble_design_check(report: dict) -> list[str]:
    """The shipped bubble fails by design (acceptance criterion 3): rr is
    about -0.177 just past r = 2, where the cone flattening starts."""
    for piece in report_summary(report)["pieces"]:
        rr, at = piece["min"].get("rr", 0.0), piece["argmin"].get("rr", 0.0)
        if -0.18 < rr < -0.17 and 2.0 <= at < 2.1:
            return []
    return ["bubble: no piece has the by-design rr deficit of about -0.177 near r = 2"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    work_unit = ""      # what Op.work counts
    op_unit = ""        # what Op.ms is per
    in_process = True   # False when the work runs in child processes

    def __init__(self, seed: int, expected: dict | None):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.expected = expected

    def setup(self) -> None:
        """Build the inputs from the seed."""

    def probe_argv(self) -> list[str]:
        """A fresh-interpreter command that prints the monotonic clock when
        this workload's set-up is done."""
        return [sys.executable, str(HERE / "setup_probe.py"), self.name, str(self.seed)]

    def cycle(self, tracer=None) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload wrote."""

    def _timed(self, tracer, fn, *args):
        if tracer is not None:
            tracer.request_id += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an unexpected exception is a failed op
            return None, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        return result, time.perf_counter() - t0, None


class DenseVerify(Workload):
    """verify_ric_lower, oracle off, on the three shipped targets."""

    name = "dense-verify"
    work_unit = "grid points"
    op_unit = "verify_ric_lower call"

    def setup(self) -> None:
        self.targets = shipped_targets()

    def cycle(self, tracer=None) -> list[Op]:
        return [self.run_target(self.targets[i], tracer)
                for i in self.rng.permutation(len(self.targets))]

    def run_target(self, t: Target, tracer) -> Op:
        report, dt, err = self._timed(tracer, verify.verify_ric_lower, t.metric, t.bound, t.grid)
        if err:
            return Op(dt, 0, dt * 1e3, [f"{t.name}: {err}"], completed=False)
        name = dict(SHIPPED_TARGETS)[t.name]
        errors = compare_report(name, report.as_dict(), self.expected["reports"][name])
        if t.name == "bubble":
            errors += bubble_design_check(report.as_dict())
        return Op(dt, sum(p.grid for p in report.pieces), dt * 1e3, errors)


class OracleCrosscheck(DenseVerify):
    """verify_ric_lower with the finite-difference oracle on, at the
    acceptance criterion 5 grid; the seed is the oracle's GridConfig.seed."""

    name = "oracle-crosscheck"
    work_unit = "oracle radii requested (pieces x n_oracle)"
    op_unit = "requested oracle radius (per oracle-checked verify_ric_lower call)"
    N_ORACLE = 8

    def setup(self) -> None:
        super().setup()
        self.grid = GridConfig(points_per_piece=64, oracle=True, n_oracle=self.N_ORACLE,
                               seed=self.seed)

    def run_target(self, t: Target, tracer) -> Op:
        report, dt, err = self._timed(tracer, verify.verify_ric_lower, t.metric, 0.0, self.grid)
        if err:
            return Op(dt, 0, dt * 1e3, [f"{t.name}: {err}"], completed=False)
        errors = compare_report(f"oracle {t.name}", report.as_dict(),
                                self.expected["oracle_reports"][t.name])
        if not report.oracle_max_rel_err <= ORACLE_TOL:
            errors.append(f"oracle tolerance exceeded: target={report.metric_id} "
                          f"seed={self.seed} "
                          f"oracle_max_rel_err={report.oracle_max_rel_err:.4e} > {ORACLE_TOL:g}")
        # the radii asked for; pieces the oracle skips as too narrow to
        # difference are counted by the traced run (oracle_useful_ratio)
        radii = len(report.pieces) * self.grid.n_oracle
        return Op(dt, radii, dt * 1e3 / max(radii, 1), errors)


class ParamScan(Workload):
    """scan_params over a seeded grid of bubble parameters at scan.json's
    small grid, with smoothing on and off and with out-of-domain rows."""

    name = "param-scan"
    work_unit = "scan rows"
    op_unit = "scan row"
    IN_DOMAIN = 4       # values per axis inside the domain, plus one outside

    def setup(self) -> None:
        cfg = load_config("scan.json")
        self.base = dict(cfg["base"])
        self.bound = cfg.get("bound", 0.0)
        self.grid = grid_config(cfg)

    def ranges(self) -> dict[str, list]:
        n, rng = self.IN_DOMAIN, self.rng
        alpha2 = np.exp(rng.uniform(math.log(0.005), math.log(0.3), n))
        epsilon = rng.uniform(0.01, 0.09, n)
        return {
            "alpha2": sorted(alpha2.tolist()) + [float(rng.uniform(0.55, 0.9))],   # > 1/2
            "epsilon": sorted(epsilon.tolist()) + [float(rng.uniform(0.1, 0.15))],  # >= 1/10
            "smooth": [True, False],
        }

    @staticmethod
    def builder(**params):
        return construction.build_bubble(**params).metric

    def cycle(self, tracer=None) -> list[Op]:
        ranges = self.ranges()
        rows, dt, err = self._timed(tracer, verify.scan_params, self.builder, self.base, ranges,
                                    self.bound, self.grid)
        n = math.prod(len(v) for v in ranges.values())
        if err:
            return [Op(dt, 0, dt * 1e3 / n, [f"scan: {err}"], completed=False)]
        return [Op(dt, len(rows), dt * 1e3 / max(len(rows), 1), self.check(rows, n))]

    @staticmethod
    def check(rows: list[dict], n: int) -> list[str]:
        errors = [] if len(rows) == n else [f"scan: {len(rows)} rows != {n}"]
        for row in rows:
            in_domain = row["epsilon"] < 0.1 and row["alpha2"] <= 0.5
            if row["built"] != in_domain:
                errors.append(f"scan: row {row} built={row['built']} but in_domain={in_domain}")
            elif row["built"] and row["passed"] != (row["worst_margin"] > 0):
                errors.append(f"scan: row {row} passed={row['passed']} "
                              f"with worst_margin={row['worst_margin']}")
        return errors


class ShippedCli(Workload):
    """One fresh interpreter per CLI invocation, over every shipped config
    and one generated export config, each in its own temp directory."""

    name = "shipped-cli"
    work_unit = "CLI invocations"
    op_unit = "CLI invocation"
    in_process = False
    EXPORT_POINTS = 2048
    workdir: Path | None = None
    # (command, config); expected exit codes are in expected.json
    INVOCATIONS = (
        ("bubble", "bubble.json"),
        ("surgery", "surgery.json"),
        ("surgery", "surgery_curved.json"),
        ("glue", "glue.json"),
        ("scan", "scan.json"),
        ("limits", "limits.json"),
        ("verify", "bubble_broken.json"),
        ("export", "export.json"),
    )

    def probe_argv(self) -> list[str]:
        return [sys.executable, "-c",
                "import time, warpforge.cli; print(time.clock_gettime(time.CLOCK_MONOTONIC))"]

    def setup(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=OUT))
        bubble = load_config("bubble.json")
        params = {k: bubble[k] for k in ("epsilon", "alpha2", "delta2", "m", "r1", "r3")}
        lo = float(10.0 ** self.rng.uniform(-4.0, -2.0))
        hi = float(self.rng.uniform(100.0, 2900.0))
        export = {"target": "bubble", **params, "lo": lo, "hi": hi,
                  "points": self.EXPORT_POINTS, "out_csv": "export.csv"}
        self.export_path = self.workdir / "export.json"
        self.export_path.write_text(json.dumps(export, indent=2))
        # the CSV the export must write, from the library directly
        metric = bubble_from(params).metric
        rs = np.geomspace(lo, hi, self.EXPORT_POINTS)
        a, b, f = metric.coefficients(rs)
        blocks = metric.blocks(rs)
        self.export_expected = np.column_stack(
            [rs, a, b, f, blocks.rr, blocks.sX, blocks.sYZ, blocks.s2])
        self.env = child_env()
        self.import_ms: list[dict] = []   # import times reported by traced children

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def config_path(self, name: str) -> Path:
        return self.export_path if name == "export.json" else CONFIGS / name

    def cycle(self, tracer=None) -> list[Op]:
        ops = []
        for i in self.rng.permutation(len(self.INVOCATIONS)):
            command, name = self.INVOCATIONS[i]
            cwd = Path(tempfile.mkdtemp(prefix="run-", dir=self.workdir))
            try:
                ops.append(self.invoke(command, name, cwd, tracer))
            finally:
                shutil.rmtree(cwd, ignore_errors=True)
        return ops

    def invoke(self, command: str, name: str, cwd: Path, tracer) -> Op:
        cli_args = [command, "-c", str(self.config_path(name))]
        if tracer is None:
            argv = [sys.executable, "-c", "from warpforge.cli import entrypoint; entrypoint()"]
        else:
            argv = [sys.executable, str(HERE / "launch.py"), str(cwd / "trace.json")]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv + cli_args, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=120)
        except subprocess.TimeoutExpired:
            dt = time.perf_counter() - t0
            return Op(dt, 0, dt * 1e3, [f"{name}: timed out"], completed=False)
        dt = time.perf_counter() - t0
        errors = self.check(name, proc, cwd)
        if tracer is not None and (cwd / "trace.json").is_file():
            with open(cwd / "trace.json") as fh:
                child = json.load(fh)
            tracer.absorb(child["trace"])
            self.import_ms.append(child["import"])
        return Op(dt, 1, dt * 1e3, errors)

    def check(self, name: str, proc, cwd: Path) -> list[str]:
        want = self.expected["exit_codes"][name]
        if proc.returncode != want:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or [""]
            return [f"{name}: exit code {proc.returncode} != expected {want} ({tail[0]})"]
        try:
            return self.check_outputs(name, cwd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{name}: unreadable output: {type(exc).__name__}: {exc}"]

    def check_outputs(self, name: str, cwd: Path) -> list[str]:
        if name == "export.json":
            got = np.loadtxt(cwd / "export.csv", delimiter=",", skiprows=1, ndmin=2)
            want = self.export_expected
            if got.shape != want.shape:
                return [f"export: CSV shape {got.shape} != expected {want.shape}"]
            bad = np.abs(got - want) > REL_TOL * np.abs(want) + ABS_TOL
            if bad.any():
                return [f"export: {int(bad.sum())} CSV values differ from the library"]
            return []
        cfg = load_config(name)
        with open(cwd / cfg["out_report"]) as fh:
            report = json.load(fh)
        if name == "scan.json":
            return compare_scan(report, self.expected["scan"])
        if name == "limits.json":
            return compare_limits(report, self.expected["limits"])
        errors = compare_report(name, report, self.expected["reports"][name])
        if name == "bubble.json":
            errors += bubble_design_check(report)
            with open(cwd / cfg["out_csv"]) as fh:
                lines = fh.read().splitlines()
            if lines[0] != CURVATURE_CSV_HEADER or len(lines) != 2049:
                errors.append(f"bubble.json: CSV header {lines[0]!r}, {len(lines) - 1} rows")
        return errors


CURVATURE_CSV_HEADER = "r,phi_or_A,B,f,ric_rr,ric_s3_or_sX,ric_sYZ,ric_s2"


def compare_scan(rows: list[dict], want: list[dict]) -> list[str]:
    if len(rows) != len(want):
        return [f"scan.json: {len(rows)} rows != expected {len(want)}"]
    errors = []
    for got, exp in zip(rows, want):
        same = all(got.get(k) == v for k, v in exp.items() if k != "worst_margin")
        if not same or not close(got.get("worst_margin", math.nan), exp["worst_margin"]):
            errors.append(f"scan.json: row {got} != expected {exp}")
    return errors


def compare_limits(got: dict, want: dict) -> list[str]:
    bad = [k for k, v in want.items() if k not in got or not close(got[k], v)]
    return [f"limits.json: {k} = {got.get(k)!r} != expected {want[k]!r}" for k in bad]


# ---------------------------------------------------------------------------
# the expectations, from the library
# ---------------------------------------------------------------------------

def summary_of(metric, bound: float, grid: GridConfig) -> dict:
    return report_summary(verify.verify_ric_lower(metric, bound, grid).as_dict())


def compute_expected() -> dict:
    """Expected outputs, computed through the public API.  Committed as
    expected.json; regenerate only for an intended change of results."""
    reports = {}
    for kind, name in SHIPPED_TARGETS + (("surgery", "surgery_curved.json"),):
        t = target_from(kind, load_config(name))
        reports[name] = summary_of(t.metric, t.bound, t.grid)
    broken = load_config("bubble_broken.json")
    t = target_from(broken["target"], broken)
    reports["bubble_broken.json"] = summary_of(t.metric, t.bound, t.grid)

    oracle_grid = GridConfig(points_per_piece=64)
    oracle_reports = {t.name: summary_of(t.metric, 0.0, oracle_grid) for t in shipped_targets()}

    scan = load_config("scan.json")
    rows = verify.scan_params(ParamScan.builder, {"smooth": False, **scan["base"]}, scan["ranges"],
                       scan.get("bound", 0.0), grid_config(scan))
    scan_rows = [{"alpha2": r["alpha2"], "built": r["built"], "passed": r["passed"],
                  "worst_margin": r["worst_margin"]} for r in rows]

    lim = load_config("limits.json")
    sched = limits.schedule(int(lim["j"]), lim["epsilon"], lim["delta"], lim["lambda_plus"])
    C = max(lim["C"], 1.0)
    limits_report = {
        "j": int(lim["j"]), "r_j": sched.r_j, "delta_j": sched.delta_j, "eps_j": sched.eps_j,
        "lambda_j": sched.lambda_j, "C": lim["C"], "alpha": limits.holder_exponent(lim["delta"], C),
        "gh_tail": limits.gh_error(0, None, lim["delta"], C)}

    return {
        "note": "regenerate with: python3 perfbench/make_expected.py",
        "exit_codes": {"bubble.json": 2, "surgery.json": 0, "surgery_curved.json": 0,
                       "glue.json": 2, "scan.json": 0, "limits.json": 0,
                       "bubble_broken.json": 2, "export.json": 0},
        "reports": reports,
        "oracle_reports": oracle_reports,
        "scan": scan_rows,
        "limits": limits_report,
    }


WORKLOADS = {w.name: w for w in (DenseVerify, OracleCrosscheck, ParamScan, ShippedCli)}
