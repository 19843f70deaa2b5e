"""warpforge benchmark: run one workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; warpforge is imported from ./src.
Workloads: dense-verify, oracle-crosscheck, param-scan, shipped-cli (see
perfbench/README.md).  `--trace 0` measures the end-to-end metrics;
`--trace 1` runs the workload untraced and then traced, each for half of
`--seconds`, and reports the per-layer metrics and the tracing overhead.

Every operation's output is checked; an operation that raises or whose
output does not match expected.json counts as failed.  The last line of
standard output is the JSON result
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
the line before it is a report with provenance, sample counts, the
per-workload metric names and the failures.  Exits 2 without a result
when the program cannot be imported from ./src.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:     # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11

# the per-workload names of the end-to-end metrics: (name, source, unit)
NAMED = {
    "dense-verify": (("verify_pts_per_s", "throughput_per_s", "grid points/s"),
                     ("verify_ms_p50", "op_ms_p50", "ms"),
                     ("verify_ms_p90", "op_ms_p90", "ms")),
    "oracle-crosscheck": (("oracle_radii_per_s", "throughput_per_s", "requested radii/s"),),
    "param-scan": (("scan_rows_per_s", "throughput_per_s", "rows/s"),),
    "shipped-cli": (("cli_ms_p50", "op_ms_p50", "ms"),),
}


class BenchmarkError(RuntimeError):
    pass


def import_program() -> dict:
    """Import numpy and warpforge from ./src; return the import times."""
    if not (SRC / "warpforge" / "__init__.py").is_file():
        raise BenchmarkError(f"no warpforge package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import warpforge.cli
    t2 = time.perf_counter()
    if Path(warpforge.cli.__file__).resolve().parent != (SRC / "warpforge").resolve():
        raise BenchmarkError(f"warpforge was imported from {warpforge.cli.__file__}, not {SRC}")
    return {"numpy_ms": (t1 - t0) * 1e3, "warpforge_ms": (t2 - t1) * 1e3}


def measure(workload, seconds: float, tracer=None, calibration=None) -> list:
    """Run whole cycles until `seconds` have passed, with the host-speed
    kernels in between when a Calibration is given."""
    ops = []
    t_start = time.perf_counter()
    for number in itertools.count():
        for op in workload.cycle(tracer):
            op.cycle = number
            ops.append(op)
        if calibration is not None:
            calibration.keep_up(time.perf_counter() - t_start)
        if time.perf_counter() >= t_start + seconds:
            return ops


def setup_times(workload, env: dict) -> list[float]:
    """Fresh-interpreter set-up times: from just before the interpreter is
    started to the clock reading it prints when its inputs are built."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(workload.probe_argv(), cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def percentile(values: list[float], q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def completed(ops):
    return [op for op in ops if op.completed]


def seconds_per_work(ops) -> float:
    done = completed(ops)
    return sum(op.seconds for op in done) / max(sum(op.work for op in done), 1e-300)


def cycle_rates(ops) -> list[float]:
    """Work units per second of operation time, one rate per cycle."""
    work, seconds = collections.Counter(), collections.Counter()
    for op in completed(ops):
        work[op.cycle] += op.work
        seconds[op.cycle] += op.seconds
    return [work[c] / seconds[c] for c in seconds if seconds[c] > 0]


def op_stats(ops) -> dict[str, tuple[float, int]]:
    """Measured (value, samples) of the completed operations."""
    ms = [op.ms for op in completed(ops)]
    rates = cycle_rates(ops)
    return {"op_ms_p50": (statistics.median(ms), len(ms)),
            "op_ms_p90": (percentile(ms, 90), len(ms)),
            "throughput_per_s": (statistics.median(rates), len(rates))}


def end_to_end(workload, stats: dict, setup: list[float], slowness: float) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics; set-up and operation times and rates are
    scaled to reference host speed by the slowness the calibration kernel
    measured."""
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (statistics.median(setup) / slowness, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ref_op_ms_p50": (stats["op_ms_p50"][0] / slowness, "ms"),
        "ref_throughput_per_s": (stats["throughput_per_s"][0] * slowness, "1/s"),
    }
    samples = {"setup_s": len(setup), "peak_rss_mb": 1,
               "ref_op_ms_p50": stats["op_ms_p50"][1],
               "ref_throughput_per_s": stats["throughput_per_s"][1]}
    return metrics, samples


def traced_metrics(workload, untraced, traced, tracer, imports: dict) -> dict:
    from tracer import per_layer

    metrics = per_layer(tracer)
    if not workload.in_process and workload.import_ms:
        imports = {k: statistics.median(d[k] for d in workload.import_ms) for k in imports}
    metrics["import.numpy_ms"] = (imports["numpy_ms"], "ms")
    metrics["import.warpforge_ms"] = (imports["warpforge_ms"], "ms")
    metrics["trace.overhead_ratio"] = (seconds_per_work(traced) / seconds_per_work(untraced),
                                       "ratio")
    return metrics


def provenance(args) -> dict:
    import numpy

    import warpforge

    def cpuinfo(key):
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    def llc():
        caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
        best = None
        for idx in caches:
            try:
                level = int((idx / "level").read_text())
                size = (idx / "size").read_text().strip()
            except (OSError, ValueError):
                continue
            if best is None or level > best[0]:
                best = (level, size)
        return f"L{best[0]} {best[1]}" if best else None

    def git_commit():
        if not (ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpuinfo("model name"), "llc": llc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "warpforge": warpforge.__version__,
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(NAMED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        imports = import_program()
        with open(HERE / "expected.json") as fh:
            expected = json.load(fh)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads
    from calibrate import Calibration
    from tracer import Tracer, install

    workload = workloads.WORKLOADS[args.workload](args.seed, expected)
    report = {"provenance": provenance(args), "tolerance": {
        "rel": workloads.REL_TOL, "abs": workloads.ABS_TOL, "oracle": workloads.ORACLE_TOL}}
    try:
        if args.trace == 0:
            setup = setup_times(workload, workloads.child_env())
            workload.setup()
            calibration = Calibration()
            ops = measure(workload, args.seconds, calibration=calibration)
        else:
            workload.setup()
            untraced = measure(workload, args.seconds / 2)
            tracer = Tracer()
            if workload.in_process:
                install(tracer)
                workload.setup()     # rebuild the inputs under the tracer
            traced = measure(workload, args.seconds / 2, tracer)
            ops = untraced + traced
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        workload.close()

    failures = list(dict.fromkeys(e for op in ops for e in op.errors))
    failed = sum(1 for op in ops if op.errors or not op.completed)
    for message in failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    if not completed(ops) or (args.trace and not (completed(untraced) and completed(traced))):
        print("perfbench: no operation completed; nothing to measure", file=sys.stderr)
        return 1

    if args.trace == 0:
        stats = op_stats(ops)
        metrics, samples = end_to_end(workload, stats, setup, calibration.slowness())
        report["metrics"] = {name: {"value": stats[src][0], "unit": unit, "samples": stats[src][1]}
                             for name, src, unit in NAMED[args.workload]}
        report["metrics"]["setup_s_measured"] = {"value": statistics.median(setup), "unit": "s",
                                                 "samples": len(setup)}
        report["host"] = {"slowness": calibration.slowness(), "kernel_runs": len(calibration.times),
                          "kernel_ms": statistics.median(calibration.times) * 1e3}
    else:
        metrics = traced_metrics(workload, untraced, traced, tracer, imports)
        samples = {"untraced_ops": len(untraced), "traced_ops": len(traced),
                   "spans": len(tracer.start)}
        workloads.OUT.mkdir(exist_ok=True)
        trace_path = workloads.OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    report.update({
        "work_unit": workload.work_unit, "op_unit": workload.op_unit,
        "failed_ratio": {"value": failed / len(ops), "unit": "failed/attempted",
                         "samples": len(ops)},
        "samples": samples,
        "failures": failures[:50],
    })
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    workloads.OUT.mkdir(exist_ok=True)
    out = workloads.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"report": report, "result": result}, indent=1))
    print("perfbench report: " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
