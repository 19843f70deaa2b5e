"""Smoke test of the benchmark at minimal run length.

usage: python3 perfbench/smoke.py        (from the repository root)

Checks that
  * every workload, untraced and traced, prints as its last line a result
    holding exactly the metrics BENCHMARK.json names, each with its unit,
    and finds no failure;
  * the untraced report line gives every per-workload metric name with a
    unit and a sample count, and failed_ratio;
  * a deliberately wrong expectation, in a copy of the checkout, raises
    failed_ratio above 0;
  * without the program (only BENCHMARK.json and perfbench/), the
    benchmark exits non-zero and prints no result.
Exits 1 at the first problem.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SECONDS = "0.1"     # one cycle of each workload


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def copy_checkout(dest: Path, with_program: bool) -> None:
    """Copy BENCHMARK.json and perfbench/ (without its outputs) to dest, and
    src/ and configs/ when with_program."""
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_program:
        for name in ("src", "configs"):
            shutil.copytree(ROOT / name, dest / name, ignore=skip)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-2].removeprefix("perfbench report: "))
    return report, json.loads(lines[-1])


def check(condition, message):
    if not condition:
        print(f"smoke: FAIL {message}")
        sys.exit(1)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            report, result = parse(run("--workload", workload, "--seed", "0",
                                       "--seconds", SECONDS, "--trace", str(trace)))
            label = f"{workload} --trace {trace}"
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{label}: metrics {got} != {wanted[trace]}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{label}: a metric value is not a number")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: {result['failed']} of {result['attempted']} failed: "
                  f"{report['failures'][:3]}")
            check("unit" in report["failed_ratio"] and "samples" in report["failed_ratio"],
                  f"{label}: failed_ratio lacks unit or sample count")
            if trace == 0:
                check(report["metrics"] and all({"value", "unit", "samples"} <= set(v)
                                                for v in report["metrics"].values()),
                      f"{label}: named metrics lack value, unit or samples")
            print(f"smoke: ok {label}: {result['attempted']} ops")

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=OUT))
    try:
        wrong = scratch / "wrong"
        copy_checkout(wrong, with_program=True)
        expected = json.loads((HERE / "expected.json").read_text())
        expected["reports"]["surgery.json"]["pieces"][0]["min"]["rr"] *= 1.01
        (wrong / "perfbench" / "expected.json").write_text(json.dumps(expected))
        report, result = parse(run("--workload", "dense-verify", "--seed", "0",
                                   "--seconds", SECONDS, "--trace", "0", cwd=wrong))
        check(result["failed"] > 0 and not result["correct"]
              and report["failed_ratio"]["value"] > 0,
              "a wrong expectation did not raise failed_ratio above 0")
        print(f"smoke: ok wrong expectation: failed_ratio {report['failed_ratio']['value']:.3f}")

        bare = scratch / "bare"
        copy_checkout(bare, with_program=False)
        proc = run("--workload", "dense-verify", "--seed", "0", "--seconds", SECONDS,
                   "--trace", "0", cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"without the program: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"smoke: ok without the program: exit {proc.returncode}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
