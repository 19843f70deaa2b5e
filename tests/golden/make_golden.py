"""Write the golden verification reports that tests/test_golden_reports.py
compares fresh reports against.

Each shipped config is checked, built, bounded and gridded by its CLI
command's own code (`warpforge.cli.load_config` and `warpforge.cli.build`;
`verify` for bubble_broken.json); bubble, surgery and glue also get an
oracle-checked report at a small grid.  oracle_table.json holds the
finite-difference oracle's `oracle_max_rel_err` for bubble, surgery and
glue at acceptance criterion 5's grid with 8 oracle radii per piece, seeds
0-19 (the benchmark's oracle-crosscheck runs).  It pins the known finding
that glue seed 12 reads 1.0751e-04, above criterion 5's 1e-4.
<config>_descriptor.json holds the metric descriptor that bubble, surgery,
surgery_curved and glue write to `out_descriptor`: the bytes
`verify.write_json` writes.  cli_stdout.json holds the exit code and
stdout of each shipped-config invocation (`warpforge <command> -c
configs/<config>.json`, run by `warpforge.cli.main` in a fresh directory),
which pins the sups the commands print: the bubble's blow-down stretch,
the surgeries' bi-Lipschitz ratio and measured Ricci constant.
scan.json holds the table `warpforge scan -c configs/scan.json` writes
to its out_report, byte for byte, so every row's margins are pinned to
the bit, not only the 4 significant digits its stdout prints.
Regenerate only when a change is meant to alter reports, from the
repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

With --check nothing is written: every golden is regenerated in memory and
compared byte for byte with the committed file, and the command exits 1
naming each file that differs.  The golden tests compare at a tolerance,
so this is the check that a change leaves every report unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from warpforge.cli import build, load_config, main as cli_main
from warpforge.verify import GridConfig, verify_ric_lower, write_json

HERE = Path(__file__).resolve().parent
CONFIGS = HERE.parent.parent / "configs"

CLI_CASES = ("bubble", "surgery", "surgery_curved", "glue", "bubble_broken")
ORACLE_CASES = ("bubble", "surgery", "glue")
DESCRIPTOR_CASES = ORACLE_CASES + ("surgery_curved",)
ORACLE_GRID = dict(points_per_piece=64, oracle=True, n_oracle=4, seed=0)
TABLE_GRID = dict(points_per_piece=64, oracle=True, n_oracle=8)
TABLE_SEEDS = range(20)
INVOCATIONS = (("bubble", "bubble"), ("surgery", "surgery"), ("surgery", "surgery_curved"),
               ("glue", "glue"), ("scan", "scan"), ("limits", "limits"),
               ("verify", "bubble_broken"))


def cli_case(config: str):
    """(metric, bound, grid) of a shipped config, from the CLI's own build step."""
    command = "verify" if config == "bubble_broken" else config.split("_")[0]
    cfg = load_config(CONFIGS / f"{config}.json", command)
    _, metric, bound, grid = build(cfg.get("target", command), cfg)
    return metric, bound, grid


NAMES = CLI_CASES + tuple(f"{config}_oracle" for config in ORACLE_CASES)


def case(name: str):
    """(metric, bound, grid) of one golden report, named as in NAMES."""
    metric, bound, grid = cli_case(name.removesuffix("_oracle"))
    if name.endswith("_oracle"):
        grid = dataclasses.replace(grid, **ORACLE_GRID)
    return metric, bound, grid


def oracle_table() -> dict:
    """{config: [oracle_max_rel_err for each of TABLE_SEEDS]} at bound 0."""
    table = {}
    for config in ORACLE_CASES:
        metric, _, _ = cli_case(config)
        table[config] = [
            verify_ric_lower(metric, 0.0, GridConfig(**TABLE_GRID, seed=seed)).oracle_max_rel_err
            for seed in TABLE_SEEDS
        ]
    return table


def file_text(write) -> str:
    """The text that write(path) puts in a fresh file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.json"
        write(path)
        return path.read_text()


def descriptor_text(config: str) -> str:
    """The out_descriptor file the CLI writes for a shipped config."""
    metric, _, _ = cli_case(config)
    return file_text(lambda path: write_json(path, metric.descriptor()))


def run_cli(command: str, config: str, written=None) -> tuple[int, str, str]:
    """(exit code, stdout, text of the file named written, or "") of one
    invocation, run in a fresh directory so that its files land there."""
    stdout, home = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        os.chdir(tmp)
        try:
            code = cli_main([command, "-c", str(CONFIGS / f"{config}.json")])
            text = Path(written).read_text() if written else ""
        finally:
            os.chdir(home)
    return code, stdout.getvalue(), text


def cli_stdout(invocations=INVOCATIONS) -> dict:
    """{config: {"command", "exit_code", "stdout"}} of each (command, config)
    invocation."""
    out = {}
    for command, config in invocations:
        code, stdout, _ = run_cli(command, config)
        out[config] = {"command": command, "exit_code": code, "stdout": stdout}
    return out


def scan_table_text() -> str:
    """The table the shipped scan writes to its out_report."""
    written = load_config(CONFIGS / "scan.json", "scan").get("out_report", "scan_report.json")
    return run_cli("scan", "scan", written)[2]


def goldens() -> dict[str, str]:
    """{file name: text} of every golden, regenerated in memory."""
    texts = {f"{name}.json": file_text(verify_ric_lower(*case(name)).write) for name in NAMES}
    for config in DESCRIPTOR_CASES:
        texts[f"{config}_descriptor.json"] = descriptor_text(config)
    table = {"grid": TABLE_GRID, "seeds": list(TABLE_SEEDS), "oracle_max_rel_err": oracle_table()}
    texts["oracle_table.json"] = json.dumps(table, indent=2) + "\n"
    texts["cli_stdout.json"] = json.dumps(cli_stdout(), indent=2) + "\n"
    texts["scan.json"] = scan_table_text()
    return texts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden reports.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 naming each golden that differs")
    check = parser.parse_args(argv).check
    differ = []
    for name, text in goldens().items():
        path = HERE / name
        if not check:
            path.write_text(text)
            print(f"wrote {name}")
        elif not path.exists() or path.read_bytes() != text.encode():
            differ.append(name)
            print(f"differs: {name}")
    if check and not differ:
        print("every golden is byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
