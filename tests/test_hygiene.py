"""Source hygiene of src/warpforge: every imported name is used, no
module checks a condition with `assert`, which `python -O` strips, every
JSON file is written by verify.write_json, every sampled check goes
through profiles.sampled_sup, construction does not import verify, the
build records hold only their builders' inputs, and a Profile only its
pieces and label."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from warpforge.construction import BubbleParams, SurgeryParams, build_bubble, build_surgery
from warpforge.profiles import Profile

SRC = Path(__file__).resolve().parent.parent / "src" / "warpforge"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names an import binds that the module never reads.  `__future__`
    imports and statements marked `# noqa: F401` (re-exports) are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
            "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
        ):
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def calls_outside(source: str, functions: set, module: str, names: tuple) -> list[int]:
    """Lines of module.<name>(...) calls, for each name in names, outside
    the functions named in functions."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
              and f.name in functions for n in ast.walk(f)}
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and id(n) not in inside
            and isinstance(n.func, ast.Attribute) and n.func.attr in names
            and isinstance(n.func.value, ast.Name) and n.func.value.id == module]


def bare_json_writes(source: str) -> list[int]:
    """Lines of json.dump/json.dumps calls outside a function named
    write_json, the one writer that keeps every file strict JSON."""
    return calls_outside(source, {"write_json"}, "json", ("dump", "dumps"))


# The grids that are not a sampled sup: radial_grid itself, verify's piece
# grids, c1_smooth's window radii and the CSV export's geomspace
GRID_SITES = {"radial_grid", "_log_rows", "c1_smooth", "cmd_export"}


def bare_grids(source: str) -> list[int]:
    """Lines of np.linspace/np.geomspace calls outside GRID_SITES."""
    return calls_outside(source, GRID_SITES, "np", ("linspace", "geomspace"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_json_is_written_by_write_json_only(path):
    lines = bare_json_writes(path.read_text())
    assert lines == [], f"{path.name}: json.dump outside write_json at lines {lines}"


def test_bare_json_write_is_found():
    source = ("import json\n"
              "def write_json(path, data):\n    json.dump(data, open(path, 'w'))\n"
              "def other(fh):\n    json.dump({}, fh)\n    return json.dumps([])\n")
    assert bare_json_writes(source) == [5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_grids_are_built_by_radial_grid_only(path):
    lines = bare_grids(path.read_text())
    assert lines == [], f"{path.name}: np.linspace/np.geomspace outside {GRID_SITES} at lines {lines}"


def test_bare_grid_is_found():
    source = ("import numpy as np\n"
              "def radial_grid(lo, hi, n):\n    return np.geomspace(lo, hi, n)\n"
              "def check(p):\n    rs = np.linspace(0, 1, 9)\n    return np.geomspace(1, 2, 3)\n")
    assert bare_grids(source) == [5, 6]


def test_construction_does_not_import_verify():
    tree = ast.parse((SRC / "construction.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [getattr(n, "module", None) or "" for n in imports]
    names += [a.name for n in imports for a in n.names]
    assert [name for name in names if "verify" in name] == []


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep\nfrom . import x  # noqa: F401\nsep\n"
    assert unused_imports(source) == ["math", "path"]


def test_build_records_hold_builder_inputs():
    # a derived constant lives in the piece that holds it (the surgery's
    # delta is the delta of its warp's first piece), not in the record
    def fields(record):
        return {f.name for f in dataclasses.fields(record)}

    def parameters(builder):
        return set(inspect.signature(builder).parameters)

    assert fields(BubbleParams) == parameters(build_bubble) - {"smooth"}
    assert fields(SurgeryParams) == parameters(build_surgery)


def test_profile_is_its_pieces_and_label():
    # what a profile's descriptor holds determines it: no side copy of a
    # derived constant (k, A(r1), R3, h3(r3), a smoothing deviation)
    assert {f.name for f in dataclasses.fields(Profile)} == {"pieces", "label"}
