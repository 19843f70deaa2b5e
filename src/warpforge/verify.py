"""Dense-grid verification of Ricci lower bounds, parameter scans and CSV export.

Verification never trusts a builder's postconditions: each metric is
sampled piece by piece on log-spaced grids (with geometric refinement near
breakpoints and near r -> 0), block minima and their locations are
reported with margins against the requested bound, and an optional pass
cross-checks random radii against the finite-difference oracle.  The same
configuration always produces a bit-identical report.

Each sampled piece has one plan, oracle on or off: one evaluation on its
grid, its oracle radii (none with the oracle off) and their stencil radii.
The oracle makes one call per distinct step on those radii of every piece
(one call for the shipped targets), given the values of that evaluation.

A verification piece lies inside one piece of every profile, so its blocks
come straight from those pieces' closed forms, through berger_jets (a
piece A and B share is evaluated once); the profiles' own dispatch is
never used.  verify_ric_lower decides which radii of a piece are sampled
where it forms its spans (the clip to [r_min, r_max] and the floor), and
_piece_grids builds every new span's grid together, in three elementwise
runs of log-spaced radii, so a span's grid is the same in any batch.

A verify_ric_lower call keeps nothing: called on its own, it plans every
piece in a store of its own, which it drops.  scan_params hands its rows
one store for the whole scan, so rows whose metrics share a base (the
same A and B profiles, as build_bubble gives rows that differ only in
alpha2 or delta2) reuse each piece's grid, oracle radii and A and B jets,
and evaluate only f, the Ricci blocks and the minima; the reports are
bit-identical to standalone calls.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curvature import (H_FD, WarpedMetric, berger_jets, fd_ricci_oracle, ricci_berger,
                        stencil_radii)
from .jets import Jet2, JetDomainError
from .profiles import ConstructionError, ParameterError, write_csv


REFINE_FRAC = 0.01  # share of a piece's width refined geometrically at each end
BASES_KEPT = 16  # most bases a scan's store keeps, as construction._bubble_base does


@dataclass
class GridConfig:
    """Sampling of verify_ric_lower: each piece, clipped to [r_min, r_max],
    is sampled from the larger of its lower end and the floor
    r_min_frac * r_max (a piece below the floor is not sampled), inset by
    1e-12 of that width, with points_per_piece log-spaced radii plus
    max(8 refine_factor, 32) within REFINE_FRAC of the width at each end;
    with oracle, n_oracle random radii per piece (drawn from seed, >= 0)
    are checked against the finite-difference oracle."""

    points_per_piece: int = 4096
    refine_factor: int = 16
    r_min_frac: float = 1e-8     # innermost sample at r_min_frac * r_max
    oracle: bool = False
    n_oracle: int = 32
    seed: int = 0
    r_min: Optional[float] = None  # optional clip of the verified range
    r_max: Optional[float] = None


@dataclass
class BlockStat:
    min: float
    argmin: float
    margin: float


@dataclass
class PieceReport:
    interval: list[float]  # [lo, hi], as the report's JSON has it
    grid: int
    blocks: dict[str, BlockStat]

    @property
    def passed(self) -> bool:
        return all(b.margin > 0 for b in self.blocks.values())


def _plain(x, leaf=None):
    """x with every dataclass made the dict of its fields, as
    dataclasses.asdict makes it but without copying the values, and its
    dicts and lists walked; each other value is passed through leaf."""
    if hasattr(x, "__dataclass_fields__"):
        return {k: _plain(getattr(x, k), leaf) for k in x.__dataclass_fields__}
    if isinstance(x, dict):
        return {k: _plain(v, leaf) for k, v in x.items()}
    if isinstance(x, list):
        return [_plain(v, leaf) for v in x]
    return x if leaf is None else leaf(x)


def write_json(path, data) -> None:
    """data as strict JSON: a non-finite float is written as null, since
    strict parsers reject NaN and Infinity.  Every JSON file the package
    writes goes through here."""
    plain = _plain(data, lambda x: None if isinstance(x, float) and not math.isfinite(x) else x)
    with open(path, "w") as fh:
        json.dump(plain, fh, indent=2, allow_nan=False)


@dataclass
class VerificationReport:
    metric_id: str
    bound: float
    passed: bool
    oracle_checked: bool
    oracle_max_rel_err: float
    pieces: list[PieceReport]

    def as_dict(self) -> dict:
        return _plain(self)

    def write(self, path) -> None:
        """The report as strict JSON (a NaN oracle error is written as null);
        the in-memory report keeps the float."""
        write_json(path, self.as_dict())

    def worst(self) -> tuple[str, float, float]:
        """(block, margin, argmin) of the most negative margin."""
        entries = [
            (name, stat.margin, stat.argmin)
            for piece in self.pieces
            for name, stat in piece.blocks.items()
        ]
        return min(entries, key=lambda e: e[1])

    def block_min(self, block: str) -> float:
        return min(p.blocks[block].min for p in self.pieces if block in p.blocks)

    def summary(self) -> str:
        lines = [
            f"metric {self.metric_id}: bound {self.bound:g} -> "
            f"{'PASS' if self.passed else 'FAIL'}"
        ]
        for piece in self.pieces:
            stats = ", ".join(
                f"{k}: min {v.min:.6g} at r={v.argmin:.6g}" for k, v in piece.blocks.items()
            )
            lines.append(
                f"  [{piece.interval[0]:.6g}, {piece.interval[1]:.6g}] "
                f"({piece.grid} pts) {stats}"
            )
        if self.oracle_checked:
            lines.append(f"  oracle max scaled error: {self.oracle_max_rel_err:.3e}")
        return "\n".join(lines)


def _log_rows(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """n radii per row, evenly spaced in log r from start[i] to stop[i], both
    ends exact (start alone when n = 1), by np.geomspace's own arithmetic
    (a step in log10 r, then 10**).  Elementwise, so a row's radii are its
    np.geomspace row's and depend on its own ends alone, whatever rows share
    the call."""
    log_start = np.log10(start)[:, None]
    step = (np.log10(stop)[:, None] - log_start) / max(n - 1, 1)
    rows = 10.0 ** (log_start + np.arange(n) * step)
    rows[:, 0] = start
    if n > 1:
        rows[:, -1] = stop
    return rows


def _piece_grids(start, stop, cfg: GridConfig) -> list[np.ndarray]:
    """The sorted, distinct radii of each span [start[i], stop[i]), inset by
    1e-12 of its width, as GridConfig describes: three runs of _log_rows,
    the whole span and REFINE_FRAC of its width at each end."""
    start, stop = np.asarray(start, dtype=float), np.asarray(stop, dtype=float)
    width = stop - start
    a, b = start + 1e-12 * width, stop - 1e-12 * width
    n_ref = max(cfg.refine_factor * 8, 32)
    rows = np.concatenate([
        _log_rows(a, b, cfg.points_per_piece),
        _log_rows(a, np.minimum(a + REFINE_FRAC * width, b), n_ref),
        _log_rows(np.maximum(b - REFINE_FRAC * width, a), b, n_ref),
    ], axis=1)
    rows.sort(axis=1, kind="stable")  # three sorted runs: a merge
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return [row[keep] for row, keep in zip(rows, first)]


def _oracle_radii(lo: float, hi: float, piece_index: int,
                  cfg: GridConfig) -> tuple[np.ndarray, float]:
    """(random radii, step h_fd) of one piece's oracle samples: cfg.n_oracle
    radii, or none when the oracle is off or the piece is too narrow to
    difference."""
    h_fd = min(H_FD, (hi - lo) / hi / 50.0)
    margin = 12.0 * h_fd
    # flat-center floor: at radius r0 the zoomed chart sees curvature ~ r0^2
    # times the physical O(1) blocks, which must stay above the ~1e-8 fd
    # noise, so pieces reaching r = 0 are sampled from 0.04 * hi up
    a = max(lo * (1.0 + margin), 0.04 * hi)
    b = hi * (1.0 - margin)
    if not (cfg.oracle and h_fd >= 1e-7 and a < b):
        return np.array([]), h_fd
    rng = np.random.default_rng(cfg.seed + 1_000_003 * (piece_index + 1))
    return np.exp(rng.uniform(np.log(a), np.log(b), size=cfg.n_oracle)), h_fd


def _oracle_errors(metric: WarpedMetric, h_fd: float, samples: list) -> np.ndarray:
    """Scaled errors |oracle - formula| / max(0.1, |formula|), i.e.
    |o - f| <= max(1e-5, 1e-4 |f|) scaled to 1e-4, of one step's samples:
    per piece (radii, formula blocks, profile values at stencil_radii), from
    its one evaluation.  One oracle call, elementwise in the radii."""
    radii = np.concatenate([rs for rs, _, _ in samples])
    formula = np.concatenate([blocks for _, blocks, _ in samples], axis=1)
    radial = [np.concatenate(c) for c in zip(*(v for _, _, v in samples))]
    oracle = fd_ricci_oracle(metric, radii, h_fd=h_fd, radial=radial)
    fd = np.array(list(oracle.as_dict(metric.is_round).values()))
    errs = np.abs(fd - formula) / np.maximum(0.1, np.abs(formula))
    # mixed radial/sphere block must vanish in rotational symmetry (row 0 is rr)
    cross = oracle.cross_ir_mag / np.maximum(0.1, np.abs(formula[0]))
    return np.concatenate([errs.ravel(), cross])


def _base_plans(store: dict, metric: WarpedMetric) -> dict:
    """The piece plans of metric's base in store: one dict per base, keyed
    by the identity of its A and B profiles, which the entry holds so that
    no other profile can take their ids.  A profile's piece on [lo, hi] is
    fixed by the profile, so a plan keyed by (piece index, lo, hi, sampled
    start) within a base always meets the same A and B pieces and the same
    radii.  The BASES_KEPT most recently used bases are kept."""
    key = (id(metric.A), id(metric.B))
    entry = store.pop(key, None) or (metric.A, metric.B, {})
    store[key] = entry  # now the most recently used
    if len(store) > BASES_KEPT:
        del store[next(iter(store))]
    return entry[2]


def verify_ric_lower(
    metric: WarpedMetric, bound: float, cfg: Optional[GridConfig] = None, *,
    _store: Optional[dict] = None,
) -> VerificationReport:
    """Sample every smooth piece of the metric and compare each Ricci block
    minimum against the bound.  Each piece is clipped to [r_min, r_max] and
    sampled from the larger of its lower end and the floor r_min_frac *
    r_max; a piece the floor cuts whole is not sampled, and not reported.
    Each sampled piece is evaluated once, oracle on or off, on its grid, its
    oracle radii and their stencil_radii: the blocks come from the first
    two, their minima from the grid alone, and the oracle reads the profile
    values from the third.

    A piece's plan (grid, oracle radii and step, evaluation radii, and the
    A and B jets there) is taken from _store, scan_params' store for one
    GridConfig, when the metric's base has it, and filed there otherwise;
    without _store the call plans in an empty store of its own, and files
    no jets, which no later piece of the call reads."""
    cfg = cfg or GridConfig()
    counts = ("points_per_piece", "refine_factor") + (("n_oracle", "seed") if cfg.oracle else ())
    for name in counts:  # numpy's generators take seed 0, but no negative seed
        value, least = getattr(cfg, name), (0 if name == "seed" else 1)
        if not (isinstance(value, numbers.Integral) and value >= least):
            kind = "a non-negative" if least == 0 else "a positive"
            raise ParameterError(f"{name} must be {kind} integer, got {value!r}")
    lo_clip = metric.r_range[0] if cfg.r_min is None else cfg.r_min
    hi_clip = metric.r_range[1] if cfg.r_max is None else cfg.r_max
    floor = cfg.r_min_frac * hi_clip
    spans = []  # (plan key: index among the metric's pieces, lo, hi, sampled start; pieces)
    for i, (plo, phi_, *forms) in enumerate(metric.verification_pieces()):
        lo, hi = max(plo, lo_clip), min(phi_, hi_clip)
        start = max(lo, floor)
        if start < hi:
            spans.append(((i, lo, hi, start), forms))
    if not spans:
        raise ParameterError(f"the grid samples no piece of {metric.label} in "
                             f"[{lo_clip:g}, {hi_clip:g}] (r_min_frac = {cfg.r_min_frac:g})")
    plans = _base_plans({} if _store is None else _store, metric)
    new = [key for key, _ in spans if key not in plans]
    grids = _piece_grids([key[3] for key in new], [key[2] for key in new], cfg)
    for (i, lo, hi, start), rs in zip(new, grids):
        radii, h_fd = _oracle_radii(lo, hi, i, cfg)
        at = np.concatenate([rs, radii, stencil_radii(radii, h_fd).ravel()]) if radii.size else rs
        plans[i, lo, hi, start] = [rs, radii, h_fd, at, None]  # A and B jets from the first evaluation
    pieces = []
    samples = {}  # h_fd -> (radii, formula blocks, stencil values) per piece at that step
    for (i, lo, hi, start), forms in spans:
        plan = plans[i, lo, hi, start]
        rs, radii, h_fd, at, ab = plan
        if ab is None:
            jets = berger_jets(*forms, at)
            if _store is not None:  # holding a call's own jets to its end costs ~4% of it
                plan[4] = jets[:2]
        else:
            jets = (*ab, forms[2](at))
        m = rs.size + radii.size  # blocks at the grid and the oracle radii only
        blocks = ricci_berger(*(Jet2(j.v[:m], j.d1[:m], j.d2[:m]) for j in jets))
        blocks = blocks.as_dict(metric.is_round)
        stats = {}
        for name, values in blocks.items():
            j = int(np.argmin(values[:rs.size]))
            vmin = float(values[j])
            stats[name] = BlockStat(vmin, float(rs[j]), vmin - bound)
        pieces.append(PieceReport([lo, hi], int(rs.size), stats))
        if radii.size:
            radial = [j.v[m:].reshape(radii.size, -1) for j in jets]
            formula = np.array([v[rs.size:] for v in blocks.values()])
            samples.setdefault(h_fd, []).append((radii, formula, radial))
    # np.max, not max: a NaN error must reach the report; 0.0 stays when no
    # piece was wide enough to difference
    errs = [_oracle_errors(metric, h_fd, s) for h_fd, s in samples.items()]
    oracle_err = float(np.max(np.concatenate(errs))) if errs else 0.0
    return VerificationReport(
        metric_id=metric.label,
        bound=bound,
        passed=all(p.passed for p in pieces),
        oracle_checked=cfg.oracle,
        oracle_max_rel_err=oracle_err,
        pieces=pieces,
    )


# ---------------------------------------------------------------------------
# parameter scans
# ---------------------------------------------------------------------------

def scan_params(
    builder: Callable[..., WarpedMetric],
    base: dict,
    ranges: dict[str, list],
    bound: float,
    cfg: GridConfig,
) -> list[dict]:
    """Run builder + verifier over the cartesian product of `ranges`.

    Failures are data, not errors: each row records whether the build was
    accepted, the verification verdict and the worst margin per block.  A
    row whose build or verify raises a ParameterError, ConstructionError or
    JetDomainError records it as its error, with passed false and built
    telling which of the two raised, and the scan goes on.

    The rows share one store of piece plans (see verify_ric_lower), which
    lives for this call only: a row whose metric has the A and B profiles
    of an earlier row's (build_bubble's rows that differ only in alpha2 or
    delta2) reuses that base's grids, oracle radii and A and B jets per
    (piece index, lo, hi), and a base beyond the BASES_KEPT most recently
    used is dropped, so a scan whose rows share no base holds at most that
    many.  Every row equals a standalone verify of its metric, bit for bit.
    """
    keys = sorted(ranges)
    rows, store = [], {}
    for combo in itertools.product(*(ranges[k] for k in keys)):
        params = dict(base)
        params.update(dict(zip(keys, combo)))
        row = {k: params[k] for k in keys}
        metric = None
        try:
            metric = builder(**params)
            report = verify_ric_lower(metric, bound, cfg, _store=store)
        except (ParameterError, ConstructionError, JetDomainError) as exc:
            row.update(built=metric is not None, error=f"{type(exc).__name__}: {exc}",
                       passed=False)
            rows.append(row)
            continue
        block_margin = {}
        for piece in report.pieces:
            for name, stat in piece.blocks.items():
                block_margin[name] = min(block_margin.get(name, np.inf), stat.margin)
        row.update(
            built=True,
            error=None,
            passed=report.passed,
            worst_margin=report.worst()[1],
            block_margin=block_margin,
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_curvature_csv(metric: WarpedMetric, rs: np.ndarray, path) -> None:
    """Sampled coefficients and Ricci blocks, from one evaluation of each
    profile."""
    rs = np.asarray(rs, dtype=float)
    jets = berger_jets(metric.A, metric.B, metric.f, rs)
    blocks = ricci_berger(*jets)
    write_csv(path, "r,phi_or_A,B,f,ric_rr,ric_s3_or_sX,ric_sYZ,ric_s2", rs,
              *(j.v for j in jets), blocks.rr, blocks.sX, blocks.sYZ, blocks.s2)
