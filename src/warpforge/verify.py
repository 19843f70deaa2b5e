"""Dense-grid verification of Ricci lower bounds, parameter scans and CSV export.

Verification never trusts a builder's postconditions: each metric is
sampled piece by piece on log-spaced grids (with geometric refinement near
breakpoints and near r -> 0), block minima and their locations are
reported with margins against the requested bound, and an optional pass
cross-checks random radii against the finite-difference oracle.  The same
configuration always produces a bit-identical report.

A verification piece lies inside one piece of every profile, so its blocks
come straight from those pieces' closed forms (a jet shared by A and B is
evaluated once); the profiles' own dispatch is never used.  All pieces'
grids are built together, in three batched np.geomspace calls, on every
call: nothing is cached between calls.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .curvature import RicciBlocks, WarpedMetric, fd_ricci_oracle, ricci_berger
from .jets import JetDomainError
from .profiles import ConstructionError, ParameterError, Piece, write_csv


REFINE_FRAC = 0.01  # share of a piece's width refined geometrically at each end
H_FD = 1e-4  # oracle step in the chart zoomed by 1/r0; narrow pieces take less


@dataclass
class GridConfig:
    """Sampling of verify_ric_lower: per piece, points_per_piece log-spaced
    radii plus max(8 refine_factor, 32) within REFINE_FRAC of its width at
    each end, none below r_min_frac * r_max; with oracle, n_oracle random
    radii per piece (drawn from seed) are checked against the
    finite-difference oracle."""

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

    def as_dict(self) -> dict:
        return {"min": self.min, "argmin": self.argmin, "margin": self.margin}


@dataclass
class PieceReport:
    interval: tuple[float, float]
    grid: int
    blocks: dict[str, BlockStat]

    @property
    def passed(self) -> bool:
        return all(b.margin > 0 for b in self.blocks.values())

    def as_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "grid": self.grid,
            "blocks": {k: v.as_dict() for k, v in self.blocks.items()},
        }


@dataclass
class VerificationReport:
    metric_id: str
    bound: float
    passed: bool
    oracle_checked: bool
    oracle_max_rel_err: float
    pieces: list[PieceReport] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "metric_id": self.metric_id,
            "bound": self.bound,
            "passed": self.passed,
            "oracle_checked": self.oracle_checked,
            "oracle_max_rel_err": self.oracle_max_rel_err,
            "pieces": [p.as_dict() for p in self.pieces],
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh, indent=2)

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


def radial_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n log-spaced radii on [lo, hi): the floor 1e-8 * hi keeps a range
    that starts at r = 0 samplable, and hi itself is left out."""
    return np.geomspace(max(lo, 1e-8 * hi), hi * (1 - 1e-12), n)


def _geomspace_rows(start: np.ndarray, stop: np.ndarray, n: int) -> np.ndarray:
    """np.geomspace(start, stop, n, axis=1), each row as its own call gives
    it: once any row of a call has equal log10 ends, numpy rounds every row
    of that call differently, so such rows get a call of their own."""
    flat = np.log10(start) == np.log10(stop)
    out = np.empty((start.size, n))
    for rows in (flat, ~flat):
        out[rows] = np.geomspace(start[rows], stop[rows], n, axis=1)
    return out


def _piece_grids(lo, hi, cfg: GridConfig, global_max: float) -> list[np.ndarray]:
    """The sorted, distinct radii of each span [lo[i], hi[i]), inset by 1e-12
    of its width and none below cfg.r_min_frac * global_max (empty when the
    floor cuts the whole span), as GridConfig describes.  Every span shares
    three batched geomspace calls and gets the radii of its own calls."""
    lo = np.maximum(np.asarray(lo, dtype=float), cfg.r_min_frac * global_max)
    hi = np.asarray(hi, dtype=float)
    live = lo < hi
    lo, hi = lo[live], hi[live]
    width = hi - lo
    a, b = lo + 1e-12 * width, hi - 1e-12 * width
    n_ref = max(cfg.refine_factor * 8, 32)
    rows = np.concatenate([
        _geomspace_rows(a, b, cfg.points_per_piece),
        _geomspace_rows(a, np.minimum(a + REFINE_FRAC * width, b), n_ref),
        _geomspace_rows(np.maximum(b - REFINE_FRAC * width, a), b, n_ref),
    ], axis=1)
    rows.sort(axis=1)
    first = np.ones(rows.shape, dtype=bool)
    first[:, 1:] = rows[:, 1:] != rows[:, :-1]
    grids = iter([row[keep] for row, keep in zip(rows, first)])
    return [next(grids) if ok else np.array([]) for ok in live]


def _piece_blocks(A: Piece, B: Optional[Piece], f: Piece, rs: np.ndarray) -> RicciBlocks:
    """Blocks at radii inside one verification piece, from its closed forms;
    a round metric's B (None) and a B shared with A reuse A's jet."""
    aj = A(rs)
    return ricci_berger(aj, aj if B is None or B is A else B(rs), f(rs))


def _oracle_pass(metric: WarpedMetric, lo: float, hi: float, forms: list, piece_index: int,
                 cfg: GridConfig) -> float:
    """Max scaled error |oracle - formula| / max(0.1, |formula|) over random
    radii of one piece, all differenced in one oracle call; equivalent to
    |o - f| <= max(1e-5, 1e-4 |f|) scaled to 1e-4.  Returns -inf when the
    piece is too narrow to difference."""
    rel_width = (hi - lo) / hi
    h_fd = min(H_FD, rel_width / 50.0)
    if h_fd < 1e-7:
        return float("-inf")
    rng = np.random.default_rng(cfg.seed + 1_000_003 * (piece_index + 1))
    margin = 12.0 * h_fd
    # flat-center floor: at radius r0 the zoomed chart sees curvature ~ r0^2
    # times the physical O(1) blocks, which must stay above the ~1e-8 fd
    # noise, so pieces reaching r = 0 are sampled from 0.04 * hi up
    a = max(lo * (1.0 + margin), 0.04 * hi)
    b = hi * (1.0 - margin)
    if not a < b:
        return float("-inf")
    radii = np.exp(rng.uniform(np.log(a), np.log(b), size=cfg.n_oracle))
    formula = _piece_blocks(*forms, radii).as_dict(metric.is_round)
    oracle = fd_ricci_oracle(metric, radii, h_fd=h_fd)
    fd = oracle.as_dict(metric.is_round)
    errs = [np.abs(fd[name] - fv) / np.maximum(0.1, np.abs(fv)) for name, fv in formula.items()]
    # mixed radial/sphere block must vanish in rotational symmetry
    errs.append(oracle.cross_ir_mag / np.maximum(0.1, np.abs(formula["rr"])))
    return float(np.max(errs))


def verify_ric_lower(
    metric: WarpedMetric, bound: float, cfg: Optional[GridConfig] = None
) -> VerificationReport:
    """Sample every smooth piece of the metric and compare each Ricci block
    minimum against the bound."""
    cfg = cfg or GridConfig()
    lo_clip = metric.r_range[0] if cfg.r_min is None else cfg.r_min
    hi_clip = metric.r_range[1] if cfg.r_max is None else cfg.r_max
    report = VerificationReport(
        metric_id=metric.label,
        bound=bound,
        passed=True,
        oracle_checked=cfg.oracle,
        oracle_max_rel_err=0.0,
    )
    worst_err = float("-inf")
    spans = []  # (index among the metric's pieces, lo, hi, (A, B, f) pieces)
    for i, (plo, phi_, *forms) in enumerate(metric.verification_pieces()):
        lo, hi = max(plo, lo_clip), min(phi_, hi_clip)
        if lo < hi:
            spans.append((i, lo, hi, forms))
    grids = _piece_grids([s[1] for s in spans], [s[2] for s in spans], cfg, hi_clip)
    for (i, lo, hi, forms), rs in zip(spans, grids):
        if rs.size == 0:
            continue
        blocks = _piece_blocks(*forms, rs)
        stats = {}
        for name, values in blocks.as_dict(metric.is_round).items():
            j = int(np.argmin(values))
            vmin = float(values[j])
            stats[name] = BlockStat(vmin, float(rs[j]), vmin - bound)
        piece = PieceReport((lo, hi), int(rs.size), stats)
        report.pieces.append(piece)
        if not piece.passed:
            report.passed = False
        if cfg.oracle:
            # np.maximum, not max: a NaN error must reach the report
            worst_err = float(np.maximum(worst_err, _oracle_pass(metric, lo, hi, forms, i, cfg)))
    if not report.pieces:
        raise ParameterError(f"the grid samples no piece of {metric.label} in "
                             f"[{lo_clip:g}, {hi_clip:g}] (r_min_frac = {cfg.r_min_frac:g})")
    if cfg.oracle:
        # 0.0 when no piece was wide enough to difference
        report.oracle_max_rel_err = 0.0 if worst_err == float("-inf") else worst_err
    return report


# ---------------------------------------------------------------------------
# parameter scans
# ---------------------------------------------------------------------------

def scan_params(
    builder: Callable[..., WarpedMetric],
    base: dict,
    ranges: dict[str, list],
    bound: float,
    cfg: Optional[GridConfig] = None,
) -> list[dict]:
    """Run builder + verifier over the cartesian product of `ranges`.

    Failures are data, not errors: each row records whether the build was
    accepted, the verification verdict and the worst margin per block.
    """
    cfg = cfg or GridConfig(points_per_piece=512, refine_factor=4)
    keys = sorted(ranges)
    rows = []
    for combo in itertools.product(*(ranges[k] for k in keys)):
        params = dict(base)
        params.update(dict(zip(keys, combo)))
        row = {k: params[k] for k in keys}
        try:
            metric = builder(**params)
        except (ParameterError, ConstructionError, JetDomainError) as exc:
            row.update(built=False, error=f"{type(exc).__name__}: {exc}", passed=False)
            rows.append(row)
            continue
        report = verify_ric_lower(metric, bound, cfg)
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
    """Sampled coefficients and Ricci blocks."""
    rs = np.asarray(rs, dtype=float)
    blocks = metric.blocks(rs)
    write_csv(path, "r,phi_or_A,B,f,ric_rr,ric_s3_or_sX,ric_sYZ,ric_s2", rs,
              *metric.coefficients(rs), blocks.rr, blocks.sX, blocks.sYZ, blocks.s2)
