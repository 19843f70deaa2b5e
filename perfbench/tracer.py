"""In-memory span tracer and the wrappers that attach it to warpforge.

A span is (name, start, end, parent).  `install` replaces the public
functions of every warpforge module, in every module namespace that holds
them, by wrappers that record one span per call, plus counters where a
span alone cannot say how much work a call did.  Jet arithmetic is only
counted: one span per jet operation would cost more than the operation.

Spans stay in flat arrays until the run ends; `per_layer` folds them into
the per-layer metrics and `save` writes them out.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = 0
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, label: str) -> int:
        nid = self._ids.get(label)
        if nid is None:
            nid = self._ids[label] = len(self.names)
            self.names.append(label)
        return nid

    def span(self, fn, label, classify=None, count=None):
        """Wrap fn so every call records a span named `label` (or
        `classify(label, args)`); `count(counts, args, kwargs, result)` runs
        after a call that returned.  A call that raises adds 1 to the
        counter `<label>.raised`."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label if classify is None else classify(label, args)
            i = len(self.start)
            self.name.append(self._id(name))
            self.parent.append(self._stack[-1])
            self.request.append(self.request_id)
            self.end.append(0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".raised"] += 1
                raise
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, classify):
        """Wrap fn so every call adds 1 to the counter `classify(args)`."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[classify(args)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- merging, aggregation and output ----------------------------------

    def absorb(self, other: dict) -> None:
        """Append the spans and counters of a traced subprocess (the dict
        `dump` wrote), as one new request."""
        self.request_id += 1
        remap = [self._id(n) for n in other["names"]]
        offset = len(self.start)
        self.start.extend(other["start"])
        self.end.extend(other["end"])
        self.name.extend(remap[n] for n in other["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in other["parent"])
        self.request.extend([self.request_id] * len(other["start"]))
        self.counts.update(other["counts"])

    def dump(self) -> dict:
        return {
            "names": self.names,
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "counts": dict(self.counts),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )

    def totals(self) -> dict[str, dict[str, float]]:
        """calls, inclusive ms and self ms per span name."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        dur = dur.astype(np.float64) / 1e6
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            label: {"calls": int(calls[i]), "incl_ms": float(incl[i]), "self_ms": float(own[i])}
            for i, label in enumerate(self.names)
        }


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

BUILDERS = ("build_bubble", "build_surgery", "glue_bubble")
LIMITS = ("schedule", "holder_exponent", "compose_distortion", "gh_error")
# Every call of one of these counts once.  jet_sqrt, jet_pow (integer
# exponent) and jet_poly are built from other counted functions and
# operators, whose calls count as well.  __rsub__ and __rtruediv__ only
# delegate to __sub__ and __truediv__, so they are left out.
JET_FUNCTIONS = ("jet_var", "jet_const", "jet_pow", "jet_sqrt", "jet_sin", "jet_cos",
                 "jet_sinh", "jet_exp", "jet_ln", "jet_poly")
JET_OPERATORS = ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
                 "__truediv__")


def install(tracer: Tracer) -> None:
    """Replace warpforge's public functions by traced wrappers."""
    from warpforge import cli, construction, curvature, jets, limits, profiles, verify

    modules = (jets, profiles, curvature, construction, verify, limits, cli)
    Jet2, ndarray = jets.Jet2, np.ndarray

    def is_array(args) -> bool:
        for a in args:
            if isinstance(a, Jet2):
                a = a.v
            if isinstance(a, ndarray):
                return True
        return False

    # a name the program no longer has is skipped: its layer then reads 0
    def replace(module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def method(cls, attr, make):
        original = getattr(cls, attr, None)
        if original is not None:
            setattr(cls, attr, make(original))

    # jets: counts only
    def jet_kind(args):
        return "jets.array_ops" if is_array(args) else "jets.scalar_ops"

    for fname in JET_FUNCTIONS:
        replace(jets, fname, lambda fn: tracer.counter(fn, jet_kind))
    for op in JET_OPERATORS:
        method(Jet2, op, lambda fn: tracer.counter(fn, jet_kind))

    # profiles: one span per evaluation, split by argument kind
    def profile_kind(label, args):
        return label + (".array" if isinstance(args[1], ndarray) else ".scalar")

    def profile_points(counts, args, kwargs, result):
        counts["profiles.points"] += args[1].size if isinstance(args[1], ndarray) else 1

    method(profiles.Profile, "__call__", lambda fn: tracer.span(
        fn, "profiles.Profile", classify=profile_kind, count=profile_points))
    method(profiles.Profile, "export_csv",
           lambda fn: tracer.span(fn, "profiles.Profile.export_csv"))

    # curvature: closed-form blocks and the finite-difference oracle
    def block_points(counts, args, kwargs, result):
        rs = args[1]
        counts["curvature.blocks_points"] += rs.size if isinstance(rs, ndarray) else 1

    method(curvature.WarpedMetric, "blocks", lambda fn: tracer.span(
        fn, "curvature.WarpedMetric.blocks", count=block_points))
    replace(curvature, "fd_ricci_oracle",
            lambda fn: tracer.span(fn, "curvature.fd_ricci_oracle"))

    # construction
    for fname in BUILDERS + ("bubble_alpha2_for_alpha", "c1_smooth",
                             "blowdown_lipschitz", "bilipschitz_check"):
        replace(construction, fname,
                lambda fn, f=fname: tracer.span(fn, "construction." + f))

    # verify
    def verify_counts(counts, args, kwargs, report):
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
        counts["verify.pieces"] += len(report.pieces)
        counts["verify.grid_points"] += sum(p.grid for p in report.pieces)
        if cfg is not None and cfg.oracle:
            counts["curvature.oracle_requested"] += len(report.pieces) * cfg.n_oracle

    def scan_counts(counts, args, kwargs, rows):
        counts["verify.scan_rows"] += len(rows)

    replace(verify, "verify_ric_lower", lambda fn: tracer.span(
        fn, "verify.verify_ric_lower", count=verify_counts))
    replace(verify, "scan_params", lambda fn: tracer.span(
        fn, "verify.scan_params", count=scan_counts))
    replace(verify, "export_curvature_csv",
            lambda fn: tracer.span(fn, "verify.export_curvature_csv"))
    method(verify.VerificationReport, "write",
           lambda fn: tracer.span(fn, "verify.VerificationReport.write"))

    # limits and the CLI
    for fname in LIMITS:
        replace(limits, fname, lambda fn, f=fname: tracer.span(fn, "limits." + f))
    replace(cli, "main", lambda fn: tracer.span(fn, "cli.main"))


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics (value, unit) of everything traced so far,
    except the import times and the trace overhead, which the caller
    measures."""
    t = tracer.totals()
    c = tracer.counts

    def total(field, *labels):
        return sum(t.get(label, {}).get(field, 0) for label in labels)

    def ratio(num, den):
        return num / den if den else 0.0

    builders = ["construction." + f for f in BUILDERS]
    builds = total("calls", *builders)
    rejected = sum(c[f"{label}.raised"] for label in builders)
    radii = total("calls", "curvature.fd_ricci_oracle")
    arr = total("calls", "profiles.Profile.array")
    sca = total("calls", "profiles.Profile.scalar")
    return {
        "cli.main_ms": (total("self_ms", "cli.main"), "ms"),
        "cli.report_write_ms": (total("incl_ms", "verify.VerificationReport.write"), "ms"),
        "cli.csv_export_ms": (total("incl_ms", "verify.export_curvature_csv",
                                    "profiles.Profile.export_csv"), "ms"),
        "cli.commands": (total("calls", "cli.main"), "count"),
        "construction.build_ms": (total("incl_ms", *builders,
                                        "construction.bubble_alpha2_for_alpha"), "ms"),
        "construction.c1_smooth_ms": (total("incl_ms", "construction.c1_smooth"), "ms"),
        "construction.distortion_ms": (total("incl_ms", "construction.blowdown_lipschitz",
                                             "construction.bilipschitz_check"), "ms"),
        "construction.builds": (builds, "count"),
        "construction.rejected": (rejected, "count"),
        "construction.accept_ratio": (ratio(builds - rejected, builds), "ratio"),
        "verify.calls": (total("calls", "verify.verify_ric_lower"), "count"),
        "verify.self_ms": (total("self_ms", "verify.verify_ric_lower", "verify.scan_params"),
                           "ms"),
        "verify.pieces": (c["verify.pieces"], "count"),
        "verify.grid_points": (c["verify.grid_points"], "count"),
        "verify.scan_rows": (c["verify.scan_rows"], "count"),
        "curvature.blocks_calls": (total("calls", "curvature.WarpedMetric.blocks"), "count"),
        "curvature.blocks_points": (c["curvature.blocks_points"], "count"),
        "curvature.blocks_self_ms": (total("self_ms", "curvature.WarpedMetric.blocks"), "ms"),
        "curvature.oracle_radii": (radii, "count"),
        "curvature.oracle_self_ms": (total("self_ms", "curvature.fd_ricci_oracle"), "ms"),
        "curvature.oracle_ms_per_radius": (
            ratio(total("incl_ms", "curvature.fd_ricci_oracle"), radii), "ms"),
        "curvature.oracle_useful_ratio": (ratio(radii, c["curvature.oracle_requested"]),
                                          "ratio"),
        "profiles.array_calls": (arr, "count"),
        "profiles.scalar_calls": (sca, "count"),
        "profiles.points": (c["profiles.points"], "count"),
        "profiles.self_ms": (total("self_ms", "profiles.Profile.array",
                                   "profiles.Profile.scalar"), "ms"),
        "profiles.scalar_share": (ratio(sca, arr + sca), "ratio"),
        "jets.array_ops": (c["jets.array_ops"], "count"),
        "jets.scalar_ops": (c["jets.scalar_ops"], "count"),
        "limits.calls": (total("calls", *("limits." + f for f in LIMITS)), "count"),
        "limits.self_ms": (total("self_ms", *("limits." + f for f in LIMITS)), "ms"),
    }
