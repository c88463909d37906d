"""Span tracer for the traced run, installed from outside the package.

Each layer boundary is a module-level function or `DiffOp` method through
which one layer calls the next.  The tracer replaces it, in every `shapeinv`
module that holds it, by a wrapper that counts the call and opens a span
(metric name, parent span, start, end).  A call made while a span of the
same metric is already the innermost one (a layer recursing into itself)
is counted but opens no span.  Spans stay in memory in flat arrays and are
written out when the run ends.

Two kinds of time are derived from the spans:
* self time: a span's duration minus the durations of its direct children;
* inclusive time: the summed duration of spans with no ancestor of the same
  metric (used for the operator constructors and the suite sectors, whose
  own code is thin glue around the lower layers).
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

ROOT = "workload"

# metric -> (module, [function names]) for module-level boundaries
FUNCTIONS = {
    "symx.canon": ("symx", ["_canon_cf"]),
    "symx.eval": ("symx", ["evaluate_fast"]),
    "symx.simplify": ("symx", ["simplify_basic"]),
    "symx.diff": ("symx", ["diff"]),
    "symx.cf_to_expr": ("symx", ["cf_to_expr"]),
    "dsl.parse": ("dsl", ["parse_op_expr"]),
    "dsl.build": ("dsl", ["build_operator"]),
    "verify.check": ("verify", ["check_zero", "check_proportional",
                                "measure_constant", "op_equal",
                                "check_op_zero"]),
    "su2.build": ("su2", [
        "build_raw_generators", "quadratic", "quadratic_right", "casimir",
        "casimir_reference", "fourier_reduce", "build_reduced_generators",
        "reduced_ladder_reference", "casimir_reduced_reference", "conjugate",
        "weighted_reduced_reference", "hq_reference",
        "build_primed_generators", "primed_reference"]),
    "ladders2d.build": ("ladders2d", [
        "Lminus_of", "Rminus_of", "Lplus_of", "Rplus_of", "L3_of", "R3_of",
        "Y_ladder", "X_ladder", "annihilation_ops"]),
    "osc3d.build": ("osc3d", [
        "cartesian_gradients", "cartesian_ladders", "cartesian_a1_printed",
        "build_combos", "combo_reference", "reduced_reference",
        "build_oscillators", "build_H4", "h4_reference", "build_Hm",
        "hm_reference", "hm_tilde_reference", "pair_minus", "pair_plus"]),
}

# metric -> (module, class, method) for method boundaries
METHODS = {
    "opalg.apply": ("opalg", "DiffOp", "apply"),
    "opalg.compose": ("opalg", "DiffOp", "__matmul__"),
    "opalg.normalize": ("opalg", "DiffOp", "normalized"),
    "verify.plan": ("verify", "SamplePlan", "points"),
}

SUITE_SECTORS = {"su2": "suite.su2", "2d": "suite.2d", "3d": "suite.3d"}

# metrics reported as inclusive time; every other `_s` metric is self time
INCLUSIVE_PREFIXES = ("su2.", "ladders2d.", "osc3d.", "suite.")
TIMED = (list(FUNCTIONS) + list(METHODS) + list(SUITE_SECTORS.values())
         + ["suite.faults"])
CALLED = ("symx.canon", "symx.eval", "opalg.apply", "opalg.compose",
          "opalg.normalize")
COUNTED = ("opalg.terms_applied", "verify.points", "verify.skipped_points")


class Tracer:
    """Span store plus the counters bumped at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [(None, -1)]     # (metric, span index) of open spans
        self.open_depth = Counter()   # open spans per metric
        self.calls = Counter()
        self.counts = Counter()
        self._undo = []

    # -- recording ------------------------------------------------------------
    def _enter(self, metric: str) -> int:
        mid = self.name_id.get(metric)
        if mid is None:
            mid = self.name_id[metric] = len(self.names)
            self.names.append(metric)
        sid = len(self.span_start)
        self.span_name.append(mid)
        self.span_parent.append(self.stack[-1][1])
        self.span_outer.append(self.open_depth[metric] == 0)
        self.span_end.append(0.0)
        self.open_depth[metric] += 1
        self.stack.append((metric, sid))
        self.span_start.append(time.perf_counter())
        return sid

    def _leave(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        metric, _ = self.stack.pop()
        self.open_depth[metric] -= 1

    def span(self, metric: str, fn, note=None):
        """Wrap fn so that each call is counted and, unless it recurses
        within the innermost span's metric, timed as a span."""
        stack, calls = self.stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            if note is not None:
                note(args)
            if stack[-1][0] == metric:
                return fn(*args, **kwargs)
            sid = self._enter(metric)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(sid)

        return wrapper

    def run(self, fn, *args):
        """Call fn inside the root span."""
        sid = self._enter(ROOT)
        try:
            return fn(*args)
        finally:
            self._leave(sid)

    # -- installation -----------------------------------------------------------
    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every `shapeinv` module attribute that is `original`."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "shapeinv"
                                      or modname.startswith("shapeinv.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every boundary that exists; a boundary a later version of
        the package no longer has is skipped and its metric reads 0."""
        import shapeinv.cli  # noqa: F401  (loads every layer module)
        from shapeinv import suite, symx, verify
        pkg = sys.modules["shapeinv"]

        canon_memo = getattr(symx, "_CANON_MEMO", None)
        counts = self.counts

        def note_canon(args):
            if canon_memo is not None and args[0] in canon_memo:
                counts["symx.canon_hits"] += 1

        def note_apply(args):
            counts["opalg.terms_applied"] += len(args[0].terms)

        notes = {"symx.canon": note_canon, "opalg.apply": note_apply}
        for metric, (modname, fnames) in FUNCTIONS.items():
            module = getattr(pkg, modname)
            for fname in fnames:
                fn = getattr(module, fname, None)
                if fn is not None:
                    self._replace_everywhere(
                        fn, self.span(metric, fn, notes.get(metric)))
        for metric, (modname, cname, mname) in METHODS.items():
            cls = getattr(getattr(pkg, modname), cname)
            fn = cls.__dict__.get(mname)
            if fn is None:
                continue
            setattr(cls, mname, self.span(metric, fn, notes.get(metric)))
            self._undo.append((cls, mname, fn))

        eval_many = getattr(verify, "_eval_many", None)
        if eval_many is not None:
            @functools.wraps(eval_many)
            def counted_eval_many(exprs, pts):
                out = eval_many(exprs, pts)
                counts["verify.points"] += len(pts)
                counts["verify.skipped_points"] += out[-1]
                return out
            self._replace_everywhere(eval_many, counted_eval_many)

        for name, _ref, sector, fn in suite._registry():
            metric = ("suite.faults" if name.startswith(suite.FAULT_PREFIX)
                      else SUITE_SECTORS[sector])
            self._replace_everywhere(fn, self.span(metric, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------------
    def times(self) -> tuple[Counter, Counter]:
        """(self time, inclusive time) per metric, in seconds."""
        own, incl = Counter(), Counter()
        names, parent = self.names, self.span_parent
        for sid in range(len(self.span_start)):
            dur = self.span_end[sid] - self.span_start[sid]
            name = names[self.span_name[sid]]
            own[name] += dur
            if self.span_outer[sid]:
                incl[name] += dur
            p = parent[sid]
            if p >= 0:
                own[names[self.span_name[p]]] -= dur
        return own, incl

    def layer_metrics(self) -> dict:
        """Every per-layer metric of the traced pass, by its reported name."""
        from shapeinv import opalg, symx
        own, incl = self.times()
        out = {}
        for metric in TIMED:
            table = incl if metric.startswith(INCLUSIVE_PREFIXES) else own
            out[metric + "_s"] = float(table[metric])
        for metric in CALLED:
            out[metric + "_calls"] = self.calls[metric]
        lookups = self.calls["symx.canon"]
        out["symx.canon_hit_ratio"] = (self.counts["symx.canon_hits"] / lookups
                                       if lookups else 0.0)
        for key in COUNTED:
            out[key] = self.counts[key]
        # table sizes at the end of the pass (0 for a table that is gone)
        for key, module, table in (
                ("symx.canon_memo_entries", symx, "_CANON_MEMO"),
                ("symx.simplify_memo_entries", symx, "_SIMPLIFY_MEMO"),
                ("opalg.deriv_memo_entries", opalg, "_DERIV_MEMO")):
            out[key] = len(getattr(module, table, ()))
        return out

    def write_spans(self, path) -> None:
        """One line per span: id, metric, parent id, start, end (seconds)."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start,end\n")
            for sid in range(len(self.span_start)):
                fh.write(f"{sid},{names[self.span_name[sid]]},"
                         f"{self.span_parent[sid]},{self.span_start[sid]!r},"
                         f"{self.span_end[sid]!r}\n")
