"""Per-layer tracing from outside the package.

The benchmark never edits ``src/``.  Instead, :class:`Tracer` replaces the
public functions of each ``quasimodes`` module with wrappers while a traced
run is active.  The package's modules look up each other's functions as
module attributes (``jwkb.certify``) or as module globals at call time
(``build_quasimode`` inside ``certify``), so a wrapper installed on the
module is seen by every caller.

Two kinds of record are kept in memory and written out when the run ends:

* spans, one per call at a layer boundary: name, start, end and the index
  of the enclosing span.  Self time is a span minus its child spans.
* counters for calls that are too frequent to span (series arithmetic,
  scalar potential evaluations, quadrature passes): a call count, a busy
  time and, where it means something, a work count such as nodes.
"""

from __future__ import annotations

import functools
import json
import time
import warnings

_now = time.perf_counter_ns

#: (module, attribute, span name) for calls recorded as spans
SPANNED = (
    ("jwkb", "certify", "jwkb.certify"),
    ("jwkb", "build_piecewise", "jwkb.march"),
    ("jwkb", "select_delta", "jwkb.select_delta"),
    ("jwkb", "residual_ratio", "jwkb.quad"),
    ("jwkb", "sweep_h", "jwkb.sweep_h"),
    ("scaling", "highenergy_lower_bound", "scaling.highenergy"),
    ("scaling", "solve_anchor", "scaling.solve_anchor"),
    ("scaling", "region_U", "scaling.region"),
    ("oracle", "assemble", "oracle.assemble"),
    ("oracle", "smallest_singular_value", "oracle.ssv"),
    ("oracle", "validate", "oracle.validate"),
    ("oracle", "default_discretization", "oracle.discretization"),
    ("cli", "load_potential", "potential.load"),
    ("cli", "make_anchor", "potential.make_anchor"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Installs wrappers on the quasimodes modules and records their calls."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counters = {}  # name -> [calls, busy_ns, work]
        self._stack = []
        self._undo = []
        self._final_nodes = 0
        self._pass_nodes = []

    # -- installation ----------------------------------------------------

    def install(self):
        from quasimodes import cli, jwkb, oracle, scaling, series, potential

        modules = {"jwkb": jwkb, "scaling": scaling, "oracle": oracle, "cli": cli}
        for mod_name, attr, span in SPANNED:
            self._patch(modules[mod_name], attr, self._spanned(span))
        self._patch(jwkb, "residual_pointwise", self._quad_pass)
        self._patch(oracle, "solve_banded", self._counted("oracle.solve_banded"))
        series_cls = series.TruncatedSeries
        for attr in ("sqrt", "recip", "__mul__", "__rmul__"):
            self._patch(series_cls, attr, self._counted("series.build"))
        for attr in ("eval", "eval_d2"):
            self._patch(series_cls, attr, self._series_eval)
        family = potential.PotentialFamily
        self._patch(family, "taylor_at", self._counted("potential.taylor"))
        for attr in ("eval", "deriv"):
            self._patch(family, attr, self._counted("potential.scalar_eval"))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    # -- wrapper factories -------------------------------------------------

    def _spanned(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                idx = len(self.spans)
                rec = [name, _now(), 0, parent]
                self.spans.append(rec)
                self._stack.append(idx)
                try:
                    if name == "oracle.ssv":
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            out = fn(*args, **kwargs)
                        hits = sum("iteration cap" in str(w.message) for w in caught)
                        self._bump("oracle.ssv_cap_hits", 0, hits)
                        return out
                    if name == "jwkb.quad":
                        self._pass_nodes = []
                        out = fn(*args, **kwargs)
                        # the last pass is the one whose estimate was accepted
                        self._final_nodes += self._pass_nodes[-1]
                        return out
                    out = fn(*args, **kwargs)
                    if name == "jwkb.march":
                        self._bump("jwkb.segments", 0, len(out.segments))
                    return out
                finally:
                    rec[2] = _now()
                    self._stack.pop()

            return wrapper

        return make

    def _counted(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._bump(name, _now() - t0, 0)

            return wrapper

        return make

    def _series_eval(self, fn):
        def wrapper(series_obj, s):
            t0 = _now()
            try:
                return fn(series_obj, s)
            finally:
                size = getattr(s, "size", 1)
                self._bump("series.eval", _now() - t0, int(size))

        return wrapper

    def _quad_pass(self, fn):
        def wrapper(P, Q, s):
            t0 = _now()
            try:
                return fn(P, Q, s)
            finally:
                nodes = int(getattr(s, "size", 1))
                self._pass_nodes.append(nodes)
                self._bump("jwkb.quad_pass", _now() - t0, nodes)

        return wrapper

    def _bump(self, name, busy_ns, work):
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = [0, 0, 0]
        c[0] += 1
        c[1] += busy_ns
        c[2] += work

    # -- results ---------------------------------------------------------

    def span_ms(self, name):
        """Total duration of spans called ``name`` (outermost only)."""
        total = 0
        for n, start, end, parent in self.spans:
            if n == name and not self._inside(parent, name):
                total += end - start
        return total / 1e6

    def self_ms(self, name):
        """Duration of spans ``name`` minus the time their child spans cover."""
        child_ns = {}
        for n, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        total = 0
        for i, (n, start, end, _) in enumerate(self.spans):
            if n == name:
                total += (end - start) - child_ns.get(i, 0)
        return total / 1e6

    def _inside(self, parent, name):
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def counter(self, name):
        return self.counters.get(name, [0, 0, 0])

    def layer_metrics(self):
        """Per-layer figures for all calls recorded so far (package excluded)."""
        build = self.counter("series.build")
        ev = self.counter("series.eval")
        quad_pass = self.counter("jwkb.quad_pass")
        final_share = (
            self._final_nodes / quad_pass[2] if quad_pass[2] else 0.0
        )
        return {
            "series.build_ms": (build[1] / 1e6, "ms"),
            "series.build_calls": (build[0], "count"),
            "series.eval_ms": (ev[1] / 1e6, "ms"),
            "series.eval_points": (ev[2], "count"),
            "potential.taylor_ms": (self.counter("potential.taylor")[1] / 1e6, "ms"),
            "potential.scalar_eval_calls": (
                self.counter("potential.scalar_eval")[0], "count"),
            "jwkb.march_ms": (self.span_ms("jwkb.march"), "ms"),
            "jwkb.segments": (self.counter("jwkb.segments")[2], "count"),
            "jwkb.select_delta_ms": (self.span_ms("jwkb.select_delta"), "ms"),
            "jwkb.quad_ms": (self.span_ms("jwkb.quad"), "ms"),
            "jwkb.quad_passes": (quad_pass[0], "count"),
            "jwkb.quad_nodes": (quad_pass[2], "count"),
            "jwkb.quad_final_share": (final_share, "ratio"),
            # anchor solving: both scaling spans minus the certify inside them
            "scaling.anchor_ms": (
                self.self_ms("scaling.highenergy")
                + self.self_ms("scaling.solve_anchor"), "ms"),
            "oracle.assemble_ms": (self.span_ms("oracle.assemble"), "ms"),
            "oracle.ssv_ms": (self.span_ms("oracle.ssv"), "ms"),
            "oracle.ssv_solves": (self.counter("oracle.solve_banded")[0], "count"),
            "oracle.ssv_cap_hits": (self.counter("oracle.ssv_cap_hits")[2], "count"),
            "cli.self_ms": (self.self_ms("cli.main"), "ms"),
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "counters": {
                        k: {"calls": c[0], "busy_ns": c[1], "work": c[2]}
                        for k, c in sorted(self.counters.items())
                    },
                },
                fh,
            )
