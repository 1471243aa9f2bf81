"""Smoke test: the benchmark's tracer still finds the names it patches."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import quasimodes

from quasimodes import cli, jwkb, oracle, potential, scaling, series
from quasimodes.potential import PotentialFamily, make_anchor

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
IX3 = PotentialFamily(((1j, 3, 0),))


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_segments_and_quadrature_passes():
    owners = (cli, jwkb, oracle, scaling, series.TruncatedSeries,
              potential.PotentialFamily)
    before = [dict(vars(owner)) for owner in owners]
    anchor = make_anchor(IX3, 0.05, 1.0, 1.0)
    segments = len(jwkb.build_piecewise(IX3, anchor, 1).segments)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        cert = jwkb.certify(IX3, anchor, 1)
    finally:
        tracer.uninstall()
    assert segments == 32
    assert tracer.counter("jwkb.segments")[2] == segments
    calls, _, nodes = tracer.counter("jwkb.quad_pass")
    # one residual evaluation for the first two passes, ceil(P0/8) and
    # ceil(P0/4) panels, then one per pass: the reported pass is in the last;
    # a pass evaluates the panels of its uniform layout that meet the support
    p0 = max(64, math.ceil(8.0 * cert.delta / math.sqrt(anchor.h)))
    schedule = [math.ceil(p0 * 2.0**k) for k in range(-3, jwkb.MAX_DOUBLINGS + 1)]
    last = schedule.index(cert.panels)
    lo, hi = cert.diagnostics["support"]

    def meeting(panels):
        edges = np.linspace(-cert.delta, cert.delta, panels + 1)
        return int(((edges[1:] >= lo) & (edges[:-1] <= hi)).sum())

    want = [meeting(schedule[0]) + meeting(schedule[1])]
    want += [meeting(panels) for panels in schedule[2 : last + 1]]
    assert tracer._pass_nodes == [p * jwkb.PANEL_NODES for p in want]
    assert calls == len(want) and nodes == sum(tracer._pass_nodes)
    metrics = tracer.layer_metrics()
    assert metrics["jwkb.quad_passes"][0] == calls
    assert metrics["jwkb.quad_nodes"][0] == nodes
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert all(after[name] is value for name, value in attrs.items())


def test_tracer_counts_two_solves_per_sigma_min():
    anchor = make_anchor(IX3, 0.05, 1.0, 1.0)
    cert = jwkb.certify(IX3, anchor, 0)
    disc = oracle.default_discretization(IX3, anchor, cert.delta)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        oracle.validate(cert, IX3, disc)
    finally:
        tracer.uninstall()
    ssv_calls = sum(1 for span in tracer.spans if span[0] == "oracle.ssv")
    assert ssv_calls == 1
    assert tracer.layer_metrics()["oracle.ssv_solves"][0] >= 2 * ssv_calls


#: run in a fresh interpreter: wrap a ``cli`` whose ``main`` has never run,
#: then certify and validate through ``cli.main`` in this process
FRESH_CLI_TRACE = """
import contextlib, importlib.util, io, sys
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from quasimodes import cli, jwkb, oracle, potential, scaling
before = dict(vars(cli))
tracer = spans.Tracer()
tracer.install()
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", "--potential", sys.argv[2], "--a", "1",
                         "--eta", "1", "--h", "0.05", "--format", "json"])
finally:
    tracer.uninstall()
names = {span[0] for span in tracer.spans}
restored = all(vars(cli)[name] is value for name, value in before.items())
bound = (cli.load_potential is potential.load_potential
         and cli.make_anchor is potential.make_anchor
         and (cli.jwkb, cli.oracle, cli.scaling) == (jwkb, oracle, scaling))
print(code, "potential.load" in names, "potential.make_anchor" in names,
      "cli.main" in names, restored, bound)
"""


def test_tracer_wraps_cli_names_that_main_binds_late(tmp_path):
    # cli binds its numeric names after argv parses; a wrapper installed
    # before the first call must survive that call and be undone after it
    path = tmp_path / "cubic.txt"
    path.write_text("domain: line\n0 1 3 0\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(quasimodes.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CLI_TRACE, str(SPANS), str(path)],
        capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout == "0 True True True True True\n", proc.stderr
