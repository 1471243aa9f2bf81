"""Smoke test: the benchmark's tracer still finds the names it patches."""

import importlib.util
from pathlib import Path

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
    assert calls >= 2
    assert tracer._pass_nodes[-1] == cert.panels * jwkb.PANEL_NODES
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
