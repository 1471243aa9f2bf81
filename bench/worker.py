"""One workload in one fresh process (started by run.py).

Protocol on standard output: the line ``READY`` once the package is
imported, the inputs are built and one untimed warm-up operation has run;
then, unless ``--setup-only``, one line ``RESULT <json>`` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings

import workloads


def quantile(values, q):
    """Linearly interpolated q-quantile of ``values``."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def tail_quantile(ops_per_round):
    """The highest quantile with ten operations of a round beyond it.

    A round of fewer than 40 operations has no such tail; its p75 is used.
    """
    return 1.0 - 10.0 / ops_per_round if ops_per_round >= 40 else 0.75


def per_round(value, unit, rounds):
    """A traced total divided by the rounds; counts stay whole numbers."""
    if unit == "ratio":
        return value
    if unit == "count" and value % rounds == 0:
        return value // rounds
    return value / rounds


def run_rounds(workload, seconds):
    """Repeat whole rounds of the workload's operations for ``seconds``."""
    samples = {key: [] for key, _ in workload.ops}
    first = {}
    failed = 0
    problems = []
    rounds = 0
    round_s = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for key, op in workload.ops:
            t0 = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # an operation that raises has failed
                result = exc
            samples[key].append(time.perf_counter() - t0)
            bad = isinstance(result, Exception) or workload.failed(key, result)
            failed += bad
            if rounds == 0:
                first[key] = (bad, result)
            elif first[key][0] != bad or (
                not bad
                and workload.fingerprint(key, result)
                != workload.fingerprint(key, first[key][1])
            ):
                problems.append(f"{key}: round {rounds + 1} differs from round 1")
        rounds += 1
        round_s.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds:
            break
    return samples, first, failed, problems, round_s


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--src", required=True, help="the src/ directory under test")
    args = ap.parse_args(argv)

    import quasimodes

    if not os.path.abspath(quasimodes.__file__).startswith(os.path.abspath(args.src)):
        sys.exit(f"quasimodes imported from {quasimodes.__file__}, not {args.src}")
    warnings.filterwarnings("ignore", message="smallest_singular_value hit")

    with tempfile.TemporaryDirectory(dir=args.out_dir) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            if isinstance(workload, workloads.CliCalls):
                workload.in_process = True
            tracer.install()
        try:
            samples, first, failed, problems, round_s = run_rounds(
                workload, args.seconds
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        ok_results = {key: res for key, (bad, res) in first.items() if not bad}
        try:
            problems += workload.check(ok_results)
        except Exception as exc:  # a check that cannot run is a failed check
            traceback.print_exc()
            problems.append(f"check raised {exc!r}")

    rounds = len(round_s)
    # one figure per operation: the mean of its repeats.  The shared host's
    # speed drifts in phases as long as a whole run; the mean weighs every
    # phase a run saw, where the median of a few repeats picks one of them
    per_op = [statistics.fmean(v) * 1e3 for v in samples.values()]
    attempted = rounds * len(workload.ops)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(workload.ops),
        "attempted": attempted,
        "failed": failed,
        "failed_ops": {
            str(k): repr(res)[:300] for k, (bad, res) in first.items() if bad
        },
        "problems": problems,
        "round_s": round_s,
        "op_samples_ms": {str(k): [t * 1e3 for t in v] for k, v in samples.items()},
    }
    if tracer is None:
        peak_kb = child_kb if args.workload == "cli-calls" else self_kb
        out["metrics"] = {
            "ops_per_s": (attempted / sum(round_s), "1/s"),
            "op_p50_ms": (quantile(per_op, 0.5), "ms"),
            "op_tail_ms": (quantile(per_op, tail_quantile(len(workload.ops))), "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    else:
        trace_path = os.path.join(
            args.out_dir, f"trace-{args.workload}-seed{args.seed}.json"
        )
        tracer.dump(trace_path)
        # every round repeats the same work, so per-round figures repeat
        out["metrics"] = {
            name: (per_round(value, unit, rounds), unit)
            for name, (value, unit) in tracer.layer_metrics().items()
        }
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
