"""Benchmark for quasimodes certificates.

Run from the root of a checkout:

    python3 bench/run.py                      # the workloads of BENCHMARK.json
    python3 bench/run.py --workload all       # all four workloads
    python3 bench/run.py --workload h-ladder --seed 7 --seconds 50
    python3 bench/run.py --workload oracle-check --trace 1

Each workload runs as a closed loop with one caller, in a fresh process of
its own (bench/worker.py) that imports the package from ./src.  Set-up time
is the median over several fresh starts.  Untraced runs report the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("h-ladder", "high-energy", "oracle-check", "cli-calls")

#: fresh interpreters timed for setup_s (the measured run is one of them)
SETUP_STARTS = 3
#: fresh interpreters timed under -X importtime for the package metrics
IMPORT_STARTS = 3


def child_env(root):
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = nproc
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, root, out_dir, workload, setup_only):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", out_dir, "--src", os.path.join(root, "src"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(root), cwd=root
    )


def run_worker(args, root, out_dir, workload, setup_only):
    """(seconds until READY, RESULT payload or None) of one fresh worker."""
    t0 = time.perf_counter()
    proc = start_worker(args, root, out_dir, workload, setup_only)
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.wait(timeout=120)
    if proc.returncode != 0 or ready is None or (result is None and not setup_only):
        raise RuntimeError(f"{workload} worker exited with status {proc.returncode}")
    return ready, result


def import_times_ms(root):
    """Cumulative import time of quasimodes and of scipy.linalg, in ms."""
    pkg, sci = [], []
    for _ in range(IMPORT_STARTS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import quasimodes"],
            capture_output=True, text=True, env=child_env(root), cwd=root, check=True,
        )
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cum[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:
                    continue  # the header line
        pkg.append(cum["quasimodes"])
        sci.append(cum.get("scipy.linalg", 0.0))
    return statistics.median(pkg), statistics.median(sci)


def src_lines(root):
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def listed_workloads(root):
    """The workloads that BENCHMARK.json lists, in its order."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return tuple(w["name"] for w in json.load(fh)["workloads"])


def run_workload(args, root, out_dir, workload):
    setups = []
    for _ in range(SETUP_STARTS - 1):
        ready, _ = run_worker(args, root, out_dir, workload, setup_only=True)
        setups.append(ready)
    ready, result = run_worker(args, root, out_dir, workload, setup_only=False)
    setups.append(ready)
    metrics = dict(result["metrics"])
    if args.trace:
        import_ms, scipy_ms = import_times_ms(root)
        metrics["package.import_ms"] = (import_ms, "ms")
        metrics["package.import_scipy_ms"] = (scipy_ms, "ms")
        metrics["package.src_lines"] = (src_lines(root), "count")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
    result["setup_samples_s"] = setups
    result["metrics"] = metrics
    path = os.path.join(
        out_dir, f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default=None,
                    help="default: the workloads listed in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="timed length of one run; whole rounds are completed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quasimodes", "__init__.py")):
        print("error: run from the root of a quasimodes checkout "
              "(src/quasimodes not found)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    if args.workload is None:
        names = listed_workloads(root)
    else:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(args, root, out_dir, name)
        results[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"rounds {res['rounds']} of {res['ops_per_round']} ops")
        for metric, (value, unit) in sorted(res["metrics"].items()):
            print(f"  {metric:28s} {value:14.6g} {unit}")
        for problem in res["problems"]:
            print(f"  CHECK FAILED: {problem}", file=sys.stderr)

    def fmt(metrics, prefix=""):
        return {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    if len(names) == 1:
        metrics = fmt(results[names[0]]["metrics"])
    else:
        metrics = {}
        for name, res in results.items():
            metrics.update(fmt(res["metrics"], name + "."))
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
