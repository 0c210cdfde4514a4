"""Benchmark entry point: one workload, one seed, one JSON line at the end.

    python3 bench/run.py --workload partition-mc --seed 1 --seconds 30 --trace 0

Run from the repository root. --trace 0 measures the end-to-end metrics
with tracing off: SETUP_PROBES fresh interpreters time the set-up alone,
then one more runs the workload's rounds for --seconds and checks them.
--trace 1 gives the per-layer metrics: one untraced and one traced
interpreter run for half of --seconds each; their difference in median
round time is `trace.overhead_s`. Reported times are multiplied by the
main worker's speed scale (see worker.py); the lines before the JSON give
them as measured too. Every line but the last is for people.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("partition-mc", "lambda-coalescent", "discrete-forward")
SETUP_PROBES = 7
# Every worker must end by this many seconds after the run started.
DEADLINE_S = 170
START = time.monotonic()


def worker(workload, seed, seconds, *flags):
    """Run bench/worker.py in a fresh interpreter; return its JSON report."""
    env = dict(os.environ)
    # One thread per process: the box has two cores and BLAS threads only
    # add noise at these matrix sizes.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=START + DEADLINE_S - time.monotonic(), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    setups = [worker(args.workload, args.seed, 0, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    rep = worker(args.workload, args.seed, args.seconds)
    setups.append(rep["setup_s"])
    scale = rep["speed_scale"]
    print(f"# {args.workload}: {len(rep['round_s'])} rounds, speed scale {scale:.3f}, "
          "round_s as measured " + " ".join(f"{t:.3f}" for t in rep["round_s"]))
    for job, times in rep["job_s"].items():
        print(f"#   {job}: median {statistics.median(times):.3f} s as measured")
    print("# setup_s probes as measured: " + " ".join(f"{t:.4f}" for t in setups))
    metrics = {
        "setup_s": metric(statistics.median(setups) * scale, "s"),
        "run_s": metric(statistics.median(rep["round_s"]) * scale, "s"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MB"),
        "rel_var_x_s": metric(statistics.fmean(rep["rel_var_x_s"]) * scale, "s"),
    }
    return [rep], metrics


def per_layer(args):
    from tracing import LAYER_UNITS

    half = args.seconds / 2
    plain = worker(args.workload, args.seed, half)
    traced = worker(args.workload, args.seed, half, "--trace")
    # As measured: the two workers run back to back, and each one's own
    # speed scale would add its calibration noise to a small difference.
    overhead = statistics.median(traced["round_s"]) - statistics.median(plain["round_s"])
    # Times are scaled like the end-to-end ones; counts and ratios are not.
    values = {name: v * traced["speed_scale"] if LAYER_UNITS[name] in ("s", "ns", "us") else v
              for name, v in traced["layers"].items()}
    values["trace.overhead_s"] = overhead
    b = traced["bases"]
    print(f"# {args.workload}: traced rounds {len(traced['round_s'])}, "
          f"untraced rounds {len(plain['round_s'])}")
    print(f"# spans cover {b['coverage']:.1%} of traced round time")
    print(f"# finite_mc.ns_per_element base: {b['kernel_s']:.4f} s over "
          f"{b['kernel_elements']:.0f} elements per round")
    print(f"# per-round work: {b['discrete_steps']:.0f} discrete steps, "
          f"{b['lambda_events']:.0f} lambda events, {b['xi_steps']:.0f} xi steps, "
          f"{b['forward_generations']:.0f} forward generations")
    metrics = {name: metric(values.get(name, 0.0), unit)
               for name, unit in LAYER_UNITS.items()}
    return [plain, traced], metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "paretocoal", "__init__.py")):
        print("error: src/paretocoal not found; run from a full checkout",
              file=sys.stderr)
        return 2

    reports, metrics = (per_layer if args.trace else end_to_end)(args)
    failures = [f for r in reports for f in r["failures"]]
    for f in failures:
        print(f"# check failed: {f}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
