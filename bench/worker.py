"""One workload in one fresh interpreter; prints a JSON report on stdout.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--trace] [--setup-only]

The clock starts before paretocoal is imported, so `setup_s` covers the
import and the building of round 0's inputs. Rounds of the workload's jobs
then repeat while another round of the last one's length still fits in S
seconds (at least one round). Peak RSS is read next, before the oracle
code (scipy, mpmath) is imported; the checks and their self-tests run last.
With --trace, the paretocoal calls are wrapped first and the spans are
written to .bench_build/trace-NAME-seedN.json at the end.

Before every job the worker also times a fixed calibration that runs no
paretocoal code, and reports `speed_scale` = CALIBRATION_REF_S / (median
calibration time of the run); `run.py` multiplies every time by it. The
machine this benchmark was built on drifts in speed by up to 30% over
minutes, and all jobs drift together with the calibration.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Median calibration time on the machine the reference figures in the
# README come from; scaled times are seconds at that machine's speed.
CALIBRATION_REF_S = 0.022


def calibration(buf) -> float:
    """Seconds for a fixed mix of interpreter work and a numpy scan."""
    t = time.perf_counter()
    counts = {}
    for i in range(60_000):
        counts[i % 1000] = counts.get(i % 1000, 0.0) + i * 0.5
    c = np.cumsum(buf)
    c /= c[-1]
    np.searchsorted(c, buf[:1000])
    return time.perf_counter() - t


def run_rounds(wl, first_jobs, seconds, buf):
    """Time whole rounds; returns the calibration times and
    [(round seconds, {job: (seconds, output)})]."""
    rounds, cal = [], []
    start = time.perf_counter()
    jobs = first_jobs
    while True:
        outputs = {}
        for job in jobs:
            cal.append(calibration(buf))
            t = time.perf_counter()
            try:
                out = job.run()
            except Exception as exc:  # counted as a failed operation
                traceback.print_exc()
                out = exc
            elapsed = time.perf_counter() - t
            if not isinstance(out, Exception):
                out = job.keep(out)
            outputs[job.name] = (elapsed, out)
        rounds.append((sum(t for t, _ in outputs.values()), outputs))
        if time.perf_counter() - start + rounds[-1][0] > seconds:
            return cal, rounds
        jobs = wl.jobs(len(rounds))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    warnings.simplefilter("ignore")  # degeneracy warnings are expected here
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    first_jobs = wl.jobs(0)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    buf = np.random.default_rng(0).random(1 << 20)
    cal, rounds = run_rounds(wl, first_jobs, args.seconds, buf)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # An operation is one job of one round with its check. A job that
    # raises, or the kept failure while it still fails, counts as failed
    # and is not checked; `failures` lists wrong outputs of the others.
    attempted = failed = 0
    checked, first, headlines = [], {}, []
    for _, outputs in rounds:
        for name, (elapsed, out) in outputs.items():
            attempted += 1
            if isinstance(out, Exception):
                failed += 1
                continue
            if name == wl.kept_failure and wl.kept_failed(out):
                failed += 1
                continue
            checked.append((name, out))
            first.setdefault(name, out)
            if name == wl.headline_job:
                est, se = wl.headline(out)
                headlines.append((se / est) ** 2 * elapsed)

    oracle = wl.oracle()
    failures = [f for name, out in checked for f in wl.check(name, out, oracle)]
    try:
        failures += wl.self_tests(first, oracle)
    except KeyError as exc:  # a job the self-tests read never succeeded
        failures.append(f"self-tests not run: no output of {exc}")

    report = {
        "setup_s": setup_s,
        "speed_scale": CALIBRATION_REF_S / statistics.median(cal),
        "round_s": [t for t, _ in rounds],
        "job_s": {k: [o[k][0] for _, o in rounds] for k in rounds[0][1]},
        "rel_var_x_s": headlines,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if tracer:
        layers, bases = tracing.layer_metrics(tracer.spans, len(rounds))
        layers.update(wl.layer_extras(first))
        bases["coverage"] = bases["top_level_s"] / (sum(report["round_s"]) / len(rounds))
        report["layers"] = layers
        report["bases"] = bases
        out_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
