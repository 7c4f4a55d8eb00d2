"""One round of one workload, in a process of its own.

    python3 perfbench/worker.py --workload W --seed N [--setup-only]
                                [--trace-file PATH]

run.py starts this with src/ on PYTHONPATH.  It times set-up (importing
operad_forge and building the inputs) and the timed phase at the host's
reference speed (hostspeed.py), reads the peak memory before the checks run,
checks the outputs and prints one JSON line.  With --trace-file the timed
phase runs under spans.Tracer, the line also holds the per-layer metrics and
the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import hostspeed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    clock = hostspeed.SAMPLER
    clock.start()
    t0 = clock.now()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed)
    t1 = clock.now()
    if args.setup_only:
        clock.stop()
        print(json.dumps({"setup_s": clock.scaled(t0, t1)}))
        return 0

    tracer = None
    if args.trace_file:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t2 = clock.now()
    try:
        out = wl.run(inputs)
    finally:
        t3 = clock.now()
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = wl.check(inputs, out)
    result = {"setup_s": clock.scaled(t0, t1), "work_s": clock.scaled(t2, t3),
              "raw_work_s": t3 - t2, "peak_rss_mb": peak_rss_mb,
              "op_ms": [clock.scaled(a, b) * 1000 for a, b in out.op_spans],
              "units": len(clock.took),
              "unit_ms": 1000 * sum(clock.took) / len(clock.took),
              "attempted": out.attempted, "failed": out.failed, "errors": errors}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.summary())
        tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
