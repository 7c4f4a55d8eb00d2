"""Benchmark command for operad-forge.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
Every round of workload W (oracle, normalize, enumerate, criterion) runs in
a fresh single-threaded Python process (worker.py).  With --trace 0 rounds
are started while one more fits into S seconds, at least one; set-up is also
timed in SETUP_ONLY fresh processes, and the end-to-end metrics are printed.
Every time is given at the host's reference speed (hostspeed.py).
With --trace 1 one untraced and one traced round run, and the per-layer
metrics and the tracing overhead are printed.  The last line of standard
output is one JSON object; the same object and, for a traced run, the spans
go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("oracle", "normalize", "enumerate", "criterion")
SETUP_ONLY = 6     # extra set-up samples; each round adds one more
TIME_LIMIT = 170   # seconds for the whole command


class RoundFailed(RuntimeError):
    pass


def _worker(deadline: float, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("OPERAD_FORGE_ORACLE_CAP", None)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as e:
        raise RoundFailed(f"worker {' '.join(args)} ran past the time limit") from e
    if proc.returncode != 0:
        raise RoundFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q a multiple of 10, interpolated between the
    values (the oracle has only five)."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "operad_forge" / "__init__.py").is_file():
        print(f"run.py: no operad_forge sources under {SRC}", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT
    common = ("--workload", args.workload, "--seed", str(args.seed))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            trace_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            rounds = [_worker(deadline, *common),
                      _worker(deadline, *common, "--trace-file", str(trace_file))]
            # Span times are raw; bring them to reference speed with the
            # traced round's own ratio.
            speed = rounds[1]["work_s"] / rounds[1]["raw_work_s"]
            metrics = {k: {"value": v * speed if u == "s" else v, "unit": u}
                       for k, (v, u) in rounds[1]["layers"].items()}
            metrics["trace.overhead_s"] = {
                "value": rounds[1]["work_s"] - rounds[0]["work_s"], "unit": "s"}
        else:
            setups = [_worker(deadline, *common, "--setup-only")["setup_s"]
                      for _ in range(SETUP_ONLY)]
            rounds = []
            start = monotonic()
            while True:
                t0 = monotonic()
                rounds.append(_worker(deadline, *common))
                if monotonic() - start + (monotonic() - t0) > args.seconds:
                    break
            setups += [r["setup_s"] for r in rounds]
            ops_ms = [t for r in rounds for t in r["op_ms"]]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "work_s": {"value": statistics.median(r["work_s"] for r in rounds),
                           "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                                "unit": "MB"},
                "op_p50_ms": {"value": _quantile(ops_ms, 50), "unit": "ms"},
                "op_p90_ms": {"value": _quantile(ops_ms, 90), "unit": "ms"},
            }
    except RoundFailed as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    errors = [e for r in rounds for e in r["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    result = {"correct": not errors,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        dict(result, rounds=[{k: r[k] for k in ("work_s", "raw_work_s", "units", "unit_ms")}
                             for r in rounds], errors=errors), indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
