"""One workload run in a fresh interpreter; ``run.py`` spawns it.

Prints one JSON object on its last stdout line: host timings, counts,
modelled metrics, per-layer span totals and the output checks.  With
``--trace-out`` the spans are recorded and written there as Chrome
trace-event JSON when the run ends.

    PYTHONPATH=src python3 perfbench/child.py --workload replay-1m --seed 1
"""

import time

ORIGIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--check", action="store_true",
                        help="run the output checks after the clock stops")
    args = parser.parse_args(argv)

    tracer = Tracer(enabled=args.trace_out is not None, origin=ORIGIN)
    run = workloads.Run(tracer, args.seed, args.check)
    drive, evaluate = workloads.WORKLOADS[args.workload]
    outputs = drive(run)
    end = time.perf_counter()
    rss_mb = workloads.peak_rss_mb()
    evaluate(run, outputs)

    host = {
        "wall_s": end - ORIGIN,
        "setup_s": run.setup_end - ORIGIN,
        "peak_rss_mb": rss_mb,
        "req_per_s": run.serve_requests / run.serve_seconds,
    }
    result = {
        "host": host,
        "counts": run.counts,
        "timings": run.timings,
        "modelled": run.modelled,
        "checks": run.checks,
        "notes": run.notes,
    }
    if tracer.enabled:
        totals = tracer.totals()
        result["layers"] = {name: total for name, (total, _) in totals.items()}
        result["self"] = {name: own for name, (_, own) in totals.items()}
        result["stage_sum_s"] = sum(
            span.duration for span in tracer.top_level()
        )
        tracer.write(
            args.trace_out,
            counters={**run.counts, **run.modelled},
            metadata={"workload": args.workload, "seed": args.seed, **host},
        )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    code = main()
    # Skip tearing down a million-object heap: nothing is left to
    # flush, and the parent waits for this process to end.
    os._exit(code)
