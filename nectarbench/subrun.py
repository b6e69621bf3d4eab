"""Execute one workload once, in the interpreter this script starts.

``run.py`` launches this script afresh for every sample, so each sample
pays the program's real import and build cost and none inherits another's
heap.  The one output line is a JSON record: correctness (digest, event
count, problems), host and critical-path CPU times, CPU and memory, and
— with ``--trace 1`` — per-layer profile numbers and the sample's spans.  ``--spawned`` is the
``CLOCK_MONOTONIC`` time at which the parent started the process; set-up
time counts from there.

    PYTHONPATH=src python3 -S nectarbench/subrun.py --workload bulk-bytes \
        --seed 1989 --trace 0 \
        --spawned "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback

from speed import SpeedProbe

# os.path, not pathlib: the benchmark's own imports count in set-up, so
# they load nothing the program (bulk-bytes never loads pathlib) does not.
HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    # Armed before the program is imported, so set-up is probed too.
    speed = SpeedProbe()
    from workloads import WORKLOADS, now
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="monotonic time the parent started this "
                             "process")
    args = parser.parse_args(argv)
    spawned = args.spawned
    workload = WORKLOADS[args.workload]
    probe = None
    if args.trace:
        from layers import LayerProbe
        probe = LayerProbe(SRC, os.path.join(HERE, ".cache", "spool",
                                             str(os.getpid())))
    try:
        outcome = workload.run(args.seed, probe)
    except Exception:  # reported as a failed sample, not a crash
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    end = now()
    speed.stop()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    drive_end = outcome.drive_start + outcome.drive_s
    record = {
        "digest": outcome.digest,
        "events": outcome.events,
        "messages": outcome.messages,
        "problems": outcome.problems,
        "restarts": outcome.restarts,
        "drive_s": outcome.drive_s,
        "setup_s": outcome.drive_start - spawned,
        # The same intervals in critical-path CPU seconds (speed.py).
        "drive_cpu_s": speed.critical_s(outcome.drive_start, drive_end),
        "setup_cpu_s": speed.critical_s(spawned, outcome.drive_start),
        "cpu_s": (own.ru_utime + own.ru_stime
                  + children.ru_utime + children.ru_stime),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024,
        # Host seconds to reference seconds (see speed.py), per interval.
        "scale": {
            "setup": speed.scale(spawned, outcome.drive_start),
            "drive": speed.scale(outcome.drive_start, drive_end),
            "sample": speed.scale(),
        },
    }
    if probe is not None:
        layers = {"topology.build_s": outcome.build_s}
        layers.update(probe.metrics(workload.worker_build()))
        layers.update(outcome.counters)
        layers.update(outcome.scaleout)
        layers["sim.events"] = outcome.events
        # A worker that did not spool would silently shrink every layer.
        for kind, found in probe.spooled.items():
            if found != workload.workers:
                record["problems"].append(
                    f"{found} worker {kind} spooled, not {workload.workers}")
        if not layers["sim.calls"]:
            record["problems"].append("no calls into repro.sim profiled")
        record["layers"] = layers
        record["spans"] = [
            ["sample", spawned, end, None],
            ["setup", spawned, outcome.drive_start, "sample"],
            ["topology.build", outcome.build_start,
             outcome.build_start + outcome.build_s, "setup"],
            ["drive", outcome.drive_start, drive_end, "sample"],
        ]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
