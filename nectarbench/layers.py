"""Per-layer measurement for the traced run, from outside ``repro``.

:class:`LayerProbe` wraps the timed part of a workload.  Inside it,
``cProfile`` attributes self time and call counts to the ``repro``
package each function lives in, and a ``gc.callbacks`` hook times host
garbage collection.  Forked worker processes drop the profile and GC
totals inherited from the parent and start their own.  When the workload
calls :meth:`LayerProbe.leave` from a worker (before its last report,
since the supervisor kills workers once they have reported), the worker
leaves its profile, and its counters and GC totals, in ``spool``.
:meth:`LayerProbe.metrics` merges those into the parent's, so a
scale-out sample's layers cover the whole program.  Everything else is
kept in memory until :meth:`LayerProbe.metrics` is called after the run.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import time
from typing import Any, Callable, Optional

#: ``repro`` sub-packages reported as layers.
LAYERS = ("sim", "hardware", "datalink", "transport", "kernel", "workload")


def _cumulative(stats: pstats.Stats, function: Callable) -> float:
    """Seconds ``stats`` spent in calls to ``function``, callees included."""
    code = function.__code__
    entry = stats.stats.get((code.co_filename, code.co_firstlineno,
                             code.co_name))
    return entry[3] if entry else 0.0


class LayerProbe:
    """Profile and GC-time one ``with`` block; read the layers after."""

    def __init__(self, src_root: str, spool: str) -> None:
        self.prefix = os.path.join(os.path.realpath(src_root), "repro",
                                   "")
        self.checksum_file = os.path.join(self.prefix, "hardware",
                                          "checksum.py")
        self.profiler = cProfile.Profile()
        self.spool = spool
        os.makedirs(spool, exist_ok=True)
        self.gc_started = 0.0
        self.gc_totals = [0.0, 0]
        self.active = False
        self.pid = os.getpid()
        #: Worker profiles and counter files :meth:`metrics` merged.
        self.spooled = {"profiles": 0, "counters": 0}
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        # The inherited profile and GC totals are the parent's; restart.
        self.gc_totals = [0.0, 0]
        self.profiler.disable()
        self.profiler = cProfile.Profile()
        if self.active:
            self.profiler.enable()

    def leave(self, read_counters: Callable[[], dict[str, float]]) -> None:
        """In a forked worker: stop profiling, spool profile and counters."""
        if os.getpid() == self.pid or not self.active:
            return
        self.active = False
        self.profiler.disable()
        stem = os.path.join(self.spool, f"worker-{os.getpid()}")
        self.profiler.dump_stats(stem + ".prof")
        counters = dict(read_counters())
        counters["host.gc_s"], counters["host.gc_collections"] = \
            self.gc_totals
        with open(stem + ".json", "w", encoding="utf-8") as out:
            json.dump(counters, out)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self.gc_started = time.perf_counter()
            return
        self.gc_totals[0] += time.perf_counter() - self.gc_started
        self.gc_totals[1] += 1

    def __enter__(self) -> "LayerProbe":
        gc.callbacks.append(self._on_gc)
        self.active = True
        self.profiler.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.profiler.disable()
        self.active = False
        gc.callbacks.remove(self._on_gc)

    # -- profile attribution ------------------------------------------

    def layer_of(self, filename: str) -> str:
        if filename == "~":
            return "builtins"
        if not filename.startswith(self.prefix):
            return "other"
        head = filename[len(self.prefix):].split(os.sep, 1)[0]
        return head[:-3] if head.endswith(".py") else head

    def metrics(self, worker_build: Optional[Callable] = None
                ) -> dict[str, float]:
        """Self seconds and calls per layer, plus checksum and GC time.

        Layers, GC and spooled counters sum this process and its
        workers; ``supervisor_s`` is this process's own self time in
        ``repro.scaleout``.  With ``worker_build``, the function each
        worker builds its system with, ``topology.build_s`` is the
        longest worker's cumulative (profiled) time in it.
        """
        merged = pstats.Stats(self.profiler)
        supervisor_s = sum(
            entry[2] for (filename, _line, _name), entry
            in merged.stats.items()
            if self.layer_of(filename) == "scaleout")
        metrics: dict[str, float] = {
            "host.gc_s": self.gc_totals[0],
            "host.gc_collections": self.gc_totals[1],
        }
        builds = []
        for name in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, name)
            if name.endswith(".prof"):
                self.spooled["profiles"] += 1
                if worker_build is not None:
                    builds.append(_cumulative(pstats.Stats(path),
                                              worker_build))
                merged.add(path)
            else:
                self.spooled["counters"] += 1
                with open(path, encoding="utf-8") as spooled:
                    for key, value in json.load(spooled).items():
                        metrics[key] = metrics.get(key, 0) + value
            os.remove(path)
        os.rmdir(self.spool)
        if builds:
            metrics["topology.build_s"] = max(builds)
        stats = merged.stats
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        checksum_s = 0.0
        for (filename, _line, _name), (_cc, nc, tt, _ct, callers) \
                in stats.items():
            layer = self.layer_of(filename)
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc
            if filename == self.checksum_file:
                # Cumulative time of calls entering the module from
                # outside it, so nested checksum calls count once.
                checksum_s += sum(
                    entry[3] for caller, entry in callers.items()
                    if caller[0] != self.checksum_file)
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics["builtins.self_s"] = self_s.get("builtins", 0.0)
        metrics["hardware.checksum_s"] = checksum_s
        metrics["scaleout.supervisor_s"] = supervisor_s
        return metrics
