"""The three benchmark workloads, each run once per call.

A workload turns a seed into inputs, builds the simulated system, drives
it, and returns an :class:`Outcome`: the message count and host times
the end-to-end metrics need, the fingerprint whose digest is the
correctness gate, the checks that could be made without a recorded
digest, and the public counters the traced run reports per layer.

Systems are built through the public builders, and counters are read
after the run from public attributes (``hub.counters``,
``fiber.packets_sent``, transport and datalink ``counters``,
:class:`~repro.scaleout.ScaleoutResult` fields).  The escl workload
replaces three ``repro`` attributes: ``escl.SEED``, to apply the seed
(each sample is a fresh process), and, for the length of one run,
``Supervisor.run``, to mark where set-up ends, and
``escl.Traffic.fragment``, so that a traced worker spools its profile
and counters before its last report.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

#: The seed the recorded digests in ``expected.json`` belong to.
DEFAULT_SEED = 1989


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    """What one execution of a workload produced."""

    messages: int
    events: int
    #: Host seconds of the timed drive (simulation running).
    drive_s: float
    #: Monotonic time of the first simulated event (end of setup).
    drive_start: float
    fingerprint: dict[str, Any]
    #: Monotonic start and host seconds of the topology build call in
    #: this process (for escl the E-SCL spec registry; the workers'
    #: fabric builds are timed from their profiles, see ``layers.py``).
    build_start: float
    build_s: float
    #: Seed-independent failures found without a recorded digest.
    problems: list[str] = field(default_factory=list)
    #: Public per-layer counters read after the run (scale-out workers
    #: hand theirs to the traced run's probe instead).
    counters: dict[str, float] = field(default_factory=dict)
    #: Scale-out result fields (escl only).
    scaleout: dict[str, float] = field(default_factory=dict)
    restarts: int = 0
    #: SHA-256 of the fingerprint: the correctness gate.
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            payload = json.dumps({"events": self.events,
                                  "fingerprint": self.fingerprint},
                                 sort_keys=True)
            self.digest = hashlib.sha256(payload.encode()).hexdigest()


def _hub_counters(hubs) -> dict[str, dict[str, int]]:
    return {name: dict(sorted(hub.counters.items()))
            for name, hub in sorted(hubs.items())}


def _system_counters(system) -> dict[str, float]:
    """Per-layer counts of a single-process system, read after the run."""
    fibers = []
    for hub in system.hubs.values():
        for index in range(hub.cfg.num_ports):
            fiber = hub.port(index).out_fiber
            if fiber is not None:
                fibers.append(fiber)
    transport: dict[str, int] = {}
    datalink: dict[str, int] = {}
    for stack in system.cabs.values():
        fibers.append(stack.board.out_fiber)
        for key, value in stack.transport.counters.items():
            transport[key] = transport.get(key, 0) + value
        for key, value in stack.datalink.counters.items():
            datalink[key] = datalink.get(key, 0) + value
    return {
        "hardware.hub_commands": sum(
            hub.counters.get("commands_executed", 0)
            for hub in system.hubs.values()),
        "hardware.fiber_packets": sum(f.packets_sent for f in fibers),
        "hardware.fiber_bytes": sum(f.bytes_sent for f in fibers),
        "hardware.fiber_drops": sum(f.packets_dropped for f in fibers),
        "datalink.packets_sent": (
            datalink.get("packets_sent_packet_mode", 0)
            + datalink.get("packets_sent_circuit_mode", 0)),
        "datalink.circuits_opened": datalink.get("circuits_opened", 0),
        "datalink.retries": (datalink.get("circuit_retries", 0)
                             + datalink.get("reply_timeouts", 0)),
        "transport.fragments_sent": transport.get("fragments_sent", 0),
        "transport.messages_delivered": transport.get(
            "messages_delivered", 0),
        "transport.drops": sum(
            transport.get(key, 0) for key in (
                "checksum_drops", "drops_no_mailbox",
                "drops_mailbox_full", "refused_packets",
                "unknown_proto")),
    }


class Workload:
    """A named workload; :meth:`run` executes it once."""

    name = ""
    #: Everything besides the seed that fixes the inputs (hashed into
    #: the result manifest).
    params: dict[str, Any] = {}
    #: Worker processes one run forks; each spools its traced profile.
    workers = 0

    def worker_build(self):
        """The function each worker builds its system with, if any."""
        return None

    def run(self, seed: int, probe=None) -> Outcome:
        """Execute once; ``probe`` (a context manager) wraps the drive."""
        raise NotImplementedError

    def params_hash(self) -> str:
        text = json.dumps({"workload": self.name, "params": self.params},
                          sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class HotspotDatagram(Workload):
    """Open-loop Poisson hotspot of size-only datagrams through one HUB."""

    name = "hotspot-datagram"
    params = {"cabs": 6, "pattern": "hotspot", "arrivals": "poisson",
              "message_bytes": 512, "offered_load": 0.35,
              "warmup_ms": 0.5, "duration_ms": 150, "drain_ms": 1}

    def run(self, seed: int, probe=None) -> Outcome:
        from repro.config import NectarConfig
        from repro.sim import units
        from repro.topology import single_hub_system
        from repro.workload import Workload as LoadTest
        p = self.params
        start = now()
        system = single_hub_system(p["cabs"], cfg=NectarConfig(seed=seed))
        build_s = now() - start
        load = LoadTest(system, pattern=p["pattern"],
                        arrivals=p["arrivals"], mode="open",
                        message_bytes=p["message_bytes"],
                        offered_load=p["offered_load"],
                        warmup_ns=units.ms(p["warmup_ms"]),
                        duration_ns=units.ms(p["duration_ms"]),
                        drain_ns=units.ms(p["drain_ms"]), salt="bench")
        with probe or nullcontext():
            drive_start = now()
            result = load.run()
            drive_s = now() - drive_start
        recorder = result.recorder
        counters = _system_counters(system)
        fingerprint = {
            "sent": recorder.sent,
            "delivered": recorder.delivered,
            "errors": recorder.errors,
            "final_now": system.now,
            "messages_delivered": counters["transport.messages_delivered"],
            "hub_counters": _hub_counters(system.hubs),
        }
        problems = []
        if recorder.errors:
            problems.append(f"{recorder.errors} send errors")
        delivered = counters["transport.messages_delivered"]
        sent = counters["transport.fragments_sent"]
        if not 0 < delivered <= sent:
            problems.append(f"delivered {delivered} of {sent} sent")
        return Outcome(
            messages=delivered, events=system.sim.events_processed,
            drive_s=drive_s,
            drive_start=drive_start, fingerprint=fingerprint,
            build_start=start, build_s=build_s, problems=problems,
            counters=counters)


def _message_hash(src: str, data: bytes) -> str:
    hasher = hashlib.sha256(src.encode() + b"|")
    hasher.update(data)
    return hasher.hexdigest()


class BulkBytes(Workload):
    """Real random bytes, packet and circuit mode, checked end to end."""

    name = "bulk-bytes"
    params = {"cabs": 4, "repeat": 20,
              "shape": [["packet", 8192]] * 8 + [["circuit", 49152]] * 6,
              "mailbox_capacity": 64}

    def inputs(self, seed: int, names: list[str]):
        """Per sender: the ``(dst, mode, body)`` plan, drawn from the seed."""
        plans = {}
        shape = self.params["shape"] * self.params["repeat"]
        for index, src in enumerate(names):
            rng = random.Random((seed << 4) | index)
            plan = []
            for seq, (mode, size) in enumerate(shape):
                dst = names[(index + 1 + seq % (len(names) - 1))
                            % len(names)]
                plan.append((dst, mode, rng.randbytes(size)))
            plans[src] = plan
        return plans

    def run(self, seed: int, probe=None) -> Outcome:
        from repro.config import NectarConfig
        from repro.topology import single_hub_system
        p = self.params
        start = now()
        system = single_hub_system(p["cabs"], cfg=NectarConfig(seed=seed))
        build_s = now() - start
        names = sorted(system.cabs)
        plans = self.inputs(seed, names)
        received: dict[str, list[str]] = {name: [] for name in names}

        def sender(stack, plan):
            for dst, mode, body in plan:
                yield from stack.transport.datagram.send(
                    dst, "sink", data=body, mode=mode)

        def receiver(stack, count):
            mailbox = stack.create_mailbox("sink",
                                           capacity=p["mailbox_capacity"])
            hashes = received[stack.name]
            for _ in range(count):
                message = yield from stack.kernel.wait(mailbox.get())
                hashes.append(_message_hash(message.src, message.data))

        incoming = {name: 0 for name in names}
        for plan in plans.values():
            for dst, _mode, _body in plan:
                incoming[dst] += 1
        for name in names:
            stack = system.cabs[name]
            stack.spawn(receiver(stack, incoming[name]),
                        name=f"{name}-sink")
        for name in names:
            stack = system.cabs[name]
            stack.spawn(sender(stack, plans[name]), name=f"{name}-src")
        with probe or nullcontext():
            drive_start = now()
            system.run()
            drive_s = now() - drive_start
        expected: dict[str, list[str]] = {name: [] for name in names}
        for src, plan in plans.items():
            for dst, _mode, body in plan:
                expected[dst].append(_message_hash(src, body))
        problems = [f"{name}: received bytes differ from the bytes sent"
                    for name in names
                    if sorted(received[name]) != sorted(expected[name])]
        counters = _system_counters(system)
        fingerprint = {
            "final_now": system.now,
            "received": {name: hashlib.sha256(
                "\n".join(received[name]).encode()).hexdigest()
                for name in names},
            "hub_counters": _hub_counters(system.hubs),
        }
        return Outcome(
            messages=sum(len(hashes) for hashes in received.values()),
            events=system.sim.events_processed, drive_s=drive_s,
            drive_start=drive_start, fingerprint=fingerprint,
            build_start=start, build_s=build_s, problems=problems,
            counters=counters)


class EsclTorusP2(Workload):
    """The registered ``escl-torus-1024`` scenario on two worker processes.

    The seed replaces the E-SCL module seed before anything is built; the
    workers are forked from this process, so they see it too.  The
    process simulates nothing before the fork.
    """

    name = "escl-torus-1024-p2"
    params = {"scenario": "escl-torus-1024", "partitions": 2,
              "batch": "default", "transport": "default"}
    workers = params["partitions"]

    def worker_build(self):
        from repro.scaleout import PartitionSystem
        return PartitionSystem.__init__

    def expected_content(self, scenario, seed: int) -> dict[str, str]:
        """Per receiving CAB, the content hash the run must report.

        Computed from the seed alone, the way the E-SCL senders draw
        their bytes, so it checks delivery without a second simulation.
        """
        names = scenario.fabric.cab_names
        digests: dict[str, list[str]] = {}
        for index, src in enumerate(names):
            rng = random.Random((seed << 5) ^ index)
            dst = names[scenario.partner(index)]
            size = scenario.sender_bytes(index)
            for _ in range(scenario.messages_per_cab):
                data = rng.randbytes(size)
                hasher = hashlib.sha256(f"{src}|{size}|".encode())
                hasher.update(data)
                digests.setdefault(dst, []).append(hasher.hexdigest())
        return {cab: hashlib.sha256(
            "\n".join(sorted(found)).encode()).hexdigest()
            for cab, found in digests.items()}

    def run(self, seed: int, probe=None) -> Outcome:
        from repro.scaleout import Supervisor, escl, run_partitioned
        escl.SEED = seed
        start = now()
        scenario = escl.scenarios()[self.params["scenario"]]
        build_s = now() - start
        marks: dict[str, float] = {}
        supervise, fragment = Supervisor.run, escl.Traffic.fragment

        def timed_run(supervisor):
            marks["run"] = now()
            return supervise(supervisor)

        def last_report(traffic):
            # Each worker builds its fragment once, just before its final
            # report; a traced run spools the worker's profile and
            # counters there.
            if probe is not None:
                probe.leave(lambda: _system_counters(traffic.system))
            return fragment(traffic)

        Supervisor.run, escl.Traffic.fragment = timed_run, last_report
        try:
            with probe or nullcontext():
                result = run_partitioned(scenario,
                                         self.params["partitions"])
        finally:
            Supervisor.run, escl.Traffic.fragment = supervise, fragment
        # Setup ends when every worker has reported its initial state;
        # the supervisor times that part of its run as ``setup_s``.
        drive_start = marks["run"] + result.setup_s
        fingerprint = result.fingerprint
        problems = []
        if fingerprint["content"] != self.expected_content(scenario, seed):
            problems.append("delivered content differs from the bytes sent")
        delivered = sum(fingerprint["delivered"].values())
        if delivered != scenario.num_cabs * scenario.messages_per_cab:
            problems.append(f"delivered {delivered} messages")
        timing = result.timing
        scaleout = {
            "scaleout.setup_s": result.setup_s,
            "scaleout.rounds": result.rounds,
            "scaleout.advances": result.advances,
            "scaleout.envelopes": result.envelopes,
            "scaleout.restarts": result.restarts,
        }
        for phase in ("compute_s", "wait_s", "exchange_s"):
            for index, value in enumerate(timing.get(phase, [])):
                scaleout[f"scaleout.p{index}.{phase}"] = value
        return Outcome(
            messages=delivered, events=result.events,
            drive_s=result.wall_s, drive_start=drive_start,
            fingerprint=fingerprint, build_start=start, build_s=build_s,
            problems=problems, scaleout=scaleout, restarts=result.restarts,
            digest=result.digest)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (HotspotDatagram(), BulkBytes(), EsclTorusP2())
}
