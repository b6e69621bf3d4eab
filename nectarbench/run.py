"""Repository benchmark: run one workload for a fixed time, report JSON.

    python3 nectarbench/run.py --workload hotspot-datagram --seed 1989 \
        --seconds 30 --trace 0

Run from the repository root.  Before the clock starts, the standard
library, ``repro`` and this directory are byte-compiled into a cache
this benchmark owns (``nectarbench/.cache``), so set-up time measures
imports and builds, not compilation.  Then, for
``--seconds`` seconds, the workload runs again and again, each sample in
a fresh interpreter (``subrun.py``).  Every sample is checked: its digest
and event count must equal the recorded ones (``expected.json``) for the
default seed, or the run's first sample for any other seed, and the
workload's own checks must hold (bytes delivered as sent, no worker
restarts).  A sample that fails any check counts as a failed operation.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric the median over the samples,
times in reference seconds (see ``speed.py``).
With ``--trace 0`` the metrics are the end-to-end ones in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, from
profiled samples alternating with unprofiled ones (whose ratio is
``trace.overhead_ratio``).  The line before it is the run's manifest.
Spans and per-sample records go to ``nectarbench/.cache/results``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
PYCACHE = CACHE / "pyc"

sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS, now  # noqa: E402

#: Standard-library trees no sample imports; left out of the cache.
STDLIB_SKIP = re.compile(r"/(test|tests|idlelib|tkinter|turtledemo|lib2to3|"
                         r"site-packages|ensurepip|distutils)/")

#: Longest one sample may take before it is killed and counted failed.
SAMPLE_TIMEOUT_S = 120.0
#: No sample starts later than this after the clock starts, so a run
#: ends well inside three minutes whatever ``--seconds`` asks for.
LAST_START_S = 150.0

#: Per-layer values that must repeat exactly between traced samples.
COUNT_SUFFIXES = (".calls", ".events", "_packets", ".packets_sent",
                  ".fragments_sent", ".rounds", ".advances", ".envelopes")


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def compile_sources() -> dict:
    """Byte-compile everything a sample imports into the owned cache.

    Samples run with ``PYTHONPYCACHEPREFIX`` pointing here, and that
    prefix applies to every module, so the standard library is compiled
    into it too, next to ``repro`` and this benchmark.  ``compileall``
    writes even when ``PYTHONDONTWRITEBYTECODE`` is set, which is what
    lets every sample import from bytecode.  Returns the cache state for
    the manifest.
    """
    sys.pycache_prefix = str(PYCACHE)
    ok = True
    for directory, skip in ((sysconfig.get_paths()["stdlib"], STDLIB_SKIP),
                            (str(SRC / "repro"), None), (str(HERE), None)):
        ok &= bool(compileall.compile_dir(directory, quiet=1, workers=1,
                                          rx=skip))
    sources = sorted((SRC / "repro").rglob("*.py"))
    cached = 0
    for source in sources:
        compiled = Path(importlib.util.cache_from_source(str(source)))
        if compiled.exists() and \
                compiled.stat().st_mtime >= source.stat().st_mtime:
            cached += 1
    return {"prefix": str(PYCACHE.relative_to(ROOT)), "compiled_ok": ok,
            "repro_modules": len(sources), "repro_cached": cached}


def source_hash() -> str:
    hasher = hashlib.sha256()
    for source in sorted((SRC / "repro").rglob("*.py")):
        hasher.update(str(source.relative_to(SRC)).encode())
        hasher.update(source.read_bytes())
    return hasher.hexdigest()[:16]


def git_rev() -> str:
    """HEAD's commit from ``.git`` if the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sample_env() -> dict:
    """Environment of every sample: sources, bytecode cache, hash seed."""
    return dict(os.environ, PYTHONPATH=str(SRC),
                PYTHONPYCACHEPREFIX=str(PYCACHE), PYTHONHASHSEED="0")


def run_sample(workload: str, seed: int, trace: bool, env: dict,
               timeout: float) -> dict:
    """One sample in a fresh interpreter; its JSON record or an error."""
    # -S: no site initialisation, so ``.pth`` hooks of the ambient
    # install are not charged to the program's set-up time.
    command = [sys.executable, "-S", str(HERE / "subrun.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--spawned", repr(now())]
    process = subprocess.Popen(command, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, err = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The sample and any workers it forked share its session.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"sample exceeded {timeout:.0f} s"}
    lines = out.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": f"exit {process.returncode}: {err[-2000:]}"}
    if process.returncode and "error" not in record:
        record["error"] = f"exit {process.returncode}: {err[-2000:]}"
    return record


def check(record: dict, reference: dict) -> list[str]:
    """Why ``record`` fails, or nothing; fills ``reference`` if empty."""
    if "error" in record:
        return [record["error"].strip().splitlines()[-1]]
    problems = list(record["problems"])
    if record["restarts"]:
        problems.append(f"{record['restarts']} worker restarts")
    if not reference:
        reference.update(digest=record["digest"], events=record["events"])
    for key in ("digest", "events"):
        if record[key] != reference[key]:
            problems.append(f"{key} {record[key]} != {reference[key]}")
    return problems


def end_to_end(records: list[dict]) -> dict[str, float]:
    """Medians over samples; times in reference seconds (speed.py).

    Drive and set-up are the critical-path CPU seconds of their
    intervals, not host time: on a shared host, host time of the two
    scale-out workers grows with whatever else holds a CPU.
    """
    return {
        "msgs_per_s": statistics.median(
            r["messages"] / (r["drive_cpu_s"] * r["scale"]["drive"])
            for r in records),
        "setup_s": statistics.median(
            r["setup_cpu_s"] * r["scale"]["setup"] for r in records),
        "cpu_s": statistics.median(
            r["cpu_s"] * r["scale"]["sample"] for r in records),
        "peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for r in records),
    }


def per_layer(traced: list[dict], plain: list[dict],
              names: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced samples, and count mismatches."""
    layers = [record["layers"] for record in traced]
    problems = []
    values: dict[str, float] = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = (end_to_end(plain)["msgs_per_s"]
                            / end_to_end(traced)["msgs_per_s"])
            continue
        if name == "sim.events_per_msg":
            values[name] = traced[0]["events"] / traced[0]["messages"]
            continue
        if name == "transport.useful_ratio":
            sent = layers[0].get("transport.fragments_sent", 0)
            values[name] = (layers[0].get("transport.messages_delivered", 0)
                            / sent if sent else 0.0)
            continue
        samples = [layer.get(name, 0) for layer in layers]
        if name.endswith(COUNT_SUFFIXES) and len(set(samples)) > 1:
            problems.append(f"{name} differs between traced samples: "
                            f"{samples}")
        values[name] = statistics.median(samples)
    return values, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload; print JSON metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SRC}; run from a checkout "
                    "of the repository")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r} "
                    f"(have: {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    started = time.monotonic()
    spec = load_spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[group]}
    bytecode = compile_sources()
    if not bytecode["compiled_ok"]:
        return fail("byte-compiling the sources failed")
    expected = json.loads((HERE / "expected.json").read_text())
    reference = {}
    if args.seed == DEFAULT_SEED:
        reference = dict(expected[args.workload])
    env = sample_env()
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    clock = time.monotonic()
    while True:
        elapsed = time.monotonic() - clock
        want_traced = bool(args.trace) and len(traced) < len(plain)
        if elapsed >= args.seconds and attempted and \
                (failed or not want_traced):
            break
        if elapsed >= LAST_START_S:
            break
        record = run_sample(args.workload, args.seed, want_traced, env,
                            SAMPLE_TIMEOUT_S)
        attempted += 1
        found = check(record, reference)
        if found:
            failed += 1
            problems.extend(found)
            continue
        (traced if want_traced else plain).append(record)
    metrics: dict[str, float] = {}
    if args.trace and traced and plain:
        metrics, mismatched = per_layer(traced, plain, list(units))
        failed += bool(mismatched)
        problems.extend(mismatched)
    elif plain and not args.trace:
        metrics = end_to_end(plain)
    workload = WORKLOADS[args.workload]
    manifest = {
        "workload": args.workload, "seed": args.seed,
        "params_sha": workload.params_hash(), "git_rev": git_rev(),
        "source_sha": source_hash(), "host_cpus": os.cpu_count(),
        "python": platform.python_version(), "bytecode": bytecode,
        "trace": args.trace, "samples": len(plain) + len(traced),
        "digest": reference.get("digest"),
        "elapsed_s": time.monotonic() - started,
    }
    results = CACHE / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as out:
        json.dump({"manifest": manifest, "problems": problems,
                   "samples": plain + traced}, out, indent=1)
    for problem in problems[:10]:
        print(f"problem: {problem}")
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
