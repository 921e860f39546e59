#!/usr/bin/env python3
"""statim end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark package (perfbench/CMakeLists.txt, which builds the
statim library and CLI from this source tree) into .bench_build/perfbench,
then runs one workload. The last line of stdout is the result JSON:
{"correct", "attempted", "failed", "metrics"}. Per-run result files and
traces land in .bench_out/. See perfbench/README.md for the metrics.

Exit status: 0 on a correct run, 1 on a correctness failure, 2 when the
benchmark cannot build or run (for example outside a statim source tree).
"""

import argparse
import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "statim_perfbench"

# Files whose bytes define the measured program (stamped into each result).
SOURCE_GLOBS = ("CMakeLists.txt", "cmake/*", "src/**/*", "tools/**/*",
                "perfbench/*", "perfbench/src/*")

# Spans the traced run must record, per workload kind.
SIZE_LAYERS = ("netlist.load", "ssta.initial", "core.step",
               "api.checkpoint.save", "api.checkpoint.resume", "mc.validate")
DISPATCH_LAYERS = SIZE_LAYERS + ("api.scenario_parse", "dist.dispatch")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"error: no statim source tree at {ROOT}")
        return False
    if shutil.which("cmake") is None:
        log("error: cmake not found")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("error: building the benchmark failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def source_digest():
    h = hashlib.sha256()
    files = set()
    for pattern in SOURCE_GLOBS:
        files.update(p for p in ROOT.glob(pattern)
                     if p.is_file() and "__pycache__" not in p.parts)
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_binary(workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--golden", str(HERE / "golden.txt"), "--out", str(OUT),
           "--source", source_digest(), "--commit", git_commit(), *extra]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def self_time_violations(spans):
    """Spans whose children overrun them; [] when every self time fits."""
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s["parent"], []).append(s)
    bad = []
    eps = 1.0  # microseconds of clock granularity
    for s in spans:
        children = by_parent.get(s["id"], [])
        end = s["ts"] + s["dur"]
        covered = 0.0
        for c in children:
            if c["ts"] < s["ts"] - eps or c["ts"] + c["dur"] > end + eps:
                bad.append(f"{c['name']} outside its parent {s['name']}")
            covered += c["dur"]
        if covered > s["dur"] + eps * max(len(children), 1):
            bad.append(f"{s['name']} (run {s['run']}): children cover "
                       f"{covered:.1f} us of {s['dur']:.1f} us")
    return bad


def self_test():
    """Runs every workload at minimal length, traced and untraced, and
    checks the metric set, units, values and the span tree."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    seed = 1
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            proc = run_binary(name, seed, 0.01, trace, extra=("--smoke",), capture=True)
            sys.stdout.write(proc.stdout)
            where = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result}")
            metrics = result["metrics"]
            if set(metrics) != set(expected[trace]):
                problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(expected[trace]))}")
            for m, unit in expected[trace].items():
                got = metrics.get(m)
                if got is None:
                    continue
                if got["unit"] != unit:
                    problems.append(f"{where}: {m} unit {got['unit']!r}, want {unit!r}")
                v = got["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    problems.append(f"{where}: {m} = {v!r} is not finite")
            if trace == 1:
                trace_file = OUT / f"trace-{name}-seed{seed}.json"
                events = json.loads(trace_file.read_text())["traceEvents"]
                spans = [dict(e["args"], name=e["name"], ts=e["ts"], dur=e["dur"])
                         for e in events]
                layers = DISPATCH_LAYERS if "dispatch" in name else SIZE_LAYERS
                missing = sorted(set(layers) - {s["name"] for s in spans})
                if missing:
                    problems.append(f"{where}: trace lacks layers {missing}")
                problems += [f"{where}: {b}" for b in self_time_violations(spans)]
    for p in problems:
        log("self-test: " + p)
    log("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal iteration budgets")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    extra = ["--smoke"] if args.smoke else []
    rc = run_binary(args.workload, args.seed, args.seconds, args.trace, extra).returncode
    return rc if rc >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
