#!/usr/bin/env python3
"""The repository benchmark: builds gisbench from source and runs one workload.

    python3 gisbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 gisbench/run.py --self-test

Run from the root of a checkout.  The first run builds the gis library and
the gisbench binary into .bench_build/gisbench/build.  Each run prints one
line per metric and, as its last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  The full, self-describing record of the run
(seed, commit, host, every timing's median/tail/count, deterministic
values, per-program rows) is written whole to its own file under
.bench_build/gisbench/results/.  A later run with the same seed, inputs and
sources must reproduce the deterministic values exactly; any drift fails
the run.  The exit code is nonzero on any wrong output or failed check.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(REPO, ".bench_build", "gisbench")
BUILD = os.path.join(OUT, "build")
BINARY = os.path.join(BUILD, "gisbench")
WORKLOADS = ("cold_batch", "paper_kernels", "serve_mixed")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds gisbench; returns False on any failure."""
    if not os.path.exists(os.path.join(REPO, "src", "sched", "Pipeline.h")):
        log("gisbench: the gis sources (src/) are not in this checkout")
        return False
    if not shutil.which("cmake"):
        log("gisbench: cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"] + gen)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                log("gisbench: build failed: " + " ".join(cmd))
                return False
    return True


def source_hash():
    """Hash of the sources the result depends on (the checkout may not be a
    git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in (os.path.join(REPO, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return None
    done = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs one workload in a fresh work directory; returns (rc, lines,
    record or None)."""
    tag = "%s-s%d-t%d-%d-%d" % (workload, seed, trace, os.getpid(),
                                time.time_ns() // 1000)
    work = os.path.join(OUT, "work", tag)
    os.makedirs(work)
    spans = os.path.join(OUT, "spans", tag + ".json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [BINARY, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--spans", spans] + list(extra)
    try:
        done = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=170)
        rc, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        rc, out = -1, ""
        log("gisbench: run timed out")
    shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    record = None
    if lines and lines[-1].startswith("{"):
        try:
            record = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            pass
    return rc, lines, record


def check_history(result):
    """Compares the deterministic part of this run with earlier runs of the
    same seed, inputs and sources; returns a list of drift descriptions."""
    rec = result["record"]
    drift = []
    rdir = os.path.join(OUT, "results")
    if not os.path.isdir(rdir):
        return drift
    for name in sorted(os.listdir(rdir)):
        try:
            with open(os.path.join(rdir, name)) as f:
                old = json.load(f)
        except (OSError, ValueError):
            continue
        orec = old.get("record", {})
        same = (old.get("source_hash") == result["source_hash"] and
                all(orec.get(k) == rec.get(k)
                    for k in ("workload", "seed", "trace", "short",
                              "corrupt")))
        if not same or not orec.get("correct"):
            continue
        if orec.get("input_hash") != rec.get("input_hash"):
            drift.append("input hash differs from %s" % name)
            continue
        if orec.get("output_hash") != rec.get("output_hash"):
            drift.append("output hash differs from %s" % name)
        for key, value in rec.get("deterministic", {}).items():
            if orec.get("deterministic", {}).get(key) != value:
                drift.append("%s: %r, was %r in %s" % (
                    key, value, orec["deterministic"].get(key), name))
        break  # one earlier run is the reference
    return drift


def benchmark_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra=(), quiet=False):
    """One benchmark run: returns (correct, record, contract line)."""
    rc, lines, record = run_binary(workload, seed, seconds, trace, extra)
    if not quiet:
        for line in lines:
            print(line)
    if record is None:
        log("gisbench: the run produced no record (exit code %d)" % rc)
        return False, None, None
    result = {
        "record": record,
        "commit": git_commit(),
        "source_hash": source_hash(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "host": socket.gethostname(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "exit_code": rc,
    }
    problems = [] if rc == 0 else ["exit code %d" % rc]
    drift = check_history(result)
    problems += ["determinism: " + d for d in drift]
    spec = benchmark_spec()
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = record.get(section, {}).get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append("metric %s missing or with another unit"
                            % m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result["problems"] = problems
    correct = bool(record.get("correct")) and not problems
    result["correct"] = correct
    rdir = os.path.join(OUT, "results")
    os.makedirs(rdir, exist_ok=True)
    name = "%s-s%d-t%d-%s-%d.json" % (workload, seed, trace,
                                      time.strftime("%Y%m%dT%H%M%S"),
                                      time.time_ns() % 10**9)
    with open(os.path.join(rdir, name), "w") as f:
        json.dump(result, f, indent=1)
    for p in problems:
        print("  problem: " + p)
    line = {"correct": correct, "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}
    return correct, record, line


def self_test():
    """The benchmark's own tests, on short inputs."""
    spec = benchmark_spec()
    failures = []

    def expect(cond, what):
        print(("PASS " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            ok, rec, line = run_once(w, 7, 1, trace, ["--short"], quiet=True)
            expect(ok, "%s trace=%d short run is correct" % (w, trace))
            if rec is None:
                continue
            section = "per_layer" if trace else "end_to_end"
            for m in spec[section]:
                got = rec[section].get(m["name"])
                printed = (got is not None and got["unit"] == m["unit"] and
                           isinstance(got["value"], (int, float)))
                if printed and not trace:
                    printed = got["value"] > 0
                expect(printed, "%s prints %s in %s" % (w, m["name"],
                                                        m["unit"]))
            if trace:
                ids = rec["identities"]
                expect(ids["self_seconds_sum"] <= ids["traced_wall_s"],
                       "%s: span self times sum to at most the traced wall"
                       % w)
                if "mem_lookups" in ids:
                    expect(ids["mem_hits"] + ids["mem_misses"]
                           == ids["mem_lookups"],
                           "%s: memory hits + misses == lookups" % w)
                    expect(ids["disk_hits"] <= ids["mem_misses"],
                           "%s: disk hits <= memory misses" % w)
                    expect(ids["disk_lookups"] == ids["mem_misses"],
                           "%s: every memory miss looks up the disk" % w)
    for w in ("cold_batch", "serve_mixed"):
        ok, rec, line = run_once(w, 7, 1, 0, ["--short", "--corrupt"],
                                 quiet=True)
        expect(not ok and rec is not None and rec["failed"] > 0,
               "%s: a corrupted schedule fails the output check" % w)
    a = run_once("paper_kernels", 8, 1, 1, ["--short"], quiet=True)[1]
    b = run_once("paper_kernels", 8, 1, 1, ["--short"], quiet=True)[1]
    expect(a is not None and b is not None and
           a["deterministic"] == b["deterministic"],
           "paper_kernels: two traced runs of one seed agree on every count")
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not build():
        return 1
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    correct, _, line = run_once(args.workload, args.seed, args.seconds,
                                args.trace)
    if line is None:
        return 1
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
