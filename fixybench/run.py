#!/usr/bin/env python3
"""Fixy benchmark runner.

Builds the benchmark from the repository sources, generates one workload's
inputs from a seed, times the workload and prints one JSON result as the
last line of standard output:

    python3 fixybench/run.py --workload batch-dense --seed 1 --seconds 10 --trace 0

Workloads: batch-dense, daemon-small, update-cycle (see README.md).
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 adds
a traced, single-threaded pass and reports the per-layer metrics instead.

    python3 fixybench/run.py --selftest

runs every workload once at minimal length and checks the metric names and
units against BENCHMARK.json, the correctness verdicts, and that the same
seed regenerates byte-identical inputs while another seed does not.

All files stay inside the checkout: the build in .bench_build (or
$CARGO_TARGET_DIR), inputs in .bench_work, records and span dumps in
.bench_out.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = "fixybench"
WORK_ROOT = ".bench_work"
OUT_DIR = ".bench_out"
WORKLOADS = ("batch-dense", "daemon-small", "update-cycle")
# Set-up is repeated and its median reported, so one slow repetition
# does not move setup_s.
SETUP_REPS = 3
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds fixybench and fixy_cli; returns their paths."""
    out = build_dir()
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(out, "tmp")))
    log_path = os.path.join(out, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "fixybench", "fixybench_cli"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                with open(log_path) as done:
                    sys.stderr.write(done.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "fixybench"), os.path.join(out, "fixy_cli")


def run_child(args, timeout):
    """Runs one child in its own process group and returns its stdout.

    Whatever the child leaves running (the fixyd it started) is killed and
    waited for before returning."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    if out is None:
        fail("timed out: " + " ".join(args))
    if proc.returncode != 0:
        fail("exit code %d: %s" % (proc.returncode, " ".join(args)))
    return out


def last_json(out):
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def setup(binary, workload, seed, work):
    """Generates the inputs; returns the set-up seconds and input digest."""
    args = [binary, "setup", "--workload", workload, "--seed", str(seed),
            "--dir", work, "--bench-dir", BENCH]
    done = last_json(run_child(args, RUN_TIMEOUT_S))
    return done["seconds"], done["digest"]


def host_stamp(seed, workload):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = "none"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], text=True,
                stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    # The checkout the benchmark runs in need not be a git repository, so
    # the sources are also identified by content.
    digest = hashlib.sha1()
    for top in ("src", "tools", BENCH):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "git_rev": rev, "source_sha1": digest.hexdigest(),
            "seed": seed, "workload": workload}


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer"] if trace else spec["end_to_end"]


def run_workload(binary, cli, workload, seed, seconds, trace):
    """One benchmark run; returns (final line, full record)."""
    work = os.path.join(WORK_ROOT, "%s-s%d-p%d" % (workload, seed, os.getpid()))
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    spans = os.path.join(OUT_DIR, tag + "-spans.json")
    try:
        setups = []
        digests = set()
        for _ in range(SETUP_REPS):
            seconds_taken, digest = setup(binary, workload, seed, work)
            setups.append(seconds_taken)
            digests.add(digest)
        if len(digests) != 1:
            fail("set-up is not deterministic: digests %s" % sorted(digests))
        out = run_child([binary, "run", "--workload", workload,
                         "--seed", str(seed), "--seconds", str(seconds),
                         "--trace", str(int(trace)), "--dir", work,
                         "--bench-dir", BENCH, "--cli", cli,
                         "--trace-out", spans], RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run = last_json(out)
    stamp = host_stamp(seed, workload)
    stamp.update(run["stamp"])
    if "-fsanitize" in stamp.get("cxx_flags", ""):
        fail("refusing a sanitizer build")

    measured = dict(run["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups) + run["warmup_s"],
                           "unit": "s"}
    metrics = {}
    for entry in declared_metrics(trace):
        name = entry["name"]
        if name not in measured:
            fail("metric %s was not measured" % name)
        if measured[name]["unit"] != entry["unit"]:
            fail("metric %s has unit %s, declared %s"
                 % (name, measured[name]["unit"], entry["unit"]))
        metrics[name] = measured[name]
    result = {"correct": bool(run["correct"]) and run["failed"] == 0,
              "attempted": int(run["attempted"]),
              "failed": int(run["failed"]), "metrics": metrics}
    record = {"stamp": stamp, "result": result, "all_metrics": measured,
              "setup_reps_s": setups, "input_digest": digests.pop(),
              "report": run["report"], "failures": run["failures"]}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=2)
    return result, record


def print_report(record, trace):
    stamp = record["stamp"]
    print("host: %s, nproc %d, %s build, %s, simd %s, rev %s, sources %s"
          % (stamp["cpu"], stamp["nproc"], stamp["build_type"],
             stamp["compiler"], stamp["simd_kernel"], stamp["git_rev"][:12],
             stamp["source_sha1"][:12]))
    print("workload %s, seed %d, inputs %s, set-up reps %s s"
          % (stamp["workload"], stamp["seed"], record["input_digest"],
             ", ".join("%.3f" % s for s in record["setup_reps_s"])))
    for name, entry in sorted(record["all_metrics"].items()):
        print("  %-28s %14.4f %s" % (name, entry["value"], entry["unit"]))
    report = record["report"]
    print("  ops %d over %.2f s timed: p90 %.4f ms (median of windows), "
          "p99 %.4f ms" % (report["op_samples"], report["timed_s"],
                           report["op_ms_p90"], report["op_ms_p99"]))
    if trace:
        t = report["trace"]
        print("trace: %d ops, %d spans, traced op p50 %.3f ms vs untraced "
              "%.3f ms; unaccounted p50 %.4f ms, max %.4f ms; layer sums "
              "within %.2g ms of each op; spans in %s"
              % (t["traced_ops"], t["spans"], t["traced_op_ms_p50"],
                 t["untraced_op_ms_p50"], t["unaccounted_ms_p50"],
                 t["unaccounted_ms_max"], t["max_sum_gap_ms"], t["dump"]))
    for failure in record["failures"]:
        print("FAILED: " + failure)


def selftest(binary, cli):
    ok = True

    def check(cond, what):
        nonlocal ok
        ok = ok and cond
        print("%s  %s" % ("PASS" if cond else "FAIL", what))

    for workload in WORKLOADS:
        work = os.path.join(WORK_ROOT, "selftest-%s-p%d" % (workload, os.getpid()))
        try:
            _, a = setup(binary, workload, 1, work)
            _, b = setup(binary, workload, 1, work)
            _, c = setup(binary, workload, 2, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        check(a == b, "%s: seed 1 regenerates identical inputs (%s)" % (workload, a))
        check(a != c, "%s: seed 2 gives other inputs (%s)" % (workload, c))
        for trace in (False, True):
            result, _ = run_workload(binary, cli, workload, 1, 1, trace)
            declared = declared_metrics(trace)
            check(all(e["name"] in result["metrics"] for e in declared),
                  "%s trace=%d: all %d declared metrics emitted with units"
                  % (workload, trace, len(declared)))
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d: %d ops, all verdicts pass"
                  % (workload, trace, result["attempted"]))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if not os.path.exists("BENCHMARK.json"):
        fail("no BENCHMARK.json at " + ROOT)
    binary, cli = build()
    if args.selftest:
        sys.exit(0 if selftest(binary, cli) else 1)
    if args.workload is None:
        fail("--workload is required")
    result, record = run_workload(binary, cli, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    print_report(record, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
