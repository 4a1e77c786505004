#!/usr/bin/env python3
"""Repository benchmark: three workloads over the simulator's own entry
points, with output checks, end-to-end host metrics (--trace 0) and a
traced per-layer ledger (--trace 1). See perfbench/BENCHMARK.md.

    python3 perfbench/run.py --workload fig11_full_base --seed 1 \
        --seconds 35 --trace 0

Run from the root of a source checkout. The first run builds the
library, sdv_sweep and perfbench_inproc into .bench_build/perfbench. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
SDV_SWEEP = os.path.join(BUILD, "sdv", "sdv_sweep")
INPROC = os.path.join(BUILD, "perfbench_inproc")

# Each workload keeps at most 4 threads or processes busy (4 vCPUs).
WORKLOADS = {
    # 216 full runs, L1-resident data, one thread: the timing core.
    "fig11_full_base": {
        "kind": "grid",
        "plan": ["--plan", "fig11", "--scale", "1", "--footprint", "base"],
        "jobs": 1,
        "setup_reps": 200,
    },
    # 864 (config x sample) units over >= 1 MB working sets, 3 threads.
    "fig11_sampled_mem": {
        "kind": "grid",
        "plan": ["--plan", "fig11", "--scale", "4", "--footprint", "mem",
                 "--samples", "3"],
        "jobs": 3,
        "setup_reps": 30,
    },
    # 2-worker daemon, closed loop of 2 connections.
    "serve_fig11_quick": {
        "kind": "serve",
        "plan": ["--plan", "fig11", "--quick", "--samples", "3",
                 "--sample-insts", "2000", "--warmup", "5000"],
        "workers": 2,
        "connections": 2,
        "setups": 5,
        # More than ten requests beyond p90.
        "min_requests": 110,
    },
}

# The traced run's span accounting: the replay's layer spans must cover
# the mean wall of the two untraced serial runPlan calls around it
# within this share. Back-to-back repeats of one grid differ by up to
# ~15% on a shared 4-vCPU host, so the bound is host noise, not tracing
# cost.
SPAN_ACCOUNT_ERROR = 0.30
# Replay time outside every layer span (loop glue), as a share of the
# replay's wall.
SPAN_GLUE_MAX = 0.02


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# --- build ------------------------------------------------------------------

def build():
    needed = ["CMakeLists.txt", "src", os.path.join("tools", "sdv_sweep.cc")]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a source checkout (missing %s)" %
                         ", ".join(missing))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    logpath = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(logpath, "a") as out:
            steps = []
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", BUILD,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", BUILD, "-j", "4"])
            for cmd in steps:
                if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                    raise BenchError("build failed (see %s)" % logpath)


# --- processes --------------------------------------------------------------

def run_timed(argv, cwd, logfile):
    """Run one child to completion; return (wall s, cpu s, max RSS MB,
    exit code) measured from outside."""
    with open(logfile, "ab") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=out)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, \
        p.returncode


def inproc(cmd, args, cwd, out_name):
    out = os.path.join(cwd, out_name)
    code = run_timed([INPROC, cmd] + args + ["--out", out], cwd,
                     os.path.join(cwd, "inproc.log"))[3]
    if code != 0:
        raise BenchError("perfbench_inproc %s exited %d" % (cmd, code))
    with open(out) as f:
        return json.load(f)


class Daemon:
    """One `sdv_sweep --serve` daemon with a fresh cache directory."""

    def __init__(self, cwd, name, workers):
        self.cwd = cwd
        self.socket = name + ".sock"
        self.logpath = os.path.join(cwd, name + ".log")
        self.log = open(self.logpath, "wb")
        # Own process group, so cleanup reaches the workers too.
        self.proc = subprocess.Popen(
            [SDV_SWEEP, "--serve", "--socket", self.socket, "--workers",
             str(workers), "--cache-dir", name + ".cache"],
            cwd=cwd, stdout=self.log, stderr=self.log,
            start_new_session=True)
        self.maxrss_mb = 0.0

    def wait_ready(self, timeout=30.0):
        end = time.perf_counter() + timeout
        while time.perf_counter() < end:
            with open(self.logpath, "rb") as f:
                if b"serving on" in f.read():
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise BenchError("sweep daemon did not start")

    def stop(self):
        if self.proc.returncode is not None:
            return
        try:
            subprocess.call(
                [SDV_SWEEP, "--shutdown", "--connect", self.socket],
                cwd=self.cwd, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=30)
        except subprocess.SubprocessError:
            pass
        end = time.perf_counter() + 30.0
        while time.perf_counter() < end:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                # Includes the workers the daemon reaped at shutdown.
                self.maxrss_mb = ru.ru_maxrss / 1024.0
                break
            time.sleep(0.01)
        self.kill()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if self.proc.returncode is None:
            self.proc.wait()
        self.log.close()


# --- statistics -------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    """Linear-interpolated quantile, as statistics.quantiles computes."""
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


def ratio(a, b):
    return a / b if b else 0.0


def self_times(spans):
    """Per-span self time: duration minus the part its children cover
    (children never overlap: one tracer per thread)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, req in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - child[i] for i, s in enumerate(spans)]


def self_by_name(spans):
    totals = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s[0]] = totals.get(s[0], 0.0) + t
    return totals


# --- output checks ----------------------------------------------------------

def check_full_records(records, reference):
    """Full runs: finished, no validation mismatches, and the committed
    stream of the functional reference (hash and length)."""
    failed = 0
    for r in records:
        ref = reference.get(r["workload"])
        if not (ref and r["finished"] and r["val_mismatches"] == 0 and
                r["commit_hash"] == ref["commit_hash"] and
                r["insts"] == ref["insts"]):
            failed += 1
    return failed


def check_sampled_records(records):
    """Sampled estimates: one commit_hash and one insts value across
    every configuration of a workload."""
    by_wl = {}
    for r in records:
        key = (r["commit_hash"], r["insts"])
        by_wl.setdefault(r["workload"], {}).setdefault(key, 0)
        by_wl[r["workload"]][key] += 1
    failed = 0
    for counts in by_wl.values():
        failed += sum(counts.values()) - max(counts.values())
    return failed


def check_records(records, reference, sampled, expected):
    failed = (check_sampled_records(records) if sampled
              else check_full_records(records, reference))
    return failed + max(0, expected - len(records))


# --- grid workloads ---------------------------------------------------------

def grid_untraced(w, seed, seconds, tmp):
    plan = w["plan"] + ["--seed", str(seed)]
    sampled = "--samples" in plan
    setup = inproc("setup", plan + ["--reps", str(w["setup_reps"])], tmp,
                   "setup.json")
    expect = setup["jobs"]
    walls, mips, cpus, rss = [], [], [], 0.0
    attempted = failed = 0
    out = os.path.join(tmp, "grid.json")
    t0 = time.perf_counter()
    # Start another grid only while it is expected to finish in time.
    while not walls or time.perf_counter() - t0 + median(walls) <= seconds:
        if os.path.exists(out):
            os.remove(out)
        wall, cpu, maxrss, code = run_timed(
            [SDV_SWEEP] + plan + ["--jobs", str(w["jobs"]), "--json", out],
            tmp, os.path.join(tmp, "sdv_sweep.log"))
        records = []
        if code == 0:
            with open(out) as f:
                records = json.load(f)["results"]
        attempted += expect
        failed += check_records(records, setup["reference"], sampled, expect)
        walls.append(wall)
        mips.append(sum(r["insts"] for r in records) / wall / 1e6)
        cpus.append(cpu)
        rss = max(rss, maxrss)
    metrics = {
        "setup_s": median(setup["setup_s"]),
        "wall_s": median(walls),
        "sim_mips": median(mips),
        "cpu_s": median(cpus),
        "peak_rss_mb": rss,
        # A grid run is the request here.
        "req_p50_s": median(walls),
        "req_p90_s": quantile(walls, 0.9),
        "req_per_s": len(walls) / sum(walls),
    }
    notes = {"grids": len(walls), "records_per_grid": expect}
    return attempted, failed, metrics, notes


def layer_metrics_from_setup(setup):
    st = self_by_name(setup["spans"])
    reps = len(setup["setup_s"])
    insts = sum(r["insts"] for r in setup["reference"].values())
    return {
        "workloads.build_s": st.get("buildWorkload", 0.0) / reps,
        "isa.predecode_s": st.get("predecodeAll", 0.0) / reps,
        "workloads.static_insts": setup["static_insts"],
        "workloads.data_bytes": setup["data_bytes"],
        "arch.functional_mips": ratio(insts, st.get("runToHalt", 0.0)) / 1e6,
    }


def layer_metrics_from_replay(rp):
    """Per-layer numbers of one traced replay, plus its span checks."""
    spans = rp["spans"]
    st = self_by_name(spans)
    c = rp["counts"]
    per_job = {}
    for s in spans:
        if s[0] == "unit":
            per_job[s[4]] = per_job.get(s[4], 0.0) + (s[2] - s[1])
    rec_ms = [t * 1e3 for t in per_job.values()]
    cols = rp["columns"]
    v = sum(t for j, t in per_job.items() if cols[j].endswith("V"))
    noim = sum(t for j, t in per_job.items() if cols[j].endswith("noIM"))
    root = next(i for i, s in enumerate(spans) if s[0] == "replay")
    root_wall = spans[root][2] - spans[root][1]
    glue = self_times(spans)[root]
    covered = root_wall - glue
    restore_s = st.get("Checkpoint::restore", 0.0)
    run_s = st.get("Simulator::run", 0.0)
    m = {
        "sim.run_s": run_s,
        "sim.ns_per_inst": ratio(run_s, c["insts"]) * 1e9,
        "sim.ns_per_cycle": ratio(run_s, c["cycles"]) * 1e9,
        "sim.record_p50_ms": quantile(rec_ms, 0.5),
        "sim.record_p95_ms": quantile(rec_ms, 0.95),
        "sim.v_over_noim": ratio(v, noim),
        "core.sim_cycles": c["cycles"],
        "core.committed_insts": c["insts"],
        "core.skipped_cycle_frac": ratio(c["skipped_cycles"], c["cycles"]),
        "core.skip_jumps": c["skip_jumps"],
        "core.fetch_stall_frac": ratio(c["fetch_stall_cycles"], c["cycles"]),
        "core.squashed_insts": c["squashed_insts"],
        "branch.mispredict_per_kinst":
            ratio(c["mispredicts"], c["insts"]) * 1e3,
        "vector.spawns": c["spawns"],
        "vector.validations": c["validations"],
        "vector.elems_computed": c["elems_computed"],
        "vector.elem_useful_ratio": ratio(
            c["elems_used"], c["elems_used"] + c["elems_unused"]),
        "vector.misspecs": c["misspecs"],
        "vector.instances_aborted": c["instances_aborted"],
        "mem.l1d_accesses": c["l1d_accesses"],
        "mem.l1d_miss_ratio": ratio(c["l1d_misses"], c["l1d_accesses"]),
        "mem.l2_miss_ratio": ratio(c["l2_misses"], c["l2_accesses"]),
        "mem.port_requests": c["port_requests"],
        "mem.elem_mshr_stalls": c["elem_mshr_stalls"],
        # Useful words per wide read over the 4 words a line carries.
        "mem.widebus_useful_ratio": ratio(c["wide_useful_words"],
                                          4 * c["wide_reads"]),
        "sweep.capture_s": st.get("captureSamples", 0.0),
        "sweep.capture_bytes": rp["capture_bytes"],
        "sweep.construct_s": st.get("Simulator", 0.0),
        "sweep.validate_s": st.get("validate", 0.0),
        "sweep.restore_s": restore_s,
        "sweep.restores": rp["restores"],
        "sweep.restore_mb_per_s": ratio(rp["restore_bytes"] / 1e6, restore_s),
        "sweep.aggregate_s": st.get("aggregateSamples", 0.0),
        "sweep.collate_s": st.get("resultsJson", 0.0),
        "sweep.pool_util": ratio(rp["pool_cpu_s"],
                                 rp["jobs"] * rp["pool_wall_s"]),
        "sweep.queue_wait_max_s": rp["queue_wait_max_s"],
        "trace_overhead_frac": rp["traced_wall_s"] / rp["untraced_wall_s"] - 1,
        "trace.glue_frac": ratio(glue, root_wall),
        "trace.unaccounted_frac":
            (rp["untraced_wall_s"] - covered) / rp["untraced_wall_s"],
    }
    # Checks: byte-identical replay, layer spans covering the replay,
    # and the untraced serial wall within the stated error.
    failed = int(not rp["identical"])
    failed += int(m["trace.glue_frac"] > SPAN_GLUE_MAX)
    failed += int(abs(m["trace.unaccounted_frac"]) > SPAN_ACCOUNT_ERROR)
    notes = {"records": len(rec_ms), "identical": rp["identical"],
             "self_s": {k: round(t, 6) for k, t in sorted(st.items())}}
    return m, 3, failed, notes


def traced_replay(plan, jobs, tmp):
    """Set-up spans plus the traced replay of the plan; checks the
    replayed records like an untraced grid's."""
    setup = inproc("setup", plan + ["--reps", "3"], tmp, "setup.json")
    res = os.path.join(tmp, "replay_results.json")
    rp = inproc("replay", plan + ["--jobs", str(jobs), "--results", res],
                tmp, "replay.json")
    with open(res) as f:
        records = json.load(f)
    m, att, failed, notes = layer_metrics_from_replay(rp)
    m.update(layer_metrics_from_setup(setup))
    failed += check_records(records, setup["reference"], "--samples" in plan,
                            setup["jobs"])
    return att + setup["jobs"], failed, m, notes


def grid_traced(w, seed, seconds, tmp):
    return traced_replay(w["plan"] + ["--seed", str(seed)], w["jobs"], tmp)


# --- serve workload ---------------------------------------------------------

def serve_setups(w, seed, tmp):
    """Daemon start to ready plus the cold request that fills its
    snapshot cache, several times; the last daemon stays up."""
    plan = w["plan"] + ["--seed", str(seed)]
    times, colds = [], []
    for i in range(w["setups"]):
        t0 = time.perf_counter()
        daemon = Daemon(tmp, "d%d" % i, w["workers"])
        try:
            daemon.wait_ready()
            cold = os.path.join(tmp, "cold%d.json" % i)
            code = run_timed([SDV_SWEEP] + plan +
                             ["--connect", daemon.socket, "--json", cold],
                             tmp, os.path.join(tmp, "client.log"))[3]
        except BaseException:
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
        colds.append(cold if code == 0 else None)
        if i + 1 < w["setups"]:
            daemon.stop()
    return daemon, times, colds


def check_colds(colds, reference_path):
    """Cold requests: the served results equal the serial reference."""
    with open(reference_path) as f:
        ref = json.load(f)
    failed = 0
    for c in colds:
        if c is None:
            failed += 1
            continue
        with open(c) as f:
            failed += int(json.load(f)["results"] != ref)
    return len(colds), failed


def serve_loop(w, seed, daemon, tmp, seconds, min_requests, trace, name):
    args = w["plan"] + [
        "--seed", str(seed), "--socket", daemon.socket,
        "--daemon-pid", str(daemon.proc.pid),
        "--connections", str(w["connections"]), "--seconds", str(seconds),
        "--min-requests", str(min_requests),
        "--results", os.path.join(tmp, "reference.json")]
    if trace:
        args.append("--trace")
    return inproc("serve", args, tmp, name)


def loop_summary(loop):
    reqs = loop["requests"]
    ok = [r for r in reqs if r["status"] == "ok" and r["identical"]]
    lat = sorted(r["done"] - r["submit"] for r in ok)
    n = max(len(ok), 1)
    return reqs, ok, lat, n


def serve_untraced(w, seed, seconds, tmp):
    daemon, setup_times, colds = serve_setups(w, seed, tmp)
    try:
        loop = serve_loop(w, seed, daemon, tmp, seconds, w["min_requests"],
                          False, "loop.json")
    finally:
        daemon.stop()
    reqs, ok, lat, n = loop_summary(loop)
    wall = loop["loop_wall_s"]
    att_c, fail_c = check_colds(colds, os.path.join(tmp, "reference.json"))
    metrics = {
        "setup_s": median(setup_times),
        "wall_s": wall / n,
        "sim_mips": len(ok) * loop["request_insts"] / wall / 1e6,
        "cpu_s": (loop["daemon_cpu_s"] + loop["client_cpu_s"]) / n,
        "peak_rss_mb": max(loop["peak_rss_mb"], daemon.maxrss_mb),
        "req_p50_s": quantile(lat, 0.5),
        "req_p90_s": quantile(lat, 0.9),
        "req_per_s": len(ok) / wall,
    }
    notes = {"requests": len(reqs),
             "beyond_p90": sum(1 for x in lat if x > metrics["req_p90_s"]),
             "setups": len(setup_times)}
    return len(reqs) + att_c, len(reqs) - len(ok) + fail_c, metrics, notes


def serve_layer_metrics(loop):
    reqs, ok, lat, n = loop_summary(loop)
    phase = {"first_record": [], "stream": []}
    for name, start, end, parent, req in loop["spans"]:
        if name in phase:
            phase[name].append(end - start)
    ms = [r["metrics"]["serve"] for r in ok if r["metrics"]]
    hits = sum(m["cache_hits"] for m in ms)
    misses = sum(m["cache_misses"] for m in ms)
    busy = [sum(x["busy_seconds"] for x in m["worker_loads"]) for m in ms]
    done = [r["done"] for r in ok if r["metrics"]]
    workers = len(ms[-1]["worker_loads"]) if ms else 1
    return {
        "serve.first_record_s": median(phase["first_record"]),
        "serve.stream_s": median(phase["stream"]),
        "serve.queue_wait_avg_s": median(
            [m["queue_wait_avg_seconds"] for m in ms]),
        "serve.queue_wait_max_s": max(
            [m["queue_wait_max_seconds"] for m in ms], default=0.0),
        "serve.cache_hit_ratio": ratio(hits, hits + misses),
        "serve.cache_waits": sum(m["cache_waits"] for m in ms),
        "serve.units": sum(m["units_dispatched"] for m in ms),
        "serve.unit_retries": sum(m["unit_retries"] for m in ms),
        "serve.worker_restarts": max(
            [m["worker_restarts"] for m in ms], default=0),
        # Worker busy time between the first and last reply, over the
        # workers' capacity in that interval.
        "serve.worker_util": ratio(busy[-1] - busy[0],
                                   workers * (done[-1] - done[0]))
        if len(ms) > 1 else 0.0,
    }


def serve_traced(w, seed, seconds, tmp):
    # The served request's work, replayed in process, gives the layers
    # below the service.
    attempted, failed, m, notes = traced_replay(
        w["plan"] + ["--seed", str(seed)], 1, tmp)
    daemon, _, colds = serve_setups(w, seed, tmp)
    try:
        plain = serve_loop(w, seed, daemon, tmp, seconds / 2, 10, False,
                           "loop.json")
        traced = serve_loop(w, seed, daemon, tmp, seconds / 2, 10, True,
                            "loop_traced.json")
    finally:
        daemon.stop()
    for loop in (plain, traced):
        reqs, ok, _, _ = loop_summary(loop)
        attempted += len(reqs)
        failed += len(reqs) - len(ok)
    att_c, fail_c = check_colds(colds, os.path.join(tmp, "reference.json"))
    attempted += att_c
    failed += fail_c
    m.update(serve_layer_metrics(traced))
    per_req = [loop["loop_wall_s"] / loop_summary(loop)[3]
               for loop in (plain, traced)]
    # Tracing here is client-side timestamps around the served request.
    m["trace_overhead_frac"] = per_req[1] / per_req[0] - 1
    notes["served_requests"] = len(traced["requests"])
    return attempted, failed, m, notes


# --- main -------------------------------------------------------------------

PER_LAYER_ZERO = [
    "serve.first_record_s", "serve.stream_s", "serve.queue_wait_avg_s",
    "serve.queue_wait_max_s", "serve.cache_hit_ratio", "serve.cache_waits",
    "serve.units", "serve.unit_retries", "serve.worker_restarts",
    "serve.worker_util",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = load_spec()
        build()
        w = WORKLOADS[a.workload]
        tmp = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
        os.makedirs(tmp)
        try:
            if w["kind"] == "grid":
                fn = grid_traced if a.trace else grid_untraced
            else:
                fn = serve_traced if a.trace else serve_untraced
            attempted, failed, values, notes = fn(w, a.seed, a.seconds, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: error:", e)
        return 1

    if a.trace:
        for k in PER_LAYER_ZERO:
            values.setdefault(k, 0.0)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print("workload %s, seed %d, trace %d" % (a.workload, a.seed, a.trace))
    for k, v in metrics.items():
        print("  %-30s %16.6f %s" % (k, v["value"], v["unit"]))
    print("  %-30s %16.6f %s (%d of %d failed)" % (
        "failed_frac", ratio(failed, attempted), "ratio", failed, attempted))
    for k, v in notes.items():
        print("  %s: %s" % (k, v))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
