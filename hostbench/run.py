#!/usr/bin/env python3
"""Host-cost benchmark of the SHRIMP simulator.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the in-process runner (hostbench_runner) from
the repository's sources into .bench_build/, then repeats the workload
for S seconds: each sample is one zero-iteration process (set-up) and
one full process, in that order. Every process's outputs go through
the oracle. The last line of stdout is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics of one extra traced pass
with --trace 1. See hostbench/README.md for the workloads, the metrics
and the noise rules.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
RUNNER = os.path.join(BUILD, "hostbench_runner")
SHRIMP_RUN = os.path.join(BUILD, "shrimp_tools", "shrimp_run")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("radix-vmmc-16x16", "ocean-nx-16x16", "ocean-nx-16x16-causal",
             "table1-3nic")
# Seed 0 runs every app on its config's default seed: the inputs the
# references were recorded on.
DEFAULT_SEED = 0
MIN_SAMPLES = 3
SIM_FIELDS = ("checksum", "elapsed_ps", "messages", "notifications")
# Barnes-SVM inserts bodies under per-cell locks, so its floating-point
# answer legally follows the lock-grant order, which differs between
# NICs. It is held to reproducibility and the references instead of
# cross-NIC parity (as in bench/bench_fault_resilience.cc).
NO_PARITY = ("Barnes-SVM",)
CAUSAL_FIELDS = ("spans", "cp_total_ps")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_rate": "frac",
}

# Stages of the ocean critical path; anything else lands in "other".
CP_STAGES = ("coll.reduce", "pkt.send_overhead", "pkt.ni_wait", "pkt.wire",
             "pkt.rx_fifo", "pkt.delivery", "other")

# Per-layer metrics and units. Units starting with "sim_" and the
# count-like units are deterministic: a host-only change must leave
# them identical. "s", "ns/event", "x" and "frac" are host-measured.
PER_LAYER = {
    "sim.events": "count",
    "sim.fiber_switches": "count",
    "sim.host_ns_per_event": "ns/event",
    "mesh.packets": "count",
    "mesh.bytes": "bytes",
    "mesh.link_stalls": "count",
    "mesh.link_stall_ps": "sim_ps",
    "mesh.route_rows": "count",
    "mesh.route_arena_bytes": "bytes",
    "nic.packets_in": "count",
    "nic.au_stores": "count",
    "nic.au_packets": "count",
    "nic.du_transfers": "count",
    "nic.interrupts": "count",
    "nic.au_combine_ratio": "sim_ratio",
    "nic.eisa_busy_ps": "sim_ps",
    "node.bus_busy_ps": "sim_ps",
    "node.cpu_busy_ps": "sim_ps",
    "node.cpu_kernel_ps": "sim_ps",
    "host.user_s": "s",
    "host.sys_s": "s",
    "core.vmmc_exports": "count",
    "core.vmmc_au_bindings": "count",
    "core.vmmc_messages": "count",
    "core.vmmc_message_bytes": "bytes",
    "core.vmmc_notifications": "count",
    "core.cluster_build_s": "s",
    "core.setup_frac": "frac",
    "msg.nx_sends": "count",
    "msg.nx_send_bytes": "bytes",
    "svm.faults": "count",
    "svm.diffs": "count",
    "svm.diff_bytes": "bytes",
    "svm.twins": "count",
    "svm.invalidations": "count",
    "svm.ctl_msgs": "count",
    "svm.lock_acquires": "count",
    "sockets.sends": "count",
    "sockets.send_bytes": "bytes",
    "apps.sim_elapsed_ms": "sim_ms",
    "apps.share.compute": "sim_ratio",
    "apps.share.communication": "sim_ratio",
    "apps.share.lock": "sim_ratio",
    "apps.share.barrier": "sim_ratio",
    "apps.share.overhead": "sim_ratio",
    "obs.causal_spans": "count",
    "obs.causal_bytes": "bytes",
    "obs.report_bytes": "bytes",
    "obs.record_s": "s",
    "obs.close_s": "s",
    "obs.lifecycle_s": "s",
    "obs.lifecycle_bytes": "bytes",
    "obs.trace_s": "s",
    "obs.trace_bytes": "bytes",
    "obs.metrics_s": "s",
    "obs.metrics_bytes": "bytes",
    "tools.cp_load_s": "s",
    "tools.cp_analyze_s": "s",
    **{f"cp.{st}_share": "sim_ratio" for st in CP_STAGES},
    "cp.pkt_total_mean_us": "sim_us",
    "parallel.wall_s": "s",
    "parallel.speedup": "x",
    "parallel.windows": "count",
    "parallel.events_per_window": "count",
    "parallel.barrier_wait_s": "s",
    "bench.trace_overhead_frac": "frac",
    "bench.fail_rate": "frac",
    "bench.probes_absent": "count",
}
HOST_UNITS = ("s", "ns/event", "x", "frac")

# Per-node counters summed into a layer metric: metric -> suffixes of
# "node<i>.<suffix>". The baseline (bnic) and modern (mnic) adapters
# count a deliberate-update send as ".sends".
NODE_COUNTERS = {
    "nic.packets_in": ("nic.packets_in", "bnic.packets_in",
                       "mnic.packets_in"),
    "nic.au_stores": ("nic.au_stores",),
    "nic.au_packets": ("nic.au_packets",),
    "nic.du_transfers": ("nic.du_transfers", "bnic.sends", "mnic.sends"),
    "nic.interrupts": ("interrupts",),
    "nic.eisa_busy_ps": ("nic.eisa_busy_ps",),
    "node.bus_busy_ps": ("bus_busy_ps",),
    "node.cpu_busy_ps": ("cpu_busy_ps",),
    "node.cpu_kernel_ps": ("cpu_kernel_ps",),
    "core.vmmc_exports": ("vmmc.exports",),
    "core.vmmc_au_bindings": ("vmmc.au_bindings",),
    "core.vmmc_messages": ("vmmc.messages",),
    "core.vmmc_message_bytes": ("vmmc.message_bytes",),
    "core.vmmc_notifications": ("vmmc.notifications",),
    "msg.nx_sends": ("nx.sends",),
    "msg.nx_send_bytes": ("nx.send_bytes",),
    "svm.faults": ("svm.faults",),
    "svm.diffs": ("svm.diffs",),
    "svm.diff_bytes": ("svm.diff_bytes",),
    "svm.twins": ("svm.twins",),
    "svm.invalidations": ("svm.invalidations",),
    "svm.ctl_msgs": ("svm.ctl_msgs",),
    "svm.lock_acquires": ("svm.lock_acquires",),
    "sockets.sends": ("sock.sends",),
    "sockets.send_bytes": ("sock.send_bytes",),
}
MESH_COUNTERS = ("packets", "bytes", "link_stalls", "route_rows",
                 "route_arena_bytes")
TIME_SHARES = ("Computation", "Communication", "Lock", "Barrier", "Overhead")


# Every child process must end by this time.monotonic() value, so that
# a run that hangs is counted failed and the benchmark still ends in
# time. main() sets it once the build is done; until then a child gets
# CHILD_TIMEOUT seconds.
deadline = None
CHILD_TIMEOUT = 165


def child_timeout():
    if deadline is None:
        return CHILD_TIMEOUT
    return max(1.0, deadline - time.monotonic())


def log(msg):
    print(f"hostbench: {msg}", file=sys.stderr, flush=True)


def child_env(**extra):
    """The caller's environment without the simulator's SHRIMP_* knobs,
    which the library reads and which would change what is measured."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SHRIMP_")}
    env.update(extra)
    return env


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=600)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=840)


class Runner:
    """Runs hostbench_runner processes and keeps the oracle's tally."""

    def __init__(self, workload, references):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.first = {}

    def run(self, phase, seed, trace=False):
        """One runner process. Returns its JSON, or None when it did not
        finish; an output the oracle rejects is returned but counted."""
        self.attempted += 1
        os.makedirs(SCRATCH, exist_ok=True)
        cmd = [RUNNER, "--workload", self.workload, "--seed", str(seed),
               "--phase", phase, "--scratch", SCRATCH]
        if trace:
            cmd.append("--trace")
        problems = []
        out = None
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  env=child_env(), timeout=child_timeout())
        except subprocess.TimeoutExpired as e:
            problems.append(f"no exit within {e.timeout:.0f} s")
        else:
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
            else:
                # The result is the last line; the library's info lines
                # may precede it.
                try:
                    out = json.loads(proc.stdout.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    problems.append("no JSON result line: "
                                    f"{proc.stdout.strip()[-300:]!r}")
                else:
                    problems = self.check(out, proc.stderr)
        shutil.rmtree(SCRATCH, ignore_errors=True)
        if problems:
            self.failed += 1
            for p in problems:
                log(f"FAIL {self.workload} {phase} seed {seed}: {p}")
        return out

    def check(self, out, stderr):
        """The output oracle for one runner process."""
        problems = []
        if "processes deadlocked" in stderr:
            problems.append("deadlocked processes: " + stderr.strip()[-300:])
        runs = out["runs"]
        checksums = {}
        for r in runs:
            if r["app"].startswith("Radix") and r["checksum"] % 2 != 1:
                problems.append(f"{r['app']} on {r['nic']}: output not sorted")
            checksums.setdefault(r["app"].split(" (")[0], set()).add(
                r["checksum"])
        for app, sums in checksums.items():
            if len(sums) > 1 and app not in NO_PARITY:
                problems.append(f"{app}: checksums differ across NICs")
        causal = out.get("causal")
        if causal is not None and not causal["valid"]:
            problems.append(f"causal log: {causal['error']}")

        # Repeats of one phase and seed must agree exactly.
        key = (out["phase"], out["seed"])
        sim = sim_results(out)
        if self.first.setdefault(key, sim) != sim:
            problems.append("simulated results differ from the run's "
                            "first sample")
        if (self.references is not None and out["phase"] == "full"
                and out["seed"] == DEFAULT_SEED):
            ref = self.references.get(self.workload)
            if ref is None:
                problems.append("no reference recorded")
            elif ref != sim:
                problems.append("simulated results differ from "
                                "references.json")
        return problems


def sim_results(out):
    """What must not move under a host-only change."""
    res = {"runs": [{"app": r["app"], "nic": r["nic"],
                     **{f: r[f] for f in SIM_FIELDS}} for r in out["runs"]]}
    if "causal" in out:
        res["causal"] = {f: out["causal"][f] for f in CAUSAL_FIELDS}
    return res


def span_total(out, name):
    return sum(s["end_s"] - s["start_s"] for s in out["spans"]
               if s["name"] == name)


def layer_counters(out):
    """Sum the per-layer counters over every node of every run."""
    m = {k: 0 for k in NODE_COUNTERS}
    m.update({f"mesh.{c}": 0 for c in MESH_COUNTERS})
    m["mesh.link_stall_ps"] = 0
    shares = {c: 0 for c in TIME_SHARES}
    m["apps.sim_elapsed_ms"] = 0
    by_suffix = {}
    for metric, suffixes in NODE_COUNTERS.items():
        for s in suffixes:
            by_suffix[s] = metric
    for r in out["runs"]:
        rep = r["report"]
        stats = rep["stats"]
        for name, value in stats["counters"].items():
            if name.startswith("node"):
                metric = by_suffix.get(name.split(".", 1)[1])
                if metric:
                    m[metric] += value
            elif name.startswith("mesh.") and name[5:] in MESH_COUNTERS:
                m[name] += value
        stall = stats["accumulators"].get("mesh.link_stall_ps")
        if stall:
            m["mesh.link_stall_ps"] += stall["sum"]
        for c in TIME_SHARES:
            shares[c] += rep["time_breakdown_ps"]["combined"][c]
        m["apps.sim_elapsed_ms"] += rep["elapsed_ps"] / 1e9
    total = sum(shares.values())
    for c in TIME_SHARES:
        key = "apps.share." + ("compute" if c == "Computation" else c.lower())
        m[key] = shares[c] / total if total else 0.0
    m["nic.au_combine_ratio"] = (m["nic.au_stores"] / m["nic.au_packets"]
                                 if m["nic.au_packets"] else 0.0)
    m["sim.events"] = sum(r["events"] for r in out["runs"])
    m["sim.fiber_switches"] = sum(r["fiber_switches"] for r in out["runs"])
    return m


def causal_metrics(full, bare):
    c = full["causal"]
    m = {"obs.causal_spans": c["spans"], "obs.causal_bytes": c["log_bytes"],
         "obs.report_bytes": c["report_bytes"],
         "obs.record_s": span_total(full, "apps.run")
         - span_total(bare, "apps.run"),
         "obs.close_s": span_total(full, "obs.close"),
         "tools.cp_load_s": span_total(full, "tools.cp_load"),
         "tools.cp_analyze_s": span_total(full, "tools.cp_analyze"),
         "cp.pkt_total_mean_us": c["pkt_total_mean_ps"] / 1e6}
    shares = {st: 0 for st in CP_STAGES}
    for stage, ps in c["cp_stages"].items():
        shares[stage if stage in shares else "other"] += ps
    for st, ps in shares.items():
        m[f"cp.{st}_share"] = ps / c["cp_total_ps"]
    return m


def shrimp_run(args, report, runner, extra_env=None):
    """One timed shrimp_run probe. Returns (wall seconds, report JSON),
    or None when the command line no longer accepts the probe. A probe
    that hangs is counted as a failed run of `runner`."""
    cmd = [SHRIMP_RUN, *args, "--stats-json", report]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=child_timeout(),
                              env=child_env(**(extra_env or {})))
    except subprocess.TimeoutExpired as e:
        runner.attempted += 1
        runner.failed += 1
        log(f"FAIL probe {' '.join(args)}: no exit within {e.timeout:.0f} s")
        return None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        log(f"probe absent: {' '.join(args)}: "
            f"{proc.stderr.strip().splitlines()[-1:] or proc.returncode}")
        return None
    with open(report) as f:
        return wall, json.load(f)


def file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def obs_cli_probes(m, checksum, runner):
    """--lifecycle, --trace and --metrics on ocean-nx-16x16, each alone,
    against the bare command line. These flags may be deleted or folded
    (ROADMAP), so a probe that no longer runs is reported absent."""
    os.makedirs(SCRATCH, exist_ok=True)
    base = ["--app", "ocean-nx", "--procs", "256", "--mesh", "16x16", "--au",
            "--grid", "514"]
    rep = os.path.join(SCRATCH, "report.json")
    out = os.path.join(SCRATCH, "probe.out")
    try:
        bare = shrimp_run(base, rep, runner)
        if bare is None:
            return 3
        bare_bytes = file_bytes(rep)
        runner.attempted += 1
        if bare[1]["checksum"] != checksum:
            runner.failed += 1
            log("FAIL obs probe: checksum differs from the runner's")
        absent = 0
        for name, flags, output in (("lifecycle", ["--lifecycle"], None),
                                    ("trace", ["--trace", out], out),
                                    ("metrics", ["--metrics", out], out)):
            got = shrimp_run(base + flags, rep, runner)
            if got is None:
                absent += 1
                continue
            m[f"obs.{name}_s"] = got[0] - bare[0]
            m[f"obs.{name}_bytes"] = (file_bytes(output) if output
                                      else file_bytes(rep) - bare_bytes)
            if os.path.exists(out):
                os.remove(out)
        return absent
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def parallel_probe(m, seed, serial_checksum, runner):
    """radix-vmmc-16x16 at --threads 2 against the same command line
    serial. Measured through shrimp_run only: the intra-run engine is
    a ROADMAP deletion candidate, so an absent flag is not a failure."""
    os.makedirs(SCRATCH, exist_ok=True)
    # The runner adds the seed to RadixConfig's default seed, 12345.
    args = ["--app", "radix-vmmc", "--procs", "256", "--mesh", "16x16",
            "--au", "--keys", "262144", "--steps", "3",
            "--seed", str(12345 + seed)]
    rep = os.path.join(SCRATCH, "report.json")
    try:
        serial = shrimp_run(args, rep, runner, {"SHRIMP_REPORT_HOST": "1"})
        threaded = serial and shrimp_run(args + ["--threads", "2"], rep,
                                         runner, {"SHRIMP_REPORT_HOST": "1"})
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if not threaded:
        return 1
    runner.attempted += 1
    if {serial[1]["checksum"], threaded[1]["checksum"]} != {serial_checksum}:
        runner.failed += 1
        log("FAIL parallel probe: checksum differs from the serial run")
    parts = threaded[1]["host"].get("partitions", [])
    windows = sum(p["windows"] for p in parts)
    m["parallel.wall_s"] = threaded[1]["host"]["wall_seconds"]
    m["parallel.speedup"] = (serial[1]["host"]["wall_seconds"]
                             / m["parallel.wall_s"])
    m["parallel.windows"] = max((p["windows"] for p in parts), default=0)
    m["parallel.events_per_window"] = (
        sum(p["events"] for p in parts) / windows if windows else 0)
    m["parallel.barrier_wait_s"] = (
        statistics.mean(p["barrier_wait_ns"] for p in parts) / 1e9
        if parts else 0)
    return 0


def traced_pass(runner, seed, wall_median, setup_median):
    """One traced set-up and full run (plus the workload's probes);
    returns the per-layer metrics."""
    w = runner.workload
    setup = runner.run("setup", seed, trace=True)
    full = runner.run("full", seed, trace=True)
    m = {k: 0 for k in PER_LAYER}
    if setup is None or full is None:
        return m
    m.update(layer_counters(full))
    run_s = span_total(full, "apps.run") - span_total(setup, "apps.run")
    run_events = m["sim.events"] - sum(r["events"] for r in setup["runs"])
    m["sim.host_ns_per_event"] = run_s / run_events * 1e9
    m["host.user_s"] = full["user_s"]
    m["host.sys_s"] = full["sys_s"]
    m["core.cluster_build_s"] = span_total(setup, "core.cluster_build")
    m["core.setup_frac"] = setup_median / wall_median
    m["bench.trace_overhead_frac"] = full["wall_s"] / wall_median - 1
    if w == "ocean-nx-16x16-causal":
        twin = Runner("ocean-nx-16x16", runner.references)
        bare = twin.run("full", seed, trace=True)
        runner.attempted += twin.attempted
        runner.failed += twin.failed
        if bare is not None:
            m.update(causal_metrics(full, bare))
    elif w == "ocean-nx-16x16":
        m["bench.probes_absent"] = obs_cli_probes(
            m, full["runs"][0]["checksum"], runner)
    elif w == "radix-vmmc-16x16":
        m["bench.probes_absent"] = parallel_probe(
            m, seed, full["runs"][0]["checksum"], runner)
    write_trace(w, seed, {"setup": setup["spans"], "full": full["spans"]})
    return m


def write_trace(workload, seed, spans):
    """Keep the traced pass's spans, with self times, for inspection."""
    for phase in spans.values():
        for s in phase:
            s["self_s"] = s["end_s"] - s["start_s"]
        for s in phase:
            if s["parent"] >= 0:
                phase[s["parent"]]["self_s"] -= s["end_s"] - s["start_s"]
    path = os.path.join(ROOT, ".bench_build", "traces",
                        f"{workload}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(spans, f, indent=1)


def record_references():
    refs = {}
    for w in WORKLOADS:
        runner = Runner(w, None)
        out = runner.run("full", DEFAULT_SEED)
        if out is None or runner.failed:
            sys.exit(f"hostbench: {w} failed the oracle; nothing recorded")
        refs[w] = sim_results(out)
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCES}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-references", action="store_true",
                    help="re-record references.json and exit")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    global deadline
    try:
        build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"hostbench: build failed: {' '.join(e.cmd)}")
    deadline = time.monotonic() + CHILD_TIMEOUT
    if args.record_references:
        record_references()
        return
    if not args.workload:
        ap.error("--workload is required")
    with open(REFERENCES) as f:
        runner = Runner(args.workload, json.load(f))

    setups, fulls = [], []
    t_end = time.monotonic() + args.seconds
    # Past the time only to reach MIN_SAMPLES, and never after a failure.
    while time.monotonic() < t_end or (len(fulls) < MIN_SAMPLES
                                       and runner.failed == 0):
        s = runner.run("setup", args.seed)
        f = runner.run("full", args.seed)
        if s is not None and f is not None:
            setups.append(s)
            fulls.append(f)
    if args.seed != DEFAULT_SEED:
        runner.run("full", DEFAULT_SEED)  # the reference check
    if not fulls:
        log("no sample succeeded")
        sys.exit(1)

    wall = statistics.median(f["wall_s"] for f in fulls)
    setup = statistics.median(s["wall_s"] for s in setups)
    log(f"{args.workload} seed {args.seed}: {len(fulls)} samples, "
        f"wall {wall:.4f} s, setup {setup:.4f} s")
    if args.trace:
        values = traced_pass(runner, args.seed, wall, setup)
        values["bench.fail_rate"] = runner.failed / runner.attempted
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(f["user_s"] + f["sys_s"]
                                       for f in fulls),
            "peak_rss_mb": statistics.median(f["peak_rss_kb"]
                                             for f in fulls) / 1024,
            "setup_s": setup,
            "pass_rate": 1 - runner.failed / runner.attempted,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
