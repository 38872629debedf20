#!/usr/bin/env python3
"""The repository benchmark (see README.md).

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 benchmark/run.py --seed N       # all five workloads, traced
  python3 benchmark/run.py --quick        # self-test on test-size inputs

Builds build/anow_bench from ../src on first use.  Each repetition ("rep")
of a leg is one child process, reaped with wait4 for its rusage.  Per leg
there is first one rep that is traced under --trace 1 and a warm-up under
--trace 0.  Then rounds of one untraced sim rep and one untraced real rep
run until --seconds have passed; under --trace 1 each round also runs a
traced sim rep.  Every rep's checksum must equal the app's sequential
reference bit for bit.  A crash, timeout, non-zero exit or mismatch counts
as failed, prints a diagnostic and makes the exit status 1.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Under --trace 0 the metrics are the
end-to-end ones, under --trace 1 the per-layer ones; each value is the
median over its reps.  The full report goes to out/<workload>.json: the
median, quartiles, min, max and n of every metric, plus host facts.  The
traced run's spans go to out/<workload>.trace.json (Chrome trace JSON).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

NPROC = len(os.sched_getaffinity(0))
# leg -> (backend, nprocs).  The simulator runs the paper's 8 nodes; it is
# logically single-threaded (its fibers are OS threads handing off one at a
# time), so its reps are pinned to one CPU: unpinned, the OS placement of
# those threads makes the wall time bimodal.  The real backend runs one
# thread per CPU, at most 4, and once per invocation on one thread as the
# sequential baseline.
LEGS = {"sim": ("sim", 8), "real": ("real", min(4, NPROC)),
        "real1": ("real", 1)}
SIM_CPU = max(os.sched_getaffinity(0))
MIN_ROUNDS = 3
REP_TIMEOUT_S = 30
BUCKETS = ("compute", "fault", "barrier", "gc", "idle")
# Counters read from the traced sim rep.  Lock time, page forwards and
# urgent-leave migrations are left out: no workload takes a lock, forwards
# a page or misses a leave's grace period, so they cannot move.
COUNTERS = (
    "dsm.faults.read", "dsm.faults.write", "dsm.page_fetches",
    "dsm.segments", "dsm.consistency_traffic_bytes", "dsm.forks",
    "dsm.barriers", "dsm.owner_lookups.master_inbound",
    "dsm.ctrl.master_inbound", "dsm.diffs_created", "dsm.diff_fetches",
    "dsm.intervals", "dsm.gc_runs", "dsm.gc_validation_faults",
    "dsm.home_flushes", "dsm.home_flush_diffs_applied", "net.messages",
    "net.bytes", "adapt.joins", "adapt.leaves", "adapt.leave_pages_reowned")


def build():
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no src/ beside benchmark/; run it from a full "
                 "checkout of the repository")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [["cmake", "--build", str(BUILD), "--target", "anow_bench",
              "-j", str(NPROC)]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return BUILD / "anow_bench"


def run_child(args, cpu=None):
    """Runs one child to completion.  Returns (wait status or None after a
    timeout, rusage, elapsed seconds, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANOW_")}
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.TemporaryFile(dir=OUT) as err:
        allowed = os.sched_getaffinity(0)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # the child inherits the mask
        start = time.monotonic()
        try:
            pid = os.posix_spawn(args[0], args, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        finally:
            os.sched_setaffinity(0, allowed)
        timed_out = []

        def kill(*_):
            timed_out.append(True)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, REP_TIMEOUT_S)
        try:
            _, status, ru = os.wait4(pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        return (None if timed_out else status, ru, elapsed,
                out.read().decode(), err.read().decode())


class Run:
    """One workload's reps, with their failure accounting."""

    def __init__(self, binary, workload, seed, quick):
        self.binary, self.workload, self.seed, self.quick = (
            str(binary), workload, seed, quick)
        self.attempted = self.failed = 0
        self.stopped = False  # set after a timeout: no further reps
        self.index = {leg: 0 for leg in LEGS}  # next rep number per leg
        self.reference = None
        self.build_info = {}

    def fail(self, leg, rep, problem):
        self.failed += 1
        print(f"FAILED workload={self.workload} leg={leg} rep={rep} "
              f"seed={self.seed}: {problem}", file=sys.stderr)

    def child(self, leg, extra=()):
        backend, nprocs = LEGS[leg]
        args = [self.binary, "--workload", self.workload,
                "--seed", str(self.seed), "--backend", backend,
                "--nprocs", str(nprocs), *extra]
        if self.quick:
            args.append("--quick")
        status, ru, elapsed, out, err = run_child(
            args, cpu=SIM_CPU if backend == "sim" else None)
        if status is None:
            self.stopped = True
            return None, f"timed out after {REP_TIMEOUT_S} s"
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return None, f"exit status {code}: {tail[0]}"
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return None, "unparsable output"
        result["ru"] = {"utime": ru.ru_utime, "stime": ru.ru_stime,
                        "maxrss_kb": ru.ru_maxrss, "minflt": ru.ru_minflt,
                        "nvcsw": ru.ru_nvcsw, "nivcsw": ru.ru_nivcsw,
                        "elapsed": elapsed}
        return result, None

    def compute_reference(self):
        result, problem = self.child("sim", ["--reference"])
        if problem:
            self.attempted += 1
            self.fail("reference", 0, problem)
            return False
        self.reference = result["checksum"]
        self.build_info = {"compiler": result["compiler"],
                           "build_type": result["build_type"]}
        return True

    def rep(self, leg, traced=False):
        """One rep of one leg; None if it failed or was not run."""
        if self.stopped:
            return None
        index = self.index[leg]
        self.index[leg] += 1
        self.attempted += 1
        result, problem = self.child(leg, ["--trace"] if traced else [])
        if not problem:
            problem = check(result, self.reference, traced)
        if problem:
            self.fail(leg, index, problem)
            return None
        return result


def check(result, reference, traced):
    if result["checksum"] != reference:
        return (f"checksum {float.fromhex(result['checksum'])!r} != "
                f"sequential reference {float.fromhex(reference)!r}")
    adapt = result.get("adapt")
    if adapt:
        done = (result["counters"].get("adapt.joins", 0) +
                result["counters"].get("adapt.leaves", 0))
        if done != adapt["planned_events"]:
            return (f"{done} of {adapt['planned_events']} scheduled "
                    f"joins/leaves happened")
    attribution = result.get("attribution")
    if traced and attribution and not attribution["conserved"]:
        return "virtual-time buckets do not sum to process runtime"
    return None


def summary(values):
    values = sorted(values)
    if not values:
        return None
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def percentile(values, p):
    return statistics.quantiles(values, n=100)[p - 1]


def rss_mb(r):
    return r["ru"]["maxrss_kb"] / 1024


END_TO_END = {
    "virtual_s": ("sim", lambda r: r["virtual_s"]),
    "sim_wall_s": ("sim", lambda r: r["wall_s"]),
    "real_wall_s": ("real", lambda r: r["wall_s"]),
    "setup_s": ("sim", lambda r: r["setup_s"]),
    "sim_rss_mb": ("sim", rss_mb),
    "real_rss_mb": ("real", rss_mb),
}


def per_layer(first, reps):
    """Sample lists of every per-layer metric.  Counts and timings come
    from the traced reps in `first`, rusage from the untraced `reps`."""
    sim, real, real1 = first["sim"], first["real"], first["real1"]
    counters = sim["counters"]
    adapt = sim.get("adapt", {})
    hooks = adapt.get("hook_s") or [0.0]
    sim_wall = statistics.median(r["wall_s"] for r in reps["sim"])

    def ru(leg, f):
        return [f(r["ru"]) for r in reps[leg]]

    m = {name: [counters.get(name, 0)] for name in COUNTERS}
    for leg, r in (("sim", sim), ("real", real)):
        m[f"{leg}.iter_ms.p50"] = [statistics.median(r["iter_ms"])]
        m[f"{leg}.iter_ms.p90"] = [percentile(r["iter_ms"], 90)]
        m[f"{leg}.checksum_s"] = [r["checksum_s"]]
        m[f"{leg}.teardown_s"] = [r["teardown_s"]]
        m[f"{leg}.user_s"] = ru(leg, lambda u: u["utime"])
        m[f"{leg}.sys_s"] = ru(leg, lambda u: u["stime"])
    m["sim.events"] = [sim["sim_events"]]
    m["sim.ns_per_event"] = [r["wall_s"] / sim["sim_events"] * 1e9
                             for r in reps["sim"]]
    m["sim.ctx_switches"] = ru("sim", lambda u: u["nvcsw"] + u["nivcsw"])
    m["dsm.segments_per_msg"] = [counters["dsm.segments"] /
                                 counters["net.messages"]]
    for bucket in BUCKETS:
        m[f"vt.{bucket}_s"] = [sim["attribution"][bucket]]
    m["vt.total_s"] = [sim["attribution"]["total"]]
    m["obs.trace_overhead_pct"] = [(r["wall_s"] / sim_wall - 1) * 100
                                   for r in reps["sim_traced"]]
    m["real.setup_s"] = [r["setup_s"] for r in reps["real"]]
    m["real.cpu_util"] = ru("real", lambda u: (u["utime"] + u["stime"]) /
                            u["elapsed"])
    m["real.vcsw"] = ru("real", lambda u: u["nvcsw"])
    m["real.ivcsw"] = ru("real", lambda u: u["nivcsw"])
    m["real.minflt"] = ru("real", lambda u: u["minflt"])
    m["real1.wall_s"] = [real1["wall_s"]]
    m["real.speedup"] = [real1["wall_s"] / r["wall_s"] for r in reps["real"]]
    m["core.hook_s.p50"] = [statistics.median(hooks)]
    m["core.hook_s.max"] = [max(hooks)]
    m["core.hook_mb"] = [adapt.get("hook_bytes", 0) / 1e6]
    m["core.avg_nodes"] = [sim["avg_nodes"]]
    m["core.adapt_cost_s"] = [adapt.get("cost_s", 0.0)]
    return m


def measure(run, seconds, trace, min_rounds):
    """Runs one workload and returns its report."""
    # (key, leg, traced) of each rep in a round.  Traced runs add a traced
    # sim rep per round, so the tracing overhead has a spread of its own.
    plan = [("sim", "sim", False), ("real", "real", False)]
    if trace:
        plan.append(("sim_traced", "sim", True))
    first, reps = {}, {key: [] for key, _, _ in plan}
    rounds = 0
    if run.compute_reference():
        first = {leg: run.rep(leg, traced=trace) for leg in LEGS}
        deadline = time.monotonic() + seconds
        while not run.stopped and (rounds < min_rounds or
                                   time.monotonic() < deadline):
            for key, leg, traced in plan:
                result = run.rep(leg, traced)
                if result:
                    reps[key].append(result)
            rounds += 1
    sims = reps["sim"] + reps.get("sim_traced", []) + [first.get("sim")]
    virtual = {r["virtual_s"] for r in sims if r}
    if len(virtual) > 1:
        run.fail("sim", "all", f"virtual time differs between reps: "
                 f"{sorted(virtual)}")

    report = {"workload": run.workload, "seed": run.seed, "seconds": seconds,
              "trace": int(trace), "quick": run.quick, "rounds": rounds,
              "end_to_end": {}, "per_layer": {}}
    for spec in SPEC["end_to_end"]:
        leg, f = END_TO_END[spec["name"]]
        s = summary([f(r) for r in reps[leg]])
        if s:
            s["unresolved"] = (s["q3"] - s["q1"]) / s["median"] > spec["bound"]
            report["end_to_end"][spec["name"]] = {
                "unit": spec["unit"], "bound": spec["bound"], **s}
    if trace and all(first.values()) and all(reps.values()):
        layers = per_layer(first, reps)
        for spec in SPEC["per_layer"]:
            report["per_layer"][spec["name"]] = {
                "unit": spec["unit"], **summary(layers[spec["name"]])}
    report.update(attempted=run.attempted, failed=run.failed,
                  correct=run.failed == 0, build=run.build_info)
    return report, first


def write_trace(path, first):
    """One Chrome trace per workload: one process track per leg, holding
    the traced rep's spans and its per-iteration counter samples."""
    base = min(r["trace"]["t0_us"] for r in first.values())
    events = []
    for pid, (leg, r) in enumerate(first.items(), start=1):
        backend, nprocs = LEGS[leg]
        offset = r["trace"]["t0_us"] - base
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 1, "args": {"name": f"{leg} ({backend}@"
                                                  f"{nprocs})"}})
        for span in r["trace"]["spans"]:
            args = {k: v for k, v in span.items()
                    if k not in ("name", "ts", "dur")}
            events.append({"ph": "X", "name": span["name"], "pid": pid,
                           "tid": 1, "ts": span["ts"] + offset,
                           "dur": span["dur"], "args": args})
        for sample in r["trace"]["samples"]:
            events.append({"ph": "C", "name": "work per iteration",
                           "pid": pid, "tid": 1, "ts": sample["ts"] + offset,
                           "args": {k: v for k, v in sample.items()
                                    if k != "ts"}})
    path.write_text(json.dumps({"traceEvents": events}))


def host_facts(seed, build_info):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    sha = None
    try:
        top = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == REPO:
            sha = lines[1]
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "git_sha": sha, "seed": seed,
            "real_threads": LEGS["real"][1], "sim_cpu": SIM_CPU, **build_info}


def print_report(report):
    print(f"\n{report['workload']}: seed {report['seed']}, "
          f"{report['rounds']} rounds, {report['attempted']} reps, "
          f"{report['failed']} failed")
    for section in ("end_to_end", "per_layer"):
        for name, m in report[section].items():
            flag = "  UNRESOLVED" if m.get("unresolved") else ""
            print(f"  {name:34s} {m['unit']:6s} median {m['median']:<12.6g} "
                  f"q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g} n {m['n']}{flag}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all five, traced)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=1)
    ap.add_argument("--quick", action="store_true",
                    help="test-size inputs, one round, every workload; "
                         "checks the traces with tools/check_trace.py")
    ap.add_argument("--bin", help="a built anow_bench (skips the build)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = Path(args.bin) if args.bin else build()
    out = OUT / "quick" if args.quick else OUT
    out.mkdir(parents=True, exist_ok=True)
    single = args.workload and not args.quick
    workloads = [args.workload] if single else WORKLOADS
    trace = bool(args.trace) or not single
    seconds = 0 if args.quick else args.seconds

    reports, attempted, failed = {}, 0, 0
    for workload in workloads:
        run = Run(binary, workload, args.seed, args.quick)
        report, first = measure(run, seconds, trace,
                                1 if args.quick else MIN_ROUNDS)
        report["host"] = host_facts(args.seed, run.build_info)
        if trace and all(first.values()):
            trace_file = out / f"{workload}.trace.json"
            write_trace(trace_file, first)
            report["trace_file"] = str(trace_file.relative_to(REPO))
            if args.quick:
                checked = subprocess.run(
                    [sys.executable, str(REPO / "tools" / "check_trace.py"),
                     str(trace_file)], stdout=sys.stderr)
                if checked.returncode != 0:
                    run.fail("trace", 0, f"{trace_file.name} fails "
                             "tools/check_trace.py")
                    report.update(failed=run.failed, correct=False)
        (out / f"{workload}.json").write_text(json.dumps(report, indent=1))
        print_report(report)
        reports[workload] = report
        attempted += report["attempted"]
        failed += report["failed"]

    if single:
        section = "per_layer" if trace else "end_to_end"
        metrics = {name: {"value": m["median"], "unit": m["unit"]}
                   for name, m in reports[args.workload][section].items()}
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
    else:
        path = out / "report.json"
        path.write_text(json.dumps({"seed": args.seed,
                                    "workloads": reports}, indent=1))
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed,
                          "report": str(path.relative_to(REPO))}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
