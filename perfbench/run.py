#!/usr/bin/env python3
"""End-to-end benchmark of the nanoBench reproduction (see README.md).

    python3 perfbench/run.py --workload table|profile|batch|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds the driver (Release) into
.bench_build/, runs the workload's repetitions for about --seconds,
checks every output, prints each metric with its unit, and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ledger of a separate traced run. Exits 1 when an output
check fails, 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "cmake" / "nbperf_driver"

BATCH_SPECS = 400
MIN_REPS = 3
# Leaves room under the 180 s a run may take once built.
HARD_LIMIT_S = 150

GOLDENS = {
    "table": {"table_skylake.json": "configs/golden_table_skylake.json",
              "table_zen.json": "configs/golden_table_zen.json"},
    "profile": {"profile_skylake.json": "configs/golden_profile_skylake.json"},
    "batch": {},
}

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "spec_ms_p50": "ms", "spec_ms_p90": "ms", "ok_frac": "ratio",
}
PER_LAYER = {
    "campaign.worker_imbalance": "ratio",
    "campaign.worker_idle_s": "s",
    "campaign.slowest_spec_share": "ratio",
    "campaign.dedup_hit_frac": "ratio",
    "campaign.unattributed_s": "s",
    "runner.codegen_s": "s",
    "runner.assemble_s": "s",
    "runner.decode_s": "s",
    "runner.execute_s": "s",
    "runner.aggregate_s": "s",
    "engine.machines_constructed": "count",
    "engine.program_cache_hit_frac": "ratio",
    "engine.assemble_cache_hit_frac": "ratio",
    "sim.machine_construct_ms": "ms",
    "sim.cycles": "count",
    "sim.instructions": "count",
    "sim.uops_dispatched": "count",
    "sim.ns_per_instr": "ns",
    "cache.wbinvd_us": "us",
    "uops.plan_s": "s",
    "uops.decode_s": "s",
    "uops.serialize_s": "s",
    "profile.plan_s": "s",
    "profile.decode_s": "s",
    "profile.serialize_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run (no source tree, build failure,
    driver crash): exit without a result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    cmake = BUILD / "cmake"
    if not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no source tree at {ROOT}")
    steps = []
    if not (cmake / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake), "--target",
                  "nbperf_driver", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_rep(workload, rundir, trace, inputs, deadline):
    """One driver process: its JSON, plus CPU time and peak RSS read
    from outside through wait4."""
    cmd = [str(DRIVER), workload, "--out", str(rundir)]
    if workload == "batch":
        cmd += ["--specs", str(inputs["specs"]),
                "--config", str(inputs["config"])]
    if trace:
        cmd.append("--trace")
    out_path, err_path = rundir / "driver.out", rundir / "driver.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
    # Block in wait4 (a polling parent would preempt the workers); a
    # timer kills a driver that overruns the deadline.
    reaped = threading.Event()

    def kill():
        if not reaped.is_set():
            os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.set()
    finally:
        timer.cancel()
        if not reaped.is_set():
            # Interrupted (SIGTERM/SIGINT): stop the driver before leaving.
            reaped.set()
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -signal.SIGKILL:
        raise BenchError(f"{workload} repetition killed at the deadline")
    if proc.returncode != 0:
        raise BenchError(f"driver exited {proc.returncode}: "
                         + err_path.read_text(errors="replace")[-2000:])
    rep = json.loads(out_path.read_text().splitlines()[-1])
    rep["cpu_s"] = (usage.ru_utime + usage.ru_stime
                    - rep["repeat_setup_cpu_s"])
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    check(workload, rep)
    return rep


def check(workload, rep):
    """Output checks: byte identity with the committed goldens for
    table and profile; for batch, every spec ok and at or above its
    static cycle bound (pooled results are not checksummed)."""
    problems = []
    for name, golden in GOLDENS[workload].items():
        produced = rep["outputs"].get(name)
        if produced is None:
            problems.append(f"{name}: not written")
            continue
        why = benchlib.check_identical(Path(ROOT / produced).read_bytes(),
                                       (ROOT / golden).read_bytes())
        if why:
            problems.append(f"{name} {why} {golden}")
    if workload == "batch":
        if rep["failed_outcomes"]:
            problems.append(f"{rep['failed_outcomes']} specs failed")
        if rep["bound_violations"]:
            problems.append(f"{rep['bound_violations']} specs simulated "
                            "fewer cycles than their static bound")
    rep["check_ok"] = not problems
    for p in problems:
        log(f"CHECK FAILED ({workload}): {p}")



def measure(workload, seconds, rundir, inputs, traced, start):
    """Repetitions until about @seconds have passed (at least MIN_REPS).
    Traced runs alternate untraced and traced repetitions."""
    plain, traced_reps, durations = [], [], []
    hard_deadline = start + HARD_LIMIT_S
    while True:
        for with_trace in ([False, True] if traced else [False]):
            t0 = time.monotonic()
            rep = run_rep(workload, rundir, with_trace, inputs, hard_deadline)
            durations.append(time.monotonic() - t0)
            (traced_reps if with_trace else plain).append(rep)
        elapsed = time.monotonic() - start
        step = statistics.median(durations) * (2 if traced else 1)
        if len(plain) >= MIN_REPS and elapsed + step > seconds:
            break
        if elapsed + step > HARD_LIMIT_S:
            break
    return plain, traced_reps


def end_to_end(plain):
    """Medians over repetitions; spec percentiles over the pooled spec
    timings of every repetition."""
    attempted, failed, ok_frac = benchlib.account(plain)
    metrics = {name: statistics.median([r[name] for r in plain])
               for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    pooled = [ms for r in plain for ms in r["spec_cpu_ms"]]
    if (benchlib.reportable_percentile(len(pooled)) or 0) < 90:
        raise BenchError(f"only {len(pooled)} spec timings; p90 needs 100")
    metrics["spec_ms_p50"] = benchlib.percentile(pooled, 50)
    metrics["spec_ms_p90"] = benchlib.percentile(pooled, 90)
    metrics["ok_frac"] = ok_frac
    return attempted, failed, metrics


def per_layer(plain, traced):
    attempted, failed, _ = benchlib.account(plain + traced)
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            continue
        values = [r["layers"].get(name) for r in traced]
        if None in values:
            raise BenchError(f"driver did not report {name}")
        metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = (
        statistics.median([r["wall_s"] for r in traced])
        / statistics.median([r["wall_s"] for r in plain]))
    return attempted, failed, metrics


def slowest_specs(traced, top=5):
    """Median ms per planned name across traced reps, slowest first."""
    by_name = {}
    for rep in traced:
        for ms, name in rep["slowest"]:
            by_name.setdefault(name, []).append(ms)
    ranked = sorted(((statistics.median(v), n) for n, v in by_name.items()),
                    reverse=True)
    return ranked[:top]


def run_workload(workload, seed, seconds, traced):
    start = time.monotonic()
    rundir = BUILD / "runs" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    inputs = {}
    if workload == "batch":
        inputs["specs"] = rundir / "batch.specs"
        inputs["config"] = rundir / "batch.cfg"
        inputs["specs"].write_text(
            benchlib.generate_batch(seed, BATCH_SPECS))
        inputs["config"].write_text(benchlib.BATCH_CONFIG)
    try:
        plain, traced_reps = measure(workload, seconds, rundir, inputs,
                                     traced, start)
        if traced:
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            shutil.copy(rundir / "trace.json",
                        traces / f"{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    reps = plain + traced_reps
    correct = all(r["check_ok"] for r in reps)
    if traced:
        attempted, failed, metrics = per_layer(plain, traced_reps)
        units = PER_LAYER
    else:
        attempted, failed, metrics = end_to_end(plain)
        units = END_TO_END

    n_specs = len(plain[0]["spec_cpu_ms"])
    print(f"perfbench {workload}: seed={seed} trace={int(traced)} "
          f"reps={len(plain)}+{len(traced_reps)} traced "
          f"jobs={plain[0]['jobs']} nproc={os.cpu_count()} build=Release "
          f"correct={correct}")
    wall_ms = [ms for r in plain for ms in r["spec_wall_ms"]]
    print(f"  spec timings: {n_specs} unique specs per rep, "
          f"{len(wall_ms)} pooled; highest percentile with ten samples "
          f"beyond it: p{benchlib.reportable_percentile(len(wall_ms))}; "
          f"wall-clock (not gated) p50 "
          f"{benchlib.percentile(wall_ms, 50):.3f} ms, p90 "
          f"{benchlib.percentile(wall_ms, 90):.3f} ms")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6f} {units[name]}")
    if traced:
        print("  slowest specs (median ms over traced reps):")
        for ms, name in slowest_specs(traced_reps):
            print(f"    {ms:12.3f} ms  {name}")
        phases = sum(metrics[f"runner.{p}_s"] for p in (
            "codegen", "assemble", "decode", "execute", "aggregate"))
        print("  campaign.unattributed_s "
              f"{metrics['campaign.unattributed_s']:.3f} s vs the five "
              f"runner phases {phases:.3f} s")
        last = traced_reps[-1]
        for note in last["notes"]:
            print(f"  {note}")
        print("  machines built, counted here vs Engine telemetry: "
              f"{last['layers']['engine.machines_constructed']:.0f} vs "
              f"{last['layers']['engine.telemetry_machines_constructed']:.0f}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(BUILD / "ledger.jsonl", "a") as ledger:
        ledger.write(json.dumps({"workload": workload, "seed": seed,
                                 "trace": int(traced), "seconds": seconds,
                                 "reps": len(reps), **result}) + "\n")
    print(json.dumps(result), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(GOLDENS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into an exception so every started process is
    # stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        workloads = (sorted(GOLDENS) if args.workload == "all"
                     else [args.workload])
        ok = all([run_workload(w, args.seed, args.seconds, bool(args.trace))
                  for w in workloads])
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
