#!/usr/bin/env python3
"""Bench-regression gate for CI.

Merges one or more google-benchmark JSON outputs (bench_simperf,
bench_campaign, bench_table) into a single BENCH_ci.json artifact and compares
machine-independent RATIOS between benchmarks against a committed
baseline (bench/BENCH_baseline.json). Ratios, not absolute times, so
the check is robust to runner speed; a ratio more than `tolerance`
times worse than its baseline fails the job.

Checked ratios:
  pooled_setup_vs_assemble  BM_SessionSetupPooled / BM_Assemble
                          (the Engine-pool amortization: a pooled
                          session must stay a small fraction of
                          assembling one two-instruction snippet;
                          regresses if pooled sessions start paying
                          construction or setup work. Paired with the
                          exact machines_constructed == 0 counter
                          check below)
  campaign_jobs4_vs_serial  BM_CampaignJobs/4 / BM_CampaignSerialBatch
                          (parallel campaign throughput vs the
                          single-session batch; regresses if the
                          worker pool stops scaling)
  dedup_vs_nodedup        BM_CampaignDedup/dedup:1 / dedup:0
                          (the spec-level result cache)
  table_jobs4_vs_serial   BM_TableCampaign/4 / BM_TableSerial
                          (full-catalog characterization through the
                          campaign executor vs the serial
                          characterizer; regresses if the table
                          workload stops scaling)
  table_dedup_vs_nodedup  BM_TableCampaign/1 / BM_TableNoDedup
                          (the shared throughput/port specs executing
                          once instead of twice)
  profile_jobs4_vs_serial BM_ProfileCampaign/4 / BM_ProfileSerial
                          (machine-profile construction through the
                          campaign executor -- fresh machine per spec,
                          so layout-invariant -- vs the serial
                          plan-order run on one machine; regresses if
                          the profile workload stops scaling or the
                          per-spec machine construction gets dearer)
  predecode_vs_legacy     BM_HotpathPredecoded / BM_HotpathLegacy
                          (the predecoded-program hot path vs
                          re-materializing + re-decoding the unrolled
                          measurement code per execution; ratcheted
                          for the threaded executor -- the baseline
                          now encodes >= 2.5x simulated-instruction
                          throughput end to end)
  dispatch_vs_predecode   BM_HotpathPredecoded / BM_HotpathSwitchDispatch
                          (the threaded computed-goto SoA executor
                          with batched PMU accounting vs the frozen
                          switch-based reference on the SAME
                          predecoded program; the baseline encodes
                          the >= 1.5x win threaded dispatch must
                          keep delivering)
  lint_overhead           BM_CampaignLint/lint:1 / BM_CampaignLint/lint:0
                          (an identical campaign with every spec opted
                          into LintLevel::Error vs linting off; the
                          report memo keys on the canonical spec key,
                          so steady-state lint cost must stay near
                          zero)
  bound_overhead          BM_CampaignBound/bound:1 / BM_CampaignBound/bound:0
                          (an identical campaign with every spec also
                          run through the memoized static bound
                          analyzer vs the plain campaign; the bound
                          memo keys on the canonical spec key, so
                          steady-state bound analysis must stay near
                          zero)
  trace_overhead          BM_CampaignTrace/trace:1 / BM_CampaignTrace/trace:0
                          (an identical campaign with a DISABLED
                          obs::Tracer attached vs no tracer at all;
                          the disabled path is one pointer check per
                          span site, so the ratio carries its own
                          tight 1.05x tolerance in the baseline
                          "tolerances" map. trace:2 -- tracing fully
                          enabled -- rides along in the artifact but
                          is not gated)
  observe_overhead        BM_CampaignObserve/observe:1 / BM_CampaignObserve/observe:0
                          (an identical campaign with per-worker
                          ExecObservers attached vs detached; the
                          observer's relaxed counter bumps are
                          negligible next to assemble/decode, so this
                          is gated at 1.05x like trace_overhead)
  wbinvd_vs_l1_hit        BM_HierarchyWbinvd / BM_HierarchyL1Hit
                          (one WBINVD on Zen's full 8 MB L3 vs one
                          L1-hit load; flush generations make WBINVD
                          O(1), about one L1 hit, where walking every
                          line cost ~10^4 of them -- regresses if an
                          O(lines) flush comes back)
  budget_overhead         BM_HotpathBudget/1 / BM_HotpathBudget/0
                          (the threaded-dispatch hot path with a
                          never-tripping cycle budget armed vs
                          disarmed; the amortized deadline check is
                          one masked compare per instruction, so this
                          is pinned at 1.05x in the tolerances map --
                          budgets must never tax dispatch)

Per-ratio tolerances: the baseline file may carry a "tolerances" map
overriding --tolerance for individual ratios (used to pin the two
disabled-path observability overheads at 1.05x instead of 2x).

Checked exact counters (user counters a benchmark reports, which must
equal the given value exactly; they are counts, not times):
  BM_SessionSetupPooled machines_constructed == 0
                          (a warm pool serves every session without
                          building a machine)

Usage:
  check_bench.py --baseline bench/BENCH_baseline.json \
      --out BENCH_ci.json simperf.json campaign.json table.json \
      profile.json hotpath.json analysis.json bound.json obs.json
"""

import argparse
import json
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# ratio name -> (numerator benchmark, denominator benchmark)
RATIOS = {
    "pooled_setup_vs_assemble": ("BM_SessionSetupPooled", "BM_Assemble"),
    "campaign_jobs4_vs_serial": ("BM_CampaignJobs/4", "BM_CampaignSerialBatch"),
    "dedup_vs_nodedup": ("BM_CampaignDedup/dedup:1", "BM_CampaignDedup/dedup:0"),
    "table_jobs4_vs_serial": ("BM_TableCampaign/4", "BM_TableSerial"),
    "table_dedup_vs_nodedup": ("BM_TableCampaign/1", "BM_TableNoDedup"),
    "profile_jobs4_vs_serial": ("BM_ProfileCampaign/4", "BM_ProfileSerial"),
    "predecode_vs_legacy": ("BM_HotpathPredecoded", "BM_HotpathLegacy"),
    "dispatch_vs_predecode": ("BM_HotpathPredecoded", "BM_HotpathSwitchDispatch"),
    "lint_overhead": ("BM_CampaignLint/lint:1", "BM_CampaignLint/lint:0"),
    "bound_overhead": ("BM_CampaignBound/bound:1", "BM_CampaignBound/bound:0"),
    "trace_overhead": ("BM_CampaignTrace/trace:1", "BM_CampaignTrace/trace:0"),
    "observe_overhead": ("BM_CampaignObserve/observe:1", "BM_CampaignObserve/observe:0"),
    "budget_overhead": ("BM_HotpathBudget/1", "BM_HotpathBudget/0"),
    "wbinvd_vs_l1_hit": ("BM_HierarchyWbinvd", "BM_HierarchyL1Hit"),
}

# benchmark name -> {user counter: exact required value}
EXACT_COUNTERS = {
    "BM_SessionSetupPooled": {"machines_constructed": 0},
}


def load_benchmarks(paths):
    merged = {"benchmarks": []}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if "context" in doc and "context" not in merged:
            merged["context"] = doc["context"]
        merged["benchmarks"].extend(doc.get("benchmarks", []))
    return merged


def find_entry(benchmarks, name):
    for entry in benchmarks:
        if entry.get("name") == name and entry.get("run_type", "iteration") == "iteration":
            return entry
    sys.exit(f"error: benchmark '{name}' not found in the merged results")


def real_time_ns(benchmarks, name):
    entry = find_entry(benchmarks, name)
    unit = TIME_UNIT_NS.get(entry.get("time_unit", "ns"))
    if unit is None:
        sys.exit(f"error: unknown time unit in entry '{name}'")
    return entry["real_time"] * unit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("inputs", nargs="+", help="google-benchmark JSON files")
    parser.add_argument("--baseline", required=True, help="committed baseline ratios")
    parser.add_argument("--out", help="write the merged results here (the CI artifact)")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="fail when a ratio is more than this factor worse than baseline "
        "(overridable per ratio via the baseline's \"tolerances\" map)",
    )
    args = parser.parse_args()

    merged = load_benchmarks(args.inputs)
    with open(args.baseline) as f:
        baseline = json.load(f)

    observed = {}
    for ratio_name, (numerator, denominator) in RATIOS.items():
        observed[ratio_name] = real_time_ns(
            merged["benchmarks"], numerator
        ) / real_time_ns(merged["benchmarks"], denominator)

    if args.out:
        merged["ratios"] = observed
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=2)

    failed = False
    for ratio_name, value in observed.items():
        reference = baseline.get("ratios", {}).get(ratio_name)
        if reference is None:
            print(f"warn: no baseline for {ratio_name} (observed {value:.4g})")
            continue
        tolerance = baseline.get("tolerances", {}).get(ratio_name, args.tolerance)
        limit = reference * tolerance
        verdict = "ok" if value <= limit else "REGRESSION"
        print(
            f"{ratio_name}: observed {value:.4g}, baseline {reference:.4g}, "
            f"limit {limit:.4g} -> {verdict}"
        )
        if value > limit:
            failed = True

    for bench_name, counters in EXACT_COUNTERS.items():
        entry = find_entry(merged["benchmarks"], bench_name)
        for counter, required in counters.items():
            value = entry.get(counter)
            verdict = "ok" if value == required else "REGRESSION"
            print(f"{bench_name} {counter}: observed {value}, required {required} -> {verdict}")
            if value != required:
                failed = True

    if failed:
        sys.exit("error: benchmark regression detected (see ratios and counters above)")
    print("bench check passed")


if __name__ == "__main__":
    main()
