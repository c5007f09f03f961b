/**
 * @file
 * One repetition of one end-to-end benchmark workload (see README.md).
 *
 * run.py starts this program once per repetition, so the CPU time and
 * peak resident memory it reads back from outside (wait4 rusage)
 * belong to exactly one workload run. The program reaches the library
 * only through its public entry points and times the calls into each
 * layer from here: nothing inside src/ is instrumented for it.
 *
 *   nbperf_driver table   --out DIR [--trace]
 *   nbperf_driver profile --out DIR [--trace]
 *   nbperf_driver batch   --out DIR --specs FILE --config FILE [--trace]
 *
 * Outputs the parent checks (tables, profiles) are written under
 * --out; the last line of stdout is one JSON object with the raw
 * timings, spec counts and, with --trace, the per-layer ledger.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/bound.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "core/campaign.hh"
#include "core/result.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "profile/build.hh"
#include "sim/machine.hh"
#include "uarch/uarch.hh"
#include "uops/table.hh"

namespace
{

using namespace nb;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec * 1e-6;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + core::jsonEscape(s) + "\"";
}

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + core::exactDouble(values[i]);
    return out + "]";
}

/** Campaign workers: every workload is one caller submitting its
 *  whole spec list to a 4-worker campaign. */
constexpr unsigned kJobs = 4;

struct Args
{
    std::string workload;
    std::string out;
    std::string specs;
    std::string config;
    bool trace = false;
};

/** Everything one repetition reports to run.py. */
struct Rep
{
    double setupS = 0.0;
    double wallS = 0.0;
    /** CPU seconds of the set-ups repeated only to time them. */
    double repeatSetupCpuS = 0.0;
    /** Workers the campaigns actually used. */
    unsigned jobs = 0;
    std::size_t submitted = 0;
    std::size_t failedOutcomes = 0;
    /** batch only: ok specs that simulated fewer cycles than their
     *  static lower bound. */
    std::size_t boundViolations = 0;
    /** Pickup-to-settle milliseconds of every unique spec: worker
     *  thread CPU time (gated) and wall time (informational). */
    std::vector<double> specCpuMs;
    std::vector<double> specWallMs;
    /** Output name -> file written under --out. */
    std::map<std::string, std::string> outputs;

    // ---- traced repetitions only ----
    std::map<std::string, double> layers;
    /** (ms, planned name) of the slowest unique specs. */
    std::vector<std::pair<double, std::string>> slowest;
    /** Σ slowest spec ms and Σ campaign wall ms, across campaigns. */
    double slowestMs = 0.0;
    double campaignMs = 0.0;
    /** Worker seconds summed worker-wise across the rep's campaigns. */
    std::vector<double> workerSeconds;
    std::vector<std::string> notes;
};

/** The tracing context of a traced repetition (null when untraced). */
struct Trace
{
    obs::Tracer tracer;
    /** The benchmark's own spans sit on a lane past the workers'. */
    static constexpr std::uint32_t kLane = 64;

    template <typename F>
    auto
    span(const std::string &name, F &&body)
    {
        tracer.begin(kLane, name);
        struct End
        {
            obs::Tracer &t;
            const std::string &n;
            ~End() { t.end(kLane, n); }
        } end{tracer, name};
        return body();
    }
};

/** Run @p body in a span when tracing, plainly otherwise. */
template <typename F>
auto
layer(Trace *trace, const std::string &name, F &&body)
{
    if (trace)
        return trace->span(name, std::forward<F>(body));
    return body();
}

std::uint64_t
observedCounter(const std::string &name)
{
    return obs::Registry::process()
        .counter("campaign.observed." + name)
        .value();
}

/**
 * Run one campaign with pickup-to-settle timestamps on every unique
 * spec. Traced: attach the tracer and per-worker observers, count the
 * machines the campaign builds (one machineSetup call each), and fold
 * the report into the per-layer ledger. @p nameByKey names each
 * unique spec by where it was planned (traced only).
 */
CampaignResult
timedCampaign(Engine &engine, const std::vector<core::BenchmarkSpec> &specs,
              CampaignOptions opt, Trace *trace,
              const std::unordered_map<std::string, std::string> &nameByKey,
              Rep &rep)
{
    struct Pending
    {
        std::unordered_map<std::string, std::pair<Clock::time_point, double>>
            started;
        std::vector<std::pair<double, std::string>> settled;
        std::vector<double> cpu;
    } pending;
    // The campaign calls progress under its own mutex, on the worker
    // thread that picked the spec up.
    opt.progress = [&pending](const CampaignProgress &event) {
        if (event.starting) {
            pending.started[event.specKey] = {Clock::now(), threadCpuMs()};
            return;
        }
        auto it = pending.started.find(event.specKey);
        double ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - it->second.first)
                        .count();
        pending.settled.emplace_back(ms, event.specKey);
        pending.cpu.push_back(threadCpuMs() - it->second.second);
    };

    std::atomic<std::uint64_t> constructed{0};
    std::uint64_t instr0 = 0, uops0 = 0;
    if (trace) {
        opt.trace = &trace->tracer;
        opt.observe = true;
        auto inner = opt.machineSetup;
        opt.machineSetup = [inner, &constructed](core::Runner &runner) {
            constructed.fetch_add(1, std::memory_order_relaxed);
            if (inner)
                inner(runner);
        };
        instr0 = observedCounter("instructions");
        uops0 = observedCounter("uops_dispatched");
    }

    CampaignResult result = layer(trace, "campaign", [&] {
        return engine.runCampaign(specs, opt);
    });

    rep.jobs = std::max(rep.jobs, result.report.jobs);
    rep.submitted += specs.size();
    for (const RunOutcome &o : result.outcomes)
        rep.failedOutcomes += o.ok() ? 0 : 1;
    for (const auto &[ms, key] : pending.settled)
        rep.specWallMs.push_back(ms);
    rep.specCpuMs.insert(rep.specCpuMs.end(), pending.cpu.begin(),
                         pending.cpu.end());
    if (!trace)
        return result;

    const CampaignReport &r = result.report;
    auto &L = rep.layers;
    double worker_s = 0.0;
    rep.workerSeconds.resize(std::max<std::size_t>(
        rep.workerSeconds.size(), r.perWorkerSeconds.size()));
    for (std::size_t w = 0; w < r.perWorkerSeconds.size(); ++w) {
        worker_s += r.perWorkerSeconds[w];
        rep.workerSeconds[w] += r.perWorkerSeconds[w];
        L["campaign.worker_idle_s"] +=
            r.wallSeconds - r.perWorkerSeconds[w];
    }
    static const char *const kPhaseMetric[obs::kNumPhases] = {
        "runner.codegen_s", "runner.assemble_s", "runner.decode_s",
        "runner.execute_s", "runner.aggregate_s"};
    for (unsigned p = 0; p < obs::kNumPhases; ++p)
        L[kPhaseMetric[p]] += r.phaseTimes.ns[p] * 1e-9;
    L["campaign.unattributed_s"] +=
        worker_s - r.phaseTimes.totalNs() * 1e-9;
    L["campaign.specs_submitted"] += r.totalSpecs;
    L["campaign.dedup_hits"] += r.cacheHits;
    L["engine.machines_constructed"] += constructed.load();
    L["engine.telemetry_machines_constructed"] +=
        r.telemetry.machinesConstructed;
    L["engine.program_cache_hits"] += r.telemetry.program.hits;
    L["engine.program_cache_lookups"] +=
        r.telemetry.program.hits + r.telemetry.program.misses;
    // The assembly memo is process-wide: its latest snapshot covers
    // every campaign of the rep so far.
    L["engine.assemble_cache_hit_frac"] =
        ratio(r.telemetry.assemble.hits,
              r.telemetry.assemble.hits + r.telemetry.assemble.misses);
    L["sim.instructions"] += observedCounter("instructions") - instr0;
    L["sim.uops_dispatched"] += observedCounter("uops_dispatched") - uops0;

    // Σ simulated cycles over the specs actually executed (the first
    // occurrence of each canonical key; duplicates share its result).
    std::unordered_set<std::string> seen;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (!seen.insert(specCanonicalKey(specs[i])).second)
            continue;
        if (result.outcomes[i].ok())
            L["sim.cycles"] += result.outcomes[i].result().lastRunCycles;
    }

    double slowest = 0.0;
    for (const auto &[ms, key] : pending.settled) {
        slowest = std::max(slowest, ms);
        auto it = nameByKey.find(key);
        rep.slowest.emplace_back(
            ms, it != nameByKey.end() ? it->second : "<unplanned>");
    }
    std::sort(rep.slowest.begin(), rep.slowest.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    if (rep.slowest.size() > 8)
        rep.slowest.resize(8);
    rep.slowestMs += slowest;
    rep.campaignMs += r.wallSeconds * 1e3;
    return result;
}

/** Set-up runs at least kMinSetups times and until this much set-up
 *  has been timed, so cheap set-ups get enough samples for a steady
 *  median. */
constexpr unsigned kMinSetups = 5;
constexpr double kSetupBudgetS = 0.15;
constexpr unsigned kMaxSetups = 64;

/**
 * Time @p setup repeatedly and add the median to rep.setupS (also
 * returned in @p median_s). Returns the last product, the one the
 * campaign uses. The CPU time of the repeats is recorded so run.py can
 * take it out of cpu_s: a user sets up once.
 */
template <typename F>
auto
repeatedSetup(Rep &rep, double &median_s, F &&setup)
{
    std::vector<double> times;
    auto timed = [&] {
        auto start = Clock::now();
        auto product = setup();
        times.push_back(secondsSince(start));
        return product;
    };
    auto product = timed();
    double total = times.back();
    double cpu0 = threadCpuMs();
    while (times.size() < kMaxSetups &&
           (times.size() < kMinSetups || total < kSetupBudgetS)) {
        product = timed();
        total += times.back();
    }
    rep.repeatSetupCpuS += (threadCpuMs() - cpu0) * 1e-3;
    median_s = median(times);
    rep.setupS += median_s;
    return product;
}

void
writeOutput(Rep &rep, const Args &args, const std::string &name,
            const std::string &text)
{
    std::string path = args.out + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out)
        fatal("cannot write '", path, "'");
    rep.outputs[name] = path;
}

const char *
roleName(uops::PlannedSpec::Role role)
{
    switch (role) {
      case uops::PlannedSpec::Role::Latency:
        return "latency";
      case uops::PlannedSpec::Role::Throughput:
        return "throughput";
      case uops::PlannedSpec::Role::Ports:
        return "ports";
    }
    return "?";
}

/** Canonical key -> "<variant> <role>[/<role>...]" (shared specs
 *  carry every role that decodes them). */
std::unordered_map<std::string, std::string>
tableSpecNames(const std::string &uarch,
               const uops::CharacterizationPlan &plan)
{
    std::unordered_map<std::string, std::string> names;
    for (const uops::PlannedSpec &ps : plan.specs) {
        std::string key = specCanonicalKey(ps.spec);
        auto [it, fresh] = names.emplace(
            key, uarch + " " + plan.rows[ps.variant].signature + " " +
                     roleName(ps.role));
        if (!fresh)
            it->second += std::string("/") + roleName(ps.role);
    }
    return names;
}

/** Canonical key -> "<level>/<experiment>/<parameter>" for a profile
 *  plan, from the spec ranges the plan records per section. */
std::unordered_map<std::string, std::string>
profileSpecNames(const profile::ProfilePlan &plan)
{
    std::vector<std::string> at(plan.specs.size(), "<unplanned>");
    auto label = [&](std::size_t first, std::size_t count,
                     const std::string &section, auto &&param) {
        for (std::size_t i = 0; i < count && first + i < at.size(); ++i)
            at[first + i] = section + "/" + param(i);
    };
    auto index = [](std::size_t i) { return std::to_string(i); };
    for (const auto &lp : plan.levels) {
        if (!lp.error.empty())
            continue;
        label(lp.setsFirst, lp.setsHypotheses.size(), lp.name + "/sets",
              [&](std::size_t i) {
                  return std::to_string(lp.setsHypotheses[i]);
              });
        label(lp.lineFirst, lp.lineStrides.size(), lp.name + "/line-size",
              [&](std::size_t i) {
                  return std::to_string(lp.lineStrides[i]);
              });
        label(lp.assocFirst, lp.latencySpec - lp.assocFirst,
              lp.name + "/assoc", index);
        at[lp.latencySpec] = lp.name + "/latency";
        label(lp.policyFirst, 2 * lp.policy.sequences.size(),
              lp.name + "/policy", index);
    }
    if (plan.tlb) {
        const auto &ladder = plan.tlb->ladder;
        label(plan.tlbFirst, ladder.size(), "TLB/sweep",
              [&](std::size_t i) { return std::to_string(ladder[i]); });
        label(plan.tlbFirst + ladder.size(), 2 * ladder.size(),
              "TLB/penalty", [&](std::size_t i) {
                  return std::to_string(ladder[i / 2]) +
                         (i % 2 ? "-dense" : "-paged");
              });
    }
    if (plan.dueling) {
        label(plan.duelingFirst, plan.dueling->probes.size(),
              "L3/dueling", index);
    }
    std::unordered_map<std::string, std::string> names;
    for (std::size_t i = 0; i < plan.specs.size(); ++i)
        names.emplace(specCanonicalKey(plan.specs[i]), at[i]);
    return names;
}

std::vector<RunOutcome>
cancelledOutcomes(std::size_t n)
{
    return std::vector<RunOutcome>(
        n, RunOutcome(RunError{RunError::Code::Cancelled, "probe"}));
}

/**
 * Probes of layers a workload does not run itself, so every traced
 * workload reports every per-layer metric: machine construction and
 * WBINVD per uarch (timed directly; the campaign's fresh machines
 * are invisible to Engine telemetry), and whichever of the two
 * planners the workload does not use, planned for Skylake and decoded
 * from all-cancelled outcomes.
 */
void
probeLayers(Trace &trace, const std::vector<std::string> &uarches,
            bool probeUops, bool probeProfile, Rep &rep)
{
    constexpr unsigned kProbes = 9;
    double construct_ms = 0.0, wbinvd_us = 0.0;
    for (const std::string &name : uarches) {
        const uarch::MicroArch &ua = uarch::getMicroArch(name);
        std::vector<double> construct, flush;
        trace.span("probe/" + name, [&] {
            for (unsigned i = 0; i < kProbes; ++i) {
                auto start = Clock::now();
                sim::Machine machine(ua, 42);
                construct.push_back(secondsSince(start) * 1e3);
                start = Clock::now();
                machine.caches().wbinvd();
                flush.push_back(secondsSince(start) * 1e6);
            }
            return 0;
        });
        char note[128];
        std::snprintf(note, sizeof note,
                      "%s: machine construction %.3f ms, wbinvd %.1f us",
                      name.c_str(), median(construct), median(flush));
        rep.notes.push_back(note);
        construct_ms += median(construct);
        wbinvd_us += median(flush);
    }
    rep.layers["sim.machine_construct_ms"] = construct_ms / uarches.size();
    rep.layers["cache.wbinvd_us"] = wbinvd_us / uarches.size();

    if (probeUops) {
        trace.span("probe/uops", [&] {
            Engine engine;
            Session session = engine.session({});
            uops::Characterizer tool(session);
            auto start = Clock::now();
            auto plan = tool.plan();
            rep.layers["uops.plan_s"] = secondsSince(start);
            start = Clock::now();
            uops::InstructionTable table;
            table.rows = uops::Characterizer::decode(
                plan, cancelledOutcomes(plan.specs.size()));
            rep.layers["uops.decode_s"] = secondsSince(start);
            start = Clock::now();
            std::string text = table.toJson();
            rep.layers["uops.serialize_s"] = secondsSince(start);
            return 0;
        });
    }
    if (probeProfile) {
        trace.span("probe/profile", [&] {
            auto start = Clock::now();
            auto plan = profile::planMachineProfile({});
            rep.layers["profile.plan_s"] = secondsSince(start);
            start = Clock::now();
            auto prof = profile::decodeMachineProfile(
                plan, cancelledOutcomes(plan.specs.size()));
            rep.layers["profile.decode_s"] = secondsSince(start);
            start = Clock::now();
            std::string text = prof.toJson();
            rep.layers["profile.serialize_s"] = secondsSince(start);
            return 0;
        });
    }
}

SessionOptions
kernelSession(const std::string &uarch)
{
    SessionOptions opt;
    opt.uarch = uarch;
    opt.mode = core::Mode::Kernel;
    return opt;
}

/** §V: the Skylake and Zen instruction tables, exactly as
 *  buildInstructionTable() with freshMachinePerSpec builds them. */
Rep
runTable(const Args &args, Trace *trace)
{
    Rep rep;
    for (const std::string uarch : {"Skylake", "Zen"}) {
        SessionOptions sopt = kernelSession(uarch);
        double setup_s = 0.0, plan_s = 0.0;
        struct Setup
        {
            std::unique_ptr<Engine> engine;
            uops::CharacterizationPlan plan;
            std::vector<core::BenchmarkSpec> specs;
        };
        Setup s = repeatedSetup(rep, setup_s, [&] {
            return layer(trace, "setup/" + uarch, [&] {
                Setup out;
                out.engine = std::make_unique<Engine>();
                Session session = out.engine->session(sopt);
                uops::Characterizer tool(session);
                auto start = Clock::now();
                out.plan = tool.plan();
                out.specs = uops::Characterizer::planSpecs(out.plan);
                plan_s = secondsSince(start);
                return out;
            });
        });
        auto names = trace ? tableSpecNames(uarch, s.plan)
                           : std::unordered_map<std::string, std::string>{};

        CampaignOptions copt;
        copt.jobs = kJobs;
        copt.session = sopt;
        copt.freshMachinePerSpec = true;
        copt.specBudget = kBuilderSpecBudget;
        auto start = Clock::now();
        CampaignResult campaign =
            timedCampaign(*s.engine, s.specs, copt, trace, names, rep);
        double campaign_s = secondsSince(start);

        start = Clock::now();
        uops::InstructionTable table = layer(trace, "decode", [&] {
            uops::InstructionTable t;
            t.uarch = uarch;
            t.mode = core::modeName(sopt.mode);
            t.rows = uops::Characterizer::decode(s.plan, campaign.outcomes);
            return t;
        });
        double decode_s = secondsSince(start);
        start = Clock::now();
        std::string text =
            layer(trace, "serialize", [&] { return table.toJson(); });
        double serialize_s = secondsSince(start);

        rep.wallS += setup_s + campaign_s + decode_s + serialize_s;
        writeOutput(rep, args, "table_" + toLower(uarch) + ".json", text);
        if (trace) {
            rep.layers["uops.plan_s"] += plan_s;
            rep.layers["uops.decode_s"] += decode_s;
            rep.layers["uops.serialize_s"] += serialize_s;
            rep.layers["engine.machines_constructed"] += 1; // planning
        }
    }
    if (trace)
        probeLayers(*trace, {"Skylake", "Zen"}, false, true, rep);
    return rep;
}

/** §VI: the Skylake machine profile, exactly as buildMachineProfile()
 *  builds it (fresh machine per spec plus machineSetup). */
Rep
runProfile(const Args &args, Trace *trace)
{
    Rep rep;
    profile::ProfileOptions popt;
    popt.session = kernelSession("Skylake");
    popt.jobs = kJobs;
    double setup_s = 0.0, plan_s = 0.0;
    struct Setup
    {
        std::unique_ptr<Engine> engine;
        profile::ProfilePlan plan;
    };
    Setup s = repeatedSetup(rep, setup_s, [&] {
        return layer(trace, "setup/Skylake", [&] {
            Setup out;
            out.engine = std::make_unique<Engine>();
            auto start = Clock::now();
            out.plan = profile::planMachineProfile(popt);
            plan_s = secondsSince(start);
            return out;
        });
    });
    if (s.plan.specs.empty())
        fatal("the Skylake profile plan is empty");
    auto names = trace ? profileSpecNames(s.plan)
                       : std::unordered_map<std::string, std::string>{};

    CampaignOptions copt;
    copt.jobs = kJobs;
    copt.session = popt.session;
    copt.freshMachinePerSpec = true;
    copt.specBudget = kBuilderSpecBudget;
    Addr r14_size = s.plan.r14Size;
    bool disable_pf = s.plan.disablePrefetchers;
    copt.machineSetup = [r14_size, disable_pf](core::Runner &runner) {
        profile::ProfilePlan shim;
        shim.r14Size = r14_size;
        shim.disablePrefetchers = disable_pf;
        profile::prepareProfileMachine(runner, shim);
    };
    auto start = Clock::now();
    CampaignResult campaign =
        timedCampaign(*s.engine, s.plan.specs, copt, trace, names, rep);
    double campaign_s = secondsSince(start);

    start = Clock::now();
    profile::MachineProfile prof = layer(trace, "decode", [&] {
        return profile::decodeMachineProfile(s.plan, campaign.outcomes);
    });
    double decode_s = secondsSince(start);
    start = Clock::now();
    std::string text =
        layer(trace, "serialize", [&] { return prof.toJson(); });
    double serialize_s = secondsSince(start);

    rep.wallS = setup_s + campaign_s + decode_s + serialize_s;
    writeOutput(rep, args, "profile_skylake.json", text);
    if (trace) {
        rep.layers["profile.plan_s"] = plan_s;
        rep.layers["profile.decode_s"] = decode_s;
        rep.layers["profile.serialize_s"] = serialize_s;
        rep.layers["engine.machines_constructed"] += 1; // planning
        probeLayers(*trace, {"Skylake"}, true, false, rep);
    }
    return rep;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '", path, "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Seeded user microbenchmarks (a -spec_file) on pooled machines, the
 *  campaign's default mode. */
Rep
runBatch(const Args &args, Trace *trace)
{
    Rep rep;
    SessionOptions sopt = kernelSession("Skylake");
    sopt.configFile = args.config;
    double setup_s = 0.0;
    struct Setup
    {
        std::unique_ptr<Engine> engine;
        std::vector<core::BenchmarkSpec> specs;
    };
    Setup s = repeatedSetup(rep, setup_s, [&] {
        return layer(trace, "setup/spec_file", [&] {
            Setup out;
            out.engine = std::make_unique<Engine>();
            for (SpecFileEntry &e :
                 parseSpecLines(readFile(args.specs), {})) {
                if (e.error)
                    fatal("spec line ", e.lineNumber, ": ",
                          e.error->message);
                out.specs.push_back(std::move(e.spec));
            }
            return out;
        });
    });
    std::unordered_map<std::string, std::string> names;
    if (trace) {
        for (std::size_t i = 0; i < s.specs.size(); ++i)
            names.emplace(specCanonicalKey(s.specs[i]),
                          "line " + std::to_string(i + 1) + ": " +
                              s.specs[i].summary());
    }

    CampaignOptions copt;
    copt.jobs = kJobs;
    copt.session = sopt;
    auto start = Clock::now();
    CampaignResult campaign =
        timedCampaign(*s.engine, s.specs, copt, trace, names, rep);
    double campaign_s = secondsSince(start);

    start = Clock::now();
    std::string text = layer(trace, "serialize", [&] {
        std::string out;
        for (const RunOutcome &o : campaign.outcomes)
            out += o.ok() ? o.result().toJson() : o.error().message;
        return out + campaign.report.toJson();
    });
    double serialize_s = secondsSince(start);
    rep.wallS = setup_s + campaign_s + serialize_s;
    writeOutput(rep, args, "batch_results.json", text);

    // Output check (untimed): every ok spec simulates at least its
    // static lower bound, the tests/test_bound.cc cross-check.
    const uarch::MicroArch &ua = uarch::getMicroArch(sopt.uarch);
    for (std::size_t i = 0; i < s.specs.size(); ++i) {
        const RunOutcome &o = campaign.outcomes[i];
        if (!o.ok() || o.result().lines.empty())
            continue;
        const core::BenchmarkSpec &spec = s.specs[i];
        double lb = analysis::measurementCycleBound(
            analysis::analyzeBoundsCached(ua, spec), spec.unrollCount,
            std::max<std::uint64_t>(1, spec.loopCount));
        if (static_cast<double>(o.result().lastRunCycles) < lb - 1e-6)
            ++rep.boundViolations;
    }
    if (trace)
        probeLayers(*trace, {"Skylake"}, true, true, rep);
    return rep;
}

/** The per-layer metrics: the rep's sums plus the ratios over them
 *  (raw counts the ratios consume are dropped). */
std::map<std::string, double>
ledger(const Rep &rep)
{
    std::map<std::string, double> L = rep.layers;
    double mean = 0.0, max = 0.0;
    for (double s : rep.workerSeconds) {
        mean += s / rep.workerSeconds.size();
        max = std::max(max, s);
    }
    L["campaign.worker_imbalance"] = ratio(max, mean);
    L["campaign.slowest_spec_share"] =
        ratio(rep.slowestMs, rep.campaignMs);
    L["campaign.dedup_hit_frac"] =
        ratio(L["campaign.dedup_hits"], L["campaign.specs_submitted"]);
    L["engine.program_cache_hit_frac"] =
        ratio(L["engine.program_cache_hits"],
              L["engine.program_cache_lookups"]);
    L["sim.ns_per_instr"] =
        ratio(L["runner.execute_s"] * 1e9, L["sim.instructions"]);
    for (const char *raw :
         {"campaign.dedup_hits", "campaign.specs_submitted",
          "engine.program_cache_hits", "engine.program_cache_lookups"})
        L.erase(raw);
    return L;
}

void
printRep(const Rep &rep, const Args &args)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonString(args.workload)
       << ", \"setup_s\": " << core::exactDouble(rep.setupS)
       << ", \"wall_s\": " << core::exactDouble(rep.wallS)
       << ", \"repeat_setup_cpu_s\": "
       << core::exactDouble(rep.repeatSetupCpuS)
       << ", \"jobs\": " << rep.jobs
       << ", \"submitted\": " << rep.submitted
       << ", \"failed_outcomes\": " << rep.failedOutcomes
       << ", \"bound_violations\": " << rep.boundViolations
       << ", \"outputs\": {";
    const char *sep = "";
    for (const auto &[name, path] : rep.outputs) {
        os << sep << jsonString(name) << ": " << jsonString(path);
        sep = ", ";
    }
    os << "}, \"spec_wall_ms\": " << jsonNumbers(rep.specWallMs)
       << ", \"spec_cpu_ms\": " << jsonNumbers(rep.specCpuMs);
    if (args.trace) {
        os << ", \"layers\": {";
        sep = "";
        for (const auto &[name, value] : ledger(rep)) {
            os << sep << jsonString(name) << ": "
               << core::exactDouble(value);
            sep = ", ";
        }
        os << "}, \"slowest\": [";
        sep = "";
        for (const auto &[ms, name] : rep.slowest) {
            os << sep << "[" << core::exactDouble(ms) << ", "
               << jsonString(name) << "]";
            sep = ", ";
        }
        os << "], \"notes\": [";
        sep = "";
        for (const std::string &note : rep.notes) {
            os << sep << jsonString(note);
            sep = ", ";
        }
        os << "]";
    }
    os << "}";
    std::cout << os.str() << std::endl;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        fatal("usage: nbperf_driver table|profile|batch --out DIR ...");
    args.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after ", arg);
            return argv[++i];
        };
        if (arg == "--out")
            args.out = next();
        else if (arg == "--specs")
            args.specs = next();
        else if (arg == "--config")
            args.config = next();
        else if (arg == "--trace")
            args.trace = true;
        else
            fatal("unknown argument ", arg);
    }
    if (args.out.empty())
        fatal("--out is required");
    if (args.workload == "batch" &&
        (args.specs.empty() || args.config.empty()))
        fatal("batch needs --specs and --config");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        setQuiet(true);
        Args args = parseArgs(argc, argv);
        std::unique_ptr<Trace> trace;
        if (args.trace) {
            trace = std::make_unique<Trace>();
            trace->tracer.enable();
            trace->tracer.nameLane(Trace::kLane, "perfbench");
        }
        Rep rep;
        if (args.workload == "table")
            rep = runTable(args, trace.get());
        else if (args.workload == "profile")
            rep = runProfile(args, trace.get());
        else if (args.workload == "batch")
            rep = runBatch(args, trace.get());
        else
            fatal("unknown workload '", args.workload, "'");
        if (trace)
            trace->tracer.writeFile(args.out + "/trace.json");
        printRep(rep, args);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "nbperf_driver: " << e.what() << "\n";
        return 1;
    }
}
