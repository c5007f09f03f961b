/**
 * @file
 * Command-line front end: the equivalent of nanoBench.sh and
 * kernel-nanoBench.sh (paper §III-E), built on the Engine / Session
 * API. Example:
 *
 *   nanobench -asm "mov R14, [R14]" -asm_init "mov [R14], R14" \
 *             -config configs/cfg_Skylake.txt -uarch Skylake -kernel
 *
 * Repeating -asm (or -code) queues several benchmarks. Every verb that
 * runs specs -- the queue, -characterize and -profile -- runs them as
 * one Engine::runCampaign() call with one CampaignOptions built from
 * the command line, so each spec starts from a newly set-up machine
 * whatever the flags, and a failing spec reports an error without
 * aborting the rest.
 */

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/bound.hh"
#include "common/logging.hh"
#include "core/campaign.hh"
#include "core/engine.hh"
#include "fault/fault.hh"
#include "obs/metrics.hh"
#include "obs/observe.hh"
#include "obs/trace.hh"
#include "uarch/uarch.hh"
#include "profile/build.hh"
#include "uops/table.hh"
#include "x86/encoding.hh"

namespace
{

enum class OutputFormat : std::uint8_t
{
    Text,
    Json,
    Csv,
};

void
printUsage()
{
    // The parameter defaults below are the BenchmarkSpec defaults
    // (asserted in tests/test_engine.cc).
    std::cout <<
        "nanoBench (simulated) -- run microbenchmarks with performance "
        "counters\n\n"
        "usage: nanobench [options]\n"
        "  -asm <code>          benchmark body (Intel syntax); may be\n"
        "                       repeated to queue a batch\n"
        "  -asm_init <code>     initialization code (not measured)\n"
        "  -code <file>         benchmark body from an encoded binary\n"
        "  -spec_file <file>    queue one -asm style benchmark per line\n"
        "                       (a line starting with '-' carries\n"
        "                       per-line options, e.g. -asm \"..\" -agg\n"
        "                       min; malformed lines report their line\n"
        "                       number as per-spec errors)\n"
        "  -jobs <n>            campaign worker threads (default 1;\n"
        "                       0 = one per hardware thread)\n"
        "  -characterize        characterize the full instruction-\n"
        "                       variant catalog (§V, uops.info-style)\n"
        "                       through the campaign executor and print\n"
        "                       the table\n"
        "  -table <file>        with -characterize: also write the\n"
        "                       table there (JSON, or CSV with -csv);\n"
        "                       alone: load and print a table file\n"
        "  -table_diff <a> <b>  diff two table files (exit 1 when rows\n"
        "                       changed)\n"
        "  -profile <file>      measure a full machine profile (cache\n"
        "                       geometry/latency/policies, TLB, set-\n"
        "                       dueling leaders, \u00a7VI) through one\n"
        "                       campaign and write it there (JSON, or\n"
        "                       CSV with -csv)\n"
        "  -profile_diff <a> <b>  diff two profile files (exit 1 when\n"
        "                       sections changed)\n"
        "  -no_dedup            run duplicate specs instead of sharing\n"
        "                       one cached result\n"
        "  -report <file>       write the campaign report (JSON, or CSV\n"
        "                       with -csv) to a file ('-' = stderr)\n"
        "  -cycle_budget <n>    abort any single run after n simulated\n"
        "                       cycles with a budget-exceeded error;\n"
        "                       0 (the default) means 50000000 cycles,\n"
        "                       so raise it for longer specs; applies\n"
        "                       to every spec that runs, incl. spec-\n"
        "                       file lines and the -characterize /\n"
        "                       -profile experiments\n"
        "  -max_retries <n>     retry a spec whose failure is marked\n"
        "                       transient up to n times with backoff\n"
        "                       (default 0)\n"
        "  -checkpoint <file>   journal every settled spec to a file;\n"
        "                       an interrupted run (kill, Ctrl-C) can\n"
        "                       continue with -resume\n"
        "  -resume <file>       skip specs already settled in a\n"
        "                       checkpoint journal (same uarch/mode)\n"
        "  -fault <plan>        inject deterministic faults at named\n"
        "                       sites, e.g. 'assemble:transient:x1' or\n"
        "                       'execute@10000,seed:7' (sites:\n"
        "                       assemble, decode, execute,\n"
        "                       worker-pickup, report-write; also read\n"
        "                       from the NB_FAULT env var; see README\n"
        "                       \"Resilience\")\n"
        "  -progress            print campaign progress to stderr\n"
        "  -config <file>       performance-counter config file\n"
        "  -uarch <name>        microarchitecture (default Skylake)\n"
        "  -kernel | -user      kernel- or user-space version\n"
        "  -unroll_count <n>    unroll factor (default 100; at least 1)\n"
        "  -loop_count <n>      loop iterations (default 0 = no loop)\n"
        "  -n_measurements <n>  repetitions (default 10)\n"
        "  -warm_up_count <n>   discarded initial runs (default 2)\n"
        "  -agg <fn>            min | max | med | avg | mean\n"
        "                       (default med)\n"
        "  -basic_mode          compare against localUnrollCount=0\n"
        "  -no_mem              keep counter values in registers\n"
        "  -serialize <mode>    none | cpuid | lfence (default lfence)\n"
        "  -aperf_mperf         also read APERF/MPERF (kernel only)\n"
        "  -lint                statically analyze the queued specs\n"
        "                       instead of running them: print the\n"
        "                       diagnostics (rules R0-R6, see README\n"
        "                       \"Spec linting\"); exit 1 if any spec\n"
        "                       has an error-severity diagnostic\n"
        "  -explain             statically predict each queued spec's\n"
        "                       performance bounds instead of running\n"
        "                       it: bottleneck class, per-port\n"
        "                       utilization, and the critical latency\n"
        "                       cycle (see README \"Static performance\n"
        "                       bounds\"); exit 1 if any spec fails to\n"
        "                       assemble or decode\n"
        "  -lint_level <l>      off | warn | error (default off): fail\n"
        "                       a *measurement* run with a lint-error\n"
        "                       when the analyzer finds diagnostics at\n"
        "                       or above the level\n"
        "  -observe             run each queued spec with an execution\n"
        "                       observer attached and print predicted\n"
        "                       (-explain bounds) vs observed per-port\n"
        "                       pressure side by side; with\n"
        "                       -characterize / -profile, fold the\n"
        "                       campaign's observed totals into the\n"
        "                       -stats registry instead\n"
        "                       (campaign.observed.* counters)\n"
        "                       -lint, -explain and -observe run no\n"
        "                       campaign: they refuse -jobs, -report,\n"
        "                       -checkpoint, -resume, -max_retries,\n"
        "                       -progress and -stats (and -lint and\n"
        "                       -explain refuse -trace)\n"
        "  -trace <file>        write a Chrome trace-event JSON file\n"
        "                       (load in Perfetto / chrome://tracing)\n"
        "                       with spans for the campaign and for\n"
        "                       each spec on its worker\n"
        "  -stats               after running, dump the engine\n"
        "                       telemetry (machine pool, program\n"
        "                       cache, assemble/lint memos) and the\n"
        "                       metrics registry (runner phase\n"
        "                       histograms, observed counters) to\n"
        "                       stderr\n"
        "  -seed <n>            simulation seed\n"
        "  -json | -csv         machine-readable output\n"
        "  -list_uarchs         list supported microarchitectures\n";
}

std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        nb::fatal("cannot open ", what, " file '", path, "'");
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** @p doc in @p format: results, lint and bound reports, and tables
 *  all offer the three renderings. */
template <typename Doc>
std::string
render(const Doc &doc, OutputFormat format)
{
    switch (format) {
      case OutputFormat::Json:
        return doc.toJson();
      case OutputFormat::Csv:
        return doc.toCsv();
      case OutputFormat::Text:
        break;
    }
    return doc.format();
}

/** @p doc as a file artifact: CSV under -csv, JSON otherwise. */
template <typename Doc>
std::string
serialize(const Doc &doc, OutputFormat format)
{
    return format == OutputFormat::Csv ? doc.toCsv() : doc.toJson();
}

/** Open an output file; an unwritable path fails here, before any
 *  work, not after. */
std::ofstream
openOutput(const std::string &path, const char *what)
{
    std::ofstream out(path);
    if (!out)
        nb::fatal("cannot write ", what, " file '", path, "'");
    return out;
}

/** What one queued spec prints: its document, or the error printed
 *  in its place. */
struct SpecDocument
{
    std::optional<nb::RunError> error;
    /** Heading of the text document in a batch ("## <title>"). */
    std::string title;
    std::string body;
};

/**
 * The per-spec output loop of the run, lint, explain and observe
 * verbs. -json prints ONE parseable document: a bare object (or
 * {"error": ...}) for a single spec, an array with one entry per spec
 * (error entries in position) for a batch. -csv prints one standalone
 * document per spec, separated by blank lines, each preceded by a
 * "# benchmark i/N" comment in a batch. Each failure is also reported
 * on stderr as "benchmark i/N failed (<code>): <message>".
 *
 * Slot i prints @p preset[i] if set (a malformed spec-file line), else
 * @p document(i), called in slot order. A FatalError out of document()
 * is the spec's assembly error. Returns true if any spec failed.
 */
bool
printDocuments(OutputFormat format,
               const std::vector<std::optional<nb::RunError>> &preset,
               const std::function<SpecDocument(std::size_t)> &document)
{
    using nb::RunError;
    const std::size_t n = preset.size();
    const bool batch = n > 1;
    const bool json_array = format == OutputFormat::Json && batch;
    if (json_array)
        std::cout << "[\n";
    bool any_failed = false;
    for (std::size_t i = 0; i < n; ++i) {
        const bool last = i + 1 == n;
        if (batch && format == OutputFormat::Csv)
            std::cout << "# benchmark " << i + 1 << "/" << n << "\n";
        SpecDocument doc;
        if (preset[i]) {
            doc.error = preset[i];
        } else {
            // Print the failure once, below, not as fatal()'s line.
            nb::ScopedFatalMessageSuppression suppress;
            try {
                doc = document(i);
            } catch (const nb::FatalError &e) {
                doc.error =
                    RunError{RunError::Code::AssemblyError, e.what()};
            }
        }
        if (doc.error) {
            any_failed = true;
            const char *code = nb::runErrorCodeName(doc.error->code);
            std::cerr << "benchmark " << i + 1 << "/" << n << " failed ("
                      << code << "): " << doc.error->message << "\n";
            if (format == OutputFormat::Json) {
                std::cout << "{\"error\": {\"code\": \"" << code
                          << "\", \"message\": \""
                          << nb::core::jsonEscape(doc.error->message)
                          << "\"}}"
                          << (json_array && !last ? "," : "") << "\n";
            }
            if (format == OutputFormat::Csv && !last)
                std::cout << "\n";
            continue;
        }
        if (batch && format == OutputFormat::Text)
            std::cout << "## " << doc.title << "\n";
        std::cout << doc.body;
        if (format == OutputFormat::Json) {
            if (json_array && !last)
                std::cout << ",";
        } else if (batch && !last) {
            std::cout << "\n";
        }
    }
    if (json_array)
        std::cout << "]\n";
    return any_failed;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nb;
    using namespace nb::core;

    // Every verb that runs specs runs them as one campaign with these
    // options; the worker count defaults to 1 on the command line.
    CampaignOptions campaign;
    campaign.jobs = 1;
    SessionOptions &session_opt = campaign.session;
    // Spec options, applied to every queued benchmark. The defaults
    // are the BenchmarkSpec defaults advertised above.
    BenchmarkSpec shared;
    // One body per -asm/-code occurrence, in command-line order.
    std::vector<BenchmarkSpec> queued;
    OutputFormat format = OutputFormat::Text;
    bool show_progress = false;
    bool characterize = false;
    bool lint = false;
    bool explain = false;
    bool show_stats = false;
    std::string trace_path;
    std::string spec_file;
    std::string report_path;
    std::string fault_spec;
    std::string table_path;
    std::string profile_path;
    std::string diff_path_a;
    std::string diff_path_b;
    std::string profile_diff_a;
    std::string profile_diff_b;
    // Options that only configure a campaign, in command-line order.
    std::vector<std::string> campaign_only;

    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for option ", arg);
                return argv[++i];
            };
            for (const char *flag :
                 {"-report", "-checkpoint", "-resume", "-max_retries",
                  "-jobs", "-progress", "-stats", "-trace"}) {
                if (arg == flag)
                    campaign_only.push_back(arg);
            }
            if (applySpecOption(shared, arg, next)) {
                // Each -asm queues one benchmark; the other spec
                // options apply to all of them.
                if (arg == "-asm") {
                    queued.emplace_back();
                    queued.back().asmCode = std::exchange(shared.asmCode, {});
                }
            } else if (arg == "-code") {
                std::string blob = readFile(next(), "code");
                BenchmarkSpec spec;
                spec.code = x86::decode(std::vector<std::uint8_t>(
                    blob.begin(), blob.end()));
                queued.push_back(spec);
            } else if (arg == "-spec_file") {
                spec_file = next();
            } else if (arg == "-jobs") {
                // 0 = one worker per hardware thread
                // (CampaignOptions::resolvedJobs).
                campaign.jobs =
                    static_cast<unsigned>(parseCount(arg, next()));
            } else if (arg == "-characterize") {
                characterize = true;
            } else if (arg == "-table") {
                table_path = next();
            } else if (arg == "-table_diff") {
                diff_path_a = next();
                diff_path_b = next();
            } else if (arg == "-profile") {
                profile_path = next();
            } else if (arg == "-profile_diff") {
                profile_diff_a = next();
                profile_diff_b = next();
            } else if (arg == "-no_dedup") {
                campaign.dedup = false;
            } else if (arg == "-report") {
                report_path = next();
            } else if (arg == "-cycle_budget") {
                campaign.specBudget = parseCount(arg, next());
            } else if (arg == "-max_retries") {
                campaign.maxRetries =
                    static_cast<unsigned>(parseCount(arg, next()));
            } else if (arg == "-checkpoint") {
                campaign.checkpoint = next();
            } else if (arg == "-resume") {
                campaign.resume = next();
            } else if (arg == "-fault") {
                fault_spec = next();
            } else if (arg == "-progress") {
                show_progress = true;
            } else if (arg == "-config") {
                session_opt.configFile = next();
            } else if (arg == "-uarch") {
                session_opt.uarch = next();
            } else if (arg == "-kernel") {
                session_opt.mode = Mode::Kernel;
            } else if (arg == "-user") {
                session_opt.mode = Mode::User;
            } else if (arg == "-lint") {
                lint = true;
            } else if (arg == "-explain") {
                explain = true;
            } else if (arg == "-observe") {
                campaign.observe = true;
            } else if (arg == "-trace") {
                trace_path = next();
            } else if (arg == "-stats") {
                show_stats = true;
            } else if (arg == "-seed") {
                session_opt.seed = parseCount(arg, next());
            } else if (arg == "-json") {
                format = OutputFormat::Json;
            } else if (arg == "-csv") {
                format = OutputFormat::Csv;
            } else if (arg == "-list_uarchs") {
                for (const auto &name : uarch::allMicroArchNames())
                    std::cout << name << "\n";
                return 0;
            } else if (arg == "-h" || arg == "--help") {
                printUsage();
                return 0;
            } else {
                fatal("unknown option '", arg, "' (try --help)");
            }
        }

        // -lint, -explain and -observe run no campaign: refuse the
        // first campaign-only option rather than ignore it (-observe
        // does write a -trace).
        const bool builds = characterize || !profile_path.empty();
        std::string static_verb;
        if (!builds) {
            static_verb = lint               ? "-lint"
                          : explain          ? "-explain"
                          : campaign.observe ? "-observe"
                                             : "";
        }
        for (const auto &flag : campaign_only) {
            if (!static_verb.empty() &&
                !(static_verb == "-observe" && flag == "-trace"))
                fatal(flag, " has no effect with ", static_verb,
                      " (it runs no campaign)");
        }

        // Fault injection: -fault wins over the NB_FAULT environment
        // variable (the CI sweep uses the latter so it needs no
        // command-line surgery). The plan stays active for the whole
        // invocation; a bad plan string fails here, before any work.
        if (fault_spec.empty()) {
            if (const char *env = std::getenv("NB_FAULT"))
                fault_spec = env;
        }
        std::optional<fault::ScopedFaultPlan> fault_scope;
        if (!fault_spec.empty())
            fault_scope.emplace(fault_spec);

        // One tracer for the whole invocation, disabled (and
        // near-free) unless -trace was given. Verbs that execute
        // benchmarks write it out right before they return.
        obs::Tracer tracer;
        if (!trace_path.empty()) {
            openOutput(trace_path, "trace");
            tracer.enable();
        }
        auto write_trace = [&]() {
            if (tracer.enabled())
                tracer.writeFile(trace_path);
        };

        // ------------- machine-profile verbs (§VI) --------------

        if (!profile_diff_a.empty()) {
            auto before = profile::MachineProfile::load(profile_diff_a);
            auto after = profile::MachineProfile::load(profile_diff_b);
            auto diff = profile::diffProfiles(before, after);
            if (diff.empty()) {
                std::cout << "profiles match (" << before.uarch << "/"
                          << before.mode << ")\n";
                return 0;
            }
            std::cout << diff.format();
            std::cout << diff.entries.size() << " difference(s)\n";
            return 1;
        }

        // ------------- instruction-table verbs (§V) -------------

        if (!diff_path_a.empty()) {
            auto before = uops::InstructionTable::load(diff_path_a);
            auto after = uops::InstructionTable::load(diff_path_b);
            auto diff = uops::diffTables(before, after);
            if (diff.empty()) {
                std::cout << "tables match (" << before.rows.size()
                          << " rows)\n";
                return 0;
            }
            std::cout << diff.format();
            std::cout << diff.entries.size() << " row(s) differ\n";
            return 1;
        }

        if (!table_path.empty() && !characterize) {
            std::cout << render(uops::InstructionTable::load(table_path),
                                format);
            return 0;
        }

        // ------------------- benchmark queue --------------------

        // One slot per benchmark, in order. Slots from malformed
        // spec-file lines carry a preset error (reported in position,
        // with the line number) instead of anything to run.
        std::vector<std::optional<RunError>> preset;
        if (!builds) {
            // Merge the shared parameters into each explicitly queued
            // body; spec-file entries start from the same defaults and
            // may override them per line.
            for (auto &spec : queued) {
                auto body = std::move(spec.asmCode);
                auto code = std::move(spec.code);
                spec = shared;
                spec.asmCode = std::move(body);
                spec.code = std::move(code);
            }
            preset.resize(queued.size());
            if (!spec_file.empty()) {
                for (auto &entry :
                     parseSpecLines(readFile(spec_file, "spec"), shared)) {
                    preset.push_back(entry.error);
                    queued.push_back(std::move(entry.spec));
                }
            }
            if (queued.empty()) {
                printUsage();
                return 1;
            }
        }

        // ------------- static verbs: lint, explain --------------

        if (lint && !builds) {
            const auto &ua = uarch::getMicroArch(session_opt.uarch);
            analysis::Context ctx;
            ctx.mode = session_opt.mode;
            bool any_error = false;
            bool failed = printDocuments(format, preset, [&](std::size_t i) {
                auto report = analysis::analyzeSpec(ua, queued[i], ctx);
                any_error |= report.count(analysis::Severity::Error) > 0;
                return SpecDocument{
                    std::nullopt, queued[i].summary(),
                    format == OutputFormat::Text && report.empty()
                        ? "clean (no diagnostics)\n"
                        : render(report, format)};
            });
            return failed || any_error ? 1 : 0;
        }

        if (explain && !builds) {
            const auto &ua = uarch::getMicroArch(session_opt.uarch);
            bool failed = printDocuments(format, preset, [&](std::size_t i) {
                return SpecDocument{
                    std::nullopt, queued[i].summary(),
                    render(analysis::analyzeBounds(ua, queued[i]), format)};
            });
            return failed ? 1 : 0;
        }

        // --------------------- observe verb ---------------------

        if (campaign.observe && !builds) {
            const auto &ua = uarch::getMicroArch(session_opt.uarch);
            // observeSpec runs on private machines, so resolve the
            // session's counter config and the -cycle_budget into each
            // spec here, as a campaign worker would.
            CounterConfig session_config;
            if (!session_opt.configFile.empty())
                session_config =
                    CounterConfig::parseFile(session_opt.configFile);
            // The JSON document nests the two reports under
            // "predicted" / "observed"; both toJson() outputs end in a
            // newline that must not land inside the wrapper.
            auto trimmed = [](std::string text) {
                while (!text.empty() &&
                       (text.back() == '\n' || text.back() == ' '))
                    text.pop_back();
                return text;
            };
            tracer.nameLane(0, "observe");
            bool failed = printDocuments(
                format, preset, [&](std::size_t i) -> SpecDocument {
                    BenchmarkSpec spec = queued[i];
                    if (spec.config.empty())
                        spec.config = session_config;
                    if (spec.cycleBudget == 0)
                        spec.cycleBudget = campaign.specBudget;
                    auto bounds = analysis::analyzeBounds(ua, spec);
                    std::string label = spec.summary();
                    obs::ObservedProfile profile;
                    tracer.begin(0, label);
                    try {
                        profile = obs::observeSpec(ua, spec,
                                                   session_opt.mode,
                                                   session_opt.seed);
                    } catch (const FatalError &e) {
                        tracer.end(0, label);
                        return {RunError{RunError::Code::ExecutionError,
                                         e.what()},
                                {},
                                {}};
                    }
                    tracer.end(0, label);
                    switch (format) {
                      case OutputFormat::Json:
                        return {std::nullopt, label,
                                "{\"predicted\": " +
                                    trimmed(bounds.toJson()) +
                                    ",\n \"observed\": " +
                                    trimmed(profile.toJson()) + "}\n"};
                      case OutputFormat::Csv:
                        return {std::nullopt, label,
                                "# predicted\n" + bounds.toCsv() +
                                    "# observed\n" + profile.toCsv()};
                      case OutputFormat::Text:
                        break;
                    }
                    return {std::nullopt, label,
                            obs::formatPredictedVsObserved(bounds,
                                                           profile)};
                });
            write_trace();
            return failed ? 1 : 0;
        }

        // ------- campaign verbs: run, -characterize, -profile -------

        std::ofstream report_out;
        if (!report_path.empty() && report_path != "-")
            report_out = openOutput(report_path, "report");
        campaign.trace = &tracer;
        // Ctrl-C cancels cooperatively: in-flight specs finish, the
        // checkpoint flushes, and a partial report (with the
        // unexecuted specs settled as "cancelled" errors) is still
        // written.
        campaign.cancel = std::make_shared<CancelToken>();
        installSigintCancel(campaign.cancel);
        struct SigintScope
        {
            ~SigintScope() { clearSigintCancel(); }
        } sigint_scope;
        if (show_progress) {
            campaign.progress = [](const CampaignProgress &event) {
                // Settle events keep the coarse counter; start events
                // name the spec in flight so a stalled campaign is
                // attributable.
                std::cerr << "\rcampaign: " << event.done << "/"
                          << event.total;
                if (event.starting)
                    std::cerr << " [" << event.specLabel << "]";
                else if (event.done == event.total)
                    std::cerr << "\n";
            };
        }
        Engine engine;
        // What every campaign verb does last: the cancellation notice,
        // the report, the trace and -stats. Returns true if the
        // campaign was cancelled (exit 130 = 128 + SIGINT).
        auto finish = [&](const CampaignReport &report) {
            if (report.cancelled) {
                std::size_t unrun =
                    report.errorHistogram[static_cast<unsigned>(
                        RunError::Code::Cancelled)];
                std::cerr << "campaign cancelled: "
                          << report.totalSpecs - unrun << "/"
                          << report.totalSpecs << " specs settled"
                          << (campaign.checkpoint.empty()
                                  ? ""
                                  : " (resume with -resume " +
                                        campaign.checkpoint + ")")
                          << "\n";
            }
            if (report_path == "-")
                std::cerr << serialize(report, format);
            else if (!report_path.empty())
                report_out << serialize(report, format);
            write_trace();
            if (show_stats) {
                // Engine telemetry, mirrored into the process metrics
                // registry so one machine-readable dump also covers
                // the runner phase histograms and observed counters.
                EngineTelemetry t = engine.telemetry();
                obs::publishEngineTelemetry(t, obs::Registry::process());
                obs::RegistrySnapshot snap =
                    obs::Registry::process().snapshot();
                if (format == OutputFormat::Text)
                    std::cerr << t.format();
                std::cerr << render(snap, format);
            }
            return report.cancelled;
        };

        if (!profile_path.empty()) {
            std::ofstream profile_out = openOutput(profile_path, "profile");
            profile::ProfileOptions profile_opt;
            static_cast<CampaignOptions &>(profile_opt) = campaign;
            auto build = profile::buildMachineProfile(engine, profile_opt);
            std::cout << build.profile.format();
            profile_out << serialize(build.profile, format);
            if (finish(build.report))
                return 130;
            return build.profile.complete() ? 0 : 1;
        }

        if (characterize) {
            std::ofstream table_out;
            if (!table_path.empty())
                table_out = openOutput(table_path, "table");
            auto build = uops::buildInstructionTable(engine, campaign);
            std::cout << render(build.table, format);
            if (!table_path.empty())
                table_out << serialize(build.table, format);
            if (finish(build.report))
                return 130;
            return build.table.errorCount() != 0 ? 1 : 0;
        }

        std::vector<BenchmarkSpec> runnable;
        runnable.reserve(queued.size());
        for (std::size_t i = 0; i < queued.size(); ++i) {
            if (!preset[i])
                runnable.push_back(queued[i]);
        }
        CampaignResult ran = engine.runCampaign(runnable, campaign);
        // printDocuments asks for the runnable slots in order.
        std::size_t next_ran = 0;
        bool failed = printDocuments(format, preset, [&](std::size_t) {
            const RunOutcome &outcome = ran.outcomes[next_ran++];
            if (!outcome.ok())
                return SpecDocument{outcome.error(), {}, {}};
            return SpecDocument{std::nullopt, outcome.result().specEcho,
                                render(outcome.result(), format)};
        });
        if (finish(ran.report))
            return 130;
        return failed ? 1 : 0;
    } catch (const FatalError &e) {
        return 1;
    } catch (const PanicError &e) {
        return 2;
    }
}
