/**
 * @file
 * Tests for the parallel campaign executor: in-order results across
 * worker counts, error handling mid-batch, dedup-cache behaviour,
 * determinism, report serialization, and the engine stats used by the
 * benches.
 */

#include <atomic>
#include <gtest/gtest.h>

#include "core/campaign.hh"

namespace nb
{
namespace
{

using core::BenchmarkSpec;
using core::CounterConfig;
using core::Mode;

std::vector<BenchmarkSpec>
countingSpecs(unsigned n)
{
    // Spec i retires i+1 instructions per iteration, so every outcome
    // is attributable to its input position.
    std::vector<BenchmarkSpec> specs(n);
    std::string body = "nop";
    for (unsigned i = 0; i < n; ++i) {
        specs[i].asmCode = body;
        body += "; nop";
    }
    return specs;
}

// ---------------------------------------------------------- ordering --

class CampaignWorkers : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CampaignWorkers, ResultsComeBackInSpecOrder)
{
    unsigned jobs = GetParam();
    Engine engine;
    CampaignOptions opt;
    opt.jobs = jobs;
    auto specs = countingSpecs(12);
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), specs.size());
    for (unsigned i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(campaign.outcomes[i].ok()) << i;
        EXPECT_NEAR(
            campaign.outcomes[i].result()["Instructions retired"],
            i + 1.0, 0.05)
            << i;
    }

    const auto &report = campaign.report;
    EXPECT_EQ(report.jobs, std::min<unsigned>(jobs, 12));
    EXPECT_EQ(report.totalSpecs, 12u);
    EXPECT_EQ(report.uniqueSpecs, 12u);
    EXPECT_EQ(report.cacheHits, 0u);
    EXPECT_EQ(report.okCount, 12u);
    EXPECT_EQ(report.errorCount(), 0u);
    EXPECT_GT(report.wallSeconds, 0.0);

    // Every worker ran its static share of the work.
    ASSERT_EQ(report.perWorkerSpecs.size(), report.jobs);
    std::size_t executed = 0;
    for (unsigned w = 0; w < report.jobs; ++w) {
        // Strided assignment: worker w gets ceil((12 - w) / jobs).
        EXPECT_EQ(report.perWorkerSpecs[w],
                  (12 - w + report.jobs - 1) / report.jobs)
            << w;
        executed += report.perWorkerSpecs[w];
    }
    EXPECT_EQ(executed, 12u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CampaignWorkers,
                         ::testing::Values(1u, 2u, 8u));

TEST(Campaign, WorkersGetPrivateMachineReplicas)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 4;
    auto campaign = engine.runCampaign(countingSpecs(8), opt);
    EXPECT_EQ(campaign.report.jobs, 4u);
    // One machine per worker, keyed (uarch, mode, seed, replica).
    EXPECT_EQ(engine.machinesConstructed(), 4u);
    EXPECT_EQ(engine.poolSize(), 4u);

    // A second campaign on the same engine reuses the warm replicas.
    engine.runCampaign(countingSpecs(8), opt);
    EXPECT_EQ(engine.machinesConstructed(), 4u);
    EXPECT_EQ(engine.poolHits(), 4u);
}

TEST(Campaign, ZeroJobsMeansHardwareConcurrency)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 0;
    auto campaign = engine.runCampaign(countingSpecs(2), opt);
    EXPECT_GE(campaign.report.jobs, 1u);
    EXPECT_LE(campaign.report.jobs, 2u); // clamped to unique specs
}

TEST(Campaign, EmptySpecListYieldsEmptyCampaign)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 4;
    auto campaign = engine.runCampaign({}, opt);
    EXPECT_TRUE(campaign.outcomes.empty());
    EXPECT_EQ(campaign.report.jobs, 0u);
    EXPECT_EQ(campaign.report.totalSpecs, 0u);
    EXPECT_EQ(engine.machinesConstructed(), 0u);
}

// ------------------------------------------------------------ errors --

TEST(Campaign, ErrorInTheMiddleDoesNotDisturbNeighbours)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto specs = countingSpecs(5);
    specs[2].asmCode = "definitely_not_x86 RAX";
    specs[3].asmCode = ""; // invalid: empty body
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), 5u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[1].ok());
    ASSERT_FALSE(campaign.outcomes[2].ok());
    EXPECT_EQ(campaign.outcomes[2].error().code,
              RunError::Code::AssemblyError);
    ASSERT_FALSE(campaign.outcomes[3].ok());
    EXPECT_EQ(campaign.outcomes[3].error().code,
              RunError::Code::InvalidSpec);
    ASSERT_TRUE(campaign.outcomes[4].ok());
    EXPECT_NEAR(campaign.outcomes[4].result()["Instructions retired"],
                5.0, 0.05);

    const auto &report = campaign.report;
    EXPECT_EQ(report.okCount, 3u);
    EXPECT_EQ(report.errorCount(), 2u);
    EXPECT_EQ(report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::AssemblyError)],
              1u);
    EXPECT_EQ(report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::InvalidSpec)],
              1u);
}

TEST(Campaign, InvalidSpecParametersBecomeTypedErrors)
{
    // Zero-measurement / zero-unroll specs used to crash the process
    // from inside the aggregate functions; a campaign must instead
    // report them per-spec and keep going.
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto specs = countingSpecs(4);
    specs[1].nMeasurements = 0;
    specs[2].unrollCount = 0;
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), 4u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    ASSERT_FALSE(campaign.outcomes[1].ok());
    EXPECT_EQ(campaign.outcomes[1].error().code,
              RunError::Code::InvalidSpec);
    ASSERT_FALSE(campaign.outcomes[2].ok());
    EXPECT_EQ(campaign.outcomes[2].error().code,
              RunError::Code::InvalidSpec);
    EXPECT_TRUE(campaign.outcomes[3].ok());
    EXPECT_EQ(campaign.report.errorHistogram[static_cast<unsigned>(
                  RunError::Code::InvalidSpec)],
              2u);
}

TEST(Campaign, UserModeAperfMperfIsUnsupported)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    opt.session.mode = Mode::User;
    auto specs = countingSpecs(3);
    specs[1].aperfMperf = true;
    auto campaign = engine.runCampaign(specs, opt);
    ASSERT_FALSE(campaign.outcomes[1].ok());
    EXPECT_EQ(campaign.outcomes[1].error().code,
              RunError::Code::Unsupported);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[2].ok());
}

TEST(Campaign, ResolvedJobsNeverReturnsZero)
{
    CampaignOptions opt;
    opt.jobs = 0;
    EXPECT_GE(opt.resolvedJobs(), 1u);
    opt.jobs = 3;
    EXPECT_EQ(opt.resolvedJobs(), 3u);
}

TEST(Campaign, UnknownUarchThrowsBeforeAnyWork)
{
    Engine engine;
    CampaignOptions opt;
    opt.session.uarch = "NotACpu";
    std::atomic<bool> progressed{false};
    opt.progress = [&](const CampaignProgress &) {
        progressed = true;
    };
    EXPECT_THROW(engine.runCampaign(countingSpecs(3), opt),
                 FatalError);
    EXPECT_FALSE(progressed.load());
    EXPECT_EQ(engine.machinesConstructed(), 0u);
}

// ------------------------------------------------------------- dedup --

TEST(Campaign, DedupSharesOutcomesOfIdenticalSpecs)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    // 9 input specs, 3 unique.
    std::vector<BenchmarkSpec> specs;
    for (int round = 0; round < 3; ++round)
        for (const auto &spec : countingSpecs(3))
            specs.push_back(spec);
    auto campaign = engine.runCampaign(specs, opt);

    ASSERT_EQ(campaign.outcomes.size(), 9u);
    EXPECT_EQ(campaign.report.uniqueSpecs, 3u);
    EXPECT_EQ(campaign.report.cacheHits, 6u);
    EXPECT_EQ(campaign.report.okCount, 9u);
    std::size_t executed = 0;
    for (auto count : campaign.report.perWorkerSpecs)
        executed += count;
    EXPECT_EQ(executed, 3u);

    // A duplicate resolves to exactly the first occurrence's result.
    for (unsigned i = 0; i < 9; ++i) {
        const auto &first = campaign.outcomes[i % 3].result();
        const auto &here = campaign.outcomes[i].result();
        ASSERT_EQ(here.lines.size(), first.lines.size());
        for (std::size_t l = 0; l < first.lines.size(); ++l)
            EXPECT_EQ(here.lines[l].value, first.lines[l].value);
    }
}

TEST(Campaign, DedupCanBeOptedOut)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    opt.dedup = false;
    std::vector<BenchmarkSpec> specs(4);
    for (auto &spec : specs)
        spec.asmCode = "add RAX, RAX";
    auto campaign = engine.runCampaign(specs, opt);
    EXPECT_EQ(campaign.report.uniqueSpecs, 4u);
    EXPECT_EQ(campaign.report.cacheHits, 0u);
    ASSERT_EQ(campaign.report.perWorkerSpecs.size(), 1u);
    EXPECT_EQ(campaign.report.perWorkerSpecs[0], 4u);
}

TEST(Campaign, CanonicalKeySeparatesSpecParameters)
{
    BenchmarkSpec a;
    a.asmCode = "add RAX, RAX";
    BenchmarkSpec b = a;
    EXPECT_EQ(specCanonicalKey(a), specCanonicalKey(b));
    EXPECT_EQ(specHash(a), specHash(b));

    b.unrollCount = 50;
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    b = a;
    b.asmInit = "mov RAX, 0";
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    b = a;
    b.serialize = core::SerializeMode::None;
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    b = a;
    b.config = CounterConfig::forMicroArch("Skylake");
    EXPECT_NE(specCanonicalKey(a), specCanonicalKey(b));

    // Field boundaries are length-prefixed: shifting a character
    // between adjacent string fields must change the key.
    BenchmarkSpec c, d;
    c.asmCode = "nop; n";
    c.asmInit = "op";
    d.asmCode = "nop; ";
    d.asmInit = "nop";
    EXPECT_NE(specCanonicalKey(c), specCanonicalKey(d));
}

// ------------------------------------------------------ determinism --

TEST(Campaign, RepeatedRunsWithSameSeedAreIdentical)
{
    CampaignOptions opt;
    opt.jobs = 4;
    opt.session.seed = 7;
    auto specs = countingSpecs(10);
    specs.push_back(specs[3]); // exercise dedup in the comparison too

    Engine engine;
    auto first = engine.runCampaign(specs, opt);
    // Fresh machines via clearPool(): same seed, same static
    // assignment, so the outcomes must be bit-identical.
    engine.clearPool();
    auto second = engine.runCampaign(specs, opt);

    ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
    for (std::size_t i = 0; i < first.outcomes.size(); ++i) {
        ASSERT_EQ(first.outcomes[i].ok(), second.outcomes[i].ok());
        const auto &a = first.outcomes[i].result();
        const auto &b = second.outcomes[i].result();
        ASSERT_EQ(a.lines.size(), b.lines.size());
        for (std::size_t l = 0; l < a.lines.size(); ++l) {
            EXPECT_EQ(a.lines[l].name, b.lines[l].name);
            EXPECT_EQ(a.lines[l].value, b.lines[l].value) << i;
        }
    }
    EXPECT_EQ(first.report.perWorkerSpecs,
              second.report.perWorkerSpecs);
}

// ---------------------------------------------------------- progress --

TEST(Campaign, ProgressSettlesEveryInputSpec)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    std::vector<std::size_t> seen;
    std::size_t starts = 0;
    opt.progress = [&](const CampaignProgress &event) {
        EXPECT_EQ(event.total, 6u);
        // Every event names the spec in flight.
        EXPECT_FALSE(event.specKey.empty());
        EXPECT_FALSE(event.specLabel.empty());
        if (event.starting)
            ++starts;
        else
            seen.push_back(event.done);
    };
    auto specs = countingSpecs(4);
    specs.push_back(specs[0]);
    specs.push_back(specs[1]);
    engine.runCampaign(specs, opt);

    // One start + one settle per executed unique spec; the running
    // "done" count is strictly increasing and ends at the input spec
    // count (duplicates settle with their unique spec).
    EXPECT_EQ(starts, 4u);
    ASSERT_EQ(seen.size(), 4u);
    for (std::size_t i = 1; i < seen.size(); ++i)
        EXPECT_GT(seen[i], seen[i - 1]);
    EXPECT_EQ(seen.back(), 6u);
}

// --------------------------------------------------------- spec file --

TEST(SpecFile, PlainLinesAndCommentsParse)
{
    core::BenchmarkSpec defaults;
    defaults.asmInit = "mov [R14], R14";
    defaults.unrollCount = 25;
    auto entries = parseSpecLines("# header comment\n"
                                  "add RAX, RAX\n"
                                  "\n"
                                  "mov R14, [R14]\n",
                                  defaults);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].lineNumber, 2u);
    EXPECT_FALSE(entries[0].error.has_value());
    EXPECT_EQ(entries[0].spec.asmCode, "add RAX, RAX");
    // Shared defaults are inherited (except the body itself).
    EXPECT_EQ(entries[0].spec.asmInit, "mov [R14], R14");
    EXPECT_EQ(entries[0].spec.unrollCount, 25u);
    EXPECT_EQ(entries[1].lineNumber, 4u);
    EXPECT_EQ(entries[1].spec.asmCode, "mov R14, [R14]");
}

TEST(SpecFile, PerLineOptionsOverrideDefaults)
{
    core::BenchmarkSpec defaults;
    auto entries = parseSpecLines(
        "-asm \"div RBX\" -agg min -unroll_count 10 -basic_mode\n",
        defaults);
    ASSERT_EQ(entries.size(), 1u);
    ASSERT_FALSE(entries[0].error.has_value());
    EXPECT_EQ(entries[0].spec.asmCode, "div RBX");
    EXPECT_EQ(entries[0].spec.agg, Aggregate::Minimum);
    EXPECT_EQ(entries[0].spec.unrollCount, 10u);
    EXPECT_TRUE(entries[0].spec.basicMode);
}

TEST(SpecFile, MalformedLinesAreErrorsWithLineNumbers)
{
    core::BenchmarkSpec defaults;
    // A bad -agg name hits parseAggregate's fatal(); it must come
    // back as a per-line error naming the line, not kill the process.
    auto entries = parseSpecLines("nop\n"
                                  "-asm \"nop\" -agg bogus\n"
                                  "-asm \"nop\" -frobnicate\n"
                                  "-asm \"nop\" -unroll_count\n"
                                  "-agg min\n"
                                  "-asm \"unterminated\n",
                                  defaults);
    ASSERT_EQ(entries.size(), 6u);
    EXPECT_FALSE(entries[0].error.has_value());
    for (std::size_t i = 1; i < entries.size(); ++i) {
        ASSERT_TRUE(entries[i].error.has_value()) << i;
        EXPECT_EQ(entries[i].error->code, RunError::Code::InvalidSpec)
            << i;
        EXPECT_NE(entries[i].error->message.find(
                      "line " + std::to_string(i + 1)),
                  std::string::npos)
            << entries[i].error->message;
    }
    EXPECT_NE(entries[1].error->message.find("bogus"),
              std::string::npos);
    EXPECT_NE(entries[2].error->message.find("-frobnicate"),
              std::string::npos);
    EXPECT_NE(entries[4].error->message.find("no -asm body"),
              std::string::npos);
}

TEST(SpecFile, ParsedSpecsRunAsACampaign)
{
    core::BenchmarkSpec defaults;
    auto entries = parseSpecLines("nop\n"
                                  "-asm \"nop; nop\" -agg min\n",
                                  defaults);
    std::vector<core::BenchmarkSpec> specs;
    for (const auto &entry : entries)
        specs.push_back(entry.spec);
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto campaign = engine.runCampaign(specs, opt);
    ASSERT_EQ(campaign.outcomes.size(), 2u);
    EXPECT_TRUE(campaign.outcomes[0].ok());
    ASSERT_TRUE(campaign.outcomes[1].ok());
    EXPECT_NEAR(campaign.outcomes[1].result()["Instructions retired"],
                2.0, 0.05);
}

// ------------------------------------------------------------ report --

TEST(CampaignReport, JsonRoundTrip)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    auto specs = countingSpecs(5);
    specs[1].asmCode = "not_x86_at_all";
    specs.push_back(specs[0]);
    auto campaign = engine.runCampaign(specs, opt);

    auto parsed = CampaignReport::fromJson(campaign.report.toJson());
    EXPECT_EQ(parsed.jobs, campaign.report.jobs);
    EXPECT_EQ(parsed.totalSpecs, campaign.report.totalSpecs);
    EXPECT_EQ(parsed.uniqueSpecs, campaign.report.uniqueSpecs);
    EXPECT_EQ(parsed.cacheHits, campaign.report.cacheHits);
    EXPECT_EQ(parsed.okCount, campaign.report.okCount);
    EXPECT_EQ(parsed.wallSeconds, campaign.report.wallSeconds);
    EXPECT_EQ(parsed.perWorkerSpecs, campaign.report.perWorkerSpecs);
    EXPECT_EQ(parsed.errorHistogram, campaign.report.errorHistogram);
    EXPECT_EQ(parsed.telemetry, campaign.report.telemetry);
}

TEST(CampaignReport, FromJsonRejectsGarbage)
{
    EXPECT_THROW(CampaignReport::fromJson("nope"), FatalError);
    EXPECT_THROW(CampaignReport::fromJson("{\"jobs\": 1"), FatalError);
    EXPECT_THROW(
        CampaignReport::fromJson(
            "{\"errors\": {\"no-such-code\": 1}}"),
        FatalError);
    CampaignReport r;
    EXPECT_THROW(CampaignReport::fromJson(r.toJson() + r.toJson()),
                 FatalError);
}

TEST(CampaignReport, CsvListsCountersAndErrors)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 1;
    auto specs = countingSpecs(2);
    specs[0].asmCode = "bad_mnemonic";
    auto campaign = engine.runCampaign(specs, opt);
    std::string csv = campaign.report.toCsv();
    EXPECT_NE(csv.find("total_specs,2"), std::string::npos);
    EXPECT_NE(csv.find("ok,1"), std::string::npos);
    EXPECT_NE(csv.find("worker_0_specs,2"), std::string::npos);
    EXPECT_NE(csv.find("error_assembly-error,1"), std::string::npos);
}

// ------------------------------------------------------ engine stats --

TEST(EngineStats, ResetStatsZeroesCountersWithoutTouchingPool)
{
    Engine engine;
    engine.session({});
    engine.session({});
    EXPECT_EQ(engine.machinesConstructed(), 1u);
    EXPECT_EQ(engine.poolHits(), 1u);

    engine.resetStats();
    EXPECT_EQ(engine.machinesConstructed(), 0u);
    EXPECT_EQ(engine.poolHits(), 0u);
    EXPECT_EQ(engine.poolSize(), 1u);

    // The pool itself is untouched: the next session is still a hit.
    engine.session({});
    EXPECT_EQ(engine.poolHits(), 1u);
    EXPECT_EQ(engine.machinesConstructed(), 0u);
}

TEST(SpecFile, PerLineCounterConfigs)
{
    // ROADMAP item: per-line -config files let one campaign mix event
    // sets. A good path loads; dedup must keep lines with different
    // configs apart.
    core::BenchmarkSpec defaults;
    std::string cfg =
        std::string(core::configDir()) + "/cfg_Skylake.txt";
    auto entries = parseSpecLines("-asm \"nop\" -config \"" + cfg +
                                      "\"\n"
                                      "nop\n",
                                  defaults);
    ASSERT_EQ(entries.size(), 2u);
    ASSERT_FALSE(entries[0].error.has_value());
    EXPECT_FALSE(entries[0].spec.config.empty());
    EXPECT_TRUE(entries[1].spec.config.empty());
    EXPECT_NE(specCanonicalKey(entries[0].spec),
              specCanonicalKey(entries[1].spec));

    // The configured events actually reach the results.
    Engine engine;
    CampaignOptions opt;
    auto campaign = engine.runCampaign(
        {entries[0].spec, entries[1].spec}, opt);
    ASSERT_TRUE(campaign.outcomes[0].ok());
    EXPECT_TRUE(campaign.outcomes[0]
                    .result()
                    .find("UOPS_ISSUED.ANY")
                    .has_value());
    ASSERT_TRUE(campaign.outcomes[1].ok());
    EXPECT_FALSE(campaign.outcomes[1]
                     .result()
                     .find("UOPS_ISSUED.ANY")
                     .has_value());
}

TEST(SpecFile, UnreadableConfigIsAPerLineError)
{
    core::BenchmarkSpec defaults;
    auto entries = parseSpecLines(
        "-asm \"nop\" -config /nonexistent/events.txt\n"
        "-asm \"nop\" -config\n",
        defaults);
    ASSERT_EQ(entries.size(), 2u);
    ASSERT_TRUE(entries[0].error.has_value());
    EXPECT_EQ(entries[0].error->code, RunError::Code::InvalidSpec);
    EXPECT_NE(entries[0].error->message.find("line 1"),
              std::string::npos);
    ASSERT_TRUE(entries[1].error.has_value());
    EXPECT_NE(entries[1].error->message.find("missing value"),
              std::string::npos);
}

// ------------------------------------------- fresh machines / setup --

TEST(Campaign, MachineSetupRunsOncePerWorker)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 3;
    std::atomic<unsigned> calls{0};
    opt.machineSetup = [&](core::Runner &runner) {
        EXPECT_EQ(runner.mode(), Mode::Kernel);
        ++calls;
    };
    engine.runCampaign(countingSpecs(9), opt);
    EXPECT_EQ(calls.load(), 3u);
}

TEST(Campaign, FreshMachineRunsSetupPerUniqueSpec)
{
    Engine engine;
    CampaignOptions opt;
    opt.jobs = 2;
    opt.freshMachinePerSpec = true;
    std::atomic<unsigned> calls{0};
    opt.machineSetup = [&](core::Runner &) { ++calls; };
    auto specs = countingSpecs(3);
    specs.push_back(specs.front()); // duplicate: deduped, no machine
    auto campaign = engine.runCampaign(specs, opt);
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(campaign.report.cacheHits, 1u);
    // No pooled machines were used at all.
    EXPECT_EQ(engine.poolSize(), 0u);
}

TEST(Campaign, FreshMachineCampaignCountsEveryConstructedMachine)
{
    // One private machine per unique spec; duplicates are deduped and
    // build none. The engine's lifetime counter and its telemetry both
    // see them.
    Engine engine;
    engine.session({}); // one pooled machine beforehand
    CampaignOptions opt;
    opt.jobs = 3;
    opt.freshMachinePerSpec = true;
    constexpr unsigned kUnique = 7;
    auto specs = countingSpecs(kUnique);
    specs.push_back(specs[2]);
    specs.push_back(specs[5]);
    auto campaign = engine.runCampaign(specs, opt);
    EXPECT_EQ(campaign.report.okCount, specs.size());
    EXPECT_EQ(engine.machinesConstructed(), 1u + kUnique);
    EXPECT_EQ(engine.telemetry().machinesConstructed, 1u + kUnique);
    EXPECT_EQ(engine.poolSize(), 1u);
}

TEST(Campaign, FreshMachineSpecsSeeTheSetUpMachine)
{
    // Specs planned against a prepared machine (here: an enlarged R14
    // area) only run if the setup hook reproduces that state on the
    // campaign's fresh machines -- exactly the profile builder's
    // contract.
    constexpr Addr kArea = 4 * 1024 * 1024;
    Addr probe_addr = 0;
    {
        sim::Machine machine(uarch::getMicroArch("Skylake"), 42);
        core::Runner runner(machine, Mode::Kernel);
        ASSERT_TRUE(runner.reserveR14Area(kArea));
        probe_addr = runner.r14Area() + kArea - 64;
    }
    BenchmarkSpec spec;
    spec.asmCode =
        "mov RBX, [" + std::to_string(probe_addr) + "]";

    Engine engine;
    CampaignOptions opt;
    opt.freshMachinePerSpec = true;
    auto without = engine.runCampaign({spec}, opt);
    EXPECT_FALSE(without.outcomes[0].ok()); // page fault

    opt.machineSetup = [&](core::Runner &runner) {
        if (runner.r14AreaSize() < kArea) {
            ASSERT_TRUE(runner.reserveR14Area(kArea));
        }
    };
    auto with = engine.runCampaign({spec}, opt);
    EXPECT_TRUE(with.outcomes[0].ok());
}

TEST(Campaign, FreshMachineMakesJobsLayoutInvariant)
{
    // The pointer-chase timing of a spec depends on machine history
    // (caches, predictors); with freshMachinePerSpec every outcome is
    // a pure function of its spec, so any worker count produces
    // bit-identical results.
    std::vector<BenchmarkSpec> specs;
    for (unsigned i = 0; i < 6; ++i) {
        BenchmarkSpec spec;
        spec.asmInit = "mov [R14], R14";
        spec.asmCode = "mov R14, [R14]";
        spec.unrollCount = 10 + i;
        specs.push_back(spec);
    }
    auto run = [&](unsigned jobs) {
        Engine engine;
        CampaignOptions opt;
        opt.jobs = jobs;
        opt.freshMachinePerSpec = true;
        return engine.runCampaign(specs, opt);
    };
    auto one = run(1);
    auto three = run(3);
    ASSERT_EQ(one.outcomes.size(), three.outcomes.size());
    for (std::size_t i = 0; i < one.outcomes.size(); ++i) {
        ASSERT_TRUE(one.outcomes[i].ok());
        ASSERT_TRUE(three.outcomes[i].ok());
        EXPECT_EQ(one.outcomes[i].result().toCsv(),
                  three.outcomes[i].result().toCsv())
            << i;
    }
}

TEST(EngineStats, LifetimeCountersSurviveClearPool)
{
    // Documented semantics: clearPool() drops machines but keeps the
    // monotonic lifetime counters; resetStats() is the explicit way
    // to open a fresh measurement window.
    Engine engine;
    engine.session({});
    engine.session({});
    engine.clearPool();
    EXPECT_EQ(engine.poolSize(), 0u);
    EXPECT_EQ(engine.machinesConstructed(), 1u);
    EXPECT_EQ(engine.poolHits(), 1u);

    engine.session({});
    EXPECT_EQ(engine.machinesConstructed(), 2u);
    EXPECT_EQ(engine.poolHits(), 1u);
}

// ----------------------------------------- shared program cache --

TEST(SharedProgramCache, FreshMachineCampaignDecodesOncePerUniqueSpec)
{
    Engine engine;
    std::vector<BenchmarkSpec> specs;
    for (int i = 0; i < 8; ++i) {
        BenchmarkSpec s;
        s.asmCode = "add RAX, " + std::to_string(i + 1);
        s.nMeasurements = 2;
        s.warmUpCount = 1;
        specs.push_back(s);
    }
    CampaignOptions opt;
    opt.jobs = 4;
    opt.freshMachinePerSpec = true;
    auto first = engine.runCampaign(specs, opt);
    EXPECT_EQ(first.report.okCount, specs.size());

    // 1 counter round x 2 unroll versions per unique spec: 16 decodes
    // total, even though every spec ran on a private fresh runner
    // (whose local cache started empty) and executed each program
    // several times (warm-up + measurements).
    auto stats = engine.programCache().stats();
    EXPECT_EQ(stats.misses, 16u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(engine.programCache().size(), 16u);

    // An identical second campaign decodes nothing: all 16 fetches
    // are shared-cache hits.
    auto second = engine.runCampaign(specs, opt);
    EXPECT_EQ(second.report.okCount, specs.size());
    stats = engine.programCache().stats();
    EXPECT_EQ(stats.misses, 16u);
    EXPECT_EQ(stats.hits, 16u);

    // The campaign report carries the snapshot.
    EXPECT_EQ(second.report.telemetry.program, stats);
    EXPECT_EQ(second.report.telemetry.programCacheSize, 16u);
}

TEST(SharedProgramCache, PooledReplicasShareDecodedPrograms)
{
    Engine engine;
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;

    SessionOptions opt;
    Session s0 = engine.session(opt);
    ASSERT_TRUE(s0.run(spec).ok());
    auto stats = engine.programCache().stats();
    EXPECT_EQ(stats.misses, 2u); // 2 unroll versions, decoded once
    EXPECT_EQ(stats.hits, 0u);

    // A second replica (private machine, identical layout) fetches
    // instead of decoding.
    opt.replica = 1;
    Session s1 = engine.session(opt);
    ASSERT_TRUE(s1.run(spec).ok());
    stats = engine.programCache().stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 2u);
    // Locally both runners report two misses (fetch or decode).
    EXPECT_EQ(s0.runner().programStats().misses, 2u);
    EXPECT_EQ(s1.runner().programStats().misses, 2u);
}

TEST(SharedProgramCache, ResetStatsKeepsCachedPrograms)
{
    Engine engine;
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    ASSERT_TRUE(engine.session({}).run(spec).ok());
    EXPECT_EQ(engine.programCache().stats().misses, 2u);

    engine.resetStats();
    EXPECT_EQ(engine.programCache().stats().misses, 0u);
    EXPECT_EQ(engine.programCache().stats().hits, 0u);
    EXPECT_EQ(engine.programCache().size(), 2u);

    // Programs survived: a fresh replica serves pure hits.
    SessionOptions opt;
    opt.replica = 7;
    ASSERT_TRUE(engine.session(opt).run(spec).ok());
    EXPECT_EQ(engine.programCache().stats().misses, 0u);
    EXPECT_EQ(engine.programCache().stats().hits, 2u);
}

TEST(SharedProgramCache, SessionOutlivesEngine)
{
    // The engine.hh contract: sessions keep working after the engine
    // (and thus the cache's owning reference) is gone. The runner's
    // shared_ptr copies keep the cache and its programs alive.
    BenchmarkSpec spec;
    spec.asmCode = "add RAX, RAX";
    spec.nMeasurements = 2;
    spec.warmUpCount = 0;
    std::optional<Session> session;
    {
        Engine engine;
        session.emplace(engine.session({}));
        ASSERT_TRUE(session->run(spec).ok());
    }
    ASSERT_TRUE(session->run(spec).ok());
    BenchmarkSpec other = spec;
    other.asmCode = "add RBX, RBX";
    ASSERT_TRUE(session->run(other).ok());
}

TEST(SharedProgramCache, ConcurrentWorkersConvergeOnOneProgram)
{
    // 8 workers race 24 fresh-machine specs over 3 distinct bodies
    // (dedup off, so duplicates really execute). Concurrent lookups
    // and racing inserts on the same keys are exactly what the TSan
    // CI job needs to observe; the accounting invariant holds
    // regardless of interleaving: one lookup per local miss.
    Engine engine;
    std::vector<BenchmarkSpec> specs;
    for (int i = 0; i < 24; ++i) {
        BenchmarkSpec s;
        s.asmCode = "add RAX, " + std::to_string(i % 3);
        s.nMeasurements = 2;
        s.warmUpCount = 0;
        specs.push_back(s);
    }
    CampaignOptions opt;
    opt.jobs = 8;
    opt.dedup = false;
    opt.freshMachinePerSpec = true;
    auto result = engine.runCampaign(specs, opt);
    EXPECT_EQ(result.report.okCount, 24u);

    // 3 bodies x 2 unroll versions = 6 distinct programs, whoever
    // won each decode race; 24 specs x 2 fetches = 48 lookups.
    auto stats = engine.programCache().stats();
    EXPECT_EQ(engine.programCache().size(), 6u);
    EXPECT_EQ(stats.hits + stats.misses, 48u);
    EXPECT_GE(stats.misses, 6u);
}

} // namespace
} // namespace nb
