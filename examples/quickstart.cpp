/**
 * @file
 * Quickstart: the paper's §III-A example through the Engine / Session
 * API.
 *
 * Measures the L1 data-cache latency on a simulated Skylake by chasing
 * a pointer through R14, with the store that creates the pointer in the
 * (unmeasured) initialization phase:
 *
 *   ./nanoBench.sh -asm "mov R14, [R14]" -asm_init "mov [R14], R14"
 *                  -config cfg_Skylake.txt
 *
 * Then runs a small batch against the same cached machine, showing the
 * three things the API adds over the paper's one-shot shell scripts:
 * machine pooling, per-spec error reporting, and structured results.
 *
 * Build and run:  ./build/examples/quickstart
 */

#include <iostream>

#include "core/engine.hh"

int
main()
{
    using namespace nb;
    using namespace nb::core;

    // An Engine pools simulated machines; a Session is a handle on one
    // of them, selected by (uarch, mode, seed).
    Engine engine;

    SessionOptions options;
    options.uarch = "Skylake";       // any name from -list_uarchs
    options.mode = Mode::Kernel;     // kernel-space variant (§III-D)
    options.config = CounterConfig::forMicroArch("Skylake");
    Session session = engine.session(options);

    // The microbenchmark: body, init, and repetition parameters
    // (unrollCount defaults to 100, warmUpCount to 2, §III-E).
    BenchmarkSpec spec;
    spec.asmCode = "mov R14, [R14]";   // chase the pointer
    spec.asmInit = "mov [R14], R14";   // plant the pointer

    // run() reports failures as data instead of aborting.
    RunOutcome outcome = session.run(spec);
    if (!outcome.ok()) {
        std::cerr << "benchmark failed ("
                  << runErrorCodeName(outcome.error().code)
                  << "): " << outcome.error().message << "\n";
        return 1;
    }
    const BenchmarkResult &result = outcome.result();
    std::cout << result.format();

    // Individual values are addressable by name; find() returns
    // std::nullopt for missing lines, operator[] throws.
    std::cout << "\nThe L1 data cache latency is "
              << result["Core cycles"] << " cycles.\n";

    // A batch runs many specs against the same warmed-up machine; the
    // machine is constructed once, results come back in spec order.
    std::vector<BenchmarkSpec> batch(3);
    batch[0].asmCode = "add RAX, RAX";      // 1-cycle dependency chain
    batch[1].asmCode = "imul RAX, RAX";     // 3-cycle dependency chain
    batch[2].asmCode = "not an instruction"; // fails, batch continues
    std::cout << "\nBatch of " << batch.size()
              << " specs on one pooled machine ("
              << engine.machinesConstructed() << " machine built):\n";
    for (const auto &o : session.runBatch(batch)) {
        if (o.ok()) {
            std::cout << "  " << o.result().specEcho << " -> "
                      << *o.result().find("Core cycles")
                      << " cycles/iteration\n";
        } else {
            std::cout << "  error ("
                      << runErrorCodeName(o.error().code) << "): "
                      << o.error().message << "\n";
        }
    }

    // Results serialize for machine consumption (also: toCsv()).
    std::cout << "\nAs JSON:\n" << result.toJson();
    return 0;
}
