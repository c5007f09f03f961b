/**
 * @file
 * E7 -- reproduces the set-dueling findings of §VI-C3/§VI-D:
 *  - Ivy Bridge: dedicated sets 512-575 and 768-831 in ALL slices;
 *  - Haswell: the same sets, but only in slice 0;
 *  - Broadwell: the two leader groups swapped between slices 0 and 1
 *    (the configuration Briongos et al. mis-attributed, §VI-D).
 *
 * Each scan is planned, run as one campaign and decoded, with the
 * machine profile's default band (sets 496-847) and stride (16), so
 * the printed ranges are exactly the `dueling.ranges` of
 * configs/golden_profile_<uarch>.json. Range boundaries are only as
 * sharp as the stride: the band 512-575 prints as 512-560, the last
 * probed set inside it.
 */

#include <iostream>

#include "cachetools/dueling_scan.hh"
#include "core/campaign.hh"
#include "core/engine.hh"

int
main()
{
    using namespace nb;
    using namespace nb::cachetools;
    nb::setQuiet(true);

    Engine engine;
    for (const char *name : {"IvyBridge", "Haswell", "Broadwell"}) {
        CampaignOptions campaign;
        campaign.session.uarch = name;
        campaign.session.mode = core::Mode::Kernel;
        Session session = engine.session(campaign.session);
        const auto &ua = session.machine().uarch();
        const auto &duel = ua.cacheConfig.l3Dueling;

        DuelingScanner scanner(session, duel.policyA, duel.policyB);
        DuelingPlan plan = scanner.plan(DuelingPlanOptions{});
        // plan() reserved the R14 area on the fresh session machine;
        // each worker reserves the same size once, so it gets the
        // same base and the planned addresses hold.
        Addr r14_size = plan.r14Size;
        campaign.machineSetup = [r14_size](core::Runner &runner) {
            if (!runner.reserveR14Area(r14_size))
                fatal("cannot reserve the set-dueling R14 area");
        };
        auto result = DuelingScanner::decode(
            plan, engine.runCampaign(plan.specs, campaign).outcomes);

        std::cout << "# E7: dedicated (leader) sets on " << name << " ("
                  << ua.cpu << ")\n";
        std::cout << "#   duel: A=" << duel.policyA
                  << "  B=" << duel.policyB << "\n";
        std::cout << result.summary() << "\n";
    }
    std::cout << "# Paper reference (SVI-D): IVB 512-575/768-831 in all "
                 "slices;\n"
              << "# HSW same sets in slice 0 only; BDW policy groups "
                 "crossed over slices 0/1.\n";
    return 0;
}
