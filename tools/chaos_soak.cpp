/**
 * @file
 * chaos_soak — randomized fault-plan soak runner.
 *
 * Runs N seeds, each a small fleet under a per-host random FaultPlan
 * (FaultPlan::random), and asserts the process survives: no crash, no
 * uncaught exception escaping the fleet engine's per-host isolation.
 * Prints one summary row per seed — seed, faults injected, savings,
 * degradation events, failed hosts — so a soak doubles as a quick
 * degradation-vs-savings scan.
 *
 *   chaos_soak --runs 8 --minutes 10 --hosts 2
 *
 * With --trace/--metrics-out each seed writes its own file, the seed
 * number inserted before the extension (soak.jsonl -> soak.3.jsonl),
 * so a failing seed's event history is on disk when it escapes.
 *
 * `chaos_soak --help` lists every flag with its range and default;
 * --storm (a crash storm) and --restart-max (self-healing) are the
 * knobs the recovery scenarios use.
 *
 * Exit status: 0 when every seed completed with no permanently failed
 * host and a clean audit; 1 otherwise (per-host errors and audit
 * violations go to stderr); 2 for a rejected command line.
 */

#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "cli_options.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_auditor.hpp"
#include "host/fleet.hpp"
#include "stats/table.hpp"

using namespace tmo;

int
main(int argc, char **argv)
{
    cli::SoakOptions options;
    if (!cli::soakOptionTable(options).parseCommandLine(argc, argv))
        return 2;
    const auto &run = options.run;
    const auto duration = run.duration();

    stats::Table table("chaos soak");
    table.setHeader({"seed", "faults", "savings% avg",
                     "degradation events", "hosts failed",
                     "restarted", "perm failed"});

    bool escaped = false;
    bool unhealed = false;
    for (std::uint64_t i = 0; i < options.runs; ++i) {
        const std::uint64_t seed = run.seed + i;
        try {
            auto fleet = host::FleetSpec{}
                             .hosts(run.hosts)
                             .name_prefix("soak")
                             .ram_mb(512)
                             .page_kb(64)
                             .seed(seed)
                             .tiers("ssd")
                             .workload("feed", 256)
                             .controller("senpai")
                             .build();
            run.configure(fleet);
            if (options.audit)
                fleet.enableInvariantAudit(fault::auditHost);
            fleet.start();

            std::vector<fault::FaultPlan> plans;
            for (std::size_t h = 0; h < fleet.size(); ++h) {
                auto plan = fault::FaultPlan::random(
                    seed + (h + 1) * 0x9e3779b97f4a7c15ull, duration);
                if (options.storm) {
                    // The crash-storm scenario: every host dies
                    // outright mid-run and loses its controller
                    // later if it came back.
                    plan.events.push_back(
                        {static_cast<sim::SimTime>(
                             0.3 * static_cast<double>(duration)),
                         fault::FaultKind::HOST_CRASH, 0.0});
                    plan.events.push_back(
                        {static_cast<sim::SimTime>(
                             0.55 * static_cast<double>(duration)),
                         fault::FaultKind::CONTROLLER_CRASH, 20.0});
                }
                plans.push_back(std::move(plan));
            }
            const fault::FleetFaultInjector faults(fleet,
                                                   std::move(plans));

            fleet.run(duration, run.jobs);

            std::uint64_t degradation = 0;
            double savings = 0.0;
            for (std::size_t h = 0; h < fleet.size(); ++h) {
                degradation +=
                    fault::hostDegradationEvents(fleet.host(h));
                savings += cli::savingsPct(fleet.host(h));
            }
            savings /= static_cast<double>(fleet.size());

            table.addRow({std::to_string(seed),
                          std::to_string(faults.injected()),
                          stats::fmt(savings, 2),
                          std::to_string(degradation),
                          std::to_string(fleet.failedCount()),
                          std::to_string(fleet.restartedCount()),
                          std::to_string(
                              fleet.permanentlyFailedCount())});

            if (fleet.permanentlyFailedCount() > 0) {
                unhealed = true;
                for (std::size_t h = 0; h < fleet.size(); ++h)
                    if (fleet.hostFailed(h))
                        std::cerr << "chaos_soak: seed " << seed
                                  << ": " << fleet.host(h).name()
                                  << " permanently failed: "
                                  << fleet.hostError(h) << "\n";
            }
            if (!fleet.auditViolations().empty()) {
                unhealed = true;
                for (const auto &violation :
                     fleet.auditViolations())
                    std::cerr << "chaos_soak: seed " << seed
                              << ": invariant violated: "
                              << violation << "\n";
            }

            run.writeOutputs(fleet, std::to_string(seed));
        } catch (const std::exception &error) {
            escaped = true;
            std::cerr << "chaos_soak: seed " << seed
                      << " escaped: " << error.what() << "\n";
        }
    }
    table.print(std::cout);
    return escaped || unhealed ? 1 : 0;
}
