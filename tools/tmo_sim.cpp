/**
 * @file
 * tmo_sim — command-line scenario driver.
 *
 * Runs one workload on a simulated host — or a sharded fleet of them —
 * under a chosen offload backend and controller, printing a per-minute
 * series and a final summary. Handy for exploring configurations
 * without writing code:
 *
 *   tmo_sim --app web --tiers zswap --controller senpai --minutes 60
 *   tmo_sim --app ads_b --tiers ssd --ssd-class B --csv
 *   tmo_sim --app web --tiers zswap+ssd@workingset  # §5.2 hierarchy
 *   tmo_sim --hosts 64 --jobs 8 --minutes 60        # fleet percentiles
 *   tmo_sim --tiers ssd --fault-plan faults.txt     # scripted bad day
 *   tmo_sim --hosts 16 --chaos 7                    # random faults/host
 *
 * With --hosts > 1 each host runs on its own shard clock (seeded by
 * host index) and the per-minute series switches to cross-host
 * percentiles; --jobs only changes wall-clock time, never the output.
 *
 * `tmo --help` lists every flag with its range and default.
 */

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "cli_options.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "host/fleet.hpp"
#include "stats/table.hpp"
#include "workload/app_profile.hpp"

using namespace tmo;

namespace
{

// --- per-host metrics (all read at epoch barriers) -----------------------

workload::AppModel &
primaryApp(host::Host &machine)
{
    return *machine.apps().front();
}

double
memPsiAvg60(host::Host &machine)
{
    return primaryApp(machine).cgroup().psi().some(psi::Resource::MEM)
               .avg60 *
           100.0;
}

double
ioPsiAvg60(host::Host &machine)
{
    return primaryApp(machine).cgroup().psi().some(psi::Resource::IO)
               .avg60 *
           100.0;
}

/** Every serving app's cumulative latency merged fleet-wide. */
stats::Histogram
fleetLatency(host::Fleet &fleet)
{
    return fleet.mergeHistograms(
        [](host::Host &machine)
            -> std::vector<const stats::Histogram *> {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
}

/** Restart outcome rows, once a restart policy is set. */
void
addRestartRows(stats::Table &table, host::Fleet &fleet)
{
    if (fleet.restartPolicy().maxAttempts == 0)
        return;
    table.addRow(
        {"hosts restarted", std::to_string(fleet.restartedCount())});
    table.addRow({"hosts permanently failed",
                  std::to_string(fleet.permanentlyFailedCount())});
}

void
printSingleHostMinute(host::Host &machine, int minute, bool csv,
                      bool serving)
{
    if (!csv && minute % 10 != 0)
        return;
    auto &app = primaryApp(machine);
    const double resident_mb =
        static_cast<double>(app.cgroup().memCurrent()) / (1 << 20);
    std::cout << minute << "," << stats::fmt(resident_mb, 1) << ","
              << stats::fmt(cli::savingsPct(machine), 2) << ","
              << stats::fmt(app.lastTick().completedRps, 0) << ","
              << stats::fmt(memPsiAvg60(machine), 4) << ","
              << stats::fmt(ioPsiAvg60(machine), 4) << ","
              << app.cgroup().stats().pswpin << ","
              << app.cgroup().stats().wsRefault;
    if (serving) {
        const auto &lat = app.requests().latencyUs;
        std::cout << "," << stats::fmt(lat.p50(), 1) << ","
                  << stats::fmt(lat.p99(), 1) << ","
                  << stats::fmt(lat.p999(), 1) << ","
                  << app.requests().dropped;
    }
    std::cout << "\n";
}

void
printFleetMinute(host::Fleet &fleet, int minute, bool csv,
                 bool serving)
{
    if (!csv && minute % 10 != 0)
        return;
    const auto savings = fleet.collect(cli::savingsPct);
    const auto pressure = fleet.collect(memPsiAvg60);
    const auto rps = fleet.collect([](host::Host &machine) {
        return primaryApp(machine).lastTick().completedRps;
    });
    std::uint64_t swapins = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i)
        swapins += primaryApp(fleet.host(i)).cgroup().stats().pswpin;
    // fmtQuantile prints "no data" once every host has failed —
    // collect() then returns an empty vector and indexing it (the old
    // values[0]-style read) would be out of bounds.
    std::cout << minute << "," << stats::fmtQuantile(savings, 0.5, 2)
              << "," << stats::fmtQuantile(savings, 0.9, 2) << ","
              << stats::fmtQuantile(savings, 0.99, 2) << ","
              << stats::fmtQuantile(rps, 0.5, 0) << ","
              << stats::fmtQuantile(pressure, 0.5, 4) << ","
              << stats::fmtQuantile(pressure, 0.9, 4) << ","
              << swapins;
    if (serving) {
        const auto lat = fleetLatency(fleet);
        std::cout << "," << stats::fmt(lat.p50(), 1) << ","
                  << stats::fmt(lat.p99(), 1) << ","
                  << stats::fmt(lat.p999(), 1);
    }
    std::cout << "\n";
}

void
printSingleHostSummary(host::Fleet &fleet, host::Host &machine,
                       const cli::TmoOptions &options,
                       const fault::FaultInjector *injector)
{
    auto &app = primaryApp(machine);
    const auto info = machine.memory().info(app.cgroup());
    stats::Table table("summary");
    table.setHeader({"metric", "value"});
    table.addRow({"app", options.app});
    table.addRow({"tiers", options.tiers});
    table.addRow({"controller", machine.controller()
                                    ? machine.controller()->name()
                                    : "none"});
    table.addRow({"allocated", stats::fmtBytes(static_cast<double>(
                                   app.allocatedBytes()))});
    table.addRow({"resident (DRAM)",
                  stats::fmtBytes(static_cast<double>(
                      info.residentBytes + info.zswapBytes))});
    table.addRow({"zswap pool", stats::fmtBytes(static_cast<double>(
                                    info.zswapBytes))});
    table.addRow({"swap/nvm used",
                  stats::fmtBytes(static_cast<double>(info.swapBytes))});
    table.addRow({"ssd bytes written",
                  stats::fmtBytes(static_cast<double>(
                      machine.ssd().bytesWritten()))});
    table.addRow({"oom events",
                  std::to_string(machine.memory().oomEvents())});
    if (app.servingRequests()) {
        const auto &req = app.requests();
        table.addRow({"requests offered", std::to_string(req.offered)});
        table.addRow(
            {"requests completed", std::to_string(req.completed)});
        table.addRow({"requests dropped", std::to_string(req.dropped)});
        table.addRow(
            {"req p50 us", stats::fmt(req.latencyUs.p50(), 1)});
        table.addRow(
            {"req p99 us", stats::fmt(req.latencyUs.p99(), 1)});
        table.addRow(
            {"req p999 us", stats::fmt(req.latencyUs.p999(), 1)});
    }
    if (machine.controller())
        for (const auto &[label, value] :
             machine.controller()->statsRow())
            table.addRow({label, value});
    if (injector)
        for (const auto &[label, value] : injector->statsRow())
            table.addRow({label, value});
    addRestartRows(table, fleet);
    table.print(std::cout);
}

void
printFleetSummary(host::Fleet &fleet, const cli::TmoOptions &options,
                  const fault::FleetFaultInjector &faults)
{
    const auto savings = fleet.collect(cli::savingsPct);
    const auto pressure = fleet.collect(memPsiAvg60);
    const auto rps_retention =
        fleet.collect([](host::Host &machine) {
            const auto &tick = primaryApp(machine).lastTick();
            return tick.completedRps / std::max(1.0, tick.offeredRps);
        });
    double ssd_written = 0.0;
    std::uint64_t ooms = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        ssd_written +=
            static_cast<double>(fleet.host(i).ssd().bytesWritten());
        ooms += fleet.host(i).memory().oomEvents();
    }
    stats::Table table("fleet summary");
    table.setHeader({"metric", "value"});
    table.addRow({"hosts", std::to_string(fleet.size())});
    table.addRow({"app", options.app});
    table.addRow({"tiers", options.tiers});
    table.addRow({"controller", fleet.host(0).controller()
                                    ? fleet.host(0).controller()->name()
                                    : "none"});
    // collect() is empty once every host has failed; fmtQuantile and
    // fmtQuantilePercent report "no data" instead of reading past the
    // end of an empty value set.
    table.addRow(
        {"savings% P50", stats::fmtQuantile(savings, 0.5, 2)});
    table.addRow(
        {"savings% P90", stats::fmtQuantile(savings, 0.9, 2)});
    table.addRow(
        {"savings% P99", stats::fmtQuantile(savings, 0.99, 2)});
    table.addRow({"mem PSI avg60% P50",
                  stats::fmtQuantile(pressure, 0.5, 4)});
    table.addRow({"mem PSI avg60% P90",
                  stats::fmtQuantile(pressure, 0.9, 4)});
    table.addRow({"rps retention P50",
                  stats::fmtQuantilePercent(rps_retention, 0.5, 1)});
    table.addRow({"ssd bytes written", stats::fmtBytes(ssd_written)});
    table.addRow({"oom events", std::to_string(ooms)});
    const auto fleet_lat = fleetLatency(fleet);
    if (fleet_lat.count() > 0) {
        // Fleet percentiles over every request served (merged
        // histograms), plus the spread of per-app p99s across hosts.
        table.addRow({"requests completed",
                      std::to_string(fleet_lat.count())});
        table.addRow({"req p50 us", stats::fmt(fleet_lat.p50(), 1)});
        table.addRow({"req p99 us", stats::fmt(fleet_lat.p99(), 1)});
        table.addRow({"req p999 us", stats::fmt(fleet_lat.p999(), 1)});
        const auto app_p99 = fleet.collect([](host::Host &machine) {
            return primaryApp(machine).requests().latencyUs.p99();
        });
        table.addRow({"per-app p99 us P50",
                      stats::fmtQuantile(app_p99, 0.5, 1)});
        table.addRow({"per-app p99 us P99",
                      stats::fmtQuantile(app_p99, 0.99, 1)});
    }
    table.addRow({"hosts failed", std::to_string(fleet.failedCount())});
    addRestartRows(table, fleet);
    if (!faults.empty()) {
        std::size_t degraded = 0;
        for (std::size_t i = 0; i < fleet.size(); ++i)
            if (fault::hostBackendStatus(fleet.host(i)) !=
                backend::BackendStatus::HEALTHY)
                ++degraded;
        const auto events =
            fleet.collect([](host::Host &machine) {
                return static_cast<double>(
                    fault::hostDegradationEvents(machine));
            });
        table.addRow({"hosts degraded", std::to_string(degraded)});
        table.addRow(
            {"faults injected", std::to_string(faults.injected())});
        table.addRow({"degradation events P50",
                      stats::fmtQuantile(events, 0.5, 0)});
        table.addRow({"degradation events P99",
                      stats::fmtQuantile(events, 0.99, 0)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    cli::TmoOptions options;
    const auto table = cli::tmoOptionTable(options);
    if (!table.parseCommandLine(argc, argv))
        return 2;
    const auto &run = options.run;

    host::Fleet fleet;
    try {
        fleet = options.fleetSpec().build();
    } catch (const std::invalid_argument &error) {
        return table.reject(error.what());
    }
    run.configure(fleet);
    fleet.start();

    // Fault delivery: the scripted plan applies to every host; --chaos
    // layers a per-host random plan (seed mixed with the host index)
    // on top. Injection rides each host's own shard clock, so results
    // stay bit-identical for any --jobs.
    std::vector<fault::FaultPlan> plans(fleet.size(), options.faultPlan);
    if (options.chaosSeed)
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            const auto chaos = fault::FaultPlan::random(
                *options.chaosSeed + (i + 1) * 0x9e3779b97f4a7c15ull,
                run.duration());
            plans[i].events.insert(plans[i].events.end(),
                                   chaos.events.begin(),
                                   chaos.events.end());
        }
    const fault::FleetFaultInjector faults(fleet, std::move(plans));

    const bool fleet_mode = fleet.size() > 1;
    const bool serving = !options.traceRps.empty();
    if (options.csv) {
        std::cout << (fleet_mode
                          ? "minute,savings_p50,savings_p90,"
                            "savings_p99,rps_p50,mem_psi_p50,"
                            "mem_psi_p90,swapins_total"
                          : "minute,resident_mb,savings_pct,rps,"
                            "mem_psi_avg60,io_psi_avg60,swapins,"
                            "refaults");
        if (serving)
            std::cout << (fleet_mode
                              ? ",req_p50_us,req_p99_us,req_p999_us"
                              : ",req_p50_us,req_p99_us,req_p999_us,"
                                "req_dropped");
        std::cout << "\n";
    }
    for (int minute = 1; minute <= run.minutes; ++minute) {
        fleet.run(static_cast<sim::SimTime>(minute) * sim::MINUTE,
                  run.jobs);
        if (fleet_mode)
            printFleetMinute(fleet, minute, options.csv, serving);
        else
            printSingleHostMinute(fleet.host(0), minute, options.csv,
                                  serving);
    }

    if (!options.csv) {
        if (fleet_mode)
            printFleetSummary(fleet, options, faults);
        else
            printSingleHostSummary(fleet, fleet.host(0), options,
                                   faults.host(0));
    }

    try {
        run.writeOutputs(fleet);
    } catch (const std::runtime_error &error) {
        std::cerr << "tmo_sim: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
