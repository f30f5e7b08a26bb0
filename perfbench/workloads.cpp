#include "workloads.hpp"

#include "backend/zswap.hpp"
#include "host/controller_registry.hpp"
#include "workload/request_gen.hpp"

namespace perfbench
{

using namespace tmo;

host::Fleet
Workload::build(std::uint64_t seed) const
{
    // The same FleetSpec chain tools/tmo_sim.cpp assembles from its
    // flags, with the CLI's zswap compressor/allocator defaults.
    host::HostConfig base;
    base.zswap.compressor = backend::compressorPreset("zstd");
    base.zswap.allocator = backend::allocatorPreset("zsmalloc");
    auto spec = host::FleetSpec{}
                    .config(base)
                    .hosts(hosts)
                    .name_prefix("cli")
                    .ram_mb(ramMb)
                    .page_kb(pageKb)
                    .ssd_class('C')
                    .nvm_preset("optane")
                    .seed(seed)
                    .workload(app, footprintMb)
                    .controller(host::controllerFactoryFor(controller))
                    .tiers(tiers);
    if (!traffic.empty()) {
        auto curve = workload::TrafficSpec::parse(traffic);
        if (curve.kind == workload::TrafficSpec::Kind::DIURNAL)
            curve.period = repLength;
        spec.traffic(curve);
    }
    auto fleet = spec.build();
    if (dashboard)
        fleet.enableMetrics(DASHBOARD_INTERVAL);
    return fleet;
}

std::string
Workload::recipe(std::uint64_t seed) const
{
    const auto minutes = std::to_string(repLength / sim::MINUTE);
    std::string out = "tmo --app " + app + " --footprint-mb " +
                      std::to_string(footprintMb) + " --ram-mb " +
                      std::to_string(ramMb) + " --page-kb " +
                      std::to_string(pageKb) + " --tiers " + tiers +
                      " --controller " + controller;
    if (!traffic.empty()) {
        out += " --trace-rps " + traffic;
        if (traffic.rfind("diurnal:", 0) == 0)
            out += ",period-min=" + minutes;
    }
    // The CLI's --epoch-sec at the slice length gives the same executor
    // barrier cadence as the benchmark's one Fleet::run per slice.
    out += " --hosts " + std::to_string(hosts) + " --jobs 1 --epoch-sec " +
           std::to_string(SLICE / sim::SEC) + " --minutes " + minutes +
           " --seed " + std::to_string(seed);
    if (dashboard)
        out += " --metrics-interval-sec " +
               std::to_string(DASHBOARD_INTERVAL / sim::SEC) +
               " --metrics-out <memory>";
    return out;
}

std::vector<Workload>
allWorkloads(bool quick)
{
    std::vector<Workload> all;

    Workload serving;
    serving.name = "serving";
    serving.why = "realistic serving recipe: tiered hosts under Senpai "
                  "with one diurnal swing of open-loop requests";
    serving.stresses = {"workload", "mem", "stats", "sim"};
    serving.bypasses = {"host", "obs"};
    serving.hosts = 8;
    serving.repLength = (quick ? 1 : 10) * sim::MINUTE;
    serving.app = "feed";
    serving.tiers = "zswap:256mb+ssd";
    serving.controller = "senpai";
    serving.traffic = "diurnal:rps=2000,amp=0.6";
    all.push_back(serving);

    Workload pressure;
    pressure.name = "pressure";
    pressure.why = "memory-bound hosts with no request traffic: page "
                   "access, LRU/age lists, reclaim and tier stores at "
                   "1M pages per host";
    pressure.stresses = {"mem", "tier", "backend", "core", "psi"};
    pressure.bypasses = {"workload", "stats", "host", "obs"};
    pressure.hosts = 4;
    pressure.repLength = (quick ? 2 : 60) * sim::MINUTE;
    pressure.app = "web";
    pressure.footprintMb = 4096;
    pressure.ramMb = 3072;
    pressure.pageKb = 4;
    pressure.tiers = "zswap:256mb+ssd";
    pressure.controller = "senpai-aggressive";
    all.push_back(pressure);

    Workload fleet;
    fleet.name = "fleet";
    fleet.why = "256 small hosts: hierarchical aggregation and metric "
                "sampling/export carry the cost; no page reaches a tier";
    fleet.stresses = {"host", "sim", "obs", "stats"};
    fleet.bypasses = {"tier", "backend"};
    fleet.hosts = 256;
    fleet.repLength = (quick ? 1 : 10) * sim::MINUTE;
    fleet.dashboard = true;
    fleet.app = "feed";
    fleet.footprintMb = 96;
    fleet.ramMb = 128;
    fleet.tiers = "zswap+ssd";
    fleet.controller = "senpai";
    fleet.traffic = "flat:rps=30";
    all.push_back(fleet);

    return all;
}

} // namespace perfbench
