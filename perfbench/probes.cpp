#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "mem/memory_manager.hpp"
#include "psi/psi.hpp"
#include "sim/rng.hpp"
#include "stats/histogram.hpp"
#include "workload/request_gen.hpp"

namespace perfbench
{

using namespace tmo;

namespace
{

using Clock = std::chrono::steady_clock;

/** Keeps probe results observable so the calls are not elided. */
volatile double g_sink = 0.0;

double
elapsedNs(Clock::time_point since)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - since)
        .count();
}

/** Median over @p rounds of the per-call cost of @p calls calls. */
template <typename Fn>
double
nsPerCall(std::size_t calls, Fn &&fn, int rounds = 5)
{
    std::vector<double> costs;
    for (int r = 0; r < rounds; ++r) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < calls; ++i)
            fn(i);
        costs.push_back(elapsedNs(start) / static_cast<double>(calls));
    }
    std::nth_element(costs.begin(), costs.begin() + rounds / 2,
                     costs.end());
    return costs[static_cast<std::size_t>(rounds / 2)];
}

/**
 * Live pages of @p cg. Resident pages come as one run in page-index
 * order from a random start, the order a region sweep touches them;
 * non-resident pages (in zswap, in swap or evicted file pages, each of
 * which an access faults in) come shuffled.
 */
std::vector<mem::PageIdx>
pagesOf(const mem::MemoryManager &mm, const cgroup::Cgroup &cg,
        bool resident, std::size_t limit, sim::Rng &rng)
{
    const auto memcg = mm.memcgOf(cg).index;
    std::vector<mem::PageIdx> out;
    const auto &pages = mm.pages();
    for (mem::PageIdx i = 0; i < pages.size(); ++i) {
        const auto &page = pages[i];
        if (page.memcg != memcg)
            continue;
        const bool offloaded = page.where == mem::Where::ZSWAP ||
                               page.where == mem::Where::SWAP ||
                               page.where == mem::Where::FS;
        if (resident ? page.resident() : offloaded)
            out.push_back(i);
    }
    if (out.size() <= limit)
        return out;
    if (resident) {
        const auto first = rng.uniformInt(out.size() - limit + 1);
        return {out.begin() + static_cast<std::ptrdiff_t>(first),
                out.begin() + static_cast<std::ptrdiff_t>(first + limit)};
    }
    for (std::size_t i = out.size(); i > 1; --i)
        std::swap(out[i - 1], out[rng.uniformInt(i)]);
    out.resize(limit);
    return out;
}

/** Up to @p count resident pages of @p cg, most recently touched
 *  first (the head of its age list). */
std::vector<mem::PageIdx>
hotSet(const mem::MemoryManager &mm, const cgroup::Cgroup &cg,
       std::size_t count)
{
    std::vector<mem::PageIdx> out;
    const auto &pages = mm.pages();
    for (auto idx = mm.memcgOf(cg).ages.head();
         idx != mem::NO_PAGE && out.size() < count;
         idx = pages[idx].ageNext)
        if (pages[idx].resident())
            out.push_back(idx);
    return out;
}

} // namespace

ProbeCosts
runProbes(host::Fleet &fleet, std::uint64_t seed)
{
    ProbeCosts costs;
    auto &machine = fleet.host(0);
    auto &app = *machine.apps().front();
    auto &cg = app.cgroup();
    auto &mm = machine.memory();
    auto &simulation = machine.simulation();
    const sim::SimTime now = simulation.now();
    sim::Rng rng(seed ^ 0x70726f6265ull);

    // --- read-only probes ------------------------------------------------
    const auto &profile = app.profile();
    {
        workload::RequestServer server(profile.threads,
                                       profile.traffic.queueLimit);
        const auto service = static_cast<sim::SimTime>(
            profile.cpuUsPerRequest * sim::USEC);
        // Arrivals at the workload's mean rate (or 1000/s without a
        // traffic curve), precomputed so only offer() is timed.
        const double rate =
            profile.traffic.enabled() ? profile.traffic.baseRps : 1000.0;
        std::vector<sim::SimTime> arrivals(1 << 16);
        sim::SimTime cursor = now;
        for (auto &t : arrivals) {
            cursor += std::max<sim::SimTime>(
                1, static_cast<sim::SimTime>(rng.exponential(1.0 / rate) *
                                             sim::SEC));
            t = cursor;
        }
        costs.requestServerOfferNs = nsPerCall(arrivals.size(), [&](auto i) {
            g_sink = g_sink + static_cast<double>(
                                  server.offer(arrivals[i], service).latency);
        }, 1);
    }
    costs.trafficRateAtNs = nsPerCall(1 << 16, [&](std::size_t i) {
        g_sink = g_sink + profile.traffic.rateAt(
                              now + static_cast<sim::SimTime>(i) *
                                        sim::MSEC);
    });
    {
        stats::Histogram hist = app.requests().latencyUs;
        std::vector<double> values(4096);
        for (auto &v : values)
            v = rng.lognormalMedianP99(400.0, 4.0);
        costs.histogramAddNs = nsPerCall(1 << 16, [&](std::size_t i) {
            hist.add(values[i & 4095]);
        });
        g_sink = g_sink + static_cast<double>(hist.count());
    }
    {
        sim::Rng draw(seed);
        const auto bound = std::max<std::uint64_t>(mm.pages().size(), 2);
        costs.rngNs = nsPerCall(1 << 18, [&](std::size_t) {
            g_sink = g_sink + static_cast<double>(draw.uniformInt(bound));
        });
    }
    costs.psiTotalSomeReadNs = nsPerCall(1 << 14, [&](std::size_t) {
        g_sink = g_sink + static_cast<double>(
                              cg.psi().totalSome(psi::Resource::MEM, now));
    });
    costs.idleBreakdownUs =
        nsPerCall(1, [&](std::size_t) {
            g_sink = g_sink + mm.idleBreakdown(cg, now).cold;
        }) /
        1e3;

    // --- state-changing probes -------------------------------------------
    // Events scheduled at the current time on the host's own warmed
    // queue; runUntil(now) drains them without advancing the clock.
    costs.eventScheduleRunNs = nsPerCall(1024, [&](std::size_t) {
        for (int k = 0; k < 64; ++k)
            simulation.at(now, [] { g_sink = g_sink + 1.0; });
        simulation.runUntil(now);
    }) / 64.0;

    // Requests of the last tick touched pages at arrival times up to a
    // tick past the clock; probing later keeps every access on the
    // age list's in-order fast path, as during the run.
    const sim::SimTime later = now + 2 * sim::SEC;
    // Critical touches pick random pages of the critical working set:
    // probe them on the most recently touched resident pages, as many
    // as the profile's critical regions hold.
    double critical_fraction = 0.0;
    for (const auto &region : profile.regions)
        if (region.critical)
            critical_fraction += region.fraction;
    const auto hot = hotSet(
        mm, cg,
        static_cast<std::size_t>(critical_fraction *
                                 static_cast<double>(
                                     profile.footprintBytes) /
                                 mm.pageBytes()));
    if (!hot.empty()) {
        std::vector<mem::PageIdx> picks(1 << 16);
        for (auto &p : picks)
            p = hot[rng.uniformInt(hot.size())];
        costs.accessResidentNs = nsPerCall(picks.size(), [&](auto i) {
            g_sink = g_sink +
                     static_cast<double>(mm.access(picks[i], later).memStall);
        });
    }
    const auto sweep = pagesOf(mm, cg, true, 1 << 16, rng);
    if (!sweep.empty())
        costs.accessSweepNs = nsPerCall(sweep.size(), [&](auto i) {
            g_sink = g_sink +
                     static_cast<double>(mm.access(sweep[i], later).memStall);
        }, 1);

    costs.tierMaintainUs =
        nsPerCall(1, [&](std::size_t) {
            g_sink = g_sink + static_cast<double>(
                                  mm.tierMaintain(cg, later).movedBytes);
        }) /
        1e3;

    // Reclaim a twentieth of the cgroup's memory in page-batch calls.
    // It runs before the fault probe so that non-resident pages exist
    // even on a workload whose run never reclaimed.
    const std::uint64_t page = mm.pageBytes();
    const std::uint64_t target = cg.memCurrent() / 20;
    std::uint64_t reclaimed = 0;
    const auto start = Clock::now();
    while (reclaimed < target) {
        const auto got = mm.reclaim(cg, 32 * page, later).reclaimedBytes;
        if (got == 0)
            break;
        reclaimed += got;
    }
    const double ns = elapsedNs(start);
    if (reclaimed > 0)
        costs.reclaimNsPerPage =
            ns / static_cast<double>(reclaimed / page);

    const auto nonresident = pagesOf(mm, cg, false, 1 << 14, rng);
    if (!nonresident.empty())
        costs.accessFaultNs = nsPerCall(nonresident.size(), [&](auto i) {
            g_sink = g_sink + static_cast<double>(
                                  mm.access(nonresident[i], later).memStall);
        }, 1);
    return costs;
}

} // namespace perfbench
