#include "fault/fault_injector.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "backend/swap_backend.hpp"
#include "backend/zswap.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace tmo::fault
{

namespace
{

constexpr double MIB = 1024.0 * 1024.0;

std::uint64_t
mib(double value)
{
    return static_cast<std::uint64_t>(std::max(0.0, value) * MIB);
}

} // namespace

backend::BackendStatus
hostBackendStatus(host::Host &machine)
{
    auto status = backend::worseStatus(machine.swap().status(),
                                       machine.zswap().status());
    // Chains fold in offline tiers and dedicated (capped) pools the
    // host singletons above do not cover.
    for (const tier::TierChain *chain : machine.chains())
        status = backend::worseStatus(status, chain->status());
    return status;
}

std::uint64_t
hostDegradationEvents(host::Host &machine)
{
    std::uint64_t events = machine.swap().storeErrors() +
                           machine.swap().loadErrors() +
                           machine.zswap().rejectedPages();
    // Dedicated per-chain pools reject independently of the host
    // singleton; each owned pool lives in exactly one chain, so this
    // never double-counts.
    for (tier::TierChain *chain : machine.chains())
        for (std::size_t i = 0; i < chain->size(); ++i)
            if (auto *pool = dynamic_cast<backend::ZswapPool *>(
                    chain->tier(i)))
                if (pool != &machine.zswap())
                    events += pool->rejectedPages();
    return events;
}

FaultInjector::FaultInjector(host::Host &machine, FaultPlan plan)
    : host_(machine), plan_(std::move(plan))
{}

void
FaultInjector::arm()
{
    if (armed_)
        return;
    armed_ = true;
    auto &sim = host_.simulation();
    for (const auto &event : plan_.events) {
        const sim::SimTime at = std::max(event.at, sim.now());
        sim.at(at, [this, event] { apply(event); });
    }
}

void
FaultInjector::apply(const FaultEvent &event)
{
    ++injected_;
    ++perKind_[static_cast<std::size_t>(event.kind)];

    auto &sim = host_.simulation();
    if (auto *ring = host_.trace()) {
        // SSD_ONLINE / TIER_ONLINE are the plan events that undo a
        // fault.
        const auto type = event.kind == FaultKind::SSD_ONLINE ||
                                  event.kind == FaultKind::TIER_ONLINE
                              ? obs::TraceEventType::FAULT_RECOVER
                              : obs::TraceEventType::FAULT_INJECT;
        ring->record(sim.now(), type,
                     static_cast<std::uint8_t>(event.kind), 0,
                     {event.arg});
    }
    switch (event.kind) {
      case FaultKind::SSD_LATENCY:
        host_.ssd().injectLatencyMultiplier(std::max(1.0, event.arg));
        break;
      case FaultKind::SSD_WEAR:
        host_.ssd().injectWearFraction(std::max(0.0, event.arg));
        break;
      case FaultKind::SSD_WRITE_ERROR:
        host_.ssd().setWriteErrorRate(
            std::clamp(event.arg, 0.0, 1.0));
        break;
      case FaultKind::SSD_OFFLINE:
        host_.ssd().setOffline(true);
        break;
      case FaultKind::SSD_ONLINE:
        host_.ssd().setOffline(false);
        host_.ssd().injectLatencyMultiplier(1.0);
        host_.ssd().setWriteErrorRate(0.0);
        break;
      case FaultKind::ZSWAP_CAP:
        host_.zswap().setMaxPoolBytes(mib(event.arg));
        break;
      case FaultKind::ZSWAP_STALL:
        host_.zswap().setStallUs(std::max(0.0, event.arg));
        break;
      case FaultKind::SWAP_EXHAUST: {
        auto &swap = host_.swap();
        const double fraction = std::clamp(event.arg, 0.0, 1.0);
        const auto shrunk = static_cast<std::uint64_t>(
            fraction * static_cast<double>(swap.capacityBytes()));
        swap.setCapacityBytes(std::max<std::uint64_t>(shrunk, 4096));
        break;
      }
      case FaultKind::CONTROLLER_CRASH:
        if (host_.controllerFactory()) {
            // With a rebuild recipe installed the crash destroys the
            // daemon object and the host's watchdog re-creates it
            // from the factory once the outage elapses (self-healing
            // path; the watchdog records CONTROLLER start itself).
            host_.crashController(
                sim::fromSeconds(std::max(0.0, event.arg)));
            break;
        }
        [[fallthrough]];
      case FaultKind::CONTROLLER_STALL: {
        core::Controller *controller = host_.controller();
        if (!controller)
            break;
        controller->stop();
        // A stall (or a factory-less crash) silences the control loop
        // but keeps the object; the restart models systemd bringing
        // the daemon back after `arg` seconds.
        const auto outage =
            sim::fromSeconds(std::max(0.0, event.arg));
        const auto kind = event.kind;
        sim.after(outage, [this, kind] {
            if (auto *c = host_.controller()) {
                if (auto *ring = host_.trace())
                    ring->record(host_.simulation().now(),
                                 obs::TraceEventType::FAULT_RECOVER,
                                 static_cast<std::uint8_t>(kind), 0);
                c->start();
            }
        });
        break;
      }
      case FaultKind::RAM_SHRINK: {
        const std::uint64_t cap = host_.memory().ramCapacity();
        const std::uint64_t loss = mib(event.arg);
        host_.memory().setRamBytes(cap > loss ? cap - loss : 0);
        break;
      }
      case FaultKind::TIER_OFFLINE:
      case FaultKind::TIER_ONLINE: {
        // Applied to every chain on the host: the plan names a tier
        // position, not a specific container's chain. The timestamped
        // overload engages evacuation (offline) and the gradual
        // readmission ramp (online).
        const auto index =
            static_cast<std::size_t>(std::max(0.0, event.arg));
        const bool offline = event.kind == FaultKind::TIER_OFFLINE;
        for (tier::TierChain *chain : host_.chains())
            if (index < chain->size())
                chain->setTierOffline(index, offline, sim.now());
        break;
      }
      case FaultKind::HOST_CRASH:
        // Thrown out of the shard's event loop: the fleet engine
        // catches it, quarantines the shard, and — with a
        // RestartPolicy — rebuilds the host at a later epoch
        // boundary. The FAULT_INJECT trace record above is the last
        // event this incarnation writes.
        throw std::runtime_error("host-crash fault injected");
    }
}

void
FaultInjector::carryCounts(const FaultInjector &previous)
{
    injected_ += previous.injected_;
    for (std::size_t k = 0; k < perKind_.size(); ++k)
        perKind_[k] += previous.perKind_[k];
}

core::StatsRow
FaultInjector::statsRow() const
{
    core::StatsRow rows;
    rows.emplace_back("faults injected", std::to_string(injected_));
    rows.emplace_back("backend status",
                      backend::backendStatusName(
                          hostBackendStatus(host_)));
    rows.emplace_back("degradation events",
                      std::to_string(hostDegradationEvents(host_)));
    return rows;
}

FleetFaultInjector::FleetFaultInjector(host::Fleet &fleet,
                                       std::vector<FaultPlan> plans)
    : plans_(std::move(plans)), injectors_(plans_.size())
{
    for (std::size_t i = 0; i < plans_.size(); ++i)
        if (!plans_[i].empty())
            arm(i, fleet.host(i), plans_[i]);
    fleet.onHostRestart([this, &fleet](std::size_t i,
                                       host::Host &machine) {
        if (plans_[i].empty())
            return;
        FaultPlan rest;
        for (const auto &event : plans_[i].events)
            if (event.at > fleet.now())
                rest.events.push_back(event);
        arm(i, machine, std::move(rest));
    });
}

void
FleetFaultInjector::arm(std::size_t i, host::Host &machine,
                        FaultPlan plan)
{
    auto next = std::make_unique<FaultInjector>(machine, std::move(plan));
    if (injectors_[i])
        next->carryCounts(*injectors_[i]);
    next->arm();
    injectors_[i] = std::move(next);
}

bool
FleetFaultInjector::empty() const
{
    return std::all_of(injectors_.begin(), injectors_.end(),
                       [](const auto &injector) { return !injector; });
}

std::uint64_t
FleetFaultInjector::injected() const
{
    std::uint64_t total = 0;
    for (const auto &injector : injectors_)
        if (injector)
            total += injector->injected();
    return total;
}

} // namespace tmo::fault
