/**
 * @file
 * Delivers a FaultPlan into one host.
 *
 * The injector schedules every plan event on the host's own shard
 * clock (sim::Simulation), so injection composes with the fleet
 * engine's determinism guarantee: for a given seed and plan the run is
 * bit-identical for any `--jobs N`, because a shard's event stream
 * never depends on other shards or on wall-clock. Injection is
 * one-way — faults mutate backend/device/controller state; recovery
 * happens either through explicit plan events (ssd-online) or through
 * the graceful-degradation paths the faults exercise.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/backend.hpp"
#include "core/controller.hpp"
#include "fault/fault_plan.hpp"
#include "host/fleet.hpp"
#include "host/host.hpp"

namespace tmo::fault
{

/** Worst status across a host's anon offload backends (swap + zswap). */
backend::BackendStatus hostBackendStatus(host::Host &machine);

/** Total backend degradation events a host has absorbed: swap IO
 *  errors (store + load) plus zswap store rejections. */
std::uint64_t hostDegradationEvents(host::Host &machine);

/** Schedules one FaultPlan onto one host's simulation clock. */
class FaultInjector
{
  public:
    /**
     * @param machine The target host (must outlive the injector).
     * @param plan The schedule to deliver.
     */
    FaultInjector(host::Host &machine, FaultPlan plan);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Schedule every plan event on the host's event queue (events
     * whose time already passed fire immediately). Idempotent.
     */
    void arm();

    /** Events injected so far. */
    std::uint64_t injected() const { return injected_; }

    /** Events injected so far of one kind. */
    std::uint64_t
    injectedOf(FaultKind kind) const
    {
        return perKind_[static_cast<std::size_t>(kind)];
    }

    /** Telemetry rows for summary tables (fault + degradation
     *  counters, current backend status). */
    core::StatsRow statsRow() const;

    /** Add @p previous's counts to this injector's: the host this
     *  injector serves is a rebuilt incarnation of @p previous's. */
    void carryCounts(const FaultInjector &previous);

  private:
    void apply(const FaultEvent &event);

    host::Host &host_;
    FaultPlan plan_;
    bool armed_ = false;
    std::uint64_t injected_ = 0;
    std::array<std::uint64_t, NUM_FAULT_KINDS> perKind_{};
};

/**
 * Delivers plans[i] to fleet host i (an empty plan arms nothing),
 * across host restarts: a rebuilt host resumes its plan with the
 * events after Fleet::now(), since arm() fires past events at once and
 * would replay the crash that killed it. A host's counts carry over
 * from one incarnation to the next. The fleet must not run() after
 * this object dies: its restart hook holds `this`.
 */
class FleetFaultInjector
{
  public:
    FleetFaultInjector(host::Fleet &fleet, std::vector<FaultPlan> plans);

    FleetFaultInjector(const FleetFaultInjector &) = delete;
    FleetFaultInjector &operator=(const FleetFaultInjector &) = delete;

    /** Host @p i's current injector, counting every incarnation;
     *  nullptr when its plan is empty. */
    const FaultInjector *
    host(std::size_t i) const
    {
        return injectors_[i].get();
    }

    /** True when no host has a plan. */
    bool empty() const;

    /** Events injected fleet-wide, every incarnation of every host. */
    std::uint64_t injected() const;

  private:
    void arm(std::size_t i, host::Host &machine, FaultPlan plan);

    std::vector<FaultPlan> plans_;
    std::vector<std::unique_ptr<FaultInjector>> injectors_;
};

} // namespace tmo::fault
