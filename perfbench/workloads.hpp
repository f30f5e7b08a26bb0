/**
 * @file
 * The benchmark's workloads: each one is a fleet recipe built through
 * host::FleetSpec exactly as the tmo CLI builds it, plus what the
 * benchmark does between slices.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/fleet.hpp"
#include "sim/time.hpp"

namespace perfbench
{

/** Fleet::run is called once per slice: one Senpai interval. The
 *  fleet's epoch (FleetSpec's one-minute default) is longer, so the
 *  executor barrier falls once per slice. */
inline constexpr tmo::sim::SimTime SLICE = 6 * tmo::sim::SEC;

/** Metric sampling interval in dashboard mode. */
inline constexpr tmo::sim::SimTime DASHBOARD_INTERVAL = 10 * tmo::sim::SEC;

/** One named workload recipe. */
struct Workload {
    std::string name;
    /** One line: why the workload exists. */
    std::string why;
    /** src/ layers the workload stresses and the ones it bypasses. */
    std::vector<std::string> stresses;
    std::vector<std::string> bypasses;

    std::size_t hosts = 1;
    /** Simulated length of one repetition (one fresh fleet). */
    tmo::sim::SimTime repLength = tmo::sim::MINUTE;
    /** Dashboard mode: metric sampling every 10 s, Fleet::collect and
     *  Fleet::mergeHistograms after every slice, and the sampled series
     *  exported at the end of the repetition (inside the timed region). */
    bool dashboard = false;

    /** Whether hosts serve open-loop request traffic (else the
     *  closed-form RPS model runs). */
    bool serving() const { return !traffic.empty(); }

    /** Build the fleet for workload seed @p seed, with @p repLength
     *  as the diurnal period where the recipe has one. */
    tmo::host::Fleet build(std::uint64_t seed) const;

    /** The equivalent tmo CLI command line for seed @p seed. */
    std::string recipe(std::uint64_t seed) const;

    // Recipe parameters, kept for build() and the printed recipe.
    std::string app;
    std::uint64_t footprintMb = 1024;
    std::uint64_t ramMb = 2048;
    std::uint64_t pageKb = 64;
    std::string tiers;
    std::string controller;
    /** Traffic spec; a diurnal curve gets repLength as its period. */
    std::string traffic;
};

/** Every workload; @p quick shortens each repetition for self-tests. */
std::vector<Workload> allWorkloads(bool quick);

} // namespace perfbench
