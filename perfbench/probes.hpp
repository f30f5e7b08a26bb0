/**
 * @file
 * Timed calls into each layer's public entry points, made on a
 * workload's warmed end state after its outputs have been recorded.
 * Several probes change state (they fault pages in, reclaim, run
 * events), so nothing may read the fleet's outputs afterwards.
 */

#pragma once

#include <limits>

#include "host/fleet.hpp"

namespace perfbench
{

/** Per-call cost of each probed entry point; a probe that could not
 *  run leaves its cost NaN. */
struct ProbeCosts {
    static constexpr double NOT_RUN =
        std::numeric_limits<double>::quiet_NaN();
    double requestServerOfferNs = NOT_RUN;
    double trafficRateAtNs = NOT_RUN;
    double histogramAddNs = NOT_RUN;
    double rngNs = NOT_RUN;
    double eventScheduleRunNs = NOT_RUN;
    double psiTotalSomeReadNs = NOT_RUN;
    double idleBreakdownUs = NOT_RUN;
    /** Random hits in the critical working set. */
    double accessResidentNs = NOT_RUN;
    /** Hits in page-index order, as a region sweep makes them. */
    double accessSweepNs = NOT_RUN;
    double accessFaultNs = NOT_RUN;
    double tierMaintainUs = NOT_RUN;
    double reclaimNsPerPage = NOT_RUN;
};

/** Time every probe on host 0's first app of @p fleet. */
ProbeCosts runProbes(tmo::host::Fleet &fleet, std::uint64_t seed);

} // namespace perfbench
