/**
 * @file
 * Name → controller factory registry.
 *
 * tools/tmo_sim, FleetSpec, and tests pick controllers by name; the
 * registry is the single place that knows how to assemble each policy
 * for a host, so callers dispatch purely through core::Controller with
 * no per-controller branching. A factory runs after the host's
 * containers exist and builds one policy instance per container (or a
 * daemon managing all of them).
 */

#pragma once

#include <string>

#include "core/senpai.hpp"
#include "host/fleet_spec.hpp"

namespace tmo::host
{

/** Cross-cutting knobs a CLI can thread into any named controller;
 *  0 keeps the config default. controllerFactoryFor() rejects NaN,
 *  inf, negatives, and ratios (PSI thresholds included) above 1. */
struct ControllerOptions {
    /** >0 overrides the Senpai-family PSI threshold. */
    double psiThreshold = 0.0;
    /** >0 overrides the Senpai-family IO-pressure guard threshold. */
    double ioPsiThreshold = 0.0;
    /** >0 overrides the Senpai-family base reclaim step fraction. */
    double reclaimRatio = 0.0;
    /** >0 overrides the Senpai-family per-interval step cap. */
    double maxProbeRatio = 0.0;
    /** Pressure reading for Senpai-family controllers. AVG60 is the
     *  stable choice at small simulated scales. */
    core::PressureSource source = core::PressureSource::AVG60;
    /** >0 overrides the senpai-slo p99 latency target (µs). */
    double sloP99Us = 0.0;
};

/**
 * Factory for a named controller:
 *   none              no controller (factory yields nullptr)
 *   senpai            one production-config Senpai per container
 *   senpai-aggressive one config-"B" Senpai per container
 *   senpai-slo        one SLO-gated Senpai per container, fed by the
 *                     app's request-latency window (request serving
 *                     enabled; plain senpai behaviour otherwise)
 *   tmo               TmoDaemon, priority-scaled per container
 *   gswap             one g-swap baseline per container
 * Throws std::invalid_argument for an unknown name or an out-of-range
 * @p options field, naming the field.
 */
ControllerFactory controllerFactoryFor(const std::string &name,
                                       ControllerOptions options = {});

} // namespace tmo::host
