#include "host/fleet_spec.hpp"

#include <stdexcept>
#include <string>

#include "host/controller_registry.hpp"
#include "host/fleet.hpp"

namespace tmo::host
{

namespace
{

/** @p mb MiB in bytes; a named error for 0 or a wrapping size. */
std::uint64_t
mibToBytes(const char *what, std::uint64_t mb)
{
    constexpr std::uint64_t limit = std::uint64_t{1} << 44;
    if (mb == 0 || mb >= limit)
        throw std::invalid_argument(
            std::string(what) + " must be in [1, " +
            std::to_string(limit - 1) + "] MiB, got " +
            std::to_string(mb));
    return mb << 20;
}

} // namespace

HostBuilder &
HostBuilder::ram_mb(std::uint64_t mb)
{
    config_.mem.ramBytes = mibToBytes("ram_mb: RAM size", mb);
    return *this;
}

HostBuilder &
HostBuilder::workload(const std::string &preset,
                      std::uint64_t footprint_mb)
{
    const std::uint64_t footprint =
        mibToBytes("workload: footprint", footprint_mb);
    workload::AppProfile profile;
    try {
        profile = workload::appPreset(preset, footprint);
    } catch (const std::invalid_argument &) {
        // Sidecar/tax presets share the vocabulary.
        profile = workload::sidecarPreset(preset, footprint);
    }
    AppSpec spec;
    spec.profile = std::move(profile);
    apps_.push_back(std::move(spec));
    return *this;
}

HostBuilder &
HostBuilder::controller(const std::string &name)
{
    controller_ = controllerFactoryFor(name);
    return *this;
}

std::vector<AppSpec>
HostBuilder::resolvedApps() const
{
    std::vector<AppSpec> apps = apps_;
    for (auto &app : apps) {
        // Request-serving apps inherit the builder's traffic curve;
        // background services (no offered load) keep ticking as-is.
        if (traffic_.enabled() && app.profile.offeredRps > 0.0 &&
            !app.profile.traffic.enabled())
            app.profile.traffic = traffic_;
        if (!app.tiers)
            app.tiers = defaultTiers_;
    }
    return apps;
}

Fleet
FleetSpec::build() const
{
    Fleet fleet;
    fleet.setEpoch(epoch_);
    fleet.setRestartPolicy(restart_);
    for (std::size_t i = 0; i < hosts_; ++i) {
        HostBuilder builder = proto_;
        if (builder.hostName().empty())
            builder.name(prefix_ + std::to_string(i));
        if (customize_)
            customize_(i, builder);
        fleet.addHost(builder);
    }
    return fleet;
}

} // namespace tmo::host
