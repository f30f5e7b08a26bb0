#include "host/controller_registry.hpp"

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baseline/gswap.hpp"
#include "core/controller.hpp"
#include "core/slo_controller.hpp"
#include "core/tmo_daemon.hpp"

namespace tmo::host
{

namespace
{

core::SenpaiConfig
senpaiBase(bool aggressive, const ControllerOptions &options)
{
    auto config = aggressive ? core::senpaiAggressiveConfig()
                             : core::senpaiProductionConfig();
    config.source = options.source;
    if (options.psiThreshold > 0.0)
        config.psiThreshold = options.psiThreshold;
    if (options.ioPsiThreshold > 0.0)
        config.ioPsiThreshold = options.ioPsiThreshold;
    if (options.reclaimRatio > 0.0)
        config.reclaimRatio = options.reclaimRatio;
    if (options.maxProbeRatio > 0.0)
        config.maxProbeRatio = options.maxProbeRatio;
    return config;
}

std::unique_ptr<core::Controller>
makeSenpaiPerApp(Host &host, const core::SenpaiConfig &config,
                 const std::string &label)
{
    auto composite = std::make_unique<core::CompositeController>(label);
    for (const auto &app : host.apps())
        composite->add(std::make_unique<core::Senpai>(
            host.simulation(), host.memory(), app->cgroup(), config));
    return composite;
}

using Builder = std::unique_ptr<core::Controller> (*)(
    Host &, const ControllerOptions &);

struct Entry {
    const char *name;
    Builder build;
};

const Entry REGISTRY[] = {
    {"none",
     [](Host &, const ControllerOptions &)
         -> std::unique_ptr<core::Controller> { return nullptr; }},
    {"senpai",
     [](Host &host, const ControllerOptions &options)
         -> std::unique_ptr<core::Controller> {
         return makeSenpaiPerApp(host, senpaiBase(false, options),
                                 "senpai");
     }},
    {"senpai-aggressive",
     [](Host &host, const ControllerOptions &options)
         -> std::unique_ptr<core::Controller> {
         return makeSenpaiPerApp(host, senpaiBase(true, options),
                                 "senpai-aggressive");
     }},
    {"senpai-slo",
     [](Host &host, const ControllerOptions &options)
         -> std::unique_ptr<core::Controller> {
         auto composite =
             std::make_unique<core::CompositeController>("senpai-slo");
         core::SloConfig slo;
         if (options.sloP99Us > 0.0)
             slo.p99TargetUs = options.sloP99Us;
         for (const auto &app : host.apps()) {
             // The probe holds a plain pointer: the host owns both
             // the apps and the controller, and tears the controller
             // down first.
             workload::AppModel *model = app.get();
             composite->add(std::make_unique<core::SloSenpai>(
                 host.simulation(), host.memory(), model->cgroup(),
                 senpaiBase(false, options), slo,
                 [model] { return model->windowP99Us(); }));
         }
         return composite;
     }},
    {"tmo",
     [](Host &host, const ControllerOptions &options)
         -> std::unique_ptr<core::Controller> {
         auto daemon = std::make_unique<core::TmoDaemon>(
             host.simulation(), host.memory(),
             senpaiBase(false, options));
         for (const auto &app : host.apps())
             daemon->manage(app->cgroup());
         return daemon;
     }},
    {"gswap",
     [](Host &host, const ControllerOptions &)
         -> std::unique_ptr<core::Controller> {
         auto composite =
             std::make_unique<core::CompositeController>("gswap");
         for (const auto &app : host.apps())
             composite->add(std::make_unique<baseline::GswapController>(
                 host.simulation(), host.memory(), app->cgroup()));
         return composite;
     }},
};

/** An override must be finite and >= 0 (0 keeps the default); a
 *  ratio (PSI thresholds are fractions of wall time) must also be
 *  <= 1. */
void
checkOverride(const char *field, double value, bool ratio)
{
    if (std::isfinite(value) && value >= 0.0 && (!ratio || value <= 1.0))
        return;
    std::ostringstream message;
    message << "controller option " << field << " must be finite and "
            << (ratio ? "in [0, 1]" : ">= 0")
            << " (0 = config default), got " << value;
    throw std::invalid_argument(message.str());
}

} // namespace

ControllerFactory
controllerFactoryFor(const std::string &name, ControllerOptions options)
{
    checkOverride("psiThreshold", options.psiThreshold, true);
    checkOverride("ioPsiThreshold", options.ioPsiThreshold, true);
    checkOverride("reclaimRatio", options.reclaimRatio, true);
    checkOverride("maxProbeRatio", options.maxProbeRatio, true);
    checkOverride("sloP99Us", options.sloP99Us, false);
    for (const auto &entry : REGISTRY) {
        if (name != entry.name)
            continue;
        const Builder build = entry.build;
        return [build, options](Host &host) {
            return build(host, options);
        };
    }
    std::string known;
    for (const auto &entry : REGISTRY)
        known += (known.empty() ? "" : "|") + std::string(entry.name);
    throw std::invalid_argument("unknown controller: " + name +
                                " (expected " + known + ")");
}

} // namespace tmo::host
