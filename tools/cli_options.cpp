#include "cli_options.hpp"

#include <algorithm>
#include <iostream>
#include <utility>

#include "obs/export.hpp"

namespace tmo::cli
{

namespace
{

/** Worker threads a run may ask for; each one is an OS thread. */
constexpr unsigned MAX_JOBS = 1024;
/** A simulated leap year bounds every duration flag, so converting
 *  one to SimTime (nanoseconds) cannot wrap. */
constexpr int MAX_MINUTES = 366 * 24 * 60;
constexpr int MAX_SECONDS = MAX_MINUTES * 60;
/** Per-host trace ring; the ring is allocated up front. */
constexpr std::uint64_t MAX_TRACE_BUFFER_MB = 1024;

/** soak.jsonl + "3" -> soak.3.jsonl (a suffix when no extension). */
std::string
taggedPath(const std::string &path, const std::string &tag)
{
    if (tag.empty())
        return path;
    const auto dot = path.rfind('.');
    const auto slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

} // namespace

Option
text(std::string name, std::string metavar, std::string help,
     std::string &target)
{
    if (!target.empty())
        help += " [" + target + "]";
    return {std::move(name), std::move(metavar), std::move(help),
            [&target](std::string_view value) { target = value; }};
}

Option
toggle(std::string name, std::string help, bool &target, bool value)
{
    return {std::move(name), "", std::move(help),
            [&target, value](std::string_view) { target = value; }};
}

bool
OptionTable::parse(int argc, const char *const *argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return false;
        const Option *option = nullptr;
        for (const auto &candidate : options)
            if (candidate.name == arg)
                option = &candidate;
        if (!option)
            throw OptionError("unknown flag: " + std::string(arg));
        if (!option->metavar.empty() && i + 1 >= argc)
            throw OptionError("missing value for " + option->name);
        try {
            option->set(option->metavar.empty() ? "" : argv[++i]);
        } catch (const std::logic_error &error) {
            throw OptionError(option->name + ": " + error.what());
        }
    }
    return true;
}

bool
OptionTable::parseCommandLine(int argc, const char *const *argv) const
{
    try {
        if (parse(argc, argv))
            return true;
        std::cerr << usage();
    } catch (const OptionError &error) {
        reject(error.what());
    }
    return false;
}

int
OptionTable::reject(const std::string &message) const
{
    std::cerr << program << ": " << message << "\n" << usage();
    return 2;
}

std::string
OptionTable::usage() const
{
    std::string out = "usage: " + program + " [flags]\n";
    for (const auto &option : options) {
        std::string flag = "  " + option.name;
        if (!option.metavar.empty())
            flag += " " + option.metavar;
        flag.resize(std::max<std::size_t>(flag.size() + 1, 28), ' ');
        out += flag + option.help + "\n";
    }
    return out + "  --help, -h                this text\n";
}

double
savingsPct(host::Host &machine)
{
    auto &app = *machine.apps().front();
    if (!app.allocatedBytes())
        return 0.0;
    return 100.0 *
           (1.0 - static_cast<double>(app.cgroup().memCurrent()) /
                      static_cast<double>(app.allocatedBytes()));
}

sim::SimTime
RunOptions::duration() const
{
    return static_cast<sim::SimTime>(minutes) * sim::MINUTE;
}

void
RunOptions::configure(host::Fleet &fleet) const
{
    if (!traceFile.empty())
        fleet.enableTracing(static_cast<std::size_t>(traceBufferMb)
                            << 20);
    if (!metricsFile.empty())
        fleet.enableMetrics(
            static_cast<sim::SimTime>(metricsIntervalSec) * sim::SEC);
    if (restartMax > 0) {
        host::RestartPolicy policy;
        policy.maxAttempts = restartMax;
        policy.backoff =
            static_cast<sim::SimTime>(restartBackoffSec) * sim::SEC;
        fleet.setRestartPolicy(policy);
    }
}

void
RunOptions::writeOutputs(host::Fleet &fleet, const std::string &tag) const
{
    if (!traceFile.empty())
        obs::writeTraceFile(taggedPath(traceFile, tag), fleet.traces());
    if (!metricsFile.empty()) {
        const auto merged = fleet.metricSeries();
        std::vector<const stats::TimeSeries *> series;
        series.reserve(merged.size());
        for (const auto &s : merged)
            series.push_back(&s);
        obs::writeMetricsFile(taggedPath(metricsFile, tag), series);
    }
}

host::FleetSpec
TmoOptions::fleetSpec() const
{
    host::HostConfig base_config;
    base_config.zswap.compressor =
        backend::compressorPreset(zswapCompressor);
    base_config.zswap.allocator = backend::allocatorPreset(zswapAllocator);
    // "cxl" anywhere in the chain picks the CXL-DRAM NVM preset.
    const bool wants_cxl = tiers.find("cxl") != std::string::npos;
    auto spec =
        host::FleetSpec{}
            .config(base_config)
            .hosts(run.hosts)
            .epoch(static_cast<sim::SimTime>(epochSec) * sim::SEC)
            .name_prefix("cli")
            .ram_mb(ramMb)
            .page_kb(pageKb)
            .ssd_class(ssdClass)
            .nvm_preset(wants_cxl ? "cxl-dram" : "optane")
            .seed(run.seed)
            .tiers(tiers)
            .workload(app, footprintMb)
            .controller(host::controllerFactoryFor(controller,
                                                   controllerOptions));
    if (!traceRps.empty())
        spec.traffic(traceRps);
    return spec;
}

std::vector<Option>
withRunOptions(std::vector<Option> options, RunOptions &run)
{
    options.insert(options.end(), {
        number("--minutes", "simulated duration", run.minutes, 1,
               MAX_MINUTES),
        number("--hosts", "fleet size", run.hosts, std::size_t{1}),
        number("--jobs", "worker threads for the fleet engine", run.jobs,
               1u, MAX_JOBS),
        number("--seed", "RNG seed", run.seed),
        text("--trace", "FILE",
             "write the merged event trace (.jsonl/.csv, else Chrome "
             "trace-event JSON)",
             run.traceFile),
        number("--trace-buffer-mb", "per-host trace ring capacity (MiB)",
               run.traceBufferMb, std::uint64_t{1}, MAX_TRACE_BUFFER_MB),
        text("--metrics-out", "FILE",
             "write sampled metric series (.jsonl, else CSV)",
             run.metricsFile),
        number("--metrics-interval-sec", "metric sampling period",
               run.metricsIntervalSec, 1, MAX_SECONDS),
        number("--restart-max", "rebuild a failed host up to N times",
               run.restartMax),
        number("--restart-backoff-sec",
               "first-restart backoff (doubles per repeat)",
               run.restartBackoffSec, 0, MAX_SECONDS),
    });
    return options;
}

OptionTable
tmoOptionTable(TmoOptions &o)
{
    auto &controller = o.controllerOptions;
    std::vector<Option> options = {
        text("--app", "NAME", "workload preset", o.app),
        number("--footprint-mb", "workload footprint (MiB)", o.footprintMb),
        number("--ram-mb", "host DRAM (MiB)", o.ramMb),
        number("--page-kb", "simulated page size (KiB)", o.pageKb),
        text("--tiers", "SPEC",
             "anon tier chain, fastest first (zswap:256mb+ssd, "
             "zswap+ssd@workingset; none = no anon offload)",
             o.tiers),
        {"--ssd-class", "C", "SSD device class A-G [C]",
         [&o](std::string_view value) {
             if (value.size() != 1)
                 throw std::invalid_argument("'" + std::string(value) +
                                             "' is not one letter");
             o.ssdClass = value[0];
         }},
        text("--zswap-compressor", "NAME", "lzo|lz4|zstd",
             o.zswapCompressor),
        text("--zswap-allocator", "NAME", "zbud|z3fold|zsmalloc",
             o.zswapAllocator),
        text("--controller", "NAME",
             "none|senpai|senpai-aggressive|senpai-slo|tmo|gswap",
             o.controller),
        number("--psi-threshold", "Senpai pressure target (0 = default)",
               controller.psiThreshold),
        number("--io-psi-threshold",
               "Senpai IO-pressure guard (0 = default)",
               controller.ioPsiThreshold),
        number("--reclaim-ratio", "Senpai base reclaim step (0 = default)",
               controller.reclaimRatio),
        number("--max-probe-ratio",
               "Senpai per-interval step cap (0 = default)",
               controller.maxProbeRatio),
        text("--trace-rps", "SPEC",
             "open-loop request traffic, e.g. "
             "diurnal:rps=2000,amp=0.6,period-min=60",
             o.traceRps),
        number("--slo-p99-us", "senpai-slo p99 target (0 = default)",
               controller.sloP99Us),
        number("--epoch-sec", "lockstep barrier period", o.epochSec, 1,
               MAX_SECONDS),
        {"--fault-plan", "FILE",
         "scripted faults for every host (t=<sec> kind=<event> arg=<v>)",
         [&o](std::string_view path) {
             o.faultPlan = fault::FaultPlan::fromFile(std::string(path));
         }},
        {"--chaos", "SEED", "add a random per-host fault plan from SEED",
         [&o](std::string_view value) {
             o.chaosSeed = parseNumber<std::uint64_t>(value);
         }},
        toggle("--csv", "machine-readable per-minute series", o.csv),
    };
    return {"tmo_sim", withRunOptions(std::move(options), o.run)};
}

OptionTable
soakOptionTable(SoakOptions &o)
{
    std::vector<Option> options = {
        number("--runs", "seeds to soak", o.runs, std::uint64_t{1}),
        toggle("--storm",
               "add a host crash and a controller crash to every plan",
               o.storm),
        toggle("--no-audit", "skip the per-epoch invariant audit", o.audit,
               false),
    };
    return {"chaos_soak", withRunOptions(std::move(options), o.run)};
}

} // namespace tmo::cli
