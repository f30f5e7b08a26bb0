/**
 * @file
 * tmo_bench — the end-to-end simulator benchmark.
 *
 *   tmo_bench --workload serving|pressure|fleet [--seed N] [--seconds S]
 *             [--trace 0|1] [--quick] [--git-sha SHA] [--spans-out FILE]
 *             [--describe]
 *
 * One benchmark thread runs a closed loop of repetitions. Each repetition
 * builds a fresh fleet for the workload (FleetSpec::build +
 * Fleet::start, timed as set-up), then advances it with Fleet::run in
 * 6 s simulated slices (one Senpai interval), each slice issued when
 * the previous one returns. Repetitions continue until their timed
 * wall time reaches --seconds (at least three). Every repetition of
 * one seed does the same work and must produce the same outputs.
 * Throughput is total work over total timed wall time, slice times pool
 * every repetition's slices, and set-up is the median over fleets built
 * between the repetitions.
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 alternates
 * untraced and traced repetitions: a traced one advances each slice in
 * 1 s steps so it can sum every app tick, records a span around every
 * call the benchmark makes into a layer, and is followed by probes that
 * time each layer's entry points on the warmed end state. It prints
 * the per-layer metrics. --describe prints the context and the
 * workload's recipe and exits.
 *
 * Every report ends with one JSON line:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * where attempted counts host runs and failed counts hosts that failed
 * or broke a fault::auditHost invariant.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/invariant_auditor.hpp"
#include "host/fleet.hpp"
#include "core/senpai.hpp"
#include "obs/export.hpp"
#include "probes.hpp"
#include "stats/timeseries.hpp"
#include "workloads.hpp"

#ifndef TMO_BENCH_BUILD_TYPE
#define TMO_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef TMO_BENCH_COMPILER
#define TMO_BENCH_COMPILER "unknown"
#endif

using namespace tmo;
using perfbench::SLICE;
using perfbench::Workload;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> values)
{
    return stats::exactQuantile(std::move(values), 0.5);
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics that are 0 by construction on @p w. */
std::vector<std::string>
notApplicable(const Workload &w)
{
    std::vector<std::string> out;
    // No metric sampling, and no collect or merge inside the timed region.
    if (!w.dashboard)
        out.insert(out.end(), {"obs.metric_series_ms", "obs.export_ms",
                               "obs.export_bytes", "obs.est_busy_frac",
                               "host.est_busy_frac"});
    // The closed-form RPS model queues, drops and samples no request.
    if (!w.serving())
        out.insert(out.end(),
                   {"workload.request_drop_frac", "stats.est_busy_frac"});
    return out;
}

/**
 * Why metric @p name cannot be reported, or "" when it can: every
 * value must be finite, a metric in @p na must be 0, and a measured
 * cost (a probe, a span, a busy fraction) must be above 0, since 0
 * means it was skipped.
 */
std::string
brokenReason(const std::string &name, double value, const std::string &unit,
             const std::vector<std::string> &na)
{
    if (!std::isfinite(value))
        return "not finite (a probe that could not run)";
    const bool is_na = std::find(na.begin(), na.end(), name) != na.end();
    if (is_na)
        return value == 0.0 ? "" : "not applicable here but not 0";
    const bool cost = unit == "ns" || unit == "us" || unit == "ms" ||
                      name.find(".est_busy_frac") != std::string::npos;
    return cost && !(value > 0.0) ? "a measured cost that is not above 0"
                                  : "";
}

// --- spans ------------------------------------------------------------------

/** One benchmark-side span around a call into a layer. */
struct Span {
    std::string name;
    int parent = -1;
    int rep = 0;
    double startS = 0.0;
    double endS = 0.0;
    double ms() const { return (endS - startS) * 1e3; }
};

/** Spans kept in memory, written out when the benchmark ends. */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    int
    open(const std::string &name)
    {
        Span span;
        span.name = name;
        span.parent = stack_.empty() ? -1 : stack_.back();
        span.rep = rep_;
        span.startS = secondsSince(origin_);
        spans_.push_back(span);
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].endS = secondsSince(origin_);
        stack_.pop_back();
    }

    void setRep(int rep) { rep_ = rep; }

    /** Whether @p span has an ancestor named @p name. */
    bool
    within(const Span &span, const std::string &name) const
    {
        for (int p = span.parent; p >= 0;
             p = spans_[static_cast<std::size_t>(p)].parent)
            if (spans_[static_cast<std::size_t>(p)].name == name)
                return true;
        return false;
    }
    const std::vector<Span> &spans() const { return spans_; }

    /** Durations (ms) of every span named @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const auto &span : spans_)
            if (span.name == name)
                out.push_back(span.ms());
        return out;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto &s = spans_[i];
            out << "{\"id\":" << i << ",\"parent\":" << s.parent
                << ",\"rep\":" << s.rep << ",\"name\":\"" << s.name
                << "\",\"start_s\":" << obs::formatDouble(s.startS)
                << ",\"end_s\":" << obs::formatDouble(s.endS) << "}\n";
        }
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    int rep_ = 0;
};

/** RAII span; a no-op without a tracer (untraced repetitions). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name)
        : tracer_(tracer), id_(tracer ? tracer->open(name) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

// --- simulated outputs -------------------------------------------------------

/** Named, deterministic outputs of one repetition. */
struct Outputs {
    /** Ordered name -> printed value; diffed across commits. */
    std::vector<std::pair<std::string, std::string>> checks;
    std::uint64_t digest = 0;
    std::size_t failedHosts = 0;
    std::size_t auditViolations = 0;
    bool conserved = true;
    double requestsCompleted = 0.0;
    // Cumulative counters, summed over hosts (per-layer metrics).
    double offered = 0.0;
    double dropped = 0.0;
    double pgscan = 0.0, pgsteal = 0.0;
    double zswpout = 0.0, zswpin = 0.0, pswpout = 0.0, pswpin = 0.0;
    double demote = 0.0, promote = 0.0, storeRejects = 0.0;
    double ssdWriteBytes = 0.0;
    double senpaiRequestedBytes = 0.0;
    double psiMemSomeNs = 0.0;
};

/** Counts summed from AppModel::lastTick() after every app tick. */
struct TickSums {
    double touches = 0.0;
    double criticalTouches = 0.0;
    double faults = 0.0;
    double refaults = 0.0;
    double offered = 0.0;
    double completed = 0.0;
    double ticks = 0.0;

    void
    add(host::Fleet &fleet, double tick_s)
    {
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            if (fleet.hostFailed(i))
                continue;
            for (const auto &app : fleet.host(i).apps()) {
                const auto &t = app->lastTick();
                touches += static_cast<double>(t.touches);
                criticalTouches += static_cast<double>(t.criticalTouches);
                faults += static_cast<double>(t.faults);
                refaults += static_cast<double>(t.refaults);
                offered += t.offeredRps * tick_s;
                completed += t.completedRps * tick_s;
                ticks += 1.0;
            }
        }
    }
};

void
fnv(std::uint64_t &h, const std::string &bytes)
{
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream out;
    out << std::hex << v;
    return out.str();
}

double
savingsPct(host::Host &machine)
{
    auto &app = *machine.apps().front();
    if (!app.allocatedBytes())
        return 0.0;
    return 100.0 * (1.0 - static_cast<double>(app.cgroup().memCurrent()) /
                              static_cast<double>(app.allocatedBytes()));
}

double
memPsiAvg60(host::Host &machine)
{
    return machine.apps().front()->cgroup().psi().some(psi::Resource::MEM)
               .avg60 *
           100.0;
}

stats::Histogram
fleetLatency(host::Fleet &fleet)
{
    return fleet.mergeHistograms(
        [](host::Host &machine) -> std::vector<const stats::Histogram *> {
            std::vector<const stats::Histogram *> hists;
            for (const auto &app : machine.apps())
                if (app->servingRequests())
                    hists.push_back(&app->requests().latencyUs);
            return hists;
        });
}

/** Bytes every Senpai under @p controller asked memory.reclaim for. */
double
senpaiRequested(core::Controller *controller)
{
    if (const auto *senpai = dynamic_cast<core::Senpai *>(controller))
        return static_cast<double>(senpai->totalRequested());
    double sum = 0.0;
    if (auto *composite =
            dynamic_cast<core::CompositeController *>(controller))
        for (std::size_t i = 0; i < composite->size(); ++i)
            sum += senpaiRequested(&composite->part(i));
    return sum;
}

/** Record the repetition's outputs (untimed, after the last slice). */
Outputs
recordOutputs(host::Fleet &fleet, const Workload &w,
              double closed_form_completed, Tracer *tracer)
{
    Outputs out;
    std::vector<double> savings;
    {
        Scope span(tracer, "host.collect");
        savings = fleet.collect(savingsPct);
    }
    stats::Histogram latency;
    {
        Scope span(tracer, "host.merge_histograms");
        latency = fleetLatency(fleet);
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        if (fleet.hostFailed(i)) {
            ++out.failedHosts;
            continue;
        }
        auto &machine = fleet.host(i);
        std::vector<std::string> violations;
        {
            Scope span(tracer, "fault.audit_host");
            violations = fault::auditHost(machine);
        }
        if (!violations.empty()) {
            ++out.auditViolations;
            std::cerr << "tmo_bench: audit " << machine.name() << ": "
                      << violations.front() << "\n";
        }
        for (const auto &app : machine.apps()) {
            auto &cg = app->cgroup();
            const auto &vm = cg.stats();
            out.pgscan += static_cast<double>(vm.pgscan);
            out.pgsteal += static_cast<double>(vm.pgsteal);
            out.zswpout += static_cast<double>(vm.zswpout);
            out.zswpin += static_cast<double>(vm.zswpin);
            out.pswpout += static_cast<double>(vm.pswpout);
            out.pswpin += static_cast<double>(vm.pswpin);
            out.demote += static_cast<double>(vm.tierDemote);
            out.promote += static_cast<double>(vm.tierPromote);
            out.storeRejects += static_cast<double>(
                machine.memory().memcgOf(cg).storeRejects);
            out.psiMemSomeNs += static_cast<double>(
                cg.psi().totalSome(psi::Resource::MEM, fleet.now()));
            const auto &req = app->requests();
            out.offered += static_cast<double>(req.offered);
            out.dropped += static_cast<double>(req.dropped);
            out.requestsCompleted += static_cast<double>(req.completed);
            if (req.offered != req.completed + req.dropped)
                out.conserved = false;
        }
        out.ssdWriteBytes +=
            static_cast<double>(machine.ssd().bytesWritten());
        out.senpaiRequestedBytes += senpaiRequested(machine.controller());
    }
    if (!w.serving())
        out.requestsCompleted = closed_form_completed;

    const auto fmtq = [&](double q) {
        return savings.empty() ? std::string("no-data")
                               : obs::formatDouble(
                                     stats::exactQuantile(savings, q));
    };
    const auto num = [](double v) { return obs::formatDouble(v); };
    auto &c = out.checks;
    c.emplace_back("hosts", std::to_string(fleet.size()));
    c.emplace_back("sim_seconds", num(sim::toSeconds(fleet.now())));
    c.emplace_back("failed_hosts", std::to_string(out.failedHosts));
    c.emplace_back("audit_violation_hosts",
                   std::to_string(out.auditViolations));
    if (w.serving()) {
        c.emplace_back("requests_offered", num(out.offered));
        c.emplace_back("requests_completed", num(out.requestsCompleted));
        c.emplace_back("requests_dropped", num(out.dropped));
        c.emplace_back("requests_in_flight",
                       num(out.offered - out.requestsCompleted -
                           out.dropped));
        c.emplace_back("sim_p50_us", num(latency.p50()));
        c.emplace_back("sim_p99_us", num(latency.p99()));
        c.emplace_back("sim_p999_us", num(latency.p999()));
    } else {
        // Closed-form RPS model: completed requests sampled at slice
        // ends (last tick's rate x slice length).
        c.emplace_back("requests_completed", num(out.requestsCompleted));
    }
    c.emplace_back("savings_pct_p50", fmtq(0.5));
    c.emplace_back("savings_pct_p90", fmtq(0.9));
    c.emplace_back("pgscan", num(out.pgscan));
    c.emplace_back("pgsteal", num(out.pgsteal));
    c.emplace_back("tier_demoted", num(out.demote));
    c.emplace_back("tier_promoted", num(out.promote));
    c.emplace_back("zswpout", num(out.zswpout));
    c.emplace_back("pswpout", num(out.pswpout));
    c.emplace_back("ssd_bytes_written", num(out.ssdWriteBytes));

    // Digest: every check plus per-host values in host-index order.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &[name, value] : c)
        fnv(h, name + "=" + value + ";");
    for (const double v : savings)
        fnv(h, num(v) + ",");
    const auto current = fleet.collect([](host::Host &machine) {
        double sum = 0.0;
        for (const auto &app : machine.apps())
            sum += static_cast<double>(app->cgroup().memCurrent());
        return sum;
    });
    for (const double v : current)
        fnv(h, num(v) + ",");
    out.digest = h;
    c.emplace_back("digest", hex(h));
    return out;
}

// --- repetitions ---------------------------------------------------------------

struct Rep {
    bool traced = false;
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<double> sliceMs;
    Outputs outputs;
    TickSums ticks;
    double exportBytes = 0.0;
    std::optional<host::Fleet> fleet;
};

/** Bytes written through a stream, without keeping them. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof()))
            return traits_type::not_eof(ch);
        ++bytes;
        return ch;
    }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::uint64_t>(n);
        return n;
    }
};

Rep
runRep(const Workload &w, std::uint64_t seed, unsigned jobs,
       Tracer *tracer)
{
    Rep rep;
    rep.traced = tracer != nullptr;
    {
        Scope span(tracer, "host.fleet_spec_build");
        rep.fleet.emplace(w.build(seed));
    }
    auto &fleet = *rep.fleet;
    {
        Scope span(tracer, "host.fleet_start");
        fleet.start();
    }

    const double tick_s = sim::toSeconds(sim::SEC);
    double closed_form_completed = 0.0;
    const auto slices = w.repLength / SLICE;
    const double cpu0 = cpuSeconds();
    const auto wall0 = Clock::now();
    std::optional<Scope> timed_span(std::in_place, tracer, "timed");
    for (sim::SimTime s = 1; s <= slices; ++s) {
        const auto slice_start = Clock::now();
        {
            Scope slice_span(tracer, "slice");
            if (tracer) {
                // 1 s steps (the app tick) so every tick is summed.
                for (sim::SimTime t_end = (s - 1) * SLICE + sim::SEC;
                     t_end <= s * SLICE; t_end += sim::SEC) {
                    {
                        Scope span(tracer, "host.fleet_run");
                        fleet.run(t_end, jobs);
                    }
                    rep.ticks.add(fleet, tick_s);
                }
            } else {
                fleet.run(s * SLICE, jobs);
            }
            if (w.dashboard) {
                {
                    Scope span(tracer, "host.collect");
                    stats::exactQuantile(fleet.collect(savingsPct), 0.5);
                }
                {
                    Scope span(tracer, "host.collect");
                    stats::exactQuantile(fleet.collect(memPsiAvg60), 0.9);
                }
                {
                    Scope span(tracer, "host.merge_histograms");
                    fleetLatency(fleet);
                }
            }
            if (!w.serving())
                for (std::size_t i = 0; i < fleet.size(); ++i)
                    closed_form_completed +=
                        fleet.host(i).apps().front()->lastTick()
                            .completedRps *
                        sim::toSeconds(SLICE);
        }
        rep.sliceMs.push_back(secondsSince(slice_start) * 1e3);
    }
    if (w.dashboard) {
        std::vector<stats::TimeSeries> merged;
        {
            Scope span(tracer, "obs.metric_series");
            merged = fleet.metricSeries();
        }
        std::vector<const stats::TimeSeries *> series;
        for (const auto &s : merged)
            series.push_back(&s);
        CountingBuf buf;
        std::ostream out(&buf);
        {
            Scope span(tracer, "obs.export");
            obs::writeMetricsJsonl(out, series);
        }
        rep.exportBytes = static_cast<double>(buf.bytes);
    }
    timed_span.reset();
    rep.wallS = secondsSince(wall0);
    rep.cpuS = cpuSeconds() - cpu0;
    rep.outputs = recordOutputs(fleet, w, closed_form_completed, tracer);
    return rep;
}

/** Wall seconds of FleetSpec::build + Fleet::start for a fresh fleet. */
double
timeSetup(const Workload &w, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    host::Fleet fleet = w.build(seed);
    fleet.start();
    return secondsSince(t0);
}

// --- report -------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

void
usage()
{
    std::cerr << "usage: tmo_bench --workload serving|pressure|fleet "
                 "[--seed N] [--seconds S] [--trace 0|1] [--quick]\n"
                 "                 [--git-sha SHA] [--spans-out FILE] "
                 "[--describe]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 42;
    double seconds = 25.0;
    bool traced = false;
    bool quick = false;
    bool describe = false;
    std::string git_sha = "unknown";
    std::string spans_out;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--quick" || flag == "--describe") {
                (flag == "--quick" ? quick : describe) = true;
                continue;
            }
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + flag);
            const std::string value = argv[++i];
            if (flag == "--workload")
                workload_name = value;
            else if (flag == "--seed")
                seed = std::stoull(value);
            else if (flag == "--seconds")
                seconds = std::stod(value);
            else if (flag == "--trace")
                traced = std::stoi(value) != 0;
            else if (flag == "--git-sha")
                git_sha = value;
            else if (flag == "--spans-out")
                spans_out = value;
            else
                throw std::invalid_argument("unknown flag " + flag);
        }
    } catch (const std::exception &error) {
        std::cerr << "tmo_bench: " << error.what() << "\n";
        usage();
        return 2;
    }
    const auto workloads = perfbench::allWorkloads(quick);
    const Workload *found = nullptr;
    for (const auto &w : workloads)
        if (w.name == workload_name)
            found = &w;
    if (!found || !(seconds > 0.0)) {
        std::cerr << "tmo_bench: unknown workload '" << workload_name
                  << "' or bad --seconds\n";
        usage();
        return 2;
    }
    const Workload &w = *found;

    std::cout << "context nproc=" << std::thread::hardware_concurrency()
              << "\ncontext cpu_model=" << cpuModel()
              << "\ncontext compiler=" << TMO_BENCH_COMPILER
              << "\ncontext build_type=" << TMO_BENCH_BUILD_TYPE
              << "\ncontext git_sha=" << git_sha << "\n";
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release =
        std::strcmp(TMO_BENCH_BUILD_TYPE, "Release") == 0;
#endif
    if (!release) {
        std::cerr << "tmo_bench: refusing to report timings from a "
                  << TMO_BENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    std::cout << "workload " << w.name << " seed=" << seed
              << " trace=" << (traced ? 1 : 0) << "\nrecipe "
              << w.recipe(seed) << "\nwhy " << w.why << "\nstresses ";
    for (std::size_t i = 0; i < w.stresses.size(); ++i)
        std::cout << (i ? "," : "") << w.stresses[i];
    std::cout << "\nbypasses ";
    for (std::size_t i = 0; i < w.bypasses.size(); ++i)
        std::cout << (i ? "," : "") << w.bypasses[i];
    std::cout << "\n" << std::flush;
    if (describe)
        return 0;

    // Closed loop of repetitions; a traced run alternates untraced and
    // traced ones and always ends on a traced one (its end state feeds
    // the probes). Repetitions run on one executor lane: on a shared VM
    // the hypervisor takes vCPUs away for seconds at a time, and with two
    // lanes every barrier then waits for the stalled one, which halved
    // fleet's wall-clock throughput from one set of runs to the next.
    constexpr int MIN_REPS = 3;
    // Set-up is timed on its own fleets, built after every untraced
    // repetition until they add up to a twentieth of its wall time (at
    // least one), so that the samples span the run as the repetitions do:
    // the machine's speed drifts over seconds to tens of seconds. They
    // are topped up to fifteen at the end. The first few set-ups of a
    // process run up to twice as slow; the median leaves them out.
    constexpr double SETUP_SHARE = 0.05;
    constexpr std::size_t SETUP_SAMPLES = 15;
    std::vector<double> setup;
    Tracer tracer(Clock::now());
    std::vector<Rep> reps;
    std::optional<host::Fleet> end_state;
    double timed = 0.0;
    int untraced_count = 0, traced_count = 0;
    for (int i = 0;; ++i) {
        const bool trace_this = traced && i % 2 == 1;
        end_state.reset();
        tracer.setRep(i);
        Rep rep = runRep(w, seed, 1, trace_this ? &tracer : nullptr);
        timed += rep.wallS;
        (trace_this ? traced_count : untraced_count)++;
        if (trace_this)
            end_state = std::move(rep.fleet);
        rep.fleet.reset();
        reps.push_back(std::move(rep));
        for (double spent = 0.0;
             !traced && spent < SETUP_SHARE * reps.back().wallS;)
            spent += setup.emplace_back(timeSetup(w, seed));
        const bool enough =
            traced ? std::min(untraced_count, traced_count) >= 2
                   : untraced_count >= MIN_REPS;
        if (enough && timed >= seconds && (!traced || trace_this))
            break;
    }

    // Before the parallel check below, whose worker threads add their
    // own heaps.
    const double peak_rss_mib = peakRssMib();

    // --- checks ------------------------------------------------------------
    const Outputs &first = reps.front().outputs;
    for (const auto &[name, value] : first.checks)
        std::cout << "check " << name << " = " << value << "\n";
    bool reps_identical = true;
    std::size_t attempted = 0, failed = 0;
    for (const auto &rep : reps) {
        reps_identical &= rep.outputs.digest == first.digest;
        attempted += w.hosts;
        failed += rep.outputs.failedHosts + rep.outputs.auditViolations;
    }
    std::cout << "check reps_identical = " << (reps_identical ? 1 : 0)
              << " (" << reps.size() << " repetitions)\n";
    bool correct = reps_identical && failed == 0;
    for (const auto &rep : reps)
        correct &= rep.outputs.conserved;
    std::cout << "check requests_conserved = "
              << (first.conserved ? 1 : 0) << "\n";
    {
        // The same recipe on two executor lanes must give the same digest.
        Rep parallel = runRep(w, seed, 2, nullptr);
        const bool equal = parallel.outputs.digest == first.digest;
        std::cout << "check serial_parallel_equal = " << (equal ? 1 : 0)
                  << " (jobs 2 digest " << hex(parallel.outputs.digest)
                  << ")\n";
        correct &= equal;
    }
    const double failed_frac =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    std::cout << "metric failed_host_frac = "
              << obs::formatDouble(failed_frac) << " ratio\n";

    // --- metrics -----------------------------------------------------------
    std::vector<Metric> metrics;
    const double host_sim_s =
        static_cast<double>(w.hosts) * sim::toSeconds(w.repLength);
    // Every repetition of a seed does identical work. Other tenants of
    // the machine slow it in phases of seconds to tens of seconds, which
    // a median over a handful of repetitions flips on, so throughput is
    // total work over total time (the mean repetition) and the slice
    // percentiles pool the slices of every repetition.
    std::vector<double> wall_u, cpu_u, wall_t, slice_ms;
    for (const auto &rep : reps) {
        if (rep.traced) {
            wall_t.push_back(rep.wallS);
            continue;
        }
        wall_u.push_back(rep.wallS);
        cpu_u.push_back(rep.cpuS);
        slice_ms.insert(slice_ms.end(), rep.sliceMs.begin(),
                        rep.sliceMs.end());
    }
    while (!traced && setup.size() < SETUP_SAMPLES)
        setup.push_back(timeSetup(w, seed));
    const double wall = mean(wall_u);
    const double cpu = mean(cpu_u);
    if (!traced) {
        metrics.push_back({"host_sim_s_per_wall_s",
                           ratio(host_sim_s, wall), "host-s/s"});
        metrics.push_back({"host_sim_s_per_cpu_s",
                           ratio(host_sim_s, cpu), "host-s/s"});
        metrics.push_back({"setup_s", median(setup), "s"});
        metrics.push_back({"slice_wall_ms.p50",
                           stats::exactQuantile(slice_ms, 0.5), "ms"});
        metrics.push_back({"slice_wall_ms.p90",
                           stats::exactQuantile(slice_ms, 0.9), "ms"});
        metrics.push_back({"requests_per_wall_s",
                           ratio(first.requestsCompleted, wall), "req/s"});
        metrics.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
        std::cout << "samples slice_wall_ms = " << slice_ms.size() << " ("
                  << slice_ms.size() / wall_u.size() << " slices x "
                  << wall_u.size() << " repetitions)\n"
                  << "samples setup_s = " << setup.size() << "\n"
                  << "samples repetition_wall_s =";
        for (const double v : wall_u)
            std::cout << " " << obs::formatDouble(v);
        std::cout << "\n";
    } else {
        const Rep &last = reps.back();
        const Outputs &o = last.outputs;
        const TickSums &t = last.ticks;
        const double hs = host_sim_s;
        const auto per_hs = [&](double v) { return ratio(v, hs); };
        std::cout << "probing end state of repetition " << reps.size() - 1
                  << "\n" << std::flush;
        const auto probe = perfbench::runProbes(*end_state, seed);
        end_state.reset();
        const double offered = w.serving() ? o.offered : t.offered;
        const double dropped = w.serving() ? o.dropped : 0.0;
        const double completed = w.serving() ? o.requestsCompleted
                                           : t.completed;
        const auto span_med = [&](const char *name) {
            return median(tracer.durations(name));
        };
        // Total duration of the last repetition's spans named @p name,
        // optionally only those inside its timed region.
        const int last_rep = static_cast<int>(reps.size()) - 1;
        const auto last_ms = [&](const char *name, bool timed_only) {
            double ms = 0.0;
            for (const auto &s : tracer.spans())
                if (s.rep == last_rep && s.name == name &&
                    (!timed_only || tracer.within(s, "timed")))
                    ms += s.ms();
            return ms;
        };
        const double audit_ms = last_ms("fault.audit_host", false);
        const double host_ms = last_ms("host.collect", true) +
                               last_ms("host.merge_histograms", true);
        const double obs_ms = last_ms("obs.metric_series", true) +
                              last_ms("obs.export", true);
        const double wall_ns = wall * 1e9;
        const double wall_ms = wall * 1e3;
        std::map<std::string, double> busy;
        // The closed-form model (no traffic curve) offers no request
        // to a RequestServer and adds no latency sample.
        const double served = w.serving() ? completed : 0.0;
        const double queued = w.serving() ? offered : 0.0;
        busy["workload"] = ratio(queued * probe.requestServerOfferNs +
                                     t.ticks * probe.trafficRateAtNs,
                                 wall_ns);
        // Resident hits: request-serving apps pick critical pages at
        // random, everything else is a region sweep.
        const double hits = std::max(0.0, t.touches - t.faults);
        const double critical_hits =
            w.serving() ? std::min(t.criticalTouches, hits) : 0.0;
        busy["mem"] = ratio(critical_hits * probe.accessResidentNs +
                                (hits - critical_hits) * probe.accessSweepNs +
                                t.faults * probe.accessFaultNs +
                                o.pgsteal * probe.reclaimNsPerPage,
                            wall_ns);
        const double senpai_ticks =
            static_cast<double>(w.hosts) *
            static_cast<double>(w.repLength / SLICE);
        busy["tier"] = ratio(senpai_ticks * probe.tierMaintainUs * 1e3,
                             wall_ns);
        busy["psi"] = ratio(senpai_ticks * probe.psiTotalSomeReadNs,
                            wall_ns);
        busy["stats"] =
            ratio(2.0 * served * probe.histogramAddNs, wall_ns);
        busy["sim"] = ratio((queued + t.touches) * probe.rngNs +
                                t.ticks * probe.eventScheduleRunNs,
                            wall_ns);
        busy["host"] = ratio(host_ms, wall_ms);
        busy["obs"] = ratio(obs_ms, wall_ms);
        busy["fault"] = ratio(audit_ms, wall_ms);
        double attributed = 0.0;
        for (const auto &[layer, frac] : busy)
            if (layer != "fault") // the audit runs after the timed region
                attributed += frac;
        const double traced_wall = mean(wall_t);

        const auto add = [&](const std::string &n, double v,
                             const std::string &u) {
            metrics.push_back({n, v, u});
        };
        add("workload.requests_offered_per_host_s", per_hs(offered),
            "1/host-s");
        add("workload.request_drop_frac", ratio(dropped, offered), "ratio");
        add("workload.touches_per_host_s", per_hs(t.touches), "1/host-s");
        add("workload.critical_touches_per_host_s",
            per_hs(t.criticalTouches), "1/host-s");
        add("workload.request_server_offer_ns", probe.requestServerOfferNs,
            "ns");
        add("workload.traffic_rate_at_ns", probe.trafficRateAtNs, "ns");
        add("mem.faults_per_host_s", per_hs(t.faults), "1/host-s");
        add("mem.refaults_per_host_s", per_hs(t.refaults), "1/host-s");
        add("mem.pgscan_per_host_s", per_hs(o.pgscan), "1/host-s");
        add("mem.pgsteal_per_host_s", per_hs(o.pgsteal), "1/host-s");
        add("mem.reclaim_efficiency", ratio(o.pgsteal, o.pgscan), "ratio");
        add("mem.access_resident_ns", probe.accessResidentNs, "ns");
        add("mem.access_sweep_ns", probe.accessSweepNs, "ns");
        add("mem.access_fault_ns", probe.accessFaultNs, "ns");
        add("mem.reclaim_ns_per_page", probe.reclaimNsPerPage, "ns");
        add("mem.idle_breakdown_us", probe.idleBreakdownUs, "us");
        add("tier.zswpout_per_host_s", per_hs(o.zswpout), "1/host-s");
        add("tier.zswpin_per_host_s", per_hs(o.zswpin), "1/host-s");
        add("tier.pswpout_per_host_s", per_hs(o.pswpout), "1/host-s");
        add("tier.pswpin_per_host_s", per_hs(o.pswpin), "1/host-s");
        add("tier.demote_per_host_s", per_hs(o.demote), "1/host-s");
        add("tier.promote_per_host_s", per_hs(o.promote), "1/host-s");
        add("tier.store_reject_frac",
            ratio(o.storeRejects, o.zswpout + o.pswpout + o.storeRejects),
            "ratio");
        add("tier.maintain_us", probe.tierMaintainUs, "us");
        add("backend.ssd_write_bytes_per_host_s", per_hs(o.ssdWriteBytes),
            "B/host-s");
        add("core.reclaim_requested_bytes_per_host_s",
            per_hs(o.senpaiRequestedBytes), "B/host-s");
        add("psi.mem_some_frac", ratio(o.psiMemSomeNs, hs * 1e9), "ratio");
        add("psi.total_some_read_ns", probe.psiTotalSomeReadNs, "ns");
        add("stats.histogram_add_ns", probe.histogramAddNs, "ns");
        add("sim.rng_ns", probe.rngNs, "ns");
        add("sim.event_schedule_run_ns", probe.eventScheduleRunNs, "ns");
        add("host.setup_build_ms", span_med("host.fleet_spec_build"), "ms");
        add("host.setup_start_ms", span_med("host.fleet_start"), "ms");
        add("host.collect_ms", span_med("host.collect"), "ms");
        add("host.merge_histograms_ms", span_med("host.merge_histograms"),
            "ms");
        add("host.pool_busy_frac",
            ratio(cpu, wall), "ratio");
        add("obs.metric_series_ms", span_med("obs.metric_series"), "ms");
        add("obs.export_ms", span_med("obs.export"), "ms");
        add("obs.export_bytes", last.exportBytes, "B");
        add("fault.audit_ms_per_host",
            ratio(audit_ms, static_cast<double>(w.hosts)), "ms");
        for (const auto &[layer, frac] : busy)
            add(layer + ".est_busy_frac", frac, "ratio");
        add("unattributed_frac", 1.0 - attributed, "ratio");
        add("trace_overhead_frac", 1.0 - ratio(wall, traced_wall), "ratio");
        std::cout << "samples traced_repetitions = " << wall_t.size()
                  << "\nsamples untraced_repetitions = " << wall_u.size()
                  << "\nsamples spans = " << tracer.spans().size() << "\n";
        if (!spans_out.empty())
            tracer.write(spans_out);
    }
    const auto na = traced ? notApplicable(w) : std::vector<std::string>{};
    if (traced) {
        std::cout << "not_applicable" << (na.empty() ? " none" : "");
        for (std::size_t i = 0; i < na.size(); ++i)
            std::cout << (i ? "," : " ") << na[i];
        std::cout << "\n";
    }
    bool reportable = true;
    for (const auto &m : metrics) {
        std::cout << "metric " << m.name << " = "
                  << obs::formatDouble(m.value) << " " << m.unit << "\n";
        const auto reason = brokenReason(m.name, m.value, m.unit, na);
        if (!reason.empty()) {
            std::cerr << "tmo_bench: metric " << m.name << ": " << reason
                      << "\n";
            reportable = false;
        }
    }
    if (!reportable)
        return 1;

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << obs::formatDouble(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    std::cout << "}}" << std::endl;
    return 0;
}
