/**
 * @file
 * The option tables of `tmo` and `chaos_soak` (DESIGN.md §13).
 *
 * Each tool lists its flags once, bound to the fields of its options
 * struct; the flags both take are listed once, in withRunOptions().
 * A table renders the usage text and parses argv with std::from_chars;
 * every rejection is an OptionError naming the flag. A value only the
 * CLI uses is range-checked here; a value a library owns is only
 * converted here and checked by that library.
 */

#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/fault_plan.hpp"
#include "host/controller_registry.hpp"
#include "host/fleet.hpp"

namespace tmo::cli
{

/** A rejected command line; the message names the flag. */
class OptionError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** One flag of a tool's option table. */
struct Option {
    /** "--hosts". */
    std::string name;
    /** Value placeholder ("N", "FILE"); empty for a switch. */
    std::string metavar;
    /** One usage line: meaning, range and default. */
    std::string help;
    /** Converts and stores the value ("" for a switch). Throws
     *  std::logic_error on a value it rejects. */
    std::function<void(std::string_view)> set;
};

template <class T>
std::string
showNumber(T value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

/** "1..1024", or ">= 1" when @p hi is T's maximum. */
template <class T>
std::string
showRange(T lo, T hi)
{
    return hi == std::numeric_limits<T>::max()
               ? ">= " + showNumber(lo)
               : showNumber(lo) + ".." + showNumber(hi);
}

/** The number that is the whole of @p text, finite and in [lo, hi];
 *  otherwise std::invalid_argument saying why not. */
template <class T>
T
parseNumber(std::string_view text, T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max())
{
    const auto bad = [text](const std::string &why) {
        return std::invalid_argument("'" + std::string(text) + "' " + why);
    };
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::result_out_of_range)
        throw bad("does not fit the value's type");
    if (ec != std::errc{} || ptr != end)
        throw bad(std::is_floating_point_v<T> ? "is not a number"
                  : std::is_signed_v<T>      ? "is not an integer"
                                             : "is not an unsigned integer");
    if constexpr (std::is_floating_point_v<T>)
        if (!std::isfinite(value))
            throw bad("is not a finite number");
    if (value < lo || value > hi)
        throw bad("is not in " + showRange(lo, hi));
    return value;
}

/** A numeric flag stored in @p target and accepted in [lo, hi]; its
 *  usage line shows a range narrower than T's and the default (the
 *  value @p target holds when the table is built). */
template <class T>
Option
number(std::string name, std::string help, T &target,
       T lo = std::numeric_limits<T>::lowest(),
       T hi = std::numeric_limits<T>::max())
{
    if (lo != std::numeric_limits<T>::lowest() ||
        hi != std::numeric_limits<T>::max())
        help += " (" + showRange(lo, hi) + ")";
    help += " [" + showNumber(target) + "]";
    return {std::move(name), std::is_floating_point_v<T> ? "F" : "N",
            std::move(help), [&target, lo, hi](std::string_view value) {
                target = parseNumber<T>(value, lo, hi);
            }};
}

/** A string flag stored verbatim in @p target. */
Option text(std::string name, std::string metavar, std::string help,
            std::string &target);

/** A switch that takes no value and sets @p target to @p value. */
Option toggle(std::string name, std::string help, bool &target,
              bool value = true);

/** A tool's flags, in usage order. */
struct OptionTable {
    std::string program;
    std::vector<Option> options;

    /** Parse argv[1..argc) into the bound fields; false when --help
     *  or -h asks for the usage text. Throws OptionError, naming the
     *  flag, on the first argument it rejects. */
    bool parse(int argc, const char *const *argv) const;

    /** parse() for main(): reports an error or --help on stderr with
     *  the usage text and returns false; the tool then exits 2. */
    bool parseCommandLine(int argc, const char *const *argv) const;

    /** Print "<program>: <message>" and the usage text to stderr, and
     *  return the exit status of a rejected command line (2). */
    int reject(const std::string &message) const;

    std::string usage() const;
};

/** The flags `tmo` and `chaos_soak` share. The defaults here are
 *  `tmo`'s; chaos_soak sets its own. */
struct RunOptions {
    int minutes = 60;
    std::size_t hosts = 1;
    unsigned jobs = 1;
    std::uint64_t seed = 42;
    std::string traceFile{};
    std::uint64_t traceBufferMb = 8;
    std::string metricsFile{};
    int metricsIntervalSec = 6;
    /** Host rebuild budget after a crash; 0 = quarantine only. */
    unsigned restartMax = 0;
    int restartBackoffSec = 30;

    sim::SimTime duration() const;

    /** Enable the tracing, metric sampling and restart policy the
     *  flags ask for; call before Fleet::start(). */
    void configure(host::Fleet &fleet) const;

    /** Write the trace and metrics files the flags name, @p tag
     *  before each extension (soak.jsonl, "3" -> soak.3.jsonl). Throws
     *  std::runtime_error when a file cannot be written. */
    void writeOutputs(host::Fleet &fleet, const std::string &tag = "") const;
};

/** The host's first app's memory savings, in percent of what it
 *  allocated (both tools report it). */
double savingsPct(host::Host &machine);

/** `tmo`'s options. */
struct TmoOptions {
    std::string app = "feed";
    std::uint64_t footprintMb = 1024;
    std::uint64_t ramMb = 2048;
    /** Simulated page size; smaller pages scale the per-host page
     *  count up without scaling footprint (fleet-scale smoke). */
    std::uint64_t pageKb = 64;
    std::string tiers = "zswap";
    char ssdClass = 'C';
    std::string zswapCompressor = "zstd";
    std::string zswapAllocator = "zsmalloc";
    std::string controller = "senpai";
    host::ControllerOptions controllerOptions;
    /** Traffic curve for request-level serving; empty = the
     *  closed-form RPS model. */
    std::string traceRps;
    int epochSec = 60;
    bool csv = false;
    /** Scripted faults, read (and so validated) at parse time. */
    fault::FaultPlan faultPlan;
    std::optional<std::uint64_t> chaosSeed;
    RunOptions run;

    /** The fleet these options describe, not yet built. The library
     *  checks the values it owns as they are set (the SSD class when
     *  hosts are built) and throws std::invalid_argument. */
    host::FleetSpec fleetSpec() const;
};

/** `chaos_soak`'s options. */
struct SoakOptions {
    std::uint64_t runs = 8;
    bool storm = false;
    bool audit = true;
    RunOptions run{.minutes = 10, .hosts = 2, .jobs = 2, .seed = 1};
};

/** @p options followed by the shared flags, bound to @p run. */
std::vector<Option> withRunOptions(std::vector<Option> options,
                                   RunOptions &run);

OptionTable tmoOptionTable(TmoOptions &options);
OptionTable soakOptionTable(SoakOptions &options);

} // namespace tmo::cli
