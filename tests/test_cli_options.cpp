/**
 * Option tables of `tmo` and `chaos_soak`: every flag fails closed.
 *
 * Each case parses an argv in-process and, for `tmo`, assembles (but
 * never builds) the FleetSpec, so library-owned values meet the
 * library's own checks. No fleet runs and no process starts.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cli_options.hpp"
#include "sim/rng.hpp"

using namespace tmo;

namespace
{

/** Malformed in some way for a number, a name and a spec alike. */
const std::vector<std::string> BAD_VALUES = {
    "", "abc", "5x", "-1", " 5", "nan", "inf", "1e400",
    "18446744073709551616", // 2^64
};

/** Values a flag rightly accepts from BAD_VALUES: any string names a
 *  file, an empty tier chain or traffic spec means none, and a huge
 *  p99 target is merely loose. */
bool
legitimately(const std::string &flag, const std::string &value)
{
    return flag == "--trace" || flag == "--metrics-out" ||
           ((flag == "--tiers" || flag == "--trace-rps") &&
            value.empty()) ||
           (flag == "--slo-p99-us" && value == "18446744073709551616");
}

enum class Outcome { ACCEPTED, TABLE_REJECTED, LIBRARY_REJECTED };

Outcome
parse(const cli::OptionTable &table, const std::vector<std::string> &args,
      std::string &error)
{
    std::vector<const char *> argv = {"tool"};
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    try {
        table.parse(static_cast<int>(argv.size()), argv.data());
    } catch (const cli::OptionError &e) {
        error = e.what();
        return Outcome::TABLE_REJECTED;
    }
    return Outcome::ACCEPTED;
}

/** One front end: its flags, and a run that parses an argv with fresh
 *  options and, for `tmo`, assembles the fleet spec. */
struct Tool {
    std::string name;
    /** Every flag, and whether it takes a value. */
    std::vector<std::pair<std::string, bool>> flags;
    std::function<Outcome(const std::vector<std::string> &, std::string &)>
        run;
};

template <class Options>
std::vector<std::pair<std::string, bool>>
flagsOf(cli::OptionTable (*table)(Options &))
{
    Options options;
    const cli::OptionTable tool = table(options);
    std::vector<std::pair<std::string, bool>> flags;
    for (const auto &option : tool.options)
        flags.emplace_back(option.name, !option.metavar.empty());
    return flags;
}

std::vector<Tool>
tools()
{
    return {
        {"tmo", flagsOf(&cli::tmoOptionTable),
         [](const std::vector<std::string> &args, std::string &error) {
             cli::TmoOptions options;
             const auto outcome =
                 parse(cli::tmoOptionTable(options), args, error);
             if (outcome != Outcome::ACCEPTED)
                 return outcome;
             try {
                 options.fleetSpec();
             } catch (const std::invalid_argument &e) {
                 error = e.what();
                 return Outcome::LIBRARY_REJECTED;
             }
             return outcome;
         }},
        {"chaos_soak", flagsOf(&cli::soakOptionTable),
         [](const std::vector<std::string> &args, std::string &error) {
             cli::SoakOptions options;
             return parse(cli::soakOptionTable(options), args, error);
         }},
    };
}

} // namespace

TEST(CliOptionsTest, EveryFlagRejectsEveryBadValue)
{
    for (const auto &tool : tools()) {
        for (const auto &[flag, takes_value] : tool.flags) {
            if (!takes_value)
                continue;
            for (const auto &value : BAD_VALUES) {
                SCOPED_TRACE(tool.name + " " + flag + " '" + value + "'");
                std::string error;
                Outcome outcome = Outcome::ACCEPTED;
                EXPECT_NO_THROW(outcome = tool.run({flag, value}, error));
                if (legitimately(flag, value))
                    continue;
                EXPECT_NE(outcome, Outcome::ACCEPTED);
                // The table names the flag; a library check names the
                // value it owns in its own terms.
                if (outcome == Outcome::TABLE_REJECTED) {
                    EXPECT_EQ(error.rfind(flag + ": ", 0), 0u) << error;
                }
                EXPECT_FALSE(error.empty());
            }
        }
    }
}

TEST(CliOptionsTest, MissingValuesAndUnknownFlagsAreNamed)
{
    for (const auto &tool : tools()) {
        std::string error;
        EXPECT_EQ(tool.run({"--bogus"}, error), Outcome::TABLE_REJECTED);
        EXPECT_EQ(error, "unknown flag: --bogus");
        for (const auto &[flag, takes_value] : tool.flags) {
            if (!takes_value)
                continue;
            EXPECT_EQ(tool.run({flag}, error), Outcome::TABLE_REJECTED);
            EXPECT_EQ(error, "missing value for " + flag);
        }
    }
}

TEST(CliOptionsTest, SeededRandomArgvOnlyEverFailsByName)
{
    // Generated command lines: random flags (known and not) with
    // values drawn from valid and malformed ones. Every outcome is a
    // parse or a named error, whatever the mix.
    const std::vector<std::string> values = {
        "1", "64", "0.5", "0", "feed", "zswap+ssd", "senpai", "C",
        "flat:rps=100", "-0", "+1", "0x10", "1e3", "1.5e-3", "--csv",
        "1024", "4294967296", "9223372036854775808"};
    sim::Rng rng(20221);
    for (const auto &tool : tools()) {
        std::vector<std::string> flags = {"--bogus", "-", ""};
        for (const auto &flag : tool.flags)
            flags.push_back(flag.first);
        for (int round = 0; round < 500; ++round) {
            std::vector<std::string> args;
            const auto count = 1 + rng.uniformInt(6);
            for (std::uint64_t k = 0; k < count; ++k) {
                const auto pick = rng.uniformInt(3);
                if (pick == 0)
                    args.push_back(flags[rng.uniformInt(flags.size())]);
                else if (pick == 1)
                    args.push_back(values[rng.uniformInt(values.size())]);
                else
                    args.push_back(
                        BAD_VALUES[rng.uniformInt(BAD_VALUES.size())]);
            }
            std::string error;
            EXPECT_NO_THROW(tool.run(args, error));
        }
    }
}

TEST(CliOptionsTest, SharedFlagsKeepEachToolsDefaults)
{
    const std::vector<std::string> shared = {
        "--minutes", "--hosts", "--jobs", "--seed", "--trace",
        "--trace-buffer-mb", "--metrics-out", "--metrics-interval-sec",
        "--restart-max", "--restart-backoff-sec"};
    cli::TmoOptions tmo;
    cli::SoakOptions soak;
    const auto tmo_table = cli::tmoOptionTable(tmo);
    const auto soak_table = cli::soakOptionTable(soak);
    for (const auto *table : {&tmo_table, &soak_table}) {
        std::set<std::string> names;
        for (const auto &option : table->options) {
            EXPECT_TRUE(names.insert(option.name).second) << option.name;
            EXPECT_NE(table->usage().find(option.name), std::string::npos);
        }
        for (const auto &flag : shared)
            EXPECT_EQ(names.count(flag), 1u) << flag;
    }
    EXPECT_EQ(tmo.run.minutes, 60);
    EXPECT_EQ(tmo.run.hosts, 1u);
    EXPECT_EQ(tmo.run.jobs, 1u);
    EXPECT_EQ(tmo.run.seed, 42u);
    EXPECT_EQ(soak.run.minutes, 10);
    EXPECT_EQ(soak.run.hosts, 2u);
    EXPECT_EQ(soak.run.jobs, 2u);
    EXPECT_EQ(soak.run.seed, 1u);
    EXPECT_EQ(soak.runs, 8u);

    // A valid command line lands in the bound fields.
    const char *argv[] = {"tmo",  "--hosts", "4",     "--reclaim-ratio",
                          "0.25", "--csv",   "--chaos", "7"};
    ASSERT_TRUE(tmo_table.parse(8, argv));
    EXPECT_EQ(tmo.run.hosts, 4u);
    EXPECT_EQ(tmo.controllerOptions.reclaimRatio, 0.25);
    EXPECT_TRUE(tmo.csv);
    EXPECT_EQ(tmo.chaosSeed, 7u);
    const char *help[] = {"chaos_soak", "--no-audit", "--help"};
    EXPECT_FALSE(soak_table.parse(3, help));
    EXPECT_FALSE(soak.audit);
}
