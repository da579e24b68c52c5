/**
 * @file
 * Unit tests for the one command-line parser shared by tpcp and the
 * bench harnesses. Every malformed value must fail at parse time,
 * naming the flag and listing the valid options: a typo like
 * --job=4 must not silently fall back to a serial sweep, and
 * --tenants=-1 must not wrap into a huge allocation.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "common/cli.hh"

using namespace tpcp;
using cli::Kind;

namespace
{

const std::vector<cli::FlagSpec> kExtras = {
    {"budgets", Kind::Text, "comma-separated sample budgets"},
    {"verbose", Kind::Flag, "chatty output"},
    {"seed", Kind::U64, "campaign seed"},
    {"rate", Kind::Real, "fault rate"},
};

/** The harness path: --jobs plus kExtras, no positionals. */
std::optional<cli::ParsedArgs>
parse(const std::vector<std::string> &argv, std::string &error)
{
    return bench::tryParseArgs(argv, kExtras, error);
}

const std::vector<cli::FlagSpec> kVerbFlags = {
    {"timeline", Kind::Flag, "print the phase timeline"},
    {"tenants", Kind::U32, "concurrent tenants"},
    {"packets", Kind::U64, "packets per tenant"},
    {"threshold", Kind::Real, "similarity threshold"},
    {"out", Kind::Text, "output path"},
};

/** The tpcp path: kVerbFlags plus positional arguments. */
std::optional<cli::ParsedArgs>
parseVerb(const std::vector<std::string> &argv, std::string &error)
{
    return cli::tryParse(argv, kVerbFlags, true, error);
}

/** Expects @p argv to be rejected with @p message in the error. */
void
expectRejected(const std::vector<std::string> &argv,
               const std::string &message)
{
    std::string error;
    EXPECT_FALSE(parseVerb(argv, error).has_value()) << argv[0];
    EXPECT_NE(error.find(message), std::string::npos) << error;
    EXPECT_NE(error.find("valid options:"), std::string::npos)
        << error;
}

} // namespace

TEST(BenchArgs, EmptyArgvGivesDefaults)
{
    std::string error;
    auto args = parse({}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ(args->jobs(), 0u);
    EXPECT_TRUE(args->values.empty());
    EXPECT_TRUE(args->positional.empty());
}

TEST(BenchArgs, ParsesJobsInBothForms)
{
    std::string error;
    auto eq = parse({"--jobs=4"}, error);
    ASSERT_TRUE(eq.has_value());
    EXPECT_EQ(eq->jobs(), 4u);
    auto sep = parse({"--jobs", "8"}, error);
    ASSERT_TRUE(sep.has_value());
    EXPECT_EQ(sep->jobs(), 8u);
}

TEST(BenchArgs, ParsesExtrasInBothForms)
{
    std::string error;
    auto args =
        parse({"--budgets=8,16", "--verbose", "--jobs", "2"}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_TRUE(args->has("budgets"));
    EXPECT_EQ(args->get("budgets", ""), "8,16");
    EXPECT_TRUE(args->has("verbose"));
    EXPECT_EQ(args->jobs(), 2u);
}

TEST(BenchArgs, UnknownFlagListsTheValidOptions)
{
    // The motivating typo: --job=4 instead of --jobs=4.
    std::string error;
    auto args = parse({"--job=4"}, error);
    EXPECT_FALSE(args.has_value());
    EXPECT_NE(error.find("unknown argument '--job=4'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("--jobs=N"), std::string::npos) << error;
    EXPECT_NE(error.find("--budgets=V"), std::string::npos)
        << error;
    EXPECT_NE(error.find("--verbose"), std::string::npos) << error;
}

TEST(BenchArgs, PositionalArgumentsAreRejected)
{
    // Harnesses take no positionals, even after a value-less flag.
    std::string error;
    EXPECT_FALSE(parse({"gcc/1"}, error).has_value());
    EXPECT_NE(error.find("unknown argument 'gcc/1'"),
              std::string::npos);
    EXPECT_FALSE(parse({"--verbose", "gcc/1"}, error).has_value());
    EXPECT_NE(error.find("unknown argument 'gcc/1'"),
              std::string::npos);
}

TEST(BenchArgs, MissingValueIsAnError)
{
    std::string error;
    EXPECT_FALSE(parse({"--budgets"}, error).has_value());
    EXPECT_NE(error.find("--budgets expects a value"),
              std::string::npos)
        << error;
}

TEST(BenchArgs, ValueOnValuelessFlagIsAnError)
{
    std::string error;
    EXPECT_FALSE(parse({"--verbose=yes"}, error).has_value());
    EXPECT_NE(error.find("--verbose takes no value"),
              std::string::npos)
        << error;
}

TEST(BenchArgs, MalformedJobsIsAnError)
{
    std::string error;
    EXPECT_FALSE(parse({"--jobs=four"}, error).has_value());
    EXPECT_NE(error.find("non-negative integer"),
              std::string::npos)
        << error;
    EXPECT_FALSE(parse({"--jobs="}, error).has_value());
}

TEST(BenchArgs, TypedAccessorsConvertAndDefault)
{
    std::string error;
    auto args = parse({"--seed=42", "--rate=0.25"}, error);
    ASSERT_TRUE(args.has_value());
    EXPECT_EQ(args->getU64("seed", 0), 42u);
    EXPECT_DOUBLE_EQ(args->getDouble("rate", 0.0), 0.25);
    EXPECT_EQ(args->getU64("absent", 7), 7u);
    EXPECT_EQ(args->getU32("absent", 3), 3u);
    EXPECT_DOUBLE_EQ(args->getDouble("absent", 2.5), 2.5);
    EXPECT_EQ(args->get("absent", "dflt"), "dflt");
    EXPECT_FALSE(args->has("absent"));
}

TEST(CliArgs, NegativeValueIsAnError)
{
    // A sign must not wrap into a huge tenant count.
    expectRejected({"--tenants=-1"},
                   "--tenants expects a non-negative integer");
    expectRejected({"--tenants", "-1"}, "--tenants expects");
    expectRejected({"--packets=+5"}, "--packets expects");
    expectRejected({"--threshold=-0.5"}, "--threshold expects");
}

TEST(CliArgs, TrailingGarbageIsAnError)
{
    expectRejected({"--packets=5x0"}, "got '5x0'");
    expectRejected({"--packets= 5"}, "--packets expects");
    expectRejected({"--threshold=0.25abc"}, "--threshold expects");
    expectRejected({"--threshold=1.5.2"}, "--threshold expects");
}

TEST(CliArgs, NonFiniteRealIsAnError)
{
    expectRejected({"--threshold=nan"}, "finite non-negative number");
    expectRejected({"--threshold=inf"}, "finite non-negative number");
    expectRejected({"--threshold=1e999"}, "--threshold expects");
    expectRejected({"--threshold=0x1p3"}, "--threshold expects");
}

TEST(CliArgs, DestinationTypeOverflowIsAnError)
{
    expectRejected({"--tenants=4294967296"}, "up to 4294967295");
    expectRejected({"--packets=18446744073709551616"},
                   "up to 18446744073709551615");
    std::string error;
    auto args = parseVerb(
        {"--tenants=4294967295", "--packets=18446744073709551615"},
        error);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_EQ(args->getU32("tenants", 0), 4294967295u);
    EXPECT_EQ(args->getU64("packets", 0), 18446744073709551615ull);
}

TEST(CliArgs, EmptyValueIsAnError)
{
    expectRejected({"--out="}, "--out expects a value");
    expectRejected({"--packets="}, "--packets expects");
    // A value-taking flag never swallows the next flag as its value.
    expectRejected({"--out", "--timeline"}, "--out expects a value");
}

TEST(CliArgs, ValuelessFlagBeforeAPositionalLeavesItPositional)
{
    std::string error;
    auto args = parseVerb({"--timeline", "mcf"}, error);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_TRUE(args->has("timeline"));
    EXPECT_EQ(args->positional, std::vector<std::string>{"mcf"});
}

TEST(CliArgs, CollectsPositionalsInOrder)
{
    std::string error;
    auto args = parseVerb({"mcf", "--packets", "300", "bzip2/g",
                           "--threshold=0.5", "gcc/1"},
                          error);
    ASSERT_TRUE(args.has_value()) << error;
    EXPECT_EQ(args->positional,
              (std::vector<std::string>{"mcf", "bzip2/g", "gcc/1"}));
    EXPECT_EQ(args->getU64("packets", 0), 300u);
    EXPECT_DOUBLE_EQ(args->getDouble("threshold", 0.0), 0.5);
}

TEST(CliArgs, UnknownFlagIsAnErrorWithPositionals)
{
    expectRejected({"--tenants=4", "--bogus-flag=3"},
                   "unknown argument '--bogus-flag=3'");
}

TEST(CliArgs, NumberHelpersAreStrict)
{
    EXPECT_EQ(cli::parseUnsigned("007", 10), 7u);
    EXPECT_FALSE(cli::parseUnsigned("11", 10).has_value());
    EXPECT_FALSE(cli::parseUnsigned("", 10).has_value());
    EXPECT_DOUBLE_EQ(cli::parseReal("1e3").value(), 1000.0);
    EXPECT_DOUBLE_EQ(cli::parseReal(".5").value(), 0.5);
    EXPECT_FALSE(cli::parseReal("+1").has_value());
    EXPECT_FALSE(cli::parseReal("1e").has_value());
}
