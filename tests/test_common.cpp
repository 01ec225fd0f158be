// Unit tests for src/common: units, assertions, RNG, CLI parsing, and
// the text field layer.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <set>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/fields.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "stats/fct.hpp"

namespace basrpt {
namespace {

// ----------------------------------------------------------------- units

TEST(Units, ByteLiteralsScaleDecimally) {
  EXPECT_EQ((1_KB).count, 1000);
  EXPECT_EQ((20_KB).count, 20'000);
  EXPECT_EQ((1_MB).count, 1'000'000);
  EXPECT_EQ((50_MB).count, 50'000'000);
  EXPECT_EQ((2_GB).count, 2'000'000'000);
}

TEST(Units, BytesArithmetic) {
  Bytes a = 10_KB;
  a += 5_KB;
  EXPECT_EQ(a, 15_KB);
  a -= 5_KB;
  EXPECT_EQ(a, 10_KB);
  EXPECT_EQ(a * 3, 30_KB);
  EXPECT_DOUBLE_EQ(30_KB / a, 3.0);
}

TEST(Units, RateHelpers) {
  EXPECT_DOUBLE_EQ(gbps(10.0).bits_per_sec, 1e10);
  EXPECT_DOUBLE_EQ(mbps(5.0).bits_per_sec, 5e6);
  EXPECT_DOUBLE_EQ(gbps(40.0) / gbps(10.0), 4.0);
}

TEST(Units, TransmissionTimeOfPacketAt10G) {
  // 1500 B at 10 Gbps = 1.2 microseconds — the paper's slot granularity.
  const SimTime t = transmission_time(Bytes{1500}, gbps(10.0));
  EXPECT_NEAR(t.seconds, 1.2e-6, 1e-12);
}

TEST(Units, BytesInInvertsTransmissionTime) {
  const Bytes size = 7_MB;
  const Rate rate = gbps(10.0);
  const SimTime t = transmission_time(size, rate);
  EXPECT_NEAR(static_cast<double>(bytes_in(rate, t).count),
              static_cast<double>(size.count), 2.0);
}

TEST(Units, ToStringPicksSensibleScale) {
  EXPECT_EQ(to_string(1500_KB), "1.5 MB");
  EXPECT_EQ(to_string(gbps(9.2)), "9.2 Gbps");
  EXPECT_EQ(to_string(milliseconds(12.0)), "12 ms");
}

// ------------------------------------------------------------- assertions

TEST(Assert, ViolationThrowsSimulationError) {
  EXPECT_THROW(BASRPT_ASSERT(1 == 2, "impossible"), SimulationError);
}

TEST(Assert, RequireThrowsConfigError) {
  EXPECT_THROW(BASRPT_REQUIRE(false, "bad config"), ConfigError);
}

TEST(Assert, PassingChecksAreSilent) {
  EXPECT_NO_THROW(BASRPT_ASSERT(true, ""));
  EXPECT_NO_THROW(BASRPT_REQUIRE(true, ""));
}

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a() == b()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Uniform01InRangeAndRoughlyUniform) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(11);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    sum += rng.exponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  Rng base(99);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = base.split(1);
  EXPECT_NE(s1(), s2());
  Rng s1_replay = Rng(99).split(1);
  // Same label, same parent seed → identical stream.
  EXPECT_EQ(s1_again(), s1_replay());
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(5);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ----------------------------------------------------------------- fields

TEST(Fields, EveryHelperAgainstItsTable) {
  // Each row is one cell. "was" marks inputs whose acceptance changed
  // when the std::stod/stoll/stoull/strtod copies became this layer.
  struct Real {
    const char* cell;
    bool ok;
    double value;
  };
  const std::vector<Real> reals = {
      {"1.5", true, 1.5},
      {"-2e-3", true, -2e-3},
      {".5", true, 0.5},
      {"1.", true, 1.0},
      {"1e+06", true, 1e6},  // a '+' in the exponent is fine
      {"0.30000000000000004", true, 0.30000000000000004},
      // Subnormals parse (was: std::stod threw out_of_range on them, so a
      // %.17g-written subnormal did not read back).
      {"4.9406564584124654e-324", true,
       std::numeric_limits<double>::denorm_min()},
      {"", false, 0},
      {" 1", false, 0},     // leading blank (was accepted)
      {"+1", false, 0},     // '+' sign (was accepted)
      {"0x1p3", false, 0},  // hexadecimal float (was accepted as 8)
      {"inf", false, 0},    // non-finite (was accepted by the CLI, specs)
      {"-inf", false, 0},
      {"nan", false, 0},
      {"infinity", false, 0},
      {"1e999", false, 0},   // overflow
      {"1e-400", false, 0},  // underflow past the subnormals
      {"1 ", false, 0},
      {"1.5x", false, 0},
      {"1,5", false, 0},
  };
  for (const Real& row : reals) {
    double value = -7.0;
    EXPECT_EQ(fields::parse_finite(row.cell, &value), row.ok) << row.cell;
    EXPECT_EQ(value, row.ok ? row.value : -7.0) << row.cell;
  }
  double zero = 1.0;
  ASSERT_TRUE(fields::parse_finite("-0", &zero));
  EXPECT_TRUE(std::signbit(zero));

  struct Int {
    const char* cell;
    bool ok;
    std::int64_t value;
  };
  const std::vector<Int> ints = {
      {"0", true, 0},
      {"-5", true, -5},
      {"007", true, 7},
      {"9223372036854775807", true, INT64_MAX},
      {"-9223372036854775808", true, INT64_MIN},
      {"", false, 0},
      {"-", false, 0},
      {" 5", false, 0},  // leading blank (was accepted)
      {"+5", false, 0},  // '+' sign (was accepted)
      {"5 ", false, 0},
      {"9223372036854775808", false, 0},  // past int64 (strtoll saturated)
      {"1e3", false, 0},
      {"5.0", false, 0},
      {"0x10", false, 0},
  };
  for (const Int& row : ints) {
    std::int64_t value = -7;
    EXPECT_EQ(fields::parse_i64(row.cell, &value), row.ok) << row.cell;
    EXPECT_EQ(value, row.ok ? row.value : -7) << row.cell;
  }

  struct Uint {
    const char* cell;
    bool ok;
    std::uint64_t value;
  };
  const std::vector<Uint> uints = {
      {"0", true, 0},
      {"007", true, 7},
      {"18446744073709551615", true, UINT64_MAX},
      {"", false, 0},
      {"-5", false, 0},
      {" -5", false, 0},  // was 2^64 - 5 in checkpoint u64 cells
      {" 5", false, 0},
      {"+5", false, 0},
      {"18446744073709551616", false, 0},
      {"5x", false, 0},
  };
  for (const Uint& row : uints) {
    std::uint64_t value = 7;
    EXPECT_EQ(fields::parse_u64(row.cell, &value), row.ok) << row.cell;
    EXPECT_EQ(value, row.ok ? row.value : 7u) << row.cell;
  }

  struct Split {
    const char* line;
    char sep;
    std::size_t fields;
    std::vector<std::string_view> cells;  // what lands in 4 cells
  };
  const std::vector<Split> splits = {
      {"a,b,c", ',', 3, {"a", "b", "c"}},
      {"a,b,", ',', 3, {"a", "b", ""}},  // a trailing separator is a field
      {"", ',', 1, {""}},
      {",", ',', 2, {"", ""}},
      {"x 1 2", ' ', 3, {"x", "1", "2"}},
      {"x  1", ' ', 3, {"x", "", "1"}},  // blanks are not merged
      // Past the cell count, the last cell keeps the rest of the line.
      {"error,3,17,bad byte, at 9", ',', 5, {"error", "3", "17",
                                             "bad byte, at 9"}},
      {"x 0a 1 2 reason with  blanks", ' ', 8,
       {"x", "0a", "1", "2 reason with  blanks"}},
  };
  for (const Split& row : splits) {
    std::array<std::string_view, 4> cells;
    EXPECT_EQ(fields::split(row.line, row.sep, cells), row.fields) << row.line;
    for (std::size_t i = 0; i < row.cells.size(); ++i) {
      EXPECT_EQ(cells[i], row.cells[i]) << row.line << " cell " << i;
    }
  }

  EXPECT_EQ(fields::strip_cr("abc\r"), "abc");
  EXPECT_EQ(fields::strip_cr("abc"), "abc");
  EXPECT_EQ(fields::strip_cr("\r"), "");
  EXPECT_EQ(fields::strip_cr("a\r\r"), "a\r");  // one CR, not all

  for (const stats::FlowClass cls :
       {stats::FlowClass::kQuery, stats::FlowClass::kBackground}) {
    stats::FlowClass back = cls == stats::FlowClass::kQuery
                                ? stats::FlowClass::kBackground
                                : stats::FlowClass::kQuery;
    const char tag[] = {fields::class_tag(cls), '\0'};
    ASSERT_TRUE(fields::parse_class(tag, &back)) << tag;
    EXPECT_EQ(back, cls);
  }
  EXPECT_EQ(fields::class_tag(stats::FlowClass::kQuery), 'q');
  EXPECT_EQ(fields::class_tag(stats::FlowClass::kBackground), 'b');
  for (const char* tag : {"", "Q", "x", "qb", "q "}) {
    stats::FlowClass cls = stats::FlowClass::kQuery;
    EXPECT_FALSE(fields::parse_class(tag, &cls)) << tag;
  }
}

// -------------------------------------------------------------------- cli

TEST(Cli, ParsesTypedOptions) {
  CliParser cli("prog", "test");
  cli.flag("full", false, "run at paper scale")
      .integer("hosts", 24, "host count")
      .real("load", 0.95, "per-host load")
      .text("sched", "srpt", "policy");
  const char* argv[] = {"prog", "--full", "--hosts=48", "--load", "0.5",
                        "--sched=fast-basrpt"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_TRUE(cli.get_flag("full"));
  EXPECT_EQ(cli.get_integer("hosts"), 48);
  EXPECT_DOUBLE_EQ(cli.get_real("load"), 0.5);
  EXPECT_EQ(cli.get_text("sched"), "fast-basrpt");
}

TEST(Cli, DefaultsSurviveWhenUnset) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count").flag("full", true, "full scale");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_integer("hosts"), 24);
  EXPECT_TRUE(cli.get_flag("full"));
}

TEST(Cli, NoPrefixNegatesFlag) {
  CliParser cli("prog", "test");
  cli.flag("full", true, "full scale");
  const char* argv[] = {"prog", "--no-full"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_FALSE(cli.get_flag("full"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hots=3"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, MalformedNumberThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count").real("load", 0.5, "load");
  const char* argv1[] = {"prog", "--hosts=abc"};
  EXPECT_THROW(cli.parse(2, argv1), ConfigError);
  const char* argv2[] = {"prog", "--load=1.2.3"};
  EXPECT_THROW(cli.parse(2, argv2), ConfigError);
}

TEST(Cli, MissingValueThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hosts"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, PositionalArgumentsRejected) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(cli.parse(2, argv), ConfigError);
}

TEST(Cli, UnknownOptionErrorNamesTheOptionAndPointsAtHelp) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hots=3"};
  try {
    cli.parse(2, argv);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--hots"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--help"), std::string::npos);
  }
}

TEST(Cli, DuplicateOptionOnCommandLineThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--hosts=3", "--hosts=5"};
  try {
    cli.parse(3, argv);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--hosts"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("more than once"),
              std::string::npos);
  }
}

TEST(Cli, DuplicateFlagMixedFormsThrows) {
  CliParser cli("prog", "test");
  cli.flag("full", false, "full scale");
  const char* argv[] = {"prog", "--full", "--no-full"};
  EXPECT_THROW(cli.parse(3, argv), ConfigError);
}

TEST(Cli, DuplicateRegistrationThrows) {
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count");
  EXPECT_THROW(cli.real("hosts", 1.0, "collides"), ConfigError);
}

TEST(Cli, OverflowingNumberIsAConfigErrorNotACrash) {
  // stoll/stod throw std::out_of_range (not logic_error) on overflow;
  // the parser must translate it instead of letting it escape.
  CliParser cli("prog", "test");
  cli.integer("hosts", 24, "host count").real("load", 0.5, "load");
  const char* argv1[] = {"prog", "--hosts=99999999999999999999"};
  EXPECT_THROW(cli.parse(2, argv1), ConfigError);
  const char* argv2[] = {"prog", "--load=1e999"};
  EXPECT_THROW(cli.parse(2, argv2), ConfigError);
}

TEST(Cli, NonFiniteRealIsRejected) {
  // An infinite --horizon would never end; NaN fails every comparison.
  for (const char* value : {"inf", "-inf", "nan", "infinity", "1e999"}) {
    CliParser cli("prog", "test");
    cli.real("horizon", 0.5, "horizon");
    const std::string arg = std::string("--horizon=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_THROW(cli.parse(2, argv), ConfigError) << value;
  }
  CliParser cli("prog", "test");
  cli.real("horizon", 0.5, "horizon");
  const char* argv[] = {"prog", "--horizon", "0.3"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_real("horizon"), 0.3);
}

TEST(Cli, HelpReturnsFalseAndPrintsOptions) {
  CliParser cli("prog", "demo description");
  cli.integer("hosts", 24, "host count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
  EXPECT_NE(cli.usage().find("hosts"), std::string::npos);
  EXPECT_NE(cli.usage().find("demo description"), std::string::npos);
}

}  // namespace
}  // namespace basrpt
