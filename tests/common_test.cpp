// Unit tests for src/common: RNG, statistics, strings, tables, CSV, argparse,
// and the archive codec, including a seeded fuzz of its two framings.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/argparse.hpp"
#include "common/checksum.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "fuzz_mutator.hpp"

namespace esm {
namespace {

// ----------------------------------------------------------------- Rng

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 6));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntApproximatelyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  // Chi-squared with 9 dof; 99.9th percentile is ~27.9.
  double chi2 = 0.0;
  const double expected = n / 10.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, NormalWithParameters) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(31);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.25, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.75, 0.02);
}

TEST(RngTest, WeightedIndexRejectsAllZero) {
  Rng rng(31);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), LogicError);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.split();
  // The child stream should not replicate the parent's next values.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SplitStreamsAreStableAndIndependent) {
  const Rng parent(123);
  Rng a1 = parent.split(0), a2 = parent.split(0), b = parent.split(1);
  // Same id -> same stream; different id -> different stream.
  EXPECT_EQ(a1(), a2());
  Rng a3 = parent.split(0);
  EXPECT_NE(a3(), b());
  // Substream derivation must not advance the parent.
  Rng p1(123), p2(123);
  (void)p1.split(7);
  EXPECT_EQ(p1(), p2());
}

// --------------------------------------------------------------- stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, RunningStatsEmpty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.29099, 1e-4);
  EXPECT_NEAR(population_stddev(xs), 1.11803, 1e-4);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(StatsTest, CoefficientOfVariation) {
  const std::vector<double> xs{10.0, 10.0, 10.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
  const std::vector<double> ys{8.0, 12.0};
  EXPECT_NEAR(coefficient_of_variation(ys), stddev(ys) / 10.0, 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(StatsTest, PercentileRejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 50.0), ConfigError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile(xs, -1.0), ConfigError);
  EXPECT_THROW(percentile(xs, 101.0), ConfigError);
}

TEST(StatsTest, TrimmedMeanMatchesPaperProtocol) {
  // 10 values, trim 20% from each side -> drop 2 lowest and 2 highest.
  std::vector<double> xs{100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 0.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.2), (2.0 + 3 + 4 + 5 + 6 + 7) / 6.0);
}

TEST(StatsTest, TrimmedMeanZeroTrimIsMean) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.0), 2.0);
}

TEST(StatsTest, TrimmedMeanRobustToOutliers) {
  std::vector<double> xs(100, 10.0);
  xs[0] = 1000.0;
  xs[1] = 1000.0;
  EXPECT_DOUBLE_EQ(trimmed_mean(xs, 0.2), 10.0);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> zs{6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(xs, zs), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(StatsTest, KendallTauAgreesOnMonotone) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(kendall_tau(xs, ys), 1.0);
  const std::vector<double> zs{40.0, 30.0, 20.0, 10.0};
  EXPECT_DOUBLE_EQ(kendall_tau(xs, zs), -1.0);
}

TEST(StatsTest, KendallTauMixed) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{1.0, 3.0, 2.0};
  EXPECT_NEAR(kendall_tau(xs, ys), 1.0 / 3.0, 1e-12);
}

// -------------------------------------------------------------- strings

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(StringsTest, FormatG17WritesThePrintfBytes) {
  // format_g17 and append_g17 must write exactly what printf("%.17g")
  // writes: the bytes of served replies and search payloads, archives,
  // journal records and the campaign digest.
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 3.0,
      DBL_MIN,
      -DBL_MIN,
      DBL_MAX,
      -DBL_MAX,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      1.0, 2.0, 10.0, 100.0, 1e15, 1e16, 1e17, 9007199254740993.0, 1e21,
      1e22, 1e23, 0.5, 0.25, 1.5, 2.5, 0.1, 0.3, 1e-5, 1e-4, 123.456,
      1.23456789012345678e-3, 0.83203017711639404};
  Rng rng(0xF0A7);
  for (int i = 0; i < 20000; ++i) {
    // Raw bit patterns cover every exponent (NaN payloads included); the
    // scaled draws cover the latencies and weights actually printed.
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(rng.uniform(0.0, 50.0));
    values.push_back(
        std::ldexp(rng.uniform(1.0, 2.0), rng.uniform_int(-1074, 1023)));
    values.push_back(static_cast<double>(rng.uniform_int(-100000, 100000)));
  }
  for (const double v : values) {
    char want[64];
    std::snprintf(want, sizeof(want), "%.17g", v);
    EXPECT_EQ(format_g17(v), want);
    std::string joined = "3 ";
    append_g17(joined, v);
    EXPECT_EQ(joined, std::string("3 ") + want);
  }
}

TEST(StringsTest, FormatPercent) {
  EXPECT_EQ(format_percent(0.976, 1), "97.6%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcdef", 4), "abcd");
}

TEST(StringsTest, StartsWithAndLower) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
  EXPECT_EQ(to_lower("ReSNet"), "resnet");
}

// ---------------------------------------------------------------- table

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, RejectsRaggedRows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ConfigError);
}

// ----------------------------------------------------------------- csv

TEST(CsvTest, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/esm_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "y"});
    csv.add_row({"1", "2"});
    csv.add_row({"has,comma", "has\"quote"});
    EXPECT_EQ(csv.row_count(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\",\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvTest, EscapeOnlyWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("a\nb"), "\"a\nb\"");
}

// ------------------------------------------------------------- argparse

TEST(ArgParseTest, ParsesAllForms) {
  ArgParser args("test");
  args.add_string("name", "default", "a string");
  args.add_int("count", 5, "an int");
  args.add_double("rate", 0.5, "a double");
  args.add_bool("verbose", "a flag");
  const char* argv[] = {"prog", "--name", "value", "--count=7",
                        "--rate", "0.25", "--verbose"};
  ASSERT_TRUE(args.parse(7, argv));
  EXPECT_EQ(args.get_string("name"), "value");
  EXPECT_EQ(args.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(args.get_double("rate"), 0.25);
  EXPECT_TRUE(args.get_bool("verbose"));
}

TEST(ArgParseTest, DefaultsApply) {
  ArgParser args("test");
  args.add_string("name", "default", "a string");
  args.add_bool("flag", "a flag");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(args.parse(1, argv));
  EXPECT_EQ(args.get_string("name"), "default");
  EXPECT_FALSE(args.get_bool("flag"));
}

TEST(ArgParseTest, RejectsUnknownFlag) {
  ArgParser args("test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(args.parse(3, argv), ConfigError);
}

TEST(ArgParseTest, RejectsIllTypedValue) {
  ArgParser args("test");
  args.add_int("count", 5, "an int");
  const char* argv[] = {"prog", "--count", "abc"};
  EXPECT_THROW(args.parse(3, argv), ConfigError);
}

TEST(ArgParseTest, BoolAcceptsExplicitValue) {
  ArgParser args("test");
  args.add_bool("flag", "a flag");
  const char* argv[] = {"prog", "--flag=false"};
  ASSERT_TRUE(args.parse(2, argv));
  EXPECT_FALSE(args.get_bool("flag"));
}

// -------------------------------------------------------------- archive

TEST(ArchiveTest, RoundTripsAllTypes) {
  ArchiveWriter writer;
  writer.put_string("name", "fcc");
  writer.put_int("count", -42);
  writer.put_double("rate", 0.125);
  writer.put_doubles("vec", {1.0, -2.5, 3e-7});
  const ArchiveReader reader = ArchiveReader::from_string(writer.to_string());
  EXPECT_EQ(reader.get_string("name"), "fcc");
  EXPECT_EQ(reader.get_int("count"), -42);
  EXPECT_DOUBLE_EQ(reader.get_double("rate"), 0.125);
  const auto vec = reader.get_doubles("vec");
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_DOUBLE_EQ(vec[0], 1.0);
  EXPECT_DOUBLE_EQ(vec[1], -2.5);
  EXPECT_DOUBLE_EQ(vec[2], 3e-7);
}

TEST(ArchiveTest, PreservesDoublePrecision) {
  ArchiveWriter writer;
  const double value = 0.1234567890123456789;
  writer.put_double("x", value);
  const ArchiveReader reader = ArchiveReader::from_string(writer.to_string());
  EXPECT_DOUBLE_EQ(reader.get_double("x"), value);
}

TEST(ArchiveTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/esm_archive_test.txt";
  {
    ArchiveWriter writer;
    writer.put_doubles("w", {1.5, 2.5});
    writer.save(path);
  }
  const ArchiveReader reader =
      ArchiveReader::from_string(read_file(path, "archive"));
  EXPECT_EQ(reader.get_doubles("w").size(), 2u);
  std::remove(path.c_str());
}

TEST(ArchiveTest, RejectsBadHeader) {
  EXPECT_THROW(ArchiveReader::from_string("not-an-archive\n"), ConfigError);
}

TEST(ArchiveTest, RejectsUnknownFormatVersion) {
  // A garbled header and a newer format version are distinct errors: the
  // former is "not an archive", the latter names the unsupported version.
  try {
    ArchiveReader::from_string("esm-archive v3\na 1 1\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported archive format"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ArchiveReader::from_string("esm-archive v999\n"), ConfigError);
}

TEST(ArchiveTest, WritesAndVerifiesChecksumFooter) {
  ArchiveWriter writer;
  writer.put_int("a", 1);
  const std::string text = writer.to_string();
  EXPECT_NE(text.find("esm-archive-crc32 "), std::string::npos);
  const ArchiveReader reader = ArchiveReader::from_string(text);
  EXPECT_TRUE(reader.checksummed());
  EXPECT_EQ(reader.get_int("a"), 1);
}

TEST(ArchiveTest, LoadsV1WithoutFooterUnchecksummed) {
  const ArchiveReader reader =
      ArchiveReader::from_string("esm-archive v1\na 1 7\n");
  EXPECT_FALSE(reader.checksummed());
  EXPECT_EQ(reader.get_int("a"), 7);
}

TEST(ArchiveTest, RejectsV2WithoutFooterAsTruncated) {
  try {
    ArchiveReader::from_string("esm-archive v2\na 1 1\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated archive"),
              std::string::npos)
        << e.what();
  }
}

TEST(ArchiveTest, RejectsChecksumMismatch) {
  ArchiveWriter writer;
  writer.put_double("rate", 0.125);
  std::string text = writer.to_string();
  const std::size_t pos = text.find("0.125");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = '9';  // flip a payload byte; footer no longer matches
  try {
    ArchiveReader::from_string(text);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(ArchiveTest, RejectsHostileElementCount) {
  // A bit flip turning a count into a huge number must not drive a huge
  // allocation: counts are bounds-checked against the line length first.
  EXPECT_THROW(
      ArchiveReader::from_string("esm-archive v1\nv 99999999999 1.0\n"),
      ConfigError);
}

TEST(ArchiveTest, RejectsTrailingGarbageAfterDeclaredCount) {
  EXPECT_THROW(
      ArchiveReader::from_string("esm-archive v1\nv 1 1.0 stray\n"),
      ConfigError);
}

TEST(ArchiveTest, RoundTripsStringVectors) {
  ArchiveWriter writer;
  writer.put_strings("toks", {"conv3x3", "relu", "dwconv5x5_s2"});
  const ArchiveReader reader = ArchiveReader::from_string(writer.to_string());
  EXPECT_EQ(reader.get_strings("toks"),
            (std::vector<std::string>{"conv3x3", "relu", "dwconv5x5_s2"}));
  EXPECT_TRUE(reader.get_strings("toks").size() == 3u);
}

TEST(ArchiveTest, PutStringsRejectsNonTokenValues) {
  ArchiveWriter writer;
  EXPECT_THROW(writer.put_strings("k", {"two words"}), ConfigError);
  EXPECT_THROW(writer.put_strings("k", {""}), ConfigError);
}

TEST(ArchiveTest, RejectsMissingKeyAndDuplicates) {
  ArchiveWriter writer;
  writer.put_int("a", 1);
  const ArchiveReader reader = ArchiveReader::from_string(writer.to_string());
  EXPECT_THROW(reader.get_int("b"), ConfigError);
  EXPECT_FALSE(reader.has("b"));
  EXPECT_TRUE(reader.has("a"));
  EXPECT_THROW(
      ArchiveReader::from_string("esm-archive v1\na 1 1\na 1 2\n"),
      ConfigError);
}

TEST(ArchiveTest, RejectsTruncatedVector) {
  EXPECT_THROW(ArchiveReader::from_string("esm-archive v1\nv 3 1.0 2.0\n"),
               ConfigError);
}

TEST(ArchiveTest, RejectsKeysWithWhitespace) {
  ArchiveWriter writer;
  EXPECT_THROW(writer.put_int("bad key", 1), ConfigError);
  EXPECT_THROW(writer.put_string("k", "two words"), ConfigError);
}

TEST(ArchiveTest, RoundTripsOneLineOfGroups) {
  // The journal's record body: the same groups, space-joined on one line.
  ArchiveWriter writer;
  writer.put_string("type", "batch");
  writer.put_u64("seed", 18446744073709551615ull);
  writer.put_bool("has_qc", true);
  writer.put_doubles("ms", {1.5, 0.25});
  writer.put_strings("none", {});
  const std::string line = writer.to_line();
  EXPECT_EQ(line,
            "type 1 batch seed 1 18446744073709551615 has_qc 1 1 "
            "ms 2 1.5 0.25 none 0");
  const ArchiveReader reader = ArchiveReader::from_line(line);
  EXPECT_EQ(reader.get_string("type"), "batch");
  EXPECT_EQ(reader.get_u64("seed"), 18446744073709551615ull);
  EXPECT_TRUE(reader.get_bool("has_qc"));
  EXPECT_EQ(reader.get_doubles("ms"), (std::vector<double>{1.5, 0.25}));
  EXPECT_TRUE(reader.get_strings("none").empty());
  EXPECT_THROW(ArchiveReader::from_line("a 1 x a 1 y"), ConfigError);
  EXPECT_THROW(ArchiveReader::from_line("a 2 x"), ConfigError);
  EXPECT_THROW(ArchiveReader::from_line("a"), ConfigError);
  EXPECT_THROW(ArchiveReader::from_line("a 1x y"), ConfigError);
}

TEST(ArchiveTest, NumbersMustFitAndFillTheirToken) {
  const ArchiveReader reader = ArchiveReader::from_line(
      "big 1 9223372036854775808 neg 1 -1 two 1 2 wide 1 "
      "18446744073709551616 half 1 0.5x");
  EXPECT_THROW(reader.get_int("big"), ConfigError);  // overflows long long
  EXPECT_EQ(reader.get_u64("big"), 9223372036854775808ull);
  EXPECT_EQ(reader.get_int("neg"), -1);
  EXPECT_THROW(reader.get_u64("neg"), ConfigError);
  EXPECT_THROW(reader.get_u64("wide"), ConfigError);
  EXPECT_THROW(reader.get_bool("two"), ConfigError);
  EXPECT_THROW(reader.get_double("half"), ConfigError);
}

// ------------------------------------------------------- codec fuzzing

/// Decodes `text` with `parse`; nullopt when it throws ConfigError.
template <typename F>
std::optional<ArchiveReader> try_decode(F&& parse) {
  try {
    return parse();
  } catch (const ConfigError&) {
    return std::nullopt;
  }
}

/// The groups written back through the codec.
ArchiveWriter reencode(const ArchiveReader& reader) {
  ArchiveWriter writer;
  for (const auto& [key, values] : reader.groups()) {
    writer.put_strings(key, values);
  }
  return writer;
}

/// Reads each group through one typed getter, rotated by `salt` so that
/// across cases every getter meets every group: each getter either
/// answers or throws ConfigError.
void read_typed(const ArchiveReader& reader, int salt) {
  for (const auto& [key, values] : reader.groups()) {
    try {
      switch (salt++ % 5) {
        case 0: reader.get_int(key); break;
        case 1: reader.get_u64(key); break;
        case 2: reader.get_bool(key); break;
        case 3: reader.get_double(key); break;
        default: reader.get_doubles(key); break;
      }
    } catch (const ConfigError&) {
    }
  }
}

TEST(ArchiveFuzzTest, MutatedArchivesAndLinesRejectOrRoundTrip) {
  // Seeded generated input for both framings of the codec: archive file
  // bytes (their CRC footer recomputed, so parsing gets past it) and
  // one-line record bodies. Each case must throw ConfigError or decode to
  // groups whose re-encoding decodes to the same groups.
  ArchiveWriter model;
  model.put_string("esm.kind", "mlp");
  model.put_int("esm.format", 3);
  model.put_int("mlp.seed", -7);
  model.put_u64("rng_digest", 0xdeadbeefcafef00dull);
  model.put_bool("lut.bias_corrected", true);
  model.put_double("lr", 0.001);
  model.put_doubles("w0", {0.5, -1.25, 3e-7, 1e300, 4.9406564584124654e-324});
  model.put_doubles("empty", {});
  model.put_strings("keys", {"conv3x3", "ResNet[d=2:k3e1,k3e1]"});
  ArchiveWriter record;
  record.put_string("type", "batch");
  record.put_string("request_crc", crc32_hex(0x0badf00du));
  record.put_u64("requested", 6);
  record.put_bool("has_qc", false);
  record.put_strings("sample_index", {"0", "2", "3"});
  record.put_doubles("sample_ms", {1.5, 2.25, 0.875});
  const std::vector<std::string> files = {model.to_string(),
                                          record.to_string()};
  std::vector<std::string> bodies;  // each file without its footer line
  for (const std::string& file : files) {
    bodies.push_back(file.substr(0, file.rfind('\n', file.size() - 2) + 1));
  }
  const std::vector<std::string> lines = {model.to_line(), record.to_line()};

  Rng rng(0xC0DEC);
  constexpr int kCases = 20000;
  int decoded = 0;
  for (int c = 0; c < kCases; ++c) {
    const bool as_file = c % 2 == 0;
    const std::vector<std::string>& seeds = as_file ? bodies : lines;
    std::string text = seeds[rng.uniform_u64(seeds.size())];
    const int mutations = rng.uniform_int(1, 4);
    for (int m = 0; m < mutations; ++m) {
      fuzz::mutate_groups(text, seeds, as_file ? '\n' : ' ', rng);
    }
    std::optional<ArchiveReader> reader;
    if (as_file) {
      if (!text.empty() && text.back() != '\n' && rng.bernoulli(0.9)) {
        text += '\n';
      }
      text += "esm-archive-crc32 " + crc32_hex(crc32(text)) + "\n";
      reader = try_decode([&] { return ArchiveReader::from_string(text); });
    } else {
      reader = try_decode([&] { return ArchiveReader::from_line(text); });
    }
    if (!reader) continue;
    ++decoded;
    read_typed(*reader, c);
    const ArchiveWriter writer = reencode(*reader);
    ASSERT_EQ(ArchiveReader::from_string(writer.to_string()).groups(),
              reader->groups())
        << "case " << c;
    ASSERT_EQ(ArchiveReader::from_line(writer.to_line()).groups(),
              reader->groups())
        << "case " << c;
  }
  // The mutator must reach both sides of the grammar.
  EXPECT_GT(decoded, kCases / 10);
  EXPECT_LT(decoded, kCases * 9 / 10);
}

// ---------------------------------------------------------------- error

TEST(ErrorTest, RequireThrowsConfigErrorWithMessage) {
  try {
    ESM_REQUIRE(false, "bad value " << 42);
    FAIL() << "should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad value 42"), std::string::npos);
  }
}

TEST(ErrorTest, CheckThrowsLogicError) {
  EXPECT_THROW(ESM_CHECK(1 == 2, "impossible"), LogicError);
}

TEST(ErrorTest, PassingConditionsDoNotThrow) {
  EXPECT_NO_THROW(ESM_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(ESM_CHECK(true, "fine"));
}

}  // namespace
}  // namespace esm
