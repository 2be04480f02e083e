/**
 * @file
 * The bench binaries' shared helpers: PEP_BENCH_SCALE parsing, the
 * PEP_BENCH_ONLY filter, and the JSON reporter.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/harness.hh"
#include "common/report.hh"

namespace pep::bench {
namespace {

/** Sets (or unsets) an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(BenchScale, UnsetIsOne)
{
    const ScopedEnv env("PEP_BENCH_SCALE", nullptr);
    EXPECT_EQ(benchScale(), 1.0);
}

TEST(BenchScale, ValidValuesPassThrough)
{
    const ScopedEnv env("PEP_BENCH_SCALE", "0.1");
    EXPECT_DOUBLE_EQ(benchScale(), 0.1);
}

TEST(BenchScale, InvalidValuesWarnAndFallBackToOne)
{
    for (const char *value : {"0", "abc", "1.5", "-0.5", "0.1x", ""}) {
        const ScopedEnv env("PEP_BENCH_SCALE", value);
        testing::internal::CaptureStderr();
        EXPECT_EQ(benchScale(), 1.0) << value;
        EXPECT_NE(testing::internal::GetCapturedStderr().find(
                      "invalid PEP_BENCH_SCALE"),
                  std::string::npos)
            << value;
    }
}

TEST(BenchSuite, OnlySelectsOneBenchmark)
{
    const ScopedEnv scale("PEP_BENCH_SCALE", "0.1");
    const ScopedEnv only("PEP_BENCH_ONLY", "compress");
    const std::vector<workload::WorkloadSpec> suite = benchSuite();
    ASSERT_EQ(suite.size(), 1u);
    EXPECT_EQ(suite[0].name, "compress");
}

TEST(BenchSuiteDeathTest, UnknownOnlyExitsAndListsValidNames)
{
    const ScopedEnv only("PEP_BENCH_ONLY", "nosuch");
    EXPECT_EXIT(benchSuite(), testing::ExitedWithCode(2),
                "PEP_BENCH_ONLY=nosuch names no benchmark; valid "
                "names: compress, jess");
}

TEST(BenchReport, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(jsonString("plain"), "\"plain\"");
    EXPECT_EQ(jsonString("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonString("tab\there\nnl\x01"),
              "\"tab\\u0009here\\u000anl\\u0001\"");

    Report report("quote\"d");
    report.set("na\"me\\", 1.0, "u\n");
    const std::string json = report.json();
    EXPECT_NE(json.find("\"binary\": \"quote\\\"d\""), std::string::npos);
    EXPECT_NE(json.find("\"na\\\"me\\\\\": {\"value\": 1, \"unit\": "
                        "\"u\\u000a\"}"),
              std::string::npos)
        << json;
}

TEST(BenchReport, NonFiniteValuesAreNull)
{
    Report report("t");
    report.set("nan", std::numeric_limits<double>::quiet_NaN(), "x");
    report.set("inf", std::numeric_limits<double>::infinity(), "x");
    report.set("half", 0.5, "x");
    const std::string json = report.json();
    EXPECT_NE(json.find("\"nan\": {\"value\": null"), std::string::npos);
    EXPECT_NE(json.find("\"inf\": {\"value\": null"), std::string::npos);
    EXPECT_NE(json.find("\"half\": {\"value\": 0.5"), std::string::npos);
}

TEST(BenchReport, CountsAttemptedAndFailedChecks)
{
    Report report("t");
    EXPECT_TRUE(report.correct());
    EXPECT_TRUE(report.check(true, "passes"));
    testing::internal::CaptureStderr();
    EXPECT_FALSE(report.check(false, "fails"));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "t: check failed: fails"),
              std::string::npos);
    EXPECT_EQ(report.attempted(), 2u);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_FALSE(report.correct());
    const std::string json = report.json();
    EXPECT_NE(json.find("\"correct\": false"), std::string::npos);
    EXPECT_NE(json.find("\"attempted\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
}

TEST(BenchReport, CarriesSchemaAndMeta)
{
    const ScopedEnv scale("PEP_BENCH_SCALE", "0.5");
    const ScopedEnv only("PEP_BENCH_ONLY", "jess");
    const std::string json = Report("tab_x").json();
    EXPECT_NE(json.find("\"schema\": \"pep-bench-report/1\""),
              std::string::npos);
    for (const char *key :
         {"\"meta\": {\"binary\": \"tab_x\"", "\"host_cores\": ",
          "\"compiler\": ", "\"build_type\": ", "\"commit\": ",
          "\"scale\": 0.5", "\"only\": \"jess\""}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
}

TEST(BenchReport, WriteReturnsTheExitStatus)
{
    const std::string path =
        testing::TempDir() + "bench_common_test_report.json";
    Report report("t");
    report.check(true, "passes");
    testing::internal::CaptureStdout();
    EXPECT_EQ(report.write(path), 0);
    report.check(false, "fails");
    testing::internal::CaptureStderr();
    EXPECT_EQ(report.write(path), 1);
    EXPECT_EQ(report.write("/nonexistent-dir/report.json"), 1);
    testing::internal::GetCapturedStderr();
    testing::internal::GetCapturedStdout();
    std::remove(path.c_str());
}

} // namespace
} // namespace pep::bench
