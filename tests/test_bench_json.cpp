#include "perfeng/measure/bench_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "perfeng/common/error.hpp"

namespace {

using pe::BenchReport;

// to_json keeps 6 significant digits.
void expect_six_digits(double got, double want) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got));
    return;
  }
  EXPECT_NEAR(got, want, std::fabs(want) * 5e-6);
}

TEST(BenchReportLoad, RecoversEveryFieldAndSampleOfToJson) {
  BenchReport r("round \"trip\"\nbench");
  r.set_machine("laptop-x86", "536b2b28f1377b89");
  r.set_context("pool_threads", 3);
  r.set_context("load", 0.123456789);
  r.add_metric("latency", "ms", {1.0 / 3.0, 2.5, 1234567.891, NAN, 7});
  r.add_scalar("ratio\tname", "", 0.000123456789);

  const BenchReport back = BenchReport::load(r.to_json(), "rt.json");
  EXPECT_EQ(back.bench(), r.bench());
  EXPECT_EQ(back.machine_name(), "laptop-x86");
  EXPECT_EQ(back.calibration_hash(), "536b2b28f1377b89");
  ASSERT_EQ(back.context().size(), r.context().size());
  for (std::size_t i = 0; i < r.context().size(); ++i) {
    EXPECT_EQ(back.context()[i].first, r.context()[i].first);
    expect_six_digits(back.context()[i].second, r.context()[i].second);
  }
  ASSERT_EQ(back.metrics().size(), r.metrics().size());
  for (std::size_t m = 0; m < r.metrics().size(); ++m) {
    const pe::BenchMetric& want = r.metrics()[m];
    const pe::BenchMetric& got = back.metrics()[m];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.unit, want.unit);
    ASSERT_EQ(got.samples.size(), want.samples.size());
    for (std::size_t s = 0; s < want.samples.size(); ++s)
      expect_six_digits(got.samples[s], want.samples[s]);
    EXPECT_EQ(got.summary.count, want.summary.count);
  }
  // The scalar's summary is recomputed from its one loaded sample.
  expect_six_digits(back.metrics()[1].summary.median, 0.000123456789);
}

TEST(BenchReportLoad, RejectsAnotherSchemaByName) {
  try {
    (void)BenchReport::load(
        "{\"schema\": \"pe-bench-v9\", \"bench\": \"x\"}", "old.json");
    FAIL() << "expected pe::Error";
  } catch (const pe::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("pe-bench-v9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("old.json"), std::string::npos) << msg;
  }
}

TEST(BenchReportLoad, MalformedInputNamesSourceAndLine) {
  try {
    (void)BenchReport::load("{\n\"schema\": \"pe-bench-v1\",\n\"bench\": 4}",
                            "bad.json");
    FAIL() << "expected pe::Error";
  } catch (const pe::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad.json: line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'bench'"), std::string::npos) << msg;
  }
  EXPECT_THROW((void)BenchReport::load_file("/nonexistent/BENCH_x.json"),
               pe::Error);
}

// Every checked-in snapshot loads, with one metric per "unit" key in its
// text (each metric object carries exactly one).
TEST(BenchReportLoad, EveryCheckedInSnapshotLoads) {
  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(PE_BENCH_SNAPSHOTS)) {
    if (entry.path().extension() != ".json") continue;
    ++files;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const std::string body = text.str();
    std::size_t listed = 0;
    for (std::size_t p = body.find("\"unit\":"); p != std::string::npos;
         p = body.find("\"unit\":", p + 1))
      ++listed;
    const BenchReport r = BenchReport::load_file(entry.path().string());
    EXPECT_EQ(r.metrics().size(), listed) << entry.path();
    EXPECT_GT(listed, 0u) << entry.path();
  }
  EXPECT_GE(files, 7u);
}

}  // namespace
