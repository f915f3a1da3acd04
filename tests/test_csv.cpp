// Tests for the CSV parser/writer in perfeng/common/csv.hpp.
#include "perfeng/common/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "perfeng/common/error.hpp"
#include "perfeng/resilience/fault_injection.hpp"

namespace {

TEST(Csv, ParsesHeaderAndRows) {
  const auto doc = pe::parse_csv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_EQ(doc.header, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"4", "5", "6"}));
}

TEST(Csv, HandlesMissingTrailingNewline) {
  const auto doc = pe::parse_csv("x,y\n7,8");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][1], "8");
}

TEST(Csv, HandlesCrlf) {
  const auto doc = pe::parse_csv("x,y\r\n1,2\r\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "1");
}

TEST(Csv, QuotedFieldsKeepCommasAndQuotes) {
  const auto doc = pe::parse_csv("name,note\n\"a,b\",\"he said \"\"hi\"\"\"\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "a,b");
  EXPECT_EQ(doc.rows[0][1], "he said \"hi\"");
}

TEST(Csv, QuotedFieldMayContainNewline) {
  const auto doc = pe::parse_csv("a,b\n\"line1\nline2\",x\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "line1\nline2");
}

TEST(Csv, RaggedRowThrows) {
  EXPECT_THROW((void)pe::parse_csv("a,b\n1\n"), pe::Error);
  EXPECT_THROW((void)pe::parse_csv("a,b\n1,2,3\n"), pe::Error);
}

TEST(Csv, UnterminatedQuoteThrows) {
  EXPECT_THROW((void)pe::parse_csv("a\n\"oops\n"), pe::Error);
}

TEST(Csv, ColumnLookup) {
  const auto doc = pe::parse_csv("year,count\n2020,5\n");
  EXPECT_EQ(doc.column("year"), 0u);
  EXPECT_EQ(doc.column("count"), 1u);
  EXPECT_THROW((void)doc.column("missing"), pe::Error);
}

TEST(Csv, EmptyFieldsPreserved) {
  const auto doc = pe::parse_csv("a,b,c\n,,\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(Csv, ParseSingleLine) {
  const auto fields = pe::parse_csv_line("1,\"two, three\",4");
  EXPECT_EQ(fields, (std::vector<std::string>{"1", "two, three", "4"}));
}

TEST(Csv, WriteRoundTrips) {
  const std::vector<std::string> header = {"k", "v"};
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "1"}, {"with,comma", "2"}, {"with\nnewline", "3"}};
  const std::string text = pe::write_csv(header, rows);
  const auto doc = pe::parse_csv(text);
  EXPECT_EQ(doc.header, header);
  EXPECT_EQ(doc.rows, rows);
}

TEST(Csv, WriteRejectsRaggedRows) {
  EXPECT_THROW((void)pe::write_csv({"a", "b"}, {{"only"}}), pe::Error);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW((void)pe::read_csv_file("/nonexistent/file.csv"), pe::Error);
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const pe::Error& e) {
    return e.what();
  }
  return {};
}

TEST(Csv, RaggedRowErrorNamesSourceAndLine) {
  const auto msg = error_of(
      [] { (void)pe::parse_csv("a,b\n1,2\n3\n", "experiment.csv"); });
  EXPECT_NE(msg.find("experiment.csv"), std::string::npos);
  EXPECT_NE(msg.find("line 3"), std::string::npos);
  EXPECT_NE(msg.find("ragged"), std::string::npos);
}

TEST(Csv, DefaultSourceIsMemory) {
  const auto msg = error_of([] { (void)pe::parse_csv("a,b\n1\n"); });
  EXPECT_NE(msg.find("<memory>"), std::string::npos);
  EXPECT_NE(msg.find("line 2"), std::string::npos);
}

TEST(Csv, UnterminatedQuoteReportedAtOpeningLine) {
  const auto msg = error_of(
      [] { (void)pe::parse_csv("a\nok\n\"oops\nmore\n", "bad.csv"); });
  EXPECT_NE(msg.find("bad.csv"), std::string::npos);
  EXPECT_NE(msg.find("line 3"), std::string::npos);  // where the quote opened
}

TEST(Csv, FileErrorsCarryThePath) {
  const std::string path = testing::TempDir() + "pe_test_garbage.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,2,3\n";
  }
  const auto msg = error_of([&] { (void)pe::read_csv_file(path); });
  EXPECT_NE(msg.find(path), std::string::npos);
  EXPECT_NE(msg.find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, IoFaultSiteCoversFileReads) {
  const std::string path = testing::TempDir() + "pe_test_ok.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\n1,2\n";
  }
  pe::resilience::FaultPlan plan;
  plan.faults.push_back({.site = std::string(pe::fault_sites::kIoCsv)});
  pe::resilience::ScopedFaultInjection scope(std::move(plan));
  EXPECT_THROW((void)pe::read_csv_file(path),
               pe::resilience::FaultInjected);
  std::remove(path.c_str());
}

}  // namespace
