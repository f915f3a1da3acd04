// Integration test: the course-artifact stack — data, table generators,
// CSV artifacts and grading must tell one consistent story.
#include <gtest/gtest.h>

#include "perfeng/common/csv.hpp"
#include "perfeng/course/data.hpp"
#include "perfeng/course/grading.hpp"
#include "perfeng/course/tables.hpp"

namespace {

using namespace pe::course;

TEST(CourseStack, Figure1TableMatchesHistory) {
  const auto table = figure1_table();
  const std::string csv = table.render_csv();
  const auto doc = pe::parse_csv(csv);
  const auto& history = student_history();
  ASSERT_EQ(doc.rows.size(), history.size() + 1);  // + total row
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(doc.rows[i][doc.column("year")],
              std::to_string(history[i].year));
    EXPECT_EQ(doc.rows[i][doc.column("enrolled")],
              std::to_string(history[i].enrolled));
  }
  EXPECT_EQ(doc.rows.back()[doc.column("enrolled")],
            std::to_string(kTotalEnrolled));
}

TEST(CourseStack, StudentsCsvRoundTripsThroughTheParser) {
  const auto doc = pe::parse_csv(students_csv());
  int enrolled = 0;
  for (const auto& row : doc.rows)
    enrolled += std::stoi(row[doc.column("enrolled")]);
  EXPECT_EQ(enrolled, kTotalEnrolled);
}

TEST(CourseStack, MetricsCsvMatchesEvaluationData) {
  const auto doc = pe::parse_csv(metrics_csv());
  const auto& agreement = evaluation_agreement();
  ASSERT_EQ(doc.rows.size(), agreement.size() + evaluation_level().size());
  // Spot-check the first row's histogram fields against the data module.
  for (int score = 1; score <= 5; ++score) {
    EXPECT_EQ(doc.rows[0][doc.column(
                  std::string("c").append(std::to_string(score)))],
              std::to_string(agreement[0].counts[score - 1]));
  }
}

TEST(CourseStack, Table1ColumnsTrackTopicCoverage) {
  const auto csv = table1().render_csv();
  const auto doc = pe::parse_csv(csv);
  const auto& topics = topic_coverage();
  ASSERT_EQ(doc.rows.size(), topics.size());
  for (std::size_t i = 0; i < topics.size(); ++i) {
    for (int s = 1; s <= 7; ++s) {
      const bool expected =
          std::find(topics[i].stages.begin(), topics[i].stages.end(), s) !=
          topics[i].stages.end();
      const auto& cell =
          doc.rows[i][doc.column(std::string("S").append(std::to_string(s)))];
      EXPECT_EQ(cell == "x", expected) << topics[i].topic << " S" << s;
    }
    for (int o = 1; o <= 8; ++o) {
      const bool expected =
          std::find(topics[i].objectives.begin(),
                    topics[i].objectives.end(),
                    o) != topics[i].objectives.end();
      const auto& cell =
          doc.rows[i][doc.column(std::string("O").append(std::to_string(o)))];
      EXPECT_EQ(cell == "x", expected) << topics[i].topic << " O" << o;
    }
  }
}

TEST(CourseStack, PaperAverageStudentStoryHoldsTogether) {
  // Section 5.1's averages: assignments ~8, exam ~7.5, project ~8,
  // passing average 8. Push them through the real formulas.
  const double gp = project_grade(8.0, 8.0, 8.0);
  EXPECT_DOUBLE_EQ(gp, 8.0);
  // Assignment points scaled to grade 8 for a team of two: 0.8 * 36 pts.
  const double ga = assignments_grade(
      {0.8 * 10, 0.8 * 9, 0.8 * 11, 0.8 * 12}, 2);
  EXPECT_NEAR(ga, 9.33, 0.01);  // slack: 42-point pool over a 36 divisor
  const double final = final_grade(gp, ga, 7.5, 20.0);
  EXPECT_GT(final, 7.5);
  EXPECT_LT(final, 9.5);
  EXPECT_TRUE(passes(final));
}

TEST(CourseStack, EverythingRendersWithoutThrowing) {
  EXPECT_FALSE(figure1_table().render().empty());
  EXPECT_FALSE(figure1_ascii().empty());
  EXPECT_FALSE(table1().render().empty());
  EXPECT_FALSE(table2a().render().empty());
  EXPECT_FALSE(table2b().render().empty());
  EXPECT_FALSE(students_csv().empty());
  EXPECT_FALSE(metrics_csv().empty());
}

}  // namespace
