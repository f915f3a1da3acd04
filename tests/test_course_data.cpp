// Tests for the embedded paper data artifacts (DATA-1, DATA-2, Table 1)
// in perfeng/course/data.hpp. These assert fidelity against the numbers
// printed in the paper.
#include "perfeng/course/data.hpp"

#include <gtest/gtest.h>

#include "perfeng/common/csv.hpp"

namespace {

using namespace pe::course;

TEST(Data1, SevenYears) {
  const auto& h = student_history();
  ASSERT_EQ(h.size(), 7u);
  EXPECT_EQ(h.front().year, 2017);
  EXPECT_EQ(h.back().year, 2023);
}

TEST(Data1, TotalsMatchThePaperExactly) {
  int enrolled = 0, passing = 0, respondents = 0;
  for (const auto& y : student_history()) {
    enrolled += y.enrolled;
    passing += y.passing;
    respondents += y.respondents;
  }
  EXPECT_EQ(enrolled, kTotalEnrolled);      // 146
  EXPECT_EQ(passing, kTotalPassing);        // 93
  EXPECT_EQ(respondents, kTotalRespondents);  // 41
}

TEST(Data1, EvaluationsMissingFor2019And2022) {
  for (const auto& y : student_history()) {
    const bool should_be_missing = (y.year == 2019 || y.year == 2022);
    EXPECT_EQ(!y.evaluation_available, should_be_missing) << y.year;
    if (!y.evaluation_available) {
      EXPECT_EQ(y.respondents, 0);
    }
  }
}

TEST(Data1, DropoutBandMatchesThePaper) {
  // "15-50% drop out": passing is between 50% and 85% of enrolled.
  for (const auto& y : student_history()) {
    const double rate = double(y.passing) / y.enrolled;
    EXPECT_GE(rate, 0.5) << y.year;
    EXPECT_LE(rate, 0.85) << y.year;
  }
}

TEST(Data1, EnrollmentGrowsOverTheYears) {
  const auto& h = student_history();
  for (std::size_t i = 1; i < h.size(); ++i)
    EXPECT_GE(h[i].enrolled, h[i - 1].enrolled);
}

TEST(Data1, CsvParsesBack) {
  const auto doc = pe::parse_csv(students_csv());
  EXPECT_EQ(doc.rows.size(), 7u);
  EXPECT_EQ(doc.header.size(), 5u);
  EXPECT_EQ(doc.rows[0][doc.column("year")], "2017");
}

TEST(Data2, ThirteenAgreementItems) {
  EXPECT_EQ(evaluation_agreement().size(), 13u);
  EXPECT_EQ(evaluation_level().size(), 2u);
}

TEST(Data2, EveryHistogramReproducesThePaperMean) {
  // The strongest fidelity check available: each row's five counts must
  // recompute to the printed M within the paper's one-decimal rounding.
  auto check = [](const EvaluationItem& item) {
    EXPECT_NEAR(item.mean(), item.paper_mean, 0.05)
        << item.statement << ": counts give " << item.mean()
        << " but paper prints " << item.paper_mean;
  };
  for (const auto& item : evaluation_agreement()) check(item);
  for (const auto& item : evaluation_level()) check(item);
}

TEST(Data2, KnownRowsVerbatim) {
  const auto& items = evaluation_agreement();
  EXPECT_EQ(items[0].statement, "Taught me a lot");
  EXPECT_EQ(items[0].counts, (std::array<int, 5>{0, 0, 1, 17, 18}));
  EXPECT_DOUBLE_EQ(items[0].paper_mean, 4.5);
  EXPECT_EQ(items[6].statement, "To apply subject matter");
  EXPECT_DOUBLE_EQ(items[6].paper_mean, 4.8);  // the course's best score
}

TEST(Data2, WorkloadIsTheHighestLevelScore) {
  // The paper's "students are critical of the high workload" shows up as
  // Workload (4.0) > Level (3.7).
  const auto& level = evaluation_level();
  EXPECT_EQ(level[0].statement, "Workload");
  EXPECT_GT(level[0].mean(), level[1].mean());
}

TEST(Data2, RespondentCountsPlausible) {
  // Each statement was answered by at most the total respondent pool and
  // by at least half of it.
  for (const auto& item : evaluation_agreement()) {
    EXPECT_LE(item.total(), kTotalRespondents);
    EXPECT_GE(item.total(), kTotalRespondents / 2);
  }
}

TEST(Data2, AssignmentsAllScoreAboveFour) {
  // "helped me understand the subject" >= 4.1 for all four assignments.
  for (const auto& item : evaluation_agreement()) {
    if (item.section.find("helped me understand") != std::string::npos) {
      EXPECT_GE(item.paper_mean, 4.1) << item.statement;
    }
  }
}

TEST(Data2, CsvParsesBack) {
  const auto doc = pe::parse_csv(metrics_csv());
  EXPECT_EQ(doc.rows.size(), 15u);  // 13 agreement + 2 level
  EXPECT_EQ(doc.rows[0][doc.column("statement")], "Taught me a lot");
}

TEST(Table1, ElevenTopicsInPaperOrder) {
  const auto& topics = topic_coverage();
  ASSERT_EQ(topics.size(), 11u);
  EXPECT_EQ(topics.front().topic, "Basics of performance");
  EXPECT_EQ(topics.back().topic, "Polyhedral model");
}

TEST(Table1, EveryTopicServesAStageAndAnObjective) {
  for (const auto& t : topic_coverage()) {
    EXPECT_FALSE(t.stages.empty()) << t.topic;
    EXPECT_FALSE(t.objectives.empty()) << t.topic;
    for (int s : t.stages) {
      EXPECT_GE(s, 1);
      EXPECT_LE(s, 7);
    }
    for (int o : t.objectives) {
      EXPECT_GE(o, 1);
      EXPECT_LE(o, 8);
    }
  }
}

TEST(Table1, PracticalStagesAreAllCovered) {
  // The practical part of the course targets stages 2-6.
  for (int stage = 2; stage <= 6; ++stage) {
    bool covered = false;
    for (const auto& t : topic_coverage())
      for (int s : t.stages)
        if (s == stage) covered = true;
    EXPECT_TRUE(covered) << "stage " << stage;
  }
}

TEST(Table1, EveryLearningObjectiveIsCovered) {
  for (int objective = 1; objective <= 8; ++objective) {
    bool covered = false;
    for (const auto& t : topic_coverage())
      for (int o : t.objectives)
        if (o == objective) covered = true;
    EXPECT_TRUE(covered) << "objective " << objective;
  }
}

}  // namespace
