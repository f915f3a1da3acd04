#include "perfeng/course/tables.hpp"

#include <algorithm>
#include <sstream>

#include "perfeng/course/data.hpp"

namespace pe::course {

Table figure1_table() {
  Table t({"year", "enrolled", "passing", "respondents"});
  for (const YearRecord& y : student_history()) {
    t.add_row({std::to_string(y.year), std::to_string(y.enrolled),
               std::to_string(y.passing),
               y.evaluation_available ? std::to_string(y.respondents)
                                      : "n/a"});
  }
  t.add_row({"total", std::to_string(kTotalEnrolled),
             std::to_string(kTotalPassing),
             std::to_string(kTotalRespondents)});
  return t;
}

std::string figure1_ascii(int width) {
  const auto& history = student_history();
  int max_value = 1;
  for (const YearRecord& y : history)
    max_value = std::max(max_value, y.enrolled);

  std::ostringstream out;
  out << "Figure 1: students per year (#=enrolled, p=passing, "
         "r=respondents)\n";
  for (const YearRecord& y : history) {
    auto bar_width = [&](int value) {
      return value * (width - 1) / max_value;
    };
    out << y.year << " |";
    const int e = bar_width(y.enrolled);
    const int p = bar_width(y.passing);
    const int r = y.evaluation_available ? bar_width(y.respondents) : -1;
    for (int col = 0; col <= e; ++col) {
      char ch = col <= p ? 'p' : '#';
      if (col == r) ch = 'r';
      out << ch;
    }
    out << "  (" << y.enrolled << "/" << y.passing << "/"
        << (y.evaluation_available ? std::to_string(y.respondents) : "n/a")
        << ")\n";
  }
  return out.str();
}

Table table1() {
  std::vector<std::string> headers = {"Topic"};
  for (int s = 1; s <= 7; ++s)
    headers.push_back(std::string("S").append(std::to_string(s)));
  for (int o = 1; o <= 8; ++o)
    headers.push_back(std::string("O").append(std::to_string(o)));
  Table t(headers);
  for (const TopicCoverage& topic : topic_coverage()) {
    std::vector<std::string> row = {topic.topic};
    for (int s = 1; s <= 7; ++s) {
      const bool hit = std::find(topic.stages.begin(), topic.stages.end(),
                                 s) != topic.stages.end();
      row.push_back(hit ? "x" : "");
    }
    for (int o = 1; o <= 8; ++o) {
      const bool hit = std::find(topic.objectives.begin(),
                                 topic.objectives.end(),
                                 o) != topic.objectives.end();
      row.push_back(hit ? "x" : "");
    }
    t.add_row(std::move(row));
  }
  return t;
}

namespace {

Table evaluation_table(const std::vector<EvaluationItem>& items) {
  Table t({"Section", "Statement", "1", "2", "3", "4", "5", "M (paper)",
           "M (recomputed)"});
  for (const EvaluationItem& item : items) {
    std::vector<std::string> row = {item.section, item.statement};
    for (int c : item.counts) row.push_back(std::to_string(c));
    row.push_back(format_fixed(item.paper_mean, 1));
    row.push_back(format_fixed(item.mean(), 2));
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace

Table table2a() { return evaluation_table(evaluation_agreement()); }

Table table2b() { return evaluation_table(evaluation_level()); }

}  // namespace pe::course
