#include "perfeng/common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "perfeng/common/error.hpp"

namespace pe {

Table::Table(std::vector<std::string> headers) {
  set_headers(std::move(headers));
}

void Table::set_headers(std::vector<std::string> headers) {
  PE_REQUIRE(!headers.empty(), "table needs at least one column");
  headers_ = std::move(headers);
  if (alignment_.size() != headers_.size()) {
    alignment_.assign(headers_.size(), Align::kRight);
    alignment_[0] = Align::kLeft;
  }
}

void Table::set_alignment(std::vector<Align> alignment) {
  PE_REQUIRE(alignment.size() == headers_.size(),
             "alignment width must match header width");
  alignment_ = std::move(alignment);
}

void Table::add_row(std::vector<std::string> row) {
  PE_REQUIRE(row.size() == headers_.size(),
             "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string Table::to_cell(double v) { return format_sig(v, 4); }

std::string Table::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto hline = [&] {
    std::string s = "+";
    for (std::size_t c = 0; c < width.size(); ++c)
      s += std::string(width[c] + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::size_t pad = width[c] - row[c].size();
      s += ' ';
      if (alignment_[c] == Align::kRight) s.append(pad, ' ');
      s += row[c];
      if (alignment_[c] == Align::kLeft) s.append(pad, ' ');
      s += " |";
    }
    s += "\n";
    return s;
  };

  std::string out = hline();
  out += emit_row(headers_);
  out += hline();
  for (const auto& row : rows_) out += emit_row(row);
  out += hline();
  return out;
}

std::string Table::render_csv() const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"') q += "\"\"";
      else q += ch;
    }
    q += "\"";
    return q;
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += ",";
    out += quote(headers_[c]);
  }
  out += "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += ",";
      out += quote(row[c]);
    }
    out += "\n";
  }
  return out;
}

std::string format_sig(double v, int digits) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string format_fixed(double v, int decimals) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

}  // namespace pe
