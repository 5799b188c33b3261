#include "core/result.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"
#include "util/total_order.h"

namespace levelheaded {

int QueryResult::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Value QueryResult::GetValue(size_t row, int col) const {
  LH_CHECK(col >= 0 && col < static_cast<int>(columns.size()));
  LH_CHECK(row < num_rows);
  const ResultColumn& c = columns[col];
  if (!c.ints.empty()) return Value::Int(c.ints[row]);
  if (!c.reals.empty()) return Value::Real(c.reals[row]);
  if (!c.strs.empty()) return Value::Str(c.strs[row]);
  if (!c.codes.empty() && c.dict != nullptr) {
    return Value::Str(c.dict->DecodeString(c.codes[row]));
  }
  return Value();
}

std::string QueryResult::ToString(size_t max_rows) const {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " | ";
    out += columns[i].name;
  }
  out += "\n";
  const size_t shown = std::min(max_rows, num_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t i = 0; i < columns.size(); ++i) {
      if (i > 0) out += " | ";
      out += GetValue(r, static_cast<int>(i)).ToString();
    }
    out += "\n";
  }
  if (shown < num_rows) {
    out += "... (" + std::to_string(num_rows - shown) + " more rows)\n";
  }
  return out;
}

void QueryResult::SortRows() {
  std::vector<size_t> order(num_rows);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (const ResultColumn& c : columns) {
      if (!c.ints.empty()) {
        if (c.ints[a] != c.ints[b]) return c.ints[a] < c.ints[b];
      } else if (!c.reals.empty()) {
        const int cmp = TotalCompare(c.reals[a], c.reals[b]);
        if (cmp != 0) return cmp < 0;
      } else if (!c.strs.empty()) {
        if (c.strs[a] != c.strs[b]) return c.strs[a] < c.strs[b];
      } else if (!c.codes.empty()) {
        // Dictionary codes are order-preserving.
        if (c.codes[a] != c.codes[b]) return c.codes[a] < c.codes[b];
      }
    }
    return false;
  });
  for (ResultColumn& c : columns) {
    if (!c.ints.empty()) {
      std::vector<int64_t> tmp(num_rows);
      for (size_t i = 0; i < num_rows; ++i) tmp[i] = c.ints[order[i]];
      c.ints = std::move(tmp);
    }
    if (!c.reals.empty()) {
      std::vector<double> tmp(num_rows);
      for (size_t i = 0; i < num_rows; ++i) tmp[i] = c.reals[order[i]];
      c.reals = std::move(tmp);
    }
    if (!c.strs.empty()) {
      std::vector<std::string> tmp(num_rows);
      for (size_t i = 0; i < num_rows; ++i) tmp[i] = c.strs[order[i]];
      c.strs = std::move(tmp);
    }
    if (!c.codes.empty()) {
      std::vector<uint32_t> tmp(num_rows);
      for (size_t i = 0; i < num_rows; ++i) tmp[i] = c.codes[order[i]];
      c.codes = std::move(tmp);
    }
  }
}

}  // namespace levelheaded
