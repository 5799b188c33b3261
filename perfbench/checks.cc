// Result checks: content hashes for the timed loop and tolerance
// comparison against independent reference implementations.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

using levelheaded::ResultColumn;
using levelheaded::Value;

uint64_t Fmix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

uint64_t Combine(uint64_t h, uint64_t v) {
  h ^= Fmix(v + 0x9e3779b97f4a7c15ULL);
  return (h << 27 | h >> 37) * 5 + 0x52dce729;
}

uint64_t StringHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  return h;
}

bool CellsMatch(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) {
    const bool numeric =
        (a.kind() == Value::Kind::kInt || a.kind() == Value::Kind::kReal) &&
        (b.kind() == Value::Kind::kInt || b.kind() == Value::Kind::kReal);
    return numeric && RealsClose(a.AsReal(), b.AsReal());
  }
  switch (a.kind()) {
    case Value::Kind::kNull:
      return true;
    case Value::Kind::kInt:
      return a.AsInt() == b.AsInt();
    case Value::Kind::kReal:
      return RealsClose(a.AsReal(), b.AsReal());
    case Value::Kind::kString:
      return a.AsStr() == b.AsStr();
  }
  return false;
}

}  // namespace

bool RealsClose(double a, double b) {
  if (a == b) return true;
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kRealTolerance * scale;
}

uint64_t ResultHash(const QueryResult& r) {
  uint64_t h = Combine(0, r.num_rows);
  for (const ResultColumn& col : r.columns) {
    h = Combine(h, static_cast<uint64_t>(col.type));
    for (int64_t v : col.ints) h = Combine(h, static_cast<uint64_t>(v));
    for (double v : col.reals) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      h = Combine(h, bits);
    }
    for (const std::string& s : col.strs) h = Combine(h, StringHash(s));
    for (uint32_t c : col.codes) h = Combine(h, c);
  }
  return h;
}

uint64_t BytesHash(const std::string& bytes) { return StringHash(bytes); }

Status CompareResults(const QueryResult& actual, const QueryResult& expected) {
  if (actual.columns.size() != expected.columns.size()) {
    return Status::Internal("column count " +
                            std::to_string(actual.columns.size()) + " vs " +
                            std::to_string(expected.columns.size()));
  }
  if (actual.num_rows != expected.num_rows) {
    return Status::Internal("row count " + std::to_string(actual.num_rows) +
                            " vs " + std::to_string(expected.num_rows));
  }
  QueryResult a = actual;
  QueryResult b = expected;
  a.SortRows();
  b.SortRows();
  for (size_t row = 0; row < a.num_rows; ++row) {
    for (size_t c = 0; c < a.columns.size(); ++c) {
      const Value va = a.GetValue(row, static_cast<int>(c));
      const Value vb = b.GetValue(row, static_cast<int>(c));
      if (!CellsMatch(va, vb)) {
        return Status::Internal("row " + std::to_string(row) + " column " +
                                std::to_string(c) + ": " + va.ToString() +
                                " vs " + vb.ToString());
      }
    }
  }
  return Status::OK();
}

void CorruptResult(QueryResult* r) {
  for (ResultColumn& col : r->columns) {
    if (!col.reals.empty()) {
      col.reals[0] += 1.0;
      return;
    }
    if (!col.ints.empty()) {
      col.ints[0] ^= 1;
      return;
    }
    if (!col.strs.empty()) {
      col.strs[0] += "#";
      return;
    }
    if (!col.codes.empty()) {
      col.codes[0] ^= 1;
      return;
    }
  }
  ++r->num_rows;  // an empty result: claim a phantom row
}

}  // namespace perfbench
