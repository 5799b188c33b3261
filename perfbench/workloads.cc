// The three workloads: their data (all derived from the run's seed), their
// query classes, and the independent references each class is checked
// against.
//
//   bi_tpch      TPC-H Q1/Q3/Q5/Q6/Q8/Q9/Q10, one client, Engine::Query.
//   la_sparse    SMV/SMM on harbor- and nlp240-like matrices plus dense
//                DMM, one client, Engine::Query; la:: kernels as reference.
//                DMM is n=768: with five round-robin classes the pooled
//                p50 is the middle class's latency, and an n=384 GEMM
//                (~10 ms on four threads) is too short to average out
//                interference from other load on the machine; n=1024
//                (~120 ms) left too few samples beyond p95 in a run.
//   serve_mixed  TPC-H Q1/Q5/Q6, a triangle count and SMV, nproc/2 (at
//                least 2) clients over loopback TCP against an in-process
//                server::Server with as many workers. With nproc clients,
//                each query's nproc-thread parallel regions queued behind
//                the others' and p95 swung by over 20% between runs of the
//                same code.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baseline/pairwise_engine.h"
#include "bench.h"
#include "la/dense.h"
#include "la/sparse.h"
#include "util/rng.h"
#include "workload/matrix_gen.h"
#include "workload/tpch_gen.h"

namespace perfbench {
namespace {

using levelheaded::BaselineMode;
using levelheaded::ColumnSpec;
using levelheaded::CooMatrix;
using levelheaded::CsrMatrix;
using levelheaded::PairwiseEngine;
using levelheaded::Rng;
using levelheaded::Table;
using levelheaded::TableSchema;
using levelheaded::Value;
using levelheaded::ValueType;

/// Independent per-component seeds derived from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.Next();
}

/// Checks a TPC-H or graph class against the vectorized pairwise engine.
std::function<Status(const QueryResult&)> PairwiseCheck(Catalog* catalog,
                                                        std::string sql) {
  return [catalog, sql = std::move(sql)](const QueryResult& actual) {
    PairwiseEngine reference(catalog, BaselineMode::kVectorized);
    Result<QueryResult> expected = reference.Query(sql);
    if (!expected.ok()) return expected.status();
    return CompareResults(actual, expected.value());
  };
}

Status ExpectShape(const QueryResult& r, size_t key_columns) {
  if (r.columns.size() != key_columns + 1) {
    return Status::Internal("expected " + std::to_string(key_columns + 1) +
                            " columns, got " +
                            std::to_string(r.columns.size()));
  }
  for (size_t c = 0; c < key_columns; ++c) {
    if (r.columns[c].ints.size() != r.num_rows) {
      return Status::Internal("key column " + std::to_string(c) +
                              " is not integral");
    }
  }
  if (r.columns[key_columns].reals.size() != r.num_rows) {
    return Status::Internal("value column is not real");
  }
  return Status::OK();
}

/// SMV result (r, sum) against y = A x from la::SpMV.
Status CheckSpmv(const QueryResult& r, const CsrMatrix& a,
                 const std::vector<double>& x) {
  LH_RETURN_NOT_OK(ExpectShape(r, 1));
  std::vector<double> y(static_cast<size_t>(a.num_rows));
  levelheaded::SpMV(a, x.data(), y.data());
  size_t nonempty_rows = 0;
  for (int64_t i = 0; i < a.num_rows; ++i) {
    nonempty_rows += a.row_ptr[i + 1] > a.row_ptr[i] ? 1 : 0;
  }
  if (r.num_rows != nonempty_rows) {
    return Status::Internal("SMV rows " + std::to_string(r.num_rows) +
                            " vs " + std::to_string(nonempty_rows));
  }
  std::vector<bool> seen(y.size(), false);
  for (size_t i = 0; i < r.num_rows; ++i) {
    const int64_t row = r.columns[0].ints[i];
    if (row < 0 || row >= a.num_rows || seen[row]) {
      return Status::Internal("SMV row key " + std::to_string(row));
    }
    seen[row] = true;
    if (!RealsClose(r.columns[1].reals[i], y[row])) {
      return Status::Internal("SMV row " + std::to_string(row) + " differs");
    }
  }
  return Status::OK();
}

/// SMM result (r, c, sum) against C = A A from la::SpGEMM.
Status CheckSpgemm(const QueryResult& r, const CsrMatrix& a) {
  LH_RETURN_NOT_OK(ExpectShape(r, 2));
  const CsrMatrix c = levelheaded::SpGEMM(a, a);
  if (r.num_rows != c.nnz()) {
    return Status::Internal("SMM rows " + std::to_string(r.num_rows) +
                            " vs nnz " + std::to_string(c.nnz()));
  }
  std::vector<bool> seen(c.nnz(), false);
  for (size_t i = 0; i < r.num_rows; ++i) {
    const int64_t row = r.columns[0].ints[i];
    const int64_t col = r.columns[1].ints[i];
    if (row < 0 || row >= c.num_rows || col < 0) {
      return Status::Internal("SMM key out of range");
    }
    const auto begin = c.col_idx.begin() + c.row_ptr[row];
    const auto end = c.col_idx.begin() + c.row_ptr[row + 1];
    const auto it = std::lower_bound(begin, end, static_cast<uint32_t>(col));
    if (it == end || *it != col) {
      return Status::Internal("SMM entry (" + std::to_string(row) + "," +
                              std::to_string(col) + ") not in reference");
    }
    const size_t k = static_cast<size_t>(it - c.col_idx.begin());
    if (seen[k] || !RealsClose(r.columns[2].reals[i], c.values[k])) {
      return Status::Internal("SMM entry (" + std::to_string(row) + "," +
                              std::to_string(col) + ") differs");
    }
    seen[k] = true;
  }
  return Status::OK();
}

/// DMM result (r, c, sum) against la::Gemm on the same dense buffer.
Status CheckGemm(const QueryResult& r, const std::vector<double>& a,
                 int64_t n) {
  LH_RETURN_NOT_OK(ExpectShape(r, 2));
  std::vector<double> c(a.size());
  levelheaded::Gemm(n, n, n, a.data(), a.data(), c.data());
  if (r.num_rows != c.size()) {
    return Status::Internal("DMM rows " + std::to_string(r.num_rows));
  }
  std::vector<bool> seen(c.size(), false);
  for (size_t i = 0; i < r.num_rows; ++i) {
    const int64_t row = r.columns[0].ints[i];
    const int64_t col = r.columns[1].ints[i];
    if (row < 0 || row >= n || col < 0 || col >= n) {
      return Status::Internal("DMM key out of range");
    }
    const size_t k = static_cast<size_t>(row * n + col);
    if (seen[k] || !RealsClose(r.columns[2].reals[i], c[k])) {
      return Status::Internal("DMM entry (" + std::to_string(row) + "," +
                              std::to_string(col) + ") differs");
    }
    seen[k] = true;
  }
  return Status::OK();
}

Status CreateMatrix(Catalog* catalog, const std::string& table,
                    const std::string& domain, const CooMatrix& m) {
  LH_ASSIGN_OR_RETURN(
      Table * t,
      catalog->CreateTable(TableSchema(
          table, {ColumnSpec::Key("r", ValueType::kInt64, domain),
                  ColumnSpec::Key("c", ValueType::kInt64, domain),
                  ColumnSpec::Annotation("v", ValueType::kDouble)})));
  for (size_t i = 0; i < m.nnz(); ++i) {
    LH_RETURN_NOT_OK(t->AppendRow({Value::Int(m.rows[i]),
                                   Value::Int(m.cols[i]),
                                   Value::Real(m.values[i])}));
  }
  return Status::OK();
}

Status CreateVector(Catalog* catalog, const std::string& table,
                    const std::string& domain, const std::vector<double>& x) {
  LH_ASSIGN_OR_RETURN(
      Table * t,
      catalog->CreateTable(TableSchema(
          table, {ColumnSpec::Key("i", ValueType::kInt64, domain),
                  ColumnSpec::Annotation("val", ValueType::kDouble)})));
  for (size_t i = 0; i < x.size(); ++i) {
    LH_RETURN_NOT_OK(t->AppendRow(
        {Value::Int(static_cast<int64_t>(i)), Value::Real(x[i])}));
  }
  return Status::OK();
}

std::vector<double> RandomVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.UniformDouble();
  return v;
}

std::string SmvSql(const std::string& m, const std::string& x) {
  return "SELECT m.r, sum(m.v * x.val) FROM " + m + " m, " + x +
         " x WHERE m.c = x.i GROUP BY m.r";
}

std::string SmmSql(const std::string& m) {
  return "SELECT m1.r, m2.c, sum(m1.v * m2.v) FROM " + m + " m1, " + m +
         " m2 WHERE m1.c = m2.r GROUP BY m1.r, m2.c";
}

/// Registers a sparse matrix (and, with `with_smv`, a dense vector over the
/// same domain) plus its SMV/SMM classes and reference kernels.
Status AddSparseCase(Fixture* f, const std::string& label,
                     const levelheaded::SyntheticMatrix& m, uint64_t x_seed,
                     bool with_smm) {
  const std::string mt = "m_" + label;
  const std::string xt = "x_" + label;
  const std::string domain = "d_" + label;
  LH_RETURN_NOT_OK(CreateMatrix(f->catalog.get(), mt, domain, m.coo));
  auto x = std::make_shared<const std::vector<double>>(
      RandomVector(static_cast<size_t>(m.coo.num_rows), x_seed));
  LH_RETURN_NOT_OK(CreateVector(f->catalog.get(), xt, domain, *x));
  auto csr =
      std::make_shared<const CsrMatrix>(levelheaded::CooToCsr(m.coo));

  const std::string smv = "smv_" + label;
  f->classes.push_back({smv, SmvSql(mt, xt), [csr, x](const QueryResult& r) {
                          return CheckSpmv(r, *csr, *x);
                        }});
  f->la_refs.push_back({"spmv", smv, [csr, x] {
                          std::vector<double> y(x->size());
                          levelheaded::SpMV(*csr, x->data(), y.data());
                        }});
  if (with_smm) {
    const std::string smm = "smm_" + label;
    f->classes.push_back({smm, SmmSql(mt), [csr](const QueryResult& r) {
                            return CheckSpgemm(r, *csr);
                          }});
    f->la_refs.push_back(
        {"spgemm", smm, [csr] { (void)levelheaded::SpGEMM(*csr, *csr); }});
  }
  return Status::OK();
}

Status AddDenseCase(Fixture* f, int64_t n, uint64_t seed) {
  const std::string label = "dmm_" + std::to_string(n);
  const std::string table = "m_" + label;
  auto a = std::make_shared<const std::vector<double>>(
      RandomVector(static_cast<size_t>(n * n), seed));
  LH_ASSIGN_OR_RETURN(
      Table * t,
      f->catalog->CreateTable(TableSchema(
          table, {ColumnSpec::Key("r", ValueType::kInt64, "d_" + label),
                  ColumnSpec::Key("c", ValueType::kInt64, "d_" + label),
                  ColumnSpec::Annotation("v", ValueType::kDouble)})));
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      LH_RETURN_NOT_OK(t->AppendRow(
          {Value::Int(r), Value::Int(c), Value::Real((*a)[r * n + c])}));
    }
  }
  f->classes.push_back({label, SmmSql(table), [a, n](const QueryResult& r) {
                          return CheckGemm(r, *a, n);
                        }});
  f->la_refs.push_back({"gemm", label, [a, n] {
                          std::vector<double> c(a->size());
                          levelheaded::Gemm(n, n, n, a->data(), a->data(),
                                            c.data());
                        }});
  return Status::OK();
}

Status AddTpch(Fixture* f, double sf, uint64_t seed,
               const std::vector<std::string>& queries) {
  LH_RETURN_NOT_OK(
      levelheaded::TpchGenerator(sf, seed).Populate(f->catalog.get()));
  for (const std::string& q : queries) {
    const std::string sql = levelheaded::TpchQuery(q.c_str());
    f->classes.push_back({q, sql, PairwiseCheck(f->catalog.get(), sql)});
  }
  return Status::OK();
}

/// A random directed graph without self loops or duplicate edges, and the
/// 3-cycle count over it.
Status AddTriangle(Fixture* f, int nodes, int degree, uint64_t seed) {
  LH_ASSIGN_OR_RETURN(
      Table * t,
      f->catalog->CreateTable(TableSchema(
          "edge", {ColumnSpec::Key("src", ValueType::kInt64, "node"),
                   ColumnSpec::Key("dst", ValueType::kInt64, "node"),
                   ColumnSpec::Annotation("w", ValueType::kDouble)})));
  Rng rng(seed);
  std::set<int64_t> targets;
  for (int64_t src = 0; src < nodes; ++src) {
    targets.clear();
    for (int d = 0; d < degree; ++d) {
      const int64_t dst = static_cast<int64_t>(rng.Uniform(nodes));
      if (dst != src) targets.insert(dst);
    }
    for (int64_t dst : targets) {
      LH_RETURN_NOT_OK(t->AppendRow({Value::Int(src), Value::Int(dst),
                                     Value::Real(rng.UniformDouble())}));
    }
  }
  const std::string sql =
      "SELECT count(*) FROM edge e1, edge e2, edge e3 "
      "WHERE e1.dst = e2.src AND e2.dst = e3.src AND e3.dst = e1.src";
  f->classes.push_back(
      {"triangle", sql, PairwiseCheck(f->catalog.get(), sql)});
  return Status::OK();
}

Status LoadBiTpch(const Options& o, Fixture* f) {
  return AddTpch(f, o.tiny() ? 0.01 : 0.25, SubSeed(o.seed, 1),
                 {"q1", "q3", "q5", "q6", "q8", "q9", "q10"});
}

Status LoadLaSparse(const Options& o, Fixture* f) {
  LH_RETURN_NOT_OK(AddSparseCase(
      f, "harbor", levelheaded::HarborLike(o.tiny() ? 0.01 : 0.1,
                                           SubSeed(o.seed, 2)),
      SubSeed(o.seed, 3), /*with_smm=*/true));
  LH_RETURN_NOT_OK(AddSparseCase(
      f, "nlp240", levelheaded::Nlp240Like(o.tiny() ? 0.002 : 0.05,
                                           SubSeed(o.seed, 4)),
      SubSeed(o.seed, 5), /*with_smm=*/true));
  return AddDenseCase(f, o.tiny() ? 48 : 768, SubSeed(o.seed, 6));
}

Status LoadServeMixed(const Options& o, Fixture* f) {
  LH_RETURN_NOT_OK(AddTpch(f, o.tiny() ? 0.01 : 0.1, SubSeed(o.seed, 7),
                           {"q1", "q5", "q6"}));
  LH_RETURN_NOT_OK(AddTriangle(f, o.tiny() ? 200 : 2000, 8,
                               SubSeed(o.seed, 8)));
  return AddSparseCase(
      f, "harbor", levelheaded::HarborLike(o.tiny() ? 0.01 : 0.1,
                                           SubSeed(o.seed, 9)),
      SubSeed(o.seed, 10), /*with_smm=*/false);
}

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      {"bi_tpch", false, LoadBiTpch},
      {"la_sparse", false, LoadLaSparse},
      {"serve_mixed", true, LoadServeMixed},
  };
  return kWorkloads;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : AllWorkloads()) names.push_back(w.name);
  return names;
}

}  // namespace perfbench
