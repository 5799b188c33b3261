// Exhaustive GHD enumeration (§II-B / Gottlob et al.): the reference
// decomposer. The production planner (decomposer.h) explores a pragmatic
// plan space (single node + semijoin subtrees); this module enumerates
// *all* generalized hypertree decompositions whose bags are unions of edge
// vertex sets, by the classic recursive construction:
//
//   pick a root bag covering at least one component edge; edges inside the
//   bag are placed; the remaining edges split into connected components
//   (w.r.t. vertices outside the bag); each component is decomposed
//   recursively with its interface to the bag forced into the child's bag
//   (running intersection).
//
// Exponential in the number of edges. It is a test oracle, linked only into
// full_decomposer_test, which certifies that the planner's minimum FHW
// matches the true optimum on the benchmark queries.

#ifndef LEVELHEADED_TESTS_FULL_DECOMPOSER_H_
#define LEVELHEADED_TESTS_FULL_DECOMPOSER_H_

#include <vector>

#include "query/ghd.h"
#include "query/hypergraph.h"
#include "util/status.h"

namespace levelheaded {

struct FullDecomposeOptions {
  /// Stop after this many decompositions (safety valve; the space is
  /// exponential). 0 = unlimited.
  size_t max_candidates = 20000;
  /// Only keep decompositions whose FHW is within this factor of the best
  /// found so far (1.0 = only optimal-width trees survive pruning).
  double width_slack = 1.0;
};

/// Enumerates GHDs of `h`. Every returned GHD passes ValidateGhd and has
/// its widths computed; results are sorted by (fhw, node count, depth).
/// Fails only on degenerate inputs (no edges).
Result<std::vector<Ghd>> EnumerateAllGhds(
    const Hypergraph& h, const FullDecomposeOptions& options = {});

/// The exact fractional hypertree width of `h`: the minimum FHW over all
/// enumerated decompositions.
Result<double> ExactFhw(const Hypergraph& h);

}  // namespace levelheaded

#endif  // LEVELHEADED_TESTS_FULL_DECOMPOSER_H_
