#pragma once
// The flat non-backtracking step CSR -- the one layout the refinement
// engine iterates, the LAPXOOC1 writer persists, and refine_delta patches.
//
// A step is (vertex v, move m): following one arc incident to v.  Steps are
// grouped by vertex (off[v] .. off[v+1]) and sorted by (outgoing, label)
// within a vertex: in-arc steps in label order, then out-arc steps in label
// order -- the order view() emits children in.  Per step:
//
//   vertex     the owning vertex v
//   succ       the state the step leads to: the step at the neighbour that
//              would walk straight back (arrival (w, m) <-> step (w, m^-1))
//   nbr        the neighbour vertex w
//   move_bits  (outgoing ? 0x80000000 : 0) | label
//   tag        step_edge_tag(move_bits) = kViewEdge | outgoing << 32 | label
//
// Everything is a pure function of the graph, so equal graphs give equal
// CSRs whatever the thread count or the path that produced them (build or
// patch).  Step indices are uint32: graphs with 2^32 or more steps are
// rejected with std::length_error instead of wrapping.

#include <cstdint>
#include <span>
#include <vector>

#include "lapx/graph/digraph.hpp"

namespace lapx::graph {

/// Read-only spans over one step CSR, from RAM (StepCsr::view) or from an
/// mmap'd LAPXOOC1 file (OocGraph::steps).
struct StepView {
  std::span<const std::uint32_t> off;        // n + 1
  std::span<const std::uint32_t> vertex;     // steps
  std::span<const std::uint32_t> succ;       // steps
  std::span<const std::uint32_t> nbr;        // steps
  std::span<const std::uint32_t> move_bits;  // steps
  std::span<const std::uint64_t> tag;        // steps

  /// Element-wise equality of all six fields.
  bool operator==(const StepView& o) const;
};

/// An owned step CSR.
struct StepCsr {
  std::vector<std::uint32_t> off, vertex, succ, nbr, move_bits;
  std::vector<std::uint64_t> tag;

  StepView view() const { return {off, vertex, succ, nbr, move_bits, tag}; }
  std::size_t num_steps() const { return tag.size(); }
};

/// The interner edge tag of a step with these move bits.
std::uint64_t step_edge_tag(std::uint32_t move_bits);

/// `total` as a step offset; throws std::length_error when it exceeds the
/// uint32 step-index range.  Both builders pass their step total through
/// here before filling a step.
std::uint32_t checked_step_offset(std::uint64_t total);

/// The step CSR of `g`.  Spans fill in parallel on the runtime pool; the
/// result is independent of the thread count.
StepCsr build_step_csr(const LDigraph& g);

/// Rewrites `out` into build_step_csr(g) given `old`, the step CSR of the
/// graph before an edit that kept every vertex id (growth by appended
/// vertices is fine; `g` must have at least as many vertices).  Returns the
/// ascending DIRTY vertices: those whose step signature -- the per-span
/// (move_bits, nbr) sequence -- changed or that are new.  Dirty spans are
/// refilled; clean runs are block-copied from `old` with their successor
/// indices rebased, so only steps into a dirty span pay a label search.
/// `out` must not alias `old`; its capacity is reused.
std::vector<Vertex> patch_step_csr(const LDigraph& g, const StepView& old,
                                   StepCsr& out);

}  // namespace lapx::graph
