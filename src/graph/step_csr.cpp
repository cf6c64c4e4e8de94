#include "lapx/graph/step_csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "lapx/core/interner.hpp"
#include "lapx/runtime/parallel.hpp"

namespace lapx::graph {

namespace {

constexpr std::uint32_t kOutgoing = 0x80000000u;

// Index of the step (v, move{outgoing, label}) inside v's span, which
// starts at `base`.
std::uint32_t step_index_of(const LDigraph& g, Vertex v, bool outgoing,
                            Label label, std::uint32_t base) {
  const auto arcs = outgoing ? g.out_arcs(v) : g.in_arcs(v);
  const auto it = std::lower_bound(
      arcs.begin(), arcs.end(), label,
      [](const std::pair<Label, Vertex>& a, Label l) { return a.first < l; });
  const auto pos = static_cast<std::uint32_t>(it - arcs.begin());
  return base + (outgoing ? static_cast<std::uint32_t>(g.in_degree(v)) : 0u) +
         pos;
}

// Per-vertex offsets of `g`, every step field sized to match.  The bound is
// checked once on the total: offsets are monotone, so if the total fits in
// uint32 every partial sum does, and otherwise the truncated ones are
// discarded by the throw.
void size_csr(const LDigraph& g, StepCsr& csr) {
  const Vertex n = g.num_vertices();
  csr.off.assign(static_cast<std::size_t>(n) + 1, 0);
  std::uint64_t total = 0;
  for (Vertex v = 0; v < n; ++v) {
    total += static_cast<std::uint64_t>(g.degree(v));
    csr.off[static_cast<std::size_t>(v) + 1] =
        static_cast<std::uint32_t>(total);
  }
  const std::size_t steps = checked_step_offset(total);
  csr.vertex.resize(steps);
  csr.succ.resize(steps);
  csr.nbr.resize(steps);
  csr.move_bits.resize(steps);
  csr.tag.resize(steps);
}

// Writes v's span of `csr` (offsets already final).
void fill_span(const LDigraph& g, Vertex v, StepCsr& csr) {
  std::uint32_t s = csr.off[static_cast<std::size_t>(v)];
  const auto put = [&](bool outgoing, Label l, Vertex w) {
    csr.vertex[s] = static_cast<std::uint32_t>(v);
    // Following the arc arrives at w; the state it realizes excludes the
    // inverse step at w, which has the opposite direction.
    csr.succ[s] = step_index_of(g, w, !outgoing, l,
                                csr.off[static_cast<std::size_t>(w)]);
    csr.nbr[s] = static_cast<std::uint32_t>(w);
    csr.move_bits[s] =
        (outgoing ? kOutgoing : 0u) | static_cast<std::uint32_t>(l);
    csr.tag[s] = step_edge_tag(csr.move_bits[s]);
    ++s;
  };
  for (const auto& [l, w] : g.in_arcs(v)) put(false, l, w);
  for (const auto& [l, w] : g.out_arcs(v)) put(true, l, w);
}

}  // namespace

bool StepView::operator==(const StepView& o) const {
  return std::ranges::equal(off, o.off) &&
         std::ranges::equal(vertex, o.vertex) &&
         std::ranges::equal(succ, o.succ) && std::ranges::equal(nbr, o.nbr) &&
         std::ranges::equal(move_bits, o.move_bits) &&
         std::ranges::equal(tag, o.tag);
}

std::uint64_t step_edge_tag(std::uint32_t move_bits) {
  return core::type_tag::kViewEdge |
         (static_cast<std::uint64_t>(move_bits >> 31) << 32) |
         (move_bits & ~kOutgoing);
}

std::uint32_t checked_step_offset(std::uint64_t total) {
  if (total > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error(
        "graph exceeds the 2^32-step bound of the step CSR");
  return static_cast<std::uint32_t>(total);
}

StepCsr build_step_csr(const LDigraph& g) {
  StepCsr csr;
  size_csr(g, csr);
  runtime::parallel_for(g.num_vertices(), [&](std::int64_t v) {
    fill_span(g, static_cast<Vertex>(v), csr);
  });
  return csr;
}

std::vector<Vertex> patch_step_csr(const LDigraph& g, const StepView& old,
                                   StepCsr& out) {
  const Vertex n = g.num_vertices();
  const auto old_n = static_cast<Vertex>(old.off.size()) - 1;
  if (n < old_n)
    throw std::invalid_argument("patch_step_csr: the graph lost vertices");
  size_csr(g, out);

  // Dirty seed: a vertex whose (move_bits, nbr) sequence changed, compared
  // straight off the adjacency in fill_span's enumeration order.  The
  // sequence also pins every successor's identity, so a clean span's steps
  // carry over up to a rebase.  Serial on purpose: the whole scan is ~one
  // pass over the adjacency, and the pool's wake/barrier costs more than
  // the scan itself at this size.
  std::vector<char> is_dirty(static_cast<std::size_t>(n), 0);
  std::vector<Vertex> dirty;
  for (Vertex v = 0; v < n; ++v) {
    bool same = v < old_n &&
                out.off[v + 1] - out.off[v] == old.off[v + 1] - old.off[v];
    std::uint32_t k = same ? old.off[v] : 0;
    const auto match = [&](std::uint32_t bits, Label l, Vertex w) {
      same = old.move_bits[k] == (bits | static_cast<std::uint32_t>(l)) &&
             old.nbr[k] == static_cast<std::uint32_t>(w);
      ++k;
      return same;
    };
    if (same)
      for (const auto& [l, w] : g.in_arcs(v))
        if (!match(0u, l, w)) break;
    if (same)
      for (const auto& [l, w] : g.out_arcs(v))
        if (!match(kOutgoing, l, w)) break;
    if (!same) {
      is_dirty[static_cast<std::size_t>(v)] = 1;
      dirty.push_back(v);
    }
  }

  // Clean runs block-copy: degrees change only at dirty vertices, so within
  // a run of clean vertices the old-vs-new offset delta is constant.  A
  // clean step's successor shifts by its target span's offset delta --
  // unless the target is dirty and may have reordered its span, which costs
  // one label search.
  Vertex run_start = 0;
  for (std::size_t di = 0; di <= dirty.size(); ++di) {
    const Vertex stop = di < dirty.size() ? dirty[di] : n;
    if (run_start < stop) {
      const std::uint32_t lo = out.off[run_start];
      const std::uint32_t olo = old.off[run_start];
      const std::uint32_t len = out.off[stop] - lo;
      const auto copy = [&](auto src, auto& dst) {
        std::copy(src.begin() + olo, src.begin() + olo + len, dst.begin() + lo);
      };
      copy(old.vertex, out.vertex);
      copy(old.nbr, out.nbr);
      copy(old.move_bits, out.move_bits);
      copy(old.tag, out.tag);
      for (std::uint32_t j = 0; j < len; ++j) {
        const auto w = static_cast<Vertex>(old.nbr[olo + j]);
        if (!is_dirty[static_cast<std::size_t>(w)]) {
          out.succ[lo + j] = old.succ[olo + j] - old.off[w] + out.off[w];
          continue;
        }
        const std::uint32_t mb = old.move_bits[olo + j];
        out.succ[lo + j] =
            step_index_of(g, w, (mb & kOutgoing) == 0,
                          static_cast<Label>(mb & ~kOutgoing), out.off[w]);
      }
    }
    if (di < dirty.size()) {
      fill_span(g, dirty[di], out);
      run_start = dirty[di] + 1;
    }
  }
  return dirty;
}

}  // namespace lapx::graph
