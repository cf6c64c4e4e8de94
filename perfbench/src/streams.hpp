#pragma once
// Seeded request streams, one generator per workload.  Every request line
// is a pure function of (seed, position): the daemon receives only these
// lines, and the reference transcript replays the same lines in-process.
// Sizes follow fixed ladders; the seed chooses graph content, Zipf ranks
// and edit positions, so two seeds do the same amount of work.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lapx/graph/graph.hpp"

namespace perfbench {

/// splitmix64: the one hash every stream derives its randomness from.
std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0);
/// Uniform double in [0, 1) from a hash.
double unit(std::uint64_t h);

// --- serve_cold --------------------------------------------------------------

/// Name under which the out-of-core lift is opened in every serve_cold run.
inline constexpr const char* kOocSession = "ooc";

/// Shape of the serve_cold out-of-core lift: torus(a, b) lifted `layers`
/// times (lapx_cli graph-convert --family torus A B --lift L --seed S).
struct OocLift {
  int a = 10, b = 10, layers = 400;
};

/// Block `block` of connection `conn`: one fresh large graph (random
/// 3-regular or torus lift, 2k-20k vertices) with its distinct queries,
/// then one fresh small graph with exact-optimum queries.  Block 0 also
/// queries the out-of-core session.  Ids continue from `next_id`.
std::vector<std::string> cold_block(std::uint64_t seed, int conn, int block,
                                    std::int64_t& next_id);

// --- serve_hot_sharded ------------------------------------------------------

/// Setup lines: generate the warm graphs, then one request per warm
/// fingerprint (kHotFingerprints of them) so the cache holds all of them.
std::vector<std::string> hot_setup(std::uint64_t seed);
inline constexpr int kHotFingerprints = 64;

/// Measured request i: a Zipf(1)-distributed warm fingerprint, or (about
/// 1 in 100) a `list` / `session_info` fan-out.  The id is i + 1.
std::string hot_request(std::uint64_t seed, std::size_t i);

/// True for the two fan-out ops whose replies the oracle only checks for
/// "ok":true (`list`) or compares after the router's merge (session_info).
bool is_fanout_line(const std::string& line);

// --- serve_mutate -----------------------------------------------------------

/// The serve_mutate session: torus(10, 10) lifted `layers` times.
inline constexpr int kMutateLayers = 640;

/// Setup lines: generate the session and materialize its views.
std::vector<std::string> mutate_setup(std::uint64_t seed);

/// The measured cycles, generated in order.  Cycle k edits the session
/// with period 3: cut 1-2 fresh edges, cut 1-2 more, heal all of them
/// (the setup's edge set again), followed by homogeneity r=1, views r=3,
/// views r=4 and session_info.
class MutatePlan {
 public:
  explicit MutatePlan(std::uint64_t seed);
  /// The next cycle's request lines.
  std::vector<std::string> next_cycle();
  /// The edits of the last `mutate` line returned (for the refine probe).
  const std::vector<std::pair<bool, std::pair<int, int>>>& last_edits() const {
    return last_edits_;
  }
  const lapx::graph::Graph& base() const { return base_; }

 private:
  std::uint64_t seed_;
  lapx::graph::Graph base_;
  std::vector<std::pair<int, int>> edges_;
  std::vector<std::pair<int, int>> cut_;
  int cycle_ = 0;
  std::int64_t next_id_ = 1000;
  std::vector<std::pair<bool, std::pair<int, int>>> last_edits_;  // add?, edge
};

// --- batch_pipeline ---------------------------------------------------------

/// One batch pass's instance: torus(a, b) lifted `layers` times, seeded.
struct BatchInstance {
  int a = 12, b = 12, layers = 1000;  // 144000 vertices
  std::uint64_t lift_seed = 1;
  std::uint64_t group_seed = 1;
};
BatchInstance batch_instance(std::uint64_t seed);

}  // namespace perfbench
