#include "streams.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "lapx/graph/generators.hpp"

namespace perfbench {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

namespace {

// Seeds handed to the daemon's generators must stay within the service's
// argument cap (non-negative, at most 2^20).
std::int64_t arg_seed(std::uint64_t h) {
  return static_cast<std::int64_t>(h % 1000003);
}

std::string query(std::int64_t id, const std::string& graph,
                  const std::string& rest) {
  return "{\"id\":" + std::to_string(id) + ",\"op\":" + rest +
         ",\"graph\":\"" + graph + "\"}";
}

}  // namespace

std::vector<std::string> cold_block(std::uint64_t seed, int conn, int block,
                                    std::int64_t& next_id) {
  // Sizes cycle through a fixed ladder; the family alternates per block
  // and per connection, so each connection sees both families.
  static constexpr std::array<int, 4> kRegular = {2000, 6000, 12000, 20000};
  static constexpr std::array<int, 4> kLayers = {20, 60, 120, 200};  // x 100
  const std::uint64_t h = mix(seed, mix(static_cast<std::uint64_t>(conn),
                                        static_cast<std::uint64_t>(block)));
  const int rung = (block / 2) % 4;
  const bool regular = (block + conn) % 2 == 0;
  const std::string big = "c" + std::to_string(conn) + "g" +
                          std::to_string(block);
  const std::string small = "c" + std::to_string(conn) + "s" +
                            std::to_string(block);
  std::vector<std::string> out;
  auto id = [&] { return next_id++; };
  const int n = regular ? kRegular[rung] : 100 * kLayers[rung];
  if (regular) {
    out.push_back("{\"id\":" + std::to_string(id()) +
                  ",\"op\":\"generate\",\"name\":\"" + big +
                  "\",\"family\":\"regular\",\"args\":[" + std::to_string(n) +
                  ",3," + std::to_string(arg_seed(h)) + "]}");
  } else {
    out.push_back("{\"id\":" + std::to_string(id()) +
                  ",\"op\":\"generate\",\"name\":\"" + big +
                  "\",\"family\":\"lift\",\"args\":[10,10," +
                  std::to_string(kLayers[rung]) + "," +
                  std::to_string(arg_seed(h)) + "]}");
  }
  for (int r = 1; r <= 4; ++r)
    out.push_back(query(id(), big,
                        "\"views\",\"radius\":" + std::to_string(r)));
  for (int r = 0; r <= 2; ++r)
    out.push_back(query(id(), big,
                        "\"homogeneity\",\"radius\":" + std::to_string(r)));
  for (const char* alg : {"eds-mark-first", "local-min-is", "take-all-ds"})
    out.push_back(query(id(), big,
                        std::string("\"run\",\"algorithm\":\"") + alg + "\""));
  out.push_back(query(id(), big, "\"analyze\""));
  if (n <= 2000) out.push_back(query(id(), big, "\"fractional\""));
  if (block == 0) {
    // Each connection types the out-of-core lift at two radii of its own,
    // so all four fingerprints stay distinct.
    for (int r = 1 + 2 * (conn % 2); r <= 2 + 2 * (conn % 2); ++r)
      out.push_back(query(id(), kOocSession,
                          "\"views\",\"radius\":" + std::to_string(r)));
  }
  out.push_back("{\"id\":" + std::to_string(id()) +
                ",\"op\":\"generate\",\"name\":\"" + small +
                "\",\"family\":\"regular\",\"args\":[22,3," +
                std::to_string(arg_seed(mix(h, 1))) + "]}");
  for (const char* p : {"vc", "eds"})
    out.push_back(query(id(), small,
                        std::string("\"optimum\",\"problem\":\"") + p + "\""));
  return out;
}

// --- serve_hot_sharded -------------------------------------------------------

namespace {

constexpr int kHotGraphs = 8;
constexpr std::array<const char*, 8> kHotKinds = {
    "\"views\",\"radius\":1",
    "\"views\",\"radius\":2",
    "\"views\",\"radius\":3",
    "\"homogeneity\",\"radius\":1",
    "\"run\",\"algorithm\":\"eds-mark-first\"",
    "\"run\",\"algorithm\":\"local-min-is\"",
    "\"fractional\"",
    "\"analyze\"",
};

std::string hot_graph(int g) { return "h" + std::to_string(g); }

// Fingerprint f's query body; which fingerprint has which Zipf rank is
// a seeded permutation.
std::string hot_query(std::int64_t id, int f) {
  return query(id, hot_graph(f / 8), kHotKinds[static_cast<std::size_t>(f % 8)]);
}

std::vector<int> hot_rank_order(std::uint64_t seed) {
  std::vector<int> order(kHotFingerprints);
  for (int i = 0; i < kHotFingerprints; ++i) order[i] = i;
  for (int i = kHotFingerprints - 1; i > 0; --i) {
    const auto j = static_cast<int>(mix(seed, 7000 + i) %
                                    static_cast<std::uint64_t>(i + 1));
    std::swap(order[i], order[j]);
  }
  return order;
}

std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kHotFingerprints);
  double total = 0.0;
  for (int i = 0; i < kHotFingerprints; ++i) {
    total += 1.0 / (i + 1);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

}  // namespace

std::vector<std::string> hot_setup(std::uint64_t seed) {
  static constexpr std::array<int, 4> kSizes = {300, 600, 1000, 1500};
  std::vector<std::string> out;
  std::int64_t id = 1000000000;
  for (int g = 0; g < kHotGraphs; ++g) {
    const std::int64_t s = arg_seed(mix(seed, 500 + g));
    const int n = kSizes[static_cast<std::size_t>(g % 4)];
    if (g % 2 == 0) {
      out.push_back("{\"id\":" + std::to_string(id++) +
                    ",\"op\":\"generate\",\"name\":\"" + hot_graph(g) +
                    "\",\"family\":\"regular\",\"args\":[" +
                    std::to_string(n) + ",3," + std::to_string(s) + "]}");
    } else {
      out.push_back("{\"id\":" + std::to_string(id++) +
                    ",\"op\":\"generate\",\"name\":\"" + hot_graph(g) +
                    "\",\"family\":\"lift\",\"args\":[5,5," +
                    std::to_string(n / 25) + "," + std::to_string(s) + "]}");
    }
  }
  for (int f = 0; f < kHotFingerprints; ++f) out.push_back(hot_query(id++, f));
  return out;
}

std::string hot_request(std::uint64_t seed, std::size_t i) {
  static const std::vector<double> cdf = zipf_cdf();
  const auto id = static_cast<std::int64_t>(i) + 1;
  const std::uint64_t h = mix(seed ^ 0x686f74ULL, i);
  if (h % 100 == 0)
    return "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
           ((h / 100) % 2 == 0 ? "list" : "session_info") + "\"}";
  const double u = unit(mix(h, 1));
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  const std::vector<int> order = hot_rank_order(seed);
  return hot_query(id, order[std::min<std::size_t>(rank, order.size() - 1)]);
}

bool is_fanout_line(const std::string& line) {
  return line.find("\"op\":\"list\"") != std::string::npos ||
         line.find("\"op\":\"session_info\"") != std::string::npos;
}

// --- serve_mutate ------------------------------------------------------------

std::vector<std::string> mutate_setup(std::uint64_t seed) {
  const std::string gen =
      "{\"id\":1,\"op\":\"generate\",\"name\":\"m\",\"family\":\"lift\","
      "\"args\":[10,10," + std::to_string(kMutateLayers) + "," +
      std::to_string(arg_seed(mix(seed, 900))) + "]}";
  return {gen, query(2, "m", "\"views\",\"radius\":3"),
          query(3, "m", "\"views\",\"radius\":4"),
          query(4, "m", "\"homogeneity\",\"radius\":1")};
}

MutatePlan::MutatePlan(std::uint64_t seed)
    : seed_(seed),
      base_(lapx::graph::lifted_torus(
          10, 10, kMutateLayers,
          static_cast<std::uint64_t>(arg_seed(mix(seed, 900))))) {
  for (const auto& e : base_.edges()) edges_.emplace_back(e.first, e.second);
}

std::vector<std::string> MutatePlan::next_cycle() {
  const int phase = cycle_ % 3;
  const std::uint64_t h = mix(seed_ ^ 0x6d7574ULL, static_cast<std::uint64_t>(cycle_));
  last_edits_.clear();
  if (phase < 2) {
    const int k = 1 + static_cast<int>(h % 2);
    for (int i = 0; i < k; ++i) {
      // Fresh edge: never one already cut in this period.
      std::pair<int, int> e;
      std::uint64_t probe = mix(h, 10 + i);
      do {
        e = edges_[probe % edges_.size()];
        probe = mix(probe, 1);
      } while (std::find(cut_.begin(), cut_.end(), e) != cut_.end());
      cut_.push_back(e);
      last_edits_.push_back({false, e});
    }
  } else {
    for (const auto& e : cut_) last_edits_.push_back({true, e});
    cut_.clear();
  }
  std::string edits;
  for (const auto& [add, e] : last_edits_) {
    if (!edits.empty()) edits += ',';
    edits += std::string("{\"op\":\"") + (add ? "add" : "remove") +
             "\",\"u\":" + std::to_string(e.first) +
             ",\"v\":" + std::to_string(e.second) + "}";
  }
  std::vector<std::string> out;
  out.push_back("{\"id\":" + std::to_string(next_id_++) +
                ",\"op\":\"mutate\",\"name\":\"m\",\"edits\":[" + edits + "]}");
  // The slowest read first: replies leave in submission order, so the
  // quick views replies cannot overtake the loop's first drain.
  out.push_back(query(next_id_++, "m", "\"homogeneity\",\"radius\":1"));
  out.push_back(query(next_id_++, "m", "\"views\",\"radius\":3"));
  out.push_back(query(next_id_++, "m", "\"views\",\"radius\":4"));
  out.push_back("{\"id\":" + std::to_string(next_id_++) +
                ",\"op\":\"session_info\"}");
  ++cycle_;
  return out;
}

// --- batch_pipeline ----------------------------------------------------------

BatchInstance batch_instance(std::uint64_t seed) {
  BatchInstance inst;
  inst.lift_seed = mix(seed, 1234) % 1000003;
  inst.group_seed = mix(seed, 4321) % 1000003;
  return inst;
}

}  // namespace perfbench
