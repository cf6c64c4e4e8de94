#pragma once
// Shared pieces of the workload drivers: the report every run prints, the
// socket load generators, the in-process reference oracle and the
// in-process probe that times each service layer for the traced runs.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "lapx/service/service.hpp"
#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;  ///< lapx_cli binary
  std::string report_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the verdict, the metrics of its mode (end-to-end
/// untraced, per-layer traced) and human-readable detail lines (sample
/// counts, percentile used, host and config record).
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { info.push_back(line); }
  /// Records a percentile metric and its sample count / rule status.
  void set_percentile(const std::string& name, const Percentile& p,
                      const std::string& unit);
};

// --- request / reply checks ----------------------------------------------------

/// True when the envelope says "ok":true.
bool reply_ok(const std::string& reply);
/// The oracle: `got` must be ok and byte-identical to the in-process
/// reference, except `stats` and `list`, which only need "ok":true.
bool reply_matches(const std::string& line, const std::string& got,
                   const std::string& want);
/// The "op" of a request line ("" if absent).
std::string op_of(const std::string& line);

/// Replays `setup` then `lines` through a fresh in-process Service and
/// returns the responses to `lines`.
std::vector<std::string> reference_replies(
    const lapx::service::Service::Options& opt,
    const std::vector<std::string>& setup,
    const std::vector<std::string>& lines);

// --- closed-loop load over a socket --------------------------------------------

/// One connection's log; index i is the i-th request it sent.
struct ConnLog {
  std::vector<std::string> lines;
  std::vector<std::string> replies;  ///< "" when no reply arrived
  std::vector<double> latency_ms;    ///< reply - send; timeout when none
};

/// A connection's next unit of work: the lines it sends together.
using UnitGenerator = std::function<std::vector<std::string>()>;

/// Closed loop: each connection sends its generator's next unit (pipelined
/// when it has several lines), waits for every reply, and repeats until
/// `seconds` have passed.  Each request's latency runs from the unit's
/// send to its own reply.  A request without a reply within `timeout_s`
/// ends that connection (its stream is out of step).  With a trace, every
/// request records a loadgen span and a service.net.roundtrip child.
/// `on_count`, when set, runs once, on the thread that completes the
/// `count`-th request of the run (all connections together).
std::vector<ConnLog> run_closed(const std::string& socket_path,
                                std::vector<UnitGenerator>& gens,
                                double seconds, double timeout_s, Trace* trace,
                                std::size_t count = 0,
                                const std::function<void()>& on_count = {});

// --- open-loop load over sockets -------------------------------------------------

struct OpenLog {
  std::vector<std::string> lines;
  std::vector<std::string> replies;
  std::vector<OpenLoopSample> samples;  ///< times relative to the start
};

/// Open loop: request i is due at start + due[i] seconds and is sent on
/// connection conn_of[i] (its own sender and receiver threads), whatever
/// the daemon's progress.  `endpoints[c]` is connection c's socket.
/// Replies are matched in per-connection order.
OpenLog run_open(const std::vector<std::string>& endpoints,
                 const std::vector<std::string>& lines,
                 const std::vector<int>& conn_of,
                 const std::vector<double>& due, double timeout_s,
                 Trace* trace);

/// Sends all `lines` pipelined over one connection and collects the
/// replies; empty strings for missing ones.
std::vector<std::string> pipeline_all(const std::string& socket_path,
                                      const std::vector<std::string>& lines,
                                      double timeout_s);

// --- in-process probe (traced runs) ----------------------------------------------

/// Per-request timings of one in-process replay: a Service takes each
/// line through submit -> ResponseSequencer drain (ordering layer), and a
/// second Service's store backs direct handle_query calls (handler
/// compute) and direct SessionStore::mutate calls.
struct ProbeResult {
  std::vector<std::string> replies;   ///< the Service's responses (oracle)
  std::vector<double> inproc_ms;      ///< submit -> drained
  std::vector<double> submit_us;
  std::vector<double> wait_ms;        ///< get wait minus handler compute
  std::vector<double> hold_ms;        ///< ready -> drained
  std::vector<double> mutate_ms;
  std::map<std::string, std::vector<double>> compute_ms;  ///< by op
  std::vector<double> build_ms;  ///< build_generated_graph per generate
};

/// Replays setup + lines; only lines with timed[i] set contribute
/// timings and spans.  With
/// `dedupe_compute`, handle_query runs once per distinct request text
/// (the hot workload's repeated fingerprints) and is timed in any phase.
ProbeResult probe_replay(const lapx::service::Service::Options& opt,
                         const std::vector<std::string>& setup,
                         const std::vector<std::string>& lines,
                         const std::vector<char>& timed,
                         bool dedupe_compute, Trace& trace);

/// Host/build/config record printed by every run.
std::string host_record(const Args& a, const std::string& daemon_flags,
                        double offered_rate);

}  // namespace perfbench
