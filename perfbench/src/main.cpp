// perfbench harness: runs one workload for a fixed time, checks every
// output against an in-process oracle and prints its metrics.
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --cli PATH/lapx_cli [--report-dir DIR]
//
// Run it from an empty scratch directory: daemon sockets, logs and the
// out-of-core file are created in the current directory (relative socket
// paths keep them under the Unix-socket path limit).  The last stdout line
// is the JSON result; the lines before it are the detail report.  See
// perfbench/README.md for the workloads and metrics.

#include <csignal>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness.hpp"
#include "lapx/algorithms/oi.hpp"
#include "lapx/algorithms/po.hpp"
#include "lapx/core/refine.hpp"
#include "lapx/core/simulate.hpp"
#include "lapx/core/tstar.hpp"
#include "lapx/graph/generators.hpp"
#include "lapx/graph/lift.hpp"
#include "lapx/graph/mutation.hpp"
#include "lapx/graph/ooc.hpp"
#include "lapx/graph/port_numbering.hpp"
#include "lapx/group/homogeneous.hpp"
#include "lapx/order/homogeneity.hpp"
#include "lapx/problems/exact.hpp"
#include "lapx/problems/problem.hpp"
#include "lapx/runtime/parallel.hpp"
#include "lapx/runtime/worklist.hpp"
#include "lapx/service/server.hpp"
#include "lapx/service/shard/hash_ring.hpp"
#include "lapx/service/shard/router.hpp"
#include "lapx/service/shard/worker.hpp"
#include "proc.hpp"
#include "streams.hpp"

using namespace perfbench;
namespace svc = lapx::service;

namespace {

// --- metric catalogue ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"service.net.transport_ms.p50", "ms"},
    {"service.net.transport_ms.p99", "ms"},
    {"service.protocol.submit_us.p50", "us"},
    {"service.protocol.submit_us.p99", "us"},
    {"service.result_cache.hit_ratio", "ratio"},
    {"service.result_cache.evictions", "count"},
    {"service.scheduler.wait_ms.p50", "ms"},
    {"service.scheduler.wait_ms.p99", "ms"},
    {"service.scheduler.coalesced", "count"},
    {"service.scheduler.rejected_busy", "count"},
    {"service.handlers.compute_ms.views", "ms"},
    {"service.handlers.compute_ms.homogeneity", "ms"},
    {"service.handlers.compute_ms.run", "ms"},
    {"service.handlers.compute_ms.analyze", "ms"},
    {"service.handlers.compute_ms.fractional", "ms"},
    {"service.handlers.compute_ms.optimum", "ms"},
    {"service.ordering.hold_ms.p99", "ms"},
    {"service.session_store.mutate_ms.p50", "ms"},
    {"service.shard.router_ms.p50", "ms"},
    {"service.shard.router_ms.p99", "ms"},
    {"service.shard.fanout_ms.p50", "ms"},
    {"core.refine.full_ms", "ms"},
    {"core.refine.delta_ms.p50", "ms"},
    {"core.refine.delta_frontier_share", "ratio"},
    {"core.refine.scaling_4t", "x"},
    {"core.interner.types_added", "count"},
    {"runtime.parallel.inline_contended_share", "ratio"},
    {"runtime.worklist.steals", "count"},
    {"order.homogeneity.ms", "ms"},
    {"core.simulate.ms", "ms"},
    {"problems.ms", "ms"},
    {"graph.ooc.touches", "count"},
    {"graph.ooc.evictions", "count"},
    {"graph.ooc.refine_ms", "ms"},
    {"graph.build_ms", "ms"},
    {"group.build_ms", "ms"},
    {"loadgen.late_ms.p99", "ms"},
    {"trace.overhead_share", "ratio"},
};

const std::vector<double> kTail99 = {0.99, 0.95, 0.9, 0.75, 0.5};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

// --- fatal-path hygiene --------------------------------------------------------

// Daemon process groups alive right now; killed on any abnormal exit.
std::mutex g_daemons_mu;
std::vector<pid_t> g_daemons;

void register_daemon(pid_t pgid) {
  std::lock_guard<std::mutex> lock(g_daemons_mu);
  g_daemons.push_back(pgid);
}

void unregister_daemon(pid_t pgid) {
  std::lock_guard<std::mutex> lock(g_daemons_mu);
  std::erase(g_daemons, pgid);
}

void kill_registered_daemons() {
  // Signal-safe enough: a plain walk with kill(2), no allocation.
  for (const pid_t p : g_daemons)
    if (p > 0) ::kill(-p, SIGKILL);
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  kill_registered_daemons();
  std::_Exit(1);
}

extern "C" void on_signal(int sig) {
  if (sig == SIGALRM) {
    static const char msg[] = "perfbench: watchdog: run exceeded its budget\n";
    (void)!::write(2, msg, sizeof msg - 1);
  }
  kill_registered_daemons();
  std::_Exit(1);
}

// --- small helpers --------------------------------------------------------------

/// utime + stime of the daemon processes, exited threads included.
double sum_cpu_ms(const std::vector<pid_t>& tree) {
  double t = 0;
  for (const pid_t p : tree) t += cpu_ms(p);
  return t;
}

double sum_rss_mb(const std::vector<pid_t>& tree) {
  double t = 0;
  for (const pid_t p : tree) t += peak_rss_mb(p);
  return t;
}

double self_cpu_ms() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return (u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
         (u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// A daemon spawned with `flags`, answered a ping on `sock`.
Daemon start_daemon(const Args& a, const std::vector<std::string>& flags,
                    const std::string& sock) {
  std::vector<std::string> argv = {a.cli};
  argv.insert(argv.end(), flags.begin(), flags.end());
  Daemon d(argv, "daemon.log");
  if (!d.running()) die("could not spawn " + a.cli);
  register_daemon(d.pid());
  auto conn = LineConn::connect(sock, 30.0);
  if (!conn) die("daemon did not come up on " + sock + " (see daemon.log)");
  const auto pong = conn->call("{\"op\":\"ping\"}", 30.0);
  if (!pong || !reply_ok(*pong)) die("daemon did not answer ping");
  return d;
}

void stop_daemon(Daemon& d, const std::string& sock) {
  if (!d.running()) return;
  const pid_t pgid = d.pid();
  if (auto conn = LineConn::connect(sock, 1.0))
    conn->call("{\"op\":\"shutdown\"}", 5.0);
  if (!d.wait_exit(10.0)) d.kill_all();
  unregister_daemon(pgid);
}

/// Sends `lines` one at a time; dies unless every reply is ok.
void setup_calls(const std::string& sock, const std::vector<std::string>& lines) {
  auto conn = LineConn::connect(sock, 30.0);
  if (!conn) die("setup: cannot connect to " + sock);
  for (const std::string& l : lines) {
    const auto r = conn->call(l, 120.0);
    if (!r || !reply_ok(*r)) die("setup request failed: " + l + " -> " +
                                 r.value_or("<no reply>"));
  }
}

/// The daemon's memory grows with the distinct content it has served
/// (the interner never shrinks), so the closed-loop workloads read peak
/// RSS once a fixed number of requests is done, not at a time that
/// depends on the daemon's speed.  Falls back to the end of the run,
/// noted, when the run ends first.
double rss_or_end(Report& rep, double at_count, const std::vector<pid_t>& tree,
                  std::size_t count) {
  if (at_count >= 0) {
    rep.note("peak_rss_mb read after request " + std::to_string(count));
    return at_count;
  }
  rep.note("peak_rss_mb read at the end: fewer than " + std::to_string(count) +
           " requests completed");
  return sum_rss_mb(tree);
}

std::string join_flags(const std::vector<std::string>& flags) {
  std::string s = "lapx_cli";
  for (const std::string& f : flags) s += " " + f;
  return s;
}

/// Checks replies against the oracle; returns per-request ok flags and
/// adds to the report's attempted / failed counts.
std::vector<char> check_replies(Report& rep, const std::vector<std::string>& lines,
                                const std::vector<std::string>& got,
                                const std::vector<std::string>& want) {
  std::vector<char> ok(lines.size(), 0);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ok[i] = reply_matches(lines[i], got[i], want[i]);
    if (!ok[i]) {
      ++rep.failed;
      if (!got[i].empty()) ++mismatched;
      if (mismatched == 1 && !got[i].empty())
        rep.note("first mismatch: request " + lines[i].substr(0, 160) +
                 " got " + got[i].substr(0, 160) + " want " +
                 want[i].substr(0, 160));
    }
  }
  rep.attempted += lines.size();
  return ok;
}

/// Per-op request latency medians for the detail report.
void op_latencies(Report& rep, const std::vector<std::string>& lines,
                  const std::vector<double>& latency_ms) {
  std::map<std::string, std::vector<double>> by_op;
  for (std::size_t i = 0; i < lines.size() && i < latency_ms.size(); ++i)
    by_op[op_of(lines[i])].push_back(latency_ms[i]);
  for (const auto& [op, v] : by_op)
    rep.note("latency by op: " + op + " p50 = " + fmt(median(v)) + " ms (n=" +
             std::to_string(v.size()) + ")");
}

/// The end-to-end metrics shared by the serve workloads; `latency_ms`
/// holds one sample per request.
void serve_e2e(Report& rep, const std::vector<double>& setups,
               const std::vector<double>& latency_ms, std::size_t ok,
               double window_s, double cpu_ms_total, std::size_t replies,
               double rss_mb) {
  rep.set("setup_s", median(setups), "s");
  rep.note("setup_s = " + fmt(median(setups)) + " s  [median of " +
           std::to_string(setups.size()) + " set-ups]");
  rep.set_percentile("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
  rep.set_percentile("latency_p90_ms", percentile(latency_ms, 0.9), "ms");
  const Percentile p99 = tail_percentile(latency_ms, kTail99);
  rep.note("latency tail = " + fmt(p99.value) + " ms  [p" + fmt(p99.q * 100) +
           ", n=" + std::to_string(p99.n) + ", " + std::to_string(p99.beyond) +
           " beyond]");
  // The daemon's 100 ms connection-loop poll quantizes latencies; this
  // histogram shows where the percentiles fall relative to its ticks.
  std::size_t buckets[5] = {0, 0, 0, 0, 0};
  for (const double l : latency_ms)
    ++buckets[l < 50 ? 0 : l < 150 ? 1 : l < 250 ? 2 : l < 350 ? 3 : 4];
  rep.note("latency histogram (ms) <50:" + std::to_string(buckets[0]) +
           " 50-150:" + std::to_string(buckets[1]) + " 150-250:" +
           std::to_string(buckets[2]) + " 250-350:" + std::to_string(buckets[3]) +
           " >=350:" + std::to_string(buckets[4]));
  rep.set("throughput_rps", static_cast<double>(ok) / window_s, "1/s");
  // CPU time tracks the host's speed, which drifts by tens of percent on
  // a shared machine, so it is reported but not bounded.
  rep.note("cpu_ms_per_req = " +
           fmt(cpu_ms_total /
               static_cast<double>(std::max<std::size_t>(replies, 1))) +
           " ms  [daemon user+sys per reply]");
  rep.set("peak_rss_mb", rss_mb, "MiB");
  rep.note("completed ok = " + std::to_string(ok) + " in " + fmt(window_s) +
           " s; error_rate = " +
           fmt(rep.attempted ? static_cast<double>(rep.failed) /
                                   static_cast<double>(rep.attempted)
                             : 0.0));
}

/// Per-layer defaults: a layer a workload does not exercise reads 0.
void zero_layers(Report& rep) {
  for (const MetricDef& m : kPerLayer) rep.set(m.name, 0.0, m.unit);
}

void layer_pct(Report& rep, const std::string& name, std::vector<double> v,
               double q, const std::string& unit) {
  if (v.empty()) return;
  rep.set_percentile(name, q >= 0.99 ? tail_percentile(v, kTail99)
                                     : percentile(std::move(v), q),
                     unit);
}

void layer_compute(Report& rep, const ProbeResult& pr) {
  for (const char* op :
       {"views", "homogeneity", "run", "analyze", "fractional", "optimum"}) {
    auto it = pr.compute_ms.find(op);
    if (it != pr.compute_ms.end())
      layer_pct(rep, std::string("service.handlers.compute_ms.") + op,
                it->second, 0.5, "ms");
  }
  // On the serve paths each of these layers has exactly one caller, the
  // handler of its op, so the handler span is the layer's span.
  auto med = [&](std::initializer_list<const char*> ops) {
    std::vector<double> v;
    for (const char* op : ops)
      if (auto it = pr.compute_ms.find(op); it != pr.compute_ms.end())
        v.insert(v.end(), it->second.begin(), it->second.end());
    return v;
  };
  if (auto v = med({"homogeneity"}); !v.empty())
    rep.set("order.homogeneity.ms", median(v), "ms");
  if (auto v = med({"run"}); !v.empty())
    rep.set("core.simulate.ms", median(v), "ms");
  if (auto v = med({"optimum", "fractional"}); !v.empty())
    rep.set("problems.ms", median(v), "ms");
  layer_pct(rep, "service.protocol.submit_us.p50", pr.submit_us, 0.5, "us");
  layer_pct(rep, "service.protocol.submit_us.p99", pr.submit_us, 0.99, "us");
  layer_pct(rep, "service.scheduler.wait_ms.p50", pr.wait_ms, 0.5, "ms");
  layer_pct(rep, "service.scheduler.wait_ms.p99", pr.wait_ms, 0.99, "ms");
  layer_pct(rep, "service.ordering.hold_ms.p99", pr.hold_ms, 0.99, "ms");
  layer_pct(rep, "service.session_store.mutate_ms.p50", pr.mutate_ms, 0.5,
            "ms");
  if (!pr.build_ms.empty()) rep.set("graph.build_ms", median(pr.build_ms), "ms");
}

/// Engine counters sampled around a traced phase.
struct EngineSnap {
  std::size_t interner = 0;
  lapx::runtime::PoolStats pool;
  lapx::runtime::WorklistStats wl;
  static EngineSnap now() {
    return {lapx::core::TypeInterner::global().size(),
            lapx::runtime::pool_stats(), lapx::runtime::worklist_stats()};
  }
};

void layer_engine(Report& rep, const EngineSnap& a, const EngineSnap& b) {
  rep.set("core.interner.types_added",
          static_cast<double>(b.interner - a.interner), "count");
  const double contended = static_cast<double>(
      b.pool.jobs_inline_contended - a.pool.jobs_inline_contended);
  const double jobs =
      static_cast<double>((b.pool.jobs_coordinated - a.pool.jobs_coordinated) +
                          (b.pool.jobs_serial - a.pool.jobs_serial) +
                          (b.pool.jobs_inline_nested - a.pool.jobs_inline_nested)) +
      contended;
  rep.set("runtime.parallel.inline_contended_share",
          jobs > 0 ? contended / jobs : 0.0, "ratio");
  rep.note("runtime.parallel.inline_contended_share base: " + fmt(jobs) +
           " pool jobs");
  rep.set("runtime.worklist.steals",
          static_cast<double>(b.wl.steals - a.wl.steals), "count");
}

void cache_layer(Report& rep, const std::vector<svc::Service*>& services) {
  double hits = 0, misses = 0, evictions = 0, coalesced = 0, busy = 0,
         submitted = 0;
  for (svc::Service* s : services) {
    const auto cs = s->cache().stats();
    const auto ss = s->scheduler().stats();
    hits += static_cast<double>(cs.hits);
    misses += static_cast<double>(cs.misses);
    evictions += static_cast<double>(cs.evictions);
    coalesced += static_cast<double>(ss.coalesced);
    busy += static_cast<double>(ss.rejected_busy);
    submitted += static_cast<double>(ss.submitted);
  }
  rep.set("service.result_cache.hit_ratio",
          hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  rep.set("service.result_cache.evictions", evictions, "count");
  rep.set("service.scheduler.coalesced", coalesced, "count");
  rep.set("service.scheduler.rejected_busy", busy, "count");
  rep.note("cache lookups = " + fmt(hits + misses) +
           " (base of hit_ratio); scheduler submitted = " + fmt(submitted) +
           " (base of coalesced / rejected_busy)");
}

/// Transport = socket round trip minus the in-process submit -> drained
/// time of the same request.
void transport_layer(Report& rep, const std::vector<double>& socket_ms,
                     const std::vector<double>& inproc_ms) {
  std::vector<double> d;
  for (std::size_t i = 0; i < std::min(socket_ms.size(), inproc_ms.size()); ++i)
    d.push_back(std::max(0.0, socket_ms[i] - inproc_ms[i]));
  layer_pct(rep, "service.net.transport_ms.p50", d, 0.5, "ms");
  layer_pct(rep, "service.net.transport_ms.p99", d, 0.99, "ms");
}

void overhead_layer(Report& rep, const std::vector<double>& untraced_ms,
                    const std::vector<double>& traced_ms) {
  if (untraced_ms.empty() || traced_ms.empty()) return;
  const double u = median(untraced_ms), t = median(traced_ms);
  rep.set("trace.overhead_share", u > 0 ? t / u - 1.0 : 0.0, "ratio");
  rep.note("trace.overhead_share: traced p50 " + fmt(t) + " ms vs untraced " +
           fmt(u) + " ms");
}

/// Writes every span plus per-name self-time totals for the traced run.
void write_trace(const Args& a, const Trace& trace, Report& rep) {
  const auto spans = trace.spans();
  const auto self = self_times(spans);
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [sum, n] = by_name[spans[i].name];
    sum += self[i] * 1e3;
    ++n;
  }
  for (const auto& [name, v] : by_name)
    rep.note("self time " + name + " = " + fmt(v.first) + " ms over " +
             std::to_string(v.second) + " spans");
  if (a.report_dir.empty()) return;
  const std::string path = a.report_dir + "/trace-" + a.workload + "-" +
                           std::to_string(a.seed) + ".jsonl";
  // Times in ms from the first span's start, to the microsecond.
  double base = spans.empty() ? 0.0 : spans[0].start;
  for (const Span& s : spans) base = std::min(base, s.start);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"i\":%zu,\"name\":\"%s\",\"parent\":%lld,\"request\":%llu,"
                 "\"start_ms\":%.3f,\"end_ms\":%.3f,\"self_ms\":%.3f}\n",
                 i, s.name.c_str(), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 (s.start - base) * 1e3, (s.end - base) * 1e3, self[i] * 1e3);
  }
  std::fclose(out);
  rep.note("spans written to " + path);
}

/// The two halves of a hosted closed-loop run.
struct HostedLogs {
  std::vector<ConnLog> untraced, traced;
};

/// The traced run shared by serve_cold and serve_mutate.  It hosts
/// Service + Server in this process, runs half the window untraced and
/// half traced, then replays each connection's whole stream through the
/// in-process probe (only the traced half timed; its replies are the
/// oracle).  Records the cache, engine, handler, transport and overhead
/// layers.
HostedLogs hosted_closed_run(const Args& a, Report& rep, Trace& trace,
                             const svc::Service::Options& opt,
                             const std::vector<std::string>& setup,
                             std::vector<UnitGenerator> gens) {
  svc::Service service(opt);
  svc::Server::Options so;
  so.endpoint.unix_path = "t.sock";
  svc::Server server(service, so);
  std::thread serving([&] { server.serve_forever(); });
  setup_calls("t.sock", setup);
  HostedLogs logs;
  const EngineSnap e0 = EngineSnap::now();
  logs.untraced = run_closed("t.sock", gens, a.seconds / 2, 60.0, nullptr);
  logs.traced = run_closed("t.sock", gens, a.seconds / 2, 60.0, &trace);
  const EngineSnap e1 = EngineSnap::now();
  cache_layer(rep, {&service});
  server.stop();
  serving.join();
  layer_engine(rep, e0, e1);
  std::vector<double> lat_u, lat_t, inproc_t;
  ProbeResult all;
  for (std::size_t c = 0; c < gens.size(); ++c) {
    const ConnLog& u = logs.untraced[c];
    const ConnLog& t = logs.traced[c];
    std::vector<std::string> lines = u.lines;
    lines.insert(lines.end(), t.lines.begin(), t.lines.end());
    std::vector<char> timed(u.lines.size(), 0);
    timed.resize(lines.size(), 1);
    const ProbeResult pr = probe_replay(opt, setup, lines, timed, false, trace);
    std::vector<std::string> got = u.replies;
    got.insert(got.end(), t.replies.begin(), t.replies.end());
    check_replies(rep, lines, got, pr.replies);
    lat_u.insert(lat_u.end(), u.latency_ms.begin(), u.latency_ms.end());
    lat_t.insert(lat_t.end(), t.latency_ms.begin(), t.latency_ms.end());
    inproc_t.insert(inproc_t.end(), pr.inproc_ms.begin(), pr.inproc_ms.end());
    for (const auto& [op, v] : pr.compute_ms)
      all.compute_ms[op].insert(all.compute_ms[op].end(), v.begin(), v.end());
    for (auto [dst, src] : {std::pair{&all.build_ms, &pr.build_ms},
                            std::pair{&all.submit_us, &pr.submit_us},
                            std::pair{&all.wait_ms, &pr.wait_ms},
                            std::pair{&all.hold_ms, &pr.hold_ms},
                            std::pair{&all.mutate_ms, &pr.mutate_ms}})
      dst->insert(dst->end(), src->begin(), src->end());
  }
  layer_compute(rep, all);
  transport_layer(rep, lat_t, inproc_t);
  overhead_layer(rep, lat_u, lat_t);
  return logs;
}

void batch_probe(Report& rep, std::uint64_t seed, Trace& trace);

// --- serve_cold ---------------------------------------------------------------------

const std::vector<std::string> kColdFlags = {
    "serve",       "--socket",      "d.sock", "--executors", "2",
    "--threads",   "2",             "--ooc-budget-mb",       "2"};
constexpr int kColdConns = 2;
constexpr std::size_t kColdRssAt = 200;
const char* kOocFile = "ooc.lapxooc";

svc::Service::Options cold_options() {
  svc::Service::Options o;
  o.scheduler.executors = 2;
  o.store.ooc_budget_bytes = std::size_t{2} << 20;
  return o;
}

std::vector<std::string> cold_setup_lines() {
  return {std::string("{\"id\":1,\"op\":\"open\",\"name\":\"") + kOocSession +
          "\",\"path\":\"" + kOocFile + "\"}"};
}

void convert_ooc(const Args& a) {
  const OocLift l;
  const int rc = run_cmd({a.cli, "graph-convert", kOocFile, "--family",
                          "torus", std::to_string(l.a), std::to_string(l.b),
                          "--lift", std::to_string(l.layers), "--seed",
                          std::to_string(mix(a.seed, 77) % 1000003)},
                         "convert.log", 120.0);
  if (rc != 0) die("graph-convert failed (see convert.log)");
}

/// Per-connection generators: connection c walks its blocks in order, one
/// request at a time.
std::vector<UnitGenerator> cold_generators(std::uint64_t seed) {
  std::vector<UnitGenerator> gens;
  for (int c = 0; c < kColdConns; ++c) {
    auto state = std::make_shared<std::pair<int, std::deque<std::string>>>();
    auto next_id = std::make_shared<std::int64_t>((c + 1) * 100000000LL);
    gens.push_back([seed, c, state, next_id] {
      if (state->second.empty()) {
        for (auto& l : cold_block(seed, c, state->first++, *next_id))
          state->second.push_back(std::move(l));
      }
      std::vector<std::string> unit = {std::move(state->second.front())};
      state->second.pop_front();
      return unit;
    });
  }
  return gens;
}

std::vector<std::vector<std::string>> references_parallel(
    const svc::Service::Options& opt, const std::vector<std::string>& setup,
    const std::vector<ConnLog>& logs) {
  std::vector<std::vector<std::string>> want(logs.size());
  std::vector<std::thread> ts;
  for (std::size_t c = 0; c < logs.size(); ++c)
    ts.emplace_back([&, c] { want[c] = reference_replies(opt, setup, logs[c].lines); });
  for (auto& t : ts) t.join();
  return want;
}

Report run_serve_cold(const Args& a) {
  Report rep;
  rep.note(host_record(a, join_flags(kColdFlags), 0));
  lapx::runtime::set_thread_count(2);
  if (!a.trace) {
    std::vector<double> setups;
    Daemon d;
    for (int rep_i = 0; rep_i < kSetups; ++rep_i) {
      if (d.running()) stop_daemon(d, "d.sock");
      ::unlink(kOocFile);
      const double t0 = now_s();
      convert_ooc(a);
      d = start_daemon(a, kColdFlags, "d.sock");
      setup_calls("d.sock", cold_setup_lines());
      setups.push_back(now_s() - t0);
    }
    const auto tree = process_tree(d.pid());
    const double cpu0 = sum_cpu_ms(tree);
    auto gens = cold_generators(a.seed);
    double rss = -1;
    const double t0 = now_s();
    const auto logs = run_closed("d.sock", gens, a.seconds, 60.0, nullptr,
                                 kColdRssAt, [&] { rss = sum_rss_mb(tree); });
    const double window = now_s() - t0;
    const double cpu = sum_cpu_ms(tree) - cpu0;
    rss = rss_or_end(rep, rss, tree, kColdRssAt);
    stop_daemon(d, "d.sock");
    const auto want = references_parallel(cold_options(), cold_setup_lines(), logs);
    std::vector<double> lat;
    std::vector<std::string> sent;
    std::size_t ok = 0, replies = 0;
    for (std::size_t c = 0; c < logs.size(); ++c) {
      const auto flags = check_replies(rep, logs[c].lines, logs[c].replies, want[c]);
      for (std::size_t i = 0; i < flags.size(); ++i) {
        ok += flags[i] ? 1 : 0;
        replies += logs[c].replies[i].empty() ? 0 : 1;
        lat.push_back(logs[c].latency_ms[i]);
        sent.push_back(logs[c].lines[i]);
      }
    }
    serve_e2e(rep, setups, lat, ok, window, cpu, replies, rss);
    op_latencies(rep, sent, lat);
    return rep;
  }
  // Traced: the daemon's classes hosted in this process.
  zero_layers(rep);
  Trace trace(true);
  convert_ooc(a);
  const HostedLogs logs = hosted_closed_run(a, rep, trace, cold_options(),
                                            cold_setup_lines(),
                                            cold_generators(a.seed));
  // Full refinement of the phase-T graphs and the out-of-core stream.
  {
    std::vector<double> full;
    svc::Service builder(cold_options());
    for (const ConnLog& log : logs.traced) {
      for (const std::string& l : log.lines) {
        if (op_of(l) != "generate" || l.find("\"regular\",\"args\":[22,") != std::string::npos)
          continue;
        builder.handle(l);
        const auto k = l.find("\"name\":\"") + 8;
        const auto entry = builder.store().get(l.substr(k, l.find('"', k) - k));
        if (!entry) continue;
        lapx::core::TypeInterner fresh;
        const double r0 = now_s();
        lapx::core::RefineState rs(entry->ldigraph(), fresh);
        rs.types_at(4);
        full.push_back((now_s() - r0) * 1e3);
      }
    }
    if (!full.empty()) rep.set("core.refine.full_ms", median(full), "ms");
    rep.note("core.refine.full_ms over " + std::to_string(full.size()) +
             " phase-T graphs (radius 4, fresh interner)");
    lapx::graph::OocGraph::Options oo;
    oo.budget_bytes = std::size_t{2} << 20;
    lapx::graph::OocGraph og(kOocFile, oo);
    lapx::core::TypeInterner fresh;
    const double r0 = now_s();
    lapx::core::RefineState rs(og, fresh);
    rs.types_at(4);
    rep.set("graph.ooc.refine_ms", (now_s() - r0) * 1e3, "ms");
    const auto res = og.residency();
    rep.set("graph.ooc.touches", static_cast<double>(res.touches), "count");
    rep.set("graph.ooc.evictions", static_cast<double>(res.evictions), "count");
  }
  batch_probe(rep, a.seed, trace);
  write_trace(a, trace, rep);
  return rep;
}

// --- serve_hot_sharded -----------------------------------------------------------

const std::vector<std::string> kHotFlags = {"serve", "--socket", "d.sock",
                                            "--shards", "2", "--executors",
                                            "1", "--threads", "1"};
// Offered rate, fixed gaps.  A routed reply waits in the router until the
// next line arrives on its connection, so latency is about one
// per-connection gap plus that next request's send lateness.
constexpr double kHotRate = 2000.0;
constexpr double kHotLimitMs = 10.0;

svc::Service::Options hot_options() {
  svc::Service::Options o;
  o.scheduler.executors = 1;
  return o;
}

/// Sends the hot set-up's generate lines (`generate` true: the timed
/// set-up proper) or its warm-up queries, pipelined; dies on a failure.
void hot_setup_phase(const std::string& sock, std::uint64_t seed,
                     bool generate) {
  std::vector<std::string> lines;
  for (const std::string& l : hot_setup(seed))
    if ((op_of(l) == "generate") == generate) lines.push_back(l);
  const auto got = pipeline_all(sock, lines, 120.0);
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (!reply_ok(got[i]))
      die("hot set-up failed: " + lines[i] + " -> " + got[i]);
}

std::vector<std::string> hot_lines(std::uint64_t seed, std::size_t from,
                                   std::size_t count) {
  std::vector<std::string> v;
  for (std::size_t i = from; i < from + count; ++i)
    v.push_back(hot_request(seed, i));
  return v;
}

std::vector<double> open_latencies(const OpenLog& log) {
  std::vector<double> v;
  for (const auto& s : log.samples)
    if (s.done >= 0) v.push_back((s.done - s.due) * 1e3);
  return v;
}

Report run_serve_hot(const Args& a) {
  Report rep;
  rep.note(host_record(a, join_flags(kHotFlags), kHotRate));
  lapx::runtime::set_thread_count(1);
  if (!a.trace) {
    std::vector<double> setups;
    Daemon d;
    for (int rep_i = 0; rep_i < kSetups; ++rep_i) {
      if (d.running()) stop_daemon(d, "d.sock");
      const double t0 = now_s();
      d = start_daemon(a, kHotFlags, "d.sock");
      hot_setup_phase("d.sock", a.seed, true);
      setups.push_back(now_s() - t0);
    }
    hot_setup_phase("d.sock", a.seed, false);
    const auto tree = process_tree(d.pid());
    const double cpu0 = sum_cpu_ms(tree);
    const std::vector<double> due = fixed_schedule(kHotRate, a.seconds);
    const std::size_t n = due.size();
    const auto lines = hot_lines(a.seed, 0, n);
    std::vector<int> conn_of(n);
    for (std::size_t i = 0; i < n; ++i) conn_of[i] = static_cast<int>(i % 2);
    OpenLog log = run_open({"d.sock", "d.sock"}, lines, conn_of, due, 10.0,
                           nullptr);
    const double cpu = sum_cpu_ms(tree) - cpu0;
    const double rss = sum_rss_mb(tree);
    stop_daemon(d, "d.sock");
    const auto want = reference_replies(hot_options(), hot_setup(a.seed), lines);
    const auto flags = check_replies(rep, lines, log.replies, want);
    std::size_t replies = 0;
    for (std::size_t i = 0; i < n; ++i) {
      log.samples[i].ok = flags[i] != 0;
      replies += log.replies[i].empty() ? 0 : 1;
    }
    const OpenLoopSummary s = summarize_open_loop(log.samples, kHotLimitMs);
    // The window runs from the first due time to the last reply.
    double window = a.seconds;
    std::vector<double> lat(n);
    for (std::size_t i = 0; i < n; ++i) {
      const OpenLoopSample& x = log.samples[i];
      window = std::max(window, x.done);
      lat[i] = x.done >= 0 ? (x.done - x.due) * 1e3 : 10000.0;  // timeout
    }
    serve_e2e(rep, setups, lat, n - s.failed, window, cpu, replies, rss);
    rep.note("goodput_rps = " + fmt(static_cast<double>(s.within_limit) / window) +
             " 1/s  [ok within " + fmt(kHotLimitMs) + " ms of due]");
    const Percentile late = tail_percentile(s.lateness_ms, kTail99);
    rep.note("loadgen lateness p" + fmt(late.q * 100) + " = " + fmt(late.value) +
             " ms  [n=" + std::to_string(late.n) + "]");
    return rep;
  }
  zero_layers(rep);
  Trace trace(true);
  namespace shard = svc::shard;
  std::vector<std::unique_ptr<shard::ShardHost>> hosts;
  std::vector<shard::InProcessShardHost*> raw;
  for (int i = 0; i < 2; ++i) {
    shard::WorkerConfig cfg;
    cfg.index = i;
    cfg.count = 2;
    cfg.socket_path = "t.sock.shard" + std::to_string(i);
    cfg.service = hot_options();
    auto h = std::make_unique<shard::InProcessShardHost>(cfg);
    raw.push_back(h.get());
    hosts.push_back(std::move(h));
  }
  shard::ShardSupervisor sup(std::move(hosts));
  sup.start_all();
  shard::Router::Options ro;
  ro.endpoint.unix_path = "t.sock";
  shard::Router router(sup, ro);
  std::thread serving([&] { router.serve_forever(); });
  hot_setup_phase("t.sock", a.seed, true);
  hot_setup_phase("t.sock", a.seed, false);
  const EngineSnap e0 = EngineSnap::now();
  const double third = a.seconds / 3;
  const std::vector<double> due = fixed_schedule(kHotRate, third);
  const std::size_t n = due.size();
  std::vector<int> alt(n);
  for (std::size_t i = 0; i < n; ++i) alt[i] = static_cast<int>(i % 2);
  const auto lines_u = hot_lines(a.seed, 0, n);
  const auto lines_t = hot_lines(a.seed, n, n);
  const OpenLog log_u = run_open({"t.sock", "t.sock"}, lines_u, alt, due, 10.0, nullptr);
  const OpenLog log_t = run_open({"t.sock", "t.sock"}, lines_t, alt, due, 10.0, &trace);
  // Phase D: phase T's routable requests again, on the same schedule, sent
  // straight to the owning shard (one connection per shard).
  const shard::HashRing ring(2, ro.vnodes);
  std::vector<std::string> lines_d;
  std::vector<int> owner;
  std::vector<double> due_d;
  std::vector<std::size_t> index_d;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_fanout_line(lines_t[i])) continue;
    const auto k = lines_t[i].find("\"graph\":\"") + 9;
    owner.push_back(static_cast<int>(
        ring.owner(lines_t[i].substr(k, lines_t[i].find('"', k) - k))));
    lines_d.push_back(lines_t[i]);
    due_d.push_back(due[i]);
    index_d.push_back(i);
  }
  const OpenLog log_d = run_open({"t.sock.shard0", "t.sock.shard1"}, lines_d,
                                 owner, due_d, 10.0, nullptr);
  const EngineSnap e1 = EngineSnap::now();
  cache_layer(rep, {raw[0]->service(), raw[1]->service()});
  router.stop();
  serving.join();
  sup.stop_all();
  layer_engine(rep, e0, e1);
  // Router cost per request: via-router round trip minus direct.
  std::vector<double> router_ms, fanout_ms;
  for (std::size_t j = 0; j < index_d.size(); ++j) {
    const auto& st = log_t.samples[index_d[j]];
    const auto& sd = log_d.samples[j];
    if (st.done >= 0 && sd.done >= 0)
      router_ms.push_back((st.done - st.sent) * 1e3 - (sd.done - sd.sent) * 1e3);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (is_fanout_line(lines_t[i]) && log_t.samples[i].done >= 0)
      fanout_ms.push_back((log_t.samples[i].done - log_t.samples[i].sent) * 1e3);
  layer_pct(rep, "service.shard.router_ms.p50", router_ms, 0.5, "ms");
  layer_pct(rep, "service.shard.router_ms.p99", router_ms, 0.99, "ms");
  layer_pct(rep, "service.shard.fanout_ms.p50", fanout_ms, 0.5, "ms");
  OpenLoopSummary st = summarize_open_loop(log_t.samples, kHotLimitMs);
  layer_pct(rep, "loadgen.late_ms.p99", st.lateness_ms, 0.99, "ms");
  overhead_layer(rep, open_latencies(log_u), open_latencies(log_t));
  // Oracle + in-process probe over U and T (only T timed).
  std::vector<std::string> lines = lines_u;
  lines.insert(lines.end(), lines_t.begin(), lines_t.end());
  std::vector<char> timed(n, 0);
  timed.resize(2 * n, 1);
  const ProbeResult pr = probe_replay(hot_options(), hot_setup(a.seed), lines,
                                      timed, true, trace);
  std::vector<std::string> got = log_u.replies;
  got.insert(got.end(), log_t.replies.begin(), log_t.replies.end());
  check_replies(rep, lines, got, pr.replies);
  std::vector<double> rtt_t;
  for (const auto& s : log_t.samples)
    rtt_t.push_back(s.done >= 0 ? (s.done - s.sent) * 1e3 : 10000.0);
  transport_layer(rep, rtt_t, pr.inproc_ms);
  layer_compute(rep, pr);
  write_trace(a, trace, rep);
  return rep;
}

// --- serve_mutate ------------------------------------------------------------------

const std::vector<std::string> kMutateFlags = {
    "serve", "--socket", "d.sock", "--executors", "1", "--threads", "2"};

constexpr std::size_t kMutateRssAt = 300;

svc::Service::Options mutate_options() {
  svc::Service::Options o;
  o.scheduler.executors = 1;
  return o;
}

/// Two units per edit cycle: the `mutate` alone, then its four follow-up
/// reads together, as a client that applies an edit and then reads its
/// effect would.  (Sent one at a time, a read that resolves within about
/// a millisecond races the daemon's connection loop and reads either ~1 ms
/// or one 100 ms poll tick depending on host load.)
UnitGenerator mutate_generator(std::shared_ptr<MutatePlan> plan) {
  auto reads = std::make_shared<std::vector<std::string>>();
  return [plan, reads] {
    if (!reads->empty()) return std::exchange(*reads, {});
    std::vector<std::string> cycle = plan->next_cycle();
    reads->assign(cycle.begin() + 1, cycle.end());
    return std::vector<std::string>{cycle.front()};
  };
}

Report run_serve_mutate(const Args& a) {
  Report rep;
  rep.note(host_record(a, join_flags(kMutateFlags), 0));
  lapx::runtime::set_thread_count(2);
  const auto setup = mutate_setup(a.seed);
  if (!a.trace) {
    std::vector<double> setups;
    Daemon d;
    for (int rep_i = 0; rep_i < kSetups; ++rep_i) {
      if (d.running()) stop_daemon(d, "d.sock");
      const double t0 = now_s();
      d = start_daemon(a, kMutateFlags, "d.sock");
      setup_calls("d.sock", setup);
      setups.push_back(now_s() - t0);
    }
    const auto tree = process_tree(d.pid());
    const double cpu0 = sum_cpu_ms(tree);
    std::vector<UnitGenerator> gens = {
        mutate_generator(std::make_shared<MutatePlan>(a.seed))};
    double rss = -1;
    const double t0 = now_s();
    const auto logs = run_closed("d.sock", gens, a.seconds, 60.0, nullptr,
                                 kMutateRssAt, [&] { rss = sum_rss_mb(tree); });
    const double window = now_s() - t0;
    const double cpu = sum_cpu_ms(tree) - cpu0;
    rss = rss_or_end(rep, rss, tree, kMutateRssAt);
    stop_daemon(d, "d.sock");
    const auto want = reference_replies(mutate_options(), setup, logs[0].lines);
    const auto flags = check_replies(rep, logs[0].lines, logs[0].replies, want);
    std::size_t ok = 0, replies = 0;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      ok += flags[i] ? 1 : 0;
      replies += logs[0].replies[i].empty() ? 0 : 1;
    }
    serve_e2e(rep, setups, logs[0].latency_ms, ok, window, cpu, replies, rss);
    op_latencies(rep, logs[0].lines, logs[0].latency_ms);
    return rep;
  }
  zero_layers(rep);
  Trace trace(true);
  const HostedLogs logs = hosted_closed_run(
      a, rep, trace, mutate_options(), setup,
      {mutate_generator(std::make_shared<MutatePlan>(a.seed))});
  // Delta refinement replayed on the harness's own copy of the session:
  // the same edit batches, radius 4 materialized as the setup does.
  {
    MutatePlan replay(a.seed);
    lapx::graph::Graph g = replay.base();
    auto ld = std::make_unique<lapx::graph::LDigraph>(lapx::graph::to_ldigraph(g));
    lapx::core::TypeInterner fresh;
    const double f0 = now_s();
    lapx::core::RefineState rs(*ld, fresh, /*keep_rounds=*/true);
    rs.types_at(4);
    rep.set("core.refine.full_ms", (now_s() - f0) * 1e3, "ms");
    std::vector<double> delta_ms, share;
    std::size_t mutates = 0;
    std::vector<std::pair<const std::string*, bool>> stream;  // line, timed
    for (const std::string& l : logs.untraced[0].lines) stream.push_back({&l, false});
    for (const std::string& l : logs.traced[0].lines) stream.push_back({&l, true});
    for (const auto& [l, is_timed] : stream) {
      if (op_of(*l) != "mutate") continue;
      ++mutates;
      replay.next_cycle();
      std::vector<lapx::graph::EdgeEdit> edits;
      for (const auto& [add, e] : replay.last_edits())
        edits.push_back({add ? lapx::graph::EdgeEdit::Kind::kAdd
                             : lapx::graph::EdgeEdit::Kind::kRemove,
                         e.first, e.second});
      lapx::graph::apply_edits(g, edits);
      auto next = std::make_unique<lapx::graph::LDigraph>(lapx::graph::to_ldigraph(g));
      const double d0 = now_s();
      const auto ds = rs.refine_delta(*next);
      const double d1 = now_s();
      ld = std::move(next);
      if (!is_timed) continue;
      delta_ms.push_back((d1 - d0) * 1e3);
      share.push_back(ds.total_vertices
                          ? static_cast<double>(ds.frontier_vertices) /
                                static_cast<double>(ds.total_vertices)
                          : 0.0);
      trace.add(Span{"core.refine.delta", -1, 0, d0, d1});
    }
    layer_pct(rep, "core.refine.delta_ms.p50", delta_ms, 0.5, "ms");
    if (!share.empty())
      rep.set("core.refine.delta_frontier_share", median(share), "ratio");
    rep.note("refine_delta replayed over " + std::to_string(mutates) +
             " mutate batches");
  }
  write_trace(a, trace, rep);
  return rep;
}

// --- batch_pipeline ------------------------------------------------------------------

/// What one pass computes; the reference pass must agree on all of it.
struct PassOut {
  std::vector<std::size_t> distinct;  // radius 1..kBatchRadius
  double hom_fraction = 0;
  std::size_t hom_types = 0;
  std::size_t po_size = 0;
  bool feasible = false;
  double eds_ratio = 0;
  std::size_t vertices = 0;
  bool operator==(const PassOut&) const = default;
};

constexpr int kBatchRadius = 3;
constexpr int kBatchThreads = 4;
constexpr int kEdsCycle = 6000;

struct PassTimes {
  double group = 0, graph = 0, refine = 0, homogeneity = 0, simulate = 0,
         problems = 0, total = 0;
  std::size_t types_added = 0;
};

lapx::graph::Lift build_batch_lift(const BatchInstance& inst) {
  std::mt19937_64 rng(inst.lift_seed);
  return lapx::graph::random_lift(
      lapx::graph::directed_torus({inst.a, inst.b}), inst.layers, rng);
}

PassOut batch_pass(const BatchInstance& inst, PassTimes& t, Trace* trace,
                   std::uint64_t pass_id) {
  using namespace lapx;
  PassOut out;
  std::int64_t root = -1;
  const double p0 = now_s();
  auto span = [&](const char* name, double s0, double s1) {
    if (trace != nullptr) trace->add(Span{name, root, pass_id, s0, s1});
  };
  // group: the homogeneous template whose order the simulation uses.
  std::mt19937_64 grng(inst.group_seed);
  auto spec = group::design_homogeneous(2, 1, 4, grng);
  if (!spec) throw std::runtime_error("design_homogeneous found no template");
  spec->m = 4;
  const auto h = group::materialize_homogeneous(*spec, 1 << 17, true);
  const double p1 = now_s();
  // graph: the seeded torus lift.
  const graph::Lift lift = build_batch_lift(inst);
  const graph::Graph ug = lift.graph.underlying_graph();
  out.vertices = static_cast<std::size_t>(ug.num_vertices());
  const double p2 = now_s();
  // core.refine with a fresh interner, over the port-numbered lift (the
  // lift's own labels make every view alike; ports do not).
  const graph::LDigraph ported = graph::to_ldigraph(ug);
  core::TypeInterner fresh;
  core::RefineState rs(ported, fresh);
  for (int r = 1; r <= kBatchRadius; ++r) out.distinct.push_back(rs.distinct_at(r));
  t.types_added = fresh.size();
  const double p3 = now_s();
  // order.homogeneity under the identity order.
  order::Keys keys(static_cast<std::size_t>(ug.num_vertices()));
  std::iota(keys.begin(), keys.end(), 0);
  const auto hom = order::measure_homogeneity(ug, keys, 1);
  out.hom_fraction = hom.fraction;
  out.hom_types = hom.distinct_types;
  const double p4 = now_s();
  // core.simulate: the OI greedy EDS algorithm pushed through the
  // template's order into PO, run on the lift.
  const auto b = core::oi_to_po_edges(algorithms::eds_greedy_fallback_oi(1),
                                      core::TStarOrder::wreath(h.spec));
  const auto bits = core::run_po_edges(lift.graph, b, 1);
  const double p5 = now_s();
  // problems: feasibility on the lift, and the Theorem 1.6 ratio on the
  // symmetric cycle (Delta' = 2: 4 - 2/2 = 3).
  const auto sol = problems::edge_solution(bits);
  out.po_size = sol.size();
  out.feasible = problems::edge_dominating_set().feasible(ug, sol);
  const auto cyc = graph::directed_cycle(kEdsCycle);
  const auto b1 = core::oi_to_po_edges(algorithms::eds_greedy_fallback_oi(1),
                                       core::TStarOrder::abelian(1, 2));
  const auto csol = problems::edge_solution(core::run_po_edges(cyc, b1, 2));
  out.feasible = out.feasible && problems::edge_dominating_set().feasible(
                                     cyc.underlying_graph(), csol);
  out.eds_ratio = static_cast<double>(csol.size()) /
                  static_cast<double>(problems::cycle_min_edge_dominating_set(kEdsCycle));
  const double p6 = now_s();
  t = PassTimes{(p1 - p0) * 1e3, (p2 - p1) * 1e3, (p3 - p2) * 1e3,
                (p4 - p3) * 1e3, (p5 - p4) * 1e3, (p6 - p5) * 1e3,
                (p6 - p0) * 1e3, t.types_added};
  if (trace != nullptr) {
    root = trace->add(Span{"batch.pass", -1, pass_id, p0, p6});
    span("group.build", p0, p1);
    span("graph.build", p1, p2);
    span("core.refine", p2, p3);
    span("order.homogeneity", p3, p4);
    span("core.simulate", p4, p5);
    span("problems", p5, p6);
  }
  return out;
}

/// The layers only the batch pipeline reaches -- the group template and
/// the refine thread pool without the scheduler in the way -- measured
/// with two passes at 4 threads and two at 1 thread on the batch graph.
void batch_probe(Report& rep, std::uint64_t seed, Trace& trace) {
  const BatchInstance inst = batch_instance(seed);
  const int saved = lapx::runtime::thread_count();
  std::vector<double> group, refine4, refine1;
  for (int threads : {kBatchThreads, 1}) {
    lapx::runtime::set_thread_count(threads);
    for (int i = 0; i < 2; ++i) {
      PassTimes t;
      batch_pass(inst, t, threads == kBatchThreads ? &trace : nullptr, 0);
      (threads == kBatchThreads ? refine4 : refine1).push_back(t.refine);
      if (threads == kBatchThreads) group.push_back(t.group);
    }
  }
  lapx::runtime::set_thread_count(saved);
  rep.set("group.build_ms", median(group), "ms");
  rep.set("core.refine.scaling_4t", median(refine1) / median(refine4), "x");
  rep.note("batch probe: group.build_ms and core.refine.scaling_4t from 2+2 "
           "batch passes (refine " + fmt(median(refine1)) + " ms at 1 thread, " +
           fmt(median(refine4)) + " ms at 4)");
}

bool pass_matches(const PassOut& got, const PassOut& ref) {
  return got == ref && got.feasible && std::abs(got.eds_ratio - 3.0) < 1e-9;
}

Report run_batch(const Args& a) {
  Report rep;
  rep.note(host_record(a, "in-process, LAPX_THREADS=4", 0));
  const BatchInstance inst = batch_instance(a.seed);
  lapx::runtime::set_thread_count(kBatchThreads);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    const auto lift = build_batch_lift(inst);
    if (lift.graph.num_vertices() == 0) die("batch: empty lift");
    setups.push_back(now_s() - t0);
  }
  Trace trace(a.trace);
  const EngineSnap e0 = EngineSnap::now();
  std::vector<PassOut> outs;
  std::vector<PassTimes> times;
  std::vector<double> pass_ms_u;
  const double cpu0 = self_cpu_ms();
  const double start = now_s();
  const double traced_from = a.trace ? start + a.seconds / 2 : 1e300;
  EngineSnap et;
  bool et_set = false;
  // At least one pass, and with tracing at least one traced pass.
  while (now_s() < start + a.seconds || outs.empty() || (a.trace && !et_set)) {
    const bool traced = now_s() >= traced_from;
    if (traced && !et_set) {
      et = EngineSnap::now();
      et_set = true;
    }
    PassTimes t;
    outs.push_back(batch_pass(inst, t, traced ? &trace : nullptr, outs.size() + 1));
    times.push_back(t);
    if (!traced) pass_ms_u.push_back(t.total);
  }
  const double window = now_s() - start;
  const double cpu = self_cpu_ms() - cpu0;
  const EngineSnap e1 = EngineSnap::now();
  // Reference pass: one thread, same instance.
  lapx::runtime::set_thread_count(1);
  std::vector<double> refine_1t;
  PassOut ref;
  for (int i = 0; i < (a.trace ? 3 : 1); ++i) {
    PassTimes t;
    ref = batch_pass(inst, t, nullptr, 0);
    refine_1t.push_back(t.refine);
  }
  lapx::runtime::set_thread_count(kBatchThreads);
  std::vector<double> pass_ms;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    ++rep.attempted;
    if (pass_matches(outs[i], ref)) {
      ++ok;
    } else {
      ++rep.failed;
    }
    pass_ms.push_back(times[i].total);
  }
  rep.note("batch reference: n=" + std::to_string(ref.vertices) +
           " distinct(r=1..3)=" + std::to_string(ref.distinct[0]) + "/" +
           std::to_string(ref.distinct[1]) + "/" + std::to_string(ref.distinct[2]) +
           " homogeneous_fraction=" + fmt(ref.hom_fraction) +
           " po_size=" + std::to_string(ref.po_size) +
           " eds_ratio=" + fmt(ref.eds_ratio) + " (4 - 2/Delta' = 3)");
  if (!a.trace) {
    rep.set("setup_s", median(setups), "s");
    rep.note("setup_s = " + fmt(median(setups)) + " s  [median of " + std::to_string(kSetups) + " lift builds]");
    rep.set_percentile("latency_p50_ms", percentile(pass_ms, 0.5), "ms");
    rep.set_percentile("latency_p90_ms", percentile(pass_ms, 0.9), "ms");
    rep.set("throughput_rps", static_cast<double>(ok) / window, "1/s");
    rep.note("cpu_ms_per_req = " + fmt(cpu / static_cast<double>(outs.size())) +
             " ms  [process user+sys per pass]");
    rep.set("peak_rss_mb", peak_rss_mb(::getpid()), "MiB");
    rep.note("pass_s_p50 = " + fmt(median(pass_ms) / 1e3) + " s; vertices_per_s = " +
             fmt(static_cast<double>(ref.vertices) / (median(pass_ms) / 1e3)) +
             "; passes = " + std::to_string(outs.size()) + "; error_rate = " +
             fmt(static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)));
    return rep;
  }
  zero_layers(rep);
  std::vector<double> group, graph, refine, hom, sim, prob, types;
  std::vector<double> pass_ms_t;
  for (std::size_t i = pass_ms_u.size(); i < times.size(); ++i) {
    const PassTimes& t = times[i];
    group.push_back(t.group);
    graph.push_back(t.graph);
    refine.push_back(t.refine);
    hom.push_back(t.homogeneity);
    sim.push_back(t.simulate);
    prob.push_back(t.problems);
    types.push_back(static_cast<double>(t.types_added));
    pass_ms_t.push_back(t.total);
  }
  if (refine.empty()) die("batch: no traced pass completed");
  rep.set("group.build_ms", median(group), "ms");
  rep.set("graph.build_ms", median(graph), "ms");
  rep.set("core.refine.full_ms", median(refine), "ms");
  rep.set("order.homogeneity.ms", median(hom), "ms");
  rep.set("core.simulate.ms", median(sim), "ms");
  rep.set("problems.ms", median(prob), "ms");
  rep.set("core.interner.types_added", median(types), "count");
  rep.set("core.refine.scaling_4t", median(refine_1t) / median(refine), "x");
  rep.note("core.refine.scaling_4t = refine at 1 thread " + fmt(median(refine_1t)) +
           " ms / at 4 threads " + fmt(median(refine)) + " ms");
  layer_engine(rep, et_set ? et : e0, e1);
  // The interner figure is the pass's fresh interner, not the global one.
  rep.set("core.interner.types_added", median(types), "count");
  overhead_layer(rep, pass_ms_u, pass_ms_t);
  write_trace(a, trace, rep);
  return rep;
}

// --- main ----------------------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "serve_cold|serve_hot_sharded|serve_mutate|batch_pipeline "
               "--seed N --seconds S --trace 0|1 --cli PATH [--report-dir DIR]\n",
               why);
  std::exit(2);
}

void print_json(const Report& rep, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              rep.correct ? "true" : "false", rep.attempted, rep.failed);
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    const auto it = rep.metrics.find(m.name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second.value;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name, v, m.unit);
    first = false;
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const std::string v = argv[++i];
    try {
      if (f == "--workload") a.workload = v;
      else if (f == "--seed") a.seed = std::stoull(v);
      else if (f == "--seconds") a.seconds = std::stod(v);
      else if (f == "--trace") a.trace = v == "1";
      else if (f == "--cli") a.cli = v;
      else if (f == "--report-dir") a.report_dir = v;
      else usage(("unknown flag " + f).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + f).c_str());
    }
  }
  if (a.workload.empty() || a.seconds <= 0) usage("missing --workload/--seconds");
  if (a.workload != "batch_pipeline" && a.cli.empty()) usage("missing --cli");
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  // Watchdog: a run must end well inside its 180 s budget.
  std::signal(SIGALRM, on_signal);
  ::alarm(170);
  Report rep;
  try {
    if (a.workload == "serve_cold") rep = run_serve_cold(a);
    else if (a.workload == "serve_hot_sharded") rep = run_serve_hot(a);
    else if (a.workload == "serve_mutate") rep = run_serve_mutate(a);
    else if (a.workload == "batch_pipeline") rep = run_batch(a);
    else usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& e) {
    die(std::string("error: ") + e.what());
  }
  rep.correct = rep.failed == 0;
  for (const std::string& line : rep.info) std::printf("# %s\n", line.c_str());
  print_json(rep, a.trace);
  std::fflush(stdout);
  std::_Exit(0);  // every daemon is stopped; skip joining detached threads
}
