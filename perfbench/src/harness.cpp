#include "harness.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "lapx/service/handlers.hpp"
#include "lapx/service/ordering.hpp"
#include "lapx/service/protocol.hpp"
#include "proc.hpp"

namespace perfbench {

namespace svc = lapx::service;

namespace {

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// Sleeps, then spins the last 300 us: a late send delays the previous
// reply on its connection too (the router releases it when this line
// arrives), so sender punctuality shows directly in the latencies.
void sleep_until_s(double t) {
  const double left = t - now_s() - 300e-6;
  if (left > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  while (now_s() < t) {
  }
}

}  // namespace

void Report::set_percentile(const std::string& name, const Percentile& p,
                            const std::string& unit) {
  set(name, p.value, unit);
  char q[32];
  std::snprintf(q, sizeof q, "p%g", p.q * 100.0);
  note(name + " = " + fmt(p.value) + " " + unit + "  [" + q + " of n=" +
       std::to_string(p.n) + ", " + std::to_string(p.beyond) +
       " beyond" + (p.reportable ? "" : "; fewer than 10 beyond") + "]");
}

bool reply_ok(const std::string& reply) {
  const auto k = reply.find("\"ok\":");
  return k != std::string::npos && reply.compare(k + 5, 4, "true") == 0;
}

std::string op_of(const std::string& line) {
  const auto k = line.find("\"op\":\"");
  if (k == std::string::npos) return "";
  const auto e = line.find('"', k + 6);
  return line.substr(k + 6, e - (k + 6));
}

bool reply_matches(const std::string& line, const std::string& got,
                   const std::string& want) {
  if (got.empty() || !reply_ok(got)) return false;
  const std::string op = op_of(line);
  if (op == "stats" || op == "list") return true;
  return got == want;
}

std::vector<std::string> reference_replies(
    const svc::Service::Options& opt, const std::vector<std::string>& setup,
    const std::vector<std::string>& lines) {
  svc::Service ref(opt);
  for (const std::string& l : setup) ref.handle(l);
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& l : lines) out.push_back(ref.handle(l));
  return out;
}

// --- closed loop -------------------------------------------------------------------

std::vector<ConnLog> run_closed(const std::string& socket_path,
                                std::vector<UnitGenerator>& gens,
                                double seconds, double timeout_s,
                                Trace* trace, std::size_t count,
                                const std::function<void()>& on_count) {
  std::vector<ConnLog> logs(gens.size());
  static std::atomic<std::uint64_t> next_request{1};
  std::atomic<std::size_t> completed{0};
  const double end = now_s() + seconds;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < gens.size(); ++c) {
    threads.emplace_back([&, c] {
      ConnLog& log = logs[c];
      auto conn = LineConn::connect(socket_path, 10.0);
      bool in_step = conn.has_value();
      while (in_step && now_s() < end) {
        const double g0 = now_s();
        const std::vector<std::string> unit = gens[c]();
        const double t0 = now_s();
        for (const std::string& line : unit) in_step = in_step && conn->send(line);
        for (const std::string& line : unit) {
          auto reply = in_step ? conn->recv(timeout_s) : std::nullopt;
          const double t1 = now_s();
          in_step = in_step && reply.has_value();
          log.lines.push_back(line);
          log.replies.push_back(reply.value_or(""));
          log.latency_ms.push_back((t1 - t0) * 1e3);
          if (completed.fetch_add(1) + 1 == count && on_count) on_count();
          if (trace != nullptr && trace->enabled()) {
            const std::uint64_t id = next_request.fetch_add(1);
            const auto root = trace->add(Span{"loadgen.request", -1, id, g0, t1});
            trace->add(Span{"service.net.roundtrip", root, id, t0, t1});
          }
        }
        // A missing reply leaves the stream out of step: stop this
        // connection; its unanswered requests count as failed.
      }
    });
  }
  for (auto& t : threads) t.join();
  return logs;
}

// --- open loop -----------------------------------------------------------------------

OpenLog run_open(const std::vector<std::string>& endpoints,
                 const std::vector<std::string>& lines,
                 const std::vector<int>& conn_of,
                 const std::vector<double>& due, double timeout_s,
                 Trace* trace) {
  OpenLog log;
  log.lines = lines;
  log.replies.assign(lines.size(), "");
  log.samples.assign(lines.size(), OpenLoopSample{});
  std::vector<std::vector<std::size_t>> mine(endpoints.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    mine[static_cast<std::size_t>(conn_of[i])].push_back(i);
  std::vector<LineConn> conns;
  for (const std::string& ep : endpoints) {
    auto c = LineConn::connect(ep, 10.0);
    conns.push_back(c ? std::move(*c) : LineConn{});
  }
  const double start = now_s() + 0.05;
  for (std::size_t i = 0; i < lines.size(); ++i)
    log.samples[i].due = due[i];
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {  // sender
      for (const std::size_t i : mine[c]) {
        sleep_until_s(start + log.samples[i].due);
        log.samples[i].sent = now_s() - start;
        if (!conns[c].send(lines[i])) break;
      }
    });
    threads.emplace_back([&, c] {  // receiver
      for (const std::size_t i : mine[c]) {
        // Wait from the request's due time, not from now: a late sender
        // must not stretch the deadline.
        const double wait = start + log.samples[i].due + timeout_s - now_s();
        auto reply = conns[c].recv(std::max(wait, 0.001));
        if (!reply) break;  // the rest of this connection stays unanswered
        log.samples[i].done = now_s() - start;
        log.replies[i] = std::move(*reply);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (trace != nullptr && trace->enabled()) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const OpenLoopSample& s = log.samples[i];
      if (s.done < 0) continue;
      const auto root = trace->add(
          Span{"loadgen.request", -1, i + 1, start + s.due, start + s.done});
      trace->add(Span{"service.net.roundtrip", root, i + 1, start + s.sent,
                      start + s.done});
    }
  }
  return log;
}

std::vector<std::string> pipeline_all(const std::string& socket_path,
                                      const std::vector<std::string>& lines,
                                      double timeout_s) {
  std::vector<std::string> out(lines.size());
  auto conn = LineConn::connect(socket_path, 10.0);
  if (!conn) return out;
  std::thread sender([&] {
    for (const std::string& l : lines)
      if (!conn->send(l)) break;
  });
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto r = conn->recv(timeout_s);
    if (!r) break;
    out[i] = std::move(*r);
  }
  sender.join();
  return out;
}

// --- in-process probe ---------------------------------------------------------------

ProbeResult probe_replay(const svc::Service::Options& opt,
                         const std::vector<std::string>& setup,
                         const std::vector<std::string>& lines,
                         const std::vector<char>& timed,
                         bool dedupe_compute, Trace& trace) {
  ProbeResult res;
  svc::Service timing(opt);  // submit -> sequencer, the oracle replies
  svc::Service direct(opt);  // its store backs direct layer calls
  for (const std::string& l : setup) {
    timing.handle(l);
    direct.handle(l);
  }
  std::set<std::string> computed;  // dedupe key: line without its id
  auto strip_id = [](const std::string& l) {
    const auto c = l.find(',');
    return c == std::string::npos ? l : l.substr(c);
  };
  res.replies.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const bool t = timed[i] != 0;
    const std::uint64_t rid = 1000000 + i;
    const std::string op = op_of(line);
    // 1. The direct calls: handler compute / store mutate / generate.
    double compute = 0.0;
    svc::Request req;
    bool parsed = true;
    try {
      req = svc::parse_request(line);
    } catch (const std::exception&) {
      parsed = false;
    }
    if (parsed && svc::is_query_op(op)) {
      const svc::Json* g = req.body.find("graph");
      auto entry = g != nullptr && g->is_string()
                       ? direct.store().get(g->as_string())
                       : nullptr;
      const bool fresh = !dedupe_compute || computed.insert(strip_id(line)).second;
      if (entry != nullptr && fresh) {
        const double c0 = now_s();
        try {
          svc::handle_query(req, *entry);
        } catch (const std::exception&) {
        }
        const double c1 = now_s();
        compute = (c1 - c0) * 1e3;
        // Deduplicated streams (hot) compute each fingerprint once, so its
        // first occurrence counts whichever phase it falls in.
        if (t || dedupe_compute) res.compute_ms[op].push_back(compute);
        if (t) trace.add(Span{"service.handlers." + op, -1, rid, c0, c1});
      }
    } else if (const svc::Json* name = parsed ? req.body.find("name") : nullptr;
               op == "mutate" && name != nullptr && name->is_string()) {
      const double m0 = now_s();
      try {
        direct.store().mutate(name->as_string(), svc::parse_edge_edits(req));
      } catch (const std::exception&) {
      }
      const double m1 = now_s();
      if (t) {
        res.mutate_ms.push_back((m1 - m0) * 1e3);
        trace.add(Span{"service.session_store.mutate", -1, rid, m0, m1});
      }
    } else if (parsed && op == "generate") {
      const double b0 = now_s();
      try {
        svc::build_generated_graph(req);
        const double b1 = now_s();
        if (t) {
          res.build_ms.push_back((b1 - b0) * 1e3);
          trace.add(Span{"graph.build", -1, rid, b0, b1});
        }
      } catch (const std::exception&) {
      }
      direct.handle(line);
    } else {
      direct.handle(line);
    }
    // 2. The service path: submit, then the ordering layer drains it.
    auto pending = std::make_shared<svc::Service::Pending>();
    const double s0 = now_s();
    *pending = timing.submit(line);
    const double s1 = now_s();
    svc::ResponseSequencer seq;
    seq.enqueue_deferred([pending] { return pending->ready(); },
                         [pending] { return pending->get(); });
    while (!pending->ready())
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    const double s2 = now_s();
    std::string out;
    seq.drain_ready(out);
    const double s3 = now_s();
    if (!out.empty() && out.back() == '\n') out.pop_back();
    res.replies.push_back(std::move(out));
    if (!t) continue;
    const auto root = trace.add(Span{"inproc.request", -1, rid, s0, s3});
    trace.add(Span{"service.protocol.submit", root, rid, s0, s1});
    trace.add(Span{"service.scheduler.wait", root, rid, s1, s2});
    trace.add(Span{"service.ordering.hold", root, rid, s2, s3});
    res.inproc_ms.push_back((s3 - s0) * 1e3);
    res.submit_us.push_back((s1 - s0) * 1e6);
    res.hold_ms.push_back((s3 - s2) * 1e3);
    if (svc::is_query_op(op) && (s2 - s1) * 1e3 > 0.05)  // a scheduled miss
      res.wait_ms.push_back(std::max(0.0, (s2 - s1) * 1e3 - compute));
  }
  return res;
}

std::string host_record(const Args& a, const std::string& daemon_flags,
                        double offered_rate) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "host: nproc=%ld hardware_concurrency=%u compiler=\"%s\" build=%s | "
      "config: workload=%s seed=%llu seconds=%g trace=%d daemon=\"%s\" "
      "offered_rate=%g",
      ::sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
      __VERSION__, PERFBENCH_BUILD_TYPE, a.workload.c_str(),
      static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
      daemon_flags.c_str(), offered_rate);
  return buf;
}

}  // namespace perfbench
