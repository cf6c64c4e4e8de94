#pragma once
// The benchmark's measurement maths, kept free of any lapx dependency so
// tests/harness_test.cpp can pin it down exactly:
//
//   * the percentile rule -- a nearest-rank percentile is reportable only
//     when at least kMinBeyond samples lie beyond it;
//   * spans and self time -- a span's self time is its duration minus the
//     part of its interval covered by its children;
//   * open-loop accounting -- each request is timed from the moment it was
//     due, so a stall is charged to every request queued behind it, and
//     the generator's own lateness is reported next to the latencies.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile counts only with at least this many samples beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q (0 < q <= 1) among n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) -
                                                 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

struct Percentile {
  double q = 0.0;          ///< the quantile asked for
  double value = 0.0;      ///< nearest-rank value (0 when n == 0)
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples beyond the value
  bool reportable = false; ///< beyond >= kMinBeyond
};

inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.n = samples.size();
  if (samples.empty()) return p;
  const std::size_t rank = nearest_rank(p.n, q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = p.n - rank;
  p.reportable = p.beyond >= kMinBeyond;
  return p;
}

/// The highest of `candidates` (tried in the order given, so list them
/// from high to low) that is reportable; falls back to the last candidate,
/// flagged unreportable, when none is.
inline Percentile tail_percentile(const std::vector<double>& samples,
                                  const std::vector<double>& candidates) {
  Percentile last;
  for (const double q : candidates) {
    last = percentile(samples, q);
    if (last.reportable) return last;
  }
  return last;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5).value;
}

// --- spans ---------------------------------------------------------------

/// One timed interval.  Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the same Trace, or -1.
struct Span {
  std::string name;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  double start = 0.0;  ///< seconds on the trace's clock
  double end = 0.0;
};

/// In-memory span store.  Disabled traces record nothing (and return -1
/// from begin), so untraced runs pay one branch per call site.
class Trace {
 public:
  explicit Trace(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::int64_t add(Span s) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

// --- open-loop accounting --------------------------------------------------

/// Fixed-rate arrivals: request i is due i / rate seconds after the
/// start; returns the due times of every request before `seconds`.
inline std::vector<double> fixed_schedule(double rate, double seconds) {
  std::vector<double> due;
  for (std::size_t i = 0; static_cast<double>(i) / rate < seconds; ++i)
    due.push_back(static_cast<double>(i) / rate);
  return due;
}

/// One open-loop request, times in seconds from the schedule's start.
/// `done` < 0 means no reply arrived (timeout or transport failure).
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
  bool ok = false;  ///< reply arrived, was ok and matched the reference
};

struct OpenLoopSummary {
  std::vector<double> latency_ms;   ///< done - due, replies only
  std::vector<double> lateness_ms;  ///< sent - due, every request
  std::size_t attempted = 0;
  std::size_t failed = 0;           ///< no reply, or not ok
  std::size_t within_limit = 0;     ///< ok and latency <= limit
};

/// Latency is charged from the due time, never the send time; a failure
/// counts as missing the latency limit.
inline OpenLoopSummary summarize_open_loop(
    const std::vector<OpenLoopSample>& samples, double limit_ms) {
  OpenLoopSummary s;
  s.attempted = samples.size();
  for (const OpenLoopSample& x : samples) {
    s.lateness_ms.push_back(std::max(0.0, x.sent - x.due) * 1e3);
    if (x.done < 0 || !x.ok) {
      ++s.failed;
      if (x.done >= 0) s.latency_ms.push_back((x.done - x.due) * 1e3);
      continue;
    }
    const double lat = (x.done - x.due) * 1e3;
    s.latency_ms.push_back(lat);
    if (lat <= limit_ms) ++s.within_limit;
  }
  return s;
}

}  // namespace perfbench
