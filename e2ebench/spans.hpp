// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded only around the benchmark's own calls into the
// library's layers (topology generation, route, certificate, check, eBB,
// service requests); the library itself is not instrumented here. Each
// thread owns one SpanLog, so recording takes no lock. A disabled log
// costs one branch per span. Records stay in memory and are written out
// as Chrome trace_event JSON when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class SpanLog {
 public:
  struct Rec {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t child_ns = 0;  // time covered by direct children
    std::uint32_t depth = 0;
  };

  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void open(const char* name) {
    open_.push_back(recs_.size());
    recs_.push_back(Rec{name, now_ns(), 0, 0,
                        static_cast<std::uint32_t>(open_.size() - 1)});
  }

  void close() {
    Rec& r = recs_[open_.back()];
    open_.pop_back();
    r.end_ns = now_ns();
    if (!open_.empty()) recs_[open_.back()].child_ns += r.end_ns - r.start_ns;
  }

  const std::vector<Rec>& recs() const { return recs_; }

  /// Sum of top-level span durations inside [from_ns, to_ns].
  std::uint64_t top_level_ns(std::uint64_t from_ns, std::uint64_t to_ns) const {
    std::uint64_t total = 0;
    for (const Rec& r : recs_) {
      if (r.depth == 0 && r.start_ns >= from_ns && r.end_ns <= to_ns) {
        total += r.end_ns - r.start_ns;
      }
    }
    return total;
  }

  /// Appends this log's spans as Chrome trace "X" events.
  void write_events(std::ofstream& out, bool& first) const {
    for (const Rec& r : recs_) {
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << r.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid_
          << ",\"ts\":" << static_cast<double>(r.start_ns) * 1e-3
          << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
          << "}";
      first = false;
    }
  }

 private:
  bool on_ = false;
  std::uint32_t tid_ = 0;
  std::vector<Rec> recs_;
  std::vector<std::size_t> open_;
};

/// RAII span; a no-op when the log is off at construction.
class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log.on() ? &log : nullptr) {
    if (log_ != nullptr) log_->open(name);
  }
  ~Span() {
    if (log_ != nullptr) log_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace e2e
