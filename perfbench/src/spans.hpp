// In-memory span recorder for the benchmark's traced run.
//
// The benchmark opens a span around every call it makes into a layer's public
// API (pipeline stages, Monte-Carlo, batched forward, serve requests, the
// layer probes). A span records its name, start, end, the span that caused
// it (the innermost span open on the same thread, or an explicit parent)
// and, for serve traffic, the request id. Spans stay in memory until the
// run ends; chrome_json() renders them as Chrome-trace "X" events that load
// in Perfetto, and self_seconds() gives each name's self time: its span
// duration minus the part of that interval its child spans cover.
//
// A disabled recorder records nothing and costs one branch per scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;      ///< 0 = root
  std::uint64_t request_id = 0;  ///< serve request, 0 otherwise
  std::uint32_t thread = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opens on construction, closes on destruction. While open
  /// it is the parent of spans opened on the same thread.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    SpanRecorder* recorder_ = nullptr;  ///< null when disabled
    std::string name_;
    Clock::time_point start_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
  };

  /// Records a finished span with explicit timing. parent == 0 attaches it
  /// to the innermost open scope of the calling thread. Returns its id.
  std::uint64_t add(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent = 0,
                    std::uint64_t request_id = 0);

  /// Id of the innermost open scope on the calling thread (0 if none).
  static std::uint64_t current();

  /// Chrome-trace JSON ({"traceEvents": [...]}) with timestamps relative
  /// to the earliest span.
  std::string chrome_json() const;

  /// Summed self time per span name, seconds.
  std::map<std::string, double> self_seconds() const;

 private:
  std::uint64_t next_id();

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t last_id_ = 0;
};

}  // namespace perfbench
