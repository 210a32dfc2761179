#include "spans.hpp"

#include <algorithm>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_open;

std::uint32_t thread_number() {
  static std::mutex mutex;
  static std::unordered_map<std::thread::id, std::uint32_t> numbers;
  std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = numbers.try_emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(numbers.size() + 1));
  return it->second;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  name_ = std::move(name);
  id_ = recorder.next_id();
  parent_ = current();
  t_open.push_back(id_);
  start_ = Clock::now();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  t_open.pop_back();
  Span span{std::move(name_), start_, end, id_, parent_, 0, thread_number()};
  std::lock_guard<std::mutex> lock(recorder_->mutex_);
  recorder_->spans_.push_back(std::move(span));
}

std::uint64_t SpanRecorder::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++last_id_;
}

std::uint64_t SpanRecorder::current() {
  return t_open.empty() ? 0 : t_open.back();
}

std::uint64_t SpanRecorder::add(std::string name, Clock::time_point start,
                                Clock::time_point end, std::uint64_t parent,
                                std::uint64_t request_id) {
  if (!enabled_) return 0;
  if (parent == 0) parent = current();
  const std::uint32_t thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = ++last_id_;
  spans_.push_back(
      Span{std::move(name), start, end, id, parent, request_id, thread});
  return id;
}

std::string SpanRecorder::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::ostringstream out;
  out.precision(15);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const Span& s : spans_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\": \"" << json_escape(s.name)
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << us(s.start) << ", \"dur\": " << us(s.end) - us(s.start)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent;
    if (s.request_id != 0) out << ", \"request_id\": " << s.request_id;
    out << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    Clock::duration child_time{0};
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        child_time += hi - from;
        reach = hi;
      }
    }
    self[s.name] +=
        std::chrono::duration<double>((s.end - s.start) - child_time).count();
  }
  return self;
}

}  // namespace perfbench
