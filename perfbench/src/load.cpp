#include "load.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "common/error.hpp"

namespace perfbench {

namespace {

using odonn::serve::PredictResult;

/// Every kSpanEvery-th request gets request/queue/batch/compute spans in a
/// traced run: enough to see the attribution, few enough to keep the span
/// file loadable at thousands of requests per second.
constexpr std::size_t kSpanEvery = 8;

struct InFlight {
  Clock::time_point scheduled;
  Clock::time_point sent;
  std::future<PredictResult> future;
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

void record_request_spans(SpanRecorder& spans, std::uint64_t parent,
                          Clock::time_point scheduled, Clock::time_point sent,
                          const RequestSample& sample) {
  const auto& b = sample.breakdown;
  const std::uint64_t request = spans.add(
      "serve.request", scheduled, scheduled + to_duration(sample.latency_s),
      parent, b.request_id);
  Clock::time_point at = sent;
  for (const auto& [name, seconds] :
       {std::pair<const char*, double>{"serve.queue_wait", b.queue_wait_s},
        {"serve.batch_wait", b.batch_wait_s},
        {"serve.compute", b.compute_s}}) {
    const Clock::time_point end = at + to_duration(seconds);
    spans.add(name, at, end, request, b.request_id);
    at = end;
  }
}

/// Resolves one in-flight request into `result`.
void collect(InFlight& flight, LoadResult& result, SpanRecorder& spans,
             std::uint64_t parent) {
  try {
    const PredictResult response = flight.future.get();
    RequestSample sample;
    sample.breakdown = response.latency;
    sample.lateness_s = seconds_between(flight.scheduled, flight.sent);
    sample.latency_s = sample.lateness_s + response.latency.total_s;
    if (spans.enabled() && result.samples.size() % kSpanEvery == 0) {
      record_request_spans(spans, parent, flight.scheduled, flight.sent,
                           sample);
    }
    result.samples.push_back(sample);
  } catch (const std::exception&) {
    ++result.errors;
  }
}

/// Submits one request; a rejection is counted, never retried.
bool send(odonn::serve::ServeCluster& cluster, const std::string& model,
          const odonn::optics::Field& input, Clock::time_point scheduled,
          std::deque<InFlight>& in_flight, LoadResult& result) {
  ++result.attempted;
  const Clock::time_point sent = Clock::now();
  try {
    in_flight.push_back({scheduled, sent, cluster.submit(model, input)});
    return true;
  } catch (const odonn::OverloadError&) {
    ++result.rejected;
    return false;
  }
}

}  // namespace

LoadResult run_closed_loop(odonn::serve::ServeCluster& cluster,
                           const std::string& model,
                           const std::vector<odonn::optics::Field>& inputs,
                           std::size_t outstanding, double duration_s,
                           SpanRecorder& spans) {
  LoadResult result;
  const std::uint64_t parent = SpanRecorder::current();
  std::deque<InFlight> in_flight;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + to_duration(duration_s);
  for (std::size_t i = 0; i < outstanding; ++i) {
    send(cluster, model, inputs[next++ % inputs.size()], Clock::now(),
         in_flight, result);
  }
  Clock::time_point last = start;
  while (!in_flight.empty()) {
    InFlight flight = std::move(in_flight.front());
    in_flight.pop_front();
    collect(flight, result, spans, parent);
    last = Clock::now();
    if (last < deadline) {
      send(cluster, model, inputs[next++ % inputs.size()], last, in_flight,
           result);
    }
  }
  result.seconds = seconds_between(start, last);
  return result;
}

LoadResult run_open_loop(odonn::serve::ServeCluster& cluster,
                         const std::string& model,
                         const std::vector<odonn::optics::Field>& inputs,
                         double rate_rps, double duration_s,
                         SpanRecorder& spans) {
  LoadResult result;
  const std::uint64_t parent = SpanRecorder::current();
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(rate_rps * duration_s)));
  std::deque<InFlight> in_flight;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < count; ++k) {
    const Clock::time_point scheduled =
        start + to_duration(static_cast<double>(k) / rate_rps);
    std::this_thread::sleep_until(scheduled);
    send(cluster, model, inputs[k % inputs.size()], scheduled, in_flight,
         result);
  }
  Clock::time_point last = start;
  while (!in_flight.empty()) {
    collect(in_flight.front(), result, spans, parent);
    in_flight.pop_front();
    last = Clock::now();
  }
  result.seconds = seconds_between(start, last);
  return result;
}

}  // namespace perfbench
