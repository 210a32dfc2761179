// Serve load generation for the benchmark: one generator thread (the
// caller) drives a ServeCluster either closed-loop, with a fixed window of
// outstanding requests, or open-loop, at a fixed absolute rate.
//
// Open-loop latency is timed from each request's SCHEDULED send time:
// lateness (actual send - scheduled send) plus the engine's own
// submit-to-ready total, so a generator or submit-path stall is charged to
// every request it delays. The generator's worst lateness is reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/cluster.hpp"
#include "spans.hpp"

namespace perfbench {

/// One completed request, as the generator saw it.
struct RequestSample {
  double latency_s = 0.0;   ///< scheduled (open) or actual (closed) send -> ready
  double lateness_s = 0.0;  ///< actual send - scheduled send (open loop)
  odonn::serve::LatencyBreakdown breakdown;
};

struct LoadResult {
  std::size_t attempted = 0;  ///< submit() calls
  std::size_t rejected = 0;   ///< OverloadError at admission
  std::size_t errors = 0;     ///< futures resolved to an exception
  double seconds = 0.0;       ///< first send -> last completion
  std::vector<RequestSample> samples;

  double completed_per_s() const {
    return seconds > 0.0 ? static_cast<double>(samples.size()) / seconds : 0.0;
  }
};

/// Closed loop: keeps `outstanding` requests in flight, replacing each
/// completed one (oldest first) until `duration_s` has passed, then drains.
LoadResult run_closed_loop(odonn::serve::ServeCluster& cluster,
                           const std::string& model,
                           const std::vector<odonn::optics::Field>& inputs,
                           std::size_t outstanding, double duration_s,
                           SpanRecorder& spans);

/// Open loop: sends request k at start + k / rate_rps for `duration_s`,
/// whether or not earlier requests completed, then drains.
LoadResult run_open_loop(odonn::serve::ServeCluster& cluster,
                         const std::string& model,
                         const std::vector<odonn::optics::Field>& inputs,
                         double rate_rps, double duration_s,
                         SpanRecorder& spans);

}  // namespace perfbench
