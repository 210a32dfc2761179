// perfbench — one benchmark run of one workload.
//
// Every workload drives the whole system at one geometry; the workloads
// differ in grid, sizes and serving rates (perfbench/workloads.json), and
// so in which layer dominates. A run:
//   1. sets the workload up kSetupReps times (dataset synthesis, model
//      build, serve cluster and warm-up) and keeps the last set-up;
//   2. repeats rounds until `seconds` have passed. A round runs the recipe
//      through the pipeline, a common-random-numbers Monte-Carlo (MC)
//      evaluation of the trained and smoothed models, batch inference over
//      the test set, and serve traffic (closed loop, then open loop at the
//      two fixed rates);
//   3. checks the outputs and writes one JSON record (metrics, checks,
//      digests, provenance) to `record=`.
// End-to-end metrics are medians over rounds, the first (warm-up) round
// left out. With trace=1, rounds alternate
// between traced (spans and obs detail on) and untraced, the layer probes
// run after the window, the per-layer metrics go into the record and the
// spans are written as Chrome-trace JSON to `trace_file=`.
//
//   perfbench workload=recipe_g64 seed=1 seconds=30 trace=0 record=r.json
//             grid=64 samples=400 recipe=ours-d ... (see workloads.json)
//
// Exit codes: 0 all checks passed, 1 a correctness check failed (the record
// is still written), 2 refused to run (bad arguments, or a build without
// NDEBUG, whose numbers would not be comparable).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "donn/model.hpp"
#include "fab/montecarlo.hpp"
#include "fab/spec.hpp"
#include "fft/fft_plan.hpp"
#include "load.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "optics/encode.hpp"
#include "pipeline/parser.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stages.hpp"
#include "probes.hpp"
#include "serve/batched_forward.hpp"
#include "serve/cluster.hpp"
#include "serve/registry.hpp"
#include "spans.hpp"
#include "tensor/stats.hpp"

namespace pb = perfbench;
namespace pl = odonn::pipeline;
using odonn::Config;
using pb::Clock;

namespace {

constexpr const char* kServedModel = "served";
/// Served requests checked against single-sample detector sums.
constexpr std::size_t kCheckedRequests = 16;
constexpr std::size_t kServeInputs = 128;
constexpr std::size_t kHttpScrapes = 20;
/// Serving configuration shared by every workload.
constexpr std::size_t kReplicas = 2;
constexpr std::size_t kMaxBatch = 8;
/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetupReps = 7;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return odonn::percentile_nearest_rank(std::move(values), 0.5);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  return odonn::percentile_nearest_rank(std::move(values), q);
}

std::size_t size_arg(const Config& cfg, const std::string& key, long dflt) {
  const long v = cfg.get_int(key, dflt);
  if (v < 0) throw odonn::ConfigError(key + " must be >= 0");
  return static_cast<std::size_t>(v);
}

std::uint64_t phases_digest(const std::vector<odonn::MatrixD>& phases) {
  std::uint64_t h = odonn::kFnv1aBasis;
  for (const auto& m : phases) {
    for (const double v : m) h = odonn::fnv1a_mix(h, v);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out + "\"";
}

std::string json_number(double v) {
  return std::isfinite(v) ? odonn::obs::format_double(v) : "null";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- parameters

struct Params {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string record;
  std::string trace_file;
  std::size_t mc_realizations = 8;
  std::size_t mc_eval_samples = 0;  ///< 0 = the whole test set
  std::size_t mc_variants = 2;      ///< 2 = trained and smoothed (CRN), 1 = trained
  std::size_t infer_passes = 1;
  std::size_t serve_outstanding = 32;
  double serve_low_rps = 0.0;
  double serve_high_rps = 0.0;
  double serve_leg_s = 1.0;
  double accuracy_floor = 0.0;
  std::size_t probe_calls = 16;
  Config pipeline;  ///< the pipeline / dataset keys, passed through
};

Params parse_params(const Config& cfg) {
  std::vector<std::string> keys = pl::config_keys();
  const std::vector<std::string> own = {
      "workload",        "seconds",          "trace",
      "record",          "trace_file",       "mc_realizations",
      "infer_passes",    "serve_outstanding", "serve_low_rps",
      "serve_high_rps",  "serve_leg_s",      "accuracy_floor",
      "probe_calls",     "dataset",          "samples",
      "mc_eval_samples", "mc_variants"};
  keys.insert(keys.end(), own.begin(), own.end());
  cfg.strict(keys);
  Params p;
  p.workload = cfg.get_string("workload", "");
  p.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  p.seconds = cfg.get_double("seconds", p.seconds);
  p.trace = cfg.get_bool("trace", false);
  p.record = cfg.get_string("record", "");
  p.trace_file = cfg.get_string("trace_file", "");
  p.mc_realizations = std::max<std::size_t>(1, size_arg(cfg, "mc_realizations", 8));
  p.mc_eval_samples = size_arg(cfg, "mc_eval_samples", 0);
  p.mc_variants = std::clamp<std::size_t>(size_arg(cfg, "mc_variants", 2), 1, 2);
  p.infer_passes = std::max<std::size_t>(1, size_arg(cfg, "infer_passes", 1));
  p.serve_outstanding =
      std::max<std::size_t>(1, size_arg(cfg, "serve_outstanding", 32));
  p.serve_low_rps = cfg.get_double("serve_low_rps", 0.0);
  p.serve_high_rps = cfg.get_double("serve_high_rps", 0.0);
  p.serve_leg_s = cfg.get_double("serve_leg_s", p.serve_leg_s);
  p.accuracy_floor = cfg.get_double("accuracy_floor", 0.0);
  p.probe_calls = std::max<std::size_t>(1, size_arg(cfg, "probe_calls", 16));
  if (p.workload.empty() || p.record.empty() || p.seconds <= 0.0 ||
      p.serve_low_rps <= 0.0 || p.serve_high_rps <= 0.0 ||
      p.serve_leg_s <= 0.0) {
    throw odonn::ConfigError(
        "perfbench: workload=, record=, seconds>0, serve_low_rps>0, "
        "serve_high_rps>0 and serve_leg_s>0 are required");
  }
  p.pipeline = cfg;
  return p;
}

// ------------------------------------------------------------------ setup

/// Everything a round needs, built once per set-up. Heap-allocated and
/// never moved: the MC evaluator keeps a reference to the test set.
struct Workbench {
  odonn::data::Dataset train;
  odonn::data::Dataset test;
  odonn::train::RecipeOptions recipe;
  pl::PipelineSpec spec;
  std::vector<odonn::optics::Field> test_fields;
  std::vector<odonn::optics::Field> serve_inputs;
  std::shared_ptr<odonn::serve::ModelRegistry> registry;
  std::unique_ptr<odonn::serve::ServeCluster> cluster;
  odonn::data::Dataset mc_eval;
  odonn::fab::PerturbationStack stack;
  std::unique_ptr<odonn::fab::MonteCarloEvaluator> mc;
};

std::unique_ptr<Workbench> set_up(const Params& p) {
  auto bench = std::make_unique<Workbench>();
  std::tie(bench->train, bench->test) =
      pl::load_or_synthesize(pl::dataset_options_from_config(p.pipeline));
  ODONN_CHECK(!bench->train.empty() && !bench->test.empty(),
              "perfbench: empty dataset");
  bench->recipe = pl::options_from_config(p.pipeline);
  bench->spec = pl::spec_from_config(p.pipeline);
  const odonn::optics::GridSpec& grid = bench->recipe.model.grid;
  for (std::size_t i = 0; i < bench->test.size(); ++i) {
    bench->test_fields.push_back(
        odonn::optics::encode_image(bench->test.image(i), grid));
  }
  for (std::size_t i = 0; i < std::min(kServeInputs, bench->train.size()); ++i) {
    bench->serve_inputs.push_back(
        odonn::optics::encode_image(bench->train.image(i), grid));
  }

  // The served model: a fixed random-phase stack at the workload geometry,
  // so serving cost and outputs do not depend on how far a recipe trained.
  odonn::donn::DonnConfig served = bench->recipe.model;
  served.init = odonn::donn::PhaseInit::Uniform;
  odonn::Rng rng(p.seed);
  bench->registry = std::make_shared<odonn::serve::ModelRegistry>();
  bench->registry->add(kServedModel, odonn::donn::DonnModel(served, rng));
  odonn::serve::ClusterOptions options;
  options.replicas = kReplicas;
  options.continuous = true;
  options.engine.max_batch = kMaxBatch;
  options.engine.inner_threads = 1;
  bench->cluster =
      std::make_unique<odonn::serve::ServeCluster>(bench->registry, options);
  std::vector<std::future<odonn::serve::PredictResult>> warm;
  for (std::size_t i = 0; i < p.serve_outstanding; ++i) {
    warm.push_back(bench->cluster->submit(
        kServedModel, bench->serve_inputs[i % bench->serve_inputs.size()]));
  }
  for (auto& f : warm) f.get();

  const std::string perturb = p.pipeline.get_string("perturb", "");
  bench->stack = odonn::fab::parse_perturbation_stack(
      perturb.empty() ? odonn::fab::kDefaultPerturbationSpec : perturb);
  odonn::fab::MonteCarloOptions mc;
  mc.realizations = p.mc_realizations;
  mc.seed = p.seed;
  mc.crosstalk = bench->recipe.crosstalk;
  bench->mc_eval =
      p.mc_eval_samples == 0
          ? bench->test
          : bench->test.subset(0, std::min(p.mc_eval_samples, bench->test.size()));
  bench->mc =
      std::make_unique<odonn::fab::MonteCarloEvaluator>(bench->mc_eval, mc);
  return bench;
}

// ----------------------------------------------------------------- rounds

struct Round {
  bool traced = false;
  bool warmup = false;  ///< excluded from the metrics
  double seconds = 0.0;
  double recipe_s = 0.0;
  std::map<std::string, double> stage_s;
  double train_samples = 0.0;     ///< dense-training samples of this round
  double trained_samples = 0.0;   ///< all training epochs of this round
  double mc_s = 0.0;
  double mc_realizations = 0.0;
  std::vector<double> infer_rates;  ///< samples per second, one per pass
  double infer_samples = 0.0;
  pb::LoadResult closed;
  pb::LoadResult low;
  pb::LoadResult high;
  double accuracy = 0.0;
  double roughness_before = 0.0;
  double roughness_after = 0.0;
  std::uint64_t phase_digest = 0;
  std::uint64_t smoothed_digest = 0;
  std::vector<std::uint64_t> mc_digests;
  std::uint64_t parallel_tasks = 0;

  /// Every serve leg of the round.
  std::vector<const pb::LoadResult*> serve_legs() const {
    return {&closed, &low, &high};
  }
};

bool has_stage(const pl::PipelineSpec& spec, pl::StageKind kind) {
  return std::find(spec.stages.begin(), spec.stages.end(), kind) !=
         spec.stages.end();
}

std::uint64_t parallel_task_count() {
  return odonn::obs::MetricsRegistry::global().counter("parallel.tasks").value();
}

/// One round. Leaves the round's trained model in `trained` for the probes.
Round run_round(Workbench& bench, const Params& p, pb::SpanRecorder& spans,
                std::optional<odonn::donn::DonnModel>& trained) {
  Round round;
  round.traced = spans.enabled();
  const std::uint64_t tasks_before = parallel_task_count();
  const Clock::time_point round_start = Clock::now();
  pb::SpanRecorder::Scope round_span(spans, "round");

  pl::ArtifactStore store;
  store.set_data(&bench.train, &bench.test);
  {
    pb::SpanRecorder::Scope leg(spans, "leg.recipe");
    pl::Pipeline pipe = pl::build_pipeline(bench.spec, bench.recipe);
    Clock::time_point stage_start;
    pl::PipelineObserver observer;
    observer.on_stage_start = [&](std::size_t, const pl::Stage&) {
      stage_start = Clock::now();
    };
    observer.on_stage_end = [&](const pl::StageTiming& timing) {
      spans.add("pipeline." + timing.name, stage_start, Clock::now());
      round.stage_s[timing.name] += timing.seconds;
    };
    pipe.set_observer(observer);
    const Clock::time_point start = Clock::now();
    pipe.run(store);
    round.recipe_s = seconds_since(start);
  }
  const double n_train = static_cast<double>(bench.train.size());
  round.train_samples = static_cast<double>(bench.recipe.epochs_dense) * n_train;
  round.trained_samples = round.train_samples;
  if (has_stage(bench.spec, pl::StageKind::Sparsify)) {
    round.trained_samples += static_cast<double>(bench.recipe.epochs_sparse +
                                                 bench.recipe.epochs_finetune) *
                             n_train;
  }
  round.accuracy = store.metric(pl::artifacts::kAccuracy);
  round.roughness_before = store.metric(pl::artifacts::kRoughnessBefore);
  round.roughness_after = store.metric(pl::artifacts::kRoughnessAfter);
  const odonn::donn::DonnModel& main_model =
      store.model(pl::artifacts::kMainModel);
  const odonn::donn::DonnModel& smoothed =
      store.model(pl::artifacts::kSmoothedModel);
  round.phase_digest = phases_digest(main_model.phases());
  round.smoothed_digest = phases_digest(smoothed.phases());

  {
    pb::SpanRecorder::Scope leg(spans, "leg.mc");
    const Clock::time_point start = Clock::now();
    std::vector<std::pair<std::string, const odonn::donn::DonnModel*>>
        variants = {{"trained", &main_model}, {"smoothed", &smoothed}};
    variants.resize(p.mc_variants);
    const auto reports = bench.mc->compare(variants, bench.stack);
    round.mc_s = seconds_since(start);
    for (const auto& report : reports) {
      round.mc_realizations += static_cast<double>(report.realizations);
      round.mc_digests.push_back(report.digest());
    }
  }

  {
    pb::SpanRecorder::Scope leg(spans, "leg.infer");
    const odonn::serve::BatchedForward forward(
        std::make_shared<const odonn::donn::DonnModel>(main_model));
    for (std::size_t pass = 0; pass < p.infer_passes; ++pass) {
      pb::SpanRecorder::Scope call(spans, "serve.batched_forward.run");
      const Clock::time_point start = Clock::now();
      const auto result = forward.run(bench.test_fields);
      const double samples = static_cast<double>(result.predictions.size());
      round.infer_rates.push_back(samples / seconds_since(start));
      round.infer_samples += samples;
    }
  }

  {
    pb::SpanRecorder::Scope leg(spans, "leg.serve");
    {
      pb::SpanRecorder::Scope phase(spans, "serve.closed_loop");
      round.closed = pb::run_closed_loop(*bench.cluster, kServedModel,
                                         bench.serve_inputs,
                                         p.serve_outstanding, p.serve_leg_s,
                                         spans);
    }
    {
      pb::SpanRecorder::Scope phase(spans, "serve.open_loop.low");
      round.low = pb::run_open_loop(*bench.cluster, kServedModel,
                                    bench.serve_inputs, p.serve_low_rps,
                                    p.serve_leg_s, spans);
    }
    {
      pb::SpanRecorder::Scope phase(spans, "serve.open_loop.high");
      round.high = pb::run_open_loop(*bench.cluster, kServedModel,
                                     bench.serve_inputs, p.serve_high_rps,
                                     p.serve_leg_s, spans);
    }
  }
  trained.emplace(main_model);
  round.seconds = seconds_since(round_start);
  round.parallel_tasks = parallel_task_count() - tasks_before;
  return round;
}

// ------------------------------------------------------------------ record

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Record {
  std::vector<Metric> metrics;
  std::vector<pb::Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool correct() const {
    for (const auto& c : checks) {
      if (!c.ok) return false;
    }
    return true;
  }
};

template <class Fn>
std::vector<double> per_round(const std::vector<Round>& rounds, bool traced,
                              Fn&& fn) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    if (r.traced == traced && !r.warmup) out.push_back(fn(r));
  }
  return out;
}

std::vector<double> latency_of(const pb::LoadResult& leg) {
  std::vector<double> out;
  for (const auto& s : leg.samples) out.push_back(s.latency_s);
  return out;
}

/// Latencies of one open-loop leg, pooled over the counted rounds, seconds.
std::vector<double> latencies(const std::vector<Round>& rounds, bool traced,
                              pb::LoadResult Round::*leg) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    if (r.traced != traced || r.warmup) continue;
    for (const auto& s : (r.*leg).samples) out.push_back(s.latency_s);
  }
  return out;
}

void end_to_end_metrics(const std::vector<Round>& rounds,
                        const std::vector<double>& setups, Record& rec) {
  const auto per_round_median = [&](auto fn) {
    return median(per_round(rounds, false, fn));
  };
  rec.metric("setup_s", median(setups), "s");
  rec.metric("recipe_s",
             per_round_median([](const Round& r) { return r.recipe_s; }), "s");
  rec.metric("train_samples_per_s", per_round_median([](const Round& r) {
               return r.train_samples / r.stage_s.at("train");
             }),
             "1/s");
  rec.metric("mc_realizations_per_s", per_round_median([](const Round& r) {
               return r.mc_realizations / r.mc_s;
             }),
             "1/s");
  // Inference passes and closed-loop requests pool over the counted rounds.
  std::vector<double> infer_rates;
  double served = 0.0;
  double serving_s = 0.0;
  for (const Round& r : rounds) {
    if (r.traced || r.warmup) continue;
    infer_rates.insert(infer_rates.end(), r.infer_rates.begin(),
                       r.infer_rates.end());
    served += static_cast<double>(r.closed.samples.size());
    serving_s += r.closed.seconds;
  }
  rec.metric("infer_samples_per_s", median(infer_rates), "1/s");
  rec.metric("serve_rps", serving_s > 0.0 ? served / serving_s : 0.0, "1/s");
  rec.metric("serve_p50_ms.low",
             1e3 * median(latencies(rounds, false, &Round::low)), "ms");
  rec.metric("serve_p50_ms.high",
             1e3 * median(latencies(rounds, false, &Round::high)), "ms");
}

/// Attribution component of every traced serve request, in ms.
std::vector<double> attribution_ms(const std::vector<Round>& rounds,
                                   double odonn::serve::LatencyBreakdown::*field) {
  std::vector<double> out;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    for (const pb::LoadResult* leg : r.serve_legs()) {
      for (const auto& s : leg->samples) out.push_back(1e3 * (s.breakdown.*field));
    }
  }
  return out;
}

void per_layer_metrics(const std::vector<Round>& rounds, Workbench& bench,
                       const Params& p, const odonn::donn::DonnModel& trained,
                       pb::SpanRecorder& spans, Record& rec) {
  using odonn::serve::LatencyBreakdown;
  pb::ProbeInputs in;
  in.model = &trained;
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    in.fields.push_back(bench.serve_inputs[i % bench.serve_inputs.size()]);
    in.labels.push_back(bench.train.label(i % bench.train.size()));
  }
  in.stack = &bench.stack;
  in.calls = p.probe_calls;
  in.max_batch = kMaxBatch;
  in.seed = p.seed;
  const auto probe = [&](const char* name, const char* unit,
                         const pb::ProbeValue& v) {
    rec.metric(name, v.value, unit);
    rec.checks.push_back(v.check);
  };
  {
    pb::SpanRecorder::Scope leg(spans, "probes");
    probe("fft.plan_exec_us", "us", pb::probe_plan_execute_us(in, spans));
    probe("fft.transform_2d_us", "us",
          pb::probe_transform_2d_us(in, false, spans));
    probe("fft.transform_2d_1t_us", "us",
          pb::probe_transform_2d_us(in, true, spans));
    probe("optics.propagate_us", "us", pb::probe_propagate_us(in, spans));
    probe("donn.modulation_us", "us", pb::probe_modulation_us(in, spans));
    probe("donn.forward_us", "us", pb::probe_forward_us(in, spans));
    probe("donn.fwd_bwd_us", "us", pb::probe_forward_backward_us(in, spans));
    probe("roughness.grad_us", "us", pb::probe_roughness_grad_us(in, spans));
    probe("smooth2pi.step_us", "us", pb::probe_smooth2pi_step_us(in, spans));
    probe("fab.realize_us", "us", pb::probe_realize_us(in, spans));
    const odonn::serve::BatchedForward served(
        bench.registry->get(kServedModel));
    probe("serve.kernel_us_per_sample", "us",
          pb::probe_kernel_us_per_sample(in, served, spans));
    rec.metric("serve.fused", served.fused() ? 1.0 : 0.0, "flag");
  }
  const odonn::fft::PlanCacheStats cache = odonn::fft::plan_cache_stats();
  rec.metric("fft.plan_cache.hits", static_cast<double>(cache.hits), "count");
  rec.metric("fft.plan_cache.misses", static_cast<double>(cache.misses),
             "count");

  for (const char* stage : {"train", "sparsify", "smooth", "eval"}) {
    rec.metric(std::string("pipeline.") + stage + "_s",
               median(per_round(rounds, true,
                                [&](const Round& r) {
                                  const auto it = r.stage_s.find(stage);
                                  return it == r.stage_s.end() ? 0.0
                                                               : it->second;
                                })),
               "s");
  }
  double trained_samples = 0.0;
  double realizations = 0.0;
  for (const Round& r : rounds) {
    trained_samples += r.trained_samples;
    realizations += r.mc_realizations;
  }
  rec.metric("train.samples", trained_samples, "count");
  rec.metric("fab.realizations", realizations, "count");

  rec.metric("serve.queue_wait_ms.p50",
             quantile(attribution_ms(rounds, &LatencyBreakdown::queue_wait_s), 0.5),
             "ms");
  rec.metric("serve.queue_wait_ms.p99",
             quantile(attribution_ms(rounds, &LatencyBreakdown::queue_wait_s), 0.99),
             "ms");
  rec.metric("serve.batch_wait_ms.p50",
             quantile(attribution_ms(rounds, &LatencyBreakdown::batch_wait_s), 0.5),
             "ms");
  rec.metric("serve.compute_ms.p50",
             quantile(attribution_ms(rounds, &LatencyBreakdown::compute_s), 0.5),
             "ms");
  rec.metric("serve.compute_ms.p99",
             quantile(attribution_ms(rounds, &LatencyBreakdown::compute_s), 0.99),
             "ms");
  const auto snapshot = bench.cluster->stats();
  rec.metric("serve.batch_size.mean", snapshot.mean_batch_size, "count");
  std::uint64_t batches = 0;
  for (const auto& replica : snapshot.replicas) batches += replica.batches;
  rec.metric("serve.batches", static_cast<double>(batches), "count");
  double rejected = 0.0;
  double errors = 0.0;
  double late = 0.0;
  for (const Round& r : rounds) {
    for (const pb::LoadResult* leg : r.serve_legs()) {
      rejected += static_cast<double>(leg->rejected);
      errors += static_cast<double>(leg->errors);
    }
    if (!r.traced) continue;
    for (const pb::LoadResult* leg : {&r.low, &r.high}) {
      for (const auto& s : leg->samples) late = std::max(late, s.lateness_s);
    }
  }
  rec.metric("serve.rejected", rejected, "count");
  rec.metric("serve.errors", errors, "count");
  rec.metric("serve.p99_ms.low",
             1e3 * quantile(latencies(rounds, true, &Round::low), 0.99), "ms");
  rec.metric("serve.p99_ms.high",
             1e3 * quantile(latencies(rounds, true, &Round::high), 0.99), "ms");
  rec.metric("serve.gen_late_ms.max", 1e3 * late, "ms");

  double tasks = 0.0;
  for (const Round& r : rounds) {
    if (r.traced) tasks += static_cast<double>(r.parallel_tasks);
  }
  rec.metric("parallel.tasks", tasks, "count");
  const auto queue_wait = odonn::obs::MetricsRegistry::global()
                              .histogram("parallel.queue_wait_us.depth1")
                              .snapshot();
  rec.metric("parallel.queue_wait_ms.p50", queue_wait.p50 / 1e3, "ms");

  const double traced_s =
      median(per_round(rounds, true, [](const Round& r) { return r.seconds; }));
  const double untraced_s =
      median(per_round(rounds, false, [](const Round& r) { return r.seconds; }));
  rec.metric("obs.overhead_frac",
             untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0, "frac");

  // The HTTP plane, scraped after the serve load of the window.
  odonn::obs::HttpServer server;
  odonn::obs::register_obs_routes(server);
  server.start();
  std::vector<double> scrape_ms;
  bool scrapes_ok = true;
  for (std::size_t i = 0; i < kHttpScrapes; ++i) {
    const Clock::time_point start = Clock::now();
    const auto response =
        odonn::obs::http_get("127.0.0.1", server.port(), "/metrics");
    const Clock::time_point end = Clock::now();
    spans.add("obs.http_get./metrics", start, end);
    scrape_ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
    scrapes_ok = scrapes_ok && response.ok && response.status == 200 &&
                 !response.body.empty();
  }
  server.stop();
  rec.metric("obs.http_scrape_ms.p50", median(scrape_ms), "ms");
  rec.check("obs GET /metrics returns 200 with a body", scrapes_ok,
            "scrapes=" + std::to_string(kHttpScrapes));
}

/// Output checks shared by traced and untraced runs.
void output_checks(const std::vector<Round>& rounds, Workbench& bench,
                   const Params& p, Record& rec) {
  // Served and batched detector sums against single-sample detector_sums.
  const auto model = bench.registry->get(kServedModel);
  const std::size_t n = std::min(kCheckedRequests, bench.serve_inputs.size());
  const std::vector<odonn::optics::Field> inputs(
      bench.serve_inputs.begin(),
      bench.serve_inputs.begin() + static_cast<std::ptrdiff_t>(n));
  std::vector<std::future<odonn::serve::PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(bench.cluster->submit(kServedModel, input));
  }
  const auto batched = odonn::serve::BatchedForward(model).run(inputs);
  std::size_t served_bad = 0;
  std::size_t batched_bad = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::vector<double> reference = model->detector_sums(inputs[k]);
    served_bad += !pb::sums_close(futures[k].get().detector_sums, reference);
    batched_bad += !pb::sums_close(batched.detector_sums[k], reference);
  }
  rec.check("served detector sums match single-sample detector_sums",
            served_bad == 0,
            std::to_string(served_bad) + "/" + std::to_string(n) + " differ");
  rec.check("batched detector sums match single-sample detector_sums",
            batched_bad == 0,
            std::to_string(batched_bad) + "/" + std::to_string(n) + " differ");

  bool accuracy_ok = true;
  bool roughness_ok = true;
  bool deterministic = true;
  std::ostringstream accuracy;
  std::ostringstream roughness;
  for (const Round& r : rounds) {
    accuracy_ok = accuracy_ok && r.accuracy >= p.accuracy_floor;
    roughness_ok = roughness_ok && r.roughness_after <= r.roughness_before;
    deterministic = deterministic &&
                    r.phase_digest == rounds.front().phase_digest &&
                    r.mc_digests == rounds.front().mc_digests;
  }
  accuracy << "accuracy=" << rounds.back().accuracy
           << " floor=" << p.accuracy_floor;
  roughness << "before=" << rounds.back().roughness_before
            << " after=" << rounds.back().roughness_after;
  rec.check("trained accuracy at or above the floor", accuracy_ok,
            accuracy.str());
  rec.check("roughness_after <= roughness_before (2pi smoothing)",
            roughness_ok, roughness.str());
  rec.check("every round trains the same phases and MC reports",
            deterministic, "rounds=" + std::to_string(rounds.size()));

  std::uint64_t serve_failed = 0;
  std::uint64_t attempted = 0;
  for (const Round& r : rounds) {
    attempted += 1 + static_cast<std::uint64_t>(r.mc_realizations + r.infer_samples);
    for (const pb::LoadResult* leg : r.serve_legs()) {
      attempted += leg->attempted;
      serve_failed += leg->rejected + leg->errors;
    }
  }
  rec.attempted = attempted + n;
  rec.failed = serve_failed + served_bad;
}

std::string provenance_json() {
  const char* env = std::getenv("ODONN_THREADS");
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"odonn_threads_env\": " << json_string(env ? env : "")
      << ", \"pool_threads\": " << odonn::thread_count()
      << ", \"ndebug\": true, \"build\": " << odonn::obs::build_info_json()
      << "}";
  return out.str();
}

std::string record_json(const Params& p, const Record& rec,
                        const std::vector<Round>& rounds,
                        const std::vector<double>& setups,
                        const pb::SpanRecorder& spans) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(p.workload) << ", \"seed\": " << p.seed
      << ", \"seconds\": " << json_number(p.seconds)
      << ", \"trace\": " << (p.trace ? 1 : 0)
      << ", \"correct\": " << (rec.correct() ? "true" : "false")
      << ", \"attempted\": " << rec.attempted << ", \"failed\": " << rec.failed
      << ",\n \"provenance\": " << provenance_json() << ",\n \"metrics\": {";
  for (std::size_t i = 0; i < rec.metrics.size(); ++i) {
    const Metric& m = rec.metrics[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "},\n \"checks\": [";
  for (std::size_t i = 0; i < rec.checks.size(); ++i) {
    const pb::Check& c = rec.checks[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << json_string(c.detail) << "}";
  }
  out << "],\n \"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << json_number(setups[i]);
  }
  out << "],\n \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    out << (i ? ",\n  " : "\n  ") << "{\"traced\": " << (r.traced ? "true" : "false")
        << ", \"warmup\": " << (r.warmup ? "true" : "false")
        << ", \"seconds\": " << json_number(r.seconds)
        << ", \"recipe_s\": " << json_number(r.recipe_s)
        << ", \"stage_s\": {";
    bool first_stage = true;
    for (const auto& [stage, seconds] : r.stage_s) {
      out << (first_stage ? "" : ", ") << json_string(stage) << ": "
          << json_number(seconds);
      first_stage = false;
    }
    out << "}"
        << ", \"mc_s\": " << json_number(r.mc_s)
        << ", \"infer_rate\": " << json_number(median(r.infer_rates))
        << ", \"serve_rps\": " << json_number(r.closed.completed_per_s())
        << ", \"serve_p50_ms\": ["
        << json_number(1e3 * median(latency_of(r.low))) << ", "
        << json_number(1e3 * median(latency_of(r.high))) << "]"
        << ", \"open_requests\": [" << r.low.samples.size() << ", "
        << r.high.samples.size() << "]"
        << ", \"accuracy\": " << json_number(r.accuracy)
        << ", \"roughness_before\": " << json_number(r.roughness_before)
        << ", \"roughness_after\": " << json_number(r.roughness_after)
        << ", \"phase_digest\": \"" << hex64(r.phase_digest)
        << "\", \"smoothed_digest\": \"" << hex64(r.smoothed_digest)
        << "\", \"mc_digests\": [";
    for (std::size_t k = 0; k < r.mc_digests.size(); ++k) {
      out << (k ? ", " : "") << "\"" << hex64(r.mc_digests[k]) << "\"";
    }
    out << "]}";
  }
  out << "]";
  if (p.trace) {
    out << ",\n \"self_time_s\": {";
    bool first = true;
    for (const auto& [name, seconds] : spans.self_seconds()) {
      out << (first ? "" : ", ") << json_string(name) << ": "
          << json_number(seconds);
      first = false;
    }
    out << "}";
  }
  out << "}\n";
  return out.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << body;
  if (!file) throw odonn::IoError("perfbench: cannot write " + path);
}

int run(const Params& p) {
  // Set-up, repeated; the median is setup_s and the last one is kept.
  std::vector<double> setups;
  std::unique_ptr<Workbench> bench;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    bench.reset();
    const Clock::time_point start = Clock::now();
    bench = set_up(p);
    setups.push_back(seconds_since(start));
  }
  bench->cluster->reset_stats();
  odonn::obs::MetricsRegistry::global().reset();

  // The measured window. A traced run alternates traced and untraced
  // rounds so the tracing overhead is measured inside one process.
  pb::SpanRecorder spans(false);
  std::vector<Round> rounds;
  std::optional<odonn::donn::DonnModel> trained;
  const Clock::time_point window = Clock::now();
  while (rounds.empty() || seconds_since(window) < p.seconds ||
         (p.trace && (rounds.size() < 2 || rounds.size() % 2 != 0))) {
    const bool traced = p.trace && rounds.size() % 2 == 0;
    spans.set_enabled(traced);
    odonn::obs::set_detail(traced);
    rounds.push_back(run_round(*bench, p, spans, trained));
  }
  spans.set_enabled(p.trace);
  odonn::obs::set_detail(false);
  // The first round of an untraced run fills caches and finishes lazy
  // set-up; it is left out of the metrics when enough rounds remain.
  if (!p.trace && rounds.size() >= 3) rounds.front().warmup = true;

  Record rec;
  if (p.trace) {
    per_layer_metrics(rounds, *bench, p, *trained, spans, rec);
  } else {
    end_to_end_metrics(rounds, setups, rec);
  }
  output_checks(rounds, *bench, p, rec);
  if (!p.trace) rec.metric("peak_rss_mb", peak_rss_mb(), "MB");
  for (const Metric& m : rec.metrics) {
    if (!std::isfinite(m.value)) rec.check("metric " + m.name + " is finite", false, "");
  }
  bench->cluster->shutdown();

  write_file(p.record, record_json(p, rec, rounds, setups, spans));
  if (p.trace && !p.trace_file.empty()) write_file(p.trace_file, spans.chrome_json());

  std::printf("perfbench %s seed=%llu rounds=%zu correct=%s\n",
              p.workload.c_str(), static_cast<unsigned long long>(p.seed),
              rounds.size(), rec.correct() ? "yes" : "NO");
  for (const Metric& m : rec.metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const pb::Check& c : rec.checks) {
    if (!c.ok) std::printf("  FAILED CHECK: %s (%s)\n", c.name.c_str(), c.detail.c_str());
  }
  return rec.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report numbers from a build without "
               "NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  Params params;
  try {
    params = parse_params(Config::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(params);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", params.workload.c_str(),
                 e.what());
    return 1;
  }
}
