// The per-layer suite: each module's public calls timed from outside on
// the run's seeded inputs, plus traced in-process replays of the three
// paths the workloads drive (a predict request, a search, a build).
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/checksum.hpp"
#include "common/fsio.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "esm/config.hpp"
#include "esm/dataset_gen.hpp"
#include "esm/evaluator.hpp"
#include "esm/journal.hpp"
#include "hwsim/device.hpp"
#include "hwsim/latency_model.hpp"
#include "hwsim/measurement.hpp"
#include "linalg/matrix.hpp"
#include "linalg/standardizer.hpp"
#include "nas/accuracy_proxy.hpp"
#include "nas/pareto.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "serve/cache.hpp"
#include "serve/fleet.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "surrogate/mlp_surrogate.hpp"
#include "surrogate/registry.hpp"

namespace perfbench {
namespace {

volatile double g_sink = 0.0;  // keeps timed results observable

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double peak_gflops() {
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(esm::gemm_peak_gflops(0.05));
  return median(runs);
}

/// The MLP's GEMMs at one batch size: forward through in -> 64 -> 64 -> 1
/// (gemm_a_bt, as Mlp::forward_into calls it), and for `train` also the
/// backward weight-gradient (gemm_at_b) and input-gradient (gemm) calls
/// of one Adam step. Reports GFLOP/s with the flops and the operand and
/// result bytes each call touches (computed from the shapes, not measured).
void gemm_row(const std::string& label, std::size_t batch, std::size_t in_dim,
              bool train, Record& rec) {
  const std::size_t dims[] = {in_dim, 64, 64, 1};
  std::vector<esm::Matrix> acts;
  std::vector<esm::Matrix> weights;
  esm::Rng rng(batch * 131 + in_dim);
  acts.emplace_back(batch, in_dim);
  for (std::size_t i = 0; i < acts[0].size(); ++i) acts[0].data()[i] = rng.uniform();
  for (int l = 0; l < 3; ++l) {
    weights.emplace_back(dims[l + 1], dims[l]);
    for (std::size_t i = 0; i < weights[l].size(); ++i) {
      weights[l].data()[i] = rng.uniform(-0.1, 0.1);
    }
    acts.emplace_back(batch, dims[l + 1]);
  }
  std::vector<esm::Matrix> grads(3);
  std::vector<esm::Matrix> deltas(3);
  double flops = 0.0;
  double bytes = 0.0;
  auto count = [&](double m, double n, double k) {
    flops += 2.0 * m * n * k;
    bytes += 8.0 * (m * k + k * n + m * n);
  };
  for (int l = 0; l < 3; ++l) {
    count(static_cast<double>(batch), static_cast<double>(dims[l + 1]),
          static_cast<double>(dims[l]));
    if (train) {
      count(static_cast<double>(dims[l + 1]), static_cast<double>(dims[l]),
            static_cast<double>(batch));
      if (l > 0) {
        count(static_cast<double>(batch), static_cast<double>(dims[l]),
              static_cast<double>(dims[l + 1]));
      }
    }
  }
  const double ns = time_ns_per_op(
      [&](std::size_t) {
        for (int l = 0; l < 3; ++l) {
          esm::gemm_a_bt(acts[l], weights[l], acts[l + 1]);
        }
        if (train) {
          for (int l = 2; l >= 0; --l) {
            esm::gemm_at_b(acts[l + 1], acts[l], grads[l]);
            if (l > 0) esm::gemm(acts[l + 1], weights[l], deltas[l]);
          }
        }
        g_sink = acts[3].data()[0];
      },
      1, 5, 0.02);
  rec.set("linalg.gemm.gflops." + label, flops / ns);
  rec.set("linalg.gemm.flops." + label, flops);
  rec.set("linalg.gemm.bytes." + label, bytes);
}

/// Forwards to a wrapped predictor, recording a span around every batch.
class TracedPredictor final : public esm::LatencyPredictor {
 public:
  TracedPredictor(const esm::LatencyPredictor& inner, Tracer& tracer,
                  const std::int32_t& parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  double predict_ms(const esm::ArchConfig& arch) const override {
    return inner_.predict_ms(arch);
  }
  std::string name() const override { return inner_.name(); }
  std::vector<double> predict_all(
      std::span<const esm::ArchConfig> archs) const override {
    ScopedSpan span(tracer_, "surrogate.predict_all", parent_);
    return inner_.predict_all(archs);
  }

 private:
  const esm::LatencyPredictor& inner_;
  Tracer& tracer_;
  const std::int32_t& parent_;  ///< the enclosing run span
};

void module_timings(const LayerInputs& in, Record& rec) {
  const Fleet& fleet = *in.fleet;
  const WireSpace& space = *in.space;
  const esm::TrainableSurrogate& model = *fleet.models.front().model;
  const esm::SupernetSpec& spec = model.spec();
  const std::string& name = fleet.models.front().name;

  // Seeded inputs: the tail of the run's wire permutation.
  std::vector<esm::ArchConfig> archs;
  std::vector<std::string> wires;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    archs.push_back(space.at(space.size() - 1 - i));
    wires.push_back(space.wire(space.size() - 1 - i));
  }
  const std::size_t n = archs.size();
  const std::vector<double> values = model.predict_all(archs);

  // serve: frames, protocol, cache.
  std::vector<std::string> frames;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < n; ++i) {
    frames.push_back(esm::serve::encode_request(
        i + 1, esm::serve::FrameVerb::predict, name + " " + wires[i]));
    lines.push_back("predict " + name + " " + wires[i]);
  }
  std::string buffer;
  esm::serve::Frame frame;
  std::string error;
  rec.set("serve.frame.decode_ns", time_ns_per_op([&](std::size_t i) {
            buffer = frames[i % n];
            if (esm::serve::parse_frame(buffer, frame, error, 1 << 20) !=
                esm::serve::FrameParse::ok) {
              throw std::runtime_error("parse_frame rejected a frame");
            }
          }));
  std::vector<std::string> replies;
  for (double v : values) replies.push_back(esm::serve::format_latency(v));
  rec.set("serve.frame.encode_ns", time_ns_per_op([&](std::size_t i) {
            g_sink = static_cast<double>(
                esm::serve::encode_ok_response(i, 1, replies[i % n]).size());
          }));
  rec.set("serve.protocol.split_ns", time_ns_per_op([&](std::size_t i) {
            const esm::serve::ParsedRequest r =
                esm::serve::split_request(lines[i % n]);
            g_sink = static_cast<double>(
                esm::serve::split_model_key(r.payload).rest.size());
          }));
  rec.set("serve.protocol.parse_arch_ns", time_ns_per_op([&](std::size_t i) {
            g_sink = esm::serve::parse_arch_request(spec, wires[i % n])
                         .total_blocks();
          }));
  rec.set("serve.protocol.format_latency_ns",
          time_ns_per_op([&](std::size_t i) {
            g_sink = static_cast<double>(
                esm::serve::format_latency(values[i % n]).size());
          }));

  // Server capacity and key shape ("<generation>|<canonical arch>").
  // Half the capacity is primed, so no shard overflows and every primed
  // key hits.
  esm::serve::PredictionCache cache(4096, 8);
  std::vector<std::string> primed;
  std::vector<std::string> absent;
  std::vector<std::string> other;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n / 2) primed.push_back("1|" + archs[i].to_string());
    absent.push_back("2|" + archs[i].to_string());
    other.push_back("3|" + archs[i].to_string());
  }
  for (std::size_t i = 0; i < primed.size(); ++i) cache.put(primed[i], values[i]);
  rec.set("serve.cache.get_hit_ns", time_ns_per_op([&](std::size_t i) {
            g_sink = cache.get(primed[i % primed.size()]).value_or(0.0);
          }));
  rec.set("serve.cache.get_miss_ns", time_ns_per_op([&](std::size_t i) {
            g_sink = cache.get(absent[i % n]).value_or(0.0);
          }));
  // Cycling through twice the capacity of distinct keys makes every put
  // (after the first untimed round fills the shards) an insert that evicts.
  rec.set("serve.cache.put_evict_ns", time_ns_per_op([&](std::size_t i) {
            const std::size_t k = i % (2 * n);
            cache.put(k < n ? absent[k] : other[k - n], 1.0);
          }));

  // encoding and linalg at the MLP's shapes.
  const auto* mlp = dynamic_cast<const esm::MlpSurrogate*>(&model);
  if (mlp == nullptr) throw std::runtime_error("fixture model is not an MLP");
  const esm::Encoder& encoder = mlp->encoder();
  std::vector<double> row(encoder.dimension());
  rec.set("encoding.fcc.encode_ns", time_ns_per_op([&](std::size_t i) {
            encoder.encode_into(archs[i % n], row);
            g_sink = row[0];
          }));
  esm::Standardizer standardizer;
  const esm::Matrix encoded = encoder.encode_all(archs);
  standardizer.fit(encoded);
  rec.set("linalg.standardize_ns", time_ns_per_op([&](std::size_t i) {
            std::copy(encoded.row(i % n).begin(), encoded.row(i % n).end(),
                      row.begin());
            standardizer.transform_row(row);
            g_sink = row[0];
          }));
  gemm_row("fwd_b1", 1, encoder.dimension(), false, rec);
  gemm_row("fwd_b128", 128, encoder.dimension(), false, rec);
  gemm_row("train", 256, encoder.dimension(), true, rec);
  const double peak = peak_gflops();
  rec.set("linalg.gemm.peak_gflops", peak);
  rec.set("linalg.gemm.peak_frac.fwd_b128",
          rec.get("linalg.gemm.gflops.fwd_b128") / peak);

  // surrogate: batched prediction, artifact load, threaded rows.
  for (std::size_t batch : {1, 16, 128}) {
    const double ns = time_ns_per_op(
        [&](std::size_t i) {
          const std::size_t start = (i * batch) % (n - batch);
          g_sink = model.predict_all(std::span(archs).subspan(start, batch))[0];
        },
        1, 5, 0.02);
    rec.set("surrogate.predict_all_ns_per_arch.b" + std::to_string(batch),
            ns / static_cast<double>(batch));
  }
  const std::span<const esm::ArchConfig> b128 = std::span(archs).first(128);
  const std::vector<double> serial = model.predict_all(b128);
  const auto time_b128 = [&] {
    return time_ns_per_op(
               [&](std::size_t) { g_sink = model.predict_all(b128)[0]; }, 1,
               5, 0.02) /
           128.0;
  };
  rec.set("surrogate.predict_all_b128.t1_ns_per_arch", time_b128());
  esm::set_thread_count(hardware_threads());
  rec.set("surrogate.predict_all_b128.tN_ns_per_arch", time_b128());
  const std::vector<double> threaded = model.predict_all(b128);
  esm::set_thread_count(1);
  rec.attempt();
  if (std::memcmp(serial.data(), threaded.data(), 128 * sizeof(double)) != 0) {
    rec.fail("predict_all at " + std::to_string(hardware_threads()) +
             " threads differs from 1 thread");
  }
  const std::string& artifact = fleet.models.front().artifact;
  std::vector<double> load_ms;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    g_sink = esm::load_surrogate(artifact)->predict_ms(archs[0]);
    load_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  rec.set("surrogate.load_ms", median(load_ms));
  const std::string bytes = read_file(artifact);
  rec.set("common.checksum.crc32_mb_per_s",
          static_cast<double>(bytes.size()) * 1e-6 /
              (time_ns_per_op([&](std::size_t) { g_sink = esm::crc32(bytes); },
                              1, 5, 0.02) *
               1e-9));

  // nas: quality proxy and Pareto front.
  const esm::AccuracyProxy proxy(spec);
  rec.set("nas.proxy_ns", time_ns_per_op([&](std::size_t i) {
            g_sink = proxy.top5_accuracy(archs[i % n]);
          }));
  std::vector<double> cost(values.begin(), values.begin() + 256);
  std::vector<double> quality;
  for (std::size_t i = 0; i < 256; ++i) quality.push_back(proxy.top5_accuracy(archs[i]));
  rec.set("nas.pareto.front_us", time_ns_per_op(
                                     [&](std::size_t) {
                                       g_sink = static_cast<double>(
                                           esm::pareto_front(cost, quality).size());
                                     },
                                     16) *
                                     1e-3);

  // nets and hwsim: graph lowering, analytic latency, one protocol run.
  std::vector<esm::LayerGraph> graphs;
  for (std::size_t i = 0; i < 64; ++i) graphs.push_back(esm::build_graph(spec, archs[i]));
  rec.set("nets.build_graph_us", time_ns_per_op([&](std::size_t i) {
            g_sink = static_cast<double>(
                esm::build_graph(spec, archs[i % n]).layers().size());
          }, 16) * 1e-3);
  const esm::LatencyModel latency(esm::device_by_name(fleet.models.front().device));
  rec.set("hwsim.true_latency_us", time_ns_per_op([&](std::size_t i) {
            g_sink = latency.true_latency_ms(graphs[i % graphs.size()]);
          }, 16) * 1e-3);
  esm::SimulatedDevice device(esm::device_by_name(fleet.models.front().device), 7);
  device.begin_session();
  rec.set("hwsim.measure_us_per_arch", time_ns_per_op([&](std::size_t i) {
            g_sink = device.measure(graphs[i % graphs.size()]).value;
          }, 4) * 1e-3);
}

void journal_timing(const Options& opt, Record& rec) {
  // One durable append: a record the size of a 64-sample batch, then fsync.
  const std::string path = opt.run_dir + "/journal_probe.journal";
  esm::FileJournalSink sink(path, true, true);
  const std::string record(64 * 96, 'j');
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t t0 = now_ns();
    sink.append(record);
    sink.sync();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  rec.set("esm.journal.append_ms", median(ms));
}

/// Replays a served predict stream in-process, in served order, through
/// the calls the server makes for each request. One span per call.
void predict_replay(const LayerInputs& in, Tracer& tracer, Record& rec) {
  const Fleet& fleet = *in.fleet;
  const WireSpace& space = *in.space;
  std::vector<std::unique_ptr<esm::serve::PredictionCache>> caches;
  for (std::size_t m = 0; m < fleet.models.size(); ++m) {
    caches.push_back(std::make_unique<esm::serve::PredictionCache>(4096, 8));
  }
  // Cache keys take the server's shape, "<generation>|<canonical arch>",
  // with the model index standing in for the generation.
  auto cache_key = [&](const PredictRequest& r, const esm::ArchConfig& arch) {
    return std::to_string(r.model) + "|" + arch.to_string();
  };
  for (const PredictRequest& r : in.hot_set) {
    const esm::ArchConfig arch = space.at(r.arch);
    caches[r.model]->put(cache_key(r, arch),
                         fleet.models[r.model].model->predict_ms(arch));
  }
  constexpr int kStages = 10;
  constexpr int kEncodeInto = 5;
  const char* stages[kStages] = {
      "serve.frame.decode",   "serve.protocol.split",
      "serve.protocol.parse_arch", "serve.cache.key",
      "serve.cache.get",      "encoding.encode_into",
      "surrogate.predict_all", "serve.cache.put",
      "serve.protocol.format_latency", "serve.frame.encode"};
  std::vector<double> sums;
  std::vector<double> row;
  const std::size_t first = tracer.spans().size();
  for (std::size_t j = 0; j < in.replay.size(); ++j) {
    const PredictRequest& r = in.replay[j];
    const FleetModel& fm = fleet.models[r.model];
    const auto& mlp = dynamic_cast<const esm::MlpSurrogate&>(*fm.model);
    row.resize(mlp.encoder().dimension());
    std::string wire = esm::serve::encode_request(
        j + 1, esm::serve::FrameVerb::predict, fm.name + " " + space.wire(r.arch));
    const std::uint64_t id = j + 1;
    const std::int32_t root = tracer.begin("replay.request", -1, id);
    std::int64_t sum = 0;
    auto stage = [&](int s, auto&& fn) {
      const std::int64_t t0 = now_ns();
      fn();
      const std::int64_t t1 = now_ns();
      tracer.add(stages[s], t0, t1, root, id);
      // predict_all encodes internally, so the separate encode_into span
      // is shown per layer but not added to the request's sum.
      if (s != kEncodeInto) sum += t1 - t0;
    };
    esm::serve::Frame frame;
    std::string error;
    esm::serve::RoutedPayload routed;
    esm::ArchConfig arch;
    std::string key;
    std::optional<double> hit;
    double value = 0.0;
    std::string text;
    stage(0, [&] { esm::serve::parse_frame(wire, frame, error, 1 << 20); });
    stage(1, [&] { routed = esm::serve::split_model_key(frame.payload); });
    stage(2, [&] { arch = esm::serve::parse_arch_request(mlp.spec(), routed.rest); });
    stage(3, [&] { key = cache_key(r, arch); });
    stage(4, [&] { hit = caches[r.model]->get(key); });
    if (hit) {
      value = *hit;
    } else {
      stage(5, [&] { mlp.encoder().encode_into(arch, row); });
      stage(6, [&] { value = mlp.predict_all(std::span(&arch, 1))[0]; });
      stage(7, [&] { caches[r.model]->put(key, value); });
    }
    stage(8, [&] { text = esm::serve::format_latency(value); });
    stage(9, [&] { g_sink = static_cast<double>(esm::serve::encode_ok_response(id, 1, text).size()); });
    tracer.end(root);
    sums.push_back(static_cast<double>(sum) * 1e-3);
  }
  const std::vector<Span> replay(tracer.spans().begin() + static_cast<std::ptrdiff_t>(first),
                                 tracer.spans().end());
  std::vector<Span> rebased = replay;
  for (Span& s : rebased) {
    if (s.parent >= 0) s.parent -= static_cast<std::int32_t>(first);
  }
  const std::map<std::string, std::int64_t> self = self_time_by_name(rebased);
  // Stages every request runs; the miss-only stages (encode_into,
  // predict_all, cache_put) stay spans in the trace, and their costs are
  // the encoding, surrogate and cache rows of module_timings.
  const char* metric[kStages] = {
      "frame_decode", "split",   "parse_arch", "cache_key",
      "cache_get",    nullptr,   nullptr,      nullptr,
      "format_latency", "frame_encode"};
  const double requests = static_cast<double>(std::max<std::size_t>(1, in.replay.size()));
  for (int s = 0; s < kStages; ++s) {
    if (metric[s] == nullptr) continue;
    const auto it = self.find(stages[s]);
    rec.set(std::string("trace.replay.") + metric[s] + "_ns",
            it == self.end() ? 0.0 : static_cast<double>(it->second) / requests);
  }
  rec.set("trace.replay.sum_us", median(sums));
  if (in.search_client_us == 0.0) {
    rec.set("serve.unaccounted_us", in.client_p50_us - median(sums));
  }
}

void search_trace(const LayerInputs& in, Tracer& tracer, Record& rec) {
  const Fleet& fleet = *in.fleet;
  const esm::SupernetSpec& spec = fleet.models.front().model->spec();
  std::int32_t run = -1;
  std::vector<std::unique_ptr<TracedPredictor>> traced;
  std::vector<const esm::LatencyPredictor*> predictors;
  for (const FleetModel& m : fleet.models) {
    traced.push_back(std::make_unique<TracedPredictor>(*m.model, tracer, run));
    predictors.push_back(traced.back().get());
  }
  const esm::search::SearchRequest& req = in.search;
  const std::size_t first = tracer.spans().size();
  run = tracer.begin("nas.search.run");
  const esm::search::SearchOutcome outcome = run_search(fleet, req, predictors);
  tracer.end(run);
  std::string front;
  {
    ScopedSpan span(tracer, "nas.search.format");
    front = esm::search::format_front_payload(spec, req.config, outcome);
  }
  esm::search::FrontCheck check;
  {
    ScopedSpan span(tracer, "nas.search.verify");
    check = esm::search::verify_front(spec, outcome,
                                      esm::device_by_name(fleet.models.front().device),
                                      req.limits_ms.front());
  }
  std::vector<Span> spans(tracer.spans().begin() + static_cast<std::ptrdiff_t>(first),
                          tracer.spans().end());
  for (Span& s : spans) {
    if (s.parent >= 0) s.parent -= static_cast<std::int32_t>(first);
  }
  const std::vector<std::int64_t> self = self_times_ns(spans);
  const Span& run_span = spans.front();
  const double run_ns = static_cast<double>(run_span.end_ns - run_span.start_ns);
  double predict_ns = 0.0;
  for (const Span& s : spans) {
    if (s.parent == 0) predict_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  rec.set("nas.search.self_ms_per_gen",
          static_cast<double>(self.front()) * 1e-6 / kGenerations);
  rec.set("nas.search.predict_share", predict_ns / run_ns);
  const Span& format_span = spans[spans.size() - 2];
  const Span& verify_span = spans.back();
  rec.set("nas.search.format_us",
          static_cast<double>(format_span.end_ns - format_span.start_ns) * 1e-3);
  rec.set("nas.search.verify_ms",
          static_cast<double>(verify_span.end_ns - verify_span.start_ns) * 1e-6);
  rec.set("nas.search.front_regret", check.regret);
  rec.set("nas.search.front_jaccard", check.jaccard);
  rec.set("nas.search.front_size", static_cast<double>(outcome.front.size()));
  if (in.search_client_us > 0.0) {
    rec.set("serve.unaccounted_us", in.search_client_us - run_ns * 1e-3);
  }
}

/// The pipeline's five stages through their public functions, one span
/// each, with the build workload's parameters; then the same fit at
/// nproc threads, which must produce the same artifact bytes.
void build_trace(const Options& opt, Tracer& tracer, Record& rec) {
  esm::EsmConfig config;
  config.spec = esm::spec_by_name("resnet");
  config.n_initial = kBuildInitial;
  config.n_test = kBuildTest;
  config.seed = mix_seed(opt.seed, 400) % 2147483647u;
  const std::string dir = opt.run_dir + "/traced_build";
  esm::make_dirs(dir + "/.pipeline");
  const esm::DeviceSpec device = esm::device_by_name("rtx4090");

  const std::int32_t root = tracer.begin("build.pipeline");
  auto measure = [&](const char* span, const std::string& journal,
                     esm::SamplingStrategy strategy, int count,
                     std::uint64_t seed) {
    ScopedSpan s(tracer, span, root);
    esm::EsmConfig stage = config;
    stage.seed = seed;
    stage.journal.path = journal;
    stage.journal.resume = true;
    stage.journal.durable = true;
    esm::SimulatedDevice dev(device, seed);
    esm::Rng rng(seed);
    esm::DatasetGenerator generator(stage, dev, rng.split());
    const std::unique_ptr<esm::ArchSampler> sampler =
        esm::make_sampler(stage.spec, strategy, stage.n_bins);
    esm::Rng arch_rng(seed ^ 0x7e57a5c5ull);
    return generator.measure_batch(sampler->sample_n(static_cast<std::size_t>(count), arch_rng))
        .samples;
  };
  const std::vector<esm::MeasuredSample> train = measure(
      "esm.dataset_gen.train_set", dir + "/.pipeline/gpu.train.journal",
      config.strategy, config.n_initial, config.seed);
  const std::vector<esm::MeasuredSample> test = measure(
      "esm.dataset_gen.test_set", dir + "/.pipeline/gpu.test.journal",
      esm::SamplingStrategy::kBalanced, config.n_test,
      config.seed ^ 0x9e3779b97f4a7c15ull);

  std::vector<esm::ArchConfig> archs;
  std::vector<double> latencies;
  for (const esm::MeasuredSample& s : train) {
    archs.push_back(s.arch);
    latencies.push_back(s.latency_ms);
  }
  esm::SimulatedDevice train_device(device, config.seed);
  esm::SurrogateContext context;
  context.spec = config.spec;
  context.encoder = config.encoder;
  context.train = config.train;
  context.seed = config.seed;
  context.device = &train_device;
  auto fit = [&](const char* span, std::int32_t parent) {
    ScopedSpan s(tracer, span, parent);
    std::unique_ptr<esm::TrainableSurrogate> surrogate =
        esm::SurrogateRegistry::instance().create(config.surrogate, context);
    surrogate->fit(esm::SurrogateDataset{archs, latencies});
    return surrogate;
  };
  const std::unique_ptr<esm::TrainableSurrogate> surrogate = fit("ml.fit", root);
  esm::EvalReport report;
  {
    ScopedSpan s(tracer, "esm.evaluate", root);
    const esm::BinwiseEvaluator evaluator(config.spec, config.n_bins,
                                          config.acc_threshold);
    report = evaluator.evaluate(*surrogate, test);
  }
  rec.attempt();
  if (!report.passed(config.eval_strategy, config.acc_threshold)) {
    rec.fail("traced build failed its gate");
  }
  {
    ScopedSpan s(tracer, "common.archive.publish", root);
    esm::serve::FleetManifest manifest;
    esm::serve::ManifestEntry entry;
    entry.name = "gpu";
    entry.crc32_hex = esm::save_surrogate_atomic(*surrogate, dir + "/gpu.esm");
    entry.path = "gpu.esm";
    manifest.upsert(entry);
    esm::serve::write_manifest_atomic(manifest, dir + "/manifest.esmf");
  }
  tracer.end(root);

  auto span_s = [&](const char* name) {
    for (auto it = tracer.spans().rbegin(); it != tracer.spans().rend(); ++it) {
      if (std::strcmp(it->name, name) == 0) {
        return static_cast<double>(it->end_ns - it->start_ns) * 1e-9;
      }
    }
    throw std::logic_error(std::string("no span ") + name);
  };
  const double fit_s = span_s("ml.fit");
  rec.set("esm.dataset_gen.samples_per_s",
          static_cast<double>(train.size() + test.size()) /
              (span_s("esm.dataset_gen.train_set") + span_s("esm.dataset_gen.test_set")));
  rec.set("ml.fit_s", fit_s);
  rec.set("ml.fit_ms_per_epoch", fit_s * 1e3 / config.train.epochs);
  rec.set("esm.evaluate_ms", span_s("esm.evaluate") * 1e3);
  rec.set("common.archive.save_ms", span_s("common.archive.publish") * 1e3);
  rec.set("trace.build.total_s", span_s("build.pipeline"));

  // Threaded fit: same data at nproc threads must give the same bytes.
  esm::set_thread_count(hardware_threads());
  const std::unique_ptr<esm::TrainableSurrogate> threaded = fit("ml.fit.threaded", -1);
  esm::set_thread_count(1);
  rec.set("ml.fit_s.t1", fit_s);
  rec.set("ml.fit_s.tN", span_s("ml.fit.threaded"));
  esm::ArchiveWriter a;
  esm::ArchiveWriter b;
  surrogate->save(a);
  threaded->save(b);
  rec.attempt();
  if (a.to_string() != b.to_string()) {
    rec.fail("MLP fit at " + std::to_string(hardware_threads()) +
             " threads differs from 1 thread");
  }
}

}  // namespace

void host_record(Record& rec, const std::string& suffix) {
  if (suffix.empty()) {
    rec.set("host.nproc", static_cast<double>(hardware_threads()));
    rec.set("host.simd_lanes", static_cast<double>(esm::gemm_simd_width()));
    rec.set("host.fma", esm::gemm_fma_enabled() ? 1.0 : 0.0);
  }
  rec.set("host.peak_gflops" + suffix, peak_gflops());
}

void layer_suite(const Options& opt, const LayerInputs& in, Tracer& tracer,
                 Record& rec) {
  {
    ScopedSpan span(tracer, "layers.modules");
    module_timings(in, rec);
    journal_timing(opt, rec);
  }
  predict_replay(in, tracer, rec);
  search_trace(in, tracer, rec);
  build_trace(opt, tracer, rec);
}

}  // namespace perfbench
