// Micro-benchmarks (google-benchmark): throughput of the hot components —
// architecture sampling, graph lowering, latency analysis, encoders, the
// measurement protocol, and MLP training steps.
//
// After the google-benchmark suite, a serial-vs-threaded comparison of the
// parallelized hot paths (GEMM row bands, QC measure-batch fan-out) runs
// and writes BENCH_parallel.json next to the binary, asserting along the
// way that the threaded results are bit-identical to the serial ones.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "linalg/matrix.hpp"
#include "nets/builder.hpp"

using namespace esm;

namespace {

void BM_RandomSample(benchmark::State& state) {
  const SupernetSpec spec = resnet_spec();
  RandomSampler sampler(spec);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_RandomSample);

void BM_BalancedSample(benchmark::State& state) {
  const SupernetSpec spec = resnet_spec();
  BalancedSampler sampler(spec, 5);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_BalancedSample);

void BM_BuildGraph(benchmark::State& state) {
  const SupernetSpec spec =
      state.range(0) == 0 ? resnet_spec()
                          : (state.range(0) == 1 ? mobilenet_v3_spec()
                                                 : densenet_spec());
  RandomSampler sampler(spec);
  Rng rng(2);
  const ArchConfig arch = sampler.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_graph(spec, arch));
  }
}
BENCHMARK(BM_BuildGraph)->Arg(0)->Arg(1)->Arg(2);

void BM_TrueLatency(benchmark::State& state) {
  const SupernetSpec spec = resnet_spec();
  const LatencyModel model(rtx4090_spec());
  RandomSampler sampler(spec);
  Rng rng(3);
  const LayerGraph g = build_graph(spec, sampler.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.true_latency_ms(g));
  }
}
BENCHMARK(BM_TrueLatency);

void BM_MeasureProtocol(benchmark::State& state) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 4);
  RandomSampler sampler(spec);
  Rng rng(5);
  const LayerGraph g = build_graph(spec, sampler.sample(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.measure(g).value);
  }
}
BENCHMARK(BM_MeasureProtocol);

void BM_Encode(benchmark::State& state) {
  const SupernetSpec spec = resnet_spec();
  auto encoder = make_encoder(static_cast<EncodingKind>(state.range(0)), spec);
  RandomSampler sampler(spec);
  Rng rng(6);
  const ArchConfig arch = sampler.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder->encode(arch));
  }
  state.SetLabel(encoder->name());
}
BENCHMARK(BM_Encode)->DenseRange(0, 4);

void BM_MlpTrainEpoch(benchmark::State& state) {
  // One epoch on 1024 FCC-encoded ResNet samples.
  const SupernetSpec spec = resnet_spec();
  auto encoder = make_encoder(EncodingKind::kFcc, spec);
  RandomSampler sampler(spec);
  Rng rng(7);
  const auto archs = sampler.sample_n(1024, rng);
  const Matrix x = encoder->encode_all(archs);
  std::vector<double> y(archs.size());
  const LatencyModel model(rtx4090_spec());
  for (std::size_t i = 0; i < archs.size(); ++i) {
    y[i] = model.true_latency_ms(build_graph(spec, archs[i]));
  }
  Rng init(8);
  Mlp mlp = Mlp::paper_predictor(encoder->dimension(), init);
  const AdamConfig adam;
  Matrix batch_x(256, x.cols());
  std::vector<double> batch_y(256);
  Mlp::TrainWorkspace workspace;
  for (auto _ : state) {
    for (std::size_t off = 0; off + 256 <= archs.size(); off += 256) {
      for (std::size_t i = 0; i < 256; ++i) {
        const auto src = x.row(off + i);
        auto dst = batch_x.row(i);
        for (std::size_t c = 0; c < x.cols(); ++c) dst[c] = src[c];
        batch_y[i] = y[off + i];
      }
      benchmark::DoNotOptimize(
          mlp.train_batch(batch_x, batch_y, adam, 0.0, workspace));
    }
  }
}
BENCHMARK(BM_MlpTrainEpoch);

void BM_PredictOne(benchmark::State& state) {
  const SupernetSpec spec = resnet_spec();
  SimulatedDevice device(rtx4090_spec(), 9);
  bench::LabeledSet train;
  RandomSampler sampler(spec);
  Rng rng(10);
  const LatencyModel model(rtx4090_spec());
  for (int i = 0; i < 500; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    train.add({arch, model.true_latency_ms(build_graph(spec, arch))});
  }
  MlpSurrogate surrogate(make_encoder(EncodingKind::kFcc, spec),
                         bench::paper_train_config(30), 11);
  surrogate.fit(train.archs, train.latencies_ms);
  const ArchConfig query = sampler.sample(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(surrogate.predict_ms(query));
  }
}
BENCHMARK(BM_PredictOne);

// ------------------------------------------------------------------------
// Serial vs threaded comparison of the parallel execution layer.

/// Best-of-`reps` wall time of fn(), in nanoseconds.
template <typename Fn>
double time_best_ns(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ns = std::chrono::duration<double, std::nano>(stop - start).count();
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

int threaded_target() {
  const unsigned hw = std::thread::hardware_concurrency();
  // Exercise the pool even on a single-core host (speedup there is ~1x;
  // the JSON records the thread count so readers can tell).
  return hw < 2 ? 2 : static_cast<int>(hw);
}

bench::ParallelBenchRecord bench_gemm(std::size_t n, int threads) {
  Rng rng(17);
  Matrix a(n, n), b(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform();
  Matrix serial_out, threaded_out;
  bench::ParallelBenchRecord rec;
  rec.name = "gemm_" + std::to_string(n) + "x" + std::to_string(n);
  rec.threads = threads;
  set_thread_count(1);
  rec.serial_ns = time_best_ns(3, [&] { gemm(a, b, serial_out); });
  set_thread_count(threads);
  rec.threaded_ns = time_best_ns(3, [&] { gemm(a, b, threaded_out); });
  set_thread_count(1);
  rec.identical = std::memcmp(serial_out.data(), threaded_out.data(),
                              serial_out.size() * sizeof(double)) == 0;
  rec.flops = 2.0 * static_cast<double>(n) * n * n;
  rec.bytes = 3.0 * static_cast<double>(n) * n * sizeof(double);
  return rec;
}

// The serving-shape multiply stack: one batch-64 forward through the
// paper predictor (3 layers, hidden 64) as bare gemm_a_bt calls. Sits
// below the pool crossover, so the threaded run must match serial time
// (the PR-1 dispatch lost up to 40% here by fanning out anyway).
bench::ParallelBenchRecord bench_gemm_mlp_shape(int threads) {
  constexpr std::size_t kBatch = 64, kIn = 36, kHidden = 64;
  Rng rng(17);
  Matrix x(kBatch, kIn), w1(kHidden, kIn), w2(kHidden, kHidden),
      w3(1, kHidden);
  for (Matrix* m : {&x, &w1, &w2, &w3}) {
    for (std::size_t i = 0; i < m->size(); ++i) m->data()[i] = rng.uniform();
  }
  Matrix h1, h2, y;
  auto forward = [&] {
    gemm_a_bt(x, w1, h1);
    gemm_a_bt(h1, w2, h2);
    gemm_a_bt(h2, w3, y);
  };
  bench::ParallelBenchRecord rec;
  rec.name = "gemm_mlp_forward_b64";
  rec.threads = threads;
  set_thread_count(1);
  rec.serial_ns = time_best_ns(200, forward);
  const Matrix serial_y = y;
  set_thread_count(threads);
  rec.threaded_ns = time_best_ns(200, forward);
  set_thread_count(1);
  rec.identical = std::memcmp(serial_y.data(), y.data(),
                              y.size() * sizeof(double)) == 0;
  rec.flops = 2.0 * kBatch * (kIn * kHidden + kHidden * kHidden + kHidden);
  rec.bytes = static_cast<double>(sizeof(double)) *
              (x.size() + w1.size() + w2.size() + w3.size() +
               2 * (h1.size() + h2.size()) + y.size());
  return rec;
}

// End-to-end fused inference: encode -> standardize -> batched forward ->
// inverse scaling over a 1024-arch batch, serial vs pool-threaded row
// encoding. Counts only the MLP multiply flops (encoding is bookkeeping).
bench::ParallelBenchRecord bench_predict_all(int threads) {
  const SupernetSpec spec = resnet_spec();
  bench::LabeledSet train;
  RandomSampler sampler(spec);
  Rng rng(10);
  const LatencyModel model(rtx4090_spec());
  for (int i = 0; i < 500; ++i) {
    const ArchConfig arch = sampler.sample(rng);
    train.add({arch, model.true_latency_ms(build_graph(spec, arch))});
  }
  set_thread_count(1);
  MlpSurrogate surrogate(make_encoder(EncodingKind::kFcc, spec),
                         bench::paper_train_config(30), 11);
  surrogate.fit(train.archs, train.latencies_ms);
  const auto batch = sampler.sample_n(1024, rng);

  bench::ParallelBenchRecord rec;
  rec.name = "predict_all_1024";
  rec.threads = threads;
  std::vector<double> serial_pred, threaded_pred;
  set_thread_count(1);
  rec.serial_ns =
      time_best_ns(20, [&] { serial_pred = surrogate.predict_all(batch); });
  set_thread_count(threads);
  rec.threaded_ns =
      time_best_ns(20, [&] { threaded_pred = surrogate.predict_all(batch); });
  set_thread_count(1);
  rec.identical = serial_pred == threaded_pred;
  const double dim = static_cast<double>(surrogate.encoder().dimension());
  rec.flops = 2.0 * static_cast<double>(batch.size()) *
              (dim * 64.0 + 64.0 * 64.0 + 64.0);
  return rec;
}

bench::ParallelBenchRecord bench_measure_batch(std::size_t batch,
                                               int threads) {
  const SupernetSpec spec = resnet_spec();
  const EsmConfig cfg = bench::dataset_config(spec);
  RandomSampler sampler(spec);
  Rng arch_rng(19);
  const auto archs = sampler.sample_n(batch, arch_rng);

  bench::ParallelBenchRecord rec;
  rec.name = "measure_batch_" + std::to_string(batch);
  rec.threads = threads;
  // A fresh device+generator per timed run keeps every run on the same
  // session stream, so serial and threaded runs measure identical work —
  // and must produce identical latencies.
  auto run_once = [&](int n_threads) {
    set_thread_count(1);  // baseline construction outside the timing
    SimulatedDevice device(rtx4090_spec(), 23);
    DatasetGenerator generator(cfg, device, Rng(29));
    set_thread_count(n_threads);
    std::vector<MeasuredSample> samples;
    const double ns = time_best_ns(
        1, [&] { samples = generator.measure_batch(archs).samples; });
    set_thread_count(1);
    std::vector<double> values;
    values.reserve(samples.size());
    for (const MeasuredSample& s : samples) values.push_back(s.latency_ms);
    return std::pair<double, std::vector<double>>(ns, std::move(values));
  };
  double serial_best = 0.0, threaded_best = 0.0;
  std::vector<double> serial_values, threaded_values;
  for (int rep = 0; rep < 3; ++rep) {
    auto [serial_ns, sv] = run_once(1);
    auto [threaded_ns, tv] = run_once(threads);
    if (rep == 0) {
      serial_values = sv;
      threaded_values = tv;
    }
    if (rep == 0 || serial_ns < serial_best) serial_best = serial_ns;
    if (rep == 0 || threaded_ns < threaded_best) threaded_best = threaded_ns;
  }
  rec.serial_ns = serial_best;
  rec.threaded_ns = threaded_best;
  rec.identical = serial_values == threaded_values;
  return rec;
}

void run_parallel_suite() {
  const int threads = threaded_target();
  bench::ParallelBenchMeta meta;
  meta.backend = gemm_backend();
  meta.simd_width = gemm_simd_width();
  meta.fma = gemm_fma_enabled();
  meta.peak_gflops = gemm_peak_gflops();
  meta.threads = threads;

  std::vector<bench::ParallelBenchRecord> records;
  records.push_back(bench_gemm_mlp_shape(threads));
  for (std::size_t n : {256u, 512u, 1024u}) {
    records.push_back(bench_gemm(n, threads));
  }
  records.push_back(bench_predict_all(threads));
  records.push_back(bench_measure_batch(64, threads));

  std::cout << "\nSerial vs threaded (" << threads << " threads, backend "
            << meta.backend << ", single-core peak " << meta.peak_gflops
            << " GFLOPS):\n";
  for (const auto& r : records) {
    std::cout << "  " << r.name << ": " << r.serial_ns / 1e6 << " ms -> "
              << r.threaded_ns / 1e6 << " ms ("
              << (r.threaded_ns > 0 ? r.serial_ns / r.threaded_ns : 0.0)
              << "x, results " << (r.identical ? "identical" : "DIFFER")
              << ")";
    if (r.flops > 0.0 && r.serial_ns > 0.0) {
      const double gflops = r.flops / r.serial_ns;
      std::cout << " [" << gflops << " GFLOPS serial";
      if (meta.peak_gflops > 0.0) {
        std::cout << ", " << 100.0 * gflops / meta.peak_gflops << "% of peak";
      }
      std::cout << "]";
    }
    std::cout << "\n";
    if (!r.identical) {
      std::cerr << "FATAL: " << r.name
                << " produced thread-count-dependent results\n";
      std::exit(1);
    }
  }
  bench::write_parallel_bench_json("BENCH_parallel.json", records, meta);
  std::cout << "wrote BENCH_parallel.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_parallel_suite();
  return 0;
}
