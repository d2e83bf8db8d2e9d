#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "load.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using esm::serve::EsmClient;
using esm::serve::Protocol;

/// Starts esm_serve kSetupRepeats times and keeps the last instance; the
/// time from spawn until `ready` returns is one set-up sample.
template <typename Ready>
std::unique_ptr<Server> start_server(const Options& opt,
                                     const std::string& manifest,
                                     std::vector<double>& setup_s,
                                     Record& rec, Ready&& ready) {
  for (int r = 0;; ++r) {
    const std::int64_t t0 = now_ns();
    auto server = std::make_unique<Server>(opt, manifest, r);
    EsmClient& control = ready(*server);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (r + 1 == kSetupRepeats) return server;
    rec.attempt();
    const ExitInfo exit = server->stop(control);
    if (exit.code != 0) rec.fail("esm_serve " + exit.failure());
  }
}

/// Reconciles the final stats, shuts the server down and returns its
/// peak RSS in MB.
double finish_server(Server& server, EsmClient& control, Record& rec) {
  reconcile(read_stats(control), rec);
  rec.attempt();
  const ExitInfo exit = server.stop(control);
  if (exit.code != 0) rec.fail("esm_serve " + exit.failure());
  return exit.max_rss_mb;
}

double info_rtt_us(EsmClient& client) {
  std::vector<double> rtt;
  for (int i = 0; i < 256; ++i) {
    const std::int64_t t0 = now_ns();
    client.info();
    rtt.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(rtt);
}

/// Served-side per-layer values over one traced window: `before`/`after`
/// bracket it, `wall_s` is its length, `loop` its closed-loop view.
void served_layers(const Stats& before, const Stats& after, double wall_s,
                   const LoopResult& loop, double client_cpu_frac,
                   Record& rec) {
  const double archs = after.archs - before.archs;
  const double batches = after.batches - before.batches;
  rec.set("serve.cache.hit_ratio",
          archs > 0 ? (after.arch_hits - before.arch_hits) / archs : 0.0);
  rec.set("serve.batcher.archs_per_batch",
          batches > 0 ? (after.batched_archs - before.batched_archs) / batches
                      : 0.0);
  rec.set("serve.batcher.batches_per_s", batches / wall_s);
  const double p50 = percentile(loop.latency_us, 50);
  const double p99 = percentile(loop.latency_us, 99);
  rec.set("serve.server.p50_over_client", p50 > 0 ? after.p50_us / p50 : 0.0);
  rec.set("serve.server.p99_over_client", p99 > 0 ? after.p99_us / p99 : 0.0);
  rec.set("serve.errors", after.errors);
  rec.set("serve.shed", after.shed);
  rec.set("serve.expired", after.expired);
  rec.set("serve.client.submit_ns", loop.submit_ns);
  rec.set("serve.client.await_ns", loop.await_ns);
  rec.set("bench.client_cpu_frac", client_cpu_frac);
}

struct SaturatedResult {
  std::size_t completed = 0;
  double wall_s = 0.0;
  double server_cpu_s = 0.0;
  double client_cpu_s = 0.0;
};

/// One saturated window: kDepth predicts in flight on every load
/// connection, then a drain.
SaturatedResult run_saturated(LoadGenerator& load, pid_t server_pid,
                              const Fleet& fleet, const WireSpace& space,
                              const std::function<PredictRequest()>& next,
                              double seconds, esm::Rng& pick,
                              std::vector<Sampled>& samples, Record& rec) {
  std::vector<PredictRequest> requests;
  SaturatedResult out;
  const double cpu0 = proc_cpu_s(server_pid);
  const double client0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  out.completed = load.run(
      seconds, kDepth,
      [&](std::uint64_t& tag) {
        const PredictRequest r = next();
        tag = requests.size();
        requests.push_back(r);
        return fleet.models[r.model].name + " " + space.wire(r.arch);
      },
      [&](std::uint64_t tag, bool ok, const std::string& payload) {
        rec.attempt();
        if (!ok) {
          rec.fail("predict answered an error: " + payload);
        } else if (pick.uniform_u64(64) == 0) {
          samples.push_back({requests[tag], payload});
        }
      });
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  out.server_cpu_s = proc_cpu_s(server_pid) - cpu0;
  out.client_cpu_s = process_cpu_s() - client0;
  return out;
}

/// The saturated phase's connections: 2 esm2 and 1 esm1.
std::unique_ptr<LoadGenerator> open_load(const Server& server) {
  using Wire = LoadGenerator::Wire;
  return std::make_unique<LoadGenerator>(
      server.port(), std::vector<Wire>{Wire::esm2, Wire::esm2, Wire::esm1});
}

/// Interleaved slices, each one saturated and one unloaded window. The
/// host's speed drifts over seconds (shared CPUs), so the run alternates
/// short windows and every figure samples the whole run. Throughput of
/// threads handing work to each other falls steeply with the CPU time the
/// hypervisor steals: on a shared 4-vCPU guest, runs with 3 % and 12 %
/// mean steal gave about 50 k and 27 k saturated predict_cold req/s. The
/// paper's QC watches interleaved reference models for drift of the
/// measuring host; here the host's steal counter plays that part: each
/// window records it, and every figure is extrapolated to zero steal over
/// the run's windows (at_zero_steal).
struct Slices {
  std::vector<double> rate;        ///< saturated req/s
  std::vector<double> cpu_us;      ///< server CPU per saturated request
  std::vector<double> client_cpu;  ///< generator CPU / wall, saturated
  std::vector<double> sat_steal;   ///< host steal share, saturated window
  std::vector<double> p50_us;      ///< unloaded
  std::vector<double> p99_us;      ///< unloaded
  std::vector<double> unl_steal;   ///< host steal share, unloaded window
  LoopResult unloaded;             ///< all unloaded latencies
  double wall_s = 0.0;
};

constexpr double kSliceSeconds = 0.25;

}  // namespace

void predict_workload(const Options& opt, bool hot, Record& rec) {
  const Fleet fleet = make_fixture(opt);
  const std::size_t n_models = fleet.models.size();
  const WireSpace space(fleet.models.front().model->spec(),
                        mix_seed(opt.seed, 10));
  // Stream positions [0, n_models * kHotPerModel) are the hot set, block m
  // belonging to model m; the cold stream walks the permutation past it,
  // so no cold arch repeats or touches a hot one.
  std::vector<std::vector<std::string>> hot_wires(n_models);
  for (std::size_t m = 0; m < n_models; ++m) {
    for (std::size_t j = 0; j < kHotPerModel; ++j) {
      hot_wires[m].push_back(space.wire(m * kHotPerModel + j));
    }
  }
  std::uint64_t cold_cursor = n_models * kHotPerModel;
  esm::Rng rng(mix_seed(opt.seed, 11));
  std::size_t turn = 0;
  const std::function<PredictRequest()> next = [&] {
    PredictRequest r;
    r.model = turn++ % n_models;
    r.arch = hot ? r.model * kHotPerModel + rng.uniform_u64(kHotPerModel)
                 : cold_cursor++;
    return r;
  };

  std::vector<double> setup_s;
  std::unique_ptr<LoadGenerator> load;
  std::unique_ptr<EsmClient> control;
  std::unique_ptr<Server> server = start_server(
      opt, fleet.manifest, setup_s, rec, [&](Server& s) -> EsmClient& {
        load = open_load(s);
        control = s.connect(Protocol::esm2);
        for (std::size_t m = 0; m < n_models; ++m) {
          control->predict_batch(fleet.models[m].name, hot_wires[m]);
        }
        control->info();
        return *control;
      });

  std::vector<Sampled> samples;
  std::vector<PredictRequest> served;
  esm::Rng pick(mix_seed(opt.seed, 12));
  auto run_slices = [&](double seconds, Tracer* tracer) {
    Slices out;
    std::vector<double> submit_ns;
    std::vector<double> await_ns;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < end) {
      const HostCpu host0 = read_host_cpu();
      const SaturatedResult sat =
          run_saturated(*load, server->pid(), fleet, space, next,
                        kSliceSeconds, pick, samples, rec);
      const double n = static_cast<double>(sat.completed);
      out.rate.push_back(n / sat.wall_s);
      out.cpu_us.push_back(sat.server_cpu_s * 1e6 / n);
      out.client_cpu.push_back(sat.client_cpu_s / sat.wall_s);
      const HostCpu host1 = read_host_cpu();
      out.sat_steal.push_back(steal_share(host0, host1));
      const LoopResult unl = run_unloaded(*control, fleet, space, next,
                                          kSliceSeconds, SIZE_MAX, samples,
                                          served, rec, tracer);
      out.p50_us.push_back(percentile(unl.latency_us, 50));
      out.p99_us.push_back(percentile(unl.latency_us, 99));
      submit_ns.push_back(unl.submit_ns);
      await_ns.push_back(unl.await_ns);
      out.unloaded.latency_us.insert(out.unloaded.latency_us.end(),
                                     unl.latency_us.begin(), unl.latency_us.end());
      out.unl_steal.push_back(steal_share(host1, read_host_cpu()));
    }
    out.unloaded.submit_ns = median(submit_ns);
    out.unloaded.await_ns = median(await_ns);
    out.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    return out;
  };

  const Slices run = run_slices(opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
  rec.set("setup_s", median(setup_s));
  rec.set("req_per_s", at_zero_steal(run.rate, run.sat_steal));
  rec.set("p50_us", at_zero_steal(run.p50_us, run.unl_steal));
  rec.set("p99_us", at_zero_steal(run.p99_us, run.unl_steal));
  rec.set("cpu_us_per_req", at_zero_steal(run.cpu_us, run.sat_steal));
  // Each predict line prices one arch.
  rec.set("evals_per_s", rec.get("req_per_s"));
  rec.set("gate_acc", fleet.mean_gate_acc());

  if (opt.trace) {
    // Saturated windows record no per-request spans: at tens of thousands
    // of requests a second they would perturb the throughput they sit in
    // and bloat the trace file. Unloaded requests each get a client span.
    Tracer tracer;
    served.clear();
    const Stats t0 = read_stats(*control);
    const std::int32_t span = tracer.begin("phase.traced");
    const Slices traced = run_slices(opt.seconds / 2, &tracer);
    tracer.end(span);
    const Stats t1 = read_stats(*control);
    served_layers(t0, t1, traced.wall_s, traced.unloaded,
                  median(traced.client_cpu), rec);
    rec.set("trace.overhead_frac",
            median(traced.p50_us) / median(run.p50_us) - 1.0);
    rec.set("serve.info_rtt_us", info_rtt_us(*control));

    LayerInputs in;
    in.fleet = &fleet;
    in.space = &space;
    in.replay.assign(served.begin(),
                     served.begin() + static_cast<std::ptrdiff_t>(
                                          std::min<std::size_t>(4096, served.size())));
    if (hot) {
      for (std::size_t m = 0; m < n_models; ++m) {
        for (std::size_t j = 0; j < kHotPerModel; ++j) {
          in.hot_set.push_back({m, m * kHotPerModel + j});
        }
      }
    }
    in.client_p50_us = median(traced.p50_us);
    in.search = search_request(fleet, search_limits(fleet, space), opt.seed, 0);
    layer_suite(opt, in, tracer, rec);
    tracer.write_json(opt.run_dir + "/trace.json");
  }
  check_predictions(fleet, space, samples, rec);
  rec.set("peak_rss_mb", finish_server(*server, *control, rec));
}

void search_workload(const Options& opt, Record& rec) {
  const Fleet fleet = make_fixture(opt);
  const WireSpace space(fleet.models.front().model->spec(),
                        mix_seed(opt.seed, 10));
  const std::vector<double> limits = search_limits(fleet, space);

  std::vector<double> setup_s;
  std::unique_ptr<EsmClient> conn;
  std::unique_ptr<Server> server = start_server(
      opt, fleet.manifest, setup_s, rec, [&](Server& s) -> EsmClient& {
        conn = s.connect(Protocol::esm2);
        conn->info();
        return *conn;
      });

  struct Served {
    esm::search::SearchRequest request;
    std::string front;
  };
  std::vector<Served> served;
  std::size_t index = 0;
  // One search at a time on one connection, so the saturated and the
  // unloaded view coincide: every figure comes from this one loop. Each
  // search records the host's steal and the server's CPU while it ran.
  struct Phase {
    LoopResult loop;
    Stats before;
    Stats after;
    std::vector<double> steal;   ///< host steal share during each search
    std::vector<double> cpu_us;  ///< server CPU of each search
  };
  auto phase = [&](double seconds, Tracer* tracer) {
    Phase out;
    out.before = read_stats(*conn);
    HostCpu host0;
    double cpu0 = 0.0;
    out.loop = closed_loop(
        *conn,
        [&] {
          const esm::search::SearchRequest req =
              search_request(fleet, limits, opt.seed, index++);
          host0 = read_host_cpu();
          cpu0 = proc_cpu_s(server->pid());
          return LoopRequest{"search", esm::search::format_search_request(req),
                             [&, req](const std::string& front) {
                               out.cpu_us.push_back(
                                   (proc_cpu_s(server->pid()) - cpu0) * 1e6);
                               out.steal.push_back(
                                   steal_share(host0, read_host_cpu()));
                               served.push_back({req, front});
                             }};
        },
        seconds, SIZE_MAX, rec, tracer);
    out.after = read_stats(*conn);
    return out;
  };

  const Phase run = phase(opt.trace ? opt.seconds / 2 : opt.seconds, nullptr);
  const double searches = run.after.searches - run.before.searches;
  std::vector<double> rate;
  for (double us : run.loop.latency_us) rate.push_back(1e6 / us);
  rec.set("setup_s", median(setup_s));
  rec.set("req_per_s", at_zero_steal(rate, run.steal));
  rec.set("p50_us", at_zero_steal(run.loop.latency_us, run.steal));
  rec.set("p99_us", percentile(run.loop.latency_us, 99));
  rec.set("cpu_us_per_req", at_zero_steal(run.cpu_us, run.steal));
  // The run's mean evaluations per search at the zero-steal search rate.
  rec.set("evals_per_s", rec.get("req_per_s") *
                             (run.after.search_evals - run.before.search_evals) /
                             std::max(1.0, searches));
  rec.set("gate_acc", fleet.mean_gate_acc());

  if (opt.trace) {
    Tracer tracer;
    const std::int32_t span = tracer.begin("phase.search");
    const std::size_t first_traced = served.size();
    const Phase traced = phase(opt.seconds / 2, &tracer);
    const LoopResult& tloop = traced.loop;
    tracer.end(span);
    served_layers(traced.before, traced.after, tloop.wall_s, tloop,
                  tloop.client_cpu_s / tloop.wall_s, rec);
    rec.set("trace.overhead_frac", percentile(tloop.latency_us, 50) /
                                       percentile(run.loop.latency_us, 50) -
                                       1.0);
    rec.set("serve.info_rtt_us", info_rtt_us(*conn));

    LayerInputs in;
    in.fleet = &fleet;
    in.space = &space;
    for (std::uint64_t i = 0; i < 4096; ++i) {
      in.replay.push_back({i % fleet.models.size(), i});
    }
    // The first traced search, against its own served latency: search
    // costs differ from seed to seed, so a median would compare unlike work.
    if (tloop.latency_us.empty()) throw std::runtime_error("no traced search completed");
    in.search = served[first_traced].request;
    in.search_client_us = tloop.latency_us.front();
    layer_suite(opt, in, tracer, rec);
    tracer.write_json(opt.run_dir + "/trace.json");
  }

  // Every served front must be byte-equal to the in-process engine's.
  // The engine is bit-identical at any thread count; checking on several
  // threads only shortens the run.
  const unsigned workers = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::string> mismatch(served.size());
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < served.size(); i += workers) {
        try {
          std::vector<const esm::LatencyPredictor*> predictors;
          for (const FleetModel& m : fleet.models) predictors.push_back(m.model.get());
          const esm::search::SearchOutcome outcome =
              run_search(fleet, served[i].request, predictors);
          const std::string front = esm::search::format_front_payload(
              fleet.models.front().model->spec(), served[i].request.config,
              outcome);
          if (front != served[i].front) mismatch[i] = "served front differs";
        } catch (const std::exception& e) {
          mismatch[i] = e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (std::size_t i = 0; i < served.size(); ++i) {
    rec.attempt();
    if (!mismatch[i].empty()) {
      rec.fail("search " + std::to_string(i) + ": " + mismatch[i]);
    }
  }
  rec.set("peak_rss_mb", finish_server(*server, *conn, rec));
}

void build_workload(const Options& opt, Record& rec) {
  std::vector<double> build_s;
  std::vector<double> accs;
  std::vector<std::string> published;
  double cpu_s = 0.0;
  std::vector<double> rss_mb;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0;
       static_cast<double>(now_ns() - t0) * 1e-9 < budget; ++i) {
    const std::string dir = opt.run_dir + "/build" + std::to_string(i);
    double acc = 0.0;
    const std::int64_t b0 = now_ns();
    const ExitInfo info = run_pipeline(opt, "gpu", "rtx4090", kBuildInitial,
                                       kBuildTest,
                                       mix_seed(opt.seed, 200 + i) % 2147483647u,
                                       dir, acc);
    const double took = static_cast<double>(now_ns() - b0) * 1e-9;
    rec.attempt();
    if (info.code != 0) {
      rec.fail("esm_cli pipeline " + info.failure());
      break;
    }
    build_s.push_back(took);
    accs.push_back(acc);
    cpu_s += info.cpu_s;
    rss_mb.push_back(info.max_rss_mb);
    published.push_back(dir);
  }
  const double wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (published.empty()) throw std::runtime_error("no build published");
  const double builds = static_cast<double>(published.size());
  std::vector<double> build_us;
  for (double s : build_s) build_us.push_back(s * 1e6);
  rec.set("req_per_s", builds / wall_s);
  rec.set("p50_us", percentile(build_us, 50));
  rec.set("p99_us", percentile(build_us, 99));
  rec.set("cpu_us_per_req", cpu_s * 1e6 / builds);
  rec.set("evals_per_s", builds * (kBuildInitial + kBuildTest) / wall_s);
  rec.set("gate_acc", median(accs));

  // Set-up on this workload is bringing a freshly built manifest into
  // service; each session also checks the built model serves the offline
  // predictions bit for bit.
  std::vector<double> setup_s;
  Fleet fleet;
  LoopResult unl;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fleet = Fleet{};
    fleet.dir = published[static_cast<std::size_t>(r) % published.size()];
    fleet.manifest = fleet.dir + "/manifest.esmf";
    fleet.models.push_back({"gpu", "rtx4090", fleet.dir + "/gpu.esm", 0.0, nullptr});
    load_models(fleet);
    const std::int64_t s0 = now_ns();
    Server server(opt, fleet.manifest, r);
    std::unique_ptr<EsmClient> conn = server.connect(Protocol::esm2);
    conn->info();
    setup_s.push_back(static_cast<double>(now_ns() - s0) * 1e-9);

    const WireSpace space(fleet.models.front().model->spec(),
                          mix_seed(opt.seed, 300 + static_cast<std::uint64_t>(r)));
    std::uint64_t cursor = 0;
    std::vector<Sampled> samples;
    std::vector<PredictRequest> served;
    const Stats before = read_stats(*conn);
    unl = run_unloaded(
        *conn, fleet, space, [&] { return PredictRequest{0, cursor++}; }, 60.0,
        512, samples, served, rec, nullptr);
    const Stats after = read_stats(*conn);
    check_predictions(fleet, space, samples, rec);
    if (r + 1 == kSetupRepeats && opt.trace) {
      served_layers(before, after, unl.wall_s, unl,
                    unl.client_cpu_s / unl.wall_s, rec);
      rec.set("serve.info_rtt_us", info_rtt_us(*conn));
    }
    finish_server(server, *conn, rec);
  }
  rec.set("setup_s", median(setup_s));
  // Median over the builds of each build's peak: the peak of one build
  // lands on one of two levels (about 12.5 or 14.4 MB) from seed to seed.
  rec.set("peak_rss_mb", median(rss_mb));

  if (opt.trace) {
    Tracer tracer;
    const WireSpace space(fleet.models.front().model->spec(),
                          mix_seed(opt.seed, 10));
    LayerInputs in;
    in.fleet = &fleet;
    in.space = &space;
    for (std::uint64_t i = 0; i < 4096; ++i) in.replay.push_back({0, i});
    in.client_p50_us = percentile(unl.latency_us, 50);
    in.search = search_request(fleet, search_limits(fleet, space), opt.seed, 0);
    layer_suite(opt, in, tracer, rec);
    rec.set("trace.overhead_frac",
            rec.get("trace.build.total_s") * 1e6 / rec.get("p50_us") - 1.0);
    tracer.write_json(opt.run_dir + "/trace.json");
  }
}

}  // namespace perfbench
