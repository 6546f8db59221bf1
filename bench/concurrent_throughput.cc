// Concurrent model-serving throughput: the single-mutex ConcurrentCostModel
// baseline vs the sharded serving layer (ShardedCostModel) on a mixed
// predict/observe workload at 1..16 threads.
//
//   concurrent_throughput [--ops=200000] [--shards=8] [--observe-pct=10]
//                         [--threads=1,2,4,8,16] [--budget=14400]
//
// Every thread runs a fixed-seed stream of operations against the shared
// model (default 90% Predict / 10% Observe — a planner-heavy serving mix);
// the table reports aggregate ops/sec per configuration plus the sharded
// model's feedback accounting. On a multi-core host the sharded column
// should scale with threads while the mutex column stays flat (or sags
// from contention); on one core the win reduces to cheaper queuing on the
// Observe path.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/bench_report.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "model/concurrent_model.h"
#include "model/mlq_model.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

constexpr int kDims = 3;
constexpr double kSpaceLo = 0.0;
constexpr double kSpaceHi = 1000.0;

// Deterministic synthetic cost surface (cheap: the bench measures the
// models, not a UDF).
double Surface(const Point& p) {
  return p[0] * 0.7 + p[1] * 0.2 + p[2] * 0.1;
}

MlqConfig BenchConfig(int64_t budget) {
  MlqConfig config;
  config.strategy = InsertionStrategy::kLazy;
  config.max_depth = 6;
  config.beta = 1;
  config.memory_limit_bytes = budget;
  return config;
}

struct RunResult {
  double ops_per_sec = 0.0;
  int64_t observations_dropped = 0;
};

// Runs `threads` workers, each doing `ops_per_thread` fixed-seed mixed
// operations against `model`; returns aggregate throughput.
RunResult RunWorkload(CostModel& model, int threads, int64_t ops_per_thread,
                      double observe_fraction) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  WallTimer timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&model, observe_fraction, ops_per_thread, t]() {
      Rng rng(0xBE7C4 + static_cast<uint64_t>(t));
      volatile double sink = 0.0;  // Keep Predict from being optimized out.
      for (int64_t i = 0; i < ops_per_thread; ++i) {
        Point p{rng.Uniform(kSpaceLo, kSpaceHi), rng.Uniform(kSpaceLo, kSpaceHi),
                rng.Uniform(kSpaceLo, kSpaceHi)};
        if (rng.NextDouble() < observe_fraction) {
          model.Observe(p, Surface(p));
        } else {
          sink = sink + model.Predict(p);
        }
      }
      (void)sink;
    });
  }
  for (std::thread& worker : workers) worker.join();
  model.Flush();
  const double seconds = timer.ElapsedSeconds();

  RunResult result;
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);
  result.ops_per_sec = seconds > 0.0 ? total_ops / seconds : 0.0;
  return result;
}

// Batched variant of RunWorkload: each worker buffers a block of points
// and serves it with ONE PredictBatch call (observations still go one at a
// time, as execution feedback does). Under the mutex decorator this turns
// `batch` lock acquisitions into one; under the sharded model it becomes
// one bucketed descent pass per shard touched.
RunResult RunBatchWorkload(CostModel& model, int threads,
                           int64_t ops_per_thread, double observe_fraction,
                           int batch) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  WallTimer timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&model, observe_fraction, ops_per_thread, batch,
                          t]() {
      Rng rng(0xBA7C4 + static_cast<uint64_t>(t));
      std::vector<Point> points;
      points.reserve(static_cast<size_t>(batch));
      std::vector<CostEstimate> out(static_cast<size_t>(batch));
      volatile double sink = 0.0;
      for (int64_t i = 0; i < ops_per_thread;) {
        points.clear();
        while (static_cast<int>(points.size()) < batch &&
               i < ops_per_thread) {
          Point p{rng.Uniform(kSpaceLo, kSpaceHi),
                  rng.Uniform(kSpaceLo, kSpaceHi),
                  rng.Uniform(kSpaceLo, kSpaceHi)};
          if (rng.NextDouble() < observe_fraction) {
            model.Observe(p, Surface(p));
          } else {
            points.push_back(p);
          }
          ++i;
        }
        if (points.empty()) continue;
        model.PredictBatch(points,
                           std::span<CostEstimate>(out.data(), points.size()));
        sink = sink + out[0].value;
      }
      (void)sink;
    });
  }
  for (std::thread& worker : workers) worker.join();
  model.Flush();
  const double seconds = timer.ElapsedSeconds();

  RunResult result;
  const double total_ops =
      static_cast<double>(ops_per_thread) * static_cast<double>(threads);
  result.ops_per_sec = seconds > 0.0 ? total_ops / seconds : 0.0;
  return result;
}

// Pure-feedback workload: each worker delivers `ops_per_thread`
// observations, in blocks of `batch` through ObserveBatch (batch == 1 is
// the scalar Observe baseline). Under the mutex decorator a block costs
// one lock acquisition instead of `batch`; under the sharded model it is
// one queue-lock per shard touched plus batched drains; and the tree
// underneath pays its per-call timer/scratch setup once per block.
// Paired single-producer comparison of scalar Observe vs ObserveBatch on
// ONE model: the stream is delivered in alternating chunks (even chunks
// item-wise, odd chunks in `batch`-sized blocks), timing each mode
// separately. Because batched delivery is bit-identical to scalar delivery,
// the tree evolves the same way regardless of which mode a chunk uses —
// the two timers measure identical work, milliseconds apart, so scheduler
// noise on a shared box cancels out of the ratio almost entirely.
struct PairedObserveResult {
  double scalar_ops_per_sec = 0.0;
  double batch_ops_per_sec = 0.0;
  double speedup = 1.0;
};

PairedObserveResult RunObservePaired(CostModel& model, int64_t total_ops,
                                     int batch) {
  Rng rng(0xFEED5);
  std::vector<Observation> stream;
  stream.reserve(static_cast<size_t>(total_ops));
  for (int64_t i = 0; i < total_ops; ++i) {
    Point p{rng.Uniform(kSpaceLo, kSpaceHi), rng.Uniform(kSpaceLo, kSpaceHi),
            rng.Uniform(kSpaceLo, kSpaceHi)};
    stream.push_back({p, Surface(p)});
  }
  // Chunks must hold a whole number of blocks so the batched chunks never
  // deliver a runt block.
  const size_t chunk =
      static_cast<size_t>(std::max(batch, 1)) *
      std::max<size_t>(1, 8192 / static_cast<size_t>(std::max(batch, 1)));
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  int64_t scalar_ops = 0;
  int64_t batch_ops = 0;
  bool scalar_turn = true;
  const size_t n = stream.size();
  for (size_t begin = 0; begin < n; begin += chunk) {
    const size_t end = std::min(n, begin + chunk);
    WallTimer timer;
    if (scalar_turn) {
      for (size_t i = begin; i < end; ++i) {
        model.Observe(stream[i].point, stream[i].value);
      }
      scalar_seconds += timer.ElapsedSeconds();
      scalar_ops += static_cast<int64_t>(end - begin);
    } else {
      for (size_t i = begin; i < end;) {
        const size_t block = std::min(end, i + static_cast<size_t>(batch));
        model.ObserveBatch(
            std::span<const Observation>(stream.data() + i, block - i));
        i = block;
      }
      batch_seconds += timer.ElapsedSeconds();
      batch_ops += static_cast<int64_t>(end - begin);
    }
    scalar_turn = !scalar_turn;
  }
  model.Flush();

  PairedObserveResult result;
  if (scalar_seconds > 0.0) {
    result.scalar_ops_per_sec =
        static_cast<double>(scalar_ops) / scalar_seconds;
  }
  if (batch_seconds > 0.0) {
    result.batch_ops_per_sec = static_cast<double>(batch_ops) / batch_seconds;
  }
  if (result.scalar_ops_per_sec > 0.0 && result.batch_ops_per_sec > 0.0) {
    result.speedup = result.batch_ops_per_sec / result.scalar_ops_per_sec;
  }
  return result;
}

std::vector<int> ParseThreadList(const std::string& text) {
  std::vector<int> threads;
  std::istringstream stream(text);
  std::string field;
  while (std::getline(stream, field, ',')) {
    const int value = std::atoi(field.c_str());
    if (value > 0) threads.push_back(value);
  }
  if (threads.empty()) threads = {1, 2, 4, 8, 16};
  return threads;
}

int Main(int argc, char** argv) {
  const auto total_ops = static_cast<int64_t>(
      std::atoll(ArgValue(argc, argv, "ops", "200000").c_str()));
  const int num_shards =
      std::atoi(ArgValue(argc, argv, "shards", "8").c_str());
  const double observe_fraction =
      std::atoi(ArgValue(argc, argv, "observe-pct", "10").c_str()) / 100.0;
  const auto budget = static_cast<int64_t>(
      std::atoll(ArgValue(argc, argv, "budget", "14400").c_str()));
  const std::vector<int> thread_counts =
      ParseThreadList(ArgValue(argc, argv, "threads", "1,2,4,8,16"));

  std::printf(
      "Concurrent serving throughput: %lld total ops/config, %.0f%% observe, "
      "budget %lld B, %d shards, %u hardware threads\n\n",
      static_cast<long long>(total_ops), observe_fraction * 100.0,
      static_cast<long long>(budget), num_shards,
      std::thread::hardware_concurrency());

  const Box space = Box::Cube(kDims, kSpaceLo, kSpaceHi);
  TablePrinter table({"threads", "mutex Mops/s", "sharded Mops/s", "speedup",
                      "sharded applied", "sharded dropped"});

  for (const int threads : thread_counts) {
    const int64_t ops_per_thread = total_ops / threads;

    ConcurrentCostModel mutex_model(
        std::make_unique<MlqModel>(space, BenchConfig(budget)));
    const RunResult mutex_result =
        RunWorkload(mutex_model, threads, ops_per_thread, observe_fraction);

    ShardedModelOptions options;
    options.num_shards = num_shards;
    options.queue_capacity = 4096;
    options.drain_batch = 256;
    ShardedCostModel sharded_model(space, BenchConfig(budget), options);
    const RunResult sharded_result =
        RunWorkload(sharded_model, threads, ops_per_thread, observe_fraction);
    const ShardedModelStats stats = sharded_model.stats();

    table.AddRow({std::to_string(threads),
                  TablePrinter::Num(mutex_result.ops_per_sec / 1e6, 3),
                  TablePrinter::Num(sharded_result.ops_per_sec / 1e6, 3),
                  TablePrinter::Num(
                      sharded_result.ops_per_sec /
                          (mutex_result.ops_per_sec > 0.0
                               ? mutex_result.ops_per_sec
                               : 1.0),
                      2),
                  std::to_string(stats.observations_applied),
                  std::to_string(stats.observations_dropped)});
  }
  table.Print(std::cout);

  constexpr int kBatch = 64;
  std::printf("\nBatched serving (PredictBatch, block of %d points):\n",
              kBatch);
  TablePrinter batch_table(
      {"threads", "mutex batched Mops/s", "sharded batched Mops/s",
       "speedup"});
  for (const int threads : thread_counts) {
    const int64_t ops_per_thread = total_ops / threads;

    ConcurrentCostModel mutex_model(
        std::make_unique<MlqModel>(space, BenchConfig(budget)));
    const RunResult mutex_result = RunBatchWorkload(
        mutex_model, threads, ops_per_thread, observe_fraction, kBatch);

    ShardedModelOptions options;
    options.num_shards = num_shards;
    options.queue_capacity = 4096;
    options.drain_batch = 256;
    ShardedCostModel sharded_model(space, BenchConfig(budget), options);
    const RunResult sharded_result = RunBatchWorkload(
        sharded_model, threads, ops_per_thread, observe_fraction, kBatch);

    batch_table.AddRow(
        {std::to_string(threads),
         TablePrinter::Num(mutex_result.ops_per_sec / 1e6, 3),
         TablePrinter::Num(sharded_result.ops_per_sec / 1e6, 3),
         TablePrinter::Num(sharded_result.ops_per_sec /
                               (mutex_result.ops_per_sec > 0.0
                                    ? mutex_result.ops_per_sec
                                    : 1.0),
                           2)});
  }
  batch_table.Print(std::cout);

  // Feedback-side batching: scalar Observe vs ObserveBatch at growing
  // block sizes, single-threaded so the delta is pure per-point overhead
  // amortization (lock round-trips, dispatch, the tree's per-call setup),
  // not contention relief. The batch=1 row IS the scalar baseline.
  std::printf("\nBatched feedback (ObserveBatch, single producer):\n");
  TablePrinter observe_table({"batch", "mutex observe Mops/s",
                              "sharded observe Mops/s", "mutex speedup",
                              "sharded speedup"});
  // Each cell interleaves scalar and batched delivery chunks against ONE
  // model (see RunObservePaired), takes the median speedup over
  // kObservePairs independent runs, and reports the best observed batched
  // rate (interference on a shared box only ever slows a run down, so the
  // max estimates the machine's actual rate).
  constexpr int kObservePairs = 3;
  // Feedback delivery is fast enough that `total_ops` alone makes a
  // millisecond-scale run; stretch it so each measurement outlives a
  // scheduler quantum.
  const int64_t observe_ops = total_ops * 4;
  const auto make_mutex = [&]() {
    return std::make_unique<ConcurrentCostModel>(
        std::make_unique<MlqModel>(space, BenchConfig(budget)));
  };
  const auto make_sharded = [&]() {
    ShardedModelOptions options;
    options.num_shards = num_shards;
    options.queue_capacity = 4096;
    options.drain_batch = 256;
    return std::make_unique<ShardedCostModel>(space, BenchConfig(budget),
                                              options);
  };
  struct ObserveCell {
    double best_mops = 0.0;
    double speedup = 1.0;
  };
  const auto measure = [&](const auto& make_model, int batch) {
    ObserveCell cell;
    std::vector<double> ratios;
    for (int r = 0; r < kObservePairs; ++r) {
      auto model = make_model();
      const PairedObserveResult paired =
          RunObservePaired(*model, observe_ops, batch);
      cell.best_mops = std::max(cell.best_mops, batch == 1
                                                    ? paired.scalar_ops_per_sec
                                                    : paired.batch_ops_per_sec);
      ratios.push_back(batch == 1 ? 1.0 : paired.speedup);
    }
    std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                     ratios.end());
    cell.speedup = ratios[ratios.size() / 2];
    return cell;
  };
  for (const int batch : {1, 8, 64, 512}) {
    const ObserveCell mutex_cell = measure(make_mutex, batch);
    const ObserveCell sharded_cell = measure(make_sharded, batch);
    observe_table.AddRow({std::to_string(batch),
                          TablePrinter::Num(mutex_cell.best_mops / 1e6, 3),
                          TablePrinter::Num(sharded_cell.best_mops / 1e6, 3),
                          TablePrinter::Num(mutex_cell.speedup, 2),
                          TablePrinter::Num(sharded_cell.speedup, 2)});
  }
  observe_table.Print(std::cout);

  // Drift-adaptive serving: the same mixed workload against the sharded
  // model while the summary-decay clock ticks from a maintenance thread
  // (AdvanceDecayEpoch takes each shard's model lock in turn — the same
  // interleaving a MaintenanceScheduler drift burst produces under load).
  // Read the decay column against the off column: the gap is what
  // drift-adaptive serving costs at full serving concurrency.
  std::printf("\nDrift-adaptive serving (decay clock ticking under load):\n");
  TablePrinter drift_table({"threads", "decay off Mops/s",
                            "decay on Mops/s", "ratio", "epochs"});
  for (const int threads : thread_counts) {
    const int64_t ops_per_thread = total_ops / threads;

    const auto run_with_decay = [&](double half_life) {
      ShardedModelOptions options;
      options.num_shards = num_shards;
      options.queue_capacity = 4096;
      options.drain_batch = 256;
      MlqConfig config = BenchConfig(budget);
      config.decay_half_life = half_life;
      ShardedCostModel model(space, config, options);
      std::atomic<bool> done{false};
      int64_t epochs = 0;
      // One steady clock tick per ~2ms of serving; a real scheduler ticks
      // with traffic, but a fixed cadence keeps the table comparable
      // across thread counts.
      std::thread clock_thread([&]() {
        while (!done.load(std::memory_order_relaxed)) {
          if (half_life > 0.0) {
            model.AdvanceDecayEpoch(1);
            ++epochs;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
      const RunResult result =
          RunWorkload(model, threads, ops_per_thread, observe_fraction);
      done.store(true, std::memory_order_relaxed);
      clock_thread.join();
      return std::pair<RunResult, int64_t>(result, epochs);
    };

    const auto [off_result, off_epochs] = run_with_decay(0.0);
    const auto [on_result, on_epochs] = run_with_decay(8.0);
    drift_table.AddRow(
        {std::to_string(threads),
         TablePrinter::Num(off_result.ops_per_sec / 1e6, 3),
         TablePrinter::Num(on_result.ops_per_sec / 1e6, 3),
         TablePrinter::Num(on_result.ops_per_sec /
                               (off_result.ops_per_sec > 0.0
                                    ? off_result.ops_per_sec
                                    : 1.0),
                           2),
         std::to_string(on_epochs)});
  }
  drift_table.Print(std::cout);

  std::printf(
      "\nspeedup = sharded / mutex at the same thread count. The sharded\n"
      "model stripes the space across %d independently locked trees and\n"
      "queues feedback, so predictions only contend within one stripe.\n",
      num_shards);
  return mlq::MaybeWriteBenchJson(argc, argv, "concurrent_throughput");
}

}  // namespace
}  // namespace mlq

int main(int argc, char** argv) { return mlq::Main(argc, argv); }
