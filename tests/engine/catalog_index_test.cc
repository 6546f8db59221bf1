// CostCatalog's hashed entry index: concurrent first-touch registration
// must create exactly one entry per UDF while other threads serve through
// the lock-free lookup path and the index doubles underneath them;
// eviction must leave tombstones that survive growth and reload bit-
// exactly; and a lookup hit must never wait on the registration lock
// (this binary is a TSan tier-2 target).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/cost_catalog.h"
#include "eval/experiment_setup.h"
#include "model/sharded_model.h"

namespace mlq {
namespace {

std::vector<std::unique_ptr<RenamedUdf>> MakeFleet(int n, uint64_t seed) {
  std::vector<std::unique_ptr<RenamedUdf>> udfs;
  udfs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    udfs.push_back(std::make_unique<RenamedUdf>(
        "idx-" + std::to_string(seed) + "-" + std::to_string(i),
        MakePaperSyntheticUdf(/*num_peaks=*/10, /*noise_probability=*/0.0,
                              seed + static_cast<uint64_t>(i))));
  }
  return udfs;
}

// `ops` predicts (plus an execution feedback every 4th) against one model.
void Drive(CostCatalog& catalog, CostedUdf* udf,
           const std::vector<Point>& points, int ops) {
  for (int i = 0; i < ops; ++i) {
    const Point& p = points[static_cast<size_t>(i) % points.size()];
    catalog.PredictCostMicros(udf, p);
    if (i % 4 == 0) {
      catalog.RecordExecution(udf, p, udf->Execute(p), (i % 3) == 0);
    }
  }
}

// Four threads race to first-touch `fresh` unregistered UDFs, each under
// its own tenant and in its own order, while two more serve predictions
// and feedback on already-registered UDFs. Starting from the index's
// 32-key initial capacity, the registrations double it several times.
void RunFirstTouchStorm(CatalogConcurrency mode, int fresh) {
  constexpr int kTouchers = 4;
  constexpr int kServers = 2;
  constexpr int kWarm = 64;
  CostCatalog catalog(1800, mode, /*num_shards=*/1);
  auto warm = MakeFleet(kWarm, 1000);
  auto cold = MakeFleet(fresh, 5000);
  for (auto& u : warm) catalog.For(u.get(), "warm");
  const auto points = MakePaperWorkload(
      warm[0]->model_space(), QueryDistributionKind::kUniform, 128, 3);

  // seen[t][i]: the entry thread t got back for cold UDF i.
  std::vector<std::vector<const CostCatalog::Entry*>> seen(
      kTouchers, std::vector<const CostCatalog::Entry*>(cold.size()));
  std::atomic<int> touching{kTouchers};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTouchers; ++t) {
    threads.emplace_back([&, t]() {
      const std::string tenant = "t" + std::to_string(t);
      const size_t n = cold.size();
      for (size_t k = 0; k < n; ++k) {
        // Even threads walk forward from staggered offsets, odd threads
        // backward, so every UDF is contended from both directions.
        const size_t start = static_cast<size_t>(t) * n / kTouchers;
        const size_t i = t % 2 == 0 ? (start + k) % n : (start + n - k) % n;
        CostedUdf* udf = cold[i].get();
        seen[static_cast<size_t>(t)][i] = &catalog.For(udf, tenant);
        EXPECT_GE(catalog.PredictCostMicros(udf, points[k % points.size()]),
                  0.0);
      }
      touching.fetch_sub(1);
    });
  }
  for (int s = 0; s < kServers; ++s) {
    threads.emplace_back([&, s]() {
      for (int i = 0; touching.load() > 0 || i < 2000; ++i) {
        CostedUdf* udf = warm[static_cast<size_t>(i * 7 + s) % kWarm].get();
        const Point& p = points[static_cast<size_t>(i + s) % points.size()];
        EXPECT_GE(catalog.PredictCostMicros(udf, p), 0.0);
        EXPECT_GE(catalog.PredictSelectivity(udf, p), 0.01);
        if (i % 3 == s) {
          catalog.RecordExecution(udf, p, udf->Execute(p), (i % 2) == 0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  catalog.FlushFeedback();

  ASSERT_EQ(catalog.size(), kWarm + fresh);
  for (const auto* fleet : {&warm, &cold}) {
    for (const auto& u : *fleet) {
      const CostCatalog::Entry* entry = catalog.Find(u.get());
      ASSERT_NE(entry, nullptr) << u->name();
      EXPECT_EQ(entry->udf, u.get());
    }
  }
  // Every racer got the same entry back, and its tenant is the one
  // registered first.
  std::map<std::string, std::string> winner;
  for (size_t i = 0; i < cold.size(); ++i) {
    const CostCatalog::Entry* entry = catalog.Find(cold[i].get());
    for (int t = 0; t < kTouchers; ++t) {
      EXPECT_EQ(seen[static_cast<size_t>(t)][i], entry) << cold[i]->name();
    }
    winner[std::string(cold[i]->name())] = entry->tenant;
  }
  std::map<std::string, int> listed;
  for (const obs::ModelHealth& h : catalog.ReadModelHealth()) {
    ++listed[h.model];
    const auto it = winner.find(h.model);
    if (it == winner.end()) {
      EXPECT_EQ(h.tenant, "warm") << h.model;
    } else {
      EXPECT_EQ(h.tenant, it->second) << h.model;
      EXPECT_TRUE(h.tenant == "t0" || h.tenant == "t1" || h.tenant == "t2" ||
                  h.tenant == "t3")
          << h.model << " " << h.tenant;
    }
  }
  EXPECT_EQ(listed.size(), static_cast<size_t>(kWarm + fresh));
  for (const auto& [name, count] : listed) EXPECT_EQ(count, 1) << name;

  if (mode != CatalogConcurrency::kSharded) return;
  for (const auto* fleet : {&warm, &cold}) {
    for (const auto& u : *fleet) {
      const CostCatalog::Entry* entry = catalog.Find(u.get());
      for (const CostModel* model :
           {entry->cpu_model.get(), entry->io_model.get(),
            entry->selectivity_model.get()}) {
        const auto* sharded = dynamic_cast<const ShardedCostModel*>(model);
        ASSERT_NE(sharded, nullptr);
        const ShardedModelStats s = sharded->stats();
        EXPECT_EQ(s.observations_submitted,
                  s.observations_applied + s.observations_dropped)
            << u->name();
      }
    }
  }
}

TEST(CatalogIndexTest, ConcurrentFirstTouchRegistersOnceGlobalMutex) {
  RunFirstTouchStorm(CatalogConcurrency::kGlobalMutex, 4096);
}

TEST(CatalogIndexTest, ConcurrentFirstTouchRegistersOnceSharded) {
  // Every sharded model preallocates a 1024-slot (80 KiB) feedback ring,
  // so 4096 fresh UDFs would pin about 1 GiB; 512 still double the index
  // four times while the threads race.
  RunFirstTouchStorm(CatalogConcurrency::kSharded, 512);
}

TEST(CatalogIndexTest, EvictionTombstonesSurviveIndexGrowth) {
  auto udfs = MakeFleet(8, 53);
  CostCatalog catalog(1800);
  for (size_t i = 0; i < udfs.size(); ++i) {
    catalog.For(udfs[i].get(), "tenant-" + std::to_string(i % 3));
  }
  const auto points = MakePaperWorkload(
      udfs[0]->model_space(), QueryDistributionKind::kUniform, 256, 17);
  for (auto& u : udfs) Drive(catalog, u.get(), points, 1500);

  struct Before {
    std::vector<double> cost;
    std::vector<double> selectivity;
    std::string tenant;
    int64_t traffic = 0;
  };
  const std::vector<size_t> evict = {1, 4, 6};
  std::map<std::string, Before> before;
  for (const size_t i : evict) {
    CostedUdf* udf = udfs[i].get();
    Before& b = before[std::string(udf->name())];
    for (const Point& p : points) {
      b.cost.push_back(catalog.PredictCostMicros(udf, p));
      b.selectivity.push_back(catalog.PredictSelectivity(udf, p));
    }
  }
  for (const obs::ModelHealth& h : catalog.ReadModelHealth()) {
    const auto it = before.find(h.model);
    if (it == before.end()) continue;
    it->second.tenant = h.tenant;
    it->second.traffic = h.traffic;
  }

  for (const size_t i : evict) ASSERT_TRUE(catalog.EvictEntry(udfs[i].get()));
  EXPECT_EQ(catalog.evicted_count(), 3);
  for (const size_t i : evict) {
    EXPECT_EQ(catalog.Find(udfs[i].get()), nullptr);
    EXPECT_FALSE(catalog.EvictEntry(udfs[i].get()));  // Already gone.
  }

  // Register far past the initial index's 32-key capacity: the table
  // doubles three times while the evicted keys sit in it as tombstones.
  auto later = MakeFleet(200, 900);
  for (auto& u : later) catalog.For(u.get());
  EXPECT_EQ(catalog.size(), 5 + 200);
  EXPECT_EQ(catalog.evicted_count(), 3);

  // The next predicts reload every snapshot bit-identically.
  for (const size_t i : evict) {
    CostedUdf* udf = udfs[i].get();
    const Before& b = before[std::string(udf->name())];
    for (size_t k = 0; k < points.size(); ++k) {
      EXPECT_EQ(catalog.PredictCostMicros(udf, points[k]), b.cost[k]);
      EXPECT_EQ(catalog.PredictSelectivity(udf, points[k]),
                b.selectivity[k]);
    }
  }
  EXPECT_EQ(catalog.evicted_count(), 0);
  EXPECT_EQ(catalog.size(), 8 + 200);
  int reloaded = 0;
  for (const obs::ModelHealth& h : catalog.ReadModelHealth()) {
    const auto it = before.find(h.model);
    if (it == before.end()) continue;
    ++reloaded;
    EXPECT_EQ(h.tenant, it->second.tenant) << h.model;
    // Lifetime traffic resumes from the snapshot: the pre-eviction count
    // plus one cost and one selectivity predict per probe point.
    EXPECT_EQ(h.traffic,
              it->second.traffic + 2 * static_cast<int64_t>(points.size()))
        << h.model;
  }
  EXPECT_EQ(reloaded, 3);
  for (const auto* fleet : {&udfs, &later}) {
    for (const auto& u : *fleet) {
      const CostCatalog::Entry* entry = catalog.Find(u.get());
      ASSERT_NE(entry, nullptr) << u->name();
      EXPECT_EQ(entry->udf, u.get());
    }
  }
}

// A UDF whose model_space() parks the caller until released. The catalog
// reads it while registering the UDF, under entries_mutex_, so first-
// touching this UDF holds the registration lock open for as long as the
// test needs.
class GateUdf final : public CostedUdf {
 public:
  std::string_view name() const override { return "gate"; }
  Box model_space() const override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
    return Box::Cube(2, 0.0, 1.0);
  }
  UdfCost Execute(const Point& /*model_point*/) override { return {1.0, 0.0}; }

  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  bool released_ = false;
};

void ExpectHitsBypassRegistrationLock(CatalogConcurrency mode) {
  CostCatalog catalog(1800, mode, /*num_shards=*/1);
  auto udfs = MakeFleet(1, 7);
  CostedUdf* warm = udfs[0].get();
  const auto points = MakePaperWorkload(
      warm->model_space(), QueryDistributionKind::kUniform, 16, 5);
  Drive(catalog, warm, points, 64);

  GateUdf gate;
  std::thread registrar([&]() { catalog.For(&gate, "late"); });
  gate.WaitEntered();  // The registrar now holds entries_mutex_.
  auto hits = std::async(std::launch::async, [&]() {
    const bool found = catalog.Find(warm) != nullptr;
    const double cost = catalog.PredictCostMicros(warm, points[0]);
    const double selectivity = catalog.PredictSelectivity(warm, points[0]);
    return found && cost >= 0.0 && selectivity >= 0.01;
  });
  const bool finished =
      hits.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  gate.Release();
  registrar.join();
  EXPECT_TRUE(finished) << "a lookup hit waited for a registration";
  EXPECT_TRUE(hits.get());
  EXPECT_EQ(catalog.size(), 2);
  EXPECT_EQ(catalog.Find(&gate)->tenant, "late");
}

TEST(CatalogIndexTest, LookupHitsNeverWaitForRegistrationGlobalMutex) {
  ExpectHitsBypassRegistrationLock(CatalogConcurrency::kGlobalMutex);
}

TEST(CatalogIndexTest, LookupHitsNeverWaitForRegistrationSharded) {
  ExpectHitsBypassRegistrationLock(CatalogConcurrency::kSharded);
}

}  // namespace
}  // namespace mlq
