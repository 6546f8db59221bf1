// Engine-layer tests for variance-aware planning: confidence fields on
// Plan/PlannedPredicate, the k = 0 exact-reduction contract at the plan
// level, the catalog's stats/scalar value identity, EXPLAIN's confidence
// output, audit confidence coverage, and the risk-aware join planner.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/cost_catalog.h"
#include "engine/estimate_audit.h"
#include "engine/executor.h"
#include "engine/join_query.h"
#include "engine/query_optimizer.h"
#include "engine/table.h"
#include "engine/udf_predicate.h"
#include "eval/experiment_setup.h"

namespace mlq {
namespace {

class RiskPlanTest : public ::testing::Test {
 protected:
  RiskPlanTest()
      : suite_(MakeRealUdfSuite(SubstrateScale::kSmall)),
        table_("docs_and_places", {"kw1", "kw2", "x", "y"}) {
    Rng rng(7);
    const auto vocab =
        static_cast<double>(suite_.text_engine->index().vocab_size());
    for (int i = 0; i < 300; ++i) {
      table_.AddRow(std::vector<double>{
          std::floor(rng.Uniform(1.0, vocab)),
          std::floor(rng.Uniform(1.0, vocab)),
          rng.Uniform(0.0, 1000.0),
          rng.Uniform(0.0, 1000.0),
      });
    }
  }

  std::unique_ptr<UdfPredicate> MakeProxPredicate() {
    return std::make_unique<UdfPredicate>(
        "Contains", suite_.Find("PROX"),
        std::vector<int>{table_.ColumnIndex("kw1"), table_.ColumnIndex("kw2"),
                         -1},
        Point{0.0, 0.0, 30.0}, /*min_result_count=*/1);
  }

  std::unique_ptr<UdfPredicate> MakeWinPredicate() {
    return std::make_unique<UdfPredicate>(
        "InUrbanArea", suite_.Find("WIN"),
        std::vector<int>{table_.ColumnIndex("x"), table_.ColumnIndex("y"), -1,
                         -1},
        Point{0.0, 0.0, 120.0, 120.0}, /*min_result_count=*/5);
  }

  Query MakeQuery(const UdfPredicate* a, const UdfPredicate* b) {
    Query query;
    query.table = &table_;
    query.predicates = {a, b};
    return query;
  }

  // Trains the catalog's models with real execution feedback.
  void Warm(const Query& query, CostCatalog& catalog, int rounds = 2) {
    for (int i = 0; i < rounds; ++i) {
      const Plan plan = PlanQuery(query, catalog);
      ExecuteQuery(query, plan, &catalog);
      catalog.FlushFeedback();
    }
  }

  RealUdfSuite suite_;
  Table table_;
};

TEST_F(RiskPlanTest, ZeroKPlanIsIdenticalToClassical) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  const Query query = MakeQuery(prox.get(), win.get());
  CostCatalog catalog(1800);
  Warm(query, catalog);

  const Plan classical = PlanQuery(query, catalog);
  const Plan zero_k = PlanQuery(query, catalog, /*sample_rows=*/32,
                                /*planner_threads=*/1, /*risk_k=*/0.0);
  EXPECT_EQ(zero_k.order, classical.order);
  EXPECT_EQ(zero_k.expected_cost_per_row_micros,
            classical.expected_cost_per_row_micros);
  EXPECT_DOUBLE_EQ(zero_k.risk_k, 0.0);
  ASSERT_EQ(zero_k.estimates.size(), classical.estimates.size());
  for (size_t i = 0; i < zero_k.estimates.size(); ++i) {
    EXPECT_EQ(zero_k.estimates[i].estimated_cost_micros,
              classical.estimates[i].estimated_cost_micros);
    EXPECT_EQ(zero_k.estimates[i].estimated_selectivity,
              classical.estimates[i].estimated_selectivity);
  }
}

TEST_F(RiskPlanTest, WarmRiskPlanPopulatesConfidenceFields) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  const Query query = MakeQuery(prox.get(), win.get());
  CostCatalog catalog(1800);
  Warm(query, catalog);

  const Plan plan = PlanQuery(query, catalog, /*sample_rows=*/32,
                              /*planner_threads=*/1, /*risk_k=*/1.5);
  EXPECT_DOUBLE_EQ(plan.risk_k, 1.5);
  ASSERT_EQ(plan.estimates.size(), 2u);
  for (const PlannedPredicate& e : plan.estimates) {
    EXPECT_FALSE(std::isnan(e.estimated_cost_stddev));
    EXPECT_GE(e.estimated_cost_stddev, 0.0);
    EXPECT_FALSE(std::isnan(e.estimated_selectivity_stddev));
    EXPECT_GE(e.estimated_selectivity_stddev, 0.0);
    // The models have absorbed execution feedback, so the estimates must
    // be supported by observations.
    EXPECT_GT(e.support, 0);
    EXPECT_DOUBLE_EQ(e.CostConfidenceHalfWidthMicros(),
                     1.96 * e.estimated_cost_stddev);
  }
  // Risk-adjusted costs pad every predicate's mean upward (or not at
  // all), so the risk total can never undercut the expected total of the
  // same order.
  EXPECT_GE(plan.risk_cost_per_row_micros,
            plan.expected_cost_per_row_micros);
}

TEST_F(RiskPlanTest, ExplainReportsConfidenceAndRisk) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  const Query query = MakeQuery(prox.get(), win.get());
  CostCatalog catalog(1800);
  Warm(query, catalog);

  const Plan risk = PlanQuery(query, catalog, 32, 1, /*risk_k=*/2.0);
  const std::string risk_text = risk.Explain();
  EXPECT_NE(risk_text.find("risk(k=2.00)"), std::string::npos) << risk_text;
  EXPECT_NE(risk_text.find("+/-"), std::string::npos) << risk_text;

  const Plan classical = PlanQuery(query, catalog);
  const std::string classical_text = classical.Explain();
  EXPECT_EQ(classical_text.find("risk(k="), std::string::npos)
      << classical_text;
  // Per-predicate confidence intervals print regardless of the knob.
  EXPECT_NE(classical_text.find("+/-"), std::string::npos) << classical_text;
}

TEST_F(RiskPlanTest, CatalogStatsValueMatchesScalarBitwise) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  const Query query = MakeQuery(prox.get(), win.get());
  CostCatalog catalog(1800);
  Warm(query, catalog);

  for (const UdfPredicate* predicate : {prox.get(), win.get()}) {
    std::vector<Point> points;
    for (int64_t row = 0; row < table_.num_rows(); row += 10) {
      points.push_back(predicate->ModelPointFor(table_.Row(row)));
    }
    // Batched stats against batched values and against the scalar calls,
    // point at a time. (Stddev may fold in the windowed-actuals
    // cross-check; the VALUE must never move.)
    std::vector<double> cost_scalar(points.size());
    std::vector<CostEstimate> cost_stats(points.size());
    std::vector<double> sel_scalar(points.size());
    std::vector<CostEstimate> sel_stats(points.size());
    catalog.PredictCostMicrosBatch(predicate->udf(), points, cost_scalar);
    catalog.PredictCostStatsBatch(predicate->udf(), points, cost_stats);
    catalog.PredictSelectivityBatch(predicate->udf(), points, sel_scalar);
    catalog.PredictSelectivityStatsBatch(predicate->udf(), points, sel_stats);
    for (size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(cost_stats[i].value, cost_scalar[i]) << "point " << i;
      EXPECT_EQ(cost_stats[i].value,
                catalog.PredictCostMicros(predicate->udf(), points[i]))
          << "point " << i;
      EXPECT_FALSE(std::isnan(cost_stats[i].stddev));
      EXPECT_GE(cost_stats[i].stddev, 0.0);
      EXPECT_EQ(sel_stats[i].value, sel_scalar[i]) << "point " << i;
      EXPECT_EQ(sel_stats[i].value,
                catalog.PredictSelectivity(predicate->udf(), points[i]))
          << "point " << i;
    }
  }
}

TEST_F(RiskPlanTest, AuditReportsConfidenceCoverage) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  const Query query = MakeQuery(prox.get(), win.get());
  CostCatalog catalog(1800);
  Warm(query, catalog, /*rounds=*/3);

  const Plan plan = PlanQuery(query, catalog, 32, 1, /*risk_k=*/1.0);
  ExecuteQuery(query, plan, &catalog);
  catalog.FlushFeedback();

  const PlanAudit audit = AuditPlan(query, plan, catalog, /*sample_rows=*/32);
  // Execution feedback populated the windowed actuals, so coverage is
  // defined and must be a valid fraction.
  ASSERT_GE(audit.confidence_coverage, 0.0);
  EXPECT_LE(audit.confidence_coverage, 1.0);
  EXPECT_NE(audit.ToString().find("confidence coverage"), std::string::npos);
  for (const PredicateAudit& p : audit.predicates) {
    EXPECT_GE(p.estimated_cost_stddev, 0.0);
    EXPECT_FALSE(std::isnan(p.estimated_cost_stddev));
  }
}

TEST_F(RiskPlanTest, WindowedWithinConfidenceEdgeCases) {
  PredicateAudit audit;
  audit.estimated_cost_micros = 100.0;
  audit.windowed_cost_micros = 100.0;
  audit.estimated_cost_stddev = 0.0;
  // No windowed observations: coverage is undefined for this predicate.
  audit.windowed_observations = 0;
  EXPECT_FALSE(audit.WindowedWithinConfidence());
  // Exact agreement sits inside even a degenerate (zero-width) interval.
  audit.windowed_observations = 5;
  EXPECT_TRUE(audit.WindowedWithinConfidence());
  // One stddev off with a ~2-stddev half-width: inside.
  audit.estimated_cost_stddev = 10.0;
  audit.windowed_cost_micros = 110.0;
  EXPECT_TRUE(audit.WindowedWithinConfidence());
  // Three stddev off: outside.
  audit.windowed_cost_micros = 130.0;
  EXPECT_FALSE(audit.WindowedWithinConfidence());
}

TEST_F(RiskPlanTest, RiskAwareAdaptiveExecutionMatchesResults) {
  auto prox = MakeProxPredicate();
  auto win = MakeWinPredicate();
  const Query query = MakeQuery(prox.get(), win.get());

  CostCatalog classical_catalog(1800);
  const ExecutionStats classical = ExecuteQueryAdaptiveBatched(
      query, classical_catalog, /*block_rows=*/64);
  CostCatalog risk_catalog(1800);
  const ExecutionStats risk = ExecuteQueryAdaptiveBatched(
      query, risk_catalog, /*block_rows=*/64, /*risk_k=*/1.5);
  // Risk awareness reorders work; it must never change the result set.
  EXPECT_EQ(risk.rows_out, classical.rows_out);
}

// ---------------------------------------------------------------------------
// Join planner.

class RiskJoinTest : public ::testing::Test {
 protected:
  RiskJoinTest()
      : suite_(MakeRealUdfSuite(SubstrateScale::kSmall)),
        docs_("docs", {"doc_key", "kw1", "kw2"}),
        places_("places", {"place_key", "x", "y"}) {
    Rng rng(11);
    const auto vocab =
        static_cast<double>(suite_.text_engine->index().vocab_size());
    for (int i = 0; i < 200; ++i) {
      docs_.AddRow(std::vector<double>{static_cast<double>(i % 20),
                                       std::floor(rng.Uniform(1.0, vocab)),
                                       std::floor(rng.Uniform(1.0, vocab))});
    }
    for (int i = 0; i < 100; ++i) {
      places_.AddRow(std::vector<double>{static_cast<double>(i % 20),
                                         rng.Uniform(0.0, 1000.0),
                                         rng.Uniform(0.0, 1000.0)});
    }
  }

  RealUdfSuite suite_;
  Table docs_;
  Table places_;
};

TEST_F(RiskJoinTest, ZeroKJoinPlanIsIdenticalToClassical) {
  UdfPredicate prox("Contains", suite_.Find("PROX"), std::vector<int>{1, 2, -1},
                    Point{0.0, 0.0, 30.0}, 1);
  UdfPredicate win("InUrbanArea", suite_.Find("WIN"),
                   std::vector<int>{1, 2, -1, -1}, Point{0.0, 0.0, 120.0, 120.0},
                   5);
  JoinQuery query;
  query.left = &docs_;
  query.right = &places_;
  query.left_join_column = 0;
  query.right_join_column = 0;
  query.left_predicates = {&prox};
  query.right_predicates = {&win};

  CostCatalog catalog(1800);
  const JoinPlan classical = PlanJoinQuery(query, catalog);
  const JoinPlan zero_k =
      PlanJoinQuery(query, catalog, /*sample_rows=*/32, /*risk_k=*/0.0);
  EXPECT_EQ(zero_k.left_before, classical.left_before);
  EXPECT_EQ(zero_k.right_before, classical.right_before);
  EXPECT_DOUBLE_EQ(zero_k.risk_k, 0.0);
}

TEST_F(RiskJoinTest, RiskJoinPlanExecutesAndPreservesResults) {
  UdfPredicate prox("Contains", suite_.Find("PROX"), std::vector<int>{1, 2, -1},
                    Point{0.0, 0.0, 30.0}, 1);
  UdfPredicate win("InUrbanArea", suite_.Find("WIN"),
                   std::vector<int>{1, 2, -1, -1}, Point{0.0, 0.0, 120.0, 120.0},
                   5);
  JoinQuery query;
  query.left = &docs_;
  query.right = &places_;
  query.left_join_column = 0;
  query.right_join_column = 0;
  query.left_predicates = {&prox};
  query.right_predicates = {&win};

  CostCatalog catalog(1800);
  const JoinPlan classical = PlanJoinQuery(query, catalog);
  const ExecutionStats classical_stats =
      ExecuteJoinQuery(query, classical, &catalog);
  catalog.FlushFeedback();

  const JoinPlan risk =
      PlanJoinQuery(query, catalog, /*sample_rows=*/32, /*risk_k=*/2.0);
  EXPECT_DOUBLE_EQ(risk.risk_k, 2.0);
  ASSERT_EQ(risk.left_before.size(), 1u);
  ASSERT_EQ(risk.right_before.size(), 1u);
  const ExecutionStats risk_stats = ExecuteJoinQuery(query, risk, &catalog);
  // Placement is a performance decision, never a correctness one.
  EXPECT_EQ(risk_stats.rows_out, classical_stats.rows_out);
  EXPECT_NE(risk.Explain(query).find("risk k=2.00"), std::string::npos);
}

}  // namespace
}  // namespace mlq
