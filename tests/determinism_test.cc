// Seed-determinism: the whole pipeline — world construction, walks, local
// sub-sampling, fault injection, estimation — is a pure function of its
// seeds. Two runs against identically constructed networks with the same
// seed must produce bit-identical answers, with and without an installed
// FaultPlan. This is what makes the statistical suite reproducible: a red
// verdict can always be replayed exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/async_engine.h"
#include "core/multi_query.h"
#include "net/adversary.h"
#include "net/fault.h"
#include "test_common.h"
#include "util/parallel.h"

namespace p2paqp {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

TestNetworkParams SmallParams() {
  TestNetworkParams params;
  params.num_peers = 400;
  params.num_edges = 2000;
  params.cut_edges = 100;
  params.tuples_per_peer = 30;
  params.seed = 616;
  return params;
}

query::AggregateQuery CountQuery() {
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, 30};
  q.required_error = 0.1;
  return q;
}

// EXPECT_EQ on doubles is exact (bitwise for non-NaN values), which is the
// point: identical seeds must replay identical arithmetic.
void ExpectIdentical(const core::ApproximateAnswer& a,
                     const core::ApproximateAnswer& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.variance, b.variance);
  EXPECT_EQ(a.ci_half_width_95, b.ci_half_width_95);
  EXPECT_EQ(a.estimated_total, b.estimated_total);
  EXPECT_EQ(a.cv_error_relative, b.cv_error_relative);
  EXPECT_EQ(a.phase1_peers, b.phase1_peers);
  EXPECT_EQ(a.phase2_peers, b.phase2_peers);
  EXPECT_EQ(a.sample_tuples, b.sample_tuples);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.observations_lost, b.observations_lost);
  EXPECT_EQ(a.walk_restarts, b.walk_restarts);
  EXPECT_EQ(a.achieved_error, b.achieved_error);
  EXPECT_EQ(a.suspected_peers, b.suspected_peers);
  EXPECT_EQ(a.trimmed_mass, b.trimmed_mass);
  EXPECT_EQ(a.duplicate_replies, b.duplicate_replies);
  EXPECT_EQ(a.deadline_hit, b.deadline_hit);
  EXPECT_EQ(a.hedges_sent, b.hedges_sent);
  EXPECT_EQ(a.stragglers_skipped, b.stragglers_skipped);
  EXPECT_EQ(a.cost.peers_visited, b.cost.peers_visited);
  EXPECT_EQ(a.cost.walker_hops, b.cost.walker_hops);
  EXPECT_EQ(a.cost.messages, b.cost.messages);
  EXPECT_EQ(a.cost.bytes_shipped, b.cost.bytes_shipped);
  EXPECT_EQ(a.cost.tuples_scanned, b.cost.tuples_scanned);
  EXPECT_EQ(a.cost.tuples_sampled, b.cost.tuples_sampled);
  EXPECT_EQ(a.cost.latency_ms, b.cost.latency_ms);
}

core::ApproximateAnswer RunOnce(TestNetwork& tn, uint64_t seed,
                                const net::FaultPlan* plan,
                                uint64_t plan_seed) {
  if (plan != nullptr) tn.network.InstallFaultPlan(*plan, plan_seed);
  core::EngineParams params;
  params.phase1_peers = 30;
  params.max_phase2_peers = 120;
  core::TwoPhaseEngine engine(&tn.network, tn.catalog, params);
  util::Rng rng(seed);
  auto answer = engine.Execute(CountQuery(), /*sink=*/0, rng);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return *answer;
}

TEST(DeterminismTest, FaultFreeRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  auto first = RunOnce(a, 99, nullptr, 0);
  auto second = RunOnce(b, 99, nullptr, 0);
  ExpectIdentical(first, second);
}

TEST(DeterminismTest, DifferentSeedsActuallyDiffer) {
  // Guards against ExpectIdentical trivially passing because the pipeline
  // ignores its seed.
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  auto first = RunOnce(a, 99, nullptr, 0);
  auto second = RunOnce(b, 100, nullptr, 0);
  EXPECT_NE(first.estimate, second.estimate);
}

TEST(DeterminismTest, AllZeroFaultPlanIsAStrictNoOp) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  net::FaultPlan zero;
  auto bare = RunOnce(a, 99, nullptr, 0);
  auto with_zero_plan = RunOnce(b, 99, &zero, 31337);
  ExpectIdentical(bare, with_zero_plan);
}

TEST(DeterminismTest, LossyRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  net::FaultPlan plan;
  plan.drop_probability = 0.2;
  auto first = RunOnce(a, 99, &plan, 777);
  auto second = RunOnce(b, 99, &plan, 777);
  ExpectIdentical(first, second);
  // The plan must actually bite for this test to mean anything.
  EXPECT_GT(first.cost.messages, 0u);
}

TEST(DeterminismTest, AsyncSessionRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  auto run = [](TestNetwork& tn) {
    core::AsyncParams params;
    params.engine.phase1_peers = 30;
    params.engine.max_phase2_peers = 120;
    params.walkers = 4;
    params.walk.jump = tn.catalog.suggested_jump;
    params.walk.burn_in = tn.catalog.suggested_burn_in;
    core::AsyncQuerySession session(&tn.network, tn.catalog, params);
    util::Rng rng(55);
    auto q = CountQuery();
    auto report = session.Execute(q, /*sink=*/0, rng);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : core::AsyncQueryReport{};
  };
  auto first = run(a);
  auto second = run(b);
  ExpectIdentical(first.answer, second.answer);
  EXPECT_EQ(first.makespan_ms, second.makespan_ms);
  EXPECT_EQ(first.phase1_done_ms, second.phase1_done_ms);
  EXPECT_EQ(first.events, second.events);
}

TEST(DeterminismTest, AsyncLossyRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  net::FaultPlan plan;
  plan.drop_probability = 0.15;
  auto run = [&](TestNetwork& tn) {
    tn.network.InstallFaultPlan(plan, 4040);
    core::AsyncParams params;
    params.engine.phase1_peers = 30;
    params.engine.max_phase2_peers = 120;
    params.walkers = 4;
    params.walk.jump = tn.catalog.suggested_jump;
    params.walk.burn_in = tn.catalog.suggested_burn_in;
    core::AsyncQuerySession session(&tn.network, tn.catalog, params);
    util::Rng rng(56);
    auto q = CountQuery();
    auto report = session.Execute(q, /*sink=*/0, rng);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : core::AsyncQueryReport{};
  };
  auto first = run(a);
  auto second = run(b);
  ExpectIdentical(first.answer, second.answer);
  EXPECT_EQ(first.makespan_ms, second.makespan_ms);
}

// The straggler regime a resilient anytime query runs against: a heavy
// Pareto tail plus a 10% slow coalition, answered under a deadline with the
// full StragglerPolicy (Walk-Not-Wait, health breaker, hedging, backoff).
net::FaultPlan StragglerFaultPlan() {
  net::FaultPlan plan;
  plan.tail = net::LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 1.1;
  plan.slow_fraction = 0.1;
  plan.slow_factor = 20.0;
  plan.crash_immune = {0};  // The sink.
  return plan;
}

core::AsyncParams ResilientAnytimeParams(const core::SystemCatalog& catalog,
                                         double deadline_ms) {
  core::AsyncParams params;
  params.engine.phase1_peers = 30;
  params.engine.max_phase2_peers = 120;
  params.engine.straggler.walk_not_wait = true;
  params.engine.straggler.health_tracking = true;
  params.engine.straggler.hedged_replies = true;
  params.engine.straggler.exponential_backoff = true;
  params.engine.deadline_ms = deadline_ms;
  params.walkers = 4;
  params.walk.jump = catalog.suggested_jump;
  params.walk.burn_in = catalog.suggested_burn_in;
  return params;
}

TEST(DeterminismTest, StragglerAnytimeRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  auto run = [](TestNetwork& tn) {
    tn.network.InstallFaultPlan(StragglerFaultPlan(), 4242);
    core::AsyncQuerySession session(
        &tn.network, tn.catalog,
        ResilientAnytimeParams(tn.catalog, /*deadline_ms=*/20000.0));
    util::Rng rng(57);
    auto q = CountQuery();
    auto report = session.Execute(q, /*sink=*/0, rng);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : core::AsyncQueryReport{};
  };
  auto first = run(a);
  auto second = run(b);
  ExpectIdentical(first.answer, second.answer);
  EXPECT_EQ(first.makespan_ms, second.makespan_ms);
  EXPECT_EQ(first.phase1_done_ms, second.phase1_done_ms);
  EXPECT_EQ(first.events, second.events);
  // The rerun exercised the resilience machinery, not a quiet fallback.
  EXPECT_GT(first.answer.hedges_sent + first.answer.stragglers_skipped, 0u);
}

// A non-trivial adversary regime: 15% of peers inflating degree, scaling
// aggregates, replaying replies and hijacking walks at once, composed with a
// lossy fault plan, defended by the full RobustnessPolicy.
net::AdversaryPlan NastyAdversaryPlan() {
  net::AdversaryPlan plan;
  plan.adversary_fraction = 0.15;
  plan.immune = {0};  // The sink.
  plan.degree_factor = 3.0;
  plan.value_scale = 5.0;
  plan.outlier_probability = 0.2;
  plan.replay_copies = 2;
  // Hijack is deliberately off here: combined with degree inflation it traps
  // the walk inside the coalition, the audit then (correctly) rejects the
  // entire sample, and the query fails Unavailable. Hijack determinism has
  // its own test below.
  plan.hijack_walk = false;
  return plan;
}

core::RobustnessPolicy FullDefensePolicy() {
  core::RobustnessPolicy policy;
  policy.estimator = core::RobustEstimatorKind::kWinsorized;
  policy.trim_fraction = 0.05;
  policy.mad_cutoff = 6.0;
  policy.degree_audit_probes = 3;
  return policy;
}

TEST(DeterminismTest, AllZeroAdversaryPlanIsAStrictNoOp) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  auto bare = RunOnce(a, 99, nullptr, 0);
  b.network.InstallAdversaryPlan(net::AdversaryPlan{}, 31337);
  EXPECT_EQ(b.network.adversary(), nullptr);
  auto with_zero_plan = RunOnce(b, 99, nullptr, 0);
  ExpectIdentical(bare, with_zero_plan);
}

TEST(DeterminismTest, AdversarialRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  net::FaultPlan faults;
  faults.drop_probability = 0.1;
  auto run = [&](TestNetwork& tn) {
    tn.network.InstallFaultPlan(faults, 777);
    tn.network.InstallAdversaryPlan(NastyAdversaryPlan(), 888);
    core::EngineParams params;
    params.phase1_peers = 30;
    params.max_phase2_peers = 120;
    params.robustness = FullDefensePolicy();
    core::TwoPhaseEngine engine(&tn.network, tn.catalog, params);
    util::Rng rng(99);
    auto answer = engine.Execute(CountQuery(), /*sink=*/0, rng);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? *answer : core::ApproximateAnswer{};
  };
  auto first = run(a);
  auto second = run(b);
  ExpectIdentical(first, second);
  // The regime must actually bite for the replay to mean anything.
  EXPECT_GT(a.network.adversary()->replays_injected(), 0u);
}

TEST(DeterminismTest, HijackedWalkRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  net::AdversaryPlan plan;
  plan.adversary_fraction = 0.15;
  plan.immune = {0};
  plan.hijack_walk = true;
  plan.value_scale = 5.0;  // Honest degrees: the audit passes everybody.
  auto run = [&](TestNetwork& tn) {
    tn.network.InstallAdversaryPlan(plan, 555);
    core::EngineParams params;
    params.phase1_peers = 30;
    params.max_phase2_peers = 120;
    params.robustness = FullDefensePolicy();
    core::TwoPhaseEngine engine(&tn.network, tn.catalog, params);
    util::Rng rng(99);
    auto answer = engine.Execute(CountQuery(), /*sink=*/0, rng);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return answer.ok() ? *answer : core::ApproximateAnswer{};
  };
  auto first = run(a);
  auto second = run(b);
  ExpectIdentical(first, second);
  EXPECT_GT(a.network.adversary()->hops_hijacked(), 0u);
}

TEST(DeterminismTest, AsyncAdversarialRerunIsBitIdentical) {
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  net::FaultPlan faults;
  faults.drop_probability = 0.1;
  auto run = [&](TestNetwork& tn) {
    tn.network.InstallFaultPlan(faults, 4040);
    tn.network.InstallAdversaryPlan(NastyAdversaryPlan(), 888);
    core::AsyncParams params;
    params.engine.phase1_peers = 30;
    params.engine.max_phase2_peers = 120;
    params.engine.robustness = FullDefensePolicy();
    params.walkers = 4;
    params.walk.jump = tn.catalog.suggested_jump;
    params.walk.burn_in = tn.catalog.suggested_burn_in;
    core::AsyncQuerySession session(&tn.network, tn.catalog, params);
    util::Rng rng(56);
    auto q = CountQuery();
    auto report = session.Execute(q, /*sink=*/0, rng);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : core::AsyncQueryReport{};
  };
  auto first = run(a);
  auto second = run(b);
  ExpectIdentical(first.answer, second.answer);
  EXPECT_EQ(first.makespan_ms, second.makespan_ms);
  EXPECT_EQ(first.events, second.events);
}

// PR-3 contract composed with the adversary layer: parallel replicates over
// per-replicate clones (each carrying the adversary + fault plans, re-seeded
// from the clone seed) are bit-identical for any P2PAQP_THREADS.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv("P2PAQP_THREADS");
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    ::setenv("P2PAQP_THREADS", value, 1);
  }
  ~ScopedThreads() {
    if (had_old_) {
      ::setenv("P2PAQP_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("P2PAQP_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// PR-5 contract: the multi-query scheduler (shared sample frame, batched
// walkers, cached local results) replays bit-identically — across batches,
// so frame reuse and top-ups are covered, not just the cold path.
TEST(DeterminismTest, SchedulerRerunIsBitIdentical) {
  auto run = [](TestNetwork& tn) {
    core::FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
    core::SchedulerParams params;
    params.engine.phase1_peers = 30;
    params.engine.max_phase2_peers = 120;
    params.walk.jump = tn.catalog.suggested_jump;
    params.walk.burn_in = tn.catalog.suggested_burn_in;
    core::QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
    std::vector<query::AggregateQuery> queries;
    for (int hi : {20, 40, 60}) {
      query::AggregateQuery q = CountQuery();
      q.predicate = {1, hi};
      queries.push_back(q);
    }
    util::Rng rng(321);
    std::vector<core::BatchResult> batches;
    batches.push_back(scheduler.ExecuteBatch(queries, /*sink=*/0, rng));
    batches.push_back(scheduler.ExecuteBatch(queries, /*sink=*/0, rng));
    return batches;
  };
  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  auto first = run(a);
  auto second = run(b);
  ASSERT_EQ(first.size(), second.size());
  for (size_t batch = 0; batch < first.size(); ++batch) {
    ASSERT_EQ(first[batch].answers.size(), second[batch].answers.size());
    for (size_t i = 0; i < first[batch].answers.size(); ++i) {
      ASSERT_TRUE(first[batch].answers[i].ok());
      ASSERT_TRUE(second[batch].answers[i].ok());
      ExpectIdentical(*first[batch].answers[i], *second[batch].answers[i]);
    }
    EXPECT_EQ(first[batch].cost.messages, second[batch].cost.messages);
    EXPECT_EQ(first[batch].cost.bytes_shipped,
              second[batch].cost.bytes_shipped);
    EXPECT_EQ(first[batch].cost.latency_ms, second[batch].cost.latency_ms);
    EXPECT_EQ(first[batch].frame.frame_hits, second[batch].frame.frame_hits);
    EXPECT_EQ(first[batch].frame.frame_misses,
              second[batch].frame.frame_misses);
  }
  // The warm batch must actually reuse the frame, or the replay check
  // never exercises the reuse path.
  EXPECT_GT(first[1].frame.frame_hits, 0u);
}

TEST(DeterminismTest, AdversarialReplicatesAreThreadCountInvariant) {
  TestNetwork base = MakeTestNetwork(SmallParams());
  net::FaultPlan faults;
  faults.drop_probability = 0.05;
  base.network.InstallFaultPlan(faults, 777);
  base.network.InstallAdversaryPlan(NastyAdversaryPlan(), 888);

  auto run_replicates = [&base](const char* threads) {
    ScopedThreads scoped(threads);
    return util::ParallelMap(8, [&base](size_t rep) {
      net::SimulatedNetwork network = base.network.Clone(5000 + rep);
      core::EngineParams params;
      params.phase1_peers = 30;
      params.max_phase2_peers = 120;
      params.robustness = FullDefensePolicy();
      core::TwoPhaseEngine engine(&network, base.catalog, params);
      util::Rng rng(100 + rep);
      auto answer = engine.Execute(CountQuery(), /*sink=*/0, rng);
      return answer.ok() ? answer->estimate : -1.0;
    });
  };
  std::vector<double> one = run_replicates("1");
  std::vector<double> two = run_replicates("2");
  std::vector<double> eight = run_replicates("8");
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  // Replicates with different clone seeds must differ (the adversary set is
  // redrawn per clone), or the comparison above is vacuous.
  EXPECT_NE(one[0], one[1]);
}

// Scheduler batches replicated under ParallelMap must be invariant to
// P2PAQP_THREADS: the batch result (all estimates plus the shared frame's
// hit count) may depend only on the replicate seed, never on how replicates
// are packed onto worker threads.
TEST(DeterminismTest, SchedulerReplicatesAreThreadCountInvariant) {
  TestNetwork base = MakeTestNetwork(SmallParams());

  auto run_replicates = [&base](const char* threads) {
    ScopedThreads scoped(threads);
    return util::ParallelMap(8, [&base](size_t rep) {
      net::SimulatedNetwork network = base.network.Clone(6000 + rep);
      core::FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
      core::SchedulerParams params;
      params.engine.phase1_peers = 30;
      params.engine.max_phase2_peers = 120;
      params.walk.jump = base.catalog.suggested_jump;
      params.walk.burn_in = base.catalog.suggested_burn_in;
      core::QueryScheduler scheduler(&network, base.catalog, params, &cache);
      std::vector<query::AggregateQuery> queries;
      for (int hi : {20, 40, 60}) {
        query::AggregateQuery q = CountQuery();
        q.predicate = {1, hi};
        queries.push_back(q);
      }
      util::Rng rng(200 + rep);
      // Two batches so the warm frame-reuse path is in the fingerprint too.
      core::BatchResult cold = scheduler.ExecuteBatch(queries, /*sink=*/0, rng);
      core::BatchResult warm = scheduler.ExecuteBatch(queries, /*sink=*/0, rng);
      double fingerprint = static_cast<double>(warm.frame.frame_hits);
      for (const auto& batch : {cold, warm}) {
        for (const auto& answer : batch.answers) {
          fingerprint = fingerprint * 1e-3 +
                        (answer.ok() ? answer->estimate : -1.0);
        }
      }
      return fingerprint;
    });
  };
  std::vector<double> one = run_replicates("1");
  std::vector<double> two = run_replicates("2");
  std::vector<double> eight = run_replicates("8");
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one[0], one[1]);  // Distinct clone seeds: non-vacuous check.
}

// Anytime answers under the full straggler stack must be invariant to
// P2PAQP_THREADS: per-replicate clones redraw the coalition and the tail
// stream from the clone seed, so the deadline verdict, the hedge/skip
// counts and the estimate may depend only on that seed — never on how the
// replicates are packed onto worker threads.
TEST(DeterminismTest, AnytimeReplicatesAreThreadCountInvariant) {
  TestNetwork base = MakeTestNetwork(SmallParams());
  base.network.InstallFaultPlan(StragglerFaultPlan(), 4242);

  auto run_replicates = [&base](const char* threads) {
    ScopedThreads scoped(threads);
    return util::ParallelMap(8, [&base](size_t rep) {
      net::SimulatedNetwork network = base.network.Clone(7000 + rep);
      core::AsyncQuerySession session(
          &network, base.catalog,
          ResilientAnytimeParams(base.catalog, /*deadline_ms=*/12000.0));
      util::Rng rng(300 + rep);
      auto q = CountQuery();
      auto report = session.Execute(q, /*sink=*/0, rng);
      if (!report.ok()) return -1.0;
      // Fingerprint the whole anytime outcome, not just the estimate.
      return report->answer.estimate + report->makespan_ms * 1e-9 +
             (report->answer.deadline_hit ? 1e6 : 0.0) +
             static_cast<double>(report->answer.hedges_sent +
                                 report->answer.stragglers_skipped);
    });
  };
  std::vector<double> one = run_replicates("1");
  std::vector<double> two = run_replicates("2");
  std::vector<double> eight = run_replicates("8");
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one[0], one[1]);  // Distinct clone seeds: non-vacuous check.
}

// Scheduler batches under the straggler stack: a Pareto tail, a slow
// coalition and 5% drops, with hedged batched replies and jittered
// exponential backoff on their retries. Two batches replay bit-identically,
// and replicates over clones give the same result for any P2PAQP_THREADS.
TEST(DeterminismTest, SchedulerStragglerBatchesReplayForAnyThreadCount) {
  auto run = [](net::SimulatedNetwork* network,
                const core::SystemCatalog& catalog, uint64_t seed) {
    core::FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
    core::SchedulerParams params;
    params.engine.phase1_peers = 30;
    params.engine.max_phase2_peers = 120;
    params.engine.straggler.hedged_replies = true;
    params.engine.straggler.exponential_backoff = true;
    params.walk.jump = catalog.suggested_jump;
    params.walk.burn_in = catalog.suggested_burn_in;
    core::QueryScheduler scheduler(network, catalog, params, &cache);
    std::vector<query::AggregateQuery> queries;
    for (int hi : {20, 40, 60}) {
      query::AggregateQuery q = CountQuery();
      q.predicate = {1, hi};
      queries.push_back(q);
    }
    util::Rng rng(seed);
    std::vector<core::BatchResult> batches;
    batches.push_back(scheduler.ExecuteBatch(queries, /*sink=*/0, rng));
    batches.push_back(scheduler.ExecuteBatch(queries, /*sink=*/0, rng));
    return batches;
  };
  auto lossy_straggler_plan = [] {
    net::FaultPlan plan = StragglerFaultPlan();
    plan.drop_probability = 0.05;
    return plan;
  };

  TestNetwork a = MakeTestNetwork(SmallParams());
  TestNetwork b = MakeTestNetwork(SmallParams());
  a.network.InstallFaultPlan(lossy_straggler_plan(), 4242);
  b.network.InstallFaultPlan(lossy_straggler_plan(), 4242);
  auto first = run(&a.network, a.catalog, 77);
  auto second = run(&b.network, b.catalog, 77);
  size_t hedges = 0;
  for (size_t batch = 0; batch < first.size(); ++batch) {
    ASSERT_EQ(first[batch].answers.size(), second[batch].answers.size());
    for (size_t i = 0; i < first[batch].answers.size(); ++i) {
      ASSERT_TRUE(first[batch].answers[i].ok());
      ASSERT_TRUE(second[batch].answers[i].ok());
      ExpectIdentical(*first[batch].answers[i], *second[batch].answers[i]);
      hedges += first[batch].answers[i]->hedges_sent;
    }
    EXPECT_EQ(first[batch].cost.messages, second[batch].cost.messages);
    EXPECT_EQ(first[batch].cost.messages_dropped,
              second[batch].cost.messages_dropped);
    EXPECT_EQ(first[batch].cost.latency_ms, second[batch].cost.latency_ms);
  }
  // The stack must actually engage, or the replay check is vacuous.
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(first[0].cost.messages_dropped, 0u);

  TestNetwork base = MakeTestNetwork(SmallParams());
  base.network.InstallFaultPlan(lossy_straggler_plan(), 4242);
  auto run_replicates = [&](const char* threads) {
    ScopedThreads scoped(threads);
    return util::ParallelMap(8, [&](size_t rep) {
      net::SimulatedNetwork network = base.network.Clone(8000 + rep);
      auto batches = run(&network, base.catalog, 400 + rep);
      double fingerprint = 0.0;
      for (const core::BatchResult& batch : batches) {
        fingerprint = fingerprint * 1e-3 + batch.cost.latency_ms;
        for (const auto& answer : batch.answers) {
          fingerprint = fingerprint * 1e-3 +
                        (answer.ok() ? answer->estimate +
                                           static_cast<double>(
                                               answer->hedges_sent)
                                     : -1.0);
        }
      }
      return fingerprint;
    });
  };
  std::vector<double> one = run_replicates("1");
  std::vector<double> two = run_replicates("2");
  std::vector<double> eight = run_replicates("8");
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_NE(one[0], one[1]);  // Distinct clone seeds: non-vacuous check.
}

}  // namespace
}  // namespace p2paqp
