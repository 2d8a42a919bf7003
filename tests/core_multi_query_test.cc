// Tests for the multi-query scheduler: batch execution over a shared sample
// frame, frame reuse/top-up/epoch-expiry, the walker-batching and
// frame-reuse ablation switches, per-query failure isolation, and the
// batched replies' straggler parity with the sync engine.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/multi_query.h"
#include "net/adversary.h"
#include "net/fault.h"
#include "net/history.h"
#include "test_common.h"
#include "verify/protocol/history_checker.h"

namespace p2paqp::core {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

query::AggregateQuery CountQuery(int hi) {
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, hi};
  q.required_error = 0.15;
  return q;
}

std::vector<query::AggregateQuery> QueryMix() {
  return {CountQuery(20), CountQuery(40), CountQuery(60), CountQuery(80)};
}

SchedulerParams DefaultParams(const TestNetwork& tn) {
  SchedulerParams params;
  params.engine.phase1_peers = 40;
  params.walk.jump = tn.catalog.suggested_jump;
  params.walk.burn_in = tn.catalog.suggested_burn_in;
  return params;
}

TEST(QuerySchedulerTest, AnswersEveryQueryInBatch) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(/*ttl_epochs=*/10, /*max_entries=*/1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(7);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_EQ(result.answers.size(), queries.size());
  for (size_t i = 0; i < result.answers.size(); ++i) {
    ASSERT_TRUE(result.answers[i].ok()) << "query " << i;
    EXPECT_GT(result.answers[i]->estimate, 0.0);
    EXPECT_GT(result.answers[i]->phase1_peers, 0u);
  }
  // The batch paid for real network work, attributed batch-wide.
  EXPECT_GT(result.cost.messages, 0u);
  EXPECT_GT(result.cost.peers_visited, 0u);
  // Estimates are in a sane range (within a factor 2 of truth — the
  // statistical tier checks tight unbiasedness, this is a smoke bound).
  double truth = 0.0;
  for (graph::NodeId p = 0; p < tn.network.num_peers(); ++p) {
    for (const auto& t : tn.network.peer(p).database().tuples()) {
      if (t.value >= 1 && t.value <= 40) truth += 1.0;
    }
  }
  double est = result.answers[1]->estimate;
  EXPECT_GT(est, truth * 0.5);
  EXPECT_LT(est, truth * 2.0);
}

TEST(QuerySchedulerTest, SecondBatchReusesFrame) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(8);
  BatchResult first = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(first.answers[0].ok());
  EXPECT_EQ(first.frame.frame_hits, 0u);  // Cold start: all walked.
  EXPECT_GT(first.frame.frame_misses, 0u);
  size_t frame_after_first = scheduler.frame_size();
  EXPECT_GT(frame_after_first, 0u);

  BatchResult second = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(second.answers[0].ok());
  EXPECT_GT(second.frame.frame_hits, 0u);  // Warm: selections reused.
  // Walking only happens if the second batch needed a deeper frame.
  EXPECT_LE(second.frame.frame_misses, first.frame.frame_misses);
  // Reuse means the warm batch ships fewer bytes than the cold one.
  EXPECT_LT(second.cost.bytes_shipped, first.cost.bytes_shipped);
}

TEST(QuerySchedulerTest, EpochExpiryForcesRebuild) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  SchedulerParams params = DefaultParams(tn);
  params.frame_ttl_epochs = 2;
  QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(9);
  BatchResult first = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(first.answers[0].ok());
  EXPECT_EQ(first.frame.rebuilds, 0u);  // Cold start is not a rebuild.

  // Simulated data churn: tick past the frame TTL.
  for (int i = 0; i < 3; ++i) cache.AdvanceEpoch();
  BatchResult second = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(second.answers[0].ok());
  EXPECT_EQ(second.frame.rebuilds, 1u);
  EXPECT_EQ(second.frame.frame_hits, 0u);  // Expired frame serves nothing.
  EXPECT_EQ(second.frame.frame_epoch, cache.epoch());
}

TEST(QuerySchedulerTest, InvalidateFrameDropsReuse) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(10);
  ASSERT_TRUE(scheduler.ExecuteBatch(queries, 0, rng).answers[0].ok());
  scheduler.InvalidateFrame();
  EXPECT_EQ(scheduler.frame_size(), 0u);
  BatchResult second = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(second.answers[0].ok());
  EXPECT_EQ(second.frame.frame_hits, 0u);  // Cold again.
}

TEST(QuerySchedulerTest, BatchingReducesMessagesPerQuery) {
  // The amortization claim itself: two batches of K=4 queries through the
  // scheduler (shared frame + batched walkers) must ship under half the
  // messages of the same eight queries run as independent two-phase
  // executions. Also checks the ablation ordering: stripping frame reuse
  // must cost strictly more messages than the full scheduler.
  TestNetworkParams net_params;
  net_params.seed = 77;
  std::vector<query::AggregateQuery> queries = QueryMix();

  auto run_scheduler = [&](bool reuse_frame) {
    TestNetwork tn = MakeTestNetwork(net_params);
    FreshnessCache cache(10, 1 << 12);
    SchedulerParams params = DefaultParams(tn);
    params.reuse_frame = reuse_frame;
    QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
    util::Rng rng(11);
    uint64_t messages = 0;
    for (int b = 0; b < 2; ++b) {
      BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
      for (const auto& answer : result.answers) {
        EXPECT_TRUE(answer.ok());
      }
      messages += result.cost.messages;
    }
    return messages;
  };

  auto run_independent = [&] {
    TestNetwork tn = MakeTestNetwork(net_params);
    TwoPhaseEngine engine(&tn.network, tn.catalog, DefaultParams(tn).engine);
    util::Rng rng(11);
    net::CostSnapshot before = tn.network.cost_snapshot();
    for (int b = 0; b < 2; ++b) {
      for (const auto& q : queries) {
        EXPECT_TRUE(engine.Execute(q, 0, rng).ok());
      }
    }
    return net::CostDelta(tn.network.cost_snapshot(), before).messages;
  };

  uint64_t full = run_scheduler(/*reuse_frame=*/true);
  uint64_t no_reuse = run_scheduler(/*reuse_frame=*/false);
  uint64_t independent = run_independent();
  EXPECT_LT(full * 2, independent)
      << "scheduler=" << full << " independent=" << independent;
  EXPECT_LT(full, no_reuse) << "frame reuse must save messages";
}

TEST(QuerySchedulerTest, RejectsUnsupportedOperators) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  query::AggregateQuery avg = CountQuery(40);
  avg.op = query::AggregateOp::kAvg;
  std::vector<query::AggregateQuery> queries = {CountQuery(40), avg};
  util::Rng rng(12);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_TRUE(result.answers[0].ok());  // Sibling unaffected.
  ASSERT_FALSE(result.answers[1].ok());
  EXPECT_EQ(result.answers[1].status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(QuerySchedulerTest, DeadSinkFailsWholeBatch) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  tn.network.SetAlive(0, false);
  std::vector<query::AggregateQuery> queries = QueryMix();
  util::Rng rng(13);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  for (const auto& answer : result.answers) {
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), util::StatusCode::kFailedPrecondition);
  }
}

TEST(QuerySchedulerTest, SumQueriesEstimateTotals) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  query::AggregateQuery sum_query = CountQuery(60);
  sum_query.op = query::AggregateOp::kSum;
  std::vector<query::AggregateQuery> queries = {sum_query, CountQuery(60)};
  util::Rng rng(14);
  BatchResult result = scheduler.ExecuteBatch(queries, 0, rng);
  ASSERT_TRUE(result.answers[0].ok());
  ASSERT_TRUE(result.answers[1].ok());
  // SUM over values in [1,60] must exceed COUNT of the same predicate
  // (every matching tuple has value >= 1).
  EXPECT_GE(result.answers[0]->estimate, result.answers[1]->estimate);
}

// ---- Batched replies go through the sync engine's reply loop -------------
// Each test records the protocol history and requires the black-box checker
// to find nothing: one record per wire message, hedges resolved, dedup
// accepted before it drops.

std::string HistoryViolations(const net::HistoryRecorder& history) {
  std::string dump;
  for (const std::string& v : verify::CheckHistory(history.events())) {
    dump += "\n  " + v;
  }
  return dump;
}

// The frame walk's recovery work reaches the answers it served. A first run
// records the frame walk; a second, on the same seeds, crashes the peer
// holding the token at one of its hops, so the sink re-issues the token —
// and every query of the batch reports the restart.
TEST(QuerySchedulerTest, AnswersReportFrameWalkRestartsUnderHolderCrashes) {
  auto run = [](const net::FaultPlan& faults, net::HistoryRecorder* history) {
    TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
    tn.network.InstallFaultPlan(faults, 31);
    tn.network.set_history(history);
    FreshnessCache cache(10, 1 << 12);
    QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                             &cache);
    util::Rng rng(32);
    BatchResult result = scheduler.ExecuteBatch(QueryMix(), 0, rng);
    tn.network.set_history(nullptr);
    return result;
  };
  // Scheduled crashes draw no RNG: a crash that never comes due installs
  // the injector without changing the run.
  net::FaultPlan faults;
  faults.crash_immune = {0};  // The sink.
  faults.scheduled_crashes = {{UINT64_MAX, 1}};
  net::HistoryRecorder recorded;
  run(faults, &recorded);
  // Every send passes the injector, so the n-th send is message n.
  uint64_t message = 0;
  net::ScheduledCrash holder_crash;
  for (const net::HistoryEvent& e : recorded.events()) {
    if (e.kind != net::HistoryEventKind::kSend) continue;
    if (message >= 100 && e.type == net::MessageType::kWalker && e.from != 0) {
      holder_crash = {message, e.from};
      break;
    }
    ++message;
  }
  ASSERT_NE(holder_crash.peer, graph::kInvalidNode);

  faults.scheduled_crashes = {holder_crash};
  net::HistoryRecorder history;
  BatchResult result = run(faults, &history);
  for (size_t i = 0; i < result.answers.size(); ++i) {
    ASSERT_TRUE(result.answers[i].ok())
        << "query " << i << ": " << result.answers[i].status().ToString();
    EXPECT_GT(result.answers[i]->walk_restarts, 0u) << "query " << i;
  }
  EXPECT_EQ(HistoryViolations(history), "");
}

// A Pareto tail plus a slow coalition makes some frame peers predictably
// tardy: the sink hedges their batched replies like the sync engine does.
TEST(QuerySchedulerTest, HedgesBatchedRepliesOfSlowPeers) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::FaultPlan faults;
  faults.tail = net::LatencyTail::kPareto;
  faults.tail_scale_ms = 10.0;
  faults.tail_alpha = 1.1;
  faults.slow_fraction = 0.15;
  faults.slow_factor = 20.0;
  faults.crash_immune = {0};
  tn.network.InstallFaultPlan(faults, 41);
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  FreshnessCache cache(10, 1 << 12);
  SchedulerParams params = DefaultParams(tn);
  params.engine.straggler.hedged_replies = true;
  QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
  util::Rng rng(42);
  BatchResult result = scheduler.ExecuteBatch(QueryMix(), 0, rng);
  size_t hedges = 0;
  for (const auto& answer : result.answers) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    hedges += answer->hedges_sent;
  }
  EXPECT_GT(hedges, 0u);
  EXPECT_GT(history.Count(net::HistoryEventKind::kHedge), 0u);
  EXPECT_EQ(HistoryViolations(history), "");
  tn.network.set_history(nullptr);
}

// Under 15% drops, retried batched replies wait out the exponential backoff,
// and the batch's latency carries those waits. Jitter 0 draws no RNG, so the
// same seeds replay the same traffic with and without the backoff and the
// latency gap is exactly the sum of the waits.
TEST(QuerySchedulerTest, BatchLatencyIncludesBackoffWaits) {
  auto run = [](bool backoff, net::HistoryRecorder* history) {
    TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
    net::FaultPlan faults;
    faults.drop_probability = 0.15;
    faults.crash_immune = {0};
    tn.network.InstallFaultPlan(faults, 51);
    tn.network.set_history(history);
    FreshnessCache cache(10, 1 << 12);
    SchedulerParams params = DefaultParams(tn);
    params.engine.straggler.exponential_backoff = backoff;
    params.engine.straggler.backoff_jitter = 0.0;
    QueryScheduler scheduler(&tn.network, tn.catalog, params, &cache);
    util::Rng rng(52);
    BatchResult result = scheduler.ExecuteBatch(QueryMix(), 0, rng);
    for (const auto& answer : result.answers) {
      EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    }
    tn.network.set_history(nullptr);
    return result;
  };
  net::HistoryRecorder history;
  BatchResult waited = run(/*backoff=*/true, &history);
  BatchResult plain = run(/*backoff=*/false, nullptr);
  EXPECT_EQ(waited.cost.messages, plain.cost.messages);
  // Every retransmit waits at least the base backoff, once per wire reply.
  const uint64_t retries = history.Count(net::HistoryEventKind::kRetransmit);
  ASSERT_GT(retries, 0u);
  const double base = net::StragglerPolicy{}.backoff_base_ms;
  EXPECT_GE(waited.cost.latency_ms - plain.cost.latency_ms,
            static_cast<double>(retries) * base - 1e-6);
  EXPECT_EQ(HistoryViolations(history), "");
}

// A replay coalition pushes duplicate copies of its batched replies; the
// sink drops them on the (query, peer, phase, selection_seq) tag and every
// query of the reply reports the drop.
TEST(QuerySchedulerTest, DropsReplayedBatchedReplies) {
  TestNetwork tn = MakeTestNetwork(TestNetworkParams{});
  net::AdversaryPlan adversary;
  adversary.adversary_fraction = 0.2;
  adversary.replay_copies = 3;
  adversary.immune = {0};
  tn.network.InstallAdversaryPlan(adversary, 61);
  net::HistoryRecorder history;
  tn.network.set_history(&history);
  FreshnessCache cache(10, 1 << 12);
  QueryScheduler scheduler(&tn.network, tn.catalog, DefaultParams(tn),
                           &cache);
  util::Rng rng(62);
  BatchResult result = scheduler.ExecuteBatch(QueryMix(), 0, rng);
  for (const auto& answer : result.answers) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GT(answer->duplicate_replies, 0u);
  }
  EXPECT_GT(history.Count(net::HistoryEventKind::kDedupDrop), 0u);
  EXPECT_EQ(HistoryViolations(history), "");
  tn.network.set_history(nullptr);
}

}  // namespace
}  // namespace p2paqp::core
