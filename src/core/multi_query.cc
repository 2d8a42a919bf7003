#include "core/multi_query.h"

#include <algorithm>
#include <utility>

#include "util/bug_injection.h"

namespace p2paqp::core {

QueryScheduler::QueryScheduler(net::SimulatedNetwork* network,
                               const SystemCatalog& catalog,
                               const SchedulerParams& params,
                               FreshnessCache* cache)
    : network_(network),
      catalog_(catalog),
      params_(params),
      cache_(cache),
      total_weight_(catalog.total_degree_weight()) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK(cache_ != nullptr);
  P2PAQP_CHECK_GT(total_weight_, 0.0);
  P2PAQP_CHECK_GE(params_.engine.phase1_peers, 2u);
}

void QueryScheduler::BeginBatchFrame(SampleFrameStats* stats) {
  if (!frame_.selections.empty() &&
      cache_->epoch() - frame_.epoch > params_.frame_ttl_epochs) {
    // Expired: a frame this old may misrepresent the live overlay. Rebuild
    // whole rather than mixing selection vintages.
    frame_.selections.clear();
    ++stats->rebuilds;
    ++lifetime_frame_.rebuilds;
    if (net::HistoryRecorder* history = network_->history()) {
      history->Record(net::HistoryEventKind::kExpire,
                      net::MessageType::kSampleRequest, graph::kInvalidNode,
                      graph::kInvalidNode);
    }
  }
  batch_carry_ = frame_.selections.size();
}

util::Status QueryScheduler::EnsureFrame(size_t needed, graph::NodeId sink,
                                         uint32_t batch, util::Rng& rng,
                                         SampleFrameStats* stats,
                                         sampling::WalkStats* walk_stats) {
  if (frame_.selections.empty()) frame_.epoch = cache_->epoch();
  size_t have = frame_.selections.size();
  // Hits are carried-over selections only; `stats` accumulates across the
  // batch's phases, so count the carry prefix [0, min(carry, needed)) once.
  size_t usable_carry = std::min(batch_carry_, needed);
  if (usable_carry > stats->frame_hits) {
    size_t new_hits = usable_carry - stats->frame_hits;
    stats->frame_hits += new_hits;
    lifetime_frame_.frame_hits += new_hits;
    if (util::BugArmed(util::InjectedBug::kDoubleCountFrameHits)) {
      // Injected bug: the carry prefix is credited again on top of the
      // first count, so hits can exceed the selections actually carried.
      stats->frame_hits += new_hits;
      lifetime_frame_.frame_hits += new_hits;
    }
  }
  stats->frame_epoch = frame_.epoch;
  lifetime_frame_.frame_epoch = frame_.epoch;
  if (have >= needed) return util::Status::Ok();

  // Incremental top-up: walk only the missing selections. The walk restarts
  // at the sink with a fresh burn-in, so appended selections are stationary
  // like the originals.
  sampling::WalkParams walk_params = params_.walk;
  walk_params.batch = params_.batch_walkers ? batch : 1;
  sampling::RandomWalk walk(network_, walk_params);
  auto outcome = walk.CollectResilient(sink, needed - have, rng);
  if (!outcome.ok()) return outcome.status();
  for (const sampling::PeerVisit& visit : outcome->visits) {
    frame_.selections.push_back(visit);
  }
  *walk_stats = outcome->stats;
  size_t appended = outcome->visits.size();
  stats->frame_misses += appended;
  lifetime_frame_.frame_misses += appended;
  // Truncation (budget exhaustion) leaves a short frame; the per-query
  // quorum checks downstream decide whether that is fatal.
  return util::Status::Ok();
}

void QueryScheduler::CollectFromFrame(
    Phase phase, std::span<const query::AggregateQuery> queries,
    const std::vector<PhaseRequest>& requests, size_t* retry_budget,
    std::vector<PhaseCollection>& out, graph::NodeId sink, util::Rng& rng,
    SampleFrameStats* frame_stats) {
  const size_t first = phase == Phase::kOne ? 0 : params_.engine.phase1_peers;
  size_t widest = 0;
  for (const PhaseRequest& r : requests) widest = std::max(widest, r.count);
  if (widest == 0) return;
  // One shared top-up sized by the largest request; its walk served every
  // request, so each reports its restarts and skips.
  sampling::WalkStats walk;
  util::Status framed =
      EnsureFrame(first + widest, sink, static_cast<uint32_t>(requests.size()),
                  rng, frame_stats, &walk);
  for (PhaseCollection& c : out) {
    c.status = framed;
    c.stats.walk_restarts = walk.restarts;
    c.stats.straggler_skips = walk.straggler_skips;
  }
  if (!framed.ok()) return;

  net::HistoryRecorder* history = network_->history();
  const uint64_t dedup_round = history != nullptr ? history->NextRound() : 0;
  std::vector<size_t> riders;
  std::vector<PeerObservation> bodies;
  for (size_t idx = first;
       idx < first + widest && idx < frame_.selections.size(); ++idx) {
    const sampling::PeerVisit& visit = frame_.selections[idx];
    riders.clear();
    for (size_t i = 0; i < requests.size(); ++i) {
      if (idx - first < requests[i].count) riders.push_back(i);
    }
    // A frame peer may have departed since selection (or between batches):
    // every query multiplexed on this visit loses the observation.
    if (!network_->IsAlive(visit.peer)) continue;
    bodies.clear();
    size_t replays = 0;
    for (size_t i : riders) {
      PeerObservation obs;
      obs.peer = visit.peer;
      obs.degree = visit.degree;
      // Weight under which the peer entered the frame; reused selections
      // keep their selection-time degree so prob(p) matches the draw.
      obs.stationary_weight = static_cast<double>(visit.degree);
      obs.selection_seq = idx;
      // The peer replays its one wire reply whole, not body by body.
      replays = std::max(
          replays, ScanSelectedPeer(network_, params_.engine, cache_,
                                    queries[requests[i].query],
                                    /*charge_scan_latency=*/true, rng,
                                    /*scratch=*/nullptr, &obs));
      bodies.push_back(obs);
    }
    ReplyOutcome reply = SendReply(
        network_, params_.engine, /*health=*/nullptr, visit.peer, sink,
        static_cast<uint32_t>(riders.size()), replays,
        net::DedupTag(dedup_round, visit.peer, idx), retry_budget, rng);
    for (size_t r = 0; r < riders.size(); ++r) {
      PhaseCollection& c = out[riders[r]];
      c.observations.insert(c.observations.end(), reply.accepted, bodies[r]);
      c.stats.reply_retransmits += reply.retransmits;
      c.stats.duplicate_replies += reply.duplicates;
      c.stats.hedges += reply.hedges;
    }
  }
}

BatchResult QueryScheduler::ExecuteBatch(
    const std::vector<query::AggregateQuery>& queries, graph::NodeId sink,
    util::Rng& rng) {
  BatchResult result;
  net::CostSnapshot before = network_->cost_snapshot();
  if (!params_.reuse_frame) InvalidateFrame();
  BeginBatchFrame(&result.frame);

  const bool sink_ok =
      sink < network_->num_peers() && network_->IsAlive(sink);
  std::vector<util::Status> admitted(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].op != query::AggregateOp::kCount &&
        queries[q].op != query::AggregateOp::kSum) {
      admitted[q] = util::Status::InvalidArgument(
          "scheduler batches support COUNT and SUM only");
    } else if (!sink_ok) {
      admitted[q] = util::Status::FailedPrecondition("sink peer is not live");
    }
  }
  auto collect = [&](Phase phase, auto queries, const auto& requests,
                     size_t* retry_budget, auto& out) {
    CollectFromFrame(phase, queries, requests, retry_budget, out, sink, rng,
                     &result.frame);
  };
  // Per-query cost stays zero: the batched walk/reply work is shared and
  // indivisible. BatchResult::cost carries the whole batch.
  result.answers = RunTwoPhasePlan(collect, network_, params_.engine,
                                   total_weight_, sink, queries,
                                   std::move(admitted), rng);
  result.cost = net::CostDelta(network_->cost_snapshot(), before);
  return result;
}

}  // namespace p2paqp::core
