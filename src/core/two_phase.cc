#include "core/two_phase.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/distinct.h"
#include "core/median.h"
#include "util/bug_injection.h"
#include "util/statistics.h"

namespace p2paqp::core {

namespace {

constexpr double kZ95 = 1.959963984540054;

// Horvitz-Thompson estimate of SUM/COUNT (the AVG ratio) over a slice of
// observations.
double RatioEstimate(const std::vector<PeerObservation>& observations,
                     double total_weight) {
  std::vector<WeightedObservation> counts;
  std::vector<WeightedObservation> sums;
  counts.reserve(observations.size());
  sums.reserve(observations.size());
  for (const PeerObservation& obs : observations) {
    counts.push_back({obs.aggregate.count_value, obs.stationary_weight});
    sums.push_back({obs.aggregate.sum_value, obs.stationary_weight});
  }
  double count = HorvitzThompson(counts, total_weight);
  if (count == 0.0) return 0.0;
  return HorvitzThompson(sums, total_weight) / count;
}

// Cross-validation for the AVG ratio (the linear CrossValidate in
// cross_validation.h does not apply to a ratio of two estimators).
CrossValidationResult CrossValidateRatio(
    const std::vector<PeerObservation>& observations, double total_weight,
    size_t repeats, util::Rng& rng) {
  P2PAQP_CHECK_GE(observations.size(), 2u);
  CrossValidationResult result;
  result.estimate = RatioEstimate(observations, total_weight);
  size_t m = observations.size();
  size_t half = m / 2;
  std::vector<size_t> order(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  double squared_sum = 0.0;
  for (size_t r = 0; r < repeats; ++r) {
    rng.Shuffle(order);
    std::vector<PeerObservation> g1;
    std::vector<PeerObservation> g2;
    g1.reserve(half);
    g2.reserve(half);
    for (size_t i = 0; i < half; ++i) g1.push_back(observations[order[i]]);
    for (size_t i = half; i < 2 * half; ++i) {
      g2.push_back(observations[order[i]]);
    }
    double y1 = RatioEstimate(g1, total_weight);
    double y2 = RatioEstimate(g2, total_weight);
    squared_sum += (y1 - y2) * (y1 - y2);
  }
  result.cv_error = std::sqrt(squared_sum / static_cast<double>(repeats));
  result.cv_error_relative =
      result.estimate == 0.0 ? 0.0
                             : result.cv_error / std::fabs(result.estimate);
  return result;
}

// Horvitz-Thompson estimate of the total aggregate over the database:
// total tuple count for COUNT/AVG, all-tuples sum for SUM. Used only for
// error normalization.
double EstimateTotal(const std::vector<PeerObservation>& observations,
                     query::AggregateOp op, double total_weight) {
  std::vector<WeightedObservation> totals;
  totals.reserve(observations.size());
  for (const PeerObservation& obs : observations) {
    double value = op == query::AggregateOp::kSum
                       ? obs.aggregate.total_sum_value
                       : static_cast<double>(obs.aggregate.local_tuples);
    totals.push_back({value, obs.stationary_weight});
  }
  return HorvitzThompson(totals, total_weight);
}

std::vector<WeightedObservation> ToWeighted(
    const std::vector<PeerObservation>& observations, query::AggregateOp op) {
  std::vector<WeightedObservation> weighted;
  weighted.reserve(observations.size());
  for (const PeerObservation& obs : observations) {
    weighted.push_back({obs.aggregate.ValueFor(op), obs.stationary_weight});
  }
  return weighted;
}

}  // namespace

size_t TamperObservation(net::AdversaryInjector* adversary,
                         PeerObservation* obs) {
  if (adversary == nullptr || !adversary->IsAdversarial(obs->peer)) return 0;
  uint32_t claimed = adversary->ClaimedDegree(obs->peer, obs->degree);
  if (claimed != obs->degree && obs->degree > 0) {
    // The stationary weight the sink divides by follows the lie: the sink
    // only knows what the reply claims.
    obs->stationary_weight *= static_cast<double>(claimed) /
                              static_cast<double>(obs->degree);
    obs->degree = claimed;
  }
  net::ReplyTampering tampering = adversary->OnReply(obs->peer);
  if (tampering.value_scale != 1.0) {
    obs->aggregate.count_value *= tampering.value_scale;
    obs->aggregate.sum_value *= tampering.value_scale;
    obs->aggregate.total_sum_value *= tampering.value_scale;
  }
  return tampering.replays;
}

size_t AuditObservationDegrees(net::SimulatedNetwork* network,
                               const RobustnessPolicy& policy,
                               graph::NodeId sink,
                               std::vector<PeerObservation>* observations,
                               util::Rng& rng) {
  if (policy.degree_audit_probes == 0 || observations->empty()) return 0;
  const net::AdversaryInjector* adversary = network->adversary();
  // Audit each distinct peer once, at its claimed degree.
  std::vector<std::pair<graph::NodeId, uint32_t>> audited;
  for (const PeerObservation& obs : *observations) {
    bool seen = false;
    for (const auto& entry : audited) {
      if (entry.first == obs.peer) {
        seen = true;
        break;
      }
    }
    if (!seen) audited.emplace_back(obs.peer, obs.degree);
  }
  std::vector<graph::NodeId> suspected;
  // One decode per audited peer, reused across its probes: NeighborRange's
  // operator[] re-decodes the varint list from the front on every call,
  // which made this nested probe loop quadratic in degree.
  std::vector<graph::NodeId> real;
  for (const auto& [peer, claimed] : audited) {
    if (claimed == 0) continue;
    network->graph().CopyNeighbors(peer, &real);
    size_t confirms = 0;
    size_t denials = 0;
    for (size_t probe = 0; probe < policy.degree_audit_probes; ++probe) {
      // One uniformly-chosen slot of the claimed adjacency list. Slots
      // beyond the real degree are fabricated: the claimed address resolves
      // to an arbitrary peer that is not actually adjacent.
      size_t slot = rng.UniformIndex(claimed);
      bool genuine = slot < real.size();
      graph::NodeId target =
          genuine ? real[slot]
                  : static_cast<graph::NodeId>(
                        rng.UniformIndex(network->num_peers()));
      if (target == peer || !network->IsAlive(target)) continue;
      // Probe + attestation each cross the Internet once and can be lost to
      // the installed fault plan; a lost round is inconclusive.
      if (!network->SendDirect(net::MessageType::kAuditProbe, sink, target)
               .ok()) {
        continue;
      }
      if (!network->SendDirect(net::MessageType::kAuditReply, target, sink)
               .ok()) {
        continue;
      }
      // A real neighbor attests truthfully (the adjacency exists); a
      // non-neighbor denies unless it colludes with the audited peer.
      bool colludes = adversary != nullptr && adversary->IsAdversarial(peer) &&
                      adversary->IsAdversarial(target);
      if (genuine || network->graph().HasEdge(peer, target) || colludes) {
        ++confirms;
      } else {
        ++denials;
      }
    }
    size_t delivered = confirms + denials;
    if (delivered > 0 &&
        static_cast<double>(denials) >
            policy.degree_audit_denial_threshold *
                static_cast<double>(delivered)) {
      suspected.push_back(peer);
    }
  }
  if (suspected.empty()) return 0;
  auto is_suspected = [&suspected](graph::NodeId peer) {
    return std::find(suspected.begin(), suspected.end(), peer) !=
           suspected.end();
  };
  observations->erase(
      std::remove_if(observations->begin(), observations->end(),
                     [&is_suspected](const PeerObservation& obs) {
                       return is_suspected(obs.peer);
                     }),
      observations->end());
  return suspected.size();
}

std::string ApproximateAnswer::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "estimate=%.2f (+/-%.2f @95%%) cv_rel=%.4f m=%zu m'=%zu "
                "sample_tuples=%llu | %s",
                estimate, ci_half_width_95, cv_error_relative, phase1_peers,
                phase2_peers,
                static_cast<unsigned long long>(sample_tuples),
                cost.ToString().c_str());
  std::string out = buf;
  if (degraded) {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  " | DEGRADED lost=%zu restarts=%zu achieved_err=%.4f",
                  observations_lost, walk_restarts, achieved_error);
    out += extra;
  }
  if (suspected_peers > 0 || trimmed_mass > 0.0 || duplicate_replies > 0) {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  " | AUDIT suspected=%zu trimmed_mass=%.3f dupes=%zu",
                  suspected_peers, trimmed_mass, duplicate_replies);
    out += extra;
  }
  if (deadline_hit || hedges_sent > 0 || stragglers_skipped > 0) {
    char extra[128];
    std::snprintf(extra, sizeof(extra),
                  " | STRAGGLER deadline_hit=%d hedges=%zu skips=%zu",
                  deadline_hit ? 1 : 0, hedges_sent, stragglers_skipped);
    out += extra;
  }
  return out;
}

TwoPhaseEngine::TwoPhaseEngine(net::SimulatedNetwork* network,
                               const SystemCatalog& catalog,
                               const EngineParams& params)
    : network_(network),
      catalog_(catalog),
      params_(params),
      sampler_(std::make_unique<sampling::RandomWalkSampler>(
          network,
          sampling::WalkParams{.jump = std::max<size_t>(1,
                                                        catalog.suggested_jump),
                               .burn_in = catalog.suggested_burn_in,
                               .variant = sampling::WalkVariant::kSimple,
                               .max_hops = 0,
                               .straggler = &params_.straggler,
                               .health = &health_})),
      total_weight_(catalog.total_degree_weight()) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GE(params_.phase1_peers, 2u);
}

TwoPhaseEngine::TwoPhaseEngine(net::SimulatedNetwork* network,
                               const SystemCatalog& catalog,
                               const EngineParams& params,
                               std::unique_ptr<sampling::PeerSampler> sampler,
                               double total_weight)
    : network_(network),
      catalog_(catalog),
      params_(params),
      sampler_(std::move(sampler)),
      total_weight_(total_weight) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK(sampler_ != nullptr);
  P2PAQP_CHECK_GT(total_weight_, 0.0);
  P2PAQP_CHECK_GE(params_.phase1_peers, 2u);
}

util::Result<std::vector<PeerObservation>>
TwoPhaseEngine::CollectObservations(const query::AggregateQuery& query,
                                    graph::NodeId sink, size_t count,
                                    util::Rng& rng, CollectionStats* stats,
                                    size_t* retry_budget_left) {
  const net::StragglerPolicy& sp = params_.straggler;
  size_t local_budget = sp.retry_budget == 0 ? SIZE_MAX : sp.retry_budget;
  size_t* budget =
      retry_budget_left != nullptr ? retry_budget_left : &local_budget;
  auto consume_retry = [budget]() {
    if (*budget == 0) return false;
    if (*budget != SIZE_MAX) --*budget;
    return true;
  };
  auto sampled = sampler_->SamplePeersResilient(sink, count, rng);
  if (!sampled.ok()) return sampled.status();
  std::vector<PeerObservation> observations;
  observations.reserve(sampled->visits.size());
  size_t retransmits = 0;
  size_t duplicates_dropped = 0;
  size_t hedges = 0;
  net::AdversaryInjector* adversary = network_->adversary();
  net::HistoryRecorder* history = network_->history();
  const uint64_t dedup_round = history != nullptr ? history->NextRound() : 0;
  size_t selection_seq = 0;
  for (const sampling::PeerVisit& visit : sampled->visits) {
    const size_t seq = selection_seq++;
    // The selected peer may have departed between selection and local
    // execution (mid-query churn): its observation is simply lost.
    if (!network_->IsAlive(visit.peer)) continue;
    PeerObservation obs;
    obs.peer = visit.peer;
    obs.degree = visit.degree;
    obs.stationary_weight = sampler_->StationaryWeight(visit.peer);
    obs.selection_seq = seq;
    bool from_cache =
        cache_ != nullptr && cache_->Lookup(visit.peer, query, &obs.aggregate);
    if (from_cache) {
      // The visit happened (walker hop costs are already charged) but the
      // peer answers from its cache: no local scan.
      network_->cost().RecordPeerVisit();
    } else {
      obs.aggregate = query::ExecuteLocal(
          network_->peer(visit.peer).database(), query,
          query::SubSamplePolicy{.t = params_.tuples_per_peer,
                                 .mode = params_.subsample_mode,
                                 .block_size = params_.block_size},
          rng);
      network_->RecordLocalExecution(visit.peer, obs.aggregate.processed_tuples,
                                     obs.aggregate.processed_tuples);
      if (cache_ != nullptr) cache_->Store(visit.peer, query, obs.aggregate);
    }
    // An adversarial peer lies in the reply it is about to send: misreported
    // degree (and with it the stationary weight the sink divides by),
    // corrupted aggregates, and possibly replayed duplicate copies.
    size_t replays = TamperObservation(adversary, &obs);
    // (y(p), deg(p)) straight back to the sink over direct IP (Sec. 3.2).
    // A reply lost in transit is retransmitted after a sink-side timeout; a
    // crashed endpoint cannot retry.
    const uint64_t tag = net::DedupTag(dedup_round, visit.peer, seq);
    bool delivered = false;
    for (size_t attempt = 0; attempt <= params_.reply_retransmits; ++attempt) {
      if (attempt > 0) {
        if (!consume_retry()) break;
        ++retransmits;
        // The retry leaves at its actual schedule time: the sink-side wait
        // (fixed timer or jittered exponential backoff) lands in the ledger
        // before the re-send is charged, so the latency a backoff plan
        // reports is the latency the query actually spent waiting.
        double wait = net::RetryBackoffMs(sp, attempt, rng);
        if (wait > 0.0) network_->cost().RecordLatency(wait);
        // The sink's reply timer fires before it asks for the re-send.
        if (history != nullptr) {
          history->Record(net::HistoryEventKind::kTimeout,
                          net::MessageType::kAggregateReply, visit.peer, sink);
          history->Record(net::HistoryEventKind::kRetransmit,
                          net::MessageType::kAggregateReply, visit.peer, sink);
        }
      }
      util::Status sent = network_->SendDirect(
          net::MessageType::kAggregateReply, visit.peer, sink);
      if (sp.health_tracking) {
        health_.Record(visit.peer,
                       0.5 * network_->NominalHopLatencyMs() +
                           network_->ExpectedPeerTailDelayMs(visit.peer),
                       sent.ok());
      }
      if (sent.ok()) {
        delivered = true;
        break;
      }
      if (!network_->IsAlive(visit.peer) || !network_->IsAlive(sink)) break;
    }
    // Hedged duplicate toward predictably tardy peers: the sink's hedge
    // timer (hedge_delay_factor x the nominal reply time) elapses before a
    // straggler's reply can arrive, so it asks for one duplicate copy; the
    // (peer, selection_seq) dedup absorbs double deliveries.
    bool hedge_delivered = false;
    if (sp.hedged_replies && network_->IsAlive(visit.peer) &&
        network_->IsAlive(sink)) {
      double hedge_due =
          sp.hedge_delay_factor * network_->NominalHopLatencyMs();
      if (network_->ExpectedPeerTailDelayMs(visit.peer) > hedge_due &&
          consume_retry()) {
        ++hedges;
        hedge_delivered = network_
                              ->SendDirect(net::MessageType::kAggregateReply,
                                           visit.peer, sink)
                              .ok();
        // The hedge pair is recorded only when some copy survives: a pair
        // where primary, retries and hedge were all lost in transit never
        // resolves to an accepted observation, which is loss, not a
        // dedup-accounting violation.
        if (history != nullptr && (delivered || hedge_delivered)) {
          history->Record(net::HistoryEventKind::kHedgeDue,
                          net::MessageType::kAggregateReply, visit.peer, sink);
          history->Record(net::HistoryEventKind::kHedge,
                          net::MessageType::kAggregateReply, visit.peer, sink,
                          1, tag);
        }
      }
    }
    if (delivered) {
      observations.push_back(obs);
      if (history != nullptr) {
        history->Record(net::HistoryEventKind::kDedupAccept,
                        net::MessageType::kAggregateReply, visit.peer, sink, 1,
                        tag);
      }
      if (hedge_delivered) {
        ++duplicates_dropped;
        if (history != nullptr) {
          history->Record(net::HistoryEventKind::kDedupDrop,
                          net::MessageType::kAggregateReply, visit.peer, sink,
                          1, tag);
        }
      }
    } else if (hedge_delivered) {
      // The primary (and its retries) were lost but the hedged copy got
      // through: it is the one accepted observation for this selection.
      delivered = true;
      observations.push_back(obs);
      if (history != nullptr) {
        history->Record(net::HistoryEventKind::kDedupAccept,
                        net::MessageType::kAggregateReply, visit.peer, sink, 1,
                        tag);
      }
    }
    // Replayed copies carry the original's (query_id, peer, phase,
    // selection_seq) tag, so every delivered copy after the first collides
    // with an already-seen tag and is dropped before the quorum count.
    for (size_t replay = 0; replay < replays; ++replay) {
      util::Status sent = network_->SendDirect(
          net::MessageType::kAggregateReply, visit.peer, sink);
      if (!sent.ok()) continue;
      if (delivered) {
        if (util::BugArmed(util::InjectedBug::kDisableReplyDedup)) {
          // Injected bug: the sink forgets it has seen this tag and counts
          // the replayed copy as a fresh observation.
          observations.push_back(obs);
          if (history != nullptr) {
            history->Record(net::HistoryEventKind::kDedupAccept,
                            net::MessageType::kAggregateReply, visit.peer,
                            sink, 1, tag);
          }
          continue;
        }
        ++duplicates_dropped;
        if (history != nullptr) {
          history->Record(net::HistoryEventKind::kDedupDrop,
                          net::MessageType::kAggregateReply, visit.peer, sink,
                          1, tag);
        }
      } else {
        // The original was lost but a replayed copy got through: the sink
        // cannot tell it from a retransmit and accepts it once.
        observations.push_back(obs);
        delivered = true;
        if (history != nullptr) {
          history->Record(net::HistoryEventKind::kDedupAccept,
                          net::MessageType::kAggregateReply, visit.peer, sink,
                          1, tag);
        }
      }
    }
  }
  const size_t delivered_count = observations.size();
  util::Status quorum = CheckObservationQuorum(
      delivered_count, count, params_.min_observation_quorum);
  if (!quorum.ok()) return quorum;
  if (stats != nullptr) {
    stats->requested = count;
    stats->delivered = delivered_count;
    stats->lost = count - delivered_count;
    stats->reply_retransmits = retransmits;
    stats->walk_restarts = sampled->restarts;
    stats->duplicate_replies = duplicates_dropped;
    stats->hedges = hedges;
    stats->straggler_skips = sampled->straggler_skips;
  }
  return observations;
}

void TwoPhaseEngine::BeginQuery() {
  const net::StragglerPolicy& sp = params_.straggler;
  if (!sp.enabled()) return;
  health_.Configure(sp);
  health_.Reset(network_->num_peers());
}

util::Result<ApproximateAnswer> TwoPhaseEngine::ExecuteCentral(
    const query::AggregateQuery& query, graph::NodeId sink, util::Rng& rng) {
  net::CostSnapshot before = network_->cost_snapshot();
  const net::StragglerPolicy& sp = params_.straggler;
  // Query-scoped retry/hedge budget, shared by both phases.
  size_t retry_budget_left =
      sp.retry_budget == 0 ? SIZE_MAX : sp.retry_budget;

  // ---- Phase I: sniff the network. ----
  CollectionStats phase1_stats;
  auto phase1 = CollectObservations(query, sink, params_.phase1_peers, rng,
                                    &phase1_stats, &retry_budget_left);
  if (!phase1.ok()) return phase1.status();

  // ---- Plan: size phase II from the cross-validation error. ----
  auto plan = PlanPhaseTwo(*phase1, query, params_, total_weight_,
                           network_->num_peers(), rng);
  if (!plan.ok()) return plan.status();

  // ---- Phase II: execute the plan. ----
  CollectionStats phase2_stats;
  auto phase2 = CollectObservations(query, sink, plan->peers, rng,
                                    &phase2_stats, &retry_budget_left);
  if (!phase2.ok()) return phase2.status();

  auto answer = BuildAnswer(network_, params_, query.op, sink, total_weight_,
                            *plan, *phase1, phase1_stats, *phase2,
                            phase2_stats, rng);
  if (!answer.ok()) return answer;
  answer->cost = net::CostDelta(network_->cost_snapshot(), before);
  answer->sample_tuples = answer->cost.tuples_sampled;
  return answer;
}

util::Result<ApproximateAnswer> TwoPhaseEngine::Execute(
    const query::AggregateQuery& query, graph::NodeId sink, util::Rng& rng) {
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  BeginQuery();
  switch (query.op) {
    case query::AggregateOp::kCount:
    case query::AggregateOp::kSum:
    case query::AggregateOp::kAvg:
      return ExecuteCentral(query, sink, rng);
    case query::AggregateOp::kMedian:
    case query::AggregateOp::kQuantile:
      return EstimateQuantileTwoPhase(*this, query, sink, rng);
    case query::AggregateOp::kDistinct:
      return EstimateDistinctTwoPhase(*this, query, sink, rng);
  }
  return util::Status::InvalidArgument("unknown aggregate operator");
}

size_t SizePhaseTwo(const EngineParams& params, size_t num_peers,
                    size_t phase1_peers, double cv_error_relative,
                    double required_error) {
  return PhaseTwoSampleSize(
      phase1_peers, cv_error_relative, required_error,
      params.min_phase2_peers,
      params.max_phase2_peers == 0 ? num_peers : params.max_phase2_peers);
}

util::Result<PhaseTwoPlan> PlanPhaseTwo(
    const std::vector<PeerObservation>& phase1,
    const query::AggregateQuery& query, const EngineParams& params,
    double total_weight, size_t num_peers, util::Rng& rng) {
  if (phase1.size() < 2) {
    return util::Status::Unavailable(
        "phase I delivered too few observations to cross-validate");
  }
  const bool is_avg = query.op == query::AggregateOp::kAvg;
  CrossValidationResult cv =
      is_avg ? CrossValidateRatio(phase1, total_weight, params.cv_repeats, rng)
             : CrossValidate(ToWeighted(phase1, query.op), total_weight,
                             params.cv_repeats, rng);

  // The paper normalizes errors to [0,1] against the *total* aggregate
  // (N for COUNT; Sec. 3.4: dividing the variance by N^2 yields the squared
  // relative-count error). Estimate that total from the same phase-I
  // sample: every reply already carries the peer's tuple count and scaled
  // all-tuples sum.
  PhaseTwoPlan plan;
  plan.estimated_total = EstimateTotal(phase1, query.op, total_weight);
  if (is_avg || plan.estimated_total <= 0.0 ||
      params.normalization == ErrorNormalization::kQueryAnswer) {
    // AVG never scales with selectivity; kQueryAnswer opts COUNT/SUM into
    // the same answer-relative guarantee.
    plan.estimated_total = std::fabs(cv.estimate);
  }
  plan.cv_error_relative = plan.estimated_total == 0.0
                               ? 0.0
                               : cv.cv_error / plan.estimated_total;
  // Sized from the observations that actually arrived (== phase1_peers on
  // the fault-free path): the cross-validation error was measured on those.
  plan.peers = SizePhaseTwo(params, num_peers, phase1.size(),
                            plan.cv_error_relative, query.required_error);
  return plan;
}

util::Status CheckObservationQuorum(size_t delivered, size_t requested,
                                    double min_observation_quorum) {
  const auto quorum = static_cast<size_t>(
      std::ceil(min_observation_quorum * static_cast<double>(requested)));
  if (delivered >= quorum ||
      util::BugArmed(util::InjectedBug::kSkipQuorumCheck)) {
    return util::Status::Ok();
  }
  return util::Status::Unavailable(
      "observation quorum not met: " + std::to_string(delivered) + "/" +
      std::to_string(requested) + " delivered");
}

util::Result<ApproximateAnswer> BuildAnswer(
    net::SimulatedNetwork* network, const EngineParams& params,
    query::AggregateOp op, graph::NodeId sink, double total_weight,
    const PhaseTwoPlan& plan, const std::vector<PeerObservation>& phase1,
    const TwoPhaseEngine::CollectionStats& phase1_stats,
    const std::vector<PeerObservation>& phase2,
    const TwoPhaseEngine::CollectionStats& phase2_stats, util::Rng& rng) {
  const bool anytime = phase1_stats.deadline_hit || phase2_stats.deadline_hit;
  std::vector<PeerObservation> final_set;
  if (params.include_phase1_observations || anytime) {
    // An anytime answer uses every observation that reached the sink.
    final_set = phase1;
    final_set.insert(final_set.end(), phase2.begin(), phase2.end());
  } else {
    final_set = phase2;
  }

  // ---- Byzantine defenses (RobustnessPolicy). ----
  const RobustnessPolicy& policy = params.robustness;
  size_t suspected =
      AuditObservationDegrees(network, policy, sink, &final_set, rng);
  if (final_set.empty() && !anytime) {
    return util::Status::Unavailable(
        "degree audit rejected every observation");
  }

  ApproximateAnswer answer;
  answer.suspected_peers = suspected;
  if (final_set.empty()) {
    // Deadline fired before a single observation survived: the anytime
    // answer is a zero estimate with maximal degradation, never an error.
    answer.estimate = 0.0;
    answer.variance = 0.0;
  } else if (op == query::AggregateOp::kAvg) {
    // The ratio path is not robustified (known gap, see docs/ALGORITHM.md):
    // it still benefits from the audit and dedup above.
    answer.estimate = RatioEstimate(final_set, total_weight);
    // Delta-method style variability proxy: variance of the ratio across
    // the CV halves is already folded into cv_error; report the count-based
    // variance scaled by the ratio as a conservative stand-in.
    answer.variance = 0.0;
  } else {
    auto weighted = ToWeighted(final_set, op);
    if (policy.enabled()) {
      RobustEstimate robust =
          RobustHorvitzThompson(weighted, total_weight, policy);
      answer.estimate = robust.estimate;
      answer.variance = robust.variance;
      answer.trimmed_mass = robust.trimmed_mass;
    } else {
      answer.estimate = HorvitzThompson(weighted, total_weight);
      answer.variance = HorvitzThompsonVariance(weighted, total_weight);
    }
  }
  // ---- Degradation accounting. ----
  answer.observations_lost = phase1_stats.lost + phase2_stats.lost;
  answer.walk_restarts =
      phase1_stats.walk_restarts + phase2_stats.walk_restarts;
  answer.duplicate_replies =
      phase1_stats.duplicate_replies + phase2_stats.duplicate_replies;
  answer.deadline_hit = anytime;
  answer.hedges_sent = phase1_stats.hedges + phase2_stats.hedges;
  answer.stragglers_skipped =
      phase1_stats.straggler_skips + phase2_stats.straggler_skips;
  answer.degraded = answer.observations_lost > 0 || suspected > 0 ||
                    answer.trimmed_mass > 0.0 || anytime;
  double inflation = 1.0;
  if (answer.observations_lost > 0) {
    // The HT reweighting over the survivors is unbiased when loss is
    // independent of the data, but a crashed peer's contribution vanishes
    // *with* its data; widen the interval by the root of the loss ratio to
    // acknowledge that the loss mechanism may not be random.
    size_t requested = phase1_stats.requested + phase2_stats.requested;
    size_t arrived = phase1_stats.delivered + phase2_stats.delivered;
    inflation = std::sqrt(static_cast<double>(requested) /
                          static_cast<double>(std::max<size_t>(arrived, 1)));
  }
  // Every observation the defenses discarded or clamped is information the
  // CI no longer reflects; widen by the root of the surviving fraction,
  // as the loss widening above does for lost replies.
  double discarded = std::min(answer.trimmed_mass, 0.9);
  if (discarded > 0.0) inflation *= std::sqrt(1.0 / (1.0 - discarded));
  answer.ci_half_width_95 = kZ95 * std::sqrt(answer.variance) * inflation;
  answer.estimated_total = plan.estimated_total;
  answer.cv_error_relative = plan.cv_error_relative;
  answer.phase1_peers = phase1.size();
  answer.phase2_peers = phase2.size();
  // The error bound actually achieved, on required_error's scale.
  double denom = plan.estimated_total > 0.0 ? plan.estimated_total
                                            : std::fabs(answer.estimate);
  answer.achieved_error =
      denom > 0.0 ? answer.ci_half_width_95 / denom : 0.0;
  if (anytime && final_set.size() < 2) {
    // No usable spread: an anytime answer built from 0-1 observations has
    // no defensible CI, so report total relative error instead of a
    // spuriously perfect one.
    answer.achieved_error = 1.0;
  }
  return answer;
}

}  // namespace p2paqp::core
