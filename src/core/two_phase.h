// The paper's primary contribution: the adaptive two-phase sampling engine
// for approximate aggregation queries over an unstructured P2P network
// (Sec. 4).
//
// Phase I walks the overlay, collecting scaled local aggregates and degrees
// from m peers; the sink cross-validates the half-sample estimates to gauge
// how badly the data is clustered, sizes phase II accordingly, re-walks, and
// returns the Horvitz-Thompson estimate with the requested error bound met
// with high probability.
#ifndef P2PAQP_CORE_TWO_PHASE_H_
#define P2PAQP_CORE_TWO_PHASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/cross_validation.h"
#include "core/estimator.h"
#include "core/robust_estimator.h"
#include "net/health.h"
#include "net/network.h"
#include "query/local_executor.h"
#include "query/query.h"
#include "sampling/samplers.h"
#include "util/rng.h"
#include "util/status.h"

namespace p2paqp::core {

// What the required error (and the cross-validation error driving phase-II
// sizing) is measured relative to.
enum class ErrorNormalization {
  // |err| / total aggregate (N for COUNT): the paper's Sec. 3.4 derivation
  // ("divide the variance by N^2 ... the relative count aggregate") and its
  // [0,1]-normalized figures. Low-selectivity queries get loose absolute
  // targets.
  kTotalAggregate = 0,
  // |err| / query answer: a constant *relative* guarantee regardless of
  // selectivity; low-selectivity queries get proportionally tight absolute
  // targets (and bigger phase-II plans).
  kQueryAnswer,
};

struct EngineParams {
  // m: peers selected in phase I (the paper derives it from the initial
  // sample size r_orig as m = r_orig / t).
  size_t phase1_peers = 80;
  ErrorNormalization normalization = ErrorNormalization::kTotalAggregate;
  // t: sub-sampling budget per visited peer (0 = scan everything).
  uint64_t tuples_per_peer = 25;
  // How peers draw the t tuples: independent uniform tuples, or whole disk
  // blocks (cheaper local I/O; the intra-block correlation surfaces in the
  // cross-validation and is paid for with extra peers — Sec. 4).
  query::SubSampleMode subsample_mode = query::SubSampleMode::kUniformTuples;
  size_t block_size = 8;
  // Random halvings averaged by the cross-validation step.
  size_t cv_repeats = 10;
  // Clamps on the phase-II peer count m'.
  size_t min_phase2_peers = 4;
  size_t max_phase2_peers = 0;  // 0 = number of peers in the network.
  // If true, phase-I observations join the final estimate (cheaper but the
  // paper's plan uses phase II only; kept as an ablation switch).
  bool include_phase1_observations = false;
  // --- Fault tolerance ----------------------------------------------------
  // Extra send attempts for a (y(p), deg(p)) reply lost in transit before
  // the sink gives the observation up. Crashed peers cannot retransmit; a
  // fault-free network never retransmits.
  size_t reply_retransmits = 2;
  // Hard-fail a collection that delivers fewer than this fraction of the
  // requested observations; above it the engine degrades gracefully
  // (estimate reweighted over the survivors, CI widened, `degraded` set).
  double min_observation_quorum = 0.25;
  // --- Byzantine tolerance ------------------------------------------------
  // Sink-side defenses against lying peers (robust_estimator.h). The
  // all-default policy keeps the original estimation path bit-identical.
  RobustnessPolicy robustness;
  // --- Straggler resilience (net/health.h) --------------------------------
  // Walk-Not-Wait stepping, hedged replies, retransmit backoff and the
  // health circuit breaker. All-default = off: legacy behavior and RNG
  // streams, bit for bit.
  net::StragglerPolicy straggler;
  // Deadline on the simulated event clock (async engine only; 0 = none).
  // When it fires mid-query, the engine stops launching work and returns an
  // anytime answer: the current estimate over whatever replies arrived by
  // the deadline, quorum bypassed, CI widened through the PR 1
  // degraded-answer path, `deadline_hit` set.
  double deadline_ms = 0.0;
};

// Pluggable peer-side result cache enabling the hybrid pre-computation
// extension (core/hybrid.h). Not owned by the engine.
class LocalResultCache {
 public:
  virtual ~LocalResultCache() = default;
  // Returns true and fills `out` when `peer` holds a fresh cached result
  // for this query.
  virtual bool Lookup(graph::NodeId peer, const query::AggregateQuery& query,
                      query::LocalAggregate* out) = 0;
  virtual void Store(graph::NodeId peer, const query::AggregateQuery& query,
                     const query::LocalAggregate& aggregate) = 0;
};

struct ApproximateAnswer {
  double estimate = 0.0;
  // Estimated Var[y''] and the derived 95% normal confidence half-width.
  double variance = 0.0;
  double ci_half_width_95 = 0.0;
  // Estimated total aggregate over the whole database (N for COUNT, the
  // all-tuples sum for SUM): errors are normalized against this, matching
  // the paper's [0,1] error scale (Sec. 3.4 / Sec. 5.5).
  double estimated_total = 0.0;
  // Normalized cross-validation error measured in phase I (cv / total).
  double cv_error_relative = 0.0;
  size_t phase1_peers = 0;
  size_t phase2_peers = 0;
  // Tuples drawn into the sample across both phases — the paper's latency
  // surrogate ("sample size" in Figs. 4-16).
  uint64_t sample_tuples = 0;
  // Full cost vector attributed to this query.
  net::CostSnapshot cost;

  // --- Degradation report (message loss / mid-query churn) ----------------
  // True when requested observations were lost to faults or churn. The
  // estimate is then the Horvitz-Thompson reweighting over the replies that
  // arrived (each divided by its own selection probability, so the
  // estimator stays unbiased under selection-independent loss) and
  // ci_half_width_95 is widened by sqrt(requested / arrived).
  bool degraded = false;
  // Observations requested but never delivered, across both phases.
  size_t observations_lost = 0;
  // Walker tokens the sink had to re-issue (crashed holders, strands).
  size_t walk_restarts = 0;
  // The error bound actually achieved: the (possibly widened) 95% CI
  // half-width normalized like required_error. 0 when not computed.
  double achieved_error = 0.0;

  // --- Audit report (Byzantine defenses, RobustnessPolicy) ----------------
  // Peers whose claimed degree failed the neighbor-attestation audit; their
  // observations were discarded before estimation.
  size_t suspected_peers = 0;
  // Fraction of final observations screened, trimmed, or clamped by the
  // robust estimator (0 on the plain path).
  double trimmed_mass = 0.0;
  // Duplicate (replayed) replies the sink discarded before the quorum count.
  size_t duplicate_replies = 0;

  // --- Straggler report (StragglerPolicy / EngineParams.deadline_ms) ------
  // True when the deadline fired before collection finished: the answer is
  // the anytime estimate over the replies that beat the deadline.
  bool deadline_hit = false;
  // Hedged duplicate replies the sink requested from slow peers.
  size_t hedges_sent = 0;
  // Walk-Not-Wait forks plus breaker skips across both phases.
  size_t stragglers_skipped = 0;

  std::string ToString() const;
};

// Everything phase I ships to the sink for one selected peer.
struct PeerObservation {
  graph::NodeId peer = graph::kInvalidNode;
  uint32_t degree = 0;
  double stationary_weight = 0.0;
  query::LocalAggregate aggregate;
  // Position of this selection within its collection round. Replies are
  // tagged (query_id, peer, phase, selection_seq) on the wire; the sink
  // dedupes on the full tag, so a replayed copy (same seq) is dropped while
  // a legitimate with-replacement reselection (fresh seq) is kept.
  size_t selection_seq = 0;
};

// Degree cross-validation: for each distinct peer in `observations`, the
// sink probes `policy.degree_audit_probes` uniformly-chosen slots of the
// claimed adjacency list. A genuine slot resolves to a real neighbor, which
// attests; a fabricated slot (degree inflation) resolves to a random peer
// that denies unless it colludes. Probes and attestations ride SendDirect,
// so the installed FaultPlan can lose them — a lost round is inconclusive
// and votes for neither side. Peers whose delivered denials exceed
// policy.degree_audit_denial_threshold are removed from `observations`;
// returns how many peers were removed. Draws from `rng` only when the
// policy requests probes.
size_t AuditObservationDegrees(net::SimulatedNetwork* network,
                               const RobustnessPolicy& policy,
                               graph::NodeId sink,
                               std::vector<PeerObservation>* observations,
                               util::Rng& rng);

// The local step every collector runs at a selected peer: a fresh result
// in `cache` answers (a visit, no scan); else the sub-sampled scan runs (in
// `scratch` if given), is charged to the ledger, with its latency when
// `charge_scan_latency`, and is stored in `cache`. Then an adversarial peer
// tampers with its reply (degree and values). `obs` arrives with its peer,
// degree, weight and seq set. Returns the replayed copies the peer pushes.
size_t ScanSelectedPeer(net::SimulatedNetwork* network,
                        const EngineParams& params, LocalResultCache* cache,
                        const query::AggregateQuery& query,
                        bool charge_scan_latency, util::Rng& rng,
                        query::LocalExecScratch* scratch,
                        PeerObservation* obs);

struct PhaseCollection;

class TwoPhaseEngine {
 public:
  // Uses the paper's sampler: a jump-`catalog.suggested_jump` random walk.
  TwoPhaseEngine(net::SimulatedNetwork* network, const SystemCatalog& catalog,
                 const EngineParams& params);

  // Custom sampler (baselines, biased walks, oracle). `total_weight` is the
  // normalizer turning the sampler's stationary weights into probabilities
  // (2|E| for degree weights, M for uniform weights).
  TwoPhaseEngine(net::SimulatedNetwork* network, const SystemCatalog& catalog,
                 const EngineParams& params,
                 std::unique_ptr<sampling::PeerSampler> sampler,
                 double total_weight);

  // Answers COUNT / SUM / AVG / MEDIAN / QUANTILE / DISTINCT queries with
  // the adaptive two-phase plan. The error target is query.required_error.
  util::Result<ApproximateAnswer> Execute(const query::AggregateQuery& query,
                                          graph::NodeId sink, util::Rng& rng);

  // Starts a query: with the straggler policy on, sizes and clears the
  // health board, so the walk's circuit breaker neither sits unsized nor
  // walks on the previous query's scores. Execute calls it for every
  // operator; a plan that drives CollectObservations itself (the histogram
  // path) calls it first.
  void BeginQuery();

  // Per-collection fault-recovery accounting.
  struct CollectionStats {
    size_t requested = 0;
    size_t delivered = 0;
    size_t lost = 0;  // requested - delivered.
    size_t reply_retransmits = 0;
    size_t walk_restarts = 0;
    // Replayed/duplicate replies the sink dropped (never quorum-counted).
    size_t duplicate_replies = 0;
    // Hedged duplicates issued to predicted-slow peers.
    size_t hedges = 0;
    // Walk-Not-Wait forks + breaker skips during sampling.
    size_t straggler_skips = 0;
    // The collection was cut short by EngineParams.deadline_ms.
    bool deadline_hit = false;
  };

  // Visits `count` peers via the engine's sampler and returns their shipped
  // observations (local execution, cost accounting and reply messages
  // included). Exposed for the median/distinct paths and for tests.
  //
  // Fault-tolerant: lost walker tokens are re-issued by the sampler, a
  // reply lost in transit is retransmitted after a sink-side timeout (up to
  // params().reply_retransmits extra attempts), and residual losses are
  // reported through `stats` instead of failing the call. Hard-fails only
  // when fewer than params().min_observation_quorum of the requested
  // observations arrive (or on non-retryable errors such as a dead sink).
  // `retry_budget_left` (optional) is the query-scoped budget shared across
  // phases: retries and hedges decrement it and stop when it hits 0. When
  // null and params().straggler.retry_budget > 0, each collection gets its
  // own budget.
  util::Result<std::vector<PeerObservation>> CollectObservations(
      const query::AggregateQuery& query, graph::NodeId sink, size_t count,
      util::Rng& rng, CollectionStats* stats = nullptr,
      size_t* retry_budget_left = nullptr);

  // Hybrid extension hook; pass nullptr to disable. Not owned.
  void set_cache(LocalResultCache* cache) { cache_ = cache; }

  double total_weight() const { return total_weight_; }
  const EngineParams& params() const { return params_; }
  const SystemCatalog& catalog() const { return catalog_; }
  net::SimulatedNetwork* network() { return network_; }

 private:
  // COUNT / SUM / AVG common path.
  util::Result<ApproximateAnswer> ExecuteCentral(
      const query::AggregateQuery& query, graph::NodeId sink, util::Rng& rng);

  // One collection without the quorum rule: the walk, then each visit's
  // local scan and reply. Retries and hedges draw on `*retry_budget`.
  PhaseCollection Gather(const query::AggregateQuery& query,
                         graph::NodeId sink, size_t count, util::Rng& rng,
                         size_t* retry_budget);

  net::SimulatedNetwork* network_;
  SystemCatalog catalog_;
  EngineParams params_;
  // Reply-latency/failure scoreboard feeding the walk's circuit breaker.
  // Declared before sampler_ so the default sampler's WalkParams can point
  // at it. Reset by BeginQuery() when the straggler policy is enabled.
  net::PeerHealthBoard health_;
  std::unique_ptr<sampling::PeerSampler> sampler_;
  double total_weight_;
  LocalResultCache* cache_ = nullptr;
};

// Sink-side outcome of one reply (SendReply). `accepted` is 1, or 0 when
// every copy was lost (more only under the kDisableReplyDedup seam).
struct ReplyOutcome {
  size_t accepted = 0;
  size_t retransmits = 0;
  size_t hedges = 0;
  size_t duplicates = 0;  // Copies the dedup dropped.
};

// The reply step of the sync engine and the scheduler. `peer`'s (y(p),
// deg(p)) reply goes straight back to `sink` over direct IP (Sec. 3.2) as
// one wire message carrying `batch` query bodies behind a shared header.
// Lost, it is retransmitted after a sink-side timeout up to
// params.reply_retransmits times, each retry's backoff wait charged to the
// ledger; a predictably tardy peer gets one hedged duplicate; the
// adversary's `replays` copies follow, and the sink's dedup on `tag` counts
// one. Retries and hedges draw on `*retry_budget`; each wire message is one
// history record of width `batch`; `health` (optional) scores each attempt.
ReplyOutcome SendReply(net::SimulatedNetwork* network,
                       const EngineParams& params,
                       net::PeerHealthBoard* health, graph::NodeId peer,
                       graph::NodeId sink, uint32_t batch, size_t replays,
                       uint64_t tag, size_t* retry_budget, util::Rng& rng);

// ---- The plan (Sec. 4), driven once ---------------------------------------
// RunTwoPhasePlan takes a batch of queries through phase I, the quorum,
// PlanPhaseTwo, phase II at each query's own m', the quorum and
// BuildAnswer. The engines differ only in their PhaseCollector: one walk
// per query (TwoPhaseEngine), event-driven walkers (AsyncQuerySession), or a
// shared sample frame whose batched replies carry every query's body
// (QueryScheduler). The steps below are public for the median, distinct and
// histogram plans and for tests.

enum class Phase { kOne = 1, kTwo = 2 };

struct PhaseRequest {
  size_t query = 0;  // Position in the batch.
  size_t count = 0;  // Observations requested: m, or the query's m'.
};

struct PhaseCollection {
  // Not ok: the collection failed (a dead sink, a failed walk), and with it
  // the query.
  util::Status status;
  std::vector<PeerObservation> observations;
  // The collector fills the counters and deadline_hit; the driver fills
  // requested, delivered and lost.
  TwoPhaseEngine::CollectionStats stats;
};

// Gathers one phase into out[i] for requests[i] (live queries, in batch
// order; `out` arrives sized). Retries and hedges draw on `*retry_budget`,
// which spans both phases of the batch.
using PhaseCollector = std::function<void(
    Phase phase, std::span<const query::AggregateQuery> queries,
    const std::vector<PhaseRequest>& requests, size_t* retry_budget,
    std::vector<PhaseCollection>& out)>;

// One answer per query, in order. A query `admitted` rejects (empty = all
// admitted) is answered with its status and never collected. A query fails
// alone: below the quorum in either phase, or when its plan or answer step
// fails. A collection that reports deadline_hit waives its quorum, and a
// deadline-cut phase I whose plan fails is answered from phase I. Draws from
// `rng` in order: phase I, the plans, phase II, the answers.
std::vector<util::Result<ApproximateAnswer>> RunTwoPhasePlan(
    const PhaseCollector& collect, net::SimulatedNetwork* network,
    const EngineParams& params, double total_weight, graph::NodeId sink,
    std::span<const query::AggregateQuery> queries,
    std::vector<util::Status> admitted, util::Rng& rng);

// Phase-II plan the sink derives from the phase-I observations.
struct PhaseTwoPlan {
  // m': peers to select in phase II.
  size_t peers = 0;
  // What errors are normalized against (ApproximateAnswer::estimated_total).
  double estimated_total = 0.0;
  // Cross-validation error over estimated_total
  // (ApproximateAnswer::cv_error_relative).
  double cv_error_relative = 0.0;
};

// The paper's m' = (m/2) * (CVError / delta_req)^2 (PhaseTwoSampleSize),
// clamped to [params.min_phase2_peers, cap], where the cap is
// params.max_phase2_peers or, when that is 0, the network size. The median,
// distinct and histogram plans call it with their own CV errors.
size_t SizePhaseTwo(const EngineParams& params, size_t num_peers,
                    size_t phase1_peers, double cv_error_relative,
                    double required_error);

// Sizing step for COUNT/SUM/AVG: cross-validates `phase1` (the ratio CV for
// AVG), estimates the total aggregate errors are normalized against, and
// sizes phase II from the observations that actually arrived. The total
// falls back to |CV estimate| for AVG (which never scales with
// selectivity), under ErrorNormalization::kQueryAnswer, or when the
// estimated total is not positive. Unavailable, without drawing from `rng`,
// when fewer than two observations arrived; otherwise draws the CV shuffles.
util::Result<PhaseTwoPlan> PlanPhaseTwo(
    const std::vector<PeerObservation>& phase1,
    const query::AggregateQuery& query, const EngineParams& params,
    double total_weight, size_t num_peers, util::Rng& rng);

// Quorum rule: Unavailable when fewer than
// ceil(min_observation_quorum * requested) observations were delivered.
// The kSkipQuorumCheck injected bug waives it.
util::Status CheckObservationQuorum(size_t delivered, size_t requested,
                                    double min_observation_quorum);

// Answer step for COUNT/SUM/AVG.
//  - Final set: phase II, plus phase I under
//    params.include_phase1_observations or when a deadline cut collection
//    short (an anytime answer, flagged by either stats' deadline_hit).
//  - Degree audit (AuditObservationDegrees; draws from `rng` only when the
//    policy probes). An empty set fails, except an anytime one, which
//    answers 0.
//  - Estimate: the HT ratio for AVG (variance 0; not robustified), else
//    robust HT when params.robustness is enabled, else plain HT.
//  - ci_half_width_95 = z95 * sqrt(variance) * inflation: sqrt(requested /
//    arrived) when observations were lost, times sqrt(1 / (1 - d)) with
//    d = min(trimmed_mass, 0.9) when the robust estimator discarded mass.
//  - achieved_error = ci_half_width_95 / plan.estimated_total, or over
//    |estimate| when that total is 0 (0 when both are); 1.0 for an anytime
//    answer from fewer than two observations.
//  - Every degradation, audit and straggler field, summed over both phases.
// `network` is touched only by the audit. The caller fills in `cost` and
// `sample_tuples`.
util::Result<ApproximateAnswer> BuildAnswer(
    net::SimulatedNetwork* network, const EngineParams& params,
    query::AggregateOp op, graph::NodeId sink, double total_weight,
    const PhaseTwoPlan& plan, const std::vector<PeerObservation>& phase1,
    const TwoPhaseEngine::CollectionStats& phase1_stats,
    const std::vector<PeerObservation>& phase2,
    const TwoPhaseEngine::CollectionStats& phase2_stats, util::Rng& rng);

}  // namespace p2paqp::core

#endif  // P2PAQP_CORE_TWO_PHASE_H_
