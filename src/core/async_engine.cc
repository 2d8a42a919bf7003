#include "core/async_engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "util/alloc_guard.h"
#include "util/bug_injection.h"

namespace p2paqp::core {

namespace {

// One in-flight phase. Stack-local to RunPhase: every queued event resolves
// before RunPhase returns (the queue drains inside it), so events reference
// the runtime and the session buffers by raw pointer/handle — no shared_ptr
// webs, no per-event closure state beyond 16 bytes.
//
// Walker hops are *step events* (net::StepHandler): the queue stores just
// (this, walker_index) and hands every simultaneous pending hop to RunSteps
// in one batch, which iterates the SoA walker arrays with a two-deep
// software-prefetch pipeline over the compressed CSR. Replies park their
// payload in the session's SlotArena and schedule a 16-byte
// (runtime, handle) closure — the steady-state path performs no heap
// allocation (AllocGuard-measured by RunPhase, gated by tools/bench_gate.py).
class PhaseRuntime final : public net::StepHandler {
 public:
  PhaseRuntime(net::SimulatedNetwork* network, const AsyncParams& params,
               net::EventQueue& events, const query::AggregateQuery& query,
               graph::NodeId sink, size_t count, util::Rng& rng,
               net::HistoryRecorder* history, uint64_t dedup_round,
               AsyncHotBuffers& buffers,
               std::vector<PeerObservation>& observations, double deadline_ms,
               size_t* retry_budget)
      : network_(network),
        params_(params),
        events_(events),
        query_(query),
        sink_(sink),
        rng_(rng),
        history_(history),
        dedup_round_(dedup_round),
        buf_(buffers),
        observations_(observations),
        deadline_(deadline_ms),
        retry_budget_(retry_budget),
        hops_left_(100 * (params.walk.burn_in * params.walkers +
                          count * params.walk.jump) +
                   1000),
        restarts_left_(sampling::AutoMaxRestarts(count)) {}

  // Launches up to `walkers` tokens with near-even selection shares.
  void Launch(size_t count) {
    size_t remaining = count;
    for (size_t w = 0; w < params_.walkers && remaining > 0; ++w) {
      size_t share = remaining / (params_.walkers - w);
      if (share == 0) continue;
      remaining -= share;
      buf_.walker_current.push_back(sink_);
      buf_.walker_burn_left.push_back(params_.walk.burn_in);
      buf_.walker_since_selection.push_back(0);
      buf_.walker_remaining.push_back(share);
      buf_.walker_incarnation.push_back(network_->peer(sink_).incarnation());
      ++active_walkers_;
      events_.ScheduleStepAfter(
          network_->DrawHopLatency(), this,
          static_cast<uint32_t>(buf_.walker_current.size() - 1));
    }
  }

  // Mid-query churn stop condition: walkers still holding a token plus
  // replies racing back to the sink.
  bool InFlight() const {
    return active_walkers_ > 0 || pending_replies_ > 0;
  }

  // Batched walker-step kernel. A walker has at most one pending hop, so
  // every arg in a batch is a distinct walker and the prefetched
  // walker_current entries are stable across the loop: pull walker i+2's
  // offset-table line and walker i+1's varint block while decoding walker
  // i's neighbors.
  void RunSteps(const uint32_t* args, size_t n) override {
    const graph::Graph& graph = network_->graph();
    for (size_t i = 0; i < n; ++i) {
      if (i + 2 < n) graph.PrefetchOffset(buf_.walker_current[args[i + 2]]);
      if (i + 1 < n) {
        graph.PrefetchNeighbors(buf_.walker_current[args[i + 1]]);
      }
      StepWalker(args[i]);
    }
  }

  size_t restarts = 0;
  size_t retransmits = 0;
  size_t selections = 0;
  size_t duplicates = 0;
  size_t hedges = 0;
  size_t straggler_skips = 0;
  // Latches once the event clock reaches the query deadline: walker steps
  // stop scheduling new work and later-than-deadline replies are discarded,
  // so the queue drains naturally instead of being truncated (the ledger
  // and the reply arena still balance).
  bool deadline_hit = false;
  // When the sink last learned something it needed: the latest accepted
  // reply or final walker termination. The queue keeps draining past this
  // instant (losing hedge copies, deduped replays), but that drain is
  // bookkeeping, not waiting — the phase's wall clock stops here.
  double done_ms = 0.0;

 private:
  // One walker hop arriving at a new peer. On the straggler-free default
  // policy: identical draws, costs, history records and fault semantics as
  // the closure-per-hop implementation this replaced — only the state
  // layout (SoA indexed by `w`) changed. DrawPeerTailDelay consumes no
  // draws without a tail regime, so legacy replay digests are untouched.
  void StepWalker(uint32_t w) {
    if (events_.now() >= deadline_) {
      // Anytime semantics: no new walker work at or past the deadline.
      // In-flight replies drain on their own (and are dropped on arrival).
      deadline_hit = true;
      WalkerDone();
      return;
    }
    if (hops_left_ == 0) {
      // Hop budget exhausted: the token expires and its remaining
      // selections are lost (the quorum check decides the phase's fate).
      WalkerDone();
      return;
    }
    --hops_left_;
    const graph::NodeId holder = buf_.walker_current[w];
    std::vector<graph::NodeId>& neighbors = buf_.neighbors;
    network_->AliveNeighborsInto(holder, &neighbors);
    // An adversarial token holder may forward only to colluding neighbors
    // (walk hijack); the uniform draw below then picks among colluders.
    if (net::AdversaryInjector* adversary = network_->adversary()) {
      adversary->RestrictForwarding(holder, &neighbors);
    }
    bool token_lost =
        !network_->IsAlive(holder) ||
        network_->peer(holder).incarnation() != buf_.walker_incarnation[w] ||
        neighbors.empty();
    if (!token_lost) {
      const net::StragglerPolicy& sp = params_.engine.straggler;
      graph::NodeId next = neighbors[rng_.UniformIndex(neighbors.size())];
      const bool selection_due =
          buf_.walker_burn_left[w] == 0 &&
          buf_.walker_since_selection[w] + 1 >= params_.walk.jump;
      // Circuit breaker: a tripped neighbor is not worth sending the token
      // to — fork immediately, for free. Selection-due hops are exempt (the
      // tripped peer's probability of being *selected* must stay exactly
      // proportional to its degree), as are hops with no untripped
      // alternative (a walk boxed in by bad peers must still make progress).
      if (sp.health_tracking && !selection_due && neighbors.size() > 1 &&
          buf_.health.Tripped(next) &&
          HasUntrippedAlternative(neighbors, next)) {
        ForkPastStraggler(w, holder, next, /*token_sent=*/false,
                          /*transit_ms=*/0.0, /*wait_ms=*/0.0,
                          /*selection_due=*/false);
        return;
      }
      if (sp.walk_not_wait) {
        // Walk-Not-Wait: draw the hop's full transit (wire delay plus the
        // neighbor's straggler tail) up front. Past the adaptive budget the
        // token is still sent — on a selection-due hop the tardy peer is
        // selected *in absentia*, preserving selection probabilities — but
        // the walk refuses to wait: it forks from the holder once the
        // budget elapses.
        const double tail_ms = network_->DrawPeerTailDelay(next, rng_);
        const double transit = network_->DrawHopLatency() + tail_ms;
        const double budget = HopBudgetMs();
        ObserveHop(transit);
        if (transit > budget && neighbors.size() > 1) {
          ForkPastStraggler(w, holder, next, /*token_sent=*/true, transit,
                            /*wait_ms=*/budget, selection_due);
          return;
        }
        util::Status sent =
            network_->SendAlongEdge(net::MessageType::kWalker, holder, next);
        if (sent.ok()) {
          if (sp.health_tracking) buf_.health.Record(next, transit, true);
          AdvanceWalker(w, next, tail_ms);
          if (buf_.walker_remaining[w] > 0) {
            events_.ScheduleStepAfter(transit, this, w);
          } else {
            WalkerDone();  // All selections gathered.
          }
          return;
        }
        if (sp.health_tracking) buf_.health.Record(next, 0.0, false);
        if (network_->IsAlive(holder) && network_->AliveDegree(holder) > 0) {
          events_.ScheduleStepAfter(network_->DrawHopLatency(), this, w);
          return;
        }
        token_lost = true;
      } else {
        util::Status sent =
            network_->SendAlongEdge(net::MessageType::kWalker, holder, next);
        if (sent.ok()) {
          // The synchronous ledger summed this hop's latency; the event
          // clock is authoritative here, so draw the event delay
          // independently. The neighbor's straggler tail (0 draws without a
          // tail regime) delays both its reply and the next hop.
          const double tail_ms = network_->DrawPeerTailDelay(next, rng_);
          AdvanceWalker(w, next, tail_ms);
          if (buf_.walker_remaining[w] > 0) {
            const double transit = network_->DrawHopLatency() + tail_ms;
            if (sp.health_tracking) {
              buf_.health.Record(next, transit, true);
              ObserveHop(transit);
            }
            events_.ScheduleStepAfter(transit, this, w);
          } else {
            WalkerDone();  // All selections gathered.
          }
          return;
        }
        if (sp.health_tracking) buf_.health.Record(next, 0.0, false);
        // The hop was lost in transit (drop, or the chosen neighbor crashed
        // on receipt). A live holder with a live route still has the token:
        // link-level retransmit after a timeout.
        if (network_->IsAlive(holder) && network_->AliveDegree(holder) > 0) {
          events_.ScheduleStepAfter(network_->DrawHopLatency(), this, w);
          return;
        }
        token_lost = true;
      }
    }
    // The token is gone: its holder crashed or stranded with no live
    // route. The sink re-issues it with a *fresh burn-in* — a token
    // restarted at the sink is no longer stationary-distributed.
    if (!network_->IsAlive(sink_) || network_->AliveDegree(sink_) == 0 ||
        restarts_left_ == 0) {
      WalkerDone();  // Unrecoverable: selections lost.
      return;
    }
    --restarts_left_;
    ++restarts;
    buf_.walker_current[w] = sink_;
    buf_.walker_incarnation[w] = network_->peer(sink_).incarnation();
    buf_.walker_burn_left[w] = params_.walk.burn_in;
    buf_.walker_since_selection[w] = 0;
    events_.ScheduleStepAfter(network_->DrawHopLatency(), this, w);
  }

  // Successful hop bookkeeping shared by the legacy and Walk-Not-Wait
  // branches: advance the token, consume burn-in, select when due.
  // `reply_extra_ms` folds the token's tardy inbound transit into the
  // reply's departure (a slow peer cannot scan before the token arrives).
  void AdvanceWalker(uint32_t w, graph::NodeId next, double reply_extra_ms) {
    buf_.walker_current[w] = next;
    buf_.walker_incarnation[w] = network_->peer(next).incarnation();
    if (buf_.walker_burn_left[w] > 0) {
      --buf_.walker_burn_left[w];
    } else if (++buf_.walker_since_selection[w] >= params_.walk.jump) {
      buf_.walker_since_selection[w] = 0;
      --buf_.walker_remaining[w];
      SelectPeer(next, reply_extra_ms);
    }
  }

  // Walk-Not-Wait fork: give up on a tardy (token_sent) or breaker-tripped
  // (!token_sent) neighbor. With token_sent the token genuinely goes out —
  // charged like any hop, and when the hop was selection-due the tardy peer
  // is selected *in absentia* (its scan and reply proceed with the tardy
  // transit folded in), so selection probabilities are exactly those of the
  // unforked walk. The walk itself treats the fork as a *lazy self-loop*:
  // the walker stays at the holder, waits out `wait_ms`, and redraws — no
  // burn-in reset, no counter reset. Self-loops preserve detailed balance
  // for the degree-stationary distribution, so forking never conditions
  // the trajectory on having avoided slow peers (a re-burn-in here would:
  // the restarted chain mixes under the forked kernel and warps the holder
  // distribution toward slow-free neighborhoods). Breaker skips send
  // nothing and wait for nothing; they only fire on non-selection-due hops.
  void ForkPastStraggler(uint32_t w, graph::NodeId holder, graph::NodeId next,
                         bool token_sent, double transit_ms, double wait_ms,
                         bool selection_due) {
    ++straggler_skips;
    if (history_ != nullptr) {
      history_->Record(net::HistoryEventKind::kStragglerSkip,
                       net::MessageType::kWalker, holder, next);
    }
    if (token_sent) {
      util::Status sent =
          network_->SendAlongEdge(net::MessageType::kWalker, holder, next);
      if (params_.engine.straggler.health_tracking) {
        buf_.health.Record(next, transit_ms, sent.ok());
      }
      if (sent.ok() && selection_due) {
        buf_.walker_since_selection[w] = 0;
        --buf_.walker_remaining[w];
        SelectPeer(next, transit_ms);
      }
    }
    if (buf_.walker_remaining[w] == 0) {
      WalkerDone();
      return;
    }
    events_.ScheduleStepAfter(wait_ms, this, w);
  }

  bool HasUntrippedAlternative(const std::vector<graph::NodeId>& neighbors,
                               graph::NodeId skip) const {
    for (graph::NodeId n : neighbors) {
      if (n != skip && !buf_.health.Tripped(n)) return true;
    }
    return false;
  }

  // One walker token retired (selections gathered, expired, or lost). The
  // last termination stamps the phase clock: a token that died with
  // selections outstanding is the moment the sink's walk gave up on them.
  void WalkerDone() {
    if (--active_walkers_ == 0 && events_.now() > done_ms) {
      done_ms = events_.now();
    }
  }

  // Spends one unit of the query-scoped retry/hedge budget; false when
  // exhausted (SIZE_MAX = unlimited, the no-policy default).
  bool ConsumeRetry() {
    if (*retry_budget_ == 0) return false;
    if (*retry_budget_ != SIZE_MAX) --*retry_budget_;
    return true;
  }

  // Adaptive Walk-Not-Wait hop budget: a multiple of the EWMA hop transit,
  // floored so a quiet network cannot shrink it below ~2 nominal hops.
  // Infinite until a few hops have been observed (never fork blind).
  double HopBudgetMs() const {
    if (hop_samples_ < 3) return std::numeric_limits<double>::infinity();
    const net::StragglerPolicy& sp = params_.engine.straggler;
    double budget = sp.hop_budget_factor * hop_ewma_;
    double floor = sp.hop_budget_floor_ms > 0.0
                       ? sp.hop_budget_floor_ms
                       : 2.0 * network_->NominalHopLatencyMs();
    return budget < floor ? floor : budget;
  }

  // Sink-side hedge timer: a reply slower than this multiple of the EWMA
  // reply latency gets one duplicate. Infinite until warmed up.
  double HedgeDueMs() const {
    if (reply_samples_ < 3) return std::numeric_limits<double>::infinity();
    const net::StragglerPolicy& sp = params_.engine.straggler;
    double due = sp.hedge_delay_factor * reply_ewma_;
    double floor = network_->NominalHopLatencyMs();
    return due < floor ? floor : due;
  }

  // Winsorized EWMAs feeding the adaptive budgets: a single straggler
  // observation must not drag the budget up to straggler scale, so samples
  // are clamped to 8x the running mean before folding in.
  void ObserveHop(double transit_ms) {
    const double alpha = params_.engine.straggler.ewma_alpha;
    double clamped = hop_samples_ > 0 && transit_ms > 8.0 * hop_ewma_
                         ? 8.0 * hop_ewma_
                         : transit_ms;
    hop_ewma_ = hop_samples_ == 0 ? clamped
                                  : (1.0 - alpha) * hop_ewma_ + alpha * clamped;
    ++hop_samples_;
  }

  void ObserveReply(double delay_ms) {
    const double alpha = params_.engine.straggler.ewma_alpha;
    double clamped = reply_samples_ > 0 && delay_ms > 8.0 * reply_ewma_
                         ? 8.0 * reply_ewma_
                         : delay_ms;
    reply_ewma_ = reply_samples_ == 0
                      ? clamped
                      : (1.0 - alpha) * reply_ewma_ + alpha * clamped;
    ++reply_samples_;
  }

  // One selected peer: scan locally (scan-time delay), then the reply races
  // back to the sink over direct IP (half-hop delay, like SendDirect). A
  // reply lost to faults is retransmitted after a sink-side timeout (each
  // attempt adds its own wire delay, plus the policy's backoff wait when
  // one is configured); a crashed endpoint cannot retry and the observation
  // is lost. `extra_reply_delay_ms` is the tardy inbound token transit: the
  // peer cannot scan before the token reaches it.
  void SelectPeer(graph::NodeId peer, double extra_reply_delay_ms = 0.0) {
    PeerObservation obs;
    obs.peer = peer;
    obs.degree = network_->AliveDegree(peer);
    obs.stationary_weight = static_cast<double>(obs.degree);
    obs.selection_seq = selections++;
    size_t replays = ScanSelectedPeer(network_, params_.engine,
                                      /*cache=*/nullptr, query_,
                                      /*charge_scan_latency=*/false, rng_,
                                      &buf_.exec, &obs);
    double scan_ms =
        network_->LocalScanLatency(peer, obs.aggregate.processed_tuples);
    const net::StragglerPolicy& sp = params_.engine.straggler;
    double delay = scan_ms + extra_reply_delay_ms;
    bool delivered = false;
    for (size_t attempt = 0; attempt <= params_.engine.reply_retransmits;
         ++attempt) {
      if (attempt > 0) {
        if (!ConsumeRetry()) break;
        ++retransmits;
        double wait = net::RetryBackoffMs(sp, attempt, rng_);
        if (wait > 0.0) {
          // The retry leaves at its actual (jittered) schedule time: the
          // backoff wait lands in the cost ledger and in the copy's
          // arrival delay, not just in the history trace.
          delay += wait;
          network_->cost().RecordLatency(wait);
        }
        if (history_ != nullptr) {
          history_->Record(net::HistoryEventKind::kTimeout,
                           net::MessageType::kAggregateReply, peer, sink_);
          history_->Record(net::HistoryEventKind::kRetransmit,
                           net::MessageType::kAggregateReply, peer, sink_);
        }
      }
      if (SendReplyCopy(peer, &delay)) {
        delivered = true;
        break;
      }
      if (!network_->IsAlive(peer) || !network_->IsAlive(sink_)) break;
    }
    if (sp.health_tracking) buf_.health.Record(peer, delay, delivered);
    if (delivered) {
      ObserveReply(delay);
      DeliverReply(obs, delay);
      // Hedged retransmit: the sink's hedge timer fires before a straggling
      // primary can arrive, so one duplicate copy goes out; whichever copy
      // arrives first is accepted, the other is absorbed by the
      // (peer, selection_seq) dedup. Duplicating the *same* observation is
      // bias-free — only the delivery race changes.
      if (sp.hedged_replies) {
        const double hedge_due = HedgeDueMs();
        if (delay > hedge_due && ConsumeRetry()) {
          ++hedges;
          if (history_ != nullptr) {
            const uint64_t tag =
                net::DedupTag(dedup_round_, peer, obs.selection_seq);
            history_->Record(net::HistoryEventKind::kHedgeDue,
                             net::MessageType::kAggregateReply, peer, sink_);
            history_->Record(net::HistoryEventKind::kHedge,
                             net::MessageType::kAggregateReply, peer, sink_,
                             1, tag);
          }
          // The duplicate is served from the peer's already-computed scan:
          // it departs when the hedge timer fires, no second scan charge.
          double hedge_delay = hedge_due;
          if (SendReplyCopy(peer, &hedge_delay)) {
            DeliverReply(obs, hedge_delay);
          }
        }
      }
    }
    // Replayed copies each cross the wire independently. A copy that
    // arrives after the original is deduped; if the original was lost, the
    // first surviving copy is accepted (indistinguishable from a
    // retransmit).
    for (size_t replay = 0; replay < replays; ++replay) {
      if (!network_->IsAlive(peer) || !network_->IsAlive(sink_)) break;
      double copy_delay = delay;
      if (!SendReplyCopy(peer, &copy_delay)) continue;
      DeliverReply(obs, copy_delay);
    }
  }

  // Charges one reply copy and resolves its fate in the ledger/history,
  // exactly like SimulatedNetwork's transport does for routed sends.
  bool SendReplyCopy(graph::NodeId peer, double* delay) {
    network_->cost().RecordMessage(
        net::DefaultPayloadBytes(net::MessageType::kAggregateReply));
    if (history_ != nullptr) {
      history_->Record(net::HistoryEventKind::kSend,
                       net::MessageType::kAggregateReply, peer, sink_);
    }
    net::FaultDecision faults = network_->ApplyFaults(
        net::MessageType::kAggregateReply, peer, sink_, peer);
    *delay += network_->DrawHopLatency() * 0.5 + faults.extra_latency_ms;
    bool ok = faults.deliver && network_->IsAlive(peer) &&
              network_->IsAlive(sink_);
    if (ok) {
      network_->cost().RecordDelivered();
    } else {
      network_->cost().RecordDropped();
    }
    if (history_ != nullptr) {
      history_->Record(ok ? net::HistoryEventKind::kDeliver
                          : net::HistoryEventKind::kDrop,
                       net::MessageType::kAggregateReply, peer, sink_);
    }
    return ok;
  }

  // One reply copy racing to the sink. The payload parks in the session's
  // arena; the queued closure is (this, handle) — 16 bytes, inline in the
  // event slot, no allocation.
  void DeliverReply(const PeerObservation& obs, double arrival_delay) {
    ++pending_replies_;
    net::ArenaHandle handle = buf_.reply_arena.Acquire();
    buf_.reply_arena.at(handle) = obs;
    PhaseRuntime* self = this;
    events_.ScheduleAfter(arrival_delay,
                          [self, handle]() { self->ReplyArrived(handle); });
  }

  // Sink-side arrival: dedup on selection_seq, so only the first copy of a
  // selection is ever counted.
  void ReplyArrived(net::ArenaHandle handle) {
    const PeerObservation reply = buf_.reply_arena.at(handle);
    buf_.reply_arena.Release(handle);
    --pending_replies_;
    if (events_.now() > deadline_) {
      // The sink answered at the deadline; this copy is late and counts as
      // lost (a reply arriving *exactly at* the deadline is still taken).
      // The expire record resolves the tag for the history checker's
      // hedge-accounting rule. Only a copy the sink still *needed* latches
      // the deadline flag — a losing hedge duplicate straggling in after
      // its primary was accepted curtailed nothing.
      if (buf_.seen_seq[reply.selection_seq] == 0) deadline_hit = true;
      if (history_ != nullptr) {
        history_->Record(net::HistoryEventKind::kExpire,
                         net::MessageType::kAggregateReply, reply.peer, sink_,
                         1,
                         net::DedupTag(dedup_round_, reply.peer,
                                       reply.selection_seq));
      }
      return;
    }
    const uint64_t tag =
        net::DedupTag(dedup_round_, reply.peer, reply.selection_seq);
    P2PAQP_DCHECK(reply.selection_seq < buf_.seen_seq.size());
    const bool duplicate = buf_.seen_seq[reply.selection_seq] != 0;
    buf_.seen_seq[reply.selection_seq] = 1;
    if (duplicate && !util::BugArmed(util::InjectedBug::kDisableReplyDedup)) {
      ++duplicates;  // Replayed copy: dropped at the sink.
      if (history_ != nullptr) {
        history_->Record(net::HistoryEventKind::kDedupDrop,
                         net::MessageType::kAggregateReply, reply.peer, sink_,
                         1, tag);
      }
      return;
    }
    observations_.push_back(reply);  // Reply reached the sink.
    if (events_.now() > done_ms) done_ms = events_.now();
    if (history_ != nullptr) {
      history_->Record(net::HistoryEventKind::kDedupAccept,
                       net::MessageType::kAggregateReply, reply.peer, sink_,
                       1, tag);
    }
  }

  net::SimulatedNetwork* network_;
  const AsyncParams& params_;
  net::EventQueue& events_;
  const query::AggregateQuery& query_;
  const graph::NodeId sink_;
  util::Rng& rng_;
  net::HistoryRecorder* history_;
  const uint64_t dedup_round_;
  AsyncHotBuffers& buf_;
  std::vector<PeerObservation>& observations_;
  const double deadline_;  // Absolute event-clock instant; +inf = none.
  size_t* retry_budget_;   // Query-scoped; shared across both phases.
  size_t hops_left_;       // Global hop budget across all walkers.
  size_t restarts_left_;   // Global token-restart budget.
  size_t active_walkers_ = 0;
  size_t pending_replies_ = 0;
  // Adaptive-budget state (Walk-Not-Wait and hedging), warmed by the first
  // few observed transits/replies of the query itself.
  double hop_ewma_ = 0.0;
  size_t hop_samples_ = 0;
  double reply_ewma_ = 0.0;
  size_t reply_samples_ = 0;
};

}  // namespace

AsyncQuerySession::AsyncQuerySession(net::SimulatedNetwork* network,
                                     const SystemCatalog& catalog,
                                     const AsyncParams& params)
    : network_(network), catalog_(catalog), params_(params) {
  P2PAQP_CHECK(network_ != nullptr);
  P2PAQP_CHECK_GE(params_.walkers, 1u);
  P2PAQP_CHECK_GE(params_.walk.jump, 1u);
  P2PAQP_CHECK(params_.walk.variant == sampling::WalkVariant::kSimple)
      << "async session supports the simple walk only";
}

std::vector<PeerObservation> AsyncQuerySession::RunPhase(
    net::EventQueue& events, const query::AggregateQuery& query,
    graph::NodeId sink, size_t count, util::Rng& rng,
    TwoPhaseEngine::CollectionStats* stats, uint64_t* drain_allocs,
    double deadline_ms, size_t* retry_budget, double* elapsed_ms) {
  net::HistoryRecorder* history = network_->history();
  const uint64_t dedup_round = history != nullptr ? history->NextRound() : 0;
  // The queue's clock is monotone across phases (a fresh phase starts where
  // the previous drain ended), so the phase-relative deadline budget is
  // rebased to an absolute instant here and all phase timing is measured
  // from `phase_start`.
  const double phase_start = events.now();
  const double deadline_abs = std::isfinite(deadline_ms)
                                  ? phase_start + deadline_ms
                                  : deadline_ms;

  // Pre-size everything the drain touches, so the event loop below — the
  // steady-state window AllocGuard measures — does not grow a buffer even
  // on a cold session. Observations stay a fresh per-phase vector (the
  // caller moves it out); selections never exceed `count`, so reserving
  // here keeps the arrival-side push_backs allocation-free.
  std::vector<PeerObservation> observations;
  observations.reserve(count);
  buffers_.seen_seq.assign(count, 0);
  buffers_.neighbors.reserve(network_->graph().max_degree());
  buffers_.walker_current.clear();
  buffers_.walker_burn_left.clear();
  buffers_.walker_since_selection.clear();
  buffers_.walker_remaining.clear();
  buffers_.walker_incarnation.clear();
  buffers_.walker_current.reserve(params_.walkers);
  buffers_.walker_burn_left.reserve(params_.walkers);
  buffers_.walker_since_selection.reserve(params_.walkers);
  buffers_.walker_remaining.reserve(params_.walkers);
  buffers_.walker_incarnation.reserve(params_.walkers);
  // Pending set: one hop event per walker plus the replies in flight (the
  // adversary's replayed copies can push past it; that growth is amortized
  // and absent from the gated fault-free configs). Hedging doubles the
  // worst-case in-flight copies, so its slots are reserved *before* the
  // drain too — the zero-allocation gate covers straggler runs.
  const size_t reply_slots =
      params_.engine.straggler.hedged_replies ? count * 2 : count;
  buffers_.reply_arena.Reserve(reply_slots + 16);
  events.Reserve(params_.walkers + reply_slots + 16);

  PhaseRuntime runtime(network_, params_, events, query, sink, count, rng,
                       history, dedup_round, buffers_, observations,
                       deadline_abs, retry_budget);
  runtime.Launch(count);

  // Mid-query churn rides the same event clock, stepping while the phase
  // still has in-flight work.
  if (params_.churn != nullptr && params_.churn_interval_ms > 0.0) {
    PhaseRuntime* rt = &runtime;
    params_.churn->RunOnEventQueue(events, network_, params_.churn_interval_ms,
                                   [rt]() { return rt->InFlight(); });
  }

  util::AllocGuard alloc_guard;
  events.RunUntilEmpty();
  if (drain_allocs != nullptr) *drain_allocs += alloc_guard.allocations();

  // A deadline-curtailed phase answers exactly when its budget runs out;
  // otherwise the clock stops at the last needed arrival, not at the
  // post-answer drain of losing duplicate copies.
  *elapsed_ms = runtime.deadline_hit
                    ? deadline_ms
                    : std::max(runtime.done_ms, phase_start) - phase_start;
  stats->reply_retransmits = runtime.retransmits;
  stats->walk_restarts = runtime.restarts;
  stats->duplicate_replies = runtime.duplicates;
  stats->hedges = runtime.hedges;
  stats->straggler_skips = runtime.straggler_skips;
  stats->deadline_hit = runtime.deadline_hit;
  return observations;
}

util::Result<AsyncQueryReport> AsyncQuerySession::Execute(
    const query::AggregateQuery& query, graph::NodeId sink, util::Rng& rng) {
  if (query.op != query::AggregateOp::kCount &&
      query.op != query::AggregateOp::kSum) {
    return util::Status::InvalidArgument(
        "async session supports COUNT and SUM");
  }
  if (sink >= network_->num_peers() || !network_->IsAlive(sink)) {
    return util::Status::FailedPrecondition("sink peer is not live");
  }
  net::CostSnapshot before = network_->cost_snapshot();
  net::EventQueue events;
  uint64_t drain_allocs = 0;

  const net::StragglerPolicy& sp = params_.engine.straggler;
  const double deadline =
      params_.engine.deadline_ms > 0.0
          ? params_.engine.deadline_ms
          : std::numeric_limits<double>::infinity();
  if (sp.health_tracking) {
    // Reset allocates (flat per-peer arrays), so it happens here — per
    // query, before any phase drains — keeping Record()/Tripped() free
    // inside the measured event loops. Phase II inherits phase I's scores.
    buffers_.health.Configure(sp);
    buffers_.health.Reset(network_->num_peers());
  }

  // Each phase drains on the query's event clock, under whatever deadline
  // budget the phases before it left over.
  double phase1_elapsed = 0.0;
  double phase2_elapsed = 0.0;
  auto collect = [&](Phase phase, auto queries, const auto& requests,
                     size_t* retry_budget, auto& out) {
    PhaseCollection& collected = out.front();
    double budget = deadline;
    double* elapsed = &phase1_elapsed;
    if (phase == Phase::kTwo) {
      if (phase1_elapsed >= deadline) {
        // Phase I consumed the whole deadline: phase II never launches and
        // its entire request counts as lost.
        collected.stats.deadline_hit = true;
        return;
      }
      if (std::isfinite(deadline)) budget = deadline - phase1_elapsed;
      elapsed = &phase2_elapsed;
    }
    collected.observations =
        RunPhase(events, queries[requests.front().query], sink,
                 requests.front().count, rng, &collected.stats, &drain_allocs,
                 budget, retry_budget, elapsed);
  };
  util::Result<ApproximateAnswer> answer = std::move(
      RunTwoPhasePlan(collect, network_, params_.engine,
                      catalog_.total_degree_weight(), sink, {&query, 1}, {},
                      rng)
          .front());
  if (!answer.ok()) return answer.status();
  AsyncQueryReport report;
  report.answer = std::move(*answer);
  report.answer.cost = net::CostDelta(network_->cost_snapshot(), before);
  report.answer.sample_tuples = report.answer.cost.tuples_sampled;
  // The event clock, not the sequential sum, is the real latency — measured
  // per phase up to the last arrival the sink needed. Losing hedge copies
  // and deduped replays drain after the answer is ready (keeping the arena
  // and ledger balanced) without counting as waiting, and an anytime answer
  // is produced *at* the deadline.
  const double total_elapsed = phase1_elapsed + phase2_elapsed;
  const double end_ms = report.answer.deadline_hit
                            ? std::min(total_elapsed, deadline)
                            : total_elapsed;
  report.answer.cost.latency_ms = end_ms;
  report.makespan_ms = end_ms;
  report.phase1_done_ms = std::min(phase1_elapsed, end_ms);
  report.events = events.executed();
  report.drain_allocs = drain_allocs;
  return report;
}

}  // namespace p2paqp::core
