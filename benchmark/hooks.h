// Tracing hooks for the benchmark's traced run. Every hook goes through a
// public extension point of the library (a custom PeerSampler, a
// LocalResultCache, a FreshnessCache subclass, a HistoryRecorder) and is
// results-neutral: the traced run must reproduce the untraced run's answer
// digest. Probes re-run one layer's work on inputs recorded from a query,
// after the query's root span has closed, with their own RNG.
#ifndef P2PAQP_BENCHMARK_HOOKS_H_
#define P2PAQP_BENCHMARK_HOOKS_H_

#include <cstdint>
#include <vector>

#include "core/estimator.h"
#include "core/hybrid.h"
#include "core/two_phase.h"
#include "net/history.h"
#include "net/network.h"
#include "query/local_executor.h"
#include "sampling/samplers.h"
#include "trace.h"
#include "util/rng.h"

namespace p2paqp::bench {

// The engine's default random-walk sampler, with every sampling call inside
// a "sampling.walk" span.
class TimedWalkSampler final : public sampling::PeerSampler {
 public:
  TimedWalkSampler(net::SimulatedNetwork* network,
                   const sampling::WalkParams& params, Tracer* tracer)
      : inner_(network, params), tracer_(tracer) {}

  util::Result<std::vector<sampling::PeerVisit>> SamplePeers(
      graph::NodeId sink, size_t count, util::Rng& rng) override {
    ScopedSpan span(tracer_, "sampling.walk");
    return inner_.SamplePeers(sink, count, rng);
  }
  util::Result<sampling::SampleOutcome> SamplePeersResilient(
      graph::NodeId sink, size_t count, util::Rng& rng) override {
    ScopedSpan span(tracer_, "sampling.walk");
    return inner_.SamplePeersResilient(sink, count, rng);
  }
  double StationaryWeight(graph::NodeId node) const override {
    return inner_.StationaryWeight(node);
  }
  std::string name() const override { return inner_.name(); }

 private:
  sampling::RandomWalkSampler inner_;
  Tracer* tracer_;
};

// A result cache that always misses. The engine brackets each local
// execution with Lookup ... Store, so the interval is the "query.local_exec"
// span. Stored aggregates are captured for the estimation probe.
class LocalExecTimer final : public core::LocalResultCache {
 public:
  LocalExecTimer(const net::SimulatedNetwork* network, Tracer* tracer,
                 std::vector<core::WeightedObservation>* captured)
      : network_(network), tracer_(tracer), captured_(captured) {}

  bool Lookup(graph::NodeId, const query::AggregateQuery&,
              query::LocalAggregate*) override {
    tracer_->Begin("query.local_exec");
    return false;
  }
  void Store(graph::NodeId peer, const query::AggregateQuery& query,
             const query::LocalAggregate& aggregate) override {
    tracer_->End();
    captured_->push_back({aggregate.ValueFor(query.op),
                          static_cast<double>(network_->AliveDegree(peer))});
  }

 private:
  const net::SimulatedNetwork* network_;
  Tracer* tracer_;
  std::vector<core::WeightedObservation>* captured_;
};

// FreshnessCache whose Lookup and Store are timed; a miss opens the
// "query.local_exec" span that the following Store closes.
class TimedFreshnessCache final : public core::FreshnessCache {
 public:
  TimedFreshnessCache(uint64_t ttl_epochs, size_t max_entries,
                      const net::SimulatedNetwork* network, Tracer* tracer,
                      std::vector<core::WeightedObservation>* captured)
      : FreshnessCache(ttl_epochs, max_entries),
        network_(network),
        tracer_(tracer),
        captured_(captured) {}

  bool Lookup(graph::NodeId peer, const query::AggregateQuery& query,
              query::LocalAggregate* out) override {
    bool hit;
    {
      ScopedSpan span(tracer_, "core.freshness_cache.lookup");
      hit = FreshnessCache::Lookup(peer, query, out);
    }
    if (hit) {
      Capture(peer, query, *out);
    } else {
      tracer_->Begin("query.local_exec");
    }
    return hit;
  }
  void Store(graph::NodeId peer, const query::AggregateQuery& query,
             const query::LocalAggregate& aggregate) override {
    tracer_->End();
    {
      ScopedSpan span(tracer_, "core.freshness_cache.store");
      FreshnessCache::Store(peer, query, aggregate);
    }
    Capture(peer, query, aggregate);
  }

 private:
  void Capture(graph::NodeId peer, const query::AggregateQuery& query,
               const query::LocalAggregate& aggregate) {
    captured_->push_back({aggregate.ValueFor(query.op),
                          static_cast<double>(network_->AliveDegree(peer))});
  }

  const net::SimulatedNetwork* network_;
  Tracer* tracer_;
  std::vector<core::WeightedObservation>* captured_;
};

// What the probes of one query measured.
struct ProbeCounts {
  uint64_t queries = 0;       // Queries whose calls were probed.
  uint64_t hops = 0;          // Walker hops replayed through the graph.
  uint64_t local_visits = 0;  // Local executions replayed.
  uint64_t local_tuples = 0;  // Tuples those executions processed.
  uint64_t events = 0;        // Events pushed through the probe queue.
  uint64_t estimates = 0;     // Sink estimations replayed.
};

// History tallies of one query (walker hops, reply copies, sink decisions).
struct HistoryCounts {
  uint64_t walker_sends = 0;
  uint64_t reply_sends = 0;
  uint64_t reply_delivers = 0;
  // Delivered reply copies the sink discarded: duplicates, and copies that
  // arrived after the deadline.
  uint64_t reply_discards = 0;
  uint64_t retransmits = 0;
};

HistoryCounts CountHistory(const net::HistoryRecorder& history);

// "probe.graph.neighbors": AliveNeighborsInto on the source of every walker
// hop in `history`.
void ProbeNeighbors(const net::SimulatedNetwork& network,
                    const net::HistoryRecorder& history, Tracer* tracer,
                    std::vector<graph::NodeId>* scratch, ProbeCounts* counts);

// "probe.local_exec": ExecuteLocal at every peer whose first reply copy is
// in `history` (retransmitted and hedged copies reuse one scan). Appends the
// replayed observations to `captured`.
void ProbeLocalExec(const net::SimulatedNetwork& network,
                    const net::HistoryRecorder& history,
                    const query::AggregateQuery& query,
                    const query::SubSamplePolicy& policy, util::Rng& rng,
                    Tracer* tracer, query::LocalExecScratch* scratch,
                    std::vector<core::WeightedObservation>* captured,
                    ProbeCounts* counts);

// "probe.event_queue": `events` events through a fresh net::EventQueue,
// shaped like an async query: `walkers` chains of step events plus one
// pending arrival callback per reply copy.
void ProbeEventQueue(uint64_t events, size_t walkers, uint64_t replies,
                     util::Rng& rng, Tracer* tracer, ProbeCounts* counts);

// "probe.estimate": phase-I cross-validation over `phase1` observations and
// the phase-II Horvitz-Thompson estimate and variance over `phase2`, drawn
// in order (cyclically) from `pool`.
void ProbeEstimate(const std::vector<core::WeightedObservation>& pool,
                   size_t phase1, size_t phase2, size_t cv_repeats,
                   double total_weight, util::Rng& rng, Tracer* tracer,
                   ProbeCounts* counts);

}  // namespace p2paqp::bench

#endif  // P2PAQP_BENCHMARK_HOOKS_H_
