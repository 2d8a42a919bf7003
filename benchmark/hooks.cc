#include "hooks.h"

#include <algorithm>

#include "core/cross_validation.h"
#include "net/event_sim.h"

namespace p2paqp::bench {

namespace {

// Probe results land here so the compiler cannot drop the replayed work.
volatile double g_probe_sink = 0.0;

// One walker's chain of step events in the event-queue probe.
class ProbeSteps final : public net::StepHandler {
 public:
  ProbeSteps(net::EventQueue* queue, util::Rng* rng, uint64_t budget)
      : queue_(queue), rng_(rng), budget_(budget) {}

  void RunSteps(const uint32_t* args, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      if (budget_ == 0) continue;
      --budget_;
      queue_->ScheduleStepAfter(40.0 + rng_->UniformDouble(0.0, 40.0), this,
                                args[i]);
    }
  }

 private:
  net::EventQueue* queue_;
  util::Rng* rng_;
  uint64_t budget_;
};

}  // namespace

HistoryCounts CountHistory(const net::HistoryRecorder& history) {
  HistoryCounts counts;
  for (const net::HistoryEvent& event : history.events()) {
    const bool reply = event.type == net::MessageType::kAggregateReply;
    switch (event.kind) {
      case net::HistoryEventKind::kSend:
        if (event.type == net::MessageType::kWalker) ++counts.walker_sends;
        if (reply) ++counts.reply_sends;
        break;
      case net::HistoryEventKind::kDeliver:
        if (reply) ++counts.reply_delivers;
        break;
      case net::HistoryEventKind::kDedupDrop:
      case net::HistoryEventKind::kExpire:
        if (reply) ++counts.reply_discards;
        break;
      case net::HistoryEventKind::kRetransmit:
        ++counts.retransmits;
        break;
      default:
        break;
    }
  }
  return counts;
}

void ProbeNeighbors(const net::SimulatedNetwork& network,
                    const net::HistoryRecorder& history, Tracer* tracer,
                    std::vector<graph::NodeId>* scratch, ProbeCounts* counts) {
  uint64_t hops = 0;
  size_t degrees = 0;
  {
    ScopedSpan span(tracer, "probe.graph.neighbors");
    for (const net::HistoryEvent& event : history.events()) {
      if (event.kind != net::HistoryEventKind::kSend ||
          event.type != net::MessageType::kWalker) {
        continue;
      }
      network.AliveNeighborsInto(event.from, scratch);
      degrees += scratch->size();
      ++hops;
    }
  }
  g_probe_sink = g_probe_sink + static_cast<double>(degrees);
  counts->hops += hops;
}

void ProbeLocalExec(const net::SimulatedNetwork& network,
                    const net::HistoryRecorder& history,
                    const query::AggregateQuery& query,
                    const query::SubSamplePolicy& policy, util::Rng& rng,
                    Tracer* tracer, query::LocalExecScratch* scratch,
                    std::vector<core::WeightedObservation>* captured,
                    ProbeCounts* counts) {
  // A reply send right after a retransmit or hedge record re-sends an
  // earlier scan; every other reply send follows a fresh local execution.
  const std::vector<net::HistoryEvent>& events = history.events();
  std::vector<graph::NodeId> peers;
  for (size_t i = 0; i < events.size(); ++i) {
    const net::HistoryEvent& event = events[i];
    if (event.kind != net::HistoryEventKind::kSend ||
        event.type != net::MessageType::kAggregateReply) {
      continue;
    }
    if (i > 0 && (events[i - 1].kind == net::HistoryEventKind::kRetransmit ||
                  events[i - 1].kind == net::HistoryEventKind::kHedge)) {
      continue;
    }
    peers.push_back(event.from);
  }
  const size_t first = captured->size();
  captured->resize(first + peers.size());
  uint64_t tuples = 0;
  {
    ScopedSpan span(tracer, "probe.local_exec");
    for (size_t i = 0; i < peers.size(); ++i) {
      query::LocalAggregate aggregate = query::ExecuteLocal(
          network.peer(peers[i]).database(), query, policy, rng, scratch);
      tuples += aggregate.processed_tuples;
      (*captured)[first + i] = {aggregate.ValueFor(query.op), 0.0};
    }
  }
  for (size_t i = 0; i < peers.size(); ++i) {
    (*captured)[first + i].weight =
        static_cast<double>(network.AliveDegree(peers[i]));
  }
  counts->local_visits += peers.size();
  counts->local_tuples += tuples;
}

void ProbeEventQueue(uint64_t events, size_t walkers, uint64_t replies,
                     util::Rng& rng, Tracer* tracer, ProbeCounts* counts) {
  if (events == 0 || walkers == 0) return;
  replies = std::min(replies, events);
  const uint64_t steps = events - replies;
  const double horizon =
      80.0 * static_cast<double>(steps / walkers + 1);
  uint64_t executed = 0;
  {
    ScopedSpan span(tracer, "probe.event_queue");
    net::EventQueue queue;
    queue.Reserve(walkers + replies + 16);
    const size_t chains =
        static_cast<size_t>(std::min<uint64_t>(walkers, steps));
    ProbeSteps handler(&queue, &rng, steps - chains);
    for (size_t w = 0; w < chains; ++w) {
      queue.ScheduleStepAfter(rng.UniformDouble(0.0, 40.0), &handler,
                              static_cast<uint32_t>(w));
    }
    uint64_t* arrived = &executed;
    for (uint64_t r = 0; r < replies; ++r) {
      queue.ScheduleAfter(rng.UniformDouble(0.0, horizon),
                          [arrived]() { ++*arrived; });
    }
    queue.RunUntilEmpty();
    executed = queue.executed();
  }
  counts->events += executed;
}

void ProbeEstimate(const std::vector<core::WeightedObservation>& pool,
                   size_t phase1, size_t phase2, size_t cv_repeats,
                   double total_weight, util::Rng& rng, Tracer* tracer,
                   ProbeCounts* counts) {
  if (pool.empty() || phase1 < 2 || phase2 == 0) return;
  double result = 0.0;
  {
    ScopedSpan span(tracer, "probe.estimate");
    std::vector<core::WeightedObservation> first(phase1);
    for (size_t i = 0; i < phase1; ++i) first[i] = pool[i % pool.size()];
    std::vector<core::WeightedObservation> second(phase2);
    for (size_t i = 0; i < phase2; ++i) {
      second[i] = pool[(phase1 + i) % pool.size()];
    }
    core::CrossValidationResult cv =
        core::CrossValidate(first, total_weight, cv_repeats, rng);
    result = cv.cv_error + core::HorvitzThompson(second, total_weight) +
             core::HorvitzThompsonVariance(second, total_weight);
  }
  g_probe_sink = g_probe_sink + result;
  ++counts->estimates;
}

}  // namespace p2paqp::bench
