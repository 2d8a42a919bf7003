// p2paqp_bench: one closed-loop workload of the p2paqp library per
// process, one client thread, results as one JSON object on stdout.
//
//   p2paqp_bench --workload NAME --seed N [--seconds S] [--trace FILE]
//                [--quick]
//
// The worlds use the fixed paper seeds; --seed draws everything a workload
// varies (sinks, query order, engine and fault RNG streams). The number of
// engine calls is fixed per second of --seconds (see README.md), so both
// sides of a comparison run exactly the same queries. The timed calls run in
// one or more passes, each replayed from the same state; every pass must
// give the same answers, and a call's wall time is its fastest pass.
// --trace FILE adds one traced pass that records spans through the hooks in
// hooks.h, runs the layer probes and writes a Chrome trace to FILE; it must
// not change a single answer (the answer digest is the proof). --quick is
// the self-test mode: a handful of queries, and a 200k-peer scale world.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/async_engine.h"
#include "core/catalog.h"
#include "core/hybrid.h"
#include "core/multi_query.h"
#include "core/two_phase.h"
#include "data/generator.h"
#include "data/partitioner.h"
#include "hooks.h"
#include "net/fault.h"
#include "net/network.h"
#include "query/query.h"
#include "topology/gnutella.h"
#include "topology/power_law.h"
#include "topology/super_peer.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace p2paqp::bench {
namespace {

using Clock = std::chrono::steady_clock;
using query::AggregateOp;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Engine { kSync, kAsync, kScheduler };
enum class WorldKind { kPowerLaw, kGnutella, kSuperPeer };

struct Workload {
  const char* name;
  Engine engine;
  WorldKind world;
  size_t peers;
  size_t quick_peers;
  size_t tuples_per_peer;
  // Fault plan and straggler policy on (async engine only).
  bool faults;
  // Distinct engine calls (queries, or batches for the scheduler) per
  // second of --seconds. A count, not a rate: the run time it gives on the
  // reference host is in README.md.
  size_t calls_per_run_second;
  // Timed passes over those calls. More than one lets a call's fastest pass
  // stand for it (see BestOfPasses); scale10m_async spends its time on
  // distinct queries instead, whose counts vary more from seed to seed.
  size_t passes;
  size_t quick_calls;
  // World builds per run; setup_s is their median.
  size_t setup_reps;
};

constexpr size_t kBatchWidth = 8;   // Queries per scheduler batch.
constexpr size_t kAsyncWalkers = 4;  // Concurrent walkers per async phase.

const Workload kWorkloads[] = {
    {"paper_sync", Engine::kSync, WorldKind::kPowerLaw, 10000, 10000, 100,
     false, 600, 2, 54, 15},
    {"scale10m_async", Engine::kAsync, WorldKind::kSuperPeer, 10000000,
     200000, 2, false, 300, 1, 80, 2},
    {"multi_query_fullscan", Engine::kScheduler, WorldKind::kGnutella, 22556,
     22556, 500, false, 210, 2, 12, 5},
    {"lossy_gnutella_async", Engine::kAsync, WorldKind::kGnutella, 22556,
     22556, 100, true, 700, 2, 42, 9},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The paper's engine knobs (Sec. 5): m = 80, t = 25, 10 CV halvings, m'
// capped at 1600 peers.
core::EngineParams PaperEngineParams() {
  core::EngineParams params;
  params.phase1_peers = 80;
  params.tuples_per_peer = 25;
  params.cv_repeats = 10;
  params.max_phase2_peers = 1600;
  return params;
}

// Walk-Not-Wait, hedging, backoff and the health breaker, under a deadline
// on the simulated clock at about the 99.5th percentile of the unclipped
// makespan. A deadline that more than 1% of queries hit would pin
// latency_sim_ms_p99 to the deadline itself.
constexpr double kLossyDeadlineMs = 100000.0;

net::FaultPlan LossyFaultPlan() {
  net::FaultPlan plan;
  plan.drop_probability = 0.05;
  plan.spike_probability = 0.02;
  plan.tail = net::LatencyTail::kPareto;
  plan.tail_scale_ms = 10.0;
  plan.tail_alpha = 1.1;
  plan.slow_fraction = 0.1;
  plan.slow_factor = 20.0;
  return plan;
}

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

struct World {
  std::unique_ptr<net::SimulatedNetwork> network;
  core::SystemCatalog catalog;
  double topology_s = 0.0;
  double generate_s = 0.0;
  double partition_s = 0.0;
  double network_s = 0.0;
  double catalog_s = 0.0;
};

template <typename T>
T Unwrap(util::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(*result);
}

// The figure worlds follow the paper harness's draw order (one RNG for
// topology, data and placement); the super-peer world is the scale tier's.
World BuildWorld(const Workload& w, size_t peers) {
  World world;
  const bool scale = w.world == WorldKind::kSuperPeer;
  util::Rng rng(20060403);
  util::Rng data_rng(271828);
  util::Rng& drng = scale ? data_rng : rng;

  auto t0 = Clock::now();
  graph::Graph overlay;
  if (w.world == WorldKind::kPowerLaw) {
    overlay =
        Unwrap(topology::MakePowerLawWithEdgeCount(peers, 10 * peers, rng),
               "power-law topology");
  } else if (w.world == WorldKind::kGnutella) {
    topology::GnutellaParams params;
    overlay = Unwrap(topology::MakeGnutellaSnapshot(params, rng),
                     "gnutella topology");
  } else {
    topology::SuperPeerParams params;
    params.num_nodes = peers;
    params.super_fraction = 0.02;
    params.core_edges_per_super = 4;
    params.leaf_connections = 2;
    overlay = Unwrap(topology::MakeSuperPeer(params, rng), "super-peer")
                  .graph;
  }
  world.topology_s = SecondsSince(t0);

  t0 = Clock::now();
  data::DatasetParams dataset;
  dataset.num_tuples = overlay.num_nodes() * w.tuples_per_peer;
  dataset.skew = 0.2;
  data::Table table = Unwrap(data::GenerateDataset(dataset, drng), "dataset");
  world.generate_s = SecondsSince(t0);

  t0 = Clock::now();
  data::PartitionParams partition;
  partition.cluster_level = 0.25;
  if (scale) partition.bfs_root = 0;
  auto databases = Unwrap(
      data::PartitionAcrossPeers(table, overlay, partition, drng), "partition");
  data::Table().swap(table);
  world.partition_s = SecondsSince(t0);

  t0 = Clock::now();
  net::NetworkParams net_params;
  net_params.parallel_peer_init = scale;
  world.network = std::make_unique<net::SimulatedNetwork>(
      Unwrap(net::SimulatedNetwork::Make(std::move(overlay),
                                         std::move(databases), net_params,
                                         scale ? 314159 : 20060404),
             "network"));
  world.network_s = SecondsSince(t0);

  t0 = Clock::now();
  world.catalog = core::MakeCatalog(world.network->graph(), 10, 50);
  world.catalog_s = SecondsSince(t0);
  return world;
}

// ---------------------------------------------------------------------------
// Query streams
// ---------------------------------------------------------------------------

// One engine call: a single query, or a scheduler batch.
struct Call {
  std::vector<query::AggregateQuery> queries;
  graph::NodeId sink = 0;
};

query::AggregateQuery MakeQuery(AggregateOp op, double selectivity,
                                double required_error) {
  static const util::ZipfGenerator zipf =
      Unwrap(util::ZipfGenerator::Make(100, 0.2), "zipf");
  query::AggregateQuery q;
  q.op = op;
  q.predicate = selectivity >= 1.0
                    ? query::RangePredicate{1, 100}
                    : query::PredicateForSelectivity(zipf, 1, selectivity);
  q.required_error = required_error;
  return q;
}

std::vector<Call> MakeCalls(const Workload& w, size_t count, size_t peers,
                            util::Rng& rng) {
  std::vector<Call> calls(count);
  if (w.engine == Engine::kScheduler) {
    // K = 8 alternating COUNT/SUM at selectivities 0.10 .. 0.66 from one
    // fixed sink; the seed picks each batch's query order.
    std::vector<query::AggregateQuery> batch;
    for (size_t i = 0; i < kBatchWidth; ++i) {
      batch.push_back(MakeQuery(i % 2 == 0 ? AggregateOp::kCount
                                           : AggregateOp::kSum,
                                0.10 + 0.08 * static_cast<double>(i), 0.10));
    }
    for (Call& call : calls) {
      rng.Shuffle(batch);
      call.queries = batch;
      call.sink = 0;
    }
    return calls;
  }
  // Every (op, selectivity, error) combination once per block, in seeded
  // order: the mix is the same for every seed, so per-window work and the
  // per-query means do not drift with it.
  std::vector<AggregateOp> ops = {AggregateOp::kCount, AggregateOp::kSum};
  std::vector<double> selectivities = {0.1, 0.3, 0.6};
  std::vector<double> errors = {0.10};
  if (w.engine == Engine::kSync) {
    ops.push_back(AggregateOp::kAvg);
    errors = {0.05, 0.10, 0.20};
  } else if (w.world == WorldKind::kSuperPeer) {
    selectivities = {0.3, 1.0};
  }
  std::vector<query::AggregateQuery> block;
  for (AggregateOp op : ops) {
    for (double selectivity : selectivities) {
      for (double error : errors) {
        block.push_back(MakeQuery(op, selectivity, error));
      }
    }
  }
  for (size_t i = 0; i < count; ++i) {
    if (i % block.size() == 0) rng.Shuffle(block);
    calls[i].queries = {block[i % block.size()]};
    calls[i].sink = static_cast<graph::NodeId>(rng.UniformIndex(peers));
  }
  return calls;
}

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

struct QueryOutcome {
  bool ok = false;
  core::ApproximateAnswer answer;
  double sim_latency_ms = 0.0;
};

struct CallOutcome {
  std::vector<QueryOutcome> queries;
  net::CostSnapshot cost;  // Whole call.
  double wall_s = 0.0;
  uint64_t events = 0;
  uint64_t drain_allocs = 0;
  core::SampleFrameStats frame;
};

// Hooks and probe state of a traced run.
struct TraceState {
  explicit TraceState(uint32_t keep) : tracer(keep) {}
  Tracer tracer;
  const char* root = "";  // Span name of one engine call.
  net::HistoryRecorder history;
  std::vector<core::WeightedObservation> captured;
  ProbeCounts probes;
  HistoryCounts history_counts;
  std::vector<graph::NodeId> neighbor_scratch;
  query::LocalExecScratch exec_scratch;
};

class Runner {
 public:
  virtual ~Runner() = default;
  virtual CallOutcome Execute(const Call& call, util::Rng& rng,
                              Tracer* tracer) = 0;
  // Span name of one engine call.
  virtual const char* root() const = 0;
};

class SyncRunner final : public Runner {
 public:
  SyncRunner(World& world, TraceState* trace)
      : params_(PaperEngineParams()) {
    if (trace == nullptr) {
      engine_ = std::make_unique<core::TwoPhaseEngine>(world.network.get(),
                                                      world.catalog, params_);
      return;
    }
    // The default constructor's WalkParams; the straggler policy is off, so
    // the walk never consults the engine's health board.
    sampling::WalkParams walk{
        .jump = std::max<size_t>(1, world.catalog.suggested_jump),
        .burn_in = world.catalog.suggested_burn_in,
        .variant = sampling::WalkVariant::kSimple,
        .max_hops = 0,
        .straggler = &params_.straggler,
        .health = nullptr};
    engine_ = std::make_unique<core::TwoPhaseEngine>(
        world.network.get(), world.catalog, params_,
        std::make_unique<TimedWalkSampler>(world.network.get(), walk,
                                           &trace->tracer),
        world.catalog.total_degree_weight());
    timer_ = std::make_unique<LocalExecTimer>(world.network.get(),
                                              &trace->tracer, &trace->captured);
    engine_->set_cache(timer_.get());
  }

  CallOutcome Execute(const Call& call, util::Rng& rng,
                      Tracer* tracer) override {
    CallOutcome out;
    auto start = Clock::now();
    util::Result<core::ApproximateAnswer> answer = [&] {
      ScopedSpan span(tracer, root());
      return engine_->Execute(call.queries[0], call.sink, rng);
    }();
    out.wall_s = SecondsSince(start);
    QueryOutcome q;
    q.ok = answer.ok();
    if (q.ok) {
      q.answer = *answer;
      q.sim_latency_ms = answer->cost.latency_ms;
      out.cost = answer->cost;
    }
    out.queries.push_back(q);
    return out;
  }
  const char* root() const override { return "core.two_phase"; }

 private:
  core::EngineParams params_;
  std::unique_ptr<LocalExecTimer> timer_;
  std::unique_ptr<core::TwoPhaseEngine> engine_;
};

class AsyncRunner final : public Runner {
 public:
  AsyncRunner(World& world, bool lossy) {
    core::AsyncParams params;
    params.engine = PaperEngineParams();
    params.walkers = kAsyncWalkers;
    params.walk.jump = world.catalog.suggested_jump;
    params.walk.burn_in = world.catalog.suggested_burn_in;
    if (lossy) {
      net::StragglerPolicy& sp = params.engine.straggler;
      sp.walk_not_wait = true;
      sp.hedged_replies = true;
      sp.exponential_backoff = true;
      sp.health_tracking = true;
      params.engine.deadline_ms = kLossyDeadlineMs;
    }
    session_ = std::make_unique<core::AsyncQuerySession>(world.network.get(),
                                                         world.catalog, params);
  }

  CallOutcome Execute(const Call& call, util::Rng& rng,
                      Tracer* tracer) override {
    CallOutcome out;
    auto start = Clock::now();
    util::Result<core::AsyncQueryReport> report = [&] {
      ScopedSpan span(tracer, root());
      return session_->Execute(call.queries[0], call.sink, rng);
    }();
    out.wall_s = SecondsSince(start);
    QueryOutcome q;
    q.ok = report.ok();
    if (q.ok) {
      q.answer = report->answer;
      q.sim_latency_ms = report->makespan_ms;
      out.cost = report->answer.cost;
      out.events = report->events;
      out.drain_allocs = report->drain_allocs;
    }
    out.queries.push_back(q);
    return out;
  }
  const char* root() const override { return "core.async"; }

 private:
  std::unique_ptr<core::AsyncQuerySession> session_;
};

class SchedulerRunner final : public Runner {
 public:
  SchedulerRunner(World& world, TraceState* trace) {
    constexpr uint64_t kTtlEpochs = 1;
    constexpr size_t kMaxEntries = 65536;
    if (trace == nullptr) {
      cache_ = std::make_unique<core::FreshnessCache>(kTtlEpochs, kMaxEntries);
    } else {
      cache_ = std::make_unique<TimedFreshnessCache>(
          kTtlEpochs, kMaxEntries, world.network.get(), &trace->tracer,
          &trace->captured);
    }
    core::SchedulerParams params;
    params.engine = PaperEngineParams();
    params.engine.tuples_per_peer = 0;  // Full local scans.
    params.walk.jump = world.catalog.suggested_jump;
    params.walk.burn_in = world.catalog.suggested_burn_in;
    params.frame_ttl_epochs = 4;
    scheduler_ = std::make_unique<core::QueryScheduler>(
        world.network.get(), world.catalog, params, cache_.get());
  }

  CallOutcome Execute(const Call& call, util::Rng& rng,
                      Tracer* tracer) override {
    cache_->AdvanceEpoch();
    CallOutcome out;
    auto start = Clock::now();
    core::BatchResult batch = [&] {
      ScopedSpan span(tracer, root());
      return scheduler_->ExecuteBatch(call.queries, call.sink, rng);
    }();
    out.wall_s = SecondsSince(start);
    out.cost = batch.cost;
    out.frame = batch.frame;
    for (const util::Result<core::ApproximateAnswer>& answer : batch.answers) {
      QueryOutcome q;
      q.ok = answer.ok();
      if (q.ok) q.answer = *answer;
      // A query's latency is its batch's.
      q.sim_latency_ms = batch.cost.latency_ms;
      out.queries.push_back(q);
    }
    return out;
  }
  const char* root() const override { return "core.scheduler"; }

  const core::FreshnessCache& cache() const { return *cache_; }

 private:
  std::unique_ptr<core::FreshnessCache> cache_;
  std::unique_ptr<core::QueryScheduler> scheduler_;
};

std::unique_ptr<Runner> MakeRunner(const Workload& w, World& world,
                                   TraceState* trace) {
  switch (w.engine) {
    case Engine::kSync:
      return std::make_unique<SyncRunner>(world, trace);
    case Engine::kAsync:
      return std::make_unique<AsyncRunner>(world, w.faults);
    case Engine::kScheduler:
      break;
  }
  return std::make_unique<SchedulerRunner>(world, trace);
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

// Ground truth per (op, predicate), computed once outside every timed
// region.
class Oracle {
 public:
  explicit Oracle(const net::SimulatedNetwork& network) : network_(network) {
    total_tuples_ = static_cast<double>(network.TotalTuples());
    total_sum_ = static_cast<double>(
        network.ExactSum(std::numeric_limits<data::Value>::min(),
                         std::numeric_limits<data::Value>::max()));
  }

  void Prepare(const query::AggregateQuery& q) {
    auto key = std::make_pair(q.predicate.lo, q.predicate.hi);
    if (truths_.count(key) != 0) return;
    const auto [lo, hi] = key;
    truths_[key] = {static_cast<double>(network_.ExactCount(lo, hi)),
                    static_cast<double>(network_.ExactSum(lo, hi))};
  }

  double Truth(const query::AggregateQuery& q) const {
    const auto& [count, sum] =
        truths_.at(std::make_pair(q.predicate.lo, q.predicate.hi));
    switch (q.op) {
      case AggregateOp::kSum:
        return sum;
      case AggregateOp::kAvg:
        return count == 0.0 ? 0.0 : sum / count;
      default:
        return count;
    }
  }

  // The paper's normalized error (Sec. 5.5): COUNT and SUM against the
  // total aggregate, AVG relative to the true average.
  double NormalizedError(const query::AggregateQuery& q,
                         double estimate) const {
    const double truth = Truth(q);
    switch (q.op) {
      case AggregateOp::kSum:
        return std::fabs(estimate - truth) / total_sum_;
      case AggregateOp::kAvg:
        return truth == 0.0 ? std::fabs(estimate)
                            : std::fabs(estimate - truth) / std::fabs(truth);
      default:
        return std::fabs(estimate - truth) / total_tuples_;
    }
  }

 private:
  const net::SimulatedNetwork& network_;
  double total_tuples_ = 0.0;
  double total_sum_ = 0.0;
  std::map<std::pair<data::Value, data::Value>, std::pair<double, double>>
      truths_;
};

// FNV-1a over the answers, in query order.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Everything the timed loop accumulates.
struct Tally {
  uint64_t calls = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t non_finite = 0;
  uint64_t covered = 0;
  double error_sum = 0.0;
  std::vector<double> call_s;        // Per call.
  std::vector<size_t> call_queries;  // Per call.
  std::vector<double> sim_ms;        // Per answered query.
  net::CostSnapshot cost;
  uint64_t events = 0;
  uint64_t drain_allocs = 0;
  uint64_t phase2_peers = 0;
  uint64_t hedges = 0;
  uint64_t straggler_skips = 0;
  uint64_t duplicate_replies = 0;
  uint64_t observations_lost = 0;
  uint64_t deadline_hits = 0;
  uint64_t degraded = 0;
  uint64_t frame_hits = 0;
  uint64_t frame_misses = 0;
  uint64_t frame_rebuilds = 0;
  uint64_t cache_hits = 0;  // Scheduler's FreshnessCache, warm-up included.
  uint64_t cache_misses = 0;
  bool conserved = false;  // The cost ledger after the pass.
  Digest digest;
};

// Wall-clock metrics of a run. Every pass replays the same calls, so a call
// has one time per pass, and its fastest pass stands for it. On a shared
// host a call is only ever slowed down (preempted, or starved of cache and
// memory bandwidth by other tenants), seldom in every pass, so the minimum
// removes most of that while every call of the run still counts.
struct WallMetrics {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

WallMetrics BestOfPasses(const std::vector<Tally>& passes) {
  const Tally& first = passes.front();
  double busy = 0.0;
  std::vector<double> wall_ms;  // Per query: its call's time.
  wall_ms.reserve(first.queries);
  for (size_t c = 0; c < first.call_s.size(); ++c) {
    double best = first.call_s[c];
    for (const Tally& pass : passes) best = std::min(best, pass.call_s[c]);
    busy += best;
    wall_ms.insert(wall_ms.end(), first.call_queries[c], best * 1000.0);
  }
  return {busy > 0.0 ? static_cast<double>(first.queries) / busy : 0.0,
          Percentile(wall_ms, 0.50), Percentile(wall_ms, 0.99)};
}

double BusySeconds(const Tally& t) {
  double busy = 0.0;
  for (double call : t.call_s) busy += call;
  return busy;
}

void Record(const Call& call, const CallOutcome& out, const Oracle& oracle,
            Tally* t) {
  ++t->calls;
  t->call_s.push_back(out.wall_s);
  t->call_queries.push_back(out.queries.size());
  t->cost += out.cost;
  t->events += out.events;
  t->drain_allocs += out.drain_allocs;
  t->frame_hits += out.frame.frame_hits;
  t->frame_misses += out.frame.frame_misses;
  t->frame_rebuilds += out.frame.rebuilds;
  for (size_t i = 0; i < out.queries.size(); ++i) {
    const QueryOutcome& q = out.queries[i];
    ++t->queries;
    t->digest.Add(q.ok);
    if (!q.ok) {
      ++t->failed;
      continue;
    }
    const core::ApproximateAnswer& a = q.answer;
    t->sim_ms.push_back(q.sim_latency_ms);
    if (!std::isfinite(a.estimate) || !std::isfinite(a.ci_half_width_95)) {
      ++t->non_finite;
    }
    const query::AggregateQuery& query = call.queries[i];
    t->error_sum += oracle.NormalizedError(query, a.estimate);
    if (std::fabs(a.estimate - oracle.Truth(query)) <= a.ci_half_width_95) {
      ++t->covered;
    }
    t->phase2_peers += a.phase2_peers;
    t->hedges += a.hedges_sent;
    t->straggler_skips += a.stragglers_skipped;
    t->duplicate_replies += a.duplicate_replies;
    t->observations_lost += a.observations_lost;
    t->deadline_hits += a.deadline_hit ? 1 : 0;
    t->degraded += a.degraded ? 1 : 0;
    t->digest.Add(a.estimate);
    t->digest.Add(a.ci_half_width_95);
    t->digest.Add(a.phase1_peers);
    t->digest.Add(a.phase2_peers);
    t->digest.Add(q.sim_latency_ms);
  }
  // The counts, too: equal digests mean equal work.
  t->digest.Add(out.cost.messages);
  t->digest.Add(out.cost.messages_dropped);
  t->digest.Add(out.cost.tuples_sampled);
  t->digest.Add(out.cost.tuples_scanned);
  t->digest.Add(out.cost.peers_visited);
  t->digest.Add(out.cost.walker_hops);
  t->digest.Add(out.events);
  t->digest.Add(out.frame.frame_hits);
  t->digest.Add(out.frame.frame_misses);
  t->digest.Add(out.frame.rebuilds);
}

constexpr size_t kProbeEvery = 8;

// Layer probes of one traced call, after its root span closed.
void RunProbes(const Workload& w, const Call& call, const CallOutcome& out,
               const net::SimulatedNetwork& network, double total_weight,
               util::Rng& rng, TraceState* trace) {
  const HistoryCounts h = CountHistory(trace->history);
  trace->history_counts.walker_sends += h.walker_sends;
  trace->history_counts.reply_sends += h.reply_sends;
  trace->history_counts.reply_delivers += h.reply_delivers;
  trace->history_counts.reply_discards += h.reply_discards;
  trace->history_counts.retransmits += h.retransmits;
  Tracer* tracer = &trace->tracer;
  ProbeNeighbors(network, trace->history, tracer, &trace->neighbor_scratch,
                 &trace->probes);
  if (w.engine == Engine::kAsync) {
    const core::EngineParams params = PaperEngineParams();
    ProbeLocalExec(network, trace->history, call.queries[0],
                   query::SubSamplePolicy{.t = params.tuples_per_peer,
                                          .mode = params.subsample_mode,
                                          .block_size = params.block_size},
                   rng, tracer, &trace->exec_scratch, &trace->captured,
                   &trace->probes);
    ProbeEventQueue(out.events, kAsyncWalkers, h.reply_sends, rng, tracer,
                    &trace->probes);
  }
  for (const QueryOutcome& q : out.queries) {
    if (!q.ok) continue;
    ProbeEstimate(trace->captured, q.answer.phase1_peers,
                  q.answer.phase2_peers, PaperEngineParams().cv_repeats,
                  total_weight, rng, tracer, &trace->probes);
  }
  trace->probes.queries += out.queries.size();
  trace->history.Clear();
}

// What every pass of a run replays.
struct Replay {
  uint64_t seed = 0;
  std::vector<Call> timed;
  std::vector<Call> warm;
  std::mt19937_64 network_rng;  // The network's RNG as the world was built.
};

// One pass over the timed calls, from the state the world was built in: the
// network's RNG stream and cost ledger are rewound, the fault plan is
// installed afresh and so is the engine, then the warm-up calls run
// (untimed) before the timed closed loop. Every pass of a run therefore
// gives the same answers. A traced pass also records spans, attaches the
// history to every kProbeEvery-th call and runs the layer probes.
Tally RunPass(const Workload& w, const Replay& replay, const Oracle& oracle,
              World& world, TraceState* trace) {
  net::SimulatedNetwork& network = *world.network;
  network.ResetCost();
  network.rng().engine() = replay.network_rng;
  if (w.faults) {
    network.InstallFaultPlan(LossyFaultPlan(),
                             util::MixSeed(replay.seed ^ 0xFA17));
  }
  std::unique_ptr<Runner> runner = MakeRunner(w, world, trace);
  if (trace != nullptr) trace->root = runner->root();

  util::Rng warm_rng(util::MixSeed(replay.seed + 1));
  for (const Call& call : replay.warm) runner->Execute(call, warm_rng, nullptr);
  if (trace != nullptr) trace->tracer.Reset();  // The hooks ran, too.

  util::Rng rng(util::MixSeed(replay.seed + 2));
  util::Rng probe_rng(util::MixSeed(replay.seed + 3));
  Tracer* tracer = trace != nullptr ? &trace->tracer : nullptr;
  const double total_weight = world.catalog.total_degree_weight();
  Tally tally;
  tally.call_s.reserve(replay.timed.size());
  tally.call_queries.reserve(replay.timed.size());
  tally.sim_ms.reserve(replay.timed.size() * kBatchWidth);
  for (size_t i = 0; i < replay.timed.size(); ++i) {
    const Call& call = replay.timed[i];
    // The history and the probes cover every kProbeEvery-th call: recording
    // every hop would inflate the engine spans of all calls.
    const bool probed = trace != nullptr && i % kProbeEvery == 0;
    if (trace != nullptr) {
      tracer->SetQuery(static_cast<uint32_t>(i));
      network.set_history(probed ? &trace->history : nullptr);
    }
    CallOutcome out = runner->Execute(call, rng, tracer);
    Record(call, out, oracle, &tally);
    if (probed) {
      RunProbes(w, call, out, network, total_weight, probe_rng, trace);
    }
    if (trace != nullptr) trace->captured.clear();
  }
  network.set_history(nullptr);
  tally.conserved = network.cost_snapshot().MessagesConserve();
  if (w.engine == Engine::kScheduler) {
    const auto& cache = static_cast<const SchedulerRunner&>(*runner).cache();
    tally.cache_hits = cache.hits();
    tally.cache_misses = cache.misses();
  }
  return tally;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

class JsonWriter {
 public:
  void Key(const char* key) {
    Sep();
    std::printf("\"%s\":", key);
    first_ = false;
  }
  void Open() {
    Sep();
    std::printf("{");
    first_ = true;
  }
  void Close() {
    std::printf("}");
    first_ = false;
  }
  void Num(const char* key, double value) {
    Key(key);
    std::printf("%.17g", std::isfinite(value) ? value : 0.0);
  }
  void Int(const char* key, uint64_t value) {
    Key(key);
    std::printf("%llu", static_cast<unsigned long long>(value));
  }
  void Str(const char* key, const std::string& value) {
    Key(key);
    std::printf("\"%s\"", value.c_str());
  }
  void Bool(const char* key, bool value) {
    Key(key);
    std::printf("%s", value ? "true" : "false");
  }
  void Object(const char* key) {
    Key(key);
    std::printf("{");
    first_ = true;
  }

 private:
  void Sep() {
    if (!first_) std::printf(",");
  }
  bool first_ = true;
};

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  bool quick = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: p2paqp_bench --workload NAME --seed N "
               "[--seconds S] [--trace FILE] [--quick]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = FindWorkload(value);
      if (args.workload == nullptr) {
        Usage(("unknown workload " + value).c_str());
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
          args.seconds > 600.0) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      args.trace = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload == nullptr) Usage("--workload is required");
  return args;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *args.workload;
  const size_t peers = args.quick ? w.quick_peers : w.peers;
  const size_t calls =
      args.quick ? w.quick_calls
                 : static_cast<size_t>(std::ceil(
                       static_cast<double>(w.calls_per_run_second) *
                       args.seconds));

  std::unique_ptr<TraceState> trace;
  if (!args.trace.empty()) trace = std::make_unique<TraceState>(64);

  // ---- Set-up, repeated; the last world is the one measured. ----
  // Set-up is what a user pays before the first query: the world and the
  // engine over it.
  std::vector<double> setup_reps;
  World world;
  const size_t reps = args.quick ? 1 : w.setup_reps;
  for (size_t rep = 0; rep < reps; ++rep) {
    world = World{};  // Free the previous world before building the next.
    auto start = Clock::now();
    world = BuildWorld(w, peers);
    std::unique_ptr<Runner> engine = MakeRunner(w, world, nullptr);
    setup_reps.push_back(SecondsSince(start));
  }
  net::SimulatedNetwork& network = *world.network;

  // ---- Inputs and oracles (untimed). ----
  Replay replay;
  replay.seed = args.seed;
  replay.network_rng = network.rng().engine();
  util::Rng stream(args.seed);
  util::Rng warm_stream(util::MixSeed(args.seed) ^ 0x3A4Dull);
  replay.timed = MakeCalls(w, calls, network.num_peers(), stream);
  replay.warm = MakeCalls(w, std::max<size_t>(1, calls / 50),
                          network.num_peers(), warm_stream);
  Oracle oracle(network);
  for (const Call& call : replay.timed) {
    for (const query::AggregateQuery& q : call.queries) oracle.Prepare(q);
  }

  // ---- Timed passes: the untraced ones, then the traced one. ----
  // A traced run needs only one untraced pass, for the digest it must
  // reproduce and for the tracing overhead.
  std::vector<Tally> passes;
  const size_t untraced = trace != nullptr ? 1 : w.passes;
  for (size_t pass = 0; pass < untraced; ++pass) {
    passes.push_back(RunPass(w, replay, oracle, world, nullptr));
  }
  std::unique_ptr<Tally> traced;
  if (trace != nullptr) {
    traced = std::make_unique<Tally>(
        RunPass(w, replay, oracle, world, trace.get()));
  }
  const Tally& tally = passes.front();

  // ---- Checks. ----
  const double failed_ratio = PerQuery(static_cast<double>(tally.failed),
                                       tally.queries);
  const uint64_t answered = tally.queries - tally.failed;
  const double mean_abs_error = PerQuery(tally.error_sum, answered);
  const bool finite = tally.non_finite == 0;
  const bool no_failures = w.faults || tally.failed == 0;
  const bool error_ok = answered > 0 && mean_abs_error <= 0.10;
  bool conserved = traced == nullptr || traced->conserved;
  bool replayed = true;
  for (const Tally& pass : passes) {
    conserved = conserved && pass.conserved;
    replayed = replayed && pass.digest.value() == tally.digest.value();
  }
  // History recording allocates inside the drain, so only untraced passes
  // are held to the zero-allocation contract.
  const bool zero_allocs =
      w.world != WorldKind::kSuperPeer || tally.drain_allocs == 0;
  bool trace_neutral = true;
  bool trace_written = true;
  if (trace != nullptr) {
    trace_neutral = traced->digest.value() == tally.digest.value();
    trace_written = trace->tracer.WriteChromeTrace(args.trace);
    if (!trace_written) {
      std::fprintf(stderr, "cannot write %s\n", args.trace.c_str());
    }
  }
  const bool correct = finite && no_failures && error_ok && conserved &&
                       replayed && zero_allocs && trace_neutral &&
                       trace_written;
  network.VerifyCostConservation();

  // ---- Result. ----
  JsonWriter json;
  json.Open();
  json.Str("workload", w.name);
  json.Int("seed", args.seed);
  json.Bool("quick", args.quick);
  json.Bool("traced", trace != nullptr);
  json.Num("seconds", args.seconds);
  json.Object("env");
  json.Int("nproc", std::thread::hardware_concurrency());
  json.Int("threads", util::ParallelThreads());
  json.Str("compiler", P2PAQP_BENCH_COMPILER);
  json.Str("build_type", P2PAQP_BENCH_BUILD_TYPE);
  json.Close();
  json.Object("setup");
  json.Num("setup_s", Median(setup_reps));
  json.Key("reps_s");
  std::printf("[");
  for (size_t i = 0; i < setup_reps.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", setup_reps[i]);
  }
  std::printf("]");
  json.Num("topology.build_s", world.topology_s);
  json.Num("data.generate_s", world.generate_s);
  json.Num("data.partition_s", world.partition_s);
  json.Num("net.make_s", world.network_s);
  json.Num("core.catalog_s", world.catalog_s);
  json.Num("net.bytes_per_peer", static_cast<double>(network.MemoryBytes()) /
                                     static_cast<double>(network.num_peers()));
  json.Int("peers", network.num_peers());
  json.Close();
  const WallMetrics wall = BestOfPasses(passes);
  json.Object("metrics");
  json.Num("qps", wall.qps);
  json.Num("query_ms_p50", wall.p50_ms);
  json.Num("query_ms_p99", wall.p99_ms);
  json.Num("setup_s", Median(setup_reps));
  json.Num("peak_rss_mb", PeakRssMb());
  json.Num("failed_ratio", failed_ratio);
  json.Num("mean_abs_error", mean_abs_error);
  json.Num("ci_coverage_95",
           PerQuery(static_cast<double>(tally.covered), answered));
  json.Num("messages_per_query",
           PerQuery(static_cast<double>(tally.cost.messages), tally.queries));
  json.Num("sample_tuples_per_query",
           PerQuery(static_cast<double>(tally.cost.tuples_sampled),
                    tally.queries));
  json.Num("latency_sim_ms_p50", Percentile(tally.sim_ms, 0.50));
  json.Num("latency_sim_ms_p99", Percentile(tally.sim_ms, 0.99));
  json.Close();
  // Deterministic for a given seed: equal across passes, reruns and traced
  // runs.
  json.Object("counts");
  json.Int("calls", tally.calls);
  json.Int("queries", tally.queries);
  json.Int("failed", tally.failed);
  json.Int("messages", tally.cost.messages);
  json.Int("messages_dropped", tally.cost.messages_dropped);
  json.Int("sample_tuples", tally.cost.tuples_sampled);
  json.Int("tuples_scanned", tally.cost.tuples_scanned);
  json.Int("peers_visited", tally.cost.peers_visited);
  json.Int("walker_hops", tally.cost.walker_hops);
  json.Int("events", tally.events);
  json.Int("phase2_peers", tally.phase2_peers);
  json.Int("hedges", tally.hedges);
  json.Int("straggler_skips", tally.straggler_skips);
  json.Int("duplicate_replies", tally.duplicate_replies);
  json.Int("observations_lost", tally.observations_lost);
  json.Int("deadline_hits", tally.deadline_hits);
  json.Int("degraded", tally.degraded);
  json.Int("frame_hits", tally.frame_hits);
  json.Int("frame_misses", tally.frame_misses);
  json.Int("frame_rebuilds", tally.frame_rebuilds);
  if (w.engine == Engine::kScheduler) {
    json.Int("cache_hits", tally.cache_hits);
    json.Int("cache_misses", tally.cache_misses);
  }
  json.Close();
  json.Int("drain_allocs", tally.drain_allocs);
  // Busy time of every untraced pass, and the first pass's own qps next to
  // the best-of-passes one.
  json.Object("timing");
  json.Key("busy_s");
  std::printf("[");
  for (size_t i = 0; i < passes.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", BusySeconds(passes[i]));
  }
  std::printf("]");
  json.Num("first_pass_qps",
           static_cast<double>(tally.queries) / BusySeconds(tally));
  json.Close();
  json.Object("checks");
  json.Bool("finite_estimates", finite);
  json.Bool("no_failures", no_failures);
  json.Bool("mean_abs_error_le_0.10", error_ok);
  json.Bool("cost_conserved", conserved);
  json.Bool("passes_identical", replayed);
  json.Bool("zero_drain_allocs", zero_allocs);
  json.Bool("trace_neutral", trace_neutral);
  json.Bool("trace_written", trace_written);
  json.Close();
  json.Bool("correct", correct);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(tally.digest.value()));
  json.Str("digest", digest);
  if (trace != nullptr) {
    json.Object("trace");
    json.Str("root", trace->root);
    json.Num("busy_s", BusySeconds(*traced));
    json.Object("spans");
    for (const SpanTotals& s : trace->tracer.totals()) {
      json.Object(s.name);
      json.Int("count", s.count);
      json.Int("total_ns", static_cast<uint64_t>(s.total_ns));
      json.Int("child_ns", static_cast<uint64_t>(s.child_ns));
      json.Close();
    }
    json.Close();
    json.Object("history");
    json.Int("walker_sends", trace->history_counts.walker_sends);
    json.Int("reply_sends", trace->history_counts.reply_sends);
    json.Int("reply_delivers", trace->history_counts.reply_delivers);
    json.Int("reply_discards", trace->history_counts.reply_discards);
    json.Int("retransmits", trace->history_counts.retransmits);
    json.Close();
    json.Object("probes");
    json.Int("queries", trace->probes.queries);
    json.Int("hops", trace->probes.hops);
    json.Int("local_visits", trace->probes.local_visits);
    json.Int("local_tuples", trace->probes.local_tuples);
    json.Int("events", trace->probes.events);
    json.Int("estimates", trace->probes.estimates);
    json.Close();
    json.Close();
  }
  json.Close();
  std::printf("\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace p2paqp::bench

int main(int argc, char** argv) { return p2paqp::bench::Run(argc, argv); }
