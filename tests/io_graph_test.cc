// World-file CSR round-trip and out-of-core builder coverage.
//
// The contracts under test:
//   * a graph saved in a world file (io::SaveWorld) and mapped back by
//     io::LoadWorld is the built graph bit for bit — same edge digest, same
//     adjacency bytes, same header stats — read straight out of the file
//     mapping (is_mapped()), with copies sharing that mapping;
//   * the spilling GraphBuilder (P2PAQP_BUILD_SPILL_EDGES) produces a graph
//     byte-identical to the in-memory counting-sort path, including through
//     multi-pass merges (fan-in smaller than the run count);
//   * PrefaultGraph returns a deterministic checksum (so the page touches
//     cannot be optimized away) on owned and mapped graphs alike.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/graph.h"
#include "io/graph_io.h"
#include "io/world_io.h"
#include "net/network.h"
#include "topology/random.h"
#include "util/rng.h"

namespace p2paqp {
namespace {

// FNV-1a over (num_nodes, num_edges, then each edge (u, v) with u < v in
// CSR order) — the same digest tests/topology_golden_test.cc pins.
uint64_t EdgeDigest(const graph::Graph& g) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  };
  mix(g.num_nodes());
  mix(g.num_edges());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.neighbors(u)) {
      if (u < v) {
        mix(u);
        mix(v);
      }
    }
  }
  return h;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

graph::Graph BuildTestGraph() {
  util::Rng rng(1234);
  auto g = topology::MakeErdosRenyi(2000, 6000, rng);
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

// Saves `graph` as a data-less world and returns the graph LoadWorld maps
// back. The file is unlinked at once; the returned graph keeps its mapping.
graph::Graph MapThroughWorldFile(const graph::Graph& graph, const char* name) {
  const std::string path = TempPath(name);
  auto network =
      net::SimulatedNetwork::Make(graph, {}, net::NetworkParams{}, 1);
  P2PAQP_CHECK(network.ok());
  P2PAQP_CHECK(io::SaveWorld(path, *network).ok());
  auto loaded = io::LoadWorld(path, net::NetworkParams{}, 1);
  std::remove(path.c_str());
  P2PAQP_CHECK(loaded.ok()) << loaded.status().ToString();
  return loaded->graph();
}

TEST(GraphIo, WorldRoundTripPreservesGoldenDigest) {
  graph::Graph built = BuildTestGraph();
  // The ErdosRenyi(2000, 6000, seed 1234) golden from
  // tests/topology_golden_test.cc: the round trip must preserve it.
  ASSERT_EQ(EdgeDigest(built), 0xDDA47CFC74133F3DULL);

  graph::Graph mapped = MapThroughWorldFile(built, "round_trip.p2pw");
  EXPECT_TRUE(mapped.is_mapped());
  EXPECT_FALSE(built.is_mapped());
  EXPECT_EQ(mapped.num_nodes(), built.num_nodes());
  EXPECT_EQ(mapped.num_edges(), built.num_edges());
  EXPECT_EQ(mapped.min_degree(), built.min_degree());
  EXPECT_EQ(mapped.max_degree(), built.max_degree());
  EXPECT_EQ(EdgeDigest(mapped), EdgeDigest(built));

  // The file holds the in-memory encoding byte for byte.
  ASSERT_EQ(mapped.MemoryBytes(), built.MemoryBytes());
  EXPECT_EQ(std::memcmp(mapped.encoded_bytes(), built.encoded_bytes(),
                        built.offsets()[built.num_nodes()]),
            0);
  std::vector<graph::NodeId> a, b;
  for (graph::NodeId u = 0; u < built.num_nodes(); ++u) {
    built.CopyNeighbors(u, &a);
    mapped.CopyNeighbors(u, &b);
    ASSERT_EQ(a, b) << "adjacency diverged at node " << u;
  }
}

TEST(GraphIo, CopiesOfMappedGraphShareTheMapping) {
  graph::Graph built = BuildTestGraph();
  graph::Graph mapped = MapThroughWorldFile(built, "shared_mapping.p2pw");

  graph::Graph copy = mapped;  // Copy shares the mapping, no byte copy.
  EXPECT_TRUE(copy.is_mapped());
  EXPECT_EQ(copy.encoded_bytes(), mapped.encoded_bytes());
  EXPECT_EQ(copy.offsets(), mapped.offsets());
  EXPECT_EQ(EdgeDigest(copy), EdgeDigest(built));

  graph::Graph moved = std::move(mapped);  // Move keeps the views valid.
  EXPECT_TRUE(moved.is_mapped());
  EXPECT_EQ(EdgeDigest(moved), EdgeDigest(built));
}

TEST(GraphIo, PrefaultChecksumIsDeterministicOwnedAndMapped) {
  graph::Graph built = BuildTestGraph();
  const uint64_t owned_sum = io::PrefaultGraph(built);
  EXPECT_EQ(io::PrefaultGraph(built), owned_sum);

  graph::Graph mapped = MapThroughWorldFile(built, "prefault.p2pw");
  // Same bytes, same pages, same checksum.
  EXPECT_EQ(io::PrefaultGraph(mapped), owned_sum);
}

// The spilling builder must be byte-identical to the in-memory path. This
// drives both directly (set_spill) on one shared edge sequence, with a run
// size and fan-in small enough to force multiple runs AND a multi-pass
// collapse (runs > fan_in).
TEST(SpillBuilder, BitIdenticalToInMemoryThroughMultiPassMerge) {
  constexpr size_t kNodes = 3000;
  constexpr size_t kAttempts = 30000;

  auto feed = [](graph::GraphBuilder& builder) {
    util::Rng rng(0x5B111);  // Same stream for both builders.
    for (size_t i = 0; i < kAttempts; ++i) {
      auto a = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
      auto b = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
      builder.AddEdge(a, b);
    }
  };

  graph::GraphBuilder in_memory(kNodes);
  feed(in_memory);
  const size_t num_edges = in_memory.num_edges();
  graph::Graph reference = in_memory.Build();

  graph::GraphBuilder spilling(kNodes);
  graph::SpillOptions spill;
  spill.run_edges = 1000;   // ~28 runs for ~28k accepted edges.
  spill.merge_fan_in = 4;   // Forces two collapse passes before the merge.
  spilling.set_spill(spill);
  feed(spilling);
  ASSERT_EQ(spilling.num_edges(), num_edges);
  EXPECT_GT(spilling.SpilledRuns(), spill.merge_fan_in)
      << "test must exercise the multi-pass collapse";
  EXPECT_GT(spilling.SpilledBytes(), 0u);
  graph::Graph spilled = spilling.Build();

  ASSERT_EQ(spilled.num_nodes(), reference.num_nodes());
  ASSERT_EQ(spilled.num_edges(), reference.num_edges());
  EXPECT_EQ(spilled.min_degree(), reference.min_degree());
  EXPECT_EQ(spilled.max_degree(), reference.max_degree());
  EXPECT_EQ(EdgeDigest(spilled), EdgeDigest(reference));
  // Byte-identical encodings, not merely equal edge sets.
  ASSERT_EQ(spilled.MemoryBytes(), reference.MemoryBytes());
  const size_t encoded = reference.offsets()[reference.num_nodes()];
  EXPECT_EQ(std::memcmp(spilled.encoded_bytes(), reference.encoded_bytes(),
                        encoded),
            0);
}

// The builder's accept/reject feedback (the generators' RNG contract) must
// not depend on the spill mode: identical decisions edge-for-edge.
TEST(SpillBuilder, AcceptRejectDecisionsMatchInMemory) {
  constexpr size_t kNodes = 400;
  util::Rng rng(0xFEED5);
  graph::GraphBuilder in_memory(kNodes);
  graph::GraphBuilder spilling(kNodes);
  graph::SpillOptions spill;
  spill.run_edges = 64;
  spilling.set_spill(spill);
  for (size_t i = 0; i < 20000; ++i) {
    // Includes out-of-range endpoints and self loops.
    auto a = static_cast<graph::NodeId>(rng.UniformIndex(kNodes + 8));
    auto b = static_cast<graph::NodeId>(rng.UniformIndex(kNodes + 8));
    ASSERT_EQ(in_memory.AddEdge(a, b), spilling.AddEdge(a, b))
        << "decision diverged at attempt " << i;
    if (i % 503 == 0 && a < kNodes && b < kNodes) {
      ASSERT_EQ(in_memory.HasEdge(a, b), spilling.HasEdge(a, b));
      ASSERT_EQ(in_memory.degree(a), spilling.degree(a));
    }
  }
  EXPECT_EQ(EdgeDigest(in_memory.Build()), EdgeDigest(spilling.Build()));
}

// Spill mode must keep the edge log off the heap: the builder's resident
// footprint stays O(nodes + dedup table + run buffer) while the arcs land
// on disk.
TEST(SpillBuilder, EdgeLogStaysOutOfCore) {
  constexpr size_t kNodes = 20000;
  graph::GraphBuilder builder(kNodes);
  graph::SpillOptions spill;
  spill.run_edges = 512;
  builder.set_spill(spill);
  util::Rng rng(31337);
  size_t accepted = 0;
  for (size_t i = 0; i < 120000; ++i) {
    auto a = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
    auto b = static_cast<graph::NodeId>(rng.UniformIndex(kNodes));
    if (builder.AddEdge(a, b)) ++accepted;
  }
  // The run buffer holds at most one run (2 arcs per edge); everything
  // beyond it must be on disk, not in MemoryBytes().
  EXPECT_LE(builder.MemoryBytes(),
            kNodes * sizeof(uint32_t)                // degrees
                + 4 * spill.run_edges * sizeof(uint64_t)  // run buffer slack
                + 4 * accepted * sizeof(uint64_t));  // dedup table (pow2)
  EXPECT_GE(builder.SpilledBytes(),
            (accepted - spill.run_edges) * 2 * sizeof(uint64_t));
  graph::Graph g = builder.Build();
  EXPECT_EQ(g.num_edges(), accepted);
}

}  // namespace
}  // namespace p2paqp
