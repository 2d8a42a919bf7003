// Round-trip, mapping and corruption tests for world files (io/world_io.h).
#include "io/world_io.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "test_common.h"

namespace p2paqp::io {
namespace {

using p2paqp::testing::MakeTestNetwork;
using p2paqp::testing::TestNetwork;
using p2paqp::testing::TestNetworkParams;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir().empty() ? "/tmp"
                                                  : ::testing::TempDir()) +
         "/" + name;
}

// MakeTestNetwork builds its network with NetworkParams{} and this seed, so
// LoadWorld with the same pair regenerates identical peers and RNG state.
constexpr uint64_t kNetworkSeed = TestNetworkParams{}.seed + 1;

query::AggregateQuery CountQuery() {
  query::AggregateQuery q;
  q.op = query::AggregateOp::kCount;
  q.predicate = {1, 30};
  q.required_error = 0.15;
  return q;
}

util::Result<core::ApproximateAnswer> RunCount(
    net::SimulatedNetwork* network, const core::SystemCatalog& catalog) {
  core::EngineParams params;
  params.phase1_peers = 40;
  params.include_phase1_observations = true;
  core::TwoPhaseEngine engine(network, catalog, params);
  util::Rng rng(6);
  return engine.Execute(CountQuery(), 0, rng);
}

class WorldIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TestNetworkParams params;
    params.num_peers = 300;
    params.num_edges = 1500;
    params.tuples_per_peer = 20;
    tn_ = std::make_unique<TestNetwork>(MakeTestNetwork(params));
    path_ = TempPath("world_io_test.p2pw");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<TestNetwork> tn_;
  std::string path_;
};

TEST_F(WorldIoTest, RoundTripPreservesEverything) {
  tn_->network.SetAlive(7, false);
  tn_->network.SetAlive(123, false);
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());

  auto loaded = LoadWorld(path_, net::NetworkParams{}, 99);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Topology identical, down to the encoded bytes.
  const graph::Graph& a = loaded->graph();
  const graph::Graph& b = tn_->network.graph();
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.min_degree(), b.min_degree());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  ASSERT_EQ(a.MemoryBytes(), b.MemoryBytes());
  EXPECT_EQ(std::memcmp(a.offsets(), b.offsets(),
                        (a.num_nodes() + 1) * sizeof(uint32_t)),
            0);
  EXPECT_EQ(std::memcmp(a.encoded_bytes(), b.encoded_bytes(),
                        a.offsets()[a.num_nodes()]),
            0);
  // Liveness identical.
  EXPECT_FALSE(loaded->IsAlive(7));
  EXPECT_FALSE(loaded->IsAlive(123));
  EXPECT_EQ(loaded->num_alive(), tn_->network.num_alive());
  // Data identical, tuple for tuple.
  for (graph::NodeId p = 0; p < loaded->num_peers(); ++p) {
    EXPECT_EQ(loaded->peer(p).database().tuples(),
              tn_->network.peer(p).database().tuples());
  }
  // Aggregates therefore agree exactly.
  EXPECT_EQ(loaded->ExactCount(1, 30), tn_->network.ExactCount(1, 30));
  EXPECT_EQ(loaded->ExactSum(1, 100), tn_->network.ExactSum(1, 100));
}

// Same NetworkParams and seed, same query and Rng: the loaded world must
// give the original's answer to the last bit, cost vector included.
TEST_F(WorldIoTest, RoundTripIsBitExact) {
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());
  auto loaded = LoadWorld(path_, net::NetworkParams{}, kNetworkSeed);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto original = RunCount(&tn_->network, tn_->catalog);
  auto reloaded = RunCount(&*loaded, tn_->catalog);
  ASSERT_TRUE(original.ok() && reloaded.ok());
  EXPECT_EQ(reloaded->estimate, original->estimate);
  EXPECT_EQ(reloaded->variance, original->variance);
  EXPECT_EQ(reloaded->ci_half_width_95, original->ci_half_width_95);
  EXPECT_EQ(reloaded->cost.latency_ms, original->cost.latency_ms);
  EXPECT_EQ(reloaded->cost.ToString(), original->cost.ToString());
}

TEST_F(WorldIoTest, LoadedGraphIsMappedAndClonesShareTheMapping) {
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());
  auto loaded = LoadWorld(path_, net::NetworkParams{}, 5);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(tn_->network.graph().is_mapped());
  EXPECT_TRUE(loaded->graph().is_mapped());

  net::SimulatedNetwork clone = loaded->Clone(11);
  EXPECT_TRUE(clone.graph().is_mapped());
  EXPECT_EQ(clone.graph().encoded_bytes(), loaded->graph().encoded_bytes());
  EXPECT_EQ(clone.graph().offsets(), loaded->graph().offsets());
}

// Saving over the file a live network maps must not pull the pages out from
// under it (a truncate in place would SIGBUS the next read). Saving the
// mapped network itself reads the old mapping while the new file is
// written.
TEST_F(WorldIoTest, SaveOverTheMappedFileKeepsTheNetworkServing) {
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());
  auto loaded = LoadWorld(path_, net::NetworkParams{}, kNetworkSeed);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(SaveWorld(path_, *loaded).ok());
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());

  auto answer = RunCount(&*loaded, tn_->catalog);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto original = RunCount(&tn_->network, tn_->catalog);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(answer->estimate, original->estimate);

  auto reloaded = LoadWorld(path_, net::NetworkParams{}, kNetworkSeed);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->graph().num_edges(), loaded->graph().num_edges());
}

TEST_F(WorldIoTest, LoadedWorldAnswersQueries) {
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());
  auto loaded = LoadWorld(path_, net::NetworkParams{}, 5);
  ASSERT_TRUE(loaded.ok());
  core::SystemCatalog catalog = core::MakeCatalog(loaded->graph(), 10, 30);
  auto answer = RunCount(&*loaded, catalog);
  ASSERT_TRUE(answer.ok());
  double truth = static_cast<double>(loaded->ExactCount(1, 30));
  double total = static_cast<double>(loaded->TotalTuples());
  EXPECT_LT(std::fabs(answer->estimate - truth) / total, 0.2);
}

TEST_F(WorldIoTest, MissingFileIsNotFound) {
  auto loaded = LoadWorld(TempPath("does_not_exist.p2pw"),
                          net::NetworkParams{}, 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(WorldIoTest, RejectsForeignFiles) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs("definitely not a world file", f);
  std::fclose(f);
  auto loaded = LoadWorld(path_, net::NetworkParams{}, 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(WorldIoTest, RejectsTruncatedFiles) {
  ASSERT_TRUE(SaveWorld(path_, tn_->network).ok());
  // Truncate the file to half: must fail cleanly, not crash.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 0);
  ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);
  auto loaded = LoadWorld(path_, net::NetworkParams{}, 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

// --- Corruption table -------------------------------------------------------
//
// An 8-peer world small enough to edit by hand. Adjacency and its encoded
// lists ([degree][first][gap - 1]...):
//   0: 1 2 3 4 5 6  -> 06 01 00 00 00 00 00
//   1: 0 2 7        -> 03 00 01 04
//   2: 0 1          -> 02 00 00
//   3: 0 4          -> 02 00 03
//   4: 0 3          -> 02 00 02
//   5: 0            -> 01 00
//   6: 0            -> 01 00
//   7: 1            -> 01 01
// 9 edges, degrees 1..6, 26 stream bytes, two tuples per peer.
using Bytes = std::vector<uint8_t>;

template <typename T>
void Put(Bytes& bytes, size_t pos, T value) {
  std::memcpy(bytes.data() + pos, &value, sizeof(T));
}

// Byte positions of the version-2 sections (io/world_io.h) for this world.
constexpr size_t kNodes = 8;
constexpr size_t kEdgesPos = 16, kMinDegreePos = 24, kMaxDegreePos = 28;
constexpr size_t kNodesPos = 8, kEncodedPos = 32, kTuplesCountPos = 40;
constexpr size_t kOffsets = 48;
constexpr size_t kStream = kOffsets + 40;       // 9 u32 offsets, padded.
constexpr size_t kTupleOffsets = kStream + 32 + 8;  // 26 B padded + bitset.
constexpr uint32_t kListStart[kNodes + 1] = {0, 7, 11, 14, 17, 20, 22, 24, 26};

size_t List(size_t node) { return kStream + kListStart[node]; }

net::SimulatedNetwork MakeTinyWorld() {
  std::vector<std::vector<graph::NodeId>> adjacency = {
      {1, 2, 3, 4, 5, 6}, {0, 2, 7}, {0, 1}, {0, 4}, {0, 3}, {0}, {0}, {1}};
  std::vector<data::LocalDatabase> databases;
  for (data::Value p = 0; p < static_cast<data::Value>(kNodes); ++p) {
    databases.emplace_back(data::Table{{p, 1}, {p + 10, 2}});
  }
  auto network = net::SimulatedNetwork::Make(
      graph::Graph(std::move(adjacency)), std::move(databases),
      net::NetworkParams{}, 3);
  P2PAQP_CHECK(network.ok());
  network->SetAlive(5, false);
  return std::move(*network);
}

struct Corruption {
  const char* name;
  std::function<void(Bytes&)> edit;
  const char* message;  // Substring of the expected InvalidArgument.
};

TEST(WorldIoCorruption, EveryMalformedFileIsInvalidArgument) {
  const std::string path = TempPath("world_io_corrupt.p2pw");
  ASSERT_TRUE(SaveWorld(path, MakeTinyWorld()).ok());
  Bytes original;
  {
    std::ifstream in(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(in), {});
  }
  // The table's layout is the file's layout: these are the sealing values.
  ASSERT_EQ(original.size(), kTupleOffsets + 9 * 8 + 16 * 8);
  uint32_t stream_end;
  std::memcpy(&stream_end, &original[kOffsets + 4 * kNodes], 4);
  ASSERT_EQ(stream_end, kListStart[kNodes]);
  ASSERT_EQ(original[List(1)], 3);
  ASSERT_TRUE(LoadWorld(path, net::NetworkParams{}, 3).ok());

  const std::vector<Corruption> rows = {
      {"wrong magic", [](Bytes& b) { b[0] = 'X'; }, "not a p2paqp world"},
      {"version-1 file", [](Bytes& b) { Put<uint32_t>(b, 4, 1); },
       "unsupported world version"},
      {"short header", [](Bytes& b) { b.resize(40); }, "short header"},
      {"zero nodes", [](Bytes& b) { Put<uint64_t>(b, kNodesPos, 0); },
       "implausible node count"},
      {"over 2^32 nodes",
       [](Bytes& b) { Put<uint64_t>(b, kNodesPos, (uint64_t{1} << 32) + 1); },
       "implausible node count"},
      {"more than n(n-1)/2 edges",
       [](Bytes& b) { Put<uint64_t>(b, kEdgesPos, 29); },
       "implausible edge count"},
      {"section past the end", [](Bytes& b) { b.resize(b.size() - 8); },
       "file size"},
      {"longer than its sections", [](Bytes& b) { b.resize(b.size() + 8); },
       "file size"},
      {"stream size near 2^64",
       [](Bytes& b) {
         Put<uint64_t>(b, kEncodedPos,
                       std::numeric_limits<uint64_t>::max() - 3);
       },
       "file size"},
      // Parent probe: a 2^62 tuple count made the loader throw
      // std::length_error out of a Status-returning call.
      {"tuple count 2^62",
       [](Bytes& b) { Put<uint64_t>(b, kTuplesCountPos, uint64_t{1} << 62); },
       "file size"},
      {"offsets[0] != 0", [](Bytes& b) { Put<uint32_t>(b, kOffsets, 1); },
       "offset table does not span"},
      {"decreasing offsets",
       [](Bytes& b) { Put<uint32_t>(b, kOffsets + 4 * 2, 6); },
       "decreasing offsets"},
      {"offset past the stream end",
       [](Bytes& b) { Put<uint32_t>(b, kOffsets + 4, 200); },
       "decreasing offsets"},
      {"offsets[n] != stream size",
       [](Bytes& b) { Put<uint32_t>(b, kOffsets + 4 * kNodes, 25); },
       "offset table does not span"},
      {"varint over 5 bytes",
       [](Bytes& b) { std::memset(&b[List(0)], 0x80, 6); },
       "varint overlong"},
      {"varint past its node's bytes",
       [](Bytes& b) { b[List(7) + 1] = 0x81; }, "past its list"},
      {"list leaves bytes unused", [](Bytes& b) { b[List(0)] = 5; },
       "unused bytes"},
      // Parent probe: node 1's list edited to name peers 127 and 129 mapped
      // fine, and neighbors(1) returned them.
      {"neighbor id >= n", [](Bytes& b) { b[List(1) + 1] = 127; },
       "neighbor out of range"},
      {"self loop", [](Bytes& b) { b[List(1) + 1] = 1; }, "self loop"},
      {"repeated neighbor",  // Gap 2^32 - 1 wraps back onto neighbor 1.
       [](Bytes& b) {
         const uint8_t list[] = {2, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F};
         std::memcpy(&b[List(0)], list, sizeof(list));
       },
       "repeat"},
      {"asymmetric pair", [](Bytes& b) { b[List(5) + 1] = 2; },
       "asymmetric edge"},
      {"degree sum != 2 x edges",
       [](Bytes& b) { Put<uint64_t>(b, kEdgesPos, 8); }, "degree sum"},
      {"wrong min degree",
       [](Bytes& b) { Put<uint32_t>(b, kMinDegreePos, 2); },
       "degree bounds"},
      {"wrong max degree",
       [](Bytes& b) { Put<uint32_t>(b, kMaxDegreePos, 7); },
       "degree bounds"},
      {"tuple offsets start above 0",
       [](Bytes& b) { Put<uint64_t>(b, kTupleOffsets, 1); },
       "tuple offsets do not span"},
      {"decreasing tuple offsets",
       [](Bytes& b) { Put<uint64_t>(b, kTupleOffsets + 8 * 2, 1); },
       "decreasing tuple offsets"},
      {"tuple offsets end short of the count",
       [](Bytes& b) { Put<uint64_t>(b, kTupleOffsets + 8 * kNodes, 15); },
       "tuple offsets do not span"},
  };
  for (const Corruption& row : rows) {
    SCOPED_TRACE(row.name);
    Bytes bytes = original;
    row.edit(bytes);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    auto loaded = LoadWorld(path, net::NetworkParams{}, 3);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(row.message), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace p2paqp::io
