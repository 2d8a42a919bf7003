#include "io/world_io.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "graph/builder.h"

namespace p2paqp::io {

namespace {

constexpr char kMagic[4] = {'P', '2', 'P', 'W'};
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* file) const {
    if (file != nullptr) std::fclose(file);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

// Little-endian fixed-width writers/readers (the library targets
// little-endian hosts; asserted at compile time below).
static_assert(std::endian::native == std::endian::little,
              "world files are little-endian");

template <typename T>
bool WriteValue(std::FILE* file, T value) {
  return std::fwrite(&value, sizeof(T), 1, file) == 1;
}

template <typename T>
bool ReadValue(std::FILE* file, T* value) {
  return std::fread(value, sizeof(T), 1, file) == 1;
}

}  // namespace

util::Status SaveWorld(const std::string& path,
                       const net::SimulatedNetwork& network) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return util::Status::Unavailable("cannot open " + path + " for writing");
  }
  const graph::Graph& graph = network.graph();
  if (std::fwrite(kMagic, sizeof(kMagic), 1, file.get()) != 1 ||
      !WriteValue(file.get(), kVersion) ||
      !WriteValue(file.get(), static_cast<uint64_t>(graph.num_nodes())) ||
      !WriteValue(file.get(), static_cast<uint64_t>(graph.num_edges()))) {
    return util::Status::Internal("short write on header");
  }
  for (graph::NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (graph::NodeId v : graph.neighbors(u)) {
      if (u < v) {
        if (!WriteValue(file.get(), u) || !WriteValue(file.get(), v)) {
          return util::Status::Internal("short write on edges");
        }
      }
    }
  }
  for (graph::NodeId p = 0; p < network.num_peers(); ++p) {
    const net::Peer& peer = network.peer(p);
    auto alive = static_cast<uint8_t>(network.IsAlive(p) ? 1 : 0);
    auto count = static_cast<uint64_t>(peer.database().size());
    if (!WriteValue(file.get(), alive) || !WriteValue(file.get(), count)) {
      return util::Status::Internal("short write on peer header");
    }
    for (const data::Tuple& t : peer.database().tuples()) {
      if (!WriteValue(file.get(), t.value) || !WriteValue(file.get(), t.b)) {
        return util::Status::Internal("short write on tuples");
      }
    }
  }
  if (std::fflush(file.get()) != 0) {
    return util::Status::Internal("flush failed for " + path);
  }
  return util::Status::Ok();
}

util::Result<net::SimulatedNetwork> LoadWorld(
    const std::string& path, const net::NetworkParams& params,
    uint64_t seed) {
  File file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return util::Status::NotFound("cannot open " + path);
  }
  char magic[4];
  uint32_t version = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  if (std::fread(magic, sizeof(magic), 1, file.get()) != 1 ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(path + " is not a p2paqp world");
  }
  if (!ReadValue(file.get(), &version) || version != kVersion) {
    return util::Status::InvalidArgument("unsupported world version");
  }
  if (!ReadValue(file.get(), &num_nodes) ||
      !ReadValue(file.get(), &num_edges)) {
    return util::Status::InvalidArgument("truncated world header");
  }
  if (num_nodes == 0 || num_nodes > (1ULL << 32)) {
    return util::Status::InvalidArgument("implausible node count");
  }
  if (num_edges > num_nodes * (num_nodes - 1) / 2) {
    return util::Status::InvalidArgument("implausible edge count");
  }

  graph::GraphBuilder builder(static_cast<size_t>(num_nodes),
                              static_cast<size_t>(num_edges));
  for (uint64_t e = 0; e < num_edges; ++e) {
    graph::NodeId a = 0;
    graph::NodeId b = 0;
    if (!ReadValue(file.get(), &a) || !ReadValue(file.get(), &b)) {
      return util::Status::InvalidArgument("truncated edge list");
    }
    if (!builder.AddEdge(a, b)) {
      return util::Status::InvalidArgument("invalid or duplicate edge");
    }
  }

  std::vector<data::LocalDatabase> databases(
      static_cast<size_t>(num_nodes));
  std::vector<bool> alive(static_cast<size_t>(num_nodes), true);
  for (uint64_t p = 0; p < num_nodes; ++p) {
    uint8_t alive_flag = 1;
    uint64_t count = 0;
    if (!ReadValue(file.get(), &alive_flag) ||
        !ReadValue(file.get(), &count)) {
      return util::Status::InvalidArgument("truncated peer header");
    }
    alive[static_cast<size_t>(p)] = alive_flag != 0;
    data::Table table;
    table.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      data::Tuple t;
      if (!ReadValue(file.get(), &t.value) || !ReadValue(file.get(), &t.b)) {
        return util::Status::InvalidArgument("truncated tuple data");
      }
      table.push_back(t);
    }
    databases[static_cast<size_t>(p)] = data::LocalDatabase(std::move(table));
  }

  auto network = net::SimulatedNetwork::Make(builder.Build(),
                                             std::move(databases), params,
                                             seed);
  if (!network.ok()) return network.status();
  for (graph::NodeId p = 0; p < network->num_peers(); ++p) {
    if (!alive[p]) network->SetAlive(p, false);
  }
  return network;
}

}  // namespace p2paqp::io
