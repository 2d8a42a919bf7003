#include "io/world_io.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace p2paqp::io {

namespace {

static_assert(std::endian::native == std::endian::little,
              "world files are little-endian");
static_assert(sizeof(data::Tuple) == 8, "tuples are stored as (i32, i32)");

constexpr char kMagic[4] = {'P', '2', 'P', 'W'};
constexpr uint32_t kVersion = 2;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t min_degree;
  uint32_t max_degree;
  uint64_t encoded_bytes;
  uint64_t num_tuples;
};
static_assert(sizeof(Header) == 48, "header keeps the sections 8-aligned");

// Rounds a section size up to the next section's 8-byte alignment.
uint64_t Pad(uint64_t bytes) { return (bytes + 7) & ~uint64_t{7}; }

util::Status Corrupt(const char* what) {
  return util::Status::InvalidArgument(std::string("corrupt world file: ") +
                                       what);
}

// Writes `bytes` bytes of `data`, then zeros up to the next 8-byte boundary.
bool WriteSection(std::FILE* file, const void* data, uint64_t bytes) {
  constexpr uint8_t kZeros[8] = {};
  return (bytes == 0 || std::fwrite(data, bytes, 1, file) == 1) &&
         (Pad(bytes) == bytes ||
          std::fwrite(kZeros, Pad(bytes) - bytes, 1, file) == 1);
}

// graph::varint::Decode that reads at most 5 bytes and never reaches `end`;
// nullptr when the varint is longer or cut off. The value wraps to 32 bits
// exactly as the Graph reader decodes it.
const uint8_t* DecodeBounded(const uint8_t* p, const uint8_t* end,
                             uint32_t* out) {
  uint32_t value = 0;
  for (int shift = 0; shift < 35 && p < end; shift += 7) {
    const uint32_t byte = *p++;
    value |= (byte & 0x7F) << shift;
    if (byte < 0x80) {
      *out = value;
      return p;
    }
  }
  return nullptr;
}

// Accepts exactly what the Graph encoder writes for a simple undirected
// graph with the header's counts: per node, a degree varint and that many
// strictly increasing in-range neighbor ids (the first absolute, then
// gap - 1), filling the node's byte range. Symmetry is checked in the same
// O(E) pass with one cursor per node: walking u upward, each lower neighbor
// v of u must name u as v's next upper neighbor not yet matched.
util::Status ValidateCsr(const Header& h, const uint32_t* offsets,
                         const uint8_t* encoded) {
  const uint64_t n = h.num_nodes;
  if (offsets[0] != 0 || offsets[n] != h.encoded_bytes) {
    return Corrupt("offset table does not span the adjacency stream");
  }
  // next[v]: v's first unmatched upper neighbor, or v itself once none is
  // left; pos[v]: the stream offset just past that neighbor's varint.
  std::vector<uint32_t> next(n), pos(n);
  uint64_t degree_sum = 0;
  uint32_t min_degree = UINT32_MAX, max_degree = 0;
  for (uint64_t u = 0; u < n; ++u) {
    // offsets[n] ends the stream, so a later entry above it must decrease.
    if (offsets[u + 1] < offsets[u] || offsets[u + 1] > offsets[n]) {
      return Corrupt("decreasing offsets");
    }
    const uint8_t* const end = encoded + offsets[u + 1];
    uint32_t degree = 0, id = 0;
    const uint8_t* p = DecodeBounded(encoded + offsets[u], end, &degree);
    next[u] = static_cast<uint32_t>(u);
    for (uint32_t i = 0; p != nullptr && i < degree; ++i) {
      const uint32_t prev = id;
      uint32_t gap = 0;
      if ((p = DecodeBounded(p, end, &gap)) == nullptr) break;
      id = i == 0 ? gap : prev + gap + 1;
      if (id >= n || id == u || (i > 0 && id <= prev)) {
        return Corrupt("neighbor out of range, self loop or repeat");
      }
      if (id > u) {
        if (next[u] == u) {
          next[u] = id;
          pos[u] = static_cast<uint32_t>(p - encoded);
        }
      } else if (next[id] != u) {
        return Corrupt("asymmetric edge");
      } else if (pos[id] == offsets[id + 1]) {
        next[id] = id;
      } else {
        pos[id] = static_cast<uint32_t>(
            graph::varint::Decode(encoded + pos[id], &gap) - encoded);
        next[id] = static_cast<uint32_t>(u) + gap + 1;
      }
    }
    if (p == nullptr) return Corrupt("varint overlong or past its list");
    if (p != end) return Corrupt("unused bytes after a neighbor list");
    degree_sum += degree;
    min_degree = std::min(min_degree, degree);
    max_degree = std::max(max_degree, degree);
  }
  for (uint64_t v = 0; v < n; ++v) {
    if (next[v] != v) return Corrupt("asymmetric edge");
  }
  if (degree_sum != 2 * h.num_edges) {
    return Corrupt("degree sum is not twice the edge count");
  }
  if (min_degree != h.min_degree || max_degree != h.max_degree) {
    return Corrupt("header degree bounds differ from the lists");
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SaveWorld(const std::string& path,
                       const net::SimulatedNetwork& network) {
  const graph::Graph& graph = network.graph();
  const size_t n = graph.num_nodes();
  std::vector<uint64_t> alive((n + 63) / 64, 0), tuple_offsets(n + 1, 0);
  for (graph::NodeId p = 0; p < n; ++p) {
    if (network.IsAlive(p)) alive[p >> 6] |= uint64_t{1} << (p & 63);
    tuple_offsets[p + 1] =
        tuple_offsets[p] + network.peer(p).database().size();
  }
  Header header{{}, kVersion, n, graph.num_edges(), graph.min_degree(),
                graph.max_degree(), graph.offsets()[n], tuple_offsets[n]};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));

  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    return util::Status::Unavailable("cannot open " + tmp + " for writing");
  }
  bool ok = WriteSection(file, &header, sizeof(header)) &&
            WriteSection(file, graph.offsets(), (n + 1) * sizeof(uint32_t)) &&
            WriteSection(file, graph.encoded_bytes(), header.encoded_bytes) &&
            WriteSection(file, alive.data(), alive.size() * 8) &&
            WriteSection(file, tuple_offsets.data(), (n + 1) * 8);
  for (graph::NodeId p = 0; ok && p < n; ++p) {
    const data::Table& tuples = network.peer(p).database().tuples();
    ok = WriteSection(file, tuples.data(), tuples.size() * 8);
  }
  // fclose flushes the buffered tail; its failure is a failed write too.
  ok = std::fclose(file) == 0 && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::Internal("cannot write " + path);
  }
  return util::Status::Ok();
}

util::Result<net::SimulatedNetwork> LoadWorld(
    const std::string& path, const net::NetworkParams& params,
    uint64_t seed) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return util::Status::NotFound("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return util::Status::Unavailable("cannot stat " + path);
  }
  const auto file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(Header)) {
    ::close(fd);
    return util::Status::InvalidArgument(path + " has a short header");
  }
  void* base = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping holds its own reference.
  if (base == MAP_FAILED) {
    return util::Status::Unavailable("mmap failed for " + path);
  }
  // Graph copies (and network clones) share the mapping; the last unmaps.
  std::shared_ptr<const void> mapping(base, [file_size](const void* p) {
    ::munmap(const_cast<void*>(p), file_size);
  });
  const auto* bytes = static_cast<const uint8_t*>(base);
  Header h{};
  std::memcpy(&h, bytes, sizeof(h));
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(path + " is not a p2paqp world");
  }
  if (h.version != kVersion) {
    return util::Status::InvalidArgument("unsupported world version");
  }
  const uint64_t n = h.num_nodes;
  if (n == 0 || n > (uint64_t{1} << 32)) {
    return Corrupt("implausible node count");
  }
  if (h.num_edges > n * (n - 1) / 2) return Corrupt("implausible edge count");
  // n <= 2^32 bounds the node-sized sections; the two free counts are held
  // against what is left of the file before they enter any sum, so none of
  // this arithmetic can overflow.
  const uint64_t offsets_bytes = Pad((n + 1) * sizeof(uint32_t));
  const uint64_t alive_bytes = (n + 63) / 64 * 8;
  const uint64_t fixed = sizeof(Header) + offsets_bytes + alive_bytes +
                         (n + 1) * 8;
  const uint64_t rest = file_size - std::min(fixed, file_size);
  if (fixed > file_size || h.encoded_bytes > rest ||
      h.num_tuples > rest / 8 ||
      Pad(h.encoded_bytes) + h.num_tuples * 8 != rest) {
    return Corrupt("file size does not match its header");
  }
  const auto* offsets =
      reinterpret_cast<const uint32_t*>(bytes + sizeof(Header));
  const uint8_t* encoded = bytes + sizeof(Header) + offsets_bytes;
  const auto* alive =
      reinterpret_cast<const uint64_t*>(encoded + Pad(h.encoded_bytes));
  const uint64_t* tuple_offsets = alive + alive_bytes / 8;
  const auto* tuples =
      reinterpret_cast<const data::Tuple*>(tuple_offsets + n + 1);
  if (util::Status csr = ValidateCsr(h, offsets, encoded); !csr.ok()) {
    return csr;
  }
  if (tuple_offsets[0] != 0 || tuple_offsets[n] != h.num_tuples) {
    return Corrupt("tuple offsets do not span the tuple array");
  }
  for (uint64_t p = 0; p < n; ++p) {
    if (tuple_offsets[p + 1] < tuple_offsets[p]) {
      return Corrupt("decreasing tuple offsets");
    }
  }

  std::vector<data::LocalDatabase> databases(n);
  for (uint64_t p = 0; p < n; ++p) {
    databases[p] = data::LocalDatabase(data::Table(
        tuples + tuple_offsets[p], tuples + tuple_offsets[p + 1]));
  }
  auto network = net::SimulatedNetwork::Make(
      graph::Graph(n, h.num_edges, h.min_degree, h.max_degree, encoded,
                   offsets, std::move(mapping)),
      std::move(databases), params, seed);
  if (!network.ok()) return network.status();
  for (uint64_t p = 0; p < n; ++p) {
    if (((alive[p >> 6] >> (p & 63)) & 1) == 0) {
      network->SetAlive(static_cast<graph::NodeId>(p), false);
    }
  }
  return network;
}

}  // namespace p2paqp::io
