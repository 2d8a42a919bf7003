#include "io/graph_io.h"

#include <algorithm>
#include <numeric>

#include "util/parallel.h"

namespace p2paqp::io {

uint64_t PrefaultGraph(const graph::Graph& graph) {
  constexpr size_t kPage = 4096;
  const size_t n = graph.num_nodes();
  if (n == 0) return 0;
  const auto* offsets_bytes =
      reinterpret_cast<const uint8_t*>(graph.offsets());
  const size_t offsets_size = (n + 1) * sizeof(uint32_t);
  const uint8_t* encoded = graph.encoded_bytes();
  const size_t encoded_size = graph.offsets()[n];
  // One byte per page, summed per lane; the serial reduction keeps the
  // checksum independent of the thread count (the parallel contract).
  auto touch = [](const uint8_t* base, size_t size) {
    const size_t pages = (size + kPage - 1) / kPage;
    auto sums = util::ParallelMap(
        pages,
        [base, size](size_t p) {
          return static_cast<uint64_t>(base[std::min(p * kPage, size - 1)]);
        },
        {.threads = 0, .partition = util::Partition::kStatic});
    return std::accumulate(sums.begin(), sums.end(), uint64_t{0});
  };
  uint64_t sum = touch(offsets_bytes, offsets_size);
  if (encoded_size > 0) sum += touch(encoded, encoded_size);
  return sum;
}

}  // namespace p2paqp::io
