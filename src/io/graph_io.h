// Page warm-up for compressed-CSR graphs, owned or mapped from a world file
// (io/world_io.h).
#ifndef P2PAQP_IO_GRAPH_IO_H_
#define P2PAQP_IO_GRAPH_IO_H_

#include <cstdint>

#include "graph/graph.h"

namespace p2paqp::io {

// Touches one byte per 4 KiB page of the graph's offset table and encoded
// stream from static-partitioned lanes, so a mapped graph's page faults are
// taken by the lane (and on NUMA hosts, the node) that will keep reading
// that range — instead of serially on first traversal. Works on owned
// graphs too (pure cache warm). Returns a byte-sum checksum so the touches
// cannot be optimized away; the value is deterministic for a given graph.
uint64_t PrefaultGraph(const graph::Graph& graph);

}  // namespace p2paqp::io

#endif  // P2PAQP_IO_GRAPH_IO_H_
