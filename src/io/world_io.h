// Serialization of simulated worlds (overlay + liveness + per-peer data).
//
// Building a paper-scale world (22k-node calibrated crawl + 2.2M tuples) or
// a 1M-10M scale world takes seconds to minutes and a seed; sharing
// *exactly* the same world across machines, experiments and bug reports is
// what this file is for. The overlay is stored as the in-memory Graph's
// delta/varint CSR byte for byte, so loading maps the file and reads the
// adjacency straight out of the page cache instead of rebuilding it.
//
// Little-endian layout, version 2; every section starts 8-byte aligned
// (zero padding after the offset table and the adjacency stream):
//
//   header (48 B): magic "P2PW" | u32 version | u64 num_nodes
//                  u64 num_edges | u32 min_degree | u32 max_degree
//                  u64 encoded_bytes | u64 num_tuples
//   (num_nodes + 1) * u32      byte offsets into the adjacency stream
//   encoded_bytes * u8         delta/varint adjacency stream (graph/graph.h)
//   ceil(num_nodes / 64) * u64 liveness bitset, bit p = peer p alive
//   (num_nodes + 1) * u64      tuple offsets: peer p owns [off[p], off[p+1])
//   num_tuples * (i32 a, i32 b) every peer's tuples, in peer order
//
// The header fields fix every section's size, and the file must be exactly
// as long as its sections. Peer addresses/capabilities are regenerated from
// the load-time seed (they are simulation flavor, not experimental state).
#ifndef P2PAQP_IO_WORLD_IO_H_
#define P2PAQP_IO_WORLD_IO_H_

#include <string>

#include "net/network.h"
#include "util/status.h"

namespace p2paqp::io {

// Writes the network's overlay, liveness and local databases to
// `path + ".tmp"`, then renames it over `path`: a live network mapping the
// old file keeps reading the old inode instead of faulting on a truncation.
util::Status SaveWorld(const std::string& path,
                       const net::SimulatedNetwork& network);

// Maps `path` read-only, validates it in O(edges) time, and returns a
// network whose graph reads from the mapping (graph().is_mapped(); clones
// share it). `params`/`seed` configure the regenerated latency model and
// peer identities. A malformed file yields InvalidArgument.
util::Result<net::SimulatedNetwork> LoadWorld(const std::string& path,
                                              const net::NetworkParams& params,
                                              uint64_t seed);

}  // namespace p2paqp::io

#endif  // P2PAQP_IO_WORLD_IO_H_
