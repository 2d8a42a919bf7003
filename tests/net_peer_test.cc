// Tests for peer identity/capabilities and the remaining net details.
#include "net/peer.h"

#include <regex>
#include <set>

#include <gtest/gtest.h>

#include "net/message.h"

namespace p2paqp::net {
namespace {

TEST(PeerTest, AddressFormatsAsDottedQuad) {
  Peer peer(3, /*ipv4=*/0x7f000001, /*port=*/6346, PeerCapabilities{});
  EXPECT_EQ(peer.address(), "127.0.0.1:6346");
  EXPECT_EQ(peer.id(), 3u);
  EXPECT_EQ(peer.ipv4(), 0x7f000001u);
  EXPECT_EQ(peer.port(), 6346);
}

TEST(PeerTest, AddressAlwaysParsesAsIpPort) {
  util::Rng rng(1);
  std::regex pattern(
      R"(^\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}:\d{1,5}$)");
  for (int i = 0; i < 50; ++i) {
    Peer peer(static_cast<graph::NodeId>(i),
              static_cast<uint32_t>(rng.Next64()),
              static_cast<uint16_t>(rng.UniformInt(1024, 65535)),
              RandomCapabilities(rng));
    EXPECT_TRUE(std::regex_match(peer.address(), pattern)) << peer.address();
  }
}

TEST(PeerTest, DefaultPeerHasEmptyDatabase) {
  Peer peer;
  EXPECT_TRUE(peer.database().empty());
  EXPECT_EQ(peer.id(), graph::kInvalidNode);
  EXPECT_EQ(peer.incarnation(), 0u);
}

TEST(PeerTest, DatabaseInstallAndMutate) {
  Peer peer(1, 0, 1024, PeerCapabilities{});
  peer.set_database(data::LocalDatabase(data::Table{{5}, {6}}));
  EXPECT_EQ(peer.database().size(), 2u);
  peer.mutable_database().Append(data::Tuple{7});
  EXPECT_EQ(peer.database().size(), 3u);
  EXPECT_EQ(peer.database().Count(5, 7), 3);
}

TEST(PeerCapabilitiesTest, RandomCapabilitiesStayInEnvelope) {
  util::Rng rng(2);
  std::set<uint32_t> bandwidth_tiers;
  for (int i = 0; i < 200; ++i) {
    PeerCapabilities caps = RandomCapabilities(rng);
    EXPECT_GE(caps.cpu_ghz, 0.3);
    EXPECT_LE(caps.cpu_ghz, 3.2);
    EXPECT_GE(caps.memory_mb, 64u);
    EXPECT_LE(caps.memory_mb, 2048u);
    EXPECT_GE(caps.disk_gb, 4u);
    EXPECT_LE(caps.disk_gb, 250u);
    EXPECT_GE(caps.max_connections, 4u);
    EXPECT_LE(caps.max_connections, 32u);
    bandwidth_tiers.insert(caps.bandwidth_kbps);
  }
  // All five connection tiers (dial-up .. LAN) should show up.
  EXPECT_EQ(bandwidth_tiers.size(), 5u);
}

TEST(MessageSizesTest, PayloadOrderingIsSensible) {
  // Walker (query + bookkeeping) outweighs a bare ping; aggregate replies
  // outweigh pongs.
  EXPECT_GT(DefaultPayloadBytes(MessageType::kWalker),
            DefaultPayloadBytes(MessageType::kPing));
  EXPECT_GT(DefaultPayloadBytes(MessageType::kAggregateReply),
            DefaultPayloadBytes(MessageType::kPong));
  EXPECT_GT(DefaultPayloadBytes(MessageType::kQuery),
            DefaultPayloadBytes(MessageType::kQueryHit));
}

TEST(MessageSizesTest, EveryTypeHasAName) {
  for (auto type : {MessageType::kPing, MessageType::kPong,
                    MessageType::kQuery, MessageType::kQueryHit,
                    MessageType::kWalker, MessageType::kAggregateReply,
                    MessageType::kSampleRequest, MessageType::kSampleReply}) {
    EXPECT_STRNE(MessageTypeToString(type), "UNKNOWN");
  }
}

}  // namespace
}  // namespace p2paqp::net
