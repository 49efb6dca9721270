// In-network-compute reduction engine (SHARP-like substrate).
//
// The paper's Appendix B experiment pairs the multicast Allgather with an
// INC Reduce-Scatter: contributions flow *up* a reduction tree rooted at the
// block owner, switches aggregate element-wise (float32 sum) and forward one
// merged packet per chunk, so each node's NIC send path carries N*(P-1)
// bytes while its receive path carries only N (Fig 3's INC column).
//
// Implementation: a per-(session, owner) BFS tree over the topology with the
// owner as root. kIncContribution packets are intercepted at every switch;
// when a switch has heard from all of its contributing child edges for a
// chunk it emits one merged packet toward the owner. Merged packets carry a
// contribution weight, so hosts directly attached to the owner (e.g. a
// back-to-back topology) also converge. The substrate assumes a lossless
// fabric — it carries no reliability layer (as SHARP relies on link-level
// reliability).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/units.hpp"
#include "src/fabric/fabric.hpp"

namespace mccl::inc {

using SessionId = std::uint16_t;

class Engine {
 public:
  /// Switch ALU latency paid per merged chunk.
  static constexpr Time kSwitchComputeLatency = 200 * kNanosecond;

  explicit Engine(fabric::Fabric& fabric);

  /// Creates a reduction session over its member hosts (contributors and
  /// owners).
  SessionId create_session(std::vector<fabric::NodeId> hosts);

  /// Posts host `src`'s contribution for `chunk` of the block owned by
  /// `owner`. `payload` may be empty in synthetic (timing-only) mode.
  /// `inject` lets the caller route the packet through its NIC egress
  /// arbiter (fair sharing with other QPs); when empty, the packet enters
  /// the fabric directly.
  using Injector = std::function<void(const fabric::PacketPtr&)>;
  void contribute(SessionId session, fabric::NodeId src,
                  fabric::NodeId owner, std::uint32_t chunk,
                  std::uint32_t len, fabric::Payload payload,
                  const Injector& inject = {});

  /// `sink(chunk, len, payload)` fires at `host` when the fully reduced
  /// chunk of the block it owns arrives; payload is empty in synthetic mode.
  using ResultSink = std::function<void(std::uint32_t chunk,
                                        std::uint32_t len,
                                        const fabric::Payload& payload)>;
  void set_result_sink(SessionId session, fabric::NodeId host,
                       ResultSink sink);

  /// Called by the NIC when a contribution packet reaches a host.
  void on_host_packet(fabric::NodeId host, const fabric::PacketPtr& packet);

  std::uint64_t merged_packets() const { return merged_packets_; }

 private:
  struct Tree {
    // parent_port[n] = port at node n toward the owner (-1: owner or absent)
    std::vector<int> parent_port;
    // expected merged/leaf contributions per switch.
    std::unordered_map<fabric::NodeId, std::uint32_t> expected;
  };

  struct ChunkAcc {
    std::uint32_t weight = 0;   // contributors represented so far
    std::uint32_t arrivals = 0; // packets seen (switch: vs expected)
    std::uint32_t len = 0;
    std::vector<float> sum;     // element-wise accumulator (data mode)
  };

  struct Session {
    std::vector<fabric::NodeId> hosts;
    // trees keyed by owner host.
    std::unordered_map<fabric::NodeId, Tree> trees;
    // switch-side accumulators keyed by (owner, switch, chunk).
    std::unordered_map<std::uint64_t, ChunkAcc> pending;
    // host-side accumulators keyed by chunk.
    std::unordered_map<fabric::NodeId, std::unordered_map<std::uint32_t, ChunkAcc>>
        host_pending;
    std::unordered_map<fabric::NodeId, ResultSink> sinks;
  };

  bool intercept(fabric::NodeId sw, int in_port,
                 const fabric::PacketPtr& packet);
  const Tree& tree_for(Session& s, fabric::NodeId owner);
  static void accumulate(ChunkAcc& acc, const fabric::PacketPtr& packet);
  fabric::PacketPtr make_merged(SessionId id, fabric::NodeId from,
                                fabric::NodeId owner, std::uint32_t chunk,
                                const ChunkAcc& acc) const;

  fabric::Fabric& fabric_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t merged_packets_ = 0;
};

}  // namespace mccl::inc
