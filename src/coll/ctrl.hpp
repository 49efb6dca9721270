// Control-plane message encoding.
//
// All slow-path coordination (RNR barrier, broadcast-chain activation
// tokens, final handshake, fetch requests/acks) travels as zero-length RC
// sends whose 32-bit immediate encodes | type:4 | op:12 | arg:16 |.
//
// The fast path uses a different immediate layout (see mcast_coll.hpp):
// | op_tag:8 | chunk:24 | — Fig 7's split of the CQE immediate between PSN
// bits and collective-ID bits.
#pragma once

#include <cstdint>

#include "src/common/check.hpp"

namespace mccl::coll {

enum class CtrlType : std::uint8_t {
  kBarrier = 1,     // RNR barrier token (arg = round)
  kChainToken = 2,  // multicast sequencer activation (arg unused)
  kFinal = 3,       // final-handshake packet (arg unused)
  // Reliability slow path (arg = block index). A request may arrive from
  // ANY rank, not just the right neighbor: requesters retry with backoff
  // and, after McastCollective::kFetchRetryCap unanswered attempts, fail
  // over to the target's own left neighbor. Duplicate requests (retries)
  // are normal; the target acks at most once per (requester, block)
  // transition to complete, and the requester latches the first ack per
  // block.
  kFetchReq = 4,    // request permission to fetch a block's chunks
  kFetchAck = 5,    // sender holds the whole block; fetch via RDMA Read

  kStep = 6,        // P2P baseline data (the receive's wr_id names the step)

  // Crash tolerance. Heartbeats ride the same RC control mesh as everything
  // else, between ring neighbours only (failure_detector.hpp).
  // They are addressed to the reserved op id 0, which no collective ever
  // uses — the endpoint hands op id 0 to the communicator's detector.
  kHeartbeat = 7,    // lease renewal (arg unused)
  // Root-repair protocol, run when a block's root is confirmed dead. Every
  // survivor reports to the block's coordinator (first alive rank right of
  // the dead root) whether it holds the full block; the coordinator either
  // re-roots fetches at a surviving full holder or declares the block dead.
  kBlockReport = 8,  // arg = | block:15 | holds_full:1 |
  kReRoot = 9,       // arg = | block:8 | new_root:8 |
  kBlockDead = 10,   // no survivor holds the block (arg = block)
  // 11 is retired (it carried slow-root reports); left unused.
  // Death notice on op id 0: the sender confirmed `arg` dead from its own
  // leases and tells every rank it still holds alive (failure_detector.hpp).
  kDead = 12,        // arg = dead rank
};

struct CtrlMsg {
  CtrlType type = CtrlType::kBarrier;
  std::uint16_t op = 0;   // collective instance id (12 bits used)
  std::uint16_t arg = 0;
};

inline std::uint32_t encode_ctrl(const CtrlMsg& m) {
  MCCL_CHECK(m.op < (1u << 12));
  return (static_cast<std::uint32_t>(m.type) << 28) |
         (static_cast<std::uint32_t>(m.op) << 16) | m.arg;
}

inline CtrlMsg decode_ctrl(std::uint32_t imm) {
  CtrlMsg m;
  m.type = static_cast<CtrlType>(imm >> 28);
  m.op = static_cast<std::uint16_t>((imm >> 16) & 0xfff);
  m.arg = static_cast<std::uint16_t>(imm & 0xffff);
  return m;
}

/// Fast-path immediate: | op_tag:8 | chunk:24 |.
inline constexpr std::uint32_t kChunkBits = 24;

inline std::uint32_t encode_chunk_imm(std::uint8_t op_tag,
                                      std::uint32_t chunk) {
  MCCL_CHECK(chunk < (1u << kChunkBits));
  return (static_cast<std::uint32_t>(op_tag) << kChunkBits) | chunk;
}

inline std::uint8_t imm_op_tag(std::uint32_t imm) {
  return static_cast<std::uint8_t>(imm >> kChunkBits);
}

inline std::uint32_t imm_chunk(std::uint32_t imm) {
  return imm & ((1u << kChunkBits) - 1);
}

}  // namespace mccl::coll
