// Wire packets.
//
// A Packet is the unit the fabric serializes on links. Payload bytes are
// carried zero-copy as a shared slice of the sender's registered memory
// snapshot, so multicast replication at switches shares one buffer. Control
// packets (ACKs, barrier tokens) carry no payload, only a wire size.
//
// The TransportHeader carries the fields the (verbs-like) RDMA layer needs:
// QP numbers, PSN, immediate data, one-sided target address/rkey and message
// reassembly metadata. The fabric itself only reads dst/size/flow_id.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/common/check.hpp"
#include "src/debug/validate.hpp"

namespace mccl::fabric {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

using McastGroupId = std::int32_t;
inline constexpr McastGroupId kNoMcastGroup = -1;

/// Operation kinds understood by the RDMA transport layer.
enum class TransportOp : std::uint8_t {
  kUdSend,      // unreliable datagram (unicast or multicast)
  kUcWriteSeg,  // one MTU segment of a UC RDMA Write message
  kRcSendSeg,   // one MTU segment of an RC two-sided message
  kRcAck,       // RC acknowledgement
  kRcReadReq,   // RC RDMA Read request
  kRcReadResp,  // one MTU segment of an RC RDMA Read response
  kIncContribution,  // in-network-compute reduction contribution (SHARP-like)
};

struct TransportHeader {
  TransportOp op = TransportOp::kUdSend;
  std::uint32_t src_qpn = 0;
  std::uint32_t dst_qpn = 0;
  std::uint32_t psn = 0;      // sequence number (transport-scope per op)
  std::uint32_t imm = 0;      // immediate data, delivered in the CQE
  bool has_imm = false;
  bool last_segment = true;   // last segment of a multi-packet message
  std::uint64_t msg_id = 0;   // reassembly key for multi-packet messages
  std::uint64_t seg_offset = 0;  // byte offset of this segment in the message
  std::uint64_t msg_len = 0;     // total message length
  std::uint32_t seg_len = 0;     // data bytes this packet represents; the
                                 // payload may be omitted (synthetic mode)
  std::uint64_t raddr = 0;    // one-sided target address (UC Write, RC Read)
  std::uint32_t rkey = 0;
  bool nak = false;           // kRcAck only: negative acknowledgement
  std::uint32_t crc = 0;      // CRC32C over this segment's payload bytes,
  bool has_crc = false;       // stamped by the sender (simulated ICRC)
};

/// A shared, immutable slice of bytes.
class Payload {
 public:
  Payload() = default;
  Payload(std::shared_ptr<const std::vector<std::uint8_t>> data,
          std::size_t offset, std::size_t len)
      : data_(std::move(data)), offset_(offset), len_(len) {
    MCCL_CHECK(data_ && offset_ + len_ <= data_->size());
  }

  static Payload copy_of(const std::uint8_t* src, std::size_t len) {
    auto buf = std::make_shared<std::vector<std::uint8_t>>(src, src + len);
    return Payload(std::move(buf), 0, len);
  }

  bool empty() const { return len_ == 0; }
  std::size_t size() const { return len_; }
  const std::uint8_t* data() const {
    return data_ ? data_->data() + offset_ : nullptr;
  }

  /// Sub-slice relative to this payload.
  Payload slice(std::size_t offset, std::size_t len) const {
    MCCL_CHECK(offset + len <= len_);
    return Payload(data_, offset_ + offset, len);
  }

 private:
  std::shared_ptr<const std::vector<std::uint8_t>> data_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
};

/// Virtual lanes (InfiniBand QoS, paper Section VII): lane 0 is the strict-
/// priority control lane (ACKs, barrier/chain/handshake tokens); lanes
/// 1..kNumLanes-1 carry bulk data, split by tenant QoS class so a high-
/// priority tenant's chunks overtake best-effort bulk at every switch
/// egress port. Ports serve lanes in index order (strict priority); with a
/// single tenant class everything data rides kBulkLane and the fabric
/// behaves exactly like the original two-lane config.
inline constexpr std::uint8_t kCtrlLane = 0;
inline constexpr std::uint8_t kBulkLane = 1;
inline constexpr std::size_t kNumLanes = 4;

/// Data lane for a tenant QoS class (0 = highest priority). Classes beyond
/// the lane count share the lowest-priority lane.
inline constexpr std::uint8_t data_lane_for_class(std::uint8_t cls) {
  constexpr std::uint8_t kLowest =
      static_cast<std::uint8_t>(kNumLanes - 1) - kBulkLane;
  return static_cast<std::uint8_t>(kBulkLane + (cls < kLowest ? cls : kLowest));
}

namespace detail {
struct PacketPoolCore;
}

/// Intrusive-refcount header for pooled packets. Copy/move are deliberately
/// no-ops: `*dup = *original` (the corruption-clone path) must copy the wire
/// fields but never the refcount or pool-home of the destination cell.
class PacketCtl {
 public:
  PacketCtl() = default;
  PacketCtl(const PacketCtl&) {}
  PacketCtl(PacketCtl&&) noexcept {}
  PacketCtl& operator=(const PacketCtl&) { return *this; }
  PacketCtl& operator=(PacketCtl&&) noexcept { return *this; }

 private:
  friend class PacketRef;
  friend class PacketPool;
  friend struct detail::PacketPoolCore;
  mutable std::uint32_t refs_ = 0;
  detail::PacketPoolCore* home_ = nullptr;  // null: heap-allocated one-off
};

struct Packet : PacketCtl {
  NodeId src_host = kInvalidNode;
  NodeId dst_host = kInvalidNode;            // unicast destination, or
  McastGroupId mcast_group = kNoMcastGroup;  // multicast group (if >= 0)
  std::uint32_t wire_size = 0;  // bytes serialized on each link
  std::uint64_t flow_id = 0;    // ECMP hash input
  std::uint8_t vl = kBulkLane;  // virtual lane (switch egress priority)
  std::uint16_t tenant = 0;     // owning tenant (pool accounting + QoS);
                                // stamped by PacketPool::acquire — builders
                                // must not change it, or the release-side
                                // accounting decrements the wrong sub-pool
  bool corrupted = false;  // a corruption window flipped a payload bit; in
                           // synthetic mode (no payload bytes carried) the
                           // receiver's CRC check consults this flag instead
  TransportHeader th;
  Payload payload;

  bool is_mcast() const { return mcast_group != kNoMcastGroup; }
};

namespace detail {
/// Storage shared by a PacketPool and the packets it handed out. Kept off
/// to the side (heap) so outstanding PacketRefs may outlive the pool object
/// itself — e.g. events still queued in the engine when a Cluster tears
/// down its Fabric. The core self-deletes once the owning pool is gone AND
/// the last outstanding packet returned.
/// Per-tenant accounting row of the shared slab (ROADMAP item 4's
/// "per-shard pool", realized as accounted sub-pools: the slab stays one
/// arena, but every tenant's share of it is tracked and soft-quota'd so a
/// runaway tenant is visible — and chargeable — instead of silently eating
/// every cell).
struct TenantPoolAcct {
  std::uint64_t outstanding = 0;  // cells this tenant holds right now
  std::uint64_t peak = 0;         // high-water mark of `outstanding`
  std::uint64_t acquired = 0;     // total acquire() calls
  std::uint64_t exhausted = 0;    // acquires observed while over quota
  std::uint64_t quota = 0;        // soft cap on outstanding (0 = none)
};

struct PacketPoolCore {
  // mccl-lint: allow(no-datapath-deque) cells need stable addresses
  std::deque<Packet> slab;          // stable addresses; grows, never shrinks
  std::vector<Packet*> free_list;
  std::uint64_t outstanding = 0;    // packets handed out, not yet returned
  std::uint64_t acquired_total = 0;
  std::vector<TenantPoolAcct> tenants;  // indexed by tenant id, grown lazily
  bool owner_alive = true;

  TenantPoolAcct& tenant_row(std::uint16_t tenant) {
    if (tenant >= tenants.size()) tenants.resize(std::size_t{tenant} + 1);
    return tenants[tenant];
  }
  void tenant_release(std::uint16_t tenant) {
    // The row always exists: acquire() created it when the cell went out.
    if (tenant < tenants.size() && tenants[tenant].outstanding > 0)
      --tenants[tenant].outstanding;
  }
  void maybe_die() {
    if (!owner_alive && outstanding == 0) delete this;
  }
};
}  // namespace detail

/// Shared handle to an immutable in-flight packet (non-atomic refcount: the
/// simulator is single-threaded by construction). Pool-backed packets are
/// recycled on last release; one-off packets (tests) are deleted.
class PacketRef {
 public:
  PacketRef() = default;
  /// Adopts a reference to `p` (bumps the refcount).
  explicit PacketRef(const Packet* p) : p_(p) {
    if (p_ != nullptr) ++p_->refs_;
  }
  // Copies are noexcept: lambdas holding a *const* PacketRef member (by-copy
  // capture of a `const PacketPtr&` parameter) fall back to the copy ctor
  // when "moved", and InlineFn keeps such callables inline only if that
  // operation cannot throw.
  PacketRef(const PacketRef& o) noexcept : p_(o.p_) {
    if (p_ != nullptr) ++p_->refs_;
  }
  PacketRef(PacketRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PacketRef& operator=(const PacketRef& o) noexcept {
    if (p_ != o.p_) {
      release();
      p_ = o.p_;
      if (p_ != nullptr) ++p_->refs_;
    }
    return *this;
  }
  PacketRef& operator=(PacketRef&& o) noexcept {
    if (this != &o) {
      release();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~PacketRef() { release(); }

  void reset() {
    release();
    p_ = nullptr;
  }

  const Packet* get() const { return p_; }
  const Packet& operator*() const { return *p_; }
  const Packet* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  /// References held to the packet (0 for an empty handle).
  std::uint32_t use_count() const { return p_ != nullptr ? p_->refs_ : 0; }
  friend bool operator==(const PacketRef& a, const PacketRef& b) {
    return a.p_ == b.p_;
  }
  friend bool operator!=(const PacketRef& a, const PacketRef& b) {
    return a.p_ != b.p_;
  }

  /// Mutable access for the packet *builder* (QP filling in headers, RC
  /// stamping the PSN at pump time). Only legal while the sender still owns
  /// the sole reference — once replicated by the fabric the bytes are
  /// frozen.
  Packet& mut() const {
    MCCL_CHECK(p_ != nullptr);
    return *const_cast<Packet*>(p_);
  }

  /// Test hook (validator coverage): releases this handle's reference
  /// without forgetting the pointer, so the destructor under-counts — the
  /// refcount-balance checker must trip on the extra release. Only
  /// meaningful on pooled packets (cells outlive the refcount error).
  void test_extra_release() { release(); }

 private:
  void release() {
    if (p_ == nullptr) return;
    // Refcount-balance invariant: a release with a zero count means a
    // handle was duplicated or released twice — the cell may already be
    // back in the pool (or worse, handed to a new sender).
    if (debug::kValidate && p_->refs_ == 0) {
      debug::report("packet.refcount_underflow",
                    "release of packet with zero refcount (cell %p)",
                    static_cast<const void*>(p_));
      return;
    }
    if (--p_->refs_ != 0) return;
    Packet* p = const_cast<Packet*>(p_);
    detail::PacketPoolCore* core = p->home_;
    if (core == nullptr) {
      delete p;
      return;
    }
    // Reset wire fields (drops the payload buffer ref); PacketCtl's neutral
    // assignment keeps refs_/home_ intact. The tenant stamp must be read
    // before the reset wipes it.
    const std::uint16_t tenant = p->tenant;
    *p = Packet{};
    core->free_list.push_back(p);
    --core->outstanding;
    core->tenant_release(tenant);
    core->maybe_die();
  }

  const Packet* p_ = nullptr;
};

using PacketPtr = PacketRef;

/// Recycling allocator for Packets, one per Fabric. Steady-state traffic
/// allocates nothing: a released packet's cell is reused by the next send.
class PacketPool {
 public:
  PacketPool() : core_(new detail::PacketPoolCore) {}
  ~PacketPool() {
    core_->owner_alive = false;
    core_->maybe_die();
  }
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Returns a fresh (default-initialized) packet charged to `tenant`'s
  /// accounted sub-pool; fill it through PacketRef::mut() before handing it
  /// to the NIC/fabric. The tenant stamp is owned by the pool: acquire sets
  /// it, release reads it back, builders never touch it. A tenant over its
  /// soft quota is still granted the cell (dropping deep inside a QP's
  /// reliability machinery would corrupt protocol invariants) but the
  /// exhaustion counter ticks — admission control treats that as fabric
  /// backpressure and stops admitting, which is how the cap actually binds.
  PacketRef acquire(std::uint16_t tenant = 0) {
    Packet* p;
    if (core_->free_list.empty()) {
      core_->slab.emplace_back();
      p = &core_->slab.back();
      p->home_ = core_;
    } else {
      p = core_->free_list.back();
      core_->free_list.pop_back();
    }
    ++core_->outstanding;
    ++core_->acquired_total;
    detail::TenantPoolAcct& acct = core_->tenant_row(tenant);
    ++acct.acquired;
    if (acct.quota != 0 && acct.outstanding >= acct.quota) ++acct.exhausted;
    if (++acct.outstanding > acct.peak) acct.peak = acct.outstanding;
    p->tenant = tenant;
    return PacketRef(p);
  }

  /// Soft cap on a tenant's outstanding cells (0 clears it). Soft: see
  /// acquire() — enforcement is by admission-control backpressure, not by
  /// failing sends mid-protocol.
  void set_tenant_quota(std::uint16_t tenant, std::uint64_t slots) {
    core_->tenant_row(tenant).quota = slots;
  }
  std::uint64_t tenant_quota(std::uint16_t tenant) const {
    return tenant_acct(tenant).quota;
  }
  /// Cells `tenant` holds right now / has ever held at once / has acquired
  /// in total / acquired while over quota.
  std::uint64_t tenant_outstanding(std::uint16_t tenant) const {
    return tenant_acct(tenant).outstanding;
  }
  std::uint64_t tenant_peak(std::uint16_t tenant) const {
    return tenant_acct(tenant).peak;
  }
  std::uint64_t tenant_acquired(std::uint16_t tenant) const {
    return tenant_acct(tenant).acquired;
  }
  std::uint64_t tenant_exhausted(std::uint16_t tenant) const {
    return tenant_acct(tenant).exhausted;
  }
  /// Over-quota acquires summed over every tenant (admission signal).
  std::uint64_t total_exhausted() const {
    std::uint64_t total = 0;
    for (const auto& t : core_->tenants) total += t.exhausted;
    return total;
  }
  /// Accounting rows allocated so far (= highest tenant id seen + 1).
  std::size_t num_tenants() const { return core_->tenants.size(); }

  /// Cells ever created; plateaus at the in-flight high-water mark.
  std::size_t capacity() const { return core_->slab.size(); }
  /// Cells currently free for reuse.
  std::size_t idle() const { return core_->free_list.size(); }
  /// Total acquire() calls (diagnostic).
  std::uint64_t acquired_total() const { return core_->acquired_total; }
  /// Packets handed out and not yet returned (live PacketRefs).
  std::uint64_t outstanding() const { return core_->outstanding; }

  /// End-of-run leak audit: once the event engine has drained, every pooled
  /// packet must have come home (references held by queued events are gone,
  /// and NIC/QP queues release on destruction). Returns true when clean;
  /// reports "packet.pool_leak" in validate builds. Callers gate on the
  /// engine being empty — packets owned by still-queued events are not
  /// leaks.
  bool leak_audit(const char* ctx) const {
    if (core_->outstanding == 0) return true;
    MCCL_VALIDATE_THAT(false, "packet.pool_leak",
                       "%llu pooled packet(s) unreturned at %s "
                       "(capacity %zu, acquired %llu)",
                       static_cast<unsigned long long>(core_->outstanding),
                       ctx, core_->slab.size(),
                       static_cast<unsigned long long>(core_->acquired_total));
    return false;
  }

 private:
  static const detail::TenantPoolAcct& null_acct() {
    static const detail::TenantPoolAcct kNull{};
    return kNull;
  }
  const detail::TenantPoolAcct& tenant_acct(std::uint16_t tenant) const {
    return tenant < core_->tenants.size() ? core_->tenants[tenant]
                                          : null_acct();
  }

  detail::PacketPoolCore* core_;
};

/// One-off heap packet for tests and tools that have no Fabric (and thus no
/// pool) at hand.
inline PacketRef make_unpooled_packet() { return PacketRef(new Packet); }

}  // namespace mccl::fabric
