// Host memory arenas and registered memory regions.
//
// Every simulated host owns a byte arena; RDMA operations move real bytes
// between arenas so the collective tests can verify results byte-for-byte
// (including after drop recovery through the reliability layer). Memory
// registration mirrors verbs: a region gets a local key and a remote key;
// one-sided operations name (raddr, rkey) and are bounds-checked against the
// registration, exactly the failure mode a real HCA enforces.
//
// A backed allocation is its own block, zeroed lazily one 4 KiB page at a
// time: a page is zeroed when something first reads it or writes part of it,
// while a write or overwrite() that covers it whole skips the zeroing. Every
// byte never written still reads as zero; pages nobody touches cost nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/check.hpp"
#include "src/debug/validate.hpp"
#include "src/fabric/packet.hpp"

namespace mccl::rdma {

struct MemoryRegion {
  std::uint64_t addr = 0;
  std::uint64_t len = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

class HostMemory {
 public:
  /// `backed == false` creates an address-space-only arena: allocation and
  /// bounds checks work, but no bytes exist behind the addresses. Used by
  /// timing-only (synthetic payload) simulations so a 188-rank Allgather
  /// does not materialize gigabytes of buffers.
  explicit HostMemory(std::uint64_t capacity, bool backed = true)
      : capacity_(capacity), backed_(backed) {}

  std::uint64_t capacity() const { return capacity_; }
  bool backed() const { return backed_; }

  /// Bump allocation; simulation arenas are never freed piecemeal. In a
  /// backed arena every allocation gets its own block that reads as zero
  /// and is zeroed page by page on first touch, so alignment padding,
  /// align_brk() gaps, idle hosts and overwritten pages cost nothing.
  std::uint64_t alloc(std::uint64_t len, std::uint64_t align = 64) {
    std::uint64_t base = (brk_ + align - 1) / align * align;
    MCCL_CHECK_MSG(base + len <= capacity_, "host memory exhausted");
    brk_ = base + len;
    if (backed_ && len > 0) {
      const std::uint64_t pages = (len + kPage - 1) / kPage;
      blocks_.push_back({base, len,
                         std::make_unique_for_overwrite<std::uint8_t[]>(len),
                         std::vector<bool>(pages, false), pages});
    }
    return base;
  }

  /// Current bump pointer — the input to symmetric-team alignment.
  std::uint64_t brk() const { return brk_; }

  /// Advances the bump pointer to `watermark` (no-op if already past it).
  /// Multi-tenant symmetric allocation: when hosts serve several
  /// communicators, their arenas drift apart; aligning every member rank
  /// to the team's max watermark before a symmetric alloc sequence makes
  /// identical per-rank allocations yield identical offsets again. The
  /// skipped range is never backed (allocation only moves forward).
  void align_brk(std::uint64_t watermark) {
    MCCL_CHECK_MSG(watermark <= capacity_, "host memory exhausted");
    brk_ = std::max(brk_, watermark);
  }

  /// Mutable view of [addr, addr+len), which must lie inside one
  /// allocation. Blocks never move, so a view lives as long as the arena.
  /// Cached send snapshots overlapping the range are dropped, since the
  /// caller may scribble through the view.
  std::span<std::uint8_t> span(std::uint64_t addr, std::uint64_t len) {
    std::uint8_t* p = locate(addr, len, Access::kRead);
    invalidate(addr, len);
    return {p, len};
  }
  std::span<const std::uint8_t> span(std::uint64_t addr,
                                     std::uint64_t len) const {
    return {locate(addr, len, Access::kRead), len};
  }

  /// Mutable view for a producer that writes every byte of [addr, addr+len)
  /// before reading any: pages the range covers whole are not zeroed first.
  /// In MCCL_VALIDATE builds the whole range starts as kPoison instead, so a
  /// producer that leaves bytes unwritten fails verification every time.
  std::span<std::uint8_t> overwrite(std::uint64_t addr, std::uint64_t len) {
    std::uint8_t* p = locate(addr, len, Access::kWrite);
    invalidate(addr, len);
    if constexpr (debug::kValidate) {
      if (len > 0) std::memset(p, kPoison, len);
    }
    return {p, len};
  }

  void write(std::uint64_t addr, const std::uint8_t* src, std::uint64_t len) {
    std::uint8_t* dst = locate(addr, len, Access::kWrite);
    // In-flight packets holding slices keep the pre-write bytes (by design
    // — they were "serialized" when the send was pumped).
    invalidate(addr, len);
    if (len > 0) std::memmove(dst, src, len);
  }

  void read(std::uint64_t addr, std::uint8_t* dst, std::uint64_t len) const {
    const std::uint8_t* src = locate(addr, len, Access::kRead);
    if (len > 0) std::memcpy(dst, src, len);
  }

  /// What overwrite() hands out in MCCL_VALIDATE builds before the producer
  /// writes it.
  static constexpr std::uint8_t kPoison = 0xA5;

  /// Zero-copy send path: an immutable shared slice of this arena's bytes
  /// as of now. Slices are cut from a small LRU cache of window-sized
  /// snapshot copies, so a burst of segment sends from one buffer costs one
  /// memcpy total instead of one per packet. A window never extends past
  /// its allocation. The bump allocator never reuses addresses, and
  /// span()/write() invalidate overlapping windows, so a cache hit always
  /// serves current bytes.
  fabric::Payload snapshot_slice(std::uint64_t addr, std::uint64_t len) {
    ++snap_clock_;
    for (Snapshot& s : snaps_) {
      if (s.data != nullptr && addr >= s.base &&
          addr + len <= s.base + s.data->size()) {
        s.last_use = snap_clock_;
        return fabric::Payload(s.data, addr - s.base, len);
      }
    }
    const Block& b = block_of(addr, len);
    const std::uint64_t base =
        std::max(addr & ~(kSnapshotWindow - 1), b.base);
    const std::uint64_t end =
        std::min(std::max(addr + len, base + kSnapshotWindow), b.base + b.len);
    if (b.untouched != 0)
      materialize(b, base - b.base, end - base, Access::kRead);
    Snapshot* victim = &snaps_[0];
    for (Snapshot& s : snaps_) {
      if (s.data == nullptr) {
        victim = &s;
        break;
      }
      if (s.last_use < victim->last_use) victim = &s;
    }
    const std::uint8_t* from = b.bytes.get() + (base - b.base);
    victim->data =
        std::make_shared<std::vector<std::uint8_t>>(from, from + (end - base));
    victim->base = base;
    victim->last_use = snap_clock_;
    return fabric::Payload(victim->data, addr - base, len);
  }

 private:
  struct Block {
    std::uint64_t base;
    std::uint64_t len;
    std::unique_ptr<std::uint8_t[]> bytes;  // uninitialized until touched
    // Pages (kPage bytes from `base`) already zeroed or wholly written, and
    // how many are not; const readers materialize pages too.
    mutable std::vector<bool> touched;
    mutable std::uint64_t untouched;
  };
  /// Read-type accesses zero every untouched page they cover; writes zero
  /// only the untouched pages they cover in part.
  enum class Access { kRead, kWrite };
  struct Snapshot {
    std::shared_ptr<std::vector<std::uint8_t>> data;
    std::uint64_t base = 0;
    std::uint64_t last_use = 0;
  };
  static constexpr std::uint64_t kSnapshotWindow = std::uint64_t{1} << 18;
  static constexpr std::uint64_t kPage = 4096;

  /// The allocation holding [addr, addr+len): binary search over the
  /// allocation bases, which the bump allocator keeps sorted.
  const Block& block_of(std::uint64_t addr, std::uint64_t len) const {
    MCCL_CHECK_MSG(backed_, "access to an unbacked (timing-only) arena");
    auto it = std::upper_bound(
        blocks_.begin(), blocks_.end(), addr,
        [](std::uint64_t a, const Block& b) { return a < b.base; });
    MCCL_CHECK_MSG(it != blocks_.begin() &&
                       addr + len <= std::prev(it)->base + std::prev(it)->len,
                   "access outside any single allocation");
    return *std::prev(it);
  }

  /// Host pointer of `addr`, with the pages of the range materialized for
  /// `access`; a zero-length access needs no allocation.
  std::uint8_t* locate(std::uint64_t addr, std::uint64_t len,
                       Access access) const {
    if (len == 0) {
      MCCL_CHECK_MSG(backed_, "access to an unbacked (timing-only) arena");
      return nullptr;
    }
    const Block& b = block_of(addr, len);
    if (b.untouched != 0) materialize(b, addr - b.base, len, access);
    return b.bytes.get() + (addr - b.base);
  }

  /// Marks the untouched pages of block bytes [off, off+len) touched,
  /// zeroing those the access reads or leaves partly unwritten.
  static void materialize(const Block& b, std::uint64_t off, std::uint64_t len,
                          Access access) {
    const std::uint64_t end = off + len;
    for (std::uint64_t p = off / kPage; p * kPage < end; ++p) {
      if (b.touched[p]) continue;
      b.touched[p] = true;
      --b.untouched;
      const std::uint64_t lo = p * kPage;
      const std::uint64_t hi = std::min(lo + kPage, b.len);
      if (access == Access::kRead || off > lo || end < hi)
        std::memset(b.bytes.get() + lo, 0, hi - lo);
    }
  }

  void invalidate(std::uint64_t addr, std::uint64_t len) {
    for (Snapshot& s : snaps_) {
      if (s.data != nullptr && addr < s.base + s.data->size() &&
          addr + len > s.base)
        s.data = nullptr;
    }
  }

  std::uint64_t capacity_;
  bool backed_;
  std::vector<Block> blocks_;
  std::uint64_t brk_ = 0;
  std::array<Snapshot, 4> snaps_;
  std::uint64_t snap_clock_ = 0;
};

/// Per-NIC registration table (the MTT/MPT equivalent).
class MrTable {
 public:
  MemoryRegion register_region(std::uint64_t addr, std::uint64_t len) {
    const std::uint32_t key = next_key_++;
    return register_with_rkey(addr, len, key);
  }

  /// Registration with a caller-chosen rkey: used for multicast one-sided
  /// writes where all group members must agree on the key in the packet.
  MemoryRegion register_with_rkey(std::uint64_t addr, std::uint64_t len,
                                  std::uint32_t rkey) {
    MCCL_CHECK_MSG(!by_rkey_.contains(rkey), "duplicate rkey registration");
    MemoryRegion mr{addr, len, rkey, rkey};
    by_rkey_.emplace(rkey, mr);
    next_key_ = std::max(next_key_, rkey + 1);
    return mr;
  }

  /// Validates an remote access; aborts the simulation on a bounds violation
  /// (a real HCA would raise a fatal QP error — in a simulator we want the
  /// loudest possible failure).
  const MemoryRegion& check_remote(std::uint32_t rkey, std::uint64_t raddr,
                                   std::uint64_t len) const {
    auto it = by_rkey_.find(rkey);
    MCCL_CHECK_MSG(it != by_rkey_.end(), "unknown rkey");
    const MemoryRegion& mr = it->second;
    MCCL_CHECK_MSG(raddr >= mr.addr && raddr + len <= mr.addr + mr.len,
                   "remote access out of registered bounds");
    return mr;
  }

  bool has_rkey(std::uint32_t rkey) const { return by_rkey_.contains(rkey); }

 private:
  std::uint32_t next_key_ = 1;
  std::unordered_map<std::uint32_t, MemoryRegion> by_rkey_;
};

}  // namespace mccl::rdma
