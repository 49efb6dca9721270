// Grow-on-full power-of-two ring buffer (FIFO with indexed access).
//
// Every FIFO a packet or completion crosses between the wire and the
// collective is one of these:
//  - the fabric's per-direction virtual-lane queues (Fabric::LaneState),
//  - the NIC's per-QP egress queues (Nic::tx_queues_),
//  - the stored part of the RDMA receive queue (Qp), the RC transmit
//    queue and inflight window (RcQp),
//  - the completion queue (Cq) and a worker's posted tasks and dispatch
//    order (exec::Worker).
// std::deque pays block-map indirection and (on libstdc++) a heap
// allocation per 512 bytes of elements; this ring is a single contiguous
// power-of-two buffer with mask indexing, so push/pop are a handful of
// instructions and iteration is cache-linear. The first push allocates
// kFirstCells cells and capacity doubles on overflow (amortized O(1)); a
// large world opens thousands of mostly idle queues, so the first
// allocation stays small. Elements are moved, never copied, so refcounted
// payloads (PacketRef) don't churn their counts on growth.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace mccl {

template <typename T>
class Ring {
 public:
  static constexpr std::size_t kFirstCells = 8;

  bool empty() const { return head_ == tail_; }
  std::size_t size() const { return tail_ - head_; }
  /// Allocated cells (0 until the first push).
  std::size_t capacity() const { return buf_.size(); }

  void push(T v) {
    if (tail_ - head_ == buf_.size()) grow();
    buf_[tail_++ & (buf_.size() - 1)] = std::move(v);
  }

  /// Removes and returns the front element. The vacated cell holds a
  /// moved-from value until overwritten, so owned resources are released as
  /// soon as the returned temporary dies.
  T pop() { return std::move(buf_[head_++ & (buf_.size() - 1)]); }

  /// Drops every element, releasing what each one owns at once; the
  /// allocation is kept.
  void clear() {
    while (!empty()) pop();
    head_ = tail_ = 0;
  }

  T& front() { return buf_[head_ & (buf_.size() - 1)]; }
  const T& front() const { return buf_[head_ & (buf_.size() - 1)]; }
  const T& back() const { return buf_[(tail_ - 1) & (buf_.size() - 1)]; }

  /// i-th element from the front (0 == front()).
  T& operator[](std::size_t i) {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

 private:
  void grow() {
    const std::size_t n = buf_.empty() ? kFirstCells : buf_.size() * 2;
    std::vector<T> next(n);
    const std::size_t count = tail_ - head_;
    for (std::size_t i = 0; i < count; ++i)
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(next);
    head_ = 0;
    tail_ = count;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

}  // namespace mccl
