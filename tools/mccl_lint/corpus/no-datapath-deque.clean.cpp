// lint-path: src/rdma/corpus_case.cpp
// Datapath FIFOs are Rings: one contiguous power-of-two buffer.
#include "src/common/ring.hpp"

struct TxQueue {
  Ring<fabric::PacketPtr> items;  // not a std::deque<PacketPtr>
};
