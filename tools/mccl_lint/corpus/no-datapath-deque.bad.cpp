// lint-path: src/rdma/corpus_case.cpp
// A per-packet FIFO on a std::deque mallocs a block every 512 bytes.
#include <deque>

struct TxQueue {
  std::deque<fabric::PacketPtr> items;
};
