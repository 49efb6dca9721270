// lint-path: src/fabric/corpus_case.cpp
#include <deque>

void build_tree(NodeId root) {
  // mccl-lint: allow(no-datapath-deque) one BFS per tree build, not per packet
  std::deque<NodeId> frontier;
  frontier.push_back(root);
}
