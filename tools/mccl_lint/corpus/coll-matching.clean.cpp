// lint-path: examples/corpus_case.cpp
// Every start has a reachable wait; no rank-dependent control flow.
int waited(coll::Communicator& comm, coll::Cluster& cluster) {
  coll::OpBase& op =
      comm.start_allgather(1024, coll::AllgatherAlgo::kMcast);
  cluster.run_until_done([&op] { return op.done(); });
  return op.result().failed ? 1 : 0;
}

void finished(coll::Communicator& comm) {
  coll::OpBase& op =
      comm.start_broadcast(0, 64, coll::BcastAlgo::kMcast);
  const coll::OpResult res = comm.finish(op);
  if (!res.data_verified) report(res);
}

// Escaped handles (collected for a later group wait) are not flagged.
void escaped(coll::Communicator& comm, std::vector<coll::OpBase*>& ops) {
  ops.push_back(&comm.start_allgather(64, coll::AllgatherAlgo::kRing));
}
