// lint-path: bench/corpus_case.cpp
// The OpResult's status is never consulted: a kPartial or kFailed result
// would silently feed garbage timings into the benchmark.
void ignore_result(coll::Communicator& comm) {
  const coll::OpResult res =
      comm.broadcast(0, 64, coll::BcastAlgo::kMcast);
  record(res.duration());
}

// Discarded outright.
void drop_result(coll::Communicator& comm) {
  comm.barrier();
}

// Waited on, but the completion status is never checked.
void wait_no_check(coll::Communicator& comm, coll::Cluster& cluster) {
  coll::OpBase& op =
      comm.start_broadcast(0, 64, coll::BcastAlgo::kMcast);
  cluster.run_until_done([&op] { return op.done(); });
}

// Timed from the per-rank phases, but result() is never consulted: a
// failed op's phase timers describe no delivered data.
void phases_only(coll::Communicator& comm, coll::Cluster& cluster) {
  coll::OpBase& op =
      comm.start_broadcast(0, 64, coll::BcastAlgo::kMcast);
  cluster.run_until_done([&op] { return op.done(); });
  record(op.rank_phases(1).transfer);
}
