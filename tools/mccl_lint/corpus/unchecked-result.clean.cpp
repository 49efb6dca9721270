// lint-path: bench/corpus_case.cpp
void checked(coll::Communicator& comm) {
  const coll::OpResult res =
      comm.broadcast(0, 64, coll::BcastAlgo::kMcast);
  MCCL_CHECK(res.data_verified);
  record(res.duration());
}

// Escaping by return or argument counts: the caller owns the check.
coll::OpResult forwarded(coll::Communicator& comm) {
  const coll::OpResult res =
      comm.allgather(64, coll::AllgatherAlgo::kRing);
  return res;
}

void checked_op(coll::Communicator& comm, coll::Cluster& cluster) {
  coll::OpBase& op =
      comm.start_broadcast(0, 64, coll::BcastAlgo::kMcast);
  cluster.run_until_done([&op] { return op.done(); });
  MCCL_CHECK(op.result().status == coll::OpStatus::kOk);
}
