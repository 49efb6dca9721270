// SmartNIC offloading: the receive datapath on DPA hardware threads.
//
// Reproduces the paper's DPA testbed interactively: two hosts back-to-back
// at 200 Gbit/s, an x86 client saturating the receiver, and the receive
// progress engine running on 1..16 DPA hardware threads of a single core.
// Prints the per-thread scaling for the UD (staging + copy) and UC (direct
// placement) datapaths, plus the single-CPU-core baseline — the Fig 5 /
// Fig 13 story in one run.
#include <cstdio>
#include <cstdlib>

#include "src/coll/communicator.hpp"
#include "src/coll/mcast_coll.hpp"

using namespace mccl;

namespace {

double run_once(coll::Transport transport, coll::EngineKind engine,
                std::size_t threads) {
  coll::ClusterConfig kcfg;
  kcfg.nic.carry_payload = false;
  kcfg.nic.memory_capacity = std::uint64_t{1} << 40;
  kcfg.nic.max_recv_queue = 1u << 20;
  coll::Cluster cluster(fabric::make_back_to_back({200.0, 500 * kNanosecond}),
                        kcfg);
  coll::CommConfig cfg;
  cfg.transport = transport;
  cfg.progress_engine = engine;
  cfg.send_engine = coll::EngineKind::kCpu;  // the x86 client
  cfg.subgroups = threads;
  cfg.recv_workers = threads;
  cfg.send_workers = 4;
  cfg.staging_slots = 4096;
  cfg.cutoff_alpha = 1 * kSecond;
  coll::Communicator comm(cluster, {0, 1}, cfg);

  coll::OpBase& op = comm.start_broadcast(0, 8 * MiB, coll::BcastAlgo::kMcast);
  cluster.run_until_done([&op] { return op.done(); });
  if (op.result().failed) {
    std::fprintf(stderr, "dpa_offload: broadcast failed\n");
    std::exit(1);
  }
  return gbps(8 * MiB, op.rank_phases(1).transfer);
}

}  // namespace

int main() {
  std::printf("Receive datapath on one DPA core (200 Gbit/s link, 8 MiB "
              "buffer, 4 KiB chunks)\n\n");
  std::printf("%9s %14s %14s\n", "threads", "UD Gbit/s", "UC Gbit/s");
  for (const std::size_t t : {1u, 2u, 4u, 8u, 16u}) {
    const double ud = run_once(coll::Transport::kUd, coll::EngineKind::kDpa, t);
    const double uc =
        run_once(coll::Transport::kUcMcast, coll::EngineKind::kDpa, t);
    std::printf("%9zu %14.1f %14.1f\n", t, ud, uc);
  }
  const double cpu =
      run_once(coll::Transport::kUd, coll::EngineKind::kCpu, 1);
  std::printf("\nsingle CPU core baseline (UD): %.1f Gbit/s\n", cpu);
  std::printf("One multithreaded DPA core reaches the practical link rate; "
              "a server core does not.\n");
  return 0;
}
