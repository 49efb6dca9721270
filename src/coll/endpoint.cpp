#include "src/coll/communicator.hpp"
#include "src/coll/mcast_coll.hpp"

namespace mccl::coll {

namespace {
constexpr std::size_t kCtrlRecvCredits = 512;
}

Endpoint::Endpoint(Communicator& comm, std::size_t rank, fabric::NodeId host)
    : comm_(comm),
      rank_(rank),
      host_(host),
      nic_(comm.cluster().nic(static_cast<std::size_t>(host))),
      cpu_costs_(exec::cpu_costs()) {
  if (comm.config().costs_override) {
    costs_ = *comm.config().costs_override;
  } else {
    costs_ = comm.config().progress_engine == EngineKind::kDpa
                 ? exec::dpa_costs()
                 : exec::cpu_costs();
  }
  const EngineKind send_kind =
      comm.config().send_engine.value_or(comm.config().progress_engine);
  if (comm.config().costs_override &&
      send_kind == comm.config().progress_engine) {
    send_costs_ = *comm.config().costs_override;
  } else {
    send_costs_ = send_kind == EngineKind::kDpa ? exec::dpa_costs()
                                                : exec::cpu_costs();
  }
}

void Endpoint::setup_workers() {
  Cluster& cl = comm_.cluster();
  const std::size_t h = static_cast<std::size_t>(host_);
  app_worker_ = &cl.cpu(h).create_worker();
  const EngineKind send_kind =
      comm_.config().send_engine.value_or(comm_.config().progress_engine);
  exec::Complex& send_complex =
      send_kind == EngineKind::kDpa ? cl.dpa(h) : cl.cpu(h);
  exec::Complex& recv_complex =
      comm_.config().progress_engine == EngineKind::kDpa ? cl.dpa(h)
                                                         : cl.cpu(h);
  // Receive workers first: the compact co-location study (Section VI-C)
  // measures *receive* threads filling cores from core 0.
  for (std::size_t i = 0; i < comm_.config().recv_workers; ++i)
    recv_workers_.push_back(&recv_complex.create_worker());
  for (std::size_t i = 0; i < comm_.config().send_workers; ++i)
    send_workers_.push_back(&send_complex.create_worker());

  // Trace rows: one process group per rank, one thread row per worker plus
  // a "protocol" row for the per-phase collective spans.
  telemetry::Tracer& tracer = cl.telemetry().tracer;
  const auto pid = static_cast<std::int64_t>(rank_);
  const std::string pname = "rank " + std::to_string(rank_);
  trace_track_ = tracer.track(pid, pname, 0, "protocol");
  app_worker_->set_trace(&tracer, tracer.track(pid, pname, 1, "app"));
  std::int64_t tid = 2;
  for (std::size_t i = 0; i < recv_workers_.size(); ++i)
    recv_workers_[i]->set_trace(
        &tracer,
        tracer.track(pid, pname, tid++, "recv " + std::to_string(i)));
  for (std::size_t i = 0; i < send_workers_.size(); ++i)
    send_workers_[i]->set_trace(
        &tracer,
        tracer.track(pid, pname, tid++, "send " + std::to_string(i)));

  ctrl_rcq_ = &nic_.create_cq();
  data_rcq_ = &nic_.create_cq();
  data_scq_ = &nic_.create_cq();
  app_worker_->subscribe(
      *ctrl_rcq_, [this](const rdma::Cqe& cqe) { on_msg_cqe(cqe, true); },
      cpu_costs_.control);
  app_worker_->subscribe(
      *data_rcq_, [this](const rdma::Cqe& cqe) { on_msg_cqe(cqe, false); },
      cpu_costs_.control);
  app_worker_->subscribe(
      *data_scq_, [this](const rdma::Cqe& cqe) { on_data_send_cqe(cqe); },
      cpu_costs_.control);
}

void Endpoint::setup_subgroups() {
  const CommConfig& cfg = comm_.config();
  subgroups_.resize(cfg.subgroups);
  for (std::size_t s = 0; s < cfg.subgroups; ++s) {
    Subgroup& g = subgroups_[s];
    g.rcq = &nic_.create_cq();
    g.scq = &nic_.create_cq();
    const fabric::McastGroupId group = comm_.subgroup_group(s);
    if (cfg.transport == Transport::kUd) {
      g.ud = &nic_.create_ud_qp(g.scq, g.rcq);
      comm_.tag_qp(*g.ud, /*ctrl=*/false);
      nic_.attach_ud_mcast(group, *g.ud);
      // Staging ring: `staging_slots` chunk-sized slots, pre-posted; a slot
      // returns to the RQ once its DMA copy to the user buffer drains.
      g.staging_base =
          nic_.memory().alloc(static_cast<std::uint64_t>(cfg.staging_slots) *
                              cfg.chunk_bytes);
      g.ud->post_recv_ring({.wr_id = g.staging_base,
                            .laddr = g.staging_base,
                            .len = cfg.chunk_bytes},
                           cfg.chunk_bytes, cfg.staging_slots);
      g.posted = cfg.staging_slots;
    } else {
      g.uc = &nic_.create_uc_qp(g.scq, g.rcq);
      comm_.tag_qp(*g.uc, /*ctrl=*/false);
      nic_.attach_uc_mcast(group, *g.uc);
      g.uc->set_mcast_destination(group);
      g.uc->post_blank_recvs(cfg.staging_slots);
      g.posted = cfg.staging_slots;
    }

    // Flow-direction parallelism: receive workers own subgroup receive CQs,
    // send workers own subgroup send CQs.
    const exec::Cost recv_cost = cfg.transport == Transport::kUd
                                     ? costs_.recv_chunk_ud
                                     : costs_.recv_chunk_uc;
    recv_worker(s).subscribe(
        *g.rcq,
        [this, s](const rdma::Cqe& cqe) { on_chunk_cqe(s, cqe); },
        recv_cost);
    send_worker(s).subscribe(
        *g.scq,
        [this, s](const rdma::Cqe& cqe) { on_chunk_cqe(s, cqe); },
        send_costs_.doorbell);
  }
}

double Endpoint::link_gbps() const {
  const auto& ports = comm_.cluster().fabric().topology().ports(host_);
  MCCL_CHECK(!ports.empty());
  return ports.front().params.gbps;
}

void Endpoint::ctrl_send(std::size_t peer, const CtrlMsg& msg) {
  const std::uint32_t imm = encode_ctrl(msg);
  app_worker_->post(cpu_costs_.control, [this, peer, imm] {
    rdma::SendFlags flags;
    flags.imm = imm;
    flags.has_imm = true;
    flags.signaled = false;
    comm_.ctrl_qp(rank_, peer).post_send(0, 0, flags);
  });
}

rdma::RcQp& Endpoint::data_qp(std::size_t peer) {
  return comm_.data_qp(rank_, peer);
}

void Endpoint::repost_staging(std::size_t subgroup, std::uint64_t slot_addr) {
  Subgroup& g = subgroups_[subgroup];
  MCCL_CHECK(g.ud != nullptr);
  g.ud->post_recv({.wr_id = slot_addr, .laddr = slot_addr,
                   .len = comm_.config().chunk_bytes});
  ++g.posted;
}

void Endpoint::top_up_uc_recvs(std::size_t subgroup) {
  Subgroup& g = subgroups_[subgroup];
  MCCL_CHECK(g.uc != nullptr);
  const std::size_t slots = comm_.config().staging_slots;
  if (g.posted >= slots) return;
  g.uc->post_blank_recvs(slots - g.posted);
  g.posted = slots;
}

std::uint64_t Endpoint::rnr_drops() const {
  std::uint64_t total = 0;
  for (const Subgroup& g : subgroups_)
    total += g.ud != nullptr ? g.ud->rnr_drops() : g.uc->rnr_drops();
  return total;
}

// mccl-lint: begin-hot coll-dispatch
void Endpoint::on_msg_cqe(const rdma::Cqe& cqe, bool ctrl) {
  if (ctrl) {
    // Recycle the consumed control-receive credit.
    rdma::Qp* qp = nic_.find_qp(cqe.qpn);
    MCCL_CHECK(qp != nullptr);
    qp->post_recv({});
  }
  MCCL_CHECK(cqe.has_imm);
  const CtrlMsg msg = decode_ctrl(cqe.imm);
  const std::size_t src = comm_.rank_of_host(cqe.src);
  // Op id 0 is reserved for the detector's heartbeats and death notices
  // (Cluster::next_op_id starts at 1); without a detector it is unknown.
  if (msg.op == 0 && comm_.detector() != nullptr) {
    comm_.on_detector_msg(rank_, msg, src);
    return;
  }
  OpBase* op = comm_.find_op(msg.op);
  MCCL_CHECK_MSG(op != nullptr, "control message for unknown collective");
  op->on_ctrl(rank_, msg, src, cqe);
}

void Endpoint::on_data_send_cqe(const rdma::Cqe& cqe) {
  OpBase* op = comm_.find_op(static_cast<std::uint16_t>(cqe.wr_id >> 32));
  if (op != nullptr) op->on_send_done(rank_, cqe);
}

void Endpoint::on_chunk_cqe(std::size_t subgroup, const rdma::Cqe& cqe) {
  const bool recv = cqe.opcode != rdma::CqeOpcode::kSend;
  std::uint32_t imm;
  if (!recv) {
    imm = static_cast<std::uint32_t>(cqe.wr_id);
  } else {
    MCCL_CHECK(cqe.has_imm);
    imm = cqe.imm;
    Subgroup& g = subgroups_[subgroup];
    MCCL_CHECK(g.posted > 0);
    --g.posted;
    if (g.uc != nullptr) top_up_uc_recvs(subgroup);
  }
  // A null op is a late completion: no op holds this tag.
  McastCollective* op = comm_.op_by_tag_[imm_op_tag(imm)];
  const bool copying =
      op != nullptr && op->on_chunk(rank_, imm_chunk(imm), subgroup, cqe);
  // A UD receive returns its staging slot exactly once: the op's staging
  // copy reposts it when it drains, and every other outcome (late CQE,
  // duplicate chunk, failed op) reposts it here at once.
  if (recv && !copying && subgroups_[subgroup].ud != nullptr)
    repost_staging(subgroup, cqe.wr_id);
}
// mccl-lint: end-hot

// ---------------------------------------------------------------------------
// Communicator wiring for the RC QP meshes
// ---------------------------------------------------------------------------

rdma::RcQp& Communicator::ctrl_qp(std::size_t from, std::size_t to) {
  Endpoint& a = ep(from);
  if (a.ctrl_qps_.empty()) a.ctrl_qps_.assign(eps_.size(), nullptr);
  if (rdma::RcQp* qp = a.ctrl_qps_[to]) return *qp;
  Endpoint& b = ep(to);
  if (b.ctrl_qps_.empty()) b.ctrl_qps_.assign(eps_.size(), nullptr);
  rdma::RcQp& qa = a.nic().create_rc_qp(nullptr, a.ctrl_rcq_);
  rdma::RcQp& qb = b.nic().create_rc_qp(nullptr, b.ctrl_rcq_);
  tag_qp(qa, /*ctrl=*/true);
  tag_qp(qb, /*ctrl=*/true);
  qa.connect(b.host(), qb.qpn());
  qb.connect(a.host(), qa.qpn());
  qa.post_blank_recvs(kCtrlRecvCredits);
  qb.post_blank_recvs(kCtrlRecvCredits);
  a.ctrl_qps_[to] = &qa;
  b.ctrl_qps_[from] = &qb;
  return qa;
}

std::pair<rdma::RcQp*, rdma::RcQp*> Communicator::create_qp_pair(
    std::size_t a_rank, std::size_t b_rank) {
  Endpoint& a = ep(a_rank);
  Endpoint& b = ep(b_rank);
  rdma::RcQp& qa = a.nic().create_rc_qp(a.data_scq_, a.data_rcq_);
  rdma::RcQp& qb = b.nic().create_rc_qp(b.data_scq_, b.data_rcq_);
  tag_qp(qa, /*ctrl=*/false);
  tag_qp(qb, /*ctrl=*/false);
  qa.connect(b.host(), qb.qpn());
  qb.connect(a.host(), qa.qpn());
  return {&qa, &qb};
}

rdma::RcQp& Communicator::data_qp(std::size_t from, std::size_t to) {
  Endpoint& a = ep(from);
  if (a.data_qps_.empty()) a.data_qps_.assign(eps_.size(), nullptr);
  if (rdma::RcQp* qp = a.data_qps_[to]) return *qp;
  Endpoint& b = ep(to);
  if (b.data_qps_.empty()) b.data_qps_.assign(eps_.size(), nullptr);
  const auto [qa, qb] = create_qp_pair(from, to);
  a.data_qps_[to] = qa;
  b.data_qps_[from] = qb;
  return *qa;
}

}  // namespace mccl::coll
