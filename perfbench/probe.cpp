#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace perfbench {

using namespace mccl;

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.events -= o.events;
  d.packets -= o.packets;
  d.drops -= o.drops;
  d.wire_bytes -= o.wire_bytes;
  d.switch_port_bytes -= o.switch_port_bytes;
  d.rc_retransmissions -= o.rc_retransmissions;
  d.rnr_drops -= o.rnr_drops;
  d.dma_bytes -= o.dma_bytes;
  d.cqes -= o.cqes;
  d.tasks -= o.tasks;
  d.busy -= o.busy;
  d.recv_cqes -= o.recv_cqes;
  d.recv_cycles -= o.recv_cycles;
  d.recv_instr -= o.recv_instr;
  d.heartbeats -= o.heartbeats;
  d.suspicions -= o.suspicions;
  d.merged_packets -= o.merged_packets;
  // event_slots, pool_packets and heap_bytes are levels, not totals: the
  // difference keeps the later reading.
  return d;
}

void Counters::add(const Counters& d) {
  events += d.events;
  packets += d.packets;
  drops += d.drops;
  wire_bytes += d.wire_bytes;
  switch_port_bytes += d.switch_port_bytes;
  rc_retransmissions += d.rc_retransmissions;
  rnr_drops += d.rnr_drops;
  dma_bytes += d.dma_bytes;
  cqes += d.cqes;
  tasks += d.tasks;
  busy += d.busy;
  recv_cqes += d.recv_cqes;
  recv_cycles += d.recv_cycles;
  recv_instr += d.recv_instr;
  heartbeats += d.heartbeats;
  suspicions += d.suspicions;
  merged_packets += d.merged_packets;
  event_slots = std::max(event_slots, d.event_slots);
  pool_packets = std::max(pool_packets, d.pool_packets);
  heap_bytes = std::max(heap_bytes, d.heap_bytes);
}

namespace {

void add_worker(Counters& c, exec::Worker& w) {
  c.cqes += w.cqes_seen();
  c.tasks += w.tasks_done();
  c.busy += w.busy_time();
}

}  // namespace

Counters read_counters(coll::Cluster& cluster,
                       const std::vector<coll::Communicator*>& comms) {
  Counters c;
  c.events = cluster.engine().dispatched();
  c.event_slots = cluster.engine().event_pool_capacity();

  fabric::Fabric& fab = cluster.fabric();
  const fabric::Fabric::TrafficSnapshot t = fab.traffic();
  c.packets = t.packets;
  c.drops = t.drops + t.black_holed;
  c.wire_bytes = t.total_bytes;
  c.switch_port_bytes = t.switch_port_bytes;
  c.pool_packets = fab.pool().capacity();

  for (std::size_t h = 0; h < cluster.num_hosts(); ++h) {
    rdma::Nic& nic = cluster.nic(h);
    c.rc_retransmissions += nic.rc_retransmissions();
    c.rnr_drops += nic.ud_rnr_drops() + nic.uc_rnr_drops();
    c.dma_bytes += nic.dma_bytes();
    c.heap_bytes += nic.memory().brk();
    for (exec::Complex* cx : {&cluster.cpu(h), &cluster.dpa(h)})
      for (std::size_t i = 0; i < cx->num_workers(); ++i)
        add_worker(c, cx->worker(i));
  }

  for (coll::Communicator* comm : comms) {
    for (std::size_t r = 0; r < comm->size(); ++r) {
      coll::Endpoint& ep = comm->ep(r);
      const double ghz = ep.costs().ghz;
      for (std::size_t i = 0; i < ep.num_recv_workers(); ++i) {
        exec::Worker& w = ep.recv_worker(i);
        c.recv_cqes += w.cqes_seen();
        c.recv_cycles += static_cast<double>(w.busy_time()) * ghz / 1000.0;
        c.recv_instr += w.total_instr();
      }
    }
    if (coll::FailureDetector* det = comm->detector()) {
      c.heartbeats += det->heartbeats_sent();
      c.suspicions += det->suspicions();
    }
  }
  c.merged_packets = cluster.inc().merged_packets();
  return c;
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t op,
                            coll::Cluster* cluster,
                            const std::vector<coll::Communicator*>& comms) {
  Span s;
  s.name = name;
  s.op = op;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back().index].id;
  Open o{spans_.size(), cluster, comms, {}};
  if (cluster != nullptr) o.at_begin = read_counters(*cluster, comms);
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - t0_)
                   .count();
  spans_.push_back(std::move(s));
  open_.push_back(std::move(o));
  return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
  const double now_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  MCCL_CHECK_MSG(!open_.empty() && spans_[open_.back().index].id == id,
                 "spans must close in LIFO order");
  const Open& o = open_.back();
  Span& s = spans_[o.index];
  s.end_us = now_us;
  if (o.cluster != nullptr)
    s.delta = read_counters(*o.cluster, o.comms) - o.at_begin;
  open_.pop_back();
}

double Tracer::seconds(const std::string& name) const {
  double us = 0;
  for (const Span& s : spans_)
    if (s.name == name) us += s.end_us - s.start_us;
  return us / 1e6;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&name](const Span& s) { return s.name == name; }));
}

std::uint64_t Tracer::events(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_)
    if (s.name == name) n += s.delta.events;
  return n;
}

std::uint64_t Tracer::packets(const std::string& name) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_)
    if (s.name == name) n += s.delta.packets;
  return n;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"id\":%llu,"
                 "\"parent\":%llu,\"events\":%llu,\"packets\":%llu,"
                 "\"heartbeats\":%llu,\"cqes\":%llu,\"wire_bytes\":%llu}}",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.delta.events),
                 static_cast<unsigned long long>(s.delta.packets),
                 static_cast<unsigned long long>(s.delta.heartbeats),
                 static_cast<unsigned long long>(s.delta.cqes),
                 static_cast<unsigned long long>(s.delta.wire_bytes));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(v.size() - 1, idx)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

}  // namespace perfbench
