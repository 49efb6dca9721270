// In-network-compute engine unit tests: reduction trees, weights, float
// summation, per-switch aggregation, back-to-back degeneration.
#include <gtest/gtest.h>

#include <map>

#include "src/inc/engine.hpp"
#include "src/sim/engine.hpp"

namespace mccl::inc {
namespace {

fabric::Payload float_payload(std::initializer_list<float> vals) {
  auto bytes = std::make_shared<std::vector<std::uint8_t>>(
      vals.size() * sizeof(float));
  std::copy(vals.begin(), vals.end(),
            reinterpret_cast<float*>(bytes->data()));
  return fabric::Payload(bytes, 0, bytes->size());
}

struct IncWorld {
  sim::Engine engine;
  fabric::Fabric fab;
  Engine inc;
  std::map<std::pair<fabric::NodeId, std::uint32_t>, std::vector<float>>
      results;
  std::map<std::pair<fabric::NodeId, std::uint32_t>, std::uint32_t> lens;

  explicit IncWorld(fabric::Topology topo)
      : fab(engine, std::move(topo), {}), inc(fab) {
    for (const fabric::NodeId h : fab.topology().hosts()) {
      fab.set_delivery(h, [this, h](const fabric::PacketPtr& p) {
        inc.on_host_packet(h, p);
      });
    }
  }

  std::vector<float> result(fabric::NodeId h, std::uint32_t c) {
    return results[{h, c}];
  }
  bool has_result(fabric::NodeId h, std::uint32_t c) {
    return results.contains({h, c});
  }
  std::uint32_t len(fabric::NodeId h, std::uint32_t c) { return lens[{h, c}]; }

  SessionId session(std::vector<fabric::NodeId> hosts) {
    const SessionId id = inc.create_session(std::move(hosts));
    for (const fabric::NodeId h : fab.topology().hosts()) {
      inc.set_result_sink(
          id, h,
          [this, h](std::uint32_t chunk, std::uint32_t len,
                    const fabric::Payload& payload) {
            lens[{h, chunk}] = len;
            auto& out = results[{h, chunk}];
            out.assign(reinterpret_cast<const float*>(payload.data()),
                       reinterpret_cast<const float*>(payload.data()) +
                           payload.size() / sizeof(float));
          });
    }
    return id;
  }
};

TEST(IncEngine, BackToBackSingleContribution) {
  IncWorld w(fabric::make_back_to_back({}));
  const SessionId s = w.session({0, 1});
  w.inc.contribute(s, 0, 1, /*chunk=*/5, 8, float_payload({1.5f, 2.5f}));
  w.engine.run();
  ASSERT_TRUE(w.has_result(1, 5));
  EXPECT_EQ(w.result(1, 5), (std::vector<float>{1.5f, 2.5f}));
  EXPECT_EQ(w.len(1, 5), 8u);
}

TEST(IncEngine, StarAggregatesAtSwitch) {
  IncWorld w(fabric::make_star(4, {}));
  const SessionId s = w.session({0, 1, 2, 3});
  // Hosts 1, 2, 3 contribute to host 0's block.
  w.inc.contribute(s, 1, 0, 0, 8, float_payload({1.0f, 10.0f}));
  w.inc.contribute(s, 2, 0, 0, 8, float_payload({2.0f, 20.0f}));
  w.inc.contribute(s, 3, 0, 0, 8, float_payload({3.0f, 30.0f}));
  w.engine.run();
  ASSERT_TRUE(w.has_result(0, 0));
  EXPECT_EQ(w.result(0, 0), (std::vector<float>{6.0f, 60.0f}));
  // The switch merged three leaf contributions into one packet.
  EXPECT_EQ(w.inc.merged_packets(), 1u);
}

TEST(IncEngine, FatTreeHierarchicalAggregation) {
  IncWorld w(fabric::make_fat_tree(2, 4, 2, 1, {}, {}));
  std::vector<fabric::NodeId> hosts{0, 1, 2, 3, 4, 5, 6, 7};
  const SessionId s = w.session(hosts);
  const fabric::NodeId owner = 0;
  float expect = 0;
  for (const fabric::NodeId h : hosts) {
    if (h == owner) continue;
    w.inc.contribute(s, h, owner, 0, 4,
                     float_payload({static_cast<float>(h)}));
    expect += static_cast<float>(h);
  }
  w.engine.run();
  ASSERT_TRUE(w.has_result(owner, 0));
  EXPECT_EQ(w.result(owner, 0), (std::vector<float>{expect}));
  // Aggregation happened at more than one level (remote leaf + own leaf).
  EXPECT_GE(w.inc.merged_packets(), 2u);
}

TEST(IncEngine, ChunksAreIndependent) {
  IncWorld w(fabric::make_star(3, {}));
  const SessionId s = w.session({0, 1, 2});
  w.inc.contribute(s, 1, 0, 7, 4, float_payload({1.0f}));
  w.inc.contribute(s, 2, 0, 9, 4, float_payload({5.0f}));
  w.inc.contribute(s, 2, 0, 7, 4, float_payload({2.0f}));
  w.inc.contribute(s, 1, 0, 9, 4, float_payload({6.0f}));
  w.engine.run();
  EXPECT_EQ(w.result(0, 7), (std::vector<float>{3.0f}));
  EXPECT_EQ(w.result(0, 9), (std::vector<float>{11.0f}));
}

TEST(IncEngine, EveryMemberCanBeOwner) {
  IncWorld w(fabric::make_star(3, {}));
  const SessionId s = w.session({0, 1, 2});
  for (fabric::NodeId owner = 0; owner < 3; ++owner) {
    for (fabric::NodeId src = 0; src < 3; ++src) {
      if (src == owner) continue;
      w.inc.contribute(s, src, owner, 0, 4,
                       float_payload({static_cast<float>(src + 1)}));
    }
  }
  w.engine.run();
  EXPECT_EQ(w.result(0, 0), (std::vector<float>{2.0f + 3.0f}));
  EXPECT_EQ(w.result(1, 0), (std::vector<float>{1.0f + 3.0f}));
  EXPECT_EQ(w.result(2, 0), (std::vector<float>{1.0f + 2.0f}));
}

TEST(IncEngine, SyntheticModeCarriesWeightOnly) {
  IncWorld w(fabric::make_star(3, {}));
  const SessionId s = w.session({0, 1, 2});
  int fired = 0;
  w.inc.set_result_sink(s, 0,
                        [&](std::uint32_t, std::uint32_t len,
                            const fabric::Payload& p) {
                          ++fired;
                          EXPECT_TRUE(p.empty());
                          EXPECT_EQ(len, 4096u);
                        });
  w.inc.contribute(s, 1, 0, 0, 4096, {});
  w.inc.contribute(s, 2, 0, 0, 4096, {});
  w.engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(IncEngine, SessionsAreIsolated) {
  IncWorld w(fabric::make_star(3, {}));
  const SessionId a = w.session({0, 1, 2});
  std::vector<float> b_result;
  const SessionId b = w.inc.create_session({0, 1, 2});
  w.inc.set_result_sink(b, 0,
                        [&](std::uint32_t, std::uint32_t,
                            const fabric::Payload& p) {
                          b_result.assign(
                              reinterpret_cast<const float*>(p.data()),
                              reinterpret_cast<const float*>(p.data()) + 1);
                        });
  w.inc.contribute(a, 1, 0, 0, 4, float_payload({1.0f}));
  w.inc.contribute(b, 1, 0, 0, 4, float_payload({100.0f}));
  w.inc.contribute(a, 2, 0, 0, 4, float_payload({2.0f}));
  w.inc.contribute(b, 2, 0, 0, 4, float_payload({200.0f}));
  w.engine.run();
  EXPECT_EQ(w.result(0, 0), (std::vector<float>{3.0f}));
  EXPECT_EQ(b_result, (std::vector<float>{300.0f}));
}

}  // namespace
}  // namespace mccl::inc
