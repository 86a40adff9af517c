#include <gtest/gtest.h>

#include "scenario/scenario.hpp"

namespace rcast::scenario {
namespace {

ScenarioConfig small_cfg(Scheme s, std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.num_nodes = 20;
  cfg.num_flows = 5;
  cfg.world = {800.0, 300.0};
  cfg.rate_pps = 1.0;
  cfg.duration = 30 * sim::kSecond;
  cfg.pause = 30 * sim::kSecond;  // static
  cfg.scheme = s;
  cfg.seed = seed;
  return cfg;
}

TEST(Scenario, SchemeToOverhearingMap) {
  EXPECT_EQ(overhearing_map(Scheme::kRcast).data,
            mac::OverhearingMode::kRandomized);
  EXPECT_EQ(overhearing_map(Scheme::kRcast).rerr,
            mac::OverhearingMode::kUnconditional);
  EXPECT_EQ(overhearing_map(Scheme::kPsmAll).data,
            mac::OverhearingMode::kUnconditional);
  EXPECT_EQ(overhearing_map(Scheme::kPsmNone).data,
            mac::OverhearingMode::kNone);
  EXPECT_EQ(overhearing_map(Scheme::kOdpm).data, mac::OverhearingMode::kNone);
  EXPECT_EQ(overhearing_map(Scheme::kRcastBcast).rreq_bcast,
            mac::OverhearingMode::kRandomized);
}

TEST(Scenario, SchemeUsesPsm) {
  EXPECT_FALSE(uses_psm(Scheme::k80211));
  EXPECT_TRUE(uses_psm(Scheme::kPsmNone));
  EXPECT_TRUE(uses_psm(Scheme::kOdpm));
  EXPECT_TRUE(uses_psm(Scheme::kRcast));
}

TEST(Scenario, SchemeNames) {
  EXPECT_EQ(to_string(Scheme::k80211), "80211");
  EXPECT_EQ(to_string(Scheme::kOdpm), "ODPM");
  EXPECT_EQ(to_string(Scheme::kRcast), "RCAST");
}

TEST(Scenario, RunProducesPopulatedResult) {
  const RunResult r = run_scenario(small_cfg(Scheme::kRcast));
  EXPECT_EQ(r.scheme, Scheme::kRcast);
  EXPECT_DOUBLE_EQ(r.duration_s, 30.0);
  EXPECT_EQ(r.per_node_energy_j.size(), 20u);
  EXPECT_EQ(r.role_numbers.size(), 20u);
  EXPECT_GT(r.total_energy_j, 0.0);
  EXPECT_GT(r.originated, 0u);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_GT(r.events_executed, 0u);
  EXPECT_GT(r.pdr_percent, 0.0);
  EXPECT_LE(r.pdr_percent, 100.0);
}

TEST(Scenario, DeterministicForSameSeed) {
  const RunResult a = run_scenario(small_cfg(Scheme::kRcast, 7));
  const RunResult b = run_scenario(small_cfg(Scheme::kRcast, 7));
  EXPECT_DOUBLE_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.originated, b.originated);
  EXPECT_EQ(a.control_tx, b.control_tx);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.per_node_energy_j, b.per_node_energy_j);
  EXPECT_EQ(a.role_numbers, b.role_numbers);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const RunResult a = run_scenario(small_cfg(Scheme::kRcast, 1));
  const RunResult b = run_scenario(small_cfg(Scheme::kRcast, 2));
  EXPECT_NE(a.total_energy_j, b.total_energy_j);
}

TEST(Scenario, EightyTwoElevenEnergyIsExactlyAwakePower) {
  const RunResult r = run_scenario(small_cfg(Scheme::k80211));
  // Every node awake the whole run: 1.15 W x 30 s x 20 nodes.
  EXPECT_NEAR(r.total_energy_j, 1.15 * 30.0 * 20.0, 1e-6);
  EXPECT_NEAR(r.energy_variance, 0.0, 1e-9);
}

TEST(Scenario, PsmSchemesUseLessEnergyThan80211) {
  const double e_awake = run_scenario(small_cfg(Scheme::k80211)).total_energy_j;
  for (Scheme s : {Scheme::kPsmNone, Scheme::kOdpm, Scheme::kRcast}) {
    const double e = run_scenario(small_cfg(s)).total_energy_j;
    EXPECT_LT(e, e_awake) << to_string(s);
  }
}

TEST(Scenario, RejectsDegenerateNetworks) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.num_nodes = 1;
  EXPECT_THROW(Network net(cfg), ContractViolation);
}

TEST(Scenario, NodeAccessors) {
  Network net(small_cfg(Scheme::kRcast));
  EXPECT_EQ(net.node_count(), 20u);
  EXPECT_EQ(net.node(3).id(), 3u);
  EXPECT_EQ(net.node(3).mac().id(), 3u);
  EXPECT_EQ(net.node(3).dsr().id(), 3u);
}

// Keeps the last frame one radio decoded that carried a DSR packet, and that
// packet, while passing every radio event on to the node's MAC.
class KeepLastDsrFrame final : public phy::PhyListener {
 public:
  explicit KeepLastDsrFrame(mac::Mac& mac) : mac_(mac) {}

  void phy_rx_ok(const phy::FramePtr& frame) override {
    const auto& mf = static_cast<const mac::MacFrame&>(*frame->payload);
    if (auto pkt =
            std::dynamic_pointer_cast<const routing::DsrPacket>(mf.datagram)) {
      this->frame = frame;
      packet = std::move(pkt);
    }
    mac_.phy_rx_ok(frame);
  }
  void phy_tx_done() override { mac_.phy_tx_done(); }
  void phy_carrier_busy() override { mac_.phy_carrier_busy(); }
  void phy_carrier_idle() override { mac_.phy_carrier_idle(); }

  phy::FramePtr frame;
  routing::DsrPacketPtr packet;

 private:
  mac::Mac& mac_;
};

// Frames and packets are plain shared_ptr blocks, so the last reference to
// one may outlive the Network, and the Simulator, that made it. A block
// owned by per-run storage would be read and released after that storage
// died here (a heap-use-after-free under ASan).
TEST(Scenario, FramesAndPacketsOutliveTheirNetwork) {
  phy::FramePtr frame;
  routing::DsrPacketPtr packet;
  phy::NodeId frame_tx = 0;
  std::int64_t frame_bits = 0;
  routing::NodeId packet_src = 0;
  routing::NodeId packet_dst = 0;
  {
    Network net(small_cfg(Scheme::kRcast));
    KeepLastDsrFrame tap(net.node(0).mac());
    net.node(0).phy().set_listener(&tap);
    net.run();
    net.node(0).phy().set_listener(&net.node(0).mac());
    ASSERT_NE(tap.frame, nullptr);
    ASSERT_NE(tap.packet, nullptr);
    frame = std::move(tap.frame);
    packet = std::move(tap.packet);
    frame_tx = frame->tx;
    frame_bits = frame->bits;
    packet_src = packet->src;
    packet_dst = packet->dst;
  }
  EXPECT_EQ(frame->tx, frame_tx);
  EXPECT_EQ(frame->bits, frame_bits);
  EXPECT_EQ(packet->src, packet_src);
  EXPECT_EQ(packet->dst, packet_dst);
  // The frame's MAC payload shares the packet: drop the frame first, so
  // that each reset releases a last reference.
  EXPECT_EQ(frame.use_count(), 1);
  frame.reset();
  EXPECT_EQ(packet.use_count(), 1);
  packet.reset();
}

TEST(Scenario, OverrideOhMapHonored) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.override_oh_map = true;
  cfg.dsr.oh_map = core::OverhearingMap::psm_none();
  const RunResult r = run_scenario(cfg);
  // With the map forced to none, nobody commits to overhear.
  EXPECT_EQ(r.overhear_commits, 0u);
}

TEST(Scenario, RcastSchemeActuallyRandomizes) {
  const RunResult r = run_scenario(small_cfg(Scheme::kRcast));
  EXPECT_GT(r.overhear_commits + r.overhear_declines, 0u);
}

}  // namespace
}  // namespace rcast::scenario

namespace rcast::scenario {
namespace {

TEST(Scenario, DelayDecompositionPopulated) {
  const RunResult r = run_scenario(small_cfg(Scheme::kRcast));
  EXPECT_GT(r.delay_p50_s, 0.0);
  EXPECT_GE(r.delay_p90_s, r.delay_p50_s);
  EXPECT_GE(r.avg_route_wait_s, 0.0);
  EXPECT_GT(r.avg_transit_s, 0.0);
  // Decomposition roughly adds up to the mean.
  EXPECT_NEAR(r.avg_route_wait_s + r.avg_transit_s, r.avg_delay_s,
              0.25 * r.avg_delay_s + 0.05);
}

TEST(Scenario, DropAccountingSumsConsistently) {
  auto cfg = small_cfg(Scheme::kRcast);
  cfg.pause = 2 * sim::kSecond;  // mobility forces some drops
  const RunResult r = run_scenario(cfg);
  std::uint64_t drops = 0;
  for (auto d : r.drops) drops += d;
  // delivered + dropped <= originated (remainder is in-flight at the end).
  EXPECT_LE(r.delivered + drops, r.originated);
}

TEST(Scenario, AodvProtocolSelectable) {
  auto cfg = small_cfg(Scheme::k80211);
  cfg.routing = RoutingProtocol::kAodv;
  const RunResult r = run_scenario(cfg);
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(to_string(cfg.routing), "AODV");
  EXPECT_EQ(to_string(RoutingProtocol::kDsr), "DSR");
}

}  // namespace
}  // namespace rcast::scenario
