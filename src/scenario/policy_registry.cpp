#include "scenario/policy_registry.hpp"

#include <algorithm>

#include "core/rcast.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/rpgm.hpp"
#include "power/always_on.hpp"
#include "power/cluster.hpp"
#include "power/psm_policy.hpp"
#include "traffic/sensing.hpp"

namespace rcast::scenario {

namespace {

std::unique_ptr<mac::PowerPolicy> make_rcast(const PowerPolicyContext& ctx) {
  core::RcastConfig rc = ctx.cfg.rcast;
  if (ctx.cfg.rcast_oracle_neighbors && !rc.neighbor_count_fn) {
    rc.neighbor_count_fn = [&channel = ctx.channel, id = ctx.id] {
      return channel.neighbor_count(id);
    };
  }
  return std::make_unique<core::RcastPolicy>(rc, ctx.rng.fork(0x5C),
                                             ctx.meter);
}

/// Reference-point kinematics shared by rwp and rpgm: same clamping the
/// scenario always applied.
void reference_kinematics(const ScenarioConfig& cfg, geo::Rect& world,
                          double& min_speed, double& max_speed,
                          sim::Time& pause) {
  world = cfg.world;
  max_speed = std::max(cfg.max_speed_mps, 0.2);
  min_speed = std::min(0.1, max_speed / 2.0);
  pause = cfg.pause;
}

}  // namespace

PolicyRegistry<PowerPolicyEntry>& power_policies() {
  static PolicyRegistry<PowerPolicyEntry>* reg = [] {
    auto* r = new PolicyRegistry<PowerPolicyEntry>("power scheme");
    r->add({std::string(to_string(Scheme::k80211)), /*uses_psm=*/false,
            core::OverhearingMap::psm_none(),
            [](const PowerPolicyContext&) -> std::unique_ptr<mac::PowerPolicy> {
              return std::make_unique<power::AlwaysOnPolicy>();
            }});
    r->add({std::string(to_string(Scheme::kPsmNone)), true,
            core::OverhearingMap::psm_none(),
            [](const PowerPolicyContext&) -> std::unique_ptr<mac::PowerPolicy> {
              return std::make_unique<power::PsmPolicy>();
            }});
    r->add({std::string(to_string(Scheme::kPsmAll)), true,
            core::OverhearingMap::psm_all(),
            [](const PowerPolicyContext&) -> std::unique_ptr<mac::PowerPolicy> {
              return std::make_unique<power::PsmPolicy>();
            }});
    r->add({std::string(to_string(Scheme::kOdpm)), true,
            core::OverhearingMap::psm_none(),
            [](const PowerPolicyContext& ctx)
                -> std::unique_ptr<mac::PowerPolicy> {
              auto odpm = std::make_unique<power::OdpmPolicy>(ctx.cfg.odpm);
              odpm->set_telemetry(ctx.bus, ctx.id);
              return odpm;
            }});
    r->add({std::string(to_string(Scheme::kRcast)), true,
            core::OverhearingMap::rcast(), make_rcast});
    r->add({std::string(to_string(Scheme::kRcastBcast)), true,
            core::OverhearingMap::rcast_with_broadcast(), make_rcast});
    r->add({std::string(to_string(Scheme::kLeach)), true,
            core::OverhearingMap::psm_none(),
            [](const PowerPolicyContext& ctx)
                -> std::unique_ptr<mac::PowerPolicy> {
              auto p = std::make_unique<power::ClusterPowerPolicy>(
                  ctx.cfg.cluster, ctx.sim, ctx.id, ctx.rng.fork(0xC1),
                  ctx.meter);
              p->set_broadcast([&mac = ctx.mac](mac::NetDatagramPtr pkt) {
                mac.send(mac::kBroadcastId, std::move(pkt),
                         mac::OverhearingMode::kNone);
              });
              return p;
            }});
    return r;
  }();
  return *reg;
}

PolicyRegistry<RoutingEntry>& routing_protocols() {
  static PolicyRegistry<RoutingEntry>* reg = [] {
    auto* r = new PolicyRegistry<RoutingEntry>("routing protocol");
    r->add({std::string(to_string(RoutingProtocol::kDsr)),
            [](const RoutingContext& ctx)
                -> std::unique_ptr<routing::RoutingAgent> {
              routing::DsrConfig dsr_cfg = ctx.cfg.dsr;
              if (!ctx.cfg.override_oh_map) {
                dsr_cfg.oh_map =
                    power_policies().resolve(to_string(ctx.cfg.scheme)).oh_map;
              }
              return std::make_unique<routing::Dsr>(ctx.sim, ctx.mac, dsr_cfg,
                                                    ctx.rng.fork(0xD5),
                                                    ctx.policy);
            }});
    r->add({std::string(to_string(RoutingProtocol::kAodv)),
            [](const RoutingContext& ctx)
                -> std::unique_ptr<routing::RoutingAgent> {
              return std::make_unique<routing::Aodv>(ctx.sim, ctx.mac,
                                                     ctx.cfg.aodv,
                                                     ctx.rng.fork(0xA0),
                                                     ctx.policy);
            }});
    return r;
  }();
  return *reg;
}

PolicyRegistry<MobilityEntry>& mobility_models() {
  static PolicyRegistry<MobilityEntry>* reg = [] {
    auto* r = new PolicyRegistry<MobilityEntry>("mobility model");
    r->add({"rwp",
            [](MobilityContext&& ctx)
                -> std::unique_ptr<mobility::MobilityModel> {
              mobility::RandomWaypointConfig m;
              reference_kinematics(ctx.cfg, m.world, m.min_speed_mps,
                                   m.max_speed_mps, m.pause);
              return std::make_unique<mobility::RandomWaypointModel>(
                  m, std::move(ctx.rng));
            }});
    r->add({"rpgm",
            [](MobilityContext&& ctx)
                -> std::unique_ptr<mobility::MobilityModel> {
              mobility::RpgmConfig m;
              reference_kinematics(ctx.cfg, m.world, m.min_speed_mps,
                                   m.max_speed_mps, m.pause);
              m.span_m = ctx.cfg.rpgm_span_m;
              m.span_rate_mps = ctx.cfg.rpgm_span_rate_mps;
              // All members of one group share a reference stream derived
              // statelessly from (seed, group) — no draw order to disturb.
              const std::size_t gsize =
                  std::max<std::size_t>(1, ctx.cfg.rpgm_group_size);
              const std::uint64_t group = ctx.id / gsize;
              Rng ref_rng(mix64(ctx.cfg.seed ^ 0x5259474DULL /* "RPGM" */) ^
                          mix64(group));
              return std::make_unique<mobility::RpgmModel>(
                  m, ref_rng, std::move(ctx.rng));
            }});
    return r;
  }();
  return *reg;
}

PolicyRegistry<TrafficEntry>& traffic_patterns() {
  static PolicyRegistry<TrafficEntry>* reg = [] {
    auto* r = new PolicyRegistry<TrafficEntry>("traffic pattern");
    r->add({"cbr",
            [](const TrafficContext& ctx)
                -> std::vector<std::unique_ptr<traffic::TrafficSource>> {
              std::vector<std::unique_ptr<traffic::TrafficSource>> out;
              auto flows = traffic::make_flow_matrix(
                  ctx.cfg.num_nodes, ctx.cfg.num_flows, ctx.cfg.rate_pps,
                  ctx.cfg.payload_bits, ctx.rng);
              out.reserve(flows.size());
              for (const auto& f : flows) {
                ctx.bind_shard(f.src);
                out.push_back(std::make_unique<traffic::CbrSource>(
                    ctx.sim, ctx.agent(f.src), f, ctx.rng.fork(f.flow_id)));
              }
              return out;
            }});
    r->add({"sensing",
            [](const TrafficContext& ctx)
                -> std::vector<std::unique_ptr<traffic::TrafficSource>> {
              std::vector<std::unique_ptr<traffic::TrafficSource>> out;
              auto flows = traffic::make_sensing_flows(
                  ctx.cfg.num_nodes, ctx.cfg.num_flows, ctx.cfg.rate_pps,
                  ctx.cfg.payload_bits, ctx.rng);
              out.reserve(flows.size());
              for (const auto& f : flows) {
                ctx.bind_shard(f.src);
                out.push_back(std::make_unique<traffic::PeriodicBurstSource>(
                    ctx.sim, ctx.agent(f.src), f, ctx.cfg.sensing,
                    ctx.rng.fork(f.flow_id)));
              }
              return out;
            }});
    return r;
  }();
  return *reg;
}

}  // namespace rcast::scenario
