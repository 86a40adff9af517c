// Policy-registry contract (DESIGN.md §16): unknown names fail with the
// full registered-name list, duplicate registration is a startup contract
// violation, every built-in round-trips name -> entry -> ordinal, and a run
// configured through the registry string surface is bit-identical to one
// configured through the enum fields.
#include <gtest/gtest.h>

#include <string>

#include "scenario/params.hpp"
#include "scenario/policy_registry.hpp"
#include "scenario/scenario.hpp"
#include "util/assert.hpp"

namespace rcast::scenario {
namespace {

TEST(PolicyRegistry, UnknownNameListsRegisteredNames) {
  try {
    power_policies().resolve("leachx");
    FAIL() << "resolve should have thrown";
  } catch (const RegistryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown power scheme 'leachx'"), std::string::npos)
        << msg;
    for (const char* name :
         {"80211", "PSM-NONE", "PSM-ALL", "ODPM", "RCAST", "RCAST-BC",
          "LEACH"}) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
  try {
    mobility_models().index_of("bogus");
    FAIL() << "index_of should have thrown";
  } catch (const RegistryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown mobility model 'bogus'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("rwp"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rpgm"), std::string::npos) << msg;
  }
  EXPECT_EQ(traffic_patterns().find("nope"), nullptr);
}

TEST(PolicyRegistry, DuplicateRegistrationIsContractViolation) {
  // A scratch registry, so the shared global ones stay untouched.
  PolicyRegistry<MobilityEntry> reg("mobility model");
  reg.add(MobilityEntry{"rwp", nullptr});
  EXPECT_THROW(reg.add(MobilityEntry{"rwp", nullptr}), ContractViolation);
  // Names are matched case-insensitively, so a re-spelling is still a dup.
  EXPECT_THROW(reg.add(MobilityEntry{"RWP", nullptr}), ContractViolation);
  EXPECT_THROW(reg.add(MobilityEntry{"", nullptr}), ContractViolation);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PolicyRegistry, BuiltInsRoundTrip) {
  ASSERT_EQ(power_policies().size(), 7u);
  for (std::size_t i = 0; i < power_policies().size(); ++i) {
    const PowerPolicyEntry& e = power_policies().at(i);
    // Registration order matches the Scheme enum, so ordinal casts and
    // string lookups agree (the /aggregate scheme filter depends on this).
    EXPECT_EQ(e.name, to_string(static_cast<Scheme>(i)));
    EXPECT_EQ(power_policies().index_of(e.name), i);
    EXPECT_EQ(power_policies().find(e.name), &e);
  }
  ASSERT_EQ(routing_protocols().size(), 2u);
  for (std::size_t i = 0; i < routing_protocols().size(); ++i) {
    const RoutingEntry& e = routing_protocols().at(i);
    EXPECT_EQ(e.name, to_string(static_cast<RoutingProtocol>(i)));
    EXPECT_EQ(routing_protocols().index_of(e.name), i);
  }
  ASSERT_EQ(mobility_models().size(), 2u);
  EXPECT_EQ(mobility_models().at(0).name, "rwp");
  EXPECT_EQ(mobility_models().at(1).name, "rpgm");
  ASSERT_EQ(traffic_patterns().size(), 2u);
  EXPECT_EQ(traffic_patterns().at(0).name, "cbr");
  EXPECT_EQ(traffic_patterns().at(1).name, "sensing");
  // Lookups are case-insensitive (CLI/manifest surfaces are forgiving).
  EXPECT_EQ(power_policies().index_of("rcast"),
            static_cast<std::size_t>(Scheme::kRcast));
  EXPECT_EQ(routing_protocols().index_of("dsr"), 0u);
}

TEST(PolicyRegistry, ScenarioRejectsUnknownMobilityModel) {
  ScenarioConfig cfg;
  cfg.num_nodes = 4;
  cfg.num_flows = 1;
  cfg.duration = sim::kSecond;
  cfg.mobility_model = "bogus";  // bypasses the param layer's token table
  EXPECT_THROW(run_scenario(cfg), RegistryError);
}

// A config driven through the string parameter surface must produce the
// exact run the legacy enum fields produce: the registry resolves to the
// same factories, fork salts and all.
TEST(PolicyRegistry, EnumAliasAndRegistryStringBitIdentical) {
  ScenarioConfig via_enum;
  via_enum.num_nodes = 20;
  via_enum.num_flows = 4;
  via_enum.world = {500.0, 300.0};
  via_enum.rate_pps = 2.0;
  via_enum.duration = 10 * sim::kSecond;
  via_enum.pause = 0;
  via_enum.seed = 11;
  via_enum.scheme = Scheme::kRcast;
  via_enum.routing = RoutingProtocol::kDsr;

  ScenarioConfig via_string = via_enum;
  via_string.scheme = Scheme::k80211;        // overwritten below
  via_string.routing = RoutingProtocol::kAodv;
  set_param(via_string, "power.scheme", "rcast");
  set_param(via_string, "routing.protocol", "dsr");

  const RunResult a = run_scenario(via_enum);
  const RunResult b = run_scenario(via_string);
  ASSERT_GT(a.originated, 0u);
  EXPECT_EQ(a.total_energy_j, b.total_energy_j);
  EXPECT_EQ(a.per_node_energy_j, b.per_node_energy_j);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.pdr_percent, b.pdr_percent);
  EXPECT_EQ(a.avg_delay_s, b.avg_delay_s);
  EXPECT_EQ(a.control_tx, b.control_tx);
  EXPECT_EQ(a.mac_sleeps, b.mac_sleeps);
}

}  // namespace
}  // namespace rcast::scenario
