// Constant-bit-rate traffic sources (the paper's workload: 20 CBR flows of
// 64-byte packets at 0.2–2.0 packets/second each).
#pragma once

#include <cstdint>
#include <vector>

#include "routing/observer.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rcast::traffic {

using routing::NodeId;

struct CbrFlowConfig {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t flow_id = 0;
  double rate_pps = 1.0;               // packets per second
  std::int64_t payload_bits = 64 * 8;  // 64-byte payloads
  sim::Time start = 0;                 // first packet no earlier than this
  sim::Time stop = 0;                  // 0 = run forever
};

/// Emits a packet every 1/rate seconds into the node's routing agent, starting
/// at a random phase within the first period (decorrelates flows).
class CbrSource {
 public:
  CbrSource(sim::Simulator& simulator, routing::RoutingAgent& agent,
            const CbrFlowConfig& config, Rng rng);

  /// Packets handed to the routing agent so far.
  std::uint32_t packets_sent() const { return seq_; }
  const CbrFlowConfig& config() const { return cfg_; }

 private:
  void emit();

  sim::Simulator& sim_;
  routing::RoutingAgent& agent_;
  CbrFlowConfig cfg_;
  sim::Time period_;
  std::uint32_t seq_ = 0;
  sim::PeriodicTimer timer_;
};

/// Draws `n_flows` random (src, dst) pairs with distinct sources, src != dst.
std::vector<CbrFlowConfig> make_flow_matrix(std::size_t n_nodes,
                                            std::size_t n_flows,
                                            double rate_pps,
                                            std::int64_t payload_bits,
                                            Rng& rng);

}  // namespace rcast::traffic
