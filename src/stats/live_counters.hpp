// Thread-safe live telemetry counters for the serving layer.
//
// LayerCounters is single-Simulator-owned and read only after a run ends;
// the serving daemon instead needs a bus subscriber whose totals can be
// *read while jobs are running, from other threads* (the HTTP /metrics
// endpoint streams them). LiveCounters does that with relaxed atomics: one
// instance may subscribe to many Networks at once (each campaign worker
// thread runs its own Simulator), every emission is a single atomic add,
// and snapshot() is a coherent-enough view for monitoring (counters are
// independent; no cross-counter invariant is promised mid-run).
#pragma once

#include <atomic>
#include <cstdint>

#include "stats/telemetry.hpp"

namespace rcast::stats {

/// Point-in-time copy of every live counter (plain integers, serializable
/// by any layer without touching atomics).
struct LiveSnapshot {
  std::uint64_t phy_tx = 0;
  std::uint64_t phy_rx_ok = 0;
  std::uint64_t phy_rx_lost = 0;
  std::uint64_t atim_tx = 0;
  std::uint64_t overhear_commits = 0;
  std::uint64_t overhear_declines = 0;
  std::uint64_t mac_sleeps = 0;
  std::uint64_t data_tx_attempts = 0;
  std::uint64_t data_tx_failed = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_dropped = 0;
  std::uint64_t control_tx = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
};

class LiveCounters final : public PhyEvents,
                           public MacEvents,
                           public routing::Observer {
 public:
  // --- PhyEvents ------------------------------------------------------------
  void on_phy_tx(NodeId, std::int64_t, sim::Time) override { bump(phy_tx_); }
  void on_phy_rx_ok(NodeId, NodeId, sim::Time) override { bump(phy_rx_ok_); }
  void on_phy_rx_lost(NodeId, PhyLoss, sim::Time) override {
    bump(phy_rx_lost_);
  }

  // --- MacEvents ------------------------------------------------------------
  void on_atim_tx(NodeId, NodeId, sim::Time) override { bump(atim_tx_); }
  void on_overhear_commit(NodeId, NodeId, mac::OverhearingMode,
                          sim::Time) override {
    bump(overhear_commits_);
  }
  void on_overhear_decline(NodeId, NodeId, mac::OverhearingMode,
                           sim::Time) override {
    bump(overhear_declines_);
  }
  void on_mac_sleep(NodeId, sim::Time) override { bump(mac_sleeps_); }
  void on_data_tx_attempt(NodeId, NodeId, sim::Time) override {
    bump(data_tx_attempts_);
  }
  void on_data_tx_failed(NodeId, NodeId, sim::Time) override {
    bump(data_tx_failed_);
  }
  void on_queue_drop(NodeId, sim::Time) override { bump(queue_drops_); }

  // --- routing::Observer ----------------------------------------------------
  void on_data_originated(const routing::DsrPacket&, sim::Time) override {
    bump(data_originated_);
  }
  void on_data_delivered(const routing::DsrPacket&, sim::Time) override {
    bump(data_delivered_);
  }
  void on_data_dropped(const routing::DsrPacket&, routing::DropReason,
                       sim::Time) override {
    bump(data_dropped_);
  }
  void on_control_transmit(routing::PacketType, sim::Time) override {
    bump(control_tx_);
  }

  // --- campaign-level marks (called by the runner, not the bus) -------------
  void mark_job_completed() { bump(jobs_completed_); }
  void mark_job_failed() { bump(jobs_failed_); }

  LiveSnapshot snapshot() const {
    LiveSnapshot s;
    s.phy_tx = phy_tx_.load(std::memory_order_relaxed);
    s.phy_rx_ok = phy_rx_ok_.load(std::memory_order_relaxed);
    s.phy_rx_lost = phy_rx_lost_.load(std::memory_order_relaxed);
    s.atim_tx = atim_tx_.load(std::memory_order_relaxed);
    s.overhear_commits = overhear_commits_.load(std::memory_order_relaxed);
    s.overhear_declines = overhear_declines_.load(std::memory_order_relaxed);
    s.mac_sleeps = mac_sleeps_.load(std::memory_order_relaxed);
    s.data_tx_attempts = data_tx_attempts_.load(std::memory_order_relaxed);
    s.data_tx_failed = data_tx_failed_.load(std::memory_order_relaxed);
    s.queue_drops = queue_drops_.load(std::memory_order_relaxed);
    s.data_originated = data_originated_.load(std::memory_order_relaxed);
    s.data_delivered = data_delivered_.load(std::memory_order_relaxed);
    s.data_dropped = data_dropped_.load(std::memory_order_relaxed);
    s.control_tx = control_tx_.load(std::memory_order_relaxed);
    s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
    s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static void bump(std::atomic<std::uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> phy_tx_{0};
  std::atomic<std::uint64_t> phy_rx_ok_{0};
  std::atomic<std::uint64_t> phy_rx_lost_{0};
  std::atomic<std::uint64_t> atim_tx_{0};
  std::atomic<std::uint64_t> overhear_commits_{0};
  std::atomic<std::uint64_t> overhear_declines_{0};
  std::atomic<std::uint64_t> mac_sleeps_{0};
  std::atomic<std::uint64_t> data_tx_attempts_{0};
  std::atomic<std::uint64_t> data_tx_failed_{0};
  std::atomic<std::uint64_t> queue_drops_{0};
  std::atomic<std::uint64_t> data_originated_{0};
  std::atomic<std::uint64_t> data_delivered_{0};
  std::atomic<std::uint64_t> data_dropped_{0};
  std::atomic<std::uint64_t> control_tx_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
};

}  // namespace rcast::stats
