// Cross-layer telemetry spine.
//
// One multi-subscriber instrumentation bus for the whole stack: PHY, MAC,
// power policy, and routing all emit typed events into a `TelemetryBus`,
// and any number of consumers — the metrics collector, the event tracer,
// the per-layer aggregate counters, campaign-side analyzers — subscribe to
// the layers they care about. Protocol modules never know who is listening.
//
// Design rules (DESIGN.md §10):
//  * Zero overhead when idle: an emission with no subscribers for that
//    layer is a null-pointer check plus an empty-vector check, both inline
//    (`TelemetryBus` is final, so emit calls devirtualize).
//  * No per-event allocation: dispatch walks a pre-built pointer vector;
//    events pass scalars and references only.
//  * Deterministic dispatch: subscribers fire in subscription order, and
//    subscribing/unsubscribing never perturbs the simulation itself —
//    subscribers are observers, not actors.
//  * Re-entrancy-safe: a subscriber may unsubscribe itself (or anyone
//    else) from inside a callback; the slot is nulled during dispatch and
//    compacted afterwards. Subscribers added mid-dispatch first see the
//    *next* event.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/radio_state.hpp"
#include "mac/mac_types.hpp"
#include "routing/observer.hpp"
#include "sim/time.hpp"

namespace rcast::stats {

using mac::NodeId;

/// Why an in-range arrival was not decoded.
enum class PhyLoss : std::uint8_t {
  kCollision = 0,   // locked reception corrupted by interference
  kWhileBusy = 1,   // arrived mid-decode of another frame
  kWhileAsleep = 2, // radio was dozing
  kWhileTx = 3,     // radio was transmitting (half-duplex)
};

constexpr const char* to_string(PhyLoss l) {
  switch (l) {
    case PhyLoss::kCollision:
      return "collision";
    case PhyLoss::kWhileBusy:
      return "busy";
    case PhyLoss::kWhileAsleep:
      return "asleep";
    case PhyLoss::kWhileTx:
      return "tx";
  }
  return "?";
}

/// Radio-level events. All defaults empty; subscribers override what they
/// need.
class PhyEvents {
 public:
  virtual ~PhyEvents() = default;
  /// A frame started serializing onto the air.
  virtual void on_phy_tx(NodeId, std::int64_t /*bits*/, sim::Time) {}
  /// A frame was fully and cleanly decoded (from `from`).
  virtual void on_phy_rx_ok(NodeId, NodeId /*from*/, sim::Time) {}
  /// An in-range arrival was lost (see PhyLoss).
  virtual void on_phy_rx_lost(NodeId, PhyLoss, sim::Time) {}
  /// The radio changed power state (idle/rx/tx/sleep/off).
  virtual void on_radio_state(NodeId, energy::RadioState, sim::Time) {}
};

/// MAC-level events: the PSM/ATIM machinery the paper's argument lives in.
class MacEvents {
 public:
  virtual ~MacEvents() = default;
  // ATIM announcement outcomes.
  virtual void on_atim_tx(NodeId, NodeId /*dst*/, sim::Time) {}
  virtual void on_atim_acked(NodeId, NodeId /*dst*/, sim::Time) {}
  virtual void on_atim_failed(NodeId, NodeId /*dst*/, sim::Time) {}
  // The Rcast decision point: a node heard an ATIM for someone else and
  // chose to stay awake (commit) or doze (decline).
  virtual void on_overhear_commit(NodeId, NodeId /*sender*/,
                                  mac::OverhearingMode, sim::Time) {}
  virtual void on_overhear_decline(NodeId, NodeId /*sender*/,
                                   mac::OverhearingMode, sim::Time) {}
  // Per-beacon-interval sleep/wake decisions.
  virtual void on_mac_sleep(NodeId, sim::Time) {}
  virtual void on_mac_wake(NodeId, sim::Time) {}
  // Data-frame operations.
  virtual void on_data_tx_attempt(NodeId, NodeId /*dst*/, sim::Time) {}
  virtual void on_data_tx_ok(NodeId, NodeId /*dst*/, sim::Time) {}
  virtual void on_data_tx_failed(NodeId, NodeId /*dst*/, sim::Time) {}
  /// A stale believed-awake (ODPM) fast-path send fell back to the ATIM
  /// path instead of declaring a link failure.
  virtual void on_immediate_fallback(NodeId, NodeId /*dst*/, sim::Time) {}
  /// Interface queue overflow: the packet was refused.
  virtual void on_queue_drop(NodeId, sim::Time) {}
};

/// Power-management events.
class PowerEvents {
 public:
  virtual ~PowerEvents() = default;
  /// An ODPM node left PS mode: it will stay in AM until `until`.
  virtual void on_am_window(NodeId, sim::Time /*until*/, sim::Time) {}
  /// The node's finite battery hit zero; the radio is permanently off.
  virtual void on_battery_depleted(NodeId, sim::Time) {}
};

/// Routing-level events are the (renamed) observer interface the routing
/// agents already emit; the bus fans it out unchanged.
using RoutingEvents = routing::Observer;

/// Ordered subscriber list with re-entrancy-safe removal. Not thread-safe
/// by design: one bus belongs to one Simulator.
template <typename S>
class SubscriberList {
 public:
  void add(S* s) {
    if (s == nullptr) return;
    for (S* p : subs_) {
      if (p == s) return;  // already subscribed; order keeps first position
    }
    subs_.push_back(s);
  }

  void remove(S* s) {
    for (auto it = subs_.begin(); it != subs_.end(); ++it) {
      if (*it == s) {
        if (dispatching_ > 0) {
          *it = nullptr;  // nulled mid-dispatch, compacted after
          compact_ = true;
        } else {
          subs_.erase(it);
        }
        return;
      }
    }
  }

  bool empty() const { return subs_.empty(); }
  std::size_t size() const { return subs_.size(); }

  template <typename F>
  void emit(F&& f) {
    if (subs_.empty()) return;
    ++dispatching_;
    // Size captured up front: subscribers added during dispatch first see
    // the next event; removed ones are skipped via the null check.
    const std::size_t n = subs_.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (subs_[i] != nullptr) f(*subs_[i]);
    }
    if (--dispatching_ == 0 && compact_) {
      std::erase(subs_, static_cast<S*>(nullptr));
      compact_ = false;
    }
  }

 private:
  std::vector<S*> subs_;
  int dispatching_ = 0;
  bool compact_ = false;
};

/// The bus. Emitters hold a `TelemetryBus*` and call the event methods
/// directly; each call fans out to that layer's subscribers in
/// subscription order. The bus itself implements every layer interface, so
/// it plugs into `RoutingAgent::set_observer` unchanged.
class TelemetryBus final : public PhyEvents,
                           public MacEvents,
                           public PowerEvents,
                           public routing::Observer {
 public:
  // --- subscription ---------------------------------------------------------
  void subscribe_phy(PhyEvents* s) { phy_.add(s); }
  void unsubscribe_phy(PhyEvents* s) { phy_.remove(s); }
  void subscribe_mac(MacEvents* s) { mac_.add(s); }
  void unsubscribe_mac(MacEvents* s) { mac_.remove(s); }
  void subscribe_power(PowerEvents* s) { power_.add(s); }
  void unsubscribe_power(PowerEvents* s) { power_.remove(s); }
  void subscribe_routing(routing::Observer* s) { routing_.add(s); }
  void unsubscribe_routing(routing::Observer* s) { routing_.remove(s); }

  std::size_t phy_subscribers() const { return phy_.size(); }
  std::size_t mac_subscribers() const { return mac_.size(); }
  std::size_t power_subscribers() const { return power_.size(); }
  std::size_t routing_subscribers() const { return routing_.size(); }

  // --- PhyEvents fan-out ----------------------------------------------------
  void on_phy_tx(NodeId id, std::int64_t bits, sim::Time now) override {
    phy_.emit([&](PhyEvents& s) { s.on_phy_tx(id, bits, now); });
  }
  void on_phy_rx_ok(NodeId id, NodeId from, sim::Time now) override {
    phy_.emit([&](PhyEvents& s) { s.on_phy_rx_ok(id, from, now); });
  }
  void on_phy_rx_lost(NodeId id, PhyLoss loss, sim::Time now) override {
    phy_.emit([&](PhyEvents& s) { s.on_phy_rx_lost(id, loss, now); });
  }
  void on_radio_state(NodeId id, energy::RadioState st,
                      sim::Time now) override {
    phy_.emit([&](PhyEvents& s) { s.on_radio_state(id, st, now); });
  }

  // --- MacEvents fan-out ----------------------------------------------------
  void on_atim_tx(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_atim_tx(id, dst, now); });
  }
  void on_atim_acked(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_atim_acked(id, dst, now); });
  }
  void on_atim_failed(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_atim_failed(id, dst, now); });
  }
  void on_overhear_commit(NodeId id, NodeId sender, mac::OverhearingMode oh,
                          sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_overhear_commit(id, sender, oh, now); });
  }
  void on_overhear_decline(NodeId id, NodeId sender, mac::OverhearingMode oh,
                           sim::Time now) override {
    mac_.emit(
        [&](MacEvents& s) { s.on_overhear_decline(id, sender, oh, now); });
  }
  void on_mac_sleep(NodeId id, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_mac_sleep(id, now); });
  }
  void on_mac_wake(NodeId id, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_mac_wake(id, now); });
  }
  void on_data_tx_attempt(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_data_tx_attempt(id, dst, now); });
  }
  void on_data_tx_ok(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_data_tx_ok(id, dst, now); });
  }
  void on_data_tx_failed(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_data_tx_failed(id, dst, now); });
  }
  void on_immediate_fallback(NodeId id, NodeId dst, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_immediate_fallback(id, dst, now); });
  }
  void on_queue_drop(NodeId id, sim::Time now) override {
    mac_.emit([&](MacEvents& s) { s.on_queue_drop(id, now); });
  }

  // --- PowerEvents fan-out --------------------------------------------------
  void on_am_window(NodeId id, sim::Time until, sim::Time now) override {
    power_.emit([&](PowerEvents& s) { s.on_am_window(id, until, now); });
  }
  void on_battery_depleted(NodeId id, sim::Time now) override {
    power_.emit([&](PowerEvents& s) { s.on_battery_depleted(id, now); });
  }

  // --- routing::Observer fan-out --------------------------------------------
  void on_data_originated(const routing::DsrPacket& p,
                          sim::Time now) override {
    routing_.emit([&](routing::Observer& s) { s.on_data_originated(p, now); });
  }
  void on_data_delivered(const routing::DsrPacket& p, sim::Time now) override {
    routing_.emit([&](routing::Observer& s) { s.on_data_delivered(p, now); });
  }
  void on_data_dropped(const routing::DsrPacket& p, routing::DropReason r,
                       sim::Time now) override {
    routing_.emit(
        [&](routing::Observer& s) { s.on_data_dropped(p, r, now); });
  }
  void on_control_transmit(routing::PacketType t, sim::Time now) override {
    routing_.emit(
        [&](routing::Observer& s) { s.on_control_transmit(t, now); });
  }
  void on_route_used(const routing::Route& r, sim::Time now) override {
    routing_.emit([&](routing::Observer& s) { s.on_route_used(r, now); });
  }
  void on_data_forwarded(NodeId by, sim::Time now) override {
    routing_.emit([&](routing::Observer& s) { s.on_data_forwarded(by, now); });
  }
  void on_data_salvaged(NodeId by, sim::Time now) override {
    routing_.emit([&](routing::Observer& s) { s.on_data_salvaged(by, now); });
  }

 private:
  SubscriberList<PhyEvents> phy_;
  SubscriberList<MacEvents> mac_;
  SubscriberList<PowerEvents> power_;
  SubscriberList<routing::Observer> routing_;
};

/// Network-wide per-layer aggregate counters, reconstituted from bus events.
/// This subscriber is what `Network::summarize()` reads instead of scraping
/// `MacStats`/`DsrStats`/`AodvStats` out of every node; the per-node structs
/// stay for the layer unit tests (test_mac, test_dsr, test_aodv), which read
/// one agent's counts without a bus.
class LayerCounters final : public MacEvents, public routing::Observer {
 public:
  // --- MacEvents ------------------------------------------------------------
  void on_atim_tx(NodeId, NodeId, sim::Time) override { ++atim_tx_; }
  void on_atim_acked(NodeId, NodeId, sim::Time) override { ++atim_acked_; }
  void on_atim_failed(NodeId, NodeId, sim::Time) override { ++atim_failed_; }
  void on_overhear_commit(NodeId, NodeId, mac::OverhearingMode,
                          sim::Time) override {
    ++overhear_commits_;
  }
  void on_overhear_decline(NodeId, NodeId, mac::OverhearingMode,
                           sim::Time) override {
    ++overhear_declines_;
  }
  void on_mac_sleep(NodeId, sim::Time) override { ++sleeps_; }
  void on_mac_wake(NodeId, sim::Time) override { ++wakes_; }
  void on_data_tx_attempt(NodeId, NodeId, sim::Time) override {
    ++data_tx_attempts_;
  }
  void on_data_tx_ok(NodeId, NodeId, sim::Time) override { ++data_tx_ok_; }
  void on_data_tx_failed(NodeId, NodeId, sim::Time) override {
    ++data_tx_failed_;
  }
  void on_immediate_fallback(NodeId, NodeId, sim::Time) override {
    ++immediate_fallbacks_;
  }
  void on_queue_drop(NodeId, sim::Time) override { ++queue_drops_; }

  // --- routing::Observer ----------------------------------------------------
  void on_control_transmit(routing::PacketType t, sim::Time) override {
    ++control_tx_[static_cast<int>(t)];
  }
  void on_data_salvaged(NodeId, sim::Time) override { ++data_salvaged_; }

  // --- reads ----------------------------------------------------------------
  std::uint64_t atim_tx() const { return atim_tx_; }
  std::uint64_t atim_acked() const { return atim_acked_; }
  std::uint64_t atim_failed() const { return atim_failed_; }
  std::uint64_t overhear_commits() const { return overhear_commits_; }
  std::uint64_t overhear_declines() const { return overhear_declines_; }
  std::uint64_t sleeps() const { return sleeps_; }
  std::uint64_t wakes() const { return wakes_; }
  std::uint64_t data_tx_attempts() const { return data_tx_attempts_; }
  std::uint64_t data_tx_ok() const { return data_tx_ok_; }
  std::uint64_t data_tx_failed() const { return data_tx_failed_; }
  std::uint64_t immediate_fallbacks() const { return immediate_fallbacks_; }
  std::uint64_t queue_drops() const { return queue_drops_; }
  std::uint64_t data_salvaged() const { return data_salvaged_; }
  /// Per-hop control transmissions of one packet type (network-wide).
  std::uint64_t control_tx(routing::PacketType t) const {
    return control_tx_[static_cast<int>(t)];
  }

  /// Folds another counter set into this one (sharded runs: per-shard
  /// counters merged in shard order at summarize).
  void merge(const LayerCounters& o) {
    atim_tx_ += o.atim_tx_;
    atim_acked_ += o.atim_acked_;
    atim_failed_ += o.atim_failed_;
    overhear_commits_ += o.overhear_commits_;
    overhear_declines_ += o.overhear_declines_;
    sleeps_ += o.sleeps_;
    wakes_ += o.wakes_;
    data_tx_attempts_ += o.data_tx_attempts_;
    data_tx_ok_ += o.data_tx_ok_;
    data_tx_failed_ += o.data_tx_failed_;
    immediate_fallbacks_ += o.immediate_fallbacks_;
    queue_drops_ += o.queue_drops_;
    data_salvaged_ += o.data_salvaged_;
    for (std::size_t i = 0; i < 5; ++i) control_tx_[i] += o.control_tx_[i];
  }

 private:
  std::uint64_t atim_tx_ = 0;
  std::uint64_t atim_acked_ = 0;
  std::uint64_t atim_failed_ = 0;
  std::uint64_t overhear_commits_ = 0;
  std::uint64_t overhear_declines_ = 0;
  std::uint64_t sleeps_ = 0;
  std::uint64_t wakes_ = 0;
  std::uint64_t data_tx_attempts_ = 0;
  std::uint64_t data_tx_ok_ = 0;
  std::uint64_t data_tx_failed_ = 0;
  std::uint64_t immediate_fallbacks_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t data_salvaged_ = 0;
  std::uint64_t control_tx_[5] = {};  // indexed by routing::PacketType
};

}  // namespace rcast::stats
