// Per-node radio.
//
// Tracks power state (idle/rx/tx/sleep), carrier sensing, reception locking
// and collision corruption, and drives the node's EnergyMeter on every state
// transition. The MAC observes the radio through PhyListener callbacks plus
// carrier_busy()/busy_until() queries.
//
// Carrier edges (DESIGN.md §17): the busy edge comes from the first sensed
// arrival (or a wake-up into a frame already on the air); the idle edge
// comes from the arrival_end that empties the arrival set once the busy
// window has closed, inside that event. Only the one busy window with no
// arrival record to close it — the remainder a waking radio senses from
// the channel — arms a timer.
#pragma once

#include <cstdint>
#include <vector>

#include "energy/energy_model.hpp"
#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"

namespace rcast::stats {
class TelemetryBus;
}

namespace rcast::phy {

/// MAC-side observer of radio events.
class PhyListener {
 public:
  virtual ~PhyListener() = default;

  /// A frame was fully and cleanly decoded (addressed to anyone). The MAC
  /// decides whether this is a receive, an overhear, or to be dropped.
  virtual void phy_rx_ok(const FramePtr& frame) = 0;

  /// Our own transmission finished serializing.
  virtual void phy_tx_done() = 0;

  /// Carrier went busy (first sensed arrival after an idle period).
  virtual void phy_carrier_busy() = 0;

  /// Carrier went idle (all sensed arrivals ended).
  virtual void phy_carrier_idle() = 0;
};

struct PhyStats {
  std::uint64_t tx_frames = 0;
  std::uint64_t rx_ok = 0;
  std::uint64_t rx_collisions = 0;   // locked receptions corrupted
  std::uint64_t rx_missed_busy = 0;  // in-range arrivals while already busy
  std::uint64_t rx_missed_sleep = 0; // in-range arrivals while asleep
  std::uint64_t rx_missed_tx = 0;    // in-range arrivals while transmitting
};

class Phy {
 public:
  /// `meter` may be null (no energy accounting, e.g. unit tests).
  Phy(sim::Simulator& simulator, Channel& channel, NodeId id,
      energy::EnergyMeter* meter);

  NodeId id() const { return id_; }
  void set_listener(PhyListener* l) { listener_ = l; }
  /// Attach the telemetry bus (may be null). The radio emits tx/rx events,
  /// losses, power-state transitions and battery death; emission never
  /// affects radio behavior.
  void set_telemetry(stats::TelemetryBus* bus) { telemetry_ = bus; }
  const Channel& channel() const { return channel_; }

  // --- MAC-facing control -------------------------------------------------

  /// Begins transmitting. Requires the radio to be awake, not already
  /// transmitting, and not depleted. Aborts any in-progress reception.
  void start_tx(FramePtr frame);

  bool transmitting() const { return tx_busy_; }
  bool sleeping() const { return asleep_; }

  /// True if energy is sensed on the medium now (own TX counts as busy).
  bool carrier_busy() const;

  /// Time until which the medium is known busy (may be in the past).
  sim::Time busy_until() const { return busy_until_; }

  /// Enters the low-power doze state: all receptions drop, carrier sensing
  /// stops. No-op while transmitting (callers must not sleep a busy TX).
  void sleep();

  /// Wakes the radio; re-acquires carrier state from the channel (a radio
  /// waking mid-frame senses energy but cannot decode the partial frame).
  void wake();

  /// True once the node's battery is depleted (radio permanently off).
  bool dead() const;

  const PhyStats& stats() const { return stats_; }

  // --- Channel-facing (not for MAC use) ------------------------------------

  /// A sensed frame's leading edge reaches this radio. An awake radio
  /// records the arrival (the record owns `frame`) and extends the busy
  /// window to `end_time`; a sleeping one only counts the miss.
  void arrival_start(std::uint64_t arrival_id, FramePtr frame,
                     bool in_rx_range, double distance_m, sim::Time end_time);
  /// The arrival's trailing edge: drops its record, delivers a clean locked
  /// reception, and emits the idle edge when the set is left empty and the
  /// busy window has closed. No-op for an arrival never recorded or dropped
  /// by sleep().
  void arrival_end(std::uint64_t arrival_id);

 private:
  struct Arrival {
    std::uint64_t id = 0;     // channel arrival id (0 is never assigned)
    FramePtr frame;           // moved in from the start closure
    double distance_m = 0.0;  // transmitter-to-us distance at frame start
    bool corrupted = false;
    bool locked = false;  // we are attempting to decode this one
  };

  Arrival* find_arrival(std::uint64_t arrival_id);

  /// True if an interferer at `d_interferer` corrupts a signal being decoded
  /// from `d_signal` (pairwise SINR under two-ray d^-4 with the channel's
  /// capture threshold).
  bool interferes(double d_interferer, double d_signal) const;

  void update_energy_state();
  void extend_busy(sim::Time until);
  /// Emits the idle edge if the carrier was busy, no arrival is recorded and
  /// the busy window has closed.
  void maybe_idle();

  sim::Simulator& sim_;
  Channel& channel_;
  NodeId id_;
  energy::EnergyMeter* meter_;
  PhyListener* listener_ = nullptr;
  stats::TelemetryBus* telemetry_ = nullptr;
  energy::RadioState last_state_ = energy::RadioState::kIdle;
  bool death_reported_ = false;

  bool asleep_ = false;
  bool tx_busy_ = false;
  /// Sensed in-flight arrivals. A handful at most at any instant, so a flat
  /// reused vector (linear find, swap-erase) beats a node-per-entry map and
  /// keeps the steady-state arrival path allocation-free.
  std::vector<Arrival> arrivals_;
  std::uint64_t locked_arrival_ = 0;  // Arrival::id, 0 = none
  sim::Time busy_until_ = 0;
  bool carrier_was_busy_ = false;
  PhyStats stats_;
};

}  // namespace rcast::phy
