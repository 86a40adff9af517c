#include "phy/phy.hpp"

#include <algorithm>
#include <cmath>

#include "stats/telemetry.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace rcast::phy {

Phy::Phy(sim::Simulator& simulator, Channel& channel, NodeId id,
         energy::EnergyMeter* meter)
    : sim_(simulator), channel_(channel), id_(id), meter_(meter) {
  channel.attach(this);
}

bool Phy::dead() const { return meter_ != nullptr && meter_->depleted(); }

void Phy::update_energy_state() {
  energy::RadioState desired;
  if (asleep_) {
    desired = energy::RadioState::kSleep;
  } else if (tx_busy_) {
    desired = energy::RadioState::kTx;
  } else if (locked_arrival_ != 0) {
    desired = energy::RadioState::kRx;
  } else {
    desired = energy::RadioState::kIdle;
  }
  // Without a meter the desired state is the actual state; with one, the
  // meter may pin to kOff (battery depleted).
  energy::RadioState actual = desired;
  if (meter_ != nullptr) actual = meter_->set_state(desired, sim_.now());
  if (telemetry_ != nullptr) {
    if (actual != last_state_) {
      telemetry_->on_radio_state(id_, actual, sim_.now());
    }
    if (!death_reported_ && meter_ != nullptr && meter_->depleted()) {
      death_reported_ = true;
      telemetry_->on_battery_depleted(id_, sim_.now());
    }
  }
  last_state_ = actual;
}

bool Phy::carrier_busy() const {
  return tx_busy_ || sim_.now() < busy_until_;
}

void Phy::extend_busy(sim::Time until) {
  if (until <= busy_until_) {
    // Still need a busy-edge notification if we were idle (e.g. a short
    // arrival inside an already-covered window cannot shrink it).
    if (!carrier_was_busy_ && carrier_busy()) {
      carrier_was_busy_ = true;
      if (listener_ != nullptr) listener_->phy_carrier_busy();
    }
    return;
  }
  busy_until_ = until;
  if (!carrier_was_busy_) {
    carrier_was_busy_ = true;
    if (listener_ != nullptr) listener_->phy_carrier_busy();
  }
}

void Phy::maybe_idle() {
  // The idle edge: no recorded arrival left and the busy window closed.
  // Safe to call at any time; it fires only on the busy -> idle transition.
  if (!carrier_was_busy_ || !arrivals_.empty() || sim_.now() < busy_until_) {
    return;
  }
  carrier_was_busy_ = false;
  if (listener_ != nullptr) listener_->phy_carrier_idle();
}

void Phy::start_tx(FramePtr frame) {
  RCAST_REQUIRE(frame != nullptr);
  RCAST_REQUIRE_MSG(!asleep_, "start_tx while asleep");
  RCAST_REQUIRE_MSG(!tx_busy_, "start_tx while already transmitting");
  RCAST_REQUIRE_MSG(frame->tx == id_, "frame tx id mismatch");
  if (dead()) return;

  // Transmitting deafens the radio: abort any in-progress reception.
  if (locked_arrival_ != 0) {
    if (Arrival* locked = find_arrival(locked_arrival_)) {
      locked->corrupted = true;
    }
    locked_arrival_ = 0;
    ++stats_.rx_missed_tx;
    if (telemetry_ != nullptr) {
      telemetry_->on_phy_rx_lost(id_, stats::PhyLoss::kWhileTx, sim_.now());
    }
  }

  tx_busy_ = true;
  ++stats_.tx_frames;
  if (telemetry_ != nullptr) telemetry_->on_phy_tx(id_, frame->bits, sim_.now());
  update_energy_state();
  const sim::Time duration = channel_.duration_of(frame->bits);
  channel_.transmit(frame, duration);
  sim_.after(duration, [this] {
    tx_busy_ = false;
    update_energy_state();
    if (listener_ != nullptr) listener_->phy_tx_done();
  });
}

void Phy::sleep() {
  if (asleep_ || dead()) return;
  RCAST_REQUIRE_MSG(!tx_busy_, "cannot sleep mid-transmission");
  asleep_ = true;
  // A dozing radio hears nothing: drop all sensed arrivals and the lock.
  // Their arrival_end events find no record and emit nothing.
  arrivals_.clear();
  locked_arrival_ = 0;
  busy_until_ = sim_.now();
  carrier_was_busy_ = false;
  update_energy_state();
}

void Phy::wake() {
  if (!asleep_) return;
  asleep_ = false;
  update_energy_state();
  if (dead()) {
    asleep_ = true;
    return;
  }
  // Physical carrier sense picks up transmissions already on the air, but a
  // partially-heard frame cannot be decoded.
  const sim::Time busy = channel_.sensed_busy_until(channel_.position_of(id_));
  if (busy > sim_.now()) {
    extend_busy(busy);
    // No arrival record will close this window, so a timer checks at its
    // end. If an arrival outlasts it, that arrival's end emits the edge; a
    // check left over from before a sleep() finds nothing to do.
    sim_.at(busy, [this] { maybe_idle(); });
  }
}

bool Phy::interferes(double d_interferer, double d_signal) const {
  // Two-ray d^-4: SIR(dB) = 40*log10(d_i/d_s) >= capture_db to survive. The
  // 10^(dB/40) ratio is precomputed by the channel (0 = capture disabled:
  // any overlap corrupts) — this predicate runs per overlapping arrival.
  const double ratio = channel_.capture_ratio();
  if (ratio <= 0.0) return true;
  return d_interferer < ratio * d_signal;
}

Phy::Arrival* Phy::find_arrival(std::uint64_t arrival_id) {
  for (Arrival& a : arrivals_) {
    if (a.id == arrival_id) return &a;
  }
  return nullptr;
}

void Phy::arrival_start(std::uint64_t arrival_id, FramePtr frame,
                        bool in_rx_range, double distance_m,
                        sim::Time end_time) {
  if (asleep_ || dead()) {
    if (in_rx_range && (frame->rx == id_ || frame->rx == kBroadcastId)) {
      ++stats_.rx_missed_sleep;
      if (telemetry_ != nullptr) {
        telemetry_->on_phy_rx_lost(id_, stats::PhyLoss::kWhileAsleep,
                                   sim_.now());
      }
    }
    return;
  }

  Arrival a;
  a.id = arrival_id;
  a.distance_m = distance_m;

  // Does this new arrival corrupt an ongoing locked reception?
  if (locked_arrival_ != 0) {
    Arrival* locked = find_arrival(locked_arrival_);
    if (locked != nullptr && interferes(distance_m, locked->distance_m)) {
      locked->corrupted = true;
    }
  }

  if (in_rx_range) {
    if (tx_busy_) {
      a.corrupted = true;
      ++stats_.rx_missed_tx;
      if (telemetry_ != nullptr) {
        telemetry_->on_phy_rx_lost(id_, stats::PhyLoss::kWhileTx, sim_.now());
      }
    } else if (locked_arrival_ != 0) {
      // Mid-decode of another frame: cannot re-lock (no preamble capture).
      a.corrupted = true;
      ++stats_.rx_missed_busy;
      if (telemetry_ != nullptr) {
        telemetry_->on_phy_rx_lost(id_, stats::PhyLoss::kWhileBusy, sim_.now());
      }
    } else {
      // Decodable iff every ongoing signal is weak enough to be captured
      // over; energy from an unknown source (sensed while waking) counts
      // as an unconditional interferer.
      bool clean = arrivals_.empty() ? sim_.now() >= busy_until_ : true;
      for (const Arrival& ongoing : arrivals_) {
        if (interferes(ongoing.distance_m, distance_m)) {
          clean = false;
          break;
        }
      }
      if (clean) {
        a.locked = true;
      } else {
        a.corrupted = true;
        ++stats_.rx_missed_busy;
        if (telemetry_ != nullptr) {
          telemetry_->on_phy_rx_lost(id_, stats::PhyLoss::kWhileBusy,
                                     sim_.now());
        }
      }
    }
  } else {
    a.corrupted = true;  // carrier-sense-only signal, never decodable here
  }

  if (a.locked) locked_arrival_ = arrival_id;
  a.frame = std::move(frame);
  arrivals_.push_back(std::move(a));
  update_energy_state();
  extend_busy(end_time);
}

void Phy::arrival_end(std::uint64_t arrival_id) {
  Arrival* it = find_arrival(arrival_id);
  if (it == nullptr) return;  // slept (or was asleep) meanwhile
  const bool was_locked = (arrival_id == locked_arrival_);
  const bool corrupted = it->corrupted;
  const FramePtr frame = std::move(it->frame);
  *it = std::move(arrivals_.back());  // swap-erase; order is irrelevant
  arrivals_.pop_back();
  if (was_locked) {
    locked_arrival_ = 0;
    update_energy_state();
    if (corrupted) {
      ++stats_.rx_collisions;
      if (telemetry_ != nullptr) {
        telemetry_->on_phy_rx_lost(id_, stats::PhyLoss::kCollision, sim_.now());
      }
    } else {
      ++stats_.rx_ok;
      if (telemetry_ != nullptr) {
        telemetry_->on_phy_rx_ok(id_, frame->tx, sim_.now());
      }
      if (listener_ != nullptr) listener_->phy_rx_ok(frame);
    }
  }
  maybe_idle();
}

}  // namespace rcast::phy
