// IEEE 802.11 MAC: DCF (CSMA/CA with binary exponential backoff and ACKs)
// plus the DCF power-saving mechanism (beacon intervals, ATIM window,
// ATIM/ATIM-ACK announcement handshake, per-interval sleep decisions), with
// the Rcast overhearing subtypes.
//
// Modeling notes (see DESIGN.md):
//  * Beacon boundaries are globally synchronized and beacon frames are not
//    contended (the paper assumes an external sync algorithm).
//  * RTS/CTS and virtual carrier sense (NAV) are not modeled; the paper's
//    setup (64-byte packets, no RTS threshold) does not exercise them.
//  * During the ATIM window only ATIM/ATIM-ACK frames contend; data frames
//    contend afterwards. A node in PS mode that fails its announcement
//    retries in the next beacon interval.
#pragma once

#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mac/mac_types.hpp"
#include "phy/phy.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rcast::stats {
class TelemetryBus;
}

namespace rcast::mac {

class Mac final : public phy::PhyListener {
 public:
  Mac(sim::Simulator& simulator, phy::Phy& phy, const MacConfig& config,
      Rng rng);

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;

  NodeId id() const { return phy_.id(); }
  const MacConfig& config() const { return cfg_; }

  void set_callbacks(MacCallbacks* cb) { callbacks_ = cb; }
  void set_power_policy(PowerPolicy* p) { policy_ = p; }
  /// Attach the telemetry bus (may be null). The MAC emits ATIM outcomes,
  /// overhearing decisions, sleep/wake choices and data-frame operations;
  /// emission never affects protocol behavior.
  void set_telemetry(stats::TelemetryBus* bus) { telemetry_ = bus; }

  /// Starts the beacon schedule (PSM mode). Call once at simulation start.
  void start();

  /// Enqueues a network packet for `next_hop` (or kBroadcastId) with the
  /// requested Rcast overhearing level. Returns false on queue overflow.
  bool send(NodeId next_hop, NetDatagramPtr pkt, OverhearingMode oh);

  /// Number of packets waiting in the interface queue.
  std::size_t queue_depth() const { return queue_.size(); }

  /// Oldest queued packet: its age (0 when empty) and destination
  /// (kBroadcastId when empty); diagnostic surface for starvation analysis.
  struct OldestQueued {
    sim::Time age = 0;
    NodeId dst = kBroadcastId;
  };
  OldestQueued oldest_queued() const {
    OldestQueued best;
    bool found = false;
    for (const TxItem& i : queue_) {
      const sim::Time age = sim_.now() - i.enqueued;
      if (!found || age > best.age) {
        best = OldestQueued{age, i.dst};
        found = true;
      }
    }
    return best;
  }
  sim::Time oldest_queued_age() const { return oldest_queued().age; }
  NodeId oldest_queued_dst() const { return oldest_queued().dst; }

  bool awake() const { return !phy_.sleeping(); }
  const MacStats& stats() const { return stats_; }

  /// True while the current instant is inside an ATIM window (PSM only).
  bool in_atim_window() const;

  // --- phy::PhyListener ----------------------------------------------------
  void phy_rx_ok(const phy::FramePtr& frame) override;
  void phy_tx_done() override;
  void phy_carrier_busy() override;
  void phy_carrier_idle() override;

 private:
  struct TxItem {
    NetDatagramPtr pkt;
    NodeId dst = kBroadcastId;
    OverhearingMode oh = OverhearingMode::kNone;
    sim::Time enqueued = 0;
  };

  struct Announcement {
    NodeId dst = kBroadcastId;  // kBroadcastId = broadcast announcement
    OverhearingMode oh = OverhearingMode::kNone;
  };

  enum class DcfState { kIdle, kContending, kWaitAck };
  enum class CurrentTx { kNone, kOp, kResponse };

  // Beacon/interval machinery.
  void on_beacon();
  void on_atim_window_end();
  void rebuild_announcements();
  bool should_stay_awake();
  void maybe_sleep();
  bool has_eligible_data() const;
  bool data_item_eligible(const TxItem& item) const;
  bool policy_ps_now();

  // DCF engine.
  void kick();
  void start_op_announcement(Announcement a);
  void start_op_data(TxItem item, bool immediate);
  void begin_contention();
  void resume_contention();
  void pause_contention();
  void on_backoff_expired();
  void transmit_op_frame();
  void on_ack_timeout();
  void op_success();
  void op_failure();
  void on_announcement_failed(NodeId dst);
  void abort_op_requeue();
  void finish_op();

  // Receive path.
  void handle_atim(const MacFrame& frame);
  void handle_atim_ack(const MacFrame& frame);
  void handle_data(const MacFrame& frame);
  void handle_ack(const MacFrame& frame);
  void send_response(FrameKind kind, NodeId dst);
  void schedule_response();
  void fire_response();
  bool duplicate_filter(NodeId src, std::uint32_t seq);

  MacFramePtr make_frame(FrameKind kind, NodeId dst, OverhearingMode oh,
                         bool bcast_announce, NetDatagramPtr datagram);
  std::int64_t frame_bits(FrameKind kind, const NetDatagramPtr& d) const;
  sim::Time frame_airtime(FrameKind kind, const NetDatagramPtr& d) const;
  sim::Time ack_timeout_delay() const;
  bool fits_before(sim::Time deadline, sim::Time airtime) const;
  sim::Time next_bi_start() const { return bi_start_ + cfg_.beacon_interval; }

  sim::Simulator& sim_;
  phy::Phy& phy_;
  MacConfig cfg_;
  Rng rng_;
  MacCallbacks* callbacks_ = nullptr;
  PowerPolicy* policy_ = nullptr;
  stats::TelemetryBus* telemetry_ = nullptr;

  // Interface queue and per-BI announcement work.
  std::deque<TxItem> queue_;
  std::deque<Announcement> announcements_;

  // Per-beacon-interval state.
  sim::Time bi_start_ = 0;
  bool started_ = false;
  std::unordered_set<NodeId> acked_dsts_;   // our ATIM was acked by these
  bool bcast_announced_ = false;            // our broadcast ATIM went out
  bool must_awake_rx_ = false;              // we acked an ATIM / broadcast
  bool must_awake_overhear_ = false;        // committed to overhear
  std::unordered_set<NodeId> oh_decided_;   // senders already decided on
  std::unordered_set<NodeId> announce_planned_;  // dsts with an ATIM planned
  bool bcast_announce_planned_ = false;

  // DCF operation in flight.
  DcfState dcf_ = DcfState::kIdle;
  bool op_is_announcement_ = false;
  bool op_immediate_ = false;  // data sent on a believes-awake fast path
  Announcement op_announcement_;
  TxItem op_item_;
  MacFramePtr op_frame_;
  int op_attempts_ = 0;
  int op_cw_ = 0;
  int backoff_slots_ = 0;
  bool counting_down_ = false;
  sim::Time countdown_start_ = 0;
  sim::EventId backoff_event_;
  sim::EventId ack_timeout_event_;
  CurrentTx current_tx_ = CurrentTx::kNone;

  // Pending SIFS responses (ACK / ATIM-ACK).
  std::deque<MacFramePtr> responses_;
  bool response_scheduled_ = false;

  // Consecutive beacon intervals with a failed ATIM, per destination.
  std::unordered_map<NodeId, int> atim_fail_streak_;

  // Receiver-side duplicate filtering (per-sender last sequence number).
  std::unordered_map<NodeId, std::uint32_t> last_seq_;
  std::uint32_t my_seq_ = 0;

  MacStats stats_;
};

}  // namespace rcast::mac
