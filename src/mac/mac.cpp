#include "mac/mac.hpp"

#include <algorithm>

#include "stats/telemetry.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace rcast::mac {

namespace {
constexpr sim::Time kAckMargin = 60 * sim::kMicrosecond;
// Conservative headroom when checking that an exchange fits before a phase
// boundary: covers DIFS plus a full maximum backoff at CWmin.
constexpr sim::Time kFitMargin = 1 * sim::kMillisecond;
}  // namespace

Mac::Mac(sim::Simulator& simulator, phy::Phy& phy, const MacConfig& config,
         Rng rng)
    : sim_(simulator), phy_(phy), cfg_(config), rng_(rng) {
  RCAST_REQUIRE(cfg_.atim_window > 0 &&
                cfg_.atim_window < cfg_.beacon_interval);
  RCAST_REQUIRE(cfg_.retry_limit >= 0);
  phy_.set_listener(this);
}

void Mac::start() {
  RCAST_REQUIRE_MSG(!started_, "Mac::start called twice");
  RCAST_REQUIRE(cfg_.beacon_offset >= 0);
  started_ = true;
  if (cfg_.psm_enabled) {
    bi_start_ = sim_.now() + cfg_.beacon_offset;
    sim_.at(bi_start_, [this] { on_beacon(); });
  }
}

bool Mac::in_atim_window() const {
  if (!cfg_.psm_enabled || !started_) return false;
  if (sim_.now() < bi_start_) return false;  // before the first beacon
  return sim_.now() - bi_start_ < cfg_.atim_window;
}

bool Mac::policy_ps_now() {
  if (!cfg_.psm_enabled) return false;
  if (policy_ == nullptr) return true;
  if (policy_->always_awake()) return false;
  return policy_->ps_mode_now(sim_.now());
}

// --------------------------------------------------------------------------
// Send path
// --------------------------------------------------------------------------

bool Mac::send(NodeId next_hop, NetDatagramPtr pkt, OverhearingMode oh) {
  RCAST_REQUIRE(pkt != nullptr);
  if (phy_.dead()) return false;
  if (queue_.size() >= cfg_.queue_limit) {
    ++stats_.queue_drops;
    if (telemetry_ != nullptr) telemetry_->on_queue_drop(id(), sim_.now());
    return false;
  }
  queue_.push_back(TxItem{std::move(pkt), next_hop, oh, sim_.now()});

  if (!cfg_.psm_enabled) {
    kick();
    return true;
  }

  // A packet arriving mid-window can still be announced in this window.
  if (awake() && in_atim_window()) {
    const TxItem& item = queue_.back();
    if (item.dst == kBroadcastId) {
      if (!bcast_announce_planned_ && !bcast_announced_) {
        bcast_announce_planned_ = true;
        announcements_.push_back(Announcement{kBroadcastId, item.oh});
      }
    } else if (!announce_planned_.count(item.dst) &&
               !acked_dsts_.count(item.dst) &&
               !(policy_ != nullptr &&
                 policy_->believes_awake(item.dst, sim_.now()))) {
      announce_planned_.insert(item.dst);
      announcements_.push_back(Announcement{item.dst, item.oh});
    }
    kick();
    return true;
  }

  if (!awake()) {
    // ODPM fast path: wake up to transmit immediately to a believed-AM
    // neighbor; otherwise stay asleep and announce next beacon interval.
    if (next_hop != kBroadcastId && policy_ != nullptr &&
        policy_->believes_awake(next_hop, sim_.now())) {
      phy_.wake();
      if (telemetry_ != nullptr) telemetry_->on_mac_wake(id(), sim_.now());
      kick();
    }
    return true;
  }

  kick();
  return true;
}

// --------------------------------------------------------------------------
// Beacon interval machinery
// --------------------------------------------------------------------------

void Mac::on_beacon() {
  bi_start_ = sim_.now();
  sim_.after(cfg_.beacon_interval, [this] { on_beacon(); });
  if (phy_.dead()) return;
  sim_.after(cfg_.atim_window, [this] { on_atim_window_end(); });

  // An operation contending across the boundary loses its clearance — but a
  // frame already on the air must finish (its ACK wait re-verifies later).
  if (dcf_ == DcfState::kContending && current_tx_ != CurrentTx::kOp) {
    if (op_is_announcement_) {
      finish_op();
    } else {
      abort_op_requeue();
    }
  }

  acked_dsts_.clear();
  oh_decided_.clear();
  announce_planned_.clear();
  bcast_announced_ = false;
  bcast_announce_planned_ = false;
  must_awake_rx_ = false;
  must_awake_overhear_ = false;

  const bool was_sleeping = phy_.sleeping();
  phy_.wake();
  if (was_sleeping && telemetry_ != nullptr) {
    telemetry_->on_mac_wake(id(), sim_.now());
  }
  rebuild_announcements();
  kick();
}

void Mac::rebuild_announcements() {
  announcements_.clear();
  if (!cfg_.psm_enabled) return;
  // Aggregate queued traffic per destination; announce the strongest
  // requested overhearing level.
  for (const TxItem& item : queue_) {
    if (item.dst == kBroadcastId) {
      if (!bcast_announce_planned_) {
        bcast_announce_planned_ = true;
        announcements_.push_back(Announcement{kBroadcastId, item.oh});
      } else {
        for (auto& a : announcements_) {
          if (a.dst == kBroadcastId) a.oh = std::max(a.oh, item.oh);
        }
      }
      continue;
    }
    if (policy_ != nullptr && policy_->believes_awake(item.dst, sim_.now())) {
      continue;  // fast path, no announcement needed
    }
    if (announce_planned_.insert(item.dst).second) {
      announcements_.push_back(Announcement{item.dst, item.oh});
    } else {
      for (auto& a : announcements_) {
        if (a.dst == item.dst) a.oh = std::max(a.oh, item.oh);
      }
    }
  }
}

void Mac::on_atim_window_end() {
  if (phy_.dead()) return;
  // Unsent announcements forfeit this interval; they are rebuilt next BI.
  // An announcement frame already on the air is left to finish. An aborted
  // announcement that already burned transmission attempts without an ACK
  // counts toward the dead-neighbor streak, otherwise a vanished receiver
  // whose retries straddle the window end is never detected.
  if (dcf_ == DcfState::kContending && op_is_announcement_ &&
      current_tx_ != CurrentTx::kOp) {
    if (op_attempts_ > 0 && op_announcement_.dst != kBroadcastId) {
      ++stats_.atim_failed;
      if (telemetry_ != nullptr) {
        telemetry_->on_atim_failed(id(), op_announcement_.dst, sim_.now());
      }
      on_announcement_failed(op_announcement_.dst);
    }
    finish_op();
  }
  announcements_.clear();

  if (should_stay_awake()) {
    kick();  // data phase begins
  } else {
    maybe_sleep();
  }
}

bool Mac::should_stay_awake() {
  if (!policy_ps_now()) return true;
  if (must_awake_rx_ || must_awake_overhear_) return true;
  if (dcf_ != DcfState::kIdle) return true;  // exchange still resolving
  if (phy_.transmitting() || current_tx_ != CurrentTx::kNone) return true;
  if (response_scheduled_ || !responses_.empty()) return true;
  if (has_eligible_data()) return true;
  return false;
}

void Mac::maybe_sleep() {
  if (!cfg_.psm_enabled || !started_) return;
  if (phy_.dead() || phy_.sleeping()) return;
  if (in_atim_window()) return;
  if (should_stay_awake()) return;
  ++stats_.sleeps;
  if (telemetry_ != nullptr) telemetry_->on_mac_sleep(id(), sim_.now());
  phy_.sleep();
}

bool Mac::has_eligible_data() const {
  return std::any_of(queue_.begin(), queue_.end(), [this](const TxItem& i) {
    return data_item_eligible(i);
  });
}

bool Mac::data_item_eligible(const TxItem& item) const {
  if (!cfg_.psm_enabled) return true;
  if (in_atim_window()) return false;  // only ATIMs contend in the window
  if (item.dst == kBroadcastId) return bcast_announced_;
  if (acked_dsts_.count(item.dst)) return true;
  return policy_ != nullptr && policy_->believes_awake(item.dst, sim_.now());
}

// --------------------------------------------------------------------------
// DCF engine
// --------------------------------------------------------------------------

void Mac::kick() {
  if (!started_ || phy_.dead() || phy_.sleeping()) return;
  if (dcf_ != DcfState::kIdle) return;
  if (current_tx_ != CurrentTx::kNone) return;

  if (cfg_.psm_enabled && in_atim_window()) {
    while (!announcements_.empty()) {
      Announcement a = announcements_.front();
      announcements_.pop_front();
      const sim::Time airtime = frame_airtime(FrameKind::kAtim, nullptr) +
                                cfg_.sifs +
                                frame_airtime(FrameKind::kAtimAck, nullptr);
      if (!fits_before(bi_start_ + cfg_.atim_window, airtime)) continue;
      start_op_announcement(a);
      return;
    }
    return;
  }

  // Data phase (or non-PSM operation): first eligible packet that fits.
  const sim::Time deadline = cfg_.psm_enabled
                                 ? next_bi_start()
                                 : std::numeric_limits<sim::Time>::max();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!data_item_eligible(*it)) continue;
    sim::Time airtime = frame_airtime(FrameKind::kData, it->pkt);
    if (it->dst != kBroadcastId) {
      airtime += cfg_.sifs + frame_airtime(FrameKind::kAck, nullptr);
    }
    if (!fits_before(deadline, airtime)) continue;
    TxItem item = std::move(*it);
    queue_.erase(it);
    stats_.max_queue_residency =
        std::max(stats_.max_queue_residency, sim_.now() - item.enqueued);
    const bool immediate =
        cfg_.psm_enabled && item.dst != kBroadcastId &&
        !acked_dsts_.count(item.dst) && policy_ != nullptr &&
        policy_->believes_awake(item.dst, sim_.now());
    start_op_data(std::move(item), immediate);
    return;
  }
}

bool Mac::fits_before(sim::Time deadline, sim::Time airtime) const {
  if (!cfg_.psm_enabled) return true;
  return sim_.now() + cfg_.difs + airtime + kFitMargin <= deadline;
}

void Mac::start_op_announcement(Announcement a) {
  op_is_announcement_ = true;
  op_immediate_ = false;
  op_announcement_ = a;
  op_frame_ = make_frame(FrameKind::kAtim, a.dst, a.oh,
                         a.dst == kBroadcastId, nullptr);
  op_attempts_ = 0;
  op_cw_ = cfg_.cw_min;
  begin_contention();
}

void Mac::start_op_data(TxItem item, bool immediate) {
  op_is_announcement_ = false;
  op_immediate_ = immediate;
  op_item_ = std::move(item);
  op_frame_ = make_frame(FrameKind::kData, op_item_.dst, op_item_.oh, false,
                         op_item_.pkt);
  op_attempts_ = 0;
  op_cw_ = cfg_.cw_min;
  begin_contention();
}

void Mac::begin_contention() {
  dcf_ = DcfState::kContending;
  backoff_slots_ = static_cast<int>(rng_.uniform_int(0, op_cw_));
  counting_down_ = false;
  resume_contention();
}

void Mac::resume_contention() {
  RCAST_DCHECK(dcf_ == DcfState::kContending);
  if (counting_down_) return;
  if (phy_.transmitting() || phy_.carrier_busy()) return;  // resume on idle
  counting_down_ = true;
  countdown_start_ = sim_.now();
  const sim::Time wait = cfg_.difs + backoff_slots_ * cfg_.slot;
  auto on_expired = [this] { on_backoff_expired(); };
  static_assert(sim::EventQueue::Handler::fits_inline<decltype(on_expired)>());
  backoff_event_ = sim_.after(wait, std::move(on_expired));
}

void Mac::pause_contention() {
  if (!counting_down_) return;
  sim_.cancel(backoff_event_);
  const sim::Time elapsed = sim_.now() - countdown_start_;
  if (elapsed > cfg_.difs) {
    const auto consumed = static_cast<int>((elapsed - cfg_.difs) / cfg_.slot);
    backoff_slots_ = std::max(0, backoff_slots_ - consumed);
  }
  counting_down_ = false;
}

void Mac::on_backoff_expired() {
  counting_down_ = false;
  if (dcf_ != DcfState::kContending) return;
  if (phy_.transmitting() || phy_.carrier_busy()) {
    // e.g. our own SIFS response fired during the countdown; resume when the
    // medium frees up (phy_tx_done / phy_carrier_idle re-enter here).
    return;
  }

  // Re-verify clearance: the window or interval may have rolled over while
  // we were backing off.
  if (op_is_announcement_) {
    if (!in_atim_window()) {
      finish_op();
      return;
    }
  } else if (cfg_.psm_enabled) {
    if (!data_item_eligible(op_item_)) {
      abort_op_requeue();
      return;
    }
  }
  transmit_op_frame();
}

void Mac::transmit_op_frame() {
  if (phy_.dead()) {
    finish_op();
    return;
  }
  if (op_is_announcement_) {
    ++stats_.atim_tx;
    if (telemetry_ != nullptr) {
      telemetry_->on_atim_tx(id(), op_announcement_.dst, sim_.now());
    }
  } else {
    ++stats_.data_tx_attempts;
    if (telemetry_ != nullptr) {
      telemetry_->on_data_tx_attempt(id(), op_item_.dst, sim_.now());
    }
  }
  auto pf = std::make_shared<phy::Frame>();
  pf->tx = id();
  pf->rx = op_frame_->dst;
  pf->bits = frame_bits(op_frame_->kind, op_frame_->datagram);
  pf->payload = op_frame_;
  current_tx_ = CurrentTx::kOp;
  phy_.start_tx(std::move(pf));
}

void Mac::phy_tx_done() {
  if (current_tx_ == CurrentTx::kResponse) {
    current_tx_ = CurrentTx::kNone;
    if (!responses_.empty()) schedule_response();
    if (dcf_ == DcfState::kContending) {
      resume_contention();
    } else {
      kick();
    }
    return;
  }

  RCAST_DCHECK(current_tx_ == CurrentTx::kOp);
  current_tx_ = CurrentTx::kNone;
  if (op_frame_ != nullptr && op_frame_->dst != kBroadcastId) {
    dcf_ = DcfState::kWaitAck;
    ack_timeout_event_ =
        sim_.after(ack_timeout_delay(), [this] { on_ack_timeout(); });
  } else {
    op_success();
  }
}

sim::Time Mac::ack_timeout_delay() const {
  return cfg_.sifs + frame_airtime(FrameKind::kAck, nullptr) + kAckMargin;
}

void Mac::on_ack_timeout() {
  if (dcf_ != DcfState::kWaitAck) return;
  ++op_attempts_;
  if (op_attempts_ > cfg_.retry_limit) {
    op_failure();
    return;
  }
  op_cw_ = std::min(2 * op_cw_ + 1, cfg_.cw_max);
  // Re-verify clearance before re-contending.
  if (op_is_announcement_) {
    if (!in_atim_window()) {
      ++stats_.atim_failed;
      if (telemetry_ != nullptr) {
        telemetry_->on_atim_failed(id(), op_announcement_.dst, sim_.now());
      }
      if (op_announcement_.dst != kBroadcastId) {
        on_announcement_failed(op_announcement_.dst);
      }
      finish_op();
      return;
    }
  } else if (cfg_.psm_enabled && !data_item_eligible(op_item_)) {
    abort_op_requeue();
    return;
  }
  begin_contention();
}

void Mac::op_success() {
  if (op_is_announcement_) {
    if (op_announcement_.dst == kBroadcastId) {
      bcast_announced_ = true;
    } else {
      ++stats_.atim_acked;
      if (telemetry_ != nullptr) {
        telemetry_->on_atim_acked(id(), op_announcement_.dst, sim_.now());
      }
      acked_dsts_.insert(op_announcement_.dst);
      atim_fail_streak_.erase(op_announcement_.dst);
    }
  } else {
    ++stats_.data_tx_ok;
    if (telemetry_ != nullptr) {
      telemetry_->on_data_tx_ok(id(), op_item_.dst, sim_.now());
    }
    if (op_item_.dst != kBroadcastId && callbacks_ != nullptr) {
      callbacks_->mac_tx_ok(op_item_.pkt, op_item_.dst);
    }
  }
  finish_op();
}

void Mac::op_failure() {
  if (op_is_announcement_) {
    ++stats_.atim_failed;
    if (telemetry_ != nullptr) {
      telemetry_->on_atim_failed(id(), op_announcement_.dst, sim_.now());
    }
    if (op_announcement_.dst != kBroadcastId) {
      on_announcement_failed(op_announcement_.dst);
    }
    finish_op();
    return;
  }
  if (op_immediate_) {
    // Our belief that the receiver was in AM was stale: fall back to the
    // announcement path instead of declaring the link broken.
    ++stats_.immediate_fallbacks;
    if (telemetry_ != nullptr) {
      telemetry_->on_immediate_fallback(id(), op_item_.dst, sim_.now());
    }
    if (policy_ != nullptr) policy_->on_immediate_send_failed(op_item_.dst);
    queue_.push_front(std::move(op_item_));
    finish_op();
    return;
  }
  ++stats_.data_tx_failed;
  if (telemetry_ != nullptr) {
    telemetry_->on_data_tx_failed(id(), op_item_.dst, sim_.now());
  }
  if (callbacks_ != nullptr) {
    callbacks_->mac_tx_failed(op_item_.pkt, op_item_.dst);
  }
  finish_op();
}

void Mac::on_announcement_failed(NodeId dst) {
  const int streak = ++atim_fail_streak_[dst];
  if (streak < cfg_.atim_fail_limit) return;
  atim_fail_streak_.erase(dst);
  // The neighbor has been unreachable for several beacon intervals: surface
  // a link failure for everything queued to it so DSR can repair the route.
  std::vector<TxItem> failed;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->dst == dst) {
      failed.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  for (TxItem& item : failed) {
    ++stats_.data_tx_failed;
    if (telemetry_ != nullptr) {
      telemetry_->on_data_tx_failed(id(), dst, sim_.now());
    }
    if (callbacks_ != nullptr) callbacks_->mac_tx_failed(item.pkt, dst);
  }
}

void Mac::abort_op_requeue() {
  RCAST_DCHECK(!op_is_announcement_);
  queue_.push_front(std::move(op_item_));
  finish_op();
}

void Mac::finish_op() {
  dcf_ = DcfState::kIdle;
  counting_down_ = false;
  sim_.cancel(backoff_event_);
  sim_.cancel(ack_timeout_event_);
  op_frame_.reset();
  op_item_ = TxItem{};
  kick();
}

// --------------------------------------------------------------------------
// Receive path
// --------------------------------------------------------------------------

void Mac::phy_rx_ok(const phy::FramePtr& frame) {
  const auto* mf = static_cast<const MacFrame*>(frame->payload.get());
  RCAST_DCHECK(mf != nullptr);
  if (policy_ != nullptr) policy_->on_frame_decoded(*mf, sim_.now());

  switch (mf->kind) {
    case FrameKind::kAtim:
      handle_atim(*mf);
      break;
    case FrameKind::kAtimAck:
      if (mf->dst == id()) handle_atim_ack(*mf);
      break;
    case FrameKind::kData:
      handle_data(*mf);
      break;
    case FrameKind::kAck:
      if (mf->dst == id()) handle_ack(*mf);
      break;
  }
}

void Mac::handle_atim(const MacFrame& frame) {
  if (frame.bcast_announce) {
    // Broadcast announcement: standard PSM keeps everyone awake; the Rcast
    // broadcast extension randomizes the decision.
    const bool stay = frame.oh != OverhearingMode::kRandomized ||
                      policy_ == nullptr ||
                      policy_->should_receive_broadcast(frame.src, sim_.now());
    if (stay) must_awake_rx_ = true;
    return;
  }

  if (frame.dst == id()) {
    must_awake_rx_ = true;
    send_response(FrameKind::kAtimAck, frame.src);
    return;
  }

  // An advertisement for someone else: the Rcast decision point.
  ++stats_.atim_heard_other;
  if (frame.oh == OverhearingMode::kNone) return;
  if (!oh_decided_.insert(frame.src).second) return;  // one draw per BI
  bool commit = false;
  if (frame.oh == OverhearingMode::kUnconditional) {
    commit = true;
  } else if (policy_ != nullptr) {
    commit = policy_->should_overhear(frame.src, frame.oh, sim_.now());
  }
  if (commit) {
    must_awake_overhear_ = true;
    ++stats_.overhear_commits;
    if (telemetry_ != nullptr) {
      telemetry_->on_overhear_commit(id(), frame.src, frame.oh, sim_.now());
    }
  } else {
    ++stats_.overhear_declines;
    if (telemetry_ != nullptr) {
      telemetry_->on_overhear_decline(id(), frame.src, frame.oh, sim_.now());
    }
  }
}

void Mac::handle_atim_ack(const MacFrame& frame) {
  if (dcf_ != DcfState::kWaitAck || !op_is_announcement_) return;
  if (frame.src != op_frame_->dst) return;
  sim_.cancel(ack_timeout_event_);
  op_success();
}

void Mac::handle_ack(const MacFrame& frame) {
  if (dcf_ != DcfState::kWaitAck || op_is_announcement_) return;
  if (frame.src != op_frame_->dst) return;
  sim_.cancel(ack_timeout_event_);
  op_success();
}

void Mac::handle_data(const MacFrame& frame) {
  if (frame.dst == id()) {
    send_response(FrameKind::kAck, frame.src);  // ACK even duplicates
    if (duplicate_filter(frame.src, frame.seq)) {
      ++stats_.data_duplicates;
      return;
    }
    ++stats_.data_delivered;
    if (callbacks_ != nullptr) {
      callbacks_->mac_deliver(frame.datagram, frame.src);
    }
    return;
  }
  if (frame.dst == kBroadcastId) {
    if (duplicate_filter(frame.src, frame.seq)) {
      ++stats_.data_duplicates;
      return;
    }
    ++stats_.data_delivered;
    if (callbacks_ != nullptr) {
      callbacks_->mac_deliver(frame.datagram, frame.src);
    }
    return;
  }
  // Someone else's unicast, decoded while awake: the overhearing tap.
  if (duplicate_filter(frame.src, frame.seq)) return;
  ++stats_.data_overheard;
  if (callbacks_ != nullptr) {
    callbacks_->mac_overhear(frame.datagram, frame.src, frame.dst);
  }
}

bool Mac::duplicate_filter(NodeId src, std::uint32_t seq) {
  auto [it, inserted] = last_seq_.try_emplace(src, seq);
  if (inserted) return false;
  if (seq <= it->second) return true;
  it->second = seq;
  return false;
}

void Mac::send_response(FrameKind kind, NodeId dst) {
  responses_.push_back(make_frame(kind, dst, OverhearingMode::kNone, false,
                                  nullptr));
  if (!response_scheduled_) schedule_response();
}

void Mac::schedule_response() {
  response_scheduled_ = true;
  sim_.after(cfg_.sifs, [this] {
    response_scheduled_ = false;
    fire_response();
  });
}

void Mac::fire_response() {
  if (responses_.empty()) return;
  if (phy_.sleeping() || phy_.dead()) {
    responses_.clear();
    return;
  }
  if (phy_.transmitting()) {
    schedule_response();
    return;
  }
  MacFramePtr resp = responses_.front();
  responses_.pop_front();
  auto pf = std::make_shared<phy::Frame>();
  pf->tx = id();
  pf->rx = resp->dst;
  pf->bits = frame_bits(resp->kind, nullptr);
  pf->payload = resp;
  current_tx_ = CurrentTx::kResponse;
  phy_.start_tx(std::move(pf));
}

void Mac::phy_carrier_busy() {
  if (dcf_ == DcfState::kContending) pause_contention();
}

void Mac::phy_carrier_idle() {
  if (dcf_ == DcfState::kContending) resume_contention();
}

// --------------------------------------------------------------------------
// Frame construction
// --------------------------------------------------------------------------

MacFramePtr Mac::make_frame(FrameKind kind, NodeId dst, OverhearingMode oh,
                            bool bcast_announce, NetDatagramPtr datagram) {
  auto f = std::make_shared<MacFrame>();
  f->kind = kind;
  f->src = id();
  f->dst = dst;
  f->oh = oh;
  f->bcast_announce = bcast_announce;
  f->datagram = std::move(datagram);
  f->pwr_mgt_am = !policy_ps_now();
  if (kind == FrameKind::kData || kind == FrameKind::kAtim) {
    f->seq = ++my_seq_;
  }
  return f;
}

std::int64_t Mac::frame_bits(FrameKind kind, const NetDatagramPtr& d) const {
  switch (kind) {
    case FrameKind::kData:
      RCAST_DCHECK(d != nullptr);
      return cfg_.preamble_bits + cfg_.data_header_bits + d->size_bits();
    case FrameKind::kAck:
    case FrameKind::kAtimAck:
      return cfg_.preamble_bits + cfg_.ack_bits;
    case FrameKind::kAtim:
      return cfg_.preamble_bits + cfg_.atim_bits;
  }
  return cfg_.preamble_bits;
}

sim::Time Mac::frame_airtime(FrameKind kind, const NetDatagramPtr& d) const {
  return phy_.channel().duration_of(frame_bits(kind, d));
}

}  // namespace rcast::mac
