#include "phy/channel.hpp"

#include <algorithm>
#include <cmath>

#include "phy/phy.hpp"
#include "util/assert.hpp"

namespace rcast::phy {

namespace {

// Propagation delay: distance / c. In nanoseconds, c ≈ 0.3 m/ns.
sim::Time propagation_delay(double meters) {
  return static_cast<sim::Time>(meters / 0.299792458);
}

// Expired in-flight entries are harmless to keep around (their busy window
// lies in the past — see the horizon note in add_in_flight), so pruning only
// has to bound each cell, not keep it exact: sweep a cell when it grows past
// the watermark.
constexpr std::size_t kCellPruneWatermark = 32;

}  // namespace

Channel::Channel(sim::Simulator& simulator,
                 mobility::MobilityManager& mobility,
                 const ChannelConfig& config)
    : sim_(simulator),
      mobility_(mobility),
      cfg_(config),
      sharded_(simulator.sharded()) {
  RCAST_REQUIRE(cfg_.tx_range_m > 0.0);
  RCAST_REQUIRE(cfg_.cs_range_m >= cfg_.tx_range_m);
  RCAST_REQUIRE(cfg_.bitrate_bps > 0);
  capture_ratio_ =
      cfg_.capture_db > 0.0 ? std::pow(10.0, cfg_.capture_db / 40.0) : 0.0;

  // Carrier-sense cells sized to the cs range: a disc of that radius always
  // fits in <= 3x3 cells. Same geometry/clamping as geo::GridIndex so
  // positions slightly outside the world land in edge cells.
  const geo::Rect& world = mobility.world();
  cs_cell_size_ = cfg_.cs_range_m;
  cs_cols_ = static_cast<std::uint32_t>(
                 std::ceil(world.width / cs_cell_size_)) + 1;
  cs_rows_ = static_cast<std::uint32_t>(
                 std::ceil(world.height / cs_cell_size_)) + 1;
  max_prop_ = propagation_delay(cfg_.cs_range_m);

  state_.resize(simulator.shard_count());
  for (std::size_t k = 0; k < state_.size(); ++k) {
    state_[k].cs_cells.resize(static_cast<std::size_t>(cs_cols_) * cs_rows_);
    // Disjoint per-shard id streams (ids only need to be unique per
    // receiving Phy, but disjoint streams keep them globally unique and
    // run-for-run deterministic regardless of worker interleaving).
    state_[k].next_arrival_id = static_cast<std::uint64_t>(k) << 56;
  }
}

void Channel::attach(Phy* phy) {
  RCAST_REQUIRE(phy != nullptr);
  const NodeId id = phy->id();
  if (id >= phys_.size()) phys_.resize(id + 1, nullptr);
  RCAST_REQUIRE_MSG(phys_[id] == nullptr, "duplicate phy for node");
  phys_[id] = phy;
}

void Channel::set_shard_map(std::vector<std::uint32_t> node_shard) {
  RCAST_REQUIRE(sharded_);
  for (const std::uint32_t s : node_shard) {
    RCAST_REQUIRE(s < state_.size());
  }
  node_shard_ = std::move(node_shard);
}

std::uint32_t Channel::cs_cell_of(geo::Vec2 p) const {
  const geo::Rect& world = mobility_.world();
  const double cx = std::clamp(p.x, 0.0, world.width);
  const double cy = std::clamp(p.y, 0.0, world.height);
  const auto col = static_cast<std::uint32_t>(cx / cs_cell_size_);
  const auto row = static_cast<std::uint32_t>(cy / cs_cell_size_);
  return row * cs_cols_ + col;
}

void Channel::add_in_flight(ShardState& st, geo::Vec2 tx_pos, sim::Time end) {
  CsCell& cell = st.cs_cells[cs_cell_of(tx_pos)];
  if (cell.entries.size() >= kCellPruneWatermark) {
    // An entry can only still matter while end + propagation >= now, and
    // propagation within cs range is bounded by max_prop_; anything older
    // produced a busy window entirely in the past.
    const sim::Time horizon = sim_.now() - (max_prop_ + sim::kMicrosecond);
    std::erase_if(cell.entries,
                  [horizon](const InFlight& f) { return f.end < horizon; });
    cell.max_end = 0;
    for (const InFlight& f : cell.entries) {
      cell.max_end = std::max(cell.max_end, f.end);
    }
  }
  cell.entries.push_back(InFlight{tx_pos, end});
  cell.max_end = std::max(cell.max_end, end);
}

void Channel::transmit(FramePtr frame, sim::Time duration) {
  RCAST_REQUIRE(frame != nullptr);
  RCAST_REQUIRE(duration > 0);

  const geo::Vec2 tx_pos = mobility_.position(frame->tx);
  const sim::Time now = sim_.now();
  const std::size_t here = sim_.current_shard();
  ShardState& local = state_[here];

  ++local.stats.frames_transmitted;
  local.stats.bits_transmitted += static_cast<std::uint64_t>(frame->bits);

  add_in_flight(local, tx_pos, now + duration);

  // Fan out to every radio that senses the frame, straight from the spatial
  // query (no intermediate result list): the callback fires in deterministic
  // grid order with the exact squared distance already computed. Receivers
  // homed here go into the frame's fan-out record; a receiver homed on
  // another shard gets its own start/end closure pair, posted there. The
  // start closure holds a frame reference and moves it into the Phy's
  // arrival record; the end closure names the record by id.
  const double rx2 = cfg_.tx_range_m * cfg_.tx_range_m;
  std::uint64_t remote_mask = 0;  // home shards with a remote receiver
  FanOut* fan = nullptr;          // taken on the first local receiver
  mobility_.for_each_within(
      tx_pos, cfg_.cs_range_m, frame->tx, [&](NodeId r, double d2) {
        if (r >= phys_.size() || phys_[r] == nullptr) return;
        Phy* phy = phys_[r];
        const bool in_rx_range = d2 <= rx2;
        const double dist = std::sqrt(d2);
        const sim::Time delay = propagation_delay(dist);
        const std::uint64_t arrival_id = ++local.next_arrival_id;
        ++local.stats.arrival_records;
        if (sharded_ && node_shard_[r] != here) {
          const sim::Time start = now + delay;
          const sim::Time end = start + duration;
          auto on_start = [phy, arrival_id, frame, in_rx_range, dist,
                           end]() mutable {
            phy->arrival_start(arrival_id, std::move(frame), in_rx_range,
                               dist, end);
          };
          // Posted per remote receiver per frame; must never spill to the
          // heap (kEventInlineCapacity is sized for it).
          static_assert(
              sim::EventQueue::Handler::fits_inline<decltype(on_start)>());
          const std::uint32_t home = node_shard_[r];
          remote_mask |= std::uint64_t{1} << home;
          sim_.post(home, start, std::move(on_start));
          sim_.post(home, end,
                    [phy, arrival_id] { phy->arrival_end(arrival_id); });
          return;
        }
        if (fan == nullptr) fan = &acquire_fanout(local);
        fan->rx.push_back(Receiver{phy, arrival_id, dist, delay,
                                   static_cast<std::uint32_t>(fan->rx.size()),
                                   in_rx_range});
      });

  if (fan != nullptr) {
    // Reserve the two keys per receiver that per-receiver at() calls would
    // have taken here, in grid order, then enter each stream at its first.
    std::sort(fan->rx.begin(), fan->rx.end(),
              [](const Receiver& a, const Receiver& b) {
                return a.delay != b.delay ? a.delay < b.delay
                                          : a.order < b.order;
              });
    fan->frame = std::move(frame);
    fan->sent_at = now;
    fan->duration = duration;
    fan->base_seq = sim_.reserve_seqs(2 * fan->rx.size());
    enter_stream(*fan, false);
    enter_stream(*fan, true);
  }

  if (remote_mask != 0) {
    // Ghost busy-marker: every remote shard with a sensed receiver mirrors
    // this transmission into its own carrier-sense replica, so a radio
    // waking there mid-frame still senses it. Arrives clamped to the window
    // end — the same bounded deferral as the arrivals themselves.
    const sim::Time tx_end = now + duration;
    for (std::size_t m = 0; remote_mask != 0; ++m, remote_mask >>= 1) {
      if ((remote_mask & 1) == 0) continue;
      sim_.post(m, now, [this, tx_pos, tx_end] {
        add_in_flight(local_state(), tx_pos, tx_end);
      });
    }
  }
}

Channel::FanOut& Channel::acquire_fanout(ShardState& st) {
  if (st.idle_fanouts.empty()) {
    st.fanouts.push_back(std::make_unique<FanOut>());
    return *st.fanouts.back();
  }
  FanOut* fan = st.idle_fanouts.back();
  st.idle_fanouts.pop_back();
  return *fan;
}

void Channel::enter_stream(FanOut& fan, bool ends) {
  const std::uint32_t i = ends ? fan.next_end : fan.next_start;
  sim_.at_seq(fan.time_of(i, ends), fan.seq_of(i, ends),
              [this, &fan, ends] { run_stream(fan, ends); });
}

void Channel::run_stream(FanOut& fan, bool ends) {
  std::uint32_t& next = ends ? fan.next_end : fan.next_start;
  for (;;) {
    const Receiver& r = fan.rx[next];
    if (ends) {
      r.phy->arrival_end(r.arrival_id);
    } else {
      r.phy->arrival_start(r.arrival_id, fan.frame, r.in_rx_range,
                           r.distance_m, fan.time_of(next, true));
    }
    if (++next == fan.rx.size()) break;
    if (!sim_.claim(fan.time_of(next, ends), fan.seq_of(next, ends))) {
      enter_stream(fan, ends);
      return;
    }
  }
  if (!ends) return;
  // The last end runs after the last start: the record is done.
  RCAST_DCHECK(fan.next_start == fan.rx.size());
  fan.frame.reset();
  fan.rx.clear();
  fan.next_start = 0;
  fan.next_end = 0;
  local_state().idle_fanouts.push_back(&fan);
}

sim::Time Channel::sensed_busy_until(geo::Vec2 pos) const {
  sim::Time latest = 0;
  ShardState& st = local_state();
  const double cs2 = cfg_.cs_range_m * cfg_.cs_range_m;
  const auto col_lo = static_cast<std::int64_t>(
      std::floor((pos.x - cfg_.cs_range_m) / cs_cell_size_));
  const auto col_hi = static_cast<std::int64_t>(
      std::floor((pos.x + cfg_.cs_range_m) / cs_cell_size_));
  const auto row_lo = static_cast<std::int64_t>(
      std::floor((pos.y - cfg_.cs_range_m) / cs_cell_size_));
  const auto row_hi = static_cast<std::int64_t>(
      std::floor((pos.y + cfg_.cs_range_m) / cs_cell_size_));
  for (std::int64_t row = std::max<std::int64_t>(0, row_lo);
       row <= std::min<std::int64_t>(cs_rows_ - 1, row_hi); ++row) {
    for (std::int64_t col = std::max<std::int64_t>(0, col_lo);
         col <= std::min<std::int64_t>(cs_cols_ - 1, col_hi); ++col) {
      const CsCell& cell =
          st.cs_cells[static_cast<std::size_t>(row) * cs_cols_ + col];
      ++st.stats.cs_cells_visited;
      if (cell.entries.empty()) continue;
      // Every arrival-end in this cell is <= max_end + max_prop_: skip the
      // scan when even that bound cannot beat the current maximum.
      if (cell.max_end + max_prop_ <= latest) continue;
      for (const InFlight& f : cell.entries) {
        ++st.stats.cs_entries_scanned;
        const double d2 = geo::distance_sq(f.tx_pos, pos);
        if (d2 > cs2) continue;
        const sim::Time arrival_end =
            f.end + propagation_delay(std::sqrt(d2));
        latest = std::max(latest, arrival_end);
      }
    }
  }
  return latest;
}

std::size_t Channel::neighbor_count(NodeId id) const {
  return mobility_.count_neighbors(id, cfg_.tx_range_m);
}

std::size_t Channel::in_flight_size() const {
  std::size_t n = 0;
  for (const ShardState& st : state_) {
    for (const CsCell& cell : st.cs_cells) n += cell.entries.size();
  }
  return n;
}

geo::Vec2 Channel::position_of(NodeId id) const {
  return mobility_.position(id);
}

ChannelStats Channel::stats() const {
  ChannelStats total;
  for (const ShardState& st : state_) {
    total.frames_transmitted += st.stats.frames_transmitted;
    total.bits_transmitted += st.stats.bits_transmitted;
    total.cs_cells_visited += st.stats.cs_cells_visited;
    total.cs_entries_scanned += st.stats.cs_entries_scanned;
    total.arrival_records += st.stats.arrival_records;
  }
  return total;
}

}  // namespace rcast::phy
