// Shared wireless channel.
//
// Reception model (see DESIGN.md §2): with fixed transmit power, ns-2's
// two-ray ground propagation reduces to two deterministic thresholds — a
// reception range (250 m) and a carrier-sense/interference range (550 m).
// A frame is decodable by an awake radio iff the radio is within reception
// range and no other signal (within interference range) overlaps it in time
// at that radio; there is no capture. Propagation delay is distance / c.
//
// Scaling (DESIGN.md §12): the sensed set per transmission comes straight
// from the mobility layer's allocation-free range query, and in-flight
// transmissions are bucketed into a per-channel uniform grid of
// carrier-sense cells (cell size = cs_range) with a per-cell max-busy-until
// aggregate, so sensed_busy_until inspects only the <= 3x3 cells overlapping
// the carrier-sense disc instead of the global in-flight list.
//
// Fan-out (DESIGN.md §17): transmit() walks the sensed set once, in the
// spatial query's grid order, and writes every sensed receiver into one
// pooled fan-out record per frame (the record owns the frame). A sensed
// arrival is two events, its start and its end, and the record delivers a
// frame's starts and its ends as two streams of one queue entry each:
// receivers sorted by (propagation delay, grid order), run under the
// sequence numbers that one at() call per event would have taken, so every
// event runs at the same time and in the same order as if pushed on its
// own. The end that empties a radio's arrival set also closes its
// carrier-busy period.
//
// Sharded runs (DESIGN.md §15): every piece of per-transmission mutable
// state — the cs-cell grid, the stats, the arrival-id stream, the fan-out
// record pool — is replicated per shard, so transmit() and
// sensed_busy_until() touch only the calling shard's replica. Receivers
// homed on the transmitting shard take the streams; receivers homed on
// other shards get a start/end closure pair as cross-shard posts (delivered
// at the next barrier, clamped to the window end), and a ghost busy-marker
// is posted to every remote shard that had a receiver in the sensed set so
// its carrier-sense replica reflects the transmission. Arrival-id streams
// are seeded shard << 56: disjoint and per-run deterministic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/mobility_manager.hpp"
#include "phy/frame.hpp"
#include "sim/simulator.hpp"

namespace rcast::phy {

struct ChannelConfig {
  double tx_range_m = 250.0;  // reception threshold (two-ray, WaveLAN)
  double cs_range_m = 550.0;  // carrier-sense / interference threshold
  std::int64_t bitrate_bps = 2'000'000;
  /// Capture threshold in dB (ns-2 CPThresh default: 10). A locked
  /// reception survives an overlapping arrival whose signal is at least
  /// this much weaker; under two-ray d^-4 path loss that means the
  /// interferer is farther than 10^(dB/40) times the signal distance.
  /// <= 0 disables capture (any overlap within cs range corrupts).
  double capture_db = 10.0;
};

class Phy;

/// Aggregate channel-level counters for a run.
struct ChannelStats {
  std::uint64_t frames_transmitted = 0;
  std::uint64_t bits_transmitted = 0;
  /// Carrier-sense cells inspected across all sensed_busy_until calls (the
  /// cell-aggregated replacement for scanning the whole in-flight list).
  std::uint64_t cs_cells_visited = 0;
  /// In-flight entries distance-checked inside those cells.
  std::uint64_t cs_entries_scanned = 0;
  /// The PHY fan-out: one per arrival transmit() schedules, i.e. per sensed
  /// receiver per frame, whether it rides the frame's fan-out streams on the
  /// transmitting shard or is posted to the receiver's home shard. Each is
  /// one start/end event pair.
  std::uint64_t arrival_records = 0;
};

class Channel {
 public:
  Channel(sim::Simulator& simulator, mobility::MobilityManager& mobility,
          const ChannelConfig& config);

  const ChannelConfig& config() const { return cfg_; }
  std::int64_t bitrate() const { return cfg_.bitrate_bps; }

  /// Interferer-over-signal distance ratio above which a locked reception
  /// survives (10^(capture_db/40) under two-ray d^-4); 0 when capture is
  /// disabled. Precomputed once — it sits on the arrival hot path.
  double capture_ratio() const { return capture_ratio_; }

  /// Registers a radio; its node id indexes into the mobility manager.
  void attach(Phy* phy);

  /// Sharded runs only: node -> home shard, set by the scenario layer after
  /// partitioning and before any node schedules events. Receivers whose home
  /// shard differs from the transmitter's get their arrivals via
  /// cross-shard posts.
  void set_shard_map(std::vector<std::uint32_t> node_shard);

  /// Serialization time of a frame of `bits` on this channel.
  sim::Time duration_of(std::int64_t bits) const {
    return sim::tx_duration(bits, cfg_.bitrate_bps);
  }

  /// Called by a Phy to put a frame on the air. Computes the sensed set at
  /// transmission start and schedules arrival start/end at each radio.
  void transmit(FramePtr frame, sim::Time duration);

  /// Latest end time (including propagation) of any in-flight transmission
  /// whose signal reaches `pos`; used when a radio wakes mid-transmission.
  /// Sharded runs consult only the calling shard's replica.
  sim::Time sensed_busy_until(geo::Vec2 pos) const;

  /// Current neighbor count of a node within reception range (topology
  /// truth; protocol code should prefer the passive NeighborTable).
  std::size_t neighbor_count(NodeId id) const;

  /// Current exact position of a node (forwarded from the mobility layer).
  geo::Vec2 position_of(NodeId id) const;

  /// Aggregated counters (summed across shard replicas in shard order).
  ChannelStats stats() const;

  /// Live in-flight entries across all carrier-sense cells and shards
  /// (expired entries are pruned lazily, so this is an upper bound on the
  /// active count).
  std::size_t in_flight_size() const;

 private:
  struct InFlight {
    geo::Vec2 tx_pos;
    sim::Time end;  // end of serialization at the transmitter
  };
  /// One carrier-sense cell: the in-flight transmissions whose transmitter
  /// sits in this cell, plus the max serialization-end over them. The max is
  /// an upper bound between prunes; entries expire lazily on insert sweeps.
  struct CsCell {
    std::vector<InFlight> entries;
    sim::Time max_end = 0;
  };
  /// One sensed receiver of a frame, delivered by its fan-out streams.
  struct Receiver {
    Phy* phy;
    std::uint64_t arrival_id;
    double distance_m;
    sim::Time delay;     // propagation delay
    std::uint32_t order;  // grid-order index among the frame's receivers
    bool in_rx_range;
  };
  /// A frame's local fan-out, sorted by (delay, order), and its two
  /// streams' positions. Receiver i's start runs at (sent_at + delay,
  /// base_seq + 2 * order) and its end a frame duration later under the
  /// next seq: the keys one at() call per event would have taken. Ends
  /// follow starts (duration > 0), so the end stream finishes the record.
  struct FanOut {
    FramePtr frame;
    sim::Time sent_at = 0;
    sim::Time duration = 0;
    std::uint64_t base_seq = 0;
    std::uint32_t next_start = 0;
    std::uint32_t next_end = 0;
    std::vector<Receiver> rx;

    sim::Time time_of(std::size_t i, bool end) const {
      return sent_at + rx[i].delay + (end ? duration : 0);
    }
    std::uint64_t seq_of(std::size_t i, bool end) const {
      return base_seq + 2 * std::uint64_t{rx[i].order} + (end ? 1 : 0);
    }
  };
  /// Per-shard replica of all per-transmission mutable state; exactly one
  /// in single-queue mode. Padded so neighboring shards' hot counters never
  /// share a cache line.
  struct alignas(64) ShardState {
    std::vector<CsCell> cs_cells;
    std::uint64_t next_arrival_id = 0;
    ChannelStats stats;
    /// Every fan-out record this shard made (they own their frames, so a
    /// teardown with streams pending frees them here; the queue's stream
    /// closures hold raw pointers and are destroyed uncalled), and the idle
    /// ones. Filled by transmit(), so building a Channel allocates none.
    std::vector<std::unique_ptr<FanOut>> fanouts;
    std::vector<FanOut*> idle_fanouts;
  };

  std::uint32_t cs_cell_of(geo::Vec2 p) const;
  void add_in_flight(ShardState& st, geo::Vec2 tx_pos, sim::Time end);
  ShardState& local_state() const { return state_[sim_.current_shard()]; }
  FanOut& acquire_fanout(ShardState& st);
  /// A record's start stream (ends = false) or end stream: enter_stream
  /// queues its next receiver's key; run_stream delivers that receiver and
  /// every later one the simulator lets it claim, then re-enters the queue
  /// or, after the last end, returns the record to the pool.
  void enter_stream(FanOut& fan, bool ends);
  void run_stream(FanOut& fan, bool ends);

  sim::Simulator& sim_;
  mobility::MobilityManager& mobility_;
  ChannelConfig cfg_;
  double capture_ratio_ = 0.0;
  bool sharded_ = false;
  std::vector<Phy*> phys_;
  std::vector<std::uint32_t> node_shard_;  // empty in single-queue mode

  // Carrier-sense cell grid geometry (same clamped-cell scheme as
  // geo::GridIndex); the cells themselves live in the shard replicas.
  double cs_cell_size_ = 0.0;
  std::uint32_t cs_cols_ = 0;
  std::uint32_t cs_rows_ = 0;
  sim::Time max_prop_ = 0;  // propagation delay across cs_range

  mutable std::vector<ShardState> state_;
};

}  // namespace rcast::phy
