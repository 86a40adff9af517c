// Shared MAC-layer types: frame formats, the overhearing levels Rcast adds
// to the ATIM subtype field, and the interfaces the MAC exposes upward (to
// the network layer) and sideways (to the power-management policy).
#pragma once

#include <cstdint>
#include <memory>

#include "phy/frame.hpp"
#include "sim/time.hpp"

namespace rcast::mac {

using phy::kBroadcastId;
using phy::NodeId;

/// Rcast overhearing levels, encoded in the ATIM frame subtype (paper §3.2):
/// 1001 = standard ATIM (no overhearing), 1110 = randomized, 1111 =
/// unconditional (two reserved management subtypes).
enum class OverhearingMode : std::uint8_t {
  kNone = 0,           // subtype 1001 — only the addressed receiver wakes
  kRandomized = 1,     // subtype 1110 — neighbors overhear with prob. P_R
  kUnconditional = 2,  // subtype 1111 — every neighbor stays awake
};

constexpr const char* to_string(OverhearingMode m) {
  switch (m) {
    case OverhearingMode::kNone:
      return "none";
    case OverhearingMode::kRandomized:
      return "randomized";
    case OverhearingMode::kUnconditional:
      return "unconditional";
  }
  return "?";
}

enum class FrameKind : std::uint8_t {
  kData = 0,
  kAck = 1,
  kAtim = 2,
  kAtimAck = 3,
};

/// Base class for network-layer packets carried in MAC data frames. The MAC
/// treats them opaquely; it only needs the on-air size.
struct NetDatagram {
  virtual ~NetDatagram() = default;
  virtual std::int64_t size_bits() const = 0;
};

using NetDatagramPtr = std::shared_ptr<const NetDatagram>;

/// A MAC frame as carried through the PHY.
struct MacFrame : phy::Payload {
  FrameKind kind = FrameKind::kData;
  NodeId src = 0;
  NodeId dst = kBroadcastId;
  /// IEEE 802.11 PwrMgt bit: the mode (AM=true / PS=false) the sender will
  /// be in after this exchange. ODPM learns neighbor modes from it.
  bool pwr_mgt_am = false;
  /// For ATIM frames: requested overhearing level (the Rcast subtype).
  OverhearingMode oh = OverhearingMode::kNone;
  /// For ATIM frames: true if this announces buffered broadcast traffic.
  bool bcast_announce = false;
  /// Sender-local sequence number (duplicate filtering at the receiver).
  std::uint32_t seq = 0;
  /// Network payload; non-null iff kind == kData.
  NetDatagramPtr datagram;
};

using MacFramePtr = std::shared_ptr<const MacFrame>;

/// Events the routing layer reports to the power policy (ODPM keeps a node
/// in AM for a timeout after these; see Zheng & Kravets).
enum class RoutingEvent : std::uint8_t {
  kRrepReceived,
  kDataReceived,    // as final destination
  kDataForwarded,   // as intermediate hop
  kDataSent,        // as source
  kDataOverheard,   // someone else's data decoded while awake
};

/// Power-management policy: tells the MAC when to sleep and whether to
/// overhear. Implementations: AlwaysOnPolicy (plain 802.11), PsmPolicy
/// (PSM with fixed no/unconditional overhearing), OdpmPolicy, RcastPolicy.
class PowerPolicy {
 public:
  virtual ~PowerPolicy() = default;

  /// Plain-802.11 mode: no PSM structure at all, radio never sleeps.
  virtual bool always_awake() const { return false; }

  /// True if the node currently operates in PS mode (sleeps outside the
  /// ATIM window when idle). ODPM returns false while an AM timeout runs.
  virtual bool ps_mode_now(sim::Time now) {
    (void)now;
    return true;
  }

  /// Overhearing decision upon hearing a unicast ATIM addressed to another
  /// node, per the announced level. Called at most once per (sender, beacon
  /// interval); true commits the node to stay awake for this interval.
  virtual bool should_overhear(NodeId sender, OverhearingMode mode,
                               sim::Time now) = 0;

  /// Decision upon hearing a broadcast-announce ATIM. Standard PSM: always
  /// stay awake; the Rcast broadcast extension randomizes this.
  virtual bool should_receive_broadcast(NodeId sender, sim::Time now) {
    (void)sender;
    (void)now;
    return true;
  }

  /// True if `neighbor` is believed to be awake in AM right now, in which
  /// case the MAC may transmit to it immediately without an ATIM (ODPM).
  virtual bool believes_awake(NodeId neighbor, sim::Time now) {
    (void)neighbor;
    (void)now;
    return false;
  }

  /// Called when an immediate (non-ATIM) transmission to a believed-AM
  /// neighbor exhausted its retries — the belief was stale.
  virtual void on_immediate_send_failed(NodeId neighbor) { (void)neighbor; }

  /// Every cleanly decoded frame is reported here (PwrMgt-bit learning,
  /// passive neighbor discovery).
  virtual void on_frame_decoded(const MacFrame& frame, sim::Time now) {
    (void)frame;
    (void)now;
  }

  /// Routing-layer events (ODPM AM timeouts).
  virtual void on_routing_event(RoutingEvent ev, sim::Time now) {
    (void)ev;
    (void)now;
  }
};

/// Upward interface: the network layer (DSR) implements this.
class MacCallbacks {
 public:
  virtual ~MacCallbacks() = default;

  /// A data frame addressed to this node (or broadcast) was received.
  virtual void mac_deliver(const NetDatagramPtr& pkt, NodeId from) = 0;

  /// A data frame addressed to another node was decoded while awake —
  /// the overhearing tap that feeds DSR's route cache.
  virtual void mac_overhear(const NetDatagramPtr& pkt, NodeId from,
                            NodeId to) = 0;

  /// Unicast transmission to `next_hop` succeeded (ACK received).
  virtual void mac_tx_ok(const NetDatagramPtr& pkt, NodeId next_hop) = 0;

  /// Unicast transmission to `next_hop` failed after all retries — DSR
  /// treats this as a broken link (RERR).
  virtual void mac_tx_failed(const NetDatagramPtr& pkt, NodeId next_hop) = 0;
};

/// Protocol timing and size constants (IEEE 802.11 DSSS at 2 Mbps).
struct MacConfig {
  sim::Time beacon_interval = 250 * sim::kMillisecond;  // paper
  sim::Time atim_window = 50 * sim::kMillisecond;       // paper
  sim::Time slot = 20 * sim::kMicrosecond;
  sim::Time sifs = 10 * sim::kMicrosecond;
  sim::Time difs = 50 * sim::kMicrosecond;
  int cw_min = 31;
  int cw_max = 1023;
  int retry_limit = 7;
  std::int64_t data_header_bits = 28 * 8;  // MAC header + FCS
  std::int64_t ack_bits = 14 * 8;
  std::int64_t atim_bits = 28 * 8;  // management frame, null body (Fig. 4)
  std::int64_t preamble_bits = 384;  // 192 us PLCP preamble+header at 2 Mbps
  std::size_t queue_limit = 64;      // interface queue length
  bool psm_enabled = true;  // false = plain 802.11 (no beacons, no ATIM)
  /// Consecutive beacon intervals of un-acked ATIMs to one destination
  /// before the queued packets are reported as link failures (the neighbor
  /// has moved away or died; DSR needs the signal to repair the route).
  int atim_fail_limit = 3;
  /// Offset of this node's beacon schedule from the global epoch. The paper
  /// assumes perfect distributed clock sync (offset 0 everywhere);
  /// bench_ablation_sync sweeps per-node random offsets to measure how much
  /// desynchronization PSM tolerates.
  sim::Time beacon_offset = 0;
};

struct MacStats {
  std::uint64_t data_tx_attempts = 0;   // each on-air data transmission
  std::uint64_t data_tx_ok = 0;         // unicast acked / broadcast sent
  std::uint64_t data_tx_failed = 0;     // retry limit exceeded (link break)
  std::uint64_t data_delivered = 0;     // frames delivered upward
  std::uint64_t data_duplicates = 0;    // retransmissions filtered
  std::uint64_t data_overheard = 0;     // frames tapped to the routing layer
  std::uint64_t atim_tx = 0;
  std::uint64_t atim_acked = 0;
  std::uint64_t atim_failed = 0;        // un-acked announcements this BI
  std::uint64_t atim_heard_other = 0;   // ATIMs for other destinations heard
  std::uint64_t overhear_commits = 0;   // decided to stay awake to overhear
  std::uint64_t overhear_declines = 0;  // decided to sleep instead
  std::uint64_t sleeps = 0;             // ATIM-window-end sleep decisions
  std::uint64_t queue_drops = 0;        // interface queue overflow
  std::uint64_t immediate_fallbacks = 0;  // stale-AM sends requeued via ATIM
  sim::Time max_queue_residency = 0;    // longest time a packet sat queued
};

}  // namespace rcast::mac
