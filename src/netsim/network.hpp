// Virtual network: nodes, interfaces, point-to-point links and broadcast
// LANs, with per-segment fault models.
//
// This module replaces the paper's Docker containers + virtual links. It is
// protocol-agnostic: routers hand it encoded byte frames and receive byte
// frames; the only IP-level semantics modeled are unicast vs multicast
// delivery (which OSPF relies on) and per-segment delay/jitter/loss/
// duplication/reordering (which Pumba injects in the paper's testbed).
//
// Every frame that enters or leaves a node's interface is reported to an
// optional tap callback — the simulator's tcpdump.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "netsim/simulator.hpp"
#include "util/ip.hpp"
#include "util/rng.hpp"
#include "util/shared_bytes.hpp"
#include "util/time.hpp"

namespace nidkit::netsim {

using NodeId = std::uint32_t;
using SegmentId = std::uint32_t;
using IfaceIndex = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// An L3 datagram as observed on a segment. We do not serialize the IPv4
/// header itself (the technique never mines IP fields); src/dst/protocol
/// carry the addressing a capture would show, and `payload` is the real
/// encoded routing-protocol packet.
struct Frame {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint8_t protocol = 0;  ///< IP protocol number (89 = OSPF, 17 = UDP).
  /// Encoded once per transmission, then shared by refcount across every
  /// LAN fan-out delivery, in-flight delivery closure, and trace record —
  /// copying a Frame never copies the wire bytes.
  util::SharedBytes payload;

  /// Unique id assigned by Network::send (never 0). LAN fan-out deliveries
  /// of one transmission share the id.
  std::uint64_t id = 0;
  /// Ground-truth provenance: the id of the received frame whose processing
  /// caused this send, or 0 for spontaneous (timer-driven) sends. Set by
  /// the protocol engines; invisible to the black-box miner, but used to
  /// score the miner's precision/recall (see bench/fig_tdelay_sweep).
  std::uint64_t caused_by = 0;
};

/// Mutable per-segment fault model, the netem/Pumba equivalent. Writes
/// through Network::fault take effect on the next frame sent.
struct FaultModel {
  SimDuration delay{0};          ///< fixed one-way delay (the paper's TDelay)
  SimDuration jitter{0};         ///< uniform extra delay in [0, jitter]
  double loss = 0.0;             ///< drop probability per frame
  double duplicate = 0.0;        ///< duplication probability per frame
  double reorder = 0.0;          ///< probability of `reorder_extra` delay
  SimDuration reorder_extra{0};  ///< extra delay applied on reorder
  std::int64_t bytes_per_sec = 0;  ///< serialization rate; 0 = infinite
  bool down = false;             ///< segment cut (all frames dropped)
  /// Enforce in-order delivery per receiver even under jitter (models a
  /// reliable, ordered transport such as the TCP under BGP). Off by
  /// default: plain IP links do reorder under jitter, as netem does.
  bool fifo = false;
};

/// Direction of a tapped frame relative to the node.
enum class Direction { kSend, kRecv };

/// One observation delivered to the packet tap.
struct TapEvent {
  SimTime time;
  NodeId node;
  IfaceIndex iface;
  SegmentId segment;
  Direction direction;
  const Frame* frame;
};

/// A node interface: its attachment point plus IP addressing.
struct Interface {
  SegmentId segment = 0;
  Ipv4Addr address;
  std::uint8_t prefix_len = 30;
};

class Network {
 public:
  /// Frame arrival callback: (interface index, frame). Installed once per
  /// node by its protocol stack.
  using ReceiveHandler = std::function<void(IfaceIndex, const Frame&)>;
  using Tap = std::function<void(const TapEvent&)>;

  Network(Simulator& sim, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Returns the network to its just-constructed state with a fresh rng
  /// seed. Node and segment storage is retained and reused by subsequent
  /// add_node/add_p2p/add_lan calls, so rebuilding the same (or a smaller)
  /// topology allocates nothing: inner vectors keep their capacity and
  /// per-segment rngs are re-forked in the same order a fresh Network
  /// would fork them. The tap and all receive handlers are dropped.
  void reset(std::uint64_t seed);

  NodeId add_node(std::string name);

  /// Connects two nodes with a point-to-point link, creating one interface
  /// on each. Addresses are assigned from a fresh /30.
  SegmentId add_p2p(NodeId a, NodeId b);

  /// Connects `members` to a broadcast LAN, one interface each, addressed
  /// from a fresh /24.
  SegmentId add_lan(std::span<const NodeId> members);

  void set_receive_handler(NodeId node, ReceiveHandler handler);
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Transmits a frame out of `iface`. Unicast destinations deliver to the
  /// matching attachment only; any 224.0.0.0/4 destination delivers to
  /// every other attachment on the segment.
  void send(NodeId node, IfaceIndex iface, Frame frame);

  /// The mutable fault model of a segment: the harness writes the TDelay
  /// here, and tests cut links or change delays mid-run through it.
  FaultModel& fault(SegmentId segment);
  const FaultModel& fault(SegmentId segment) const;

  std::size_t node_count() const { return live_nodes_; }
  std::size_t segment_count() const { return live_segments_; }
  const std::string& node_name(NodeId node) const;
  std::size_t iface_count(NodeId node) const;
  const Interface& iface(NodeId node, IfaceIndex idx) const;
  bool segment_is_lan(SegmentId segment) const;

  /// The node on the far side of a point-to-point segment, or kInvalidNode
  /// for LANs.
  NodeId p2p_peer(SegmentId segment, NodeId self) const;

  /// All (node, iface) attachments of a segment.
  struct Attachment {
    NodeId node;
    IfaceIndex iface;
    Ipv4Addr address;
    SimTime last_arrival{0};  ///< FIFO ordering watermark
  };
  const std::vector<Attachment>& attachments(SegmentId segment) const;

  Simulator& sim() { return sim_; }

  /// Frames dropped by loss or down segments since construction.
  std::uint64_t frames_dropped() const { return frames_dropped_; }
  std::uint64_t frames_delivered() const { return frames_delivered_; }
  /// Extra deliveries injected by the duplication fault model.
  std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  /// Deliveries that drew the reorder penalty (chaos-delayed frames).
  std::uint64_t frames_reorder_delayed() const {
    return frames_reorder_delayed_;
  }

 private:
  struct NodeState {
    std::string name;
    std::vector<Interface> ifaces;
    ReceiveHandler on_receive;
  };
  enum class SegmentKind { kP2p, kLan };
  struct SegmentState {
    SegmentKind kind;
    std::vector<Attachment> attached;
    FaultModel fault;
    Rng rng;
    SimTime tx_free_at{0};  ///< next instant the "wire" is idle (bandwidth)
  };

  IfaceIndex attach(NodeId node, SegmentId segment, Ipv4Addr addr,
                    std::uint8_t prefix_len);
  void deliver(SegmentId segment, Attachment& to, const Frame& frame,
               SimDuration extra);
  /// Reuses the slot past the live watermark (or appends) for a new
  /// segment; forks the network rng for it either way.
  SegmentState& new_segment(SegmentKind kind);

  Simulator& sim_;
  Rng rng_;
  /// Element storage outlives reset(): only the first live_nodes_ /
  /// live_segments_ elements are current; the rest are retained capacity.
  std::vector<NodeState> nodes_;
  std::vector<SegmentState> segments_;
  std::size_t live_nodes_ = 0;
  std::size_t live_segments_ = 0;
  Tap tap_;
  std::uint32_t next_subnet_ = 0;
  std::uint64_t next_frame_id_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  std::uint64_t frames_reorder_delayed_ = 0;
};

}  // namespace nidkit::netsim
