#include "netsim/network.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace nidkit::netsim {

namespace {
bool is_multicast(Ipv4Addr addr) {
  return (addr.value() & 0xf0000000u) == 0xe0000000u;
}
}  // namespace

Network::Network(Simulator& sim, std::uint64_t seed) : sim_(sim), rng_(seed) {}

void Network::reset(std::uint64_t seed) {
  for (std::size_t i = 0; i < live_nodes_; ++i) {
    nodes_[i].ifaces.clear();
    nodes_[i].on_receive = nullptr;
  }
  for (std::size_t i = 0; i < live_segments_; ++i)
    segments_[i].attached.clear();
  live_nodes_ = 0;
  live_segments_ = 0;
  tap_ = nullptr;
  rng_ = Rng(seed);
  next_subnet_ = 0;
  next_frame_id_ = 0;
  frames_dropped_ = 0;
  frames_delivered_ = 0;
  frames_duplicated_ = 0;
  frames_reorder_delayed_ = 0;
}

NodeId Network::add_node(std::string name) {
  if (live_nodes_ < nodes_.size()) {
    // Reuse the retired slot: the name assignment stays inside the small
    // string buffer for harness-style names, and the cleared iface vector
    // keeps its capacity.
    nodes_[live_nodes_].name = std::move(name);
  } else {
    nodes_.push_back(NodeState{std::move(name), {}, nullptr});
  }
  return static_cast<NodeId>(live_nodes_++);
}

Network::SegmentState& Network::new_segment(SegmentKind kind) {
  if (live_segments_ < segments_.size()) {
    SegmentState& seg = segments_[live_segments_];
    seg.kind = kind;
    seg.fault = FaultModel{};
    seg.rng = rng_.fork();
    seg.tx_free_at = SimTime{0};
    ++live_segments_;
    return seg;
  }
  segments_.push_back(SegmentState{kind, {}, FaultModel{}, rng_.fork(), {}});
  ++live_segments_;
  return segments_.back();
}

IfaceIndex Network::attach(NodeId node, SegmentId segment, Ipv4Addr addr,
                           std::uint8_t prefix_len) {
  auto& ns = nodes_.at(node);
  ns.ifaces.push_back(Interface{segment, addr, prefix_len});
  const auto idx = static_cast<IfaceIndex>(ns.ifaces.size() - 1);
  segments_.at(segment).attached.push_back(Attachment{node, idx, addr});
  return idx;
}

SegmentId Network::add_p2p(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("p2p link endpoints must differ");
  // Subnets are carved from 10.0.0.0/8: each segment gets 10.x.y.0.
  const std::uint32_t net =
      (10u << 24) | (++next_subnet_ << 8);
  new_segment(SegmentKind::kP2p);
  const auto seg = static_cast<SegmentId>(live_segments_ - 1);
  attach(a, seg, Ipv4Addr{net | 1}, 30);
  attach(b, seg, Ipv4Addr{net | 2}, 30);
  return seg;
}

SegmentId Network::add_lan(std::span<const NodeId> members) {
  if (members.size() < 2)
    throw std::invalid_argument("a LAN needs at least two members");
  const std::uint32_t net = (10u << 24) | (++next_subnet_ << 8);
  new_segment(SegmentKind::kLan);
  const auto seg = static_cast<SegmentId>(live_segments_ - 1);
  std::uint32_t host = 0;
  for (const NodeId m : members) attach(m, seg, Ipv4Addr{net | ++host}, 24);
  return seg;
}

void Network::set_receive_handler(NodeId node, ReceiveHandler handler) {
  nodes_.at(node).on_receive = std::move(handler);
}

FaultModel& Network::fault(SegmentId segment) {
  return segments_.at(segment).fault;
}
const FaultModel& Network::fault(SegmentId segment) const {
  return segments_.at(segment).fault;
}

const std::string& Network::node_name(NodeId node) const {
  return nodes_.at(node).name;
}

std::size_t Network::iface_count(NodeId node) const {
  return nodes_.at(node).ifaces.size();
}

const Interface& Network::iface(NodeId node, IfaceIndex idx) const {
  return nodes_.at(node).ifaces.at(idx);
}

bool Network::segment_is_lan(SegmentId segment) const {
  return segments_.at(segment).kind == SegmentKind::kLan;
}

NodeId Network::p2p_peer(SegmentId segment, NodeId self) const {
  const auto& seg = segments_.at(segment);
  if (seg.kind != SegmentKind::kP2p) return kInvalidNode;
  for (const auto& att : seg.attached)
    if (att.node != self) return att.node;
  return kInvalidNode;
}

const std::vector<Network::Attachment>& Network::attachments(
    SegmentId segment) const {
  return segments_.at(segment).attached;
}

void Network::send(NodeId node, IfaceIndex iface, Frame frame) {
  const auto& ifc = nodes_.at(node).ifaces.at(iface);
  const SegmentId seg_id = ifc.segment;
  auto& seg = segments_.at(seg_id);

  if (frame.src.is_zero()) frame.src = ifc.address;
  frame.id = ++next_frame_id_;

  if (tap_) {
    tap_(TapEvent{sim_.now(), node, iface, seg_id, Direction::kSend, &frame});
  }

  if (seg.fault.down) {
    ++frames_dropped_;
    return;
  }

  // Serialization delay: frames queue behind each other when a bandwidth is
  // configured, mimicking a real wire.
  SimDuration serialize{0};
  if (seg.fault.bytes_per_sec > 0) {
    serialize = SimDuration{static_cast<std::int64_t>(frame.payload.size()) *
                            1'000'000 / seg.fault.bytes_per_sec};
    const SimTime start = std::max(sim_.now(), seg.tx_free_at);
    seg.tx_free_at = start + serialize;
    serialize = (seg.tx_free_at - sim_.now());
  }

  const bool multicast = is_multicast(frame.dst);
  for (auto& att : seg.attached) {
    if (att.node == node && att.iface == iface) continue;
    if (!multicast && !(frame.dst == att.address)) continue;

    if (seg.fault.loss > 0 && seg.rng.chance(seg.fault.loss)) {
      ++frames_dropped_;
      continue;
    }
    // deliver copies the frame into its in-flight closure, but a Frame
    // copy is now a refcount bump — the payload bytes are shared across
    // every fan-out (and duplicate) delivery of this transmission.
    deliver(seg_id, att, frame, serialize);
    if (seg.fault.duplicate > 0 && seg.rng.chance(seg.fault.duplicate)) {
      ++frames_duplicated_;
      deliver(seg_id, att, frame, serialize);
    }
  }
}

void Network::deliver(SegmentId segment, Attachment& to, const Frame& frame,
                      SimDuration extra) {
  auto& seg = segments_.at(segment);
  SimDuration delay = seg.fault.delay + extra;
  if (seg.fault.jitter.count() > 0)
    delay += seg.rng.jitter(SimDuration{0}, seg.fault.jitter);
  if (seg.fault.reorder > 0 && seg.rng.chance(seg.fault.reorder)) {
    delay += seg.fault.reorder_extra;
    ++frames_reorder_delayed_;
  }

  SimTime arrival = sim_.now() + delay;
  if (seg.fault.fifo) {
    // Ordered transport: a frame never overtakes an earlier one to the
    // same receiver.
    arrival = std::max(arrival, to.last_arrival);
    to.last_arrival = arrival;
  }

  const NodeId dst_node = to.node;
  const IfaceIndex dst_iface = to.iface;
  sim_.schedule_at(arrival, [this, segment, dst_node, dst_iface,
                             f = frame]() {
    ++frames_delivered_;
    if (tap_) {
      tap_(TapEvent{sim_.now(), dst_node, dst_iface, segment,
                    Direction::kRecv, &f});
    }
    auto& ns = nodes_.at(dst_node);
    if (ns.on_receive) ns.on_receive(dst_iface, f);
  });
}

}  // namespace nidkit::netsim
