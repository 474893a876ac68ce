// Packet trace capture: the simulator's tcpdump.
//
// TraceLog attaches to a Network's tap and records every frame each router
// sends or receives — timestamp, direction, raw wire bytes, and an eagerly
// parsed protocol digest so the miner never re-decodes. An optional state
// prober snapshots router-internal state (e.g. the OSPF neighbor FSM state)
// at each event, powering the future-work state-conditioned mining.
//
// The columns are the trace's only record shape. Each fixed-width record
// field lives in its own flat column, protocol digests live in
// per-protocol pools (OSPF digests with their LSA header lists laid out in
// arena slabs), and every column is backed by one per-scenario monotonic
// util::Arena. Appending a record on the tap path is a handful of
// bump-pointer pushes — no per-record allocation — and scenario teardown is
// one arena release, with the pages recycled into the next scenario's log.
// Consumers read through RecordView (a cheap per-record materialization) or
// straight from the column spans; the miner does the latter.
//
// One private function, push_wire_digest, turns wire bytes into a digest;
// the live tap and load() both call it, so a reloaded trace is digested by
// the same code as the capture it came from.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <iterator>
#include <memory>
#include <ostream>
#include <span>
#include <string>

#include "netsim/network.hpp"
#include "packet/ospf_types.hpp"
#include "util/arena.hpp"
#include "util/arena_vec.hpp"
#include "util/ip.hpp"
#include "util/result.hpp"
#include "util/shared_bytes.hpp"
#include "util/time.hpp"

namespace nidkit::trace {

/// One LSA header as a digest carries it.
struct LsaDigest {
  std::uint8_t lsa_type = 0;
  std::int32_t seq = 0;
  std::uint16_t age = 0;
  Ipv4Addr link_state_id;
  RouterId advertising_router;
};

/// Parsed summary of an OSPF packet, sufficient for all keying schemes.
struct OspfView {
  std::uint8_t pkt_type = 0;   ///< wire packet type 1..5
  std::uint8_t dbd_flags = 0;  ///< I/M/MS bits when pkt_type == 2
  /// LSA headers carried by the packet (LSU contents, LSAck/DBD headers),
  /// laid out in an arena slab of the log.
  std::span<const LsaDigest> lsas;

  /// Greatest LS sequence number carried, or INT32_MIN if none.
  std::int32_t max_seq() const;
};

/// Parsed summary of a RIP packet.
struct RipDigest {
  std::uint8_t command = 0;
  std::uint16_t entry_count = 0;
  std::uint32_t max_metric = 0;
  bool full_table_request = false;
};

/// Parsed summary of a BGP message.
struct BgpDigest {
  std::uint8_t msg_type = 0;  ///< 1 OPEN, 2 UPDATE, 3 NOTIFICATION, 4 KEEPALIVE
  std::uint32_t as_path_len = 0;
  std::uint16_t nlri_count = 0;
  std::uint16_t withdrawn_count = 0;
  std::uint8_t error_code = 0;
};

/// One trace record, materialized from the columns. Scalars are copied
/// out; `bytes` shares the stored payload cell; at most one digest pointer
/// is set, and it points into the log's digest pools, valid until the log
/// is cleared or destroyed. All null = the frame did not parse as a known
/// protocol.
struct RecordView {
  SimTime time{0};
  netsim::NodeId node = 0;
  netsim::IfaceIndex iface = 0;
  netsim::Direction direction = netsim::Direction::kSend;
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint8_t protocol = 0;
  std::uint64_t frame_id = 0;   ///< network-assigned frame id
  std::uint64_t caused_by = 0;  ///< ground-truth provenance (sends only)
  int observer_state = -1;      ///< state-prober snapshot, -1 if unprobed
  /// Raw wire bytes, sharing the frame's payload buffer (not a copy).
  /// Empty when the log runs with keep_bytes off.
  util::SharedBytes bytes;
  const OspfView* ospf = nullptr;
  const RipDigest* rip = nullptr;
  const BgpDigest* bgp = nullptr;

  bool is_send() const { return direction == netsim::Direction::kSend; }
};

class TraceLog {
 public:
  /// Snapshot of router-internal state for a node, as an opaque label.
  using StateProber = std::function<int(netsim::NodeId)>;

  TraceLog();
  ~TraceLog();
  TraceLog(TraceLog&& other) noexcept;
  TraceLog& operator=(TraceLog&& other) noexcept;
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Installs this log as `net`'s tap. The log must outlive the network's
  /// use of the tap.
  void attach(netsim::Network& net);

  void set_prober(StateProber prober) { prober_ = std::move(prober); }

  /// Keep raw wire bytes in each record (default on; turn off to halve
  /// memory in long sweeps — digests are always kept).
  void set_keep_bytes(bool keep) { keep_bytes_ = keep; }

  /// Appends a hand-built record (tests that need precise control over
  /// timing and digests): the fields go into the columns and the digest
  /// the record points at, if any, is copied into the log's pools. Records
  /// must be appended in non-decreasing time order.
  void append(const RecordView& record);

  /// Materializes record `i`. Digest pointers in the view stay valid until
  /// the log is cleared or destroyed (they target the log's pools).
  RecordView view(std::size_t i) const;

  /// Record-like read access over the columns: `records()[i]`, iteration,
  /// `front()`. Yields RecordView by value.
  class RecordsRange {
   public:
    class iterator {
     public:
      using value_type = RecordView;
      using difference_type = std::ptrdiff_t;
      using iterator_category = std::input_iterator_tag;

      iterator() = default;
      iterator(const TraceLog* log, std::size_t i) : log_(log), i_(i) {}
      RecordView operator*() const { return log_->view(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator out = *this;
        ++i_;
        return out;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      const TraceLog* log_ = nullptr;
      std::size_t i_ = 0;
    };

    explicit RecordsRange(const TraceLog* log) : log_(log) {}
    std::size_t size() const { return log_->size(); }
    bool empty() const { return log_->size() == 0; }
    RecordView operator[](std::size_t i) const { return log_->view(i); }
    RecordView front() const { return log_->view(0); }
    RecordView back() const { return log_->view(log_->size() - 1); }
    iterator begin() const { return {log_, 0}; }
    iterator end() const { return {log_, log_->size()}; }

   private:
    const TraceLog* log_;
  };

  RecordsRange records() const { return RecordsRange{this}; }
  std::size_t size() const { return time_.size(); }

  /// Indices of records observed at `node`, in time order. Maintained as
  /// records arrive, so reads are O(1) — the miner's per-node grouping
  /// comes straight from here instead of rebuilding a map per call.
  std::span<const std::uint32_t> node_records(netsim::NodeId node) const;

  /// Largest observed node id + 1 (the per-node index's extent).
  std::size_t node_index_extent() const { return by_node_.size(); }

  /// Number of distinct nodes that observed at least one packet.
  std::size_t observed_nodes() const;

  // Raw column access for hot consumers (the miner walks these instead of
  // materializing views). All spans share indexing with node_records().
  std::span<const SimTime> times() const { return time_.span(); }
  std::span<const netsim::NodeId> nodes() const { return node_.span(); }
  std::span<const std::uint8_t> send_flags() const { return send_.span(); }
  std::span<const std::uint64_t> frame_ids() const {
    return frame_id_.span();
  }
  std::span<const std::uint64_t> caused_by_ids() const {
    return caused_by_.span();
  }

  /// Serializes the trace to a line-oriented text format ("nidkit-trace
  /// v1") carrying raw wire bytes; digests are recomputed on load.
  /// Requires keep_bytes (the default) — byte-less records round-trip as
  /// undecodable.
  void save(std::ostream& os) const;

  /// Parses a trace produced by save(). Records are re-digested through
  /// the tap's own digest path; bytes that ospf::decode or rip::decode
  /// rejects get no digest, so a hand-edited trace is re-validated.
  static Result<TraceLog> load(std::istream& is);

  /// Forgets every record and rewinds the arena; the log is immediately
  /// reusable and refills into the pages it already owns.
  void clear();

  /// Bytes the backing arena has handed out (diagnostics/bench).
  std::size_t arena_bytes() const { return arena_->bytes_allocated(); }

 private:
  enum DigestKind : std::uint32_t {
    kDigestNone = 0,
    kDigestOspf = 1,
    kDigestRip = 2,
    kDigestBgp = 3,
  };

  void on_tap(const netsim::TapEvent& ev);
  /// Pushes every fixed-width column for one record except the digest ref
  /// (the caller pushes that last, once the digest is pooled).
  void push_common(SimTime time, netsim::NodeId node,
                   netsim::IfaceIndex iface, netsim::Direction direction,
                   Ipv4Addr src, Ipv4Addr dst, std::uint8_t protocol,
                   std::uint64_t frame_id, std::uint64_t caused_by,
                   int observer_state, util::SharedBytes::Handle bytes);
  /// The one path from wire bytes to a digest: pools the digest of a
  /// `protocol` frame and pushes its ref, or kDigestNone if the bytes do
  /// not parse. OSPF and RIP go through the header-only parsers below, BGP
  /// through bgp::decode.
  void push_wire_digest(std::uint8_t protocol,
                        std::span<const std::uint8_t> wire);
  /// Digests an OSPF frame straight into the pools with a header-only fast
  /// parser. Returns false if the frame does not validate.
  bool fast_ospf_digest(std::span<const std::uint8_t> wire);
  /// Same for RIP (proto 17), validation-equivalent to rip::decode.
  bool fast_rip_digest(std::span<const std::uint8_t> wire);
  /// Adds `digest` to `pool` and pushes its ref.
  template <typename T>
  void push_pooled(DigestKind kind, util::ArenaVec<T>& pool, const T& digest);
  void index_record(netsim::NodeId node, std::size_t index);
  void release_bytes() noexcept;

  /// Arena behind every column and pool. unique_ptr keeps the arena's
  /// address stable across TraceLog moves (columns never re-point).
  std::unique_ptr<util::Arena> arena_;
  // One column per fixed-width record field.
  util::ArenaVec<SimTime> time_;
  util::ArenaVec<netsim::NodeId> node_;
  util::ArenaVec<netsim::IfaceIndex> iface_;
  util::ArenaVec<std::uint8_t> send_;  ///< 1 = send, 0 = recv
  util::ArenaVec<std::uint32_t> src_;
  util::ArenaVec<std::uint32_t> dst_;
  util::ArenaVec<std::uint8_t> protocol_;
  util::ArenaVec<std::uint64_t> frame_id_;
  util::ArenaVec<std::uint64_t> caused_by_;
  util::ArenaVec<int> observer_state_;
  /// kind << 30 | pool index (see DigestKind).
  util::ArenaVec<std::uint32_t> digest_ref_;
  /// Retained SharedBytes handles (null = no bytes kept). Released
  /// explicitly in clear()/destructor — arena memory runs no destructors.
  util::ArenaVec<util::SharedBytes::Handle> bytes_;
  // Per-protocol digest pools; LSA header lists live in arena slabs
  // referenced by OspfView::lsas.
  util::ArenaVec<OspfView> ospf_pool_;
  util::ArenaVec<RipDigest> rip_pool_;
  util::ArenaVec<BgpDigest> bgp_pool_;
  /// Per-node record indices in time order (node ids are dense).
  util::ArenaVec<util::ArenaVec<std::uint32_t>> by_node_;
  StateProber prober_;
  bool keep_bytes_ = true;
};

}  // namespace nidkit::trace
