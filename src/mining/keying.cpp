#include "mining/keying.hpp"

#include <limits>

#include "ospf/router.hpp"
#include "packet/rip_packet.hpp"

namespace nidkit::mining {

std::string ospf_type_label(std::uint8_t wire_type) {
  switch (wire_type) {
    case 1: return "Hello";
    case 2: return "DBD";
    case 3: return "LSR";
    case 4: return "LSU";
    case 5: return "LSAck";
  }
  return "OSPF?" + std::to_string(wire_type);
}

std::string state_label(int state) {
  if (state < 0) return "NoNbr";
  return ospf::to_string(static_cast<ospf::NeighborState>(state));
}

namespace {

/// A scheme whose stimulus and response are each labelled by `label` of
/// the record alone.
template <typename Label>
KeyScheme per_record(std::string name, Label label) {
  KeyScheme s;
  s.name = std::move(name);
  s.stimulus = label;
  s.response = [label](const trace::RecordView&,
                       const trace::RecordView& resp) { return label(resp); };
  return s;
}

}  // namespace

KeyScheme ospf_type_scheme() {
  return per_record(
      "ospf-type",
      [](const trace::RecordView& r) -> std::optional<std::string> {
        const auto* o = r.ospf;
        if (o == nullptr) return std::nullopt;
        return ospf_type_label(o->pkt_type);
      });
}

KeyScheme ospf_greater_lssn_scheme() {
  KeyScheme s;
  s.name = "ospf-greater-lssn";
  s.stimulus = [](const trace::RecordView& r) -> std::optional<std::string> {
    const auto* o = r.ospf;
    if (o == nullptr) return std::nullopt;
    if (o->pkt_type != 4 && o->pkt_type != 5) return std::nullopt;
    if (o->lsas.empty()) return std::nullopt;
    return ospf_type_label(o->pkt_type);
  };
  s.response = [](const trace::RecordView& stim,
                  const trace::RecordView& resp)
      -> std::optional<std::string> {
    const auto* so = stim.ospf;
    const auto* ro = resp.ospf;
    if (so == nullptr || ro == nullptr) return std::nullopt;
    if (ro->pkt_type != 4 && ro->pkt_type != 5) return std::nullopt;
    if (ro->lsas.empty() || so->lsas.empty()) return std::nullopt;
    // "Greater LS sequence number" compares instances of the *same* LSA
    // (type, link-state id, advertising router): the response must carry a
    // strictly newer instance of an LSA the stimulus carried.
    for (const auto& rl : ro->lsas) {
      for (const auto& sl : so->lsas) {
        if (rl.lsa_type == sl.lsa_type &&
            rl.link_state_id == sl.link_state_id &&
            rl.advertising_router == sl.advertising_router &&
            rl.seq > sl.seq) {
          return ospf_type_label(ro->pkt_type) + "+gtSN";
        }
      }
    }
    return std::nullopt;
  };
  return s;
}

KeyScheme ospf_state_scheme() {
  return per_record(
      "ospf-state",
      [](const trace::RecordView& r) -> std::optional<std::string> {
        const auto* o = r.ospf;
        if (o == nullptr) return std::nullopt;
        return ospf_type_label(o->pkt_type) + "@" +
               state_label(r.observer_state);
      });
}

KeyScheme ospf_lsa_type_scheme() {
  auto label = [](const trace::RecordView& r) -> std::optional<std::string> {
    const auto* o = r.ospf;
    if (o == nullptr) return std::nullopt;
    std::string out = ospf_type_label(o->pkt_type);
    if (!o->lsas.empty()) {
      bool types[6] = {};
      for (const auto& l : o->lsas)
        if (l.lsa_type <= 5) types[l.lsa_type] = true;
      static constexpr const char* kNames[6] = {"?",       "router", "network",
                                                "summary", "asbr",   "external"};
      out += "[";
      bool first = true;
      for (int t = 1; t <= 5; ++t) {
        if (!types[t]) continue;
        if (!first) out += ",";
        out += kNames[t];
        first = false;
      }
      out += "]";
    }
    return out;
  };
  return per_record("ospf-lsa-type", label);
}

KeyScheme rip_refined_scheme() {
  auto label = [](const trace::RecordView& r) -> std::optional<std::string> {
    const auto* p = r.rip;
    if (p == nullptr) return std::nullopt;
    if (p->command == 1)
      return std::string(p->full_table_request ? "Request(full)" : "Request");
    if (p->max_metric >= 16) return std::string("Response(poison)");
    return std::string("Response");
  };
  return per_record("rip-refined", label);
}

KeyScheme ospf_dbd_flags_scheme() {
  auto label = [](const trace::RecordView& r) -> std::optional<std::string> {
    const auto* o = r.ospf;
    if (o == nullptr) return std::nullopt;
    if (o->pkt_type != 2) return ospf_type_label(o->pkt_type);
    std::string out = "DBD(";
    bool first = true;
    auto append = [&out, &first](const char* bit) {
      if (!first) out += ",";
      out += bit;
      first = false;
    };
    if (o->dbd_flags & 0x04) append("I");
    if (o->dbd_flags & 0x02) append("M");
    if (o->dbd_flags & 0x01) append("MS");
    out += ")";
    return out;
  };
  return per_record("ospf-dbd-flags", label);
}

KeyScheme bgp_message_scheme(std::size_t longpath_threshold) {
  auto label = [longpath_threshold](
                   const trace::RecordView& r) -> std::optional<std::string> {
    const auto* b = r.bgp;
    if (b == nullptr) return std::nullopt;
    switch (b->msg_type) {
      case 1: return std::string("OPEN");
      case 2:
        if (b->as_path_len > longpath_threshold)
          return std::string("UPDATE+longpath");
        if (b->nlri_count == 0 && b->withdrawn_count > 0)
          return std::string("UPDATE+withdraw");
        return std::string("UPDATE");
      case 3: return std::string("NOTIFICATION");
      case 4: return std::string("KEEPALIVE");
    }
    return std::nullopt;
  };
  return per_record("bgp-message", label);
}

KeyScheme rip_command_scheme() {
  auto label = [](const trace::RecordView& r) -> std::optional<std::string> {
    const auto* p = r.rip;
    if (p == nullptr) return std::nullopt;
    if (p->command == 1)
      return std::string(p->full_table_request ? "Request(full)" : "Request");
    return std::string("Response");
  };
  return per_record("rip-command", label);
}

}  // namespace nidkit::mining
