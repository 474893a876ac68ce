// Database synchronization: DBD negotiation and exchange (§10.6, §10.8),
// link-state requests (§10.9) and their retransmission.
#include <algorithm>

#include "ospf/router.hpp"

namespace nidkit::ospf {

void Router::arm_dbd_rxmt(OspfInterface& oi, Neighbor& n) {
  n.dbd_rxmt_timer.cancel();
  n.dbd_rxmt_timer =
      net_.sim().schedule(config_.profile.rxmt_interval, [this, &oi, &n] {
        // Only the master (and routers still negotiating) retransmits DBDs
        // on a timer; the slave retransmits only in response to duplicates.
        if (n.state == NeighborState::kExStart ||
            (n.state == NeighborState::kExchange && n.we_are_master)) {
          ++stats_.retransmissions;
          send_dbd(oi, n, /*retransmit=*/true);
        }
      });
}

void Router::send_dbd(OspfInterface& oi, Neighbor& n, bool retransmit) {
  DbdBody dbd;
  if (retransmit) {
    dbd = n.last_tx_dbd;
  } else {
    dbd.interface_mtu = config_.mtu;
    if (n.state == NeighborState::kExStart) {
      dbd.flags = kDbdFlagInit | kDbdFlagMore | kDbdFlagMs;
      dbd.dd_sequence = n.dd_sequence;
    } else {
      // Exchange: advertise the next batch of database headers.
      const std::size_t batch =
          std::min(config_.profile.dbd_max_headers, n.db_summary.size());
      dbd.lsa_headers.assign(n.db_summary.begin(),
                             n.db_summary.begin() + batch);
      n.db_summary.erase(n.db_summary.begin(), n.db_summary.begin() + batch);
      n.exchange_more_to_send = !n.db_summary.empty();
      dbd.dd_sequence = n.dd_sequence;
      dbd.flags = 0;
      if (n.we_are_master) dbd.flags |= kDbdFlagMs;
      if (n.exchange_more_to_send) dbd.flags |= kDbdFlagMore;
    }
    n.last_tx_dbd = dbd;
  }
  send_packet(oi, dbd, n.address, current_cause_);
  if (n.state == NeighborState::kExStart ||
      (n.state == NeighborState::kExchange && n.we_are_master)) {
    arm_dbd_rxmt(oi, n);
  }
}

void Router::process_dbd_headers(OspfInterface& oi, Neighbor& n,
                                 const DbdBody& dbd) {
  for (const auto& h : dbd.lsa_headers) {
    const LsaKey key = key_of(h);
    const auto* entry = lsdb_.find(key);
    const bool want =
        entry == nullptr || compare_instances(h, entry->lsa.header) > 0;
    if (want) n.ls_requests[key] = h;
  }
  // Discretionary (lsr_per_dbd): FRR-like implementations request missing
  // LSAs as soon as a DBD reveals them; BIRD-like ones batch the request
  // list and ask when the exchange completes.
  if (config_.profile.lsr_per_dbd && !n.ls_requests.empty() &&
      n.state == NeighborState::kExchange) {
    send_ls_requests(oi, n);
  }
}

void Router::handle_dbd(OspfInterface& oi, Neighbor& n, const DbdBody& dbd) {
  // §10.6: a DBD advertising an MTU we could not receive is rejected
  // outright. With both sides checking, an MTU mismatch wedges the
  // adjacency in ExStart — each side retransmitting its negotiation DBD
  // forever — which is exactly how the failure presents on real routers.
  if (config_.profile.check_mtu && dbd.interface_mtu > config_.mtu) return;
  switch (n.state) {
    case NeighborState::kDown:
    case NeighborState::kInit:
    case NeighborState::kTwoWay:
      return;  // adjacency not (yet) wanted — §10.6 rejects the packet

    case NeighborState::kExStart: {
      // Negotiation (§10.8). The router with the higher id becomes master.
      if (dbd.init() && dbd.more() && dbd.master() &&
          dbd.lsa_headers.empty() && n.id > config_.router_id) {
        // We are slave: adopt the master's sequence number.
        n.we_are_master = false;
        n.dd_sequence = dbd.dd_sequence;
        n.db_summary = lsdb_.summarize(now());
        set_neighbor_state(n, NeighborState::kExchange);
        n.dbd_rxmt_timer.cancel();
        n.last_rx_dbd_valid = true;
        n.last_rx_dbd_flags = dbd.flags;
        n.last_rx_dbd_seq = dbd.dd_sequence;
        process_dbd_headers(oi, n, dbd);
        send_dbd(oi, n, /*retransmit=*/false);
      } else if (!dbd.init() && !dbd.master() &&
                 dbd.dd_sequence == n.dd_sequence &&
                 n.id < config_.router_id) {
        // We are master and the slave has echoed our sequence number.
        n.we_are_master = true;
        n.db_summary = lsdb_.summarize(now());
        set_neighbor_state(n, NeighborState::kExchange);
        n.last_rx_dbd_valid = true;
        n.last_rx_dbd_flags = dbd.flags;
        n.last_rx_dbd_seq = dbd.dd_sequence;
        process_dbd_headers(oi, n, dbd);
        // Even if the slave is already done (M=0), the master still has to
        // send its own header batches and wait for their echoes; the
        // exchange completes in the kExchange handler below.
        ++n.dd_sequence;
        send_dbd(oi, n, /*retransmit=*/false);
      }
      return;
    }

    case NeighborState::kExchange: {
      // Duplicate detection (§10.8): same flags + sequence as the last
      // accepted DBD.
      if (n.last_rx_dbd_valid && dbd.flags == n.last_rx_dbd_flags &&
          dbd.dd_sequence == n.last_rx_dbd_seq) {
        ++stats_.duplicates_received;
        if (!n.we_are_master) {
          // Slave retransmits its previous response.
          ++stats_.retransmissions;
          send_dbd(oi, n, /*retransmit=*/true);
        }
        return;
      }
      // Master/slave bit must be consistent, Init must be clear, and the
      // sequence number must be exactly the one expected.
      const bool ms_conflict = dbd.master() == n.we_are_master;
      const bool seq_ok = n.we_are_master
                              ? dbd.dd_sequence == n.dd_sequence
                              : dbd.dd_sequence == n.dd_sequence + 1;
      if (ms_conflict || dbd.init() || !seq_ok) {
        seq_number_mismatch(oi, n);
        return;
      }
      n.last_rx_dbd_valid = true;
      n.last_rx_dbd_flags = dbd.flags;
      n.last_rx_dbd_seq = dbd.dd_sequence;
      process_dbd_headers(oi, n, dbd);
      if (n.we_are_master) {
        // The slave has echoed our latest DBD. The exchange is complete
        // once the slave signals M=0 *and* the DBD it just echoed was our
        // final one (M=0); otherwise keep polling with the next DBD.
        const bool our_last_was_final =
            (n.last_tx_dbd.flags & kDbdFlagMore) == 0;
        if (!dbd.more() && our_last_was_final) {
          n.dbd_rxmt_timer.cancel();
          exchange_done(oi, n);
        } else {
          ++n.dd_sequence;
          send_dbd(oi, n, /*retransmit=*/false);
        }
      } else {
        n.dd_sequence = dbd.dd_sequence;
        send_dbd(oi, n, /*retransmit=*/false);
        if (!dbd.more() && !n.exchange_more_to_send) exchange_done(oi, n);
      }
      return;
    }

    case NeighborState::kLoading:
    case NeighborState::kFull: {
      // Only duplicates are acceptable here (§10.6); the slave answers
      // them, anything else is a SeqNumberMismatch.
      if (n.last_rx_dbd_valid && dbd.flags == n.last_rx_dbd_flags &&
          dbd.dd_sequence == n.last_rx_dbd_seq) {
        ++stats_.duplicates_received;
        if (!n.we_are_master) {
          ++stats_.retransmissions;
          send_dbd(oi, n, /*retransmit=*/true);
        }
        return;
      }
      seq_number_mismatch(oi, n);
      return;
    }
  }
}

void Router::exchange_done(OspfInterface& oi, Neighbor& n) {
  n.dbd_rxmt_timer.cancel();
  if (n.ls_requests.empty() && n.outstanding_requests.empty()) {
    neighbor_full(oi, n);
  } else {
    set_neighbor_state(n, NeighborState::kLoading);
    send_ls_requests(oi, n);
  }
}

void Router::send_ls_requests(OspfInterface& oi, Neighbor& n) {
  if (!n.outstanding_requests.empty()) return;  // one LSR on the wire at a time
  LsRequestBody body;
  for (const auto& [key, header] : n.ls_requests) {
    if (body.requests.size() >= config_.profile.lsr_max_entries) break;
    body.requests.push_back(
        LsRequestEntry{key.type, key.link_state_id, key.advertising_router});
  }
  if (body.requests.empty()) return;
  n.outstanding_requests = body.requests;
  send_packet(oi, std::move(body), n.address, current_cause_);

  n.lsr_rxmt_timer.cancel();
  n.lsr_rxmt_timer =
      net_.sim().schedule(config_.profile.rxmt_interval, [this, &oi, &n] {
        if (n.outstanding_requests.empty()) return;
        if (n.state != NeighborState::kExchange &&
            n.state != NeighborState::kLoading)
          return;
        // The LSU answering the outstanding request was lost or never
        // sent; re-issue whatever is still wanted (§10.9). This is a
        // timer-driven send: provenance is "spontaneous".
        ++stats_.retransmissions;
        n.outstanding_requests.clear();
        const std::uint64_t saved_cause = current_cause_;
        current_cause_ = 0;
        send_ls_requests(oi, n);
        current_cause_ = saved_cause;
        if (n.outstanding_requests.empty()) loading_check(oi, n);
      });
}

void Router::handle_lsr(OspfInterface& oi, Neighbor& n,
                        const LsRequestBody& lsr) {
  if (n.state < NeighborState::kExchange) return;
  LsUpdateBody lsu;
  for (const auto& req : lsr.requests) {
    const LsaKey key{req.type, req.link_state_id, req.advertising_router};
    const auto* entry = lsdb_.find(key);
    if (entry == nullptr) {
      // BadLSReq (§10.7): the neighbor asked for something we never had —
      // the databases have diverged; restart the exchange.
      seq_number_mismatch(oi, n);
      return;
    }
    lsu.lsas.push_back(lsdb_.snapshot(*entry, now()));
  }
  if (lsu.lsas.empty()) return;
  // Requested LSAs are sent directly and are NOT put on the
  // retransmission list: the LSR mechanism itself provides reliability
  // (the requester re-asks for anything it did not receive).
  send_packet(oi, std::move(lsu), n.address, current_cause_);
}

void Router::seq_number_mismatch(OspfInterface& oi, Neighbor& n) {
  n.db_summary.clear();
  n.ls_requests.clear();
  n.outstanding_requests.clear();
  n.retransmit.clear();
  n.last_rx_dbd_valid = false;
  n.exchange_more_to_send = false;
  n.lsr_rxmt_timer.cancel();
  n.lsu_rxmt_timer.cancel();
  set_neighbor_state(n, NeighborState::kExStart);
  n.we_are_master = true;
  n.dd_sequence = ++dd_seq_counter_;
  send_dbd(oi, n, /*retransmit=*/false);
}

void Router::loading_check(OspfInterface& oi, Neighbor& n) {
  if (n.state != NeighborState::kLoading) return;
  if (!n.ls_requests.empty()) {
    if (n.outstanding_requests.empty()) send_ls_requests(oi, n);
    return;
  }
  if (n.outstanding_requests.empty()) neighbor_full(oi, n);
}

void Router::neighbor_full(OspfInterface& oi, Neighbor& n) {
  set_neighbor_state(n, NeighborState::kFull);
  n.lsr_rxmt_timer.cancel();
  originate_router_lsa();
  if (oi.is_lan && oi.state == InterfaceState::kDr) originate_network_lsa(oi);
}

}  // namespace nidkit::ospf
