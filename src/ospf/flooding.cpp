// The flooding procedure (§13): receiving Link State Updates, reflooding,
// acknowledgments (direct, delayed, implied) and retransmission.
//
// This file is where most of the paper's observable implementation
// differences live: ack batching vs direct acks, ack headers copied from
// the wire vs from the database, and stale-LSA responses all shape which
// packet causal relationships a black-box observer can mine.
#include <algorithm>

#include "ospf/router.hpp"

namespace nidkit::ospf {

LsaHeader Router::ack_header_for(const Lsa& received) const {
  if (config_.profile.ack_from_database) {
    // BIRD-like: acknowledge with our database copy's header. When we hold
    // a newer instance than the one just received, the ack carries a
    // *greater* LS sequence number than the acknowledged update — the
    // behaviour behind the paper's Table 2 discrepancy.
    const auto* entry = lsdb_.find(key_of(received.header));
    if (entry != nullptr) {
      LsaHeader h = entry->lsa.header;
      h.age = lsdb_.age_at(*entry, now());
      return h;
    }
  }
  return received.header;
}

void Router::handle_lsu(OspfInterface& oi, Neighbor& n,
                        const LsUpdateBody& lsu, std::uint64_t frame_id) {
  if (n.state < NeighborState::kExchange) return;

  std::vector<LsaHeader> direct_acks;
  bool requests_satisfied = false;

  for (const Lsa& lsa : lsu.lsas) {
    const LsaKey key = key_of(lsa.header);

    // §13 step 4: a MaxAge LSA we do not have, with no exchange under way,
    // is acknowledged and dropped without installation.
    if (lsa.header.age >= kMaxAgeSeconds && lsdb_.find(key) == nullptr) {
      bool exchanging = false;
      for (const auto& oi2 : ifaces_)
        for (const auto& [id, nb] : oi2.neighbors)
          if (nb.state == NeighborState::kExchange ||
              nb.state == NeighborState::kLoading)
            exchanging = true;
      if (!exchanging) {
        direct_acks.push_back(lsa.header);
        continue;
      }
    }

    // Does this LSA satisfy an outstanding request?
    auto req = n.ls_requests.find(key);
    if (req != n.ls_requests.end() &&
        compare_instances(lsa.header, req->second) >= 0) {
      n.ls_requests.erase(req);
      std::erase_if(n.outstanding_requests, [&key](const LsRequestEntry& e) {
        return LsaKey{e.type, e.link_state_id, e.advertising_router} == key;
      });
      requests_satisfied = true;
    }

    const auto* db = lsdb_.find(key);
    LsaHeader db_header;
    int cmp = 1;  // no database copy => received is newer
    if (db != nullptr) {
      db_header = db->lsa.header;
      db_header.age = lsdb_.age_at(*db, now());
      cmp = compare_instances(lsa.header, db_header);
    }

    if (cmp > 0) {
      // ---- Received instance is newer: install and flood (§13 step 5).
      if (db != nullptr &&
          now() - db->last_accepted_at < config_.profile.min_ls_arrival) {
        // Arriving too frequently (MinLSArrival): discard without ack.
        continue;
      }
      // Remove the superseded instance from all retransmission lists.
      for (auto& oi2 : ifaces_)
        for (auto& [id, nb] : oi2.neighbors) nb.retransmit.erase(key);

      const bool self_originated =
          lsa.header.advertising_router == config_.router_id;

      lsdb_.install(lsa, now());
      ++stats_.lsa_installs;

      if (self_originated) {
        // §13.4: someone floods a newer instance of our own LSA back at
        // us. Advance past it and re-originate — this bumps our sequence
        // number and floods an LSU with a greater LS-SN.
        refresh_lsa(key);
        continue;
      }

      // A MaxAge instance is a withdrawal: it is flooded and acknowledged
      // like any instance, then leaves the database once off every
      // retransmission list.
      if (lsa.header.age >= kMaxAgeSeconds) schedule_maxage_cleanup(key);

      const bool flooded_back = [&] {
        flood(key, &oi, frame_id, n.id);
        // flood() queues; "flooded back" means the receiving interface was
        // among the outgoing ones, which on a LAN only happens if we are
        // DR. Point-to-point never refloods to its only peer (the sender).
        return oi.is_lan && oi.state == InterfaceState::kDr;
      }();

      if (!flooded_back) {
        if (config_.profile.delayed_ack_delay.count() > 0) {
          queue_delayed_ack(oi, ack_header_for(lsa), frame_id);
        } else {
          direct_acks.push_back(ack_header_for(lsa));
        }
      }
    } else if (cmp == 0) {
      // ---- Duplicate (§13 step 7).
      ++stats_.duplicates_received;
      auto rx = n.retransmit.find(key);
      if (rx != n.retransmit.end()) {
        // Implied acknowledgment: the neighbor flooded the same instance
        // back to us — it clearly has it.
        n.retransmit.erase(rx);
        if (n.retransmit.empty()) n.lsu_rxmt_timer.cancel();
      } else if (config_.profile.direct_ack_duplicates) {
        direct_acks.push_back(ack_header_for(lsa));
      } else {
        queue_delayed_ack(oi, ack_header_for(lsa), frame_id);
      }
    } else {
      // ---- Received instance is older than ours (§13 step 8).
      ++stats_.stale_received;
      if (db_header.age >= kMaxAgeSeconds &&
          db_header.seq == kMaxSequenceNumber)
        continue;  // wrap-around in progress
      if (config_.profile.ack_stale_from_database && db != nullptr) {
        // Acknowledge with our (newer) database header; the sender sees
        // Snd(LSU) -> Rcv(LSAck with greater LS-SN) and is expected to
        // catch up through normal flooding.
        LsaHeader h = db_header;
        if (config_.profile.delayed_ack_delay.count() > 0) {
          queue_delayed_ack(oi, h, frame_id);
        } else {
          direct_acks.push_back(h);
        }
      } else if (config_.profile.respond_stale_with_newer && db != nullptr) {
        // Send our newer copy straight back (no ack, no retransmission
        // entry). The stale sender observes: Snd(LSU) -> Rcv(LSU with
        // greater LS-SN).
        LsUpdateBody reply;
        reply.lsas.push_back(lsdb_.snapshot(*db, now()));
        send_packet(oi, std::move(reply), n.address, frame_id);
      }
    }
  }

  // All direct acks for one received update go out as a single LSAck
  // packet, as real daemons do.
  if (!direct_acks.empty())
    send_direct_ack(oi, n, std::move(direct_acks), frame_id);
  if (requests_satisfied) {
    if (n.outstanding_requests.empty()) {
      n.lsr_rxmt_timer.cancel();
      if (!n.ls_requests.empty()) {
        send_ls_requests(oi, n);
      } else {
        loading_check(oi, n);
      }
    }
  }
}

void Router::handle_lsack(OspfInterface& oi, Neighbor& n,
                          const LsAckBody& ack) {
  (void)oi;
  if (n.state < NeighborState::kExchange) return;
  for (const auto& h : ack.lsa_headers) {
    auto it = n.retransmit.find(key_of(h));
    if (it == n.retransmit.end()) continue;  // ack for nothing we sent — ignore
    // Accept the ack if it covers the instance we sent (or a newer one the
    // neighbor learned meanwhile).
    if (compare_instances(h, it->second.sent_instance) >= 0) {
      n.retransmit.erase(it);
      if (n.retransmit.empty()) n.lsu_rxmt_timer.cancel();
    }
  }
}

void Router::flood(const LsaKey& key, const OspfInterface* except,
                   std::uint64_t cause, RouterId from) {
  const auto* entry = lsdb_.find(key);
  if (entry == nullptr) return;
  const LsaHeader current = entry->lsa.header;

  for (auto& oi : ifaces_) {
    bool anyone_needs_it = false;
    for (auto& [id, nb] : oi.neighbors) {
      if (nb.state < NeighborState::kExchange) continue;
      // §13.3 step 1c: the neighbor the LSA came from already has it.
      if (!from.is_zero() && id == from) continue;
      // §13.3 step 1: neighbors still waiting for this LSA via the request
      // mechanism do not also get it via flooding.
      auto req = nb.ls_requests.find(key);
      if (req != nb.ls_requests.end()) {
        if (compare_instances(current, req->second) <= 0) continue;
        // Our instance is newer than the requested one; flood it and drop
        // the stale request.
        nb.ls_requests.erase(req);
      }
      nb.retransmit[key] = RetransmitEntry{current, now()};
      arm_lsu_rxmt(oi, nb);
      anyone_needs_it = true;
    }
    if (!anyone_needs_it) continue;

    if (&oi == except) {
      // Reflooding out the receiving interface (§13.3 step 4) happens only
      // when we are the DR of that network; a point-to-point link's only
      // neighbor is the sender itself.
      if (!(oi.is_lan && oi.state == InterfaceState::kDr)) continue;
    }
    queue_flood(oi, key, cause);
  }
}

void Router::queue_flood(OspfInterface& oi, const LsaKey& key,
                         std::uint64_t cause) {
  oi.flood_queue.emplace_back(key, cause);
  if (oi.flood_queue.size() > 1) return;  // timer already pending
  const SimDuration pacing = config_.profile.flood_pacing;
  if (pacing.count() <= 0) {
    flush_flood_queue(oi);
    return;
  }
  oi.flood_timer.cancel();
  oi.flood_timer =
      net_.sim().schedule(pacing, [this, &oi] { flush_flood_queue(oi); });
}

void Router::flush_flood_queue(OspfInterface& oi) {
  while (!oi.flood_queue.empty()) {
    LsUpdateBody lsu;
    std::uint64_t cause = 0;
    std::vector<LsaKey> seen;
    std::size_t taken = 0;
    for (const auto& [key, c] : oi.flood_queue) {
      if (lsu.lsas.size() >= config_.profile.lsu_max_lsas) break;
      ++taken;
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      const auto* entry = lsdb_.find(key);
      if (entry == nullptr) continue;  // flushed meanwhile
      if (cause == 0) cause = c;
      lsu.lsas.push_back(lsdb_.snapshot(*entry, now()));
    }
    oi.flood_queue.erase(oi.flood_queue.begin(),
                         oi.flood_queue.begin() + taken);
    if (lsu.lsas.empty()) continue;

    Ipv4Addr dst = kAllSpfRouters;
    if (oi.is_lan && oi.state != InterfaceState::kDr &&
        oi.state != InterfaceState::kBackup) {
      dst = kAllDRouters;  // DRother floods toward the DR/BDR only
    }
    send_packet(oi, std::move(lsu), dst, cause);
  }
}

void Router::queue_delayed_ack(OspfInterface& oi, const LsaHeader& header,
                               std::uint64_t frame_id) {
  oi.pending_acks.emplace_back(header, frame_id);
  if (oi.pending_acks.size() > 1) return;  // timer already pending
  oi.ack_timer.cancel();
  oi.ack_timer = net_.sim().schedule(config_.profile.delayed_ack_delay,
                                     [this, &oi] { flush_delayed_acks(oi); });
}

void Router::flush_delayed_acks(OspfInterface& oi) {
  if (oi.pending_acks.empty()) return;
  LsAckBody body;
  const std::uint64_t cause = oi.pending_acks.front().second;
  for (const auto& [h, c] : oi.pending_acks) {
    if (config_.profile.ack_from_database) {
      // Database-sourced acks are resolved at flush time: if a newer
      // instance arrived while the ack sat in the queue, the ack carries
      // the newer header (greater LS-SN than the acknowledged update).
      const auto* entry = lsdb_.find(key_of(h));
      if (entry != nullptr) {
        LsaHeader fresh = entry->lsa.header;
        fresh.age = lsdb_.age_at(*entry, now());
        body.lsa_headers.push_back(fresh);
        continue;
      }
    }
    body.lsa_headers.push_back(h);
  }
  oi.pending_acks.clear();

  Ipv4Addr dst = kAllSpfRouters;
  if (oi.is_lan && oi.state != InterfaceState::kDr &&
      oi.state != InterfaceState::kBackup) {
    dst = kAllDRouters;
  }
  send_packet(oi, std::move(body), dst, cause);
}

void Router::send_direct_ack(OspfInterface& oi, const Neighbor& n,
                             std::vector<LsaHeader> headers,
                             std::uint64_t frame_id) {
  LsAckBody body;
  body.lsa_headers = std::move(headers);
  send_packet(oi, std::move(body), n.address, frame_id);
}

void Router::arm_lsu_rxmt(OspfInterface& oi, Neighbor& n) {
  n.lsu_rxmt_timer.cancel();
  n.lsu_rxmt_timer = net_.sim().schedule(config_.profile.rxmt_interval,
                                         [this, &oi, &n] {
                                           lsu_retransmit(oi, n);
                                         });
}

void Router::lsu_retransmit(OspfInterface& oi, Neighbor& n) {
  if (n.state < NeighborState::kExchange || n.retransmit.empty()) return;
  LsUpdateBody lsu;
  std::vector<LsaKey> dead;
  for (const auto& [key, entry] : n.retransmit) {
    if (lsu.lsas.size() >= config_.profile.lsu_max_lsas) break;
    const auto* db = lsdb_.find(key);
    if (db == nullptr) {
      dead.push_back(key);
      continue;
    }
    // Retransmit the *current* database copy; if the LSA was refreshed
    // since the original flood, the retransmission carries the newer
    // instance (and the list entry is updated to match).
    lsu.lsas.push_back(lsdb_.snapshot(*db, now()));
    n.retransmit[key].sent_instance = lsu.lsas.back().header;
  }
  for (const auto& key : dead) n.retransmit.erase(key);
  if (!lsu.lsas.empty()) {
    ++stats_.retransmissions;
    // Retransmissions are always unicast to the lagging neighbor (§13.6)
    // and are timer-driven (no provenance).
    send_packet(oi, std::move(lsu), n.address, /*cause=*/0);
  }
  if (!n.retransmit.empty()) arm_lsu_rxmt(oi, n);
}

}  // namespace nidkit::ospf
