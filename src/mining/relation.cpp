#include "mining/relation.hpp"

#include <algorithm>

namespace nidkit::mining {

namespace {

/// Canonical "earlier evidence" order: observation time, then trace
/// position. Using the full triple (not just the time) makes add() and
/// merge() insensitive to the order observations arrive in, which in turn
/// makes set union associative and commutative — the property the
/// parallel executor's deterministic merge and the tie-reordering
/// invariance tests rely on.
bool earlier_evidence(SimTime when, std::size_t stimulus_index,
                      std::size_t response_index, const RelationStats& stats) {
  if (when != stats.first_seen) return when < stats.first_seen;
  if (stimulus_index != stats.example_stimulus)
    return stimulus_index < stats.example_stimulus;
  return response_index < stats.example_response;
}

RelationSet::CellTable::iterator lower_bound_cell(RelationSet::CellTable& table,
                                                  const RelationCell& cell) {
  return std::lower_bound(
      table.begin(), table.end(), cell,
      [](const auto& entry, const RelationCell& c) { return entry.first < c; });
}

/// Folds `stats` into `into` (same cell observed again): counts add, the
/// canonically earliest evidence survives.
void fold_stats(const RelationStats& stats, RelationStats& into) {
  into.count += stats.count;
  if (earlier_evidence(stats.first_seen, stats.example_stimulus,
                       stats.example_response, into)) {
    into.first_seen = stats.first_seen;
    into.example_stimulus = stats.example_stimulus;
    into.example_response = stats.example_response;
  }
}

}  // namespace

void RelationSet::add(RelationDirection dir, const RelationCell& cell,
                      SimTime when, std::size_t stimulus_index,
                      std::size_t response_index) {
  add_stats(dir, cell, RelationStats{1, when, stimulus_index, response_index});
}

bool RelationSet::has(RelationDirection dir, const std::string& stimulus,
                      const std::string& response) const {
  return find(dir, RelationCell{stimulus, response}) != nullptr;
}

const RelationStats* RelationSet::find(RelationDirection dir,
                                       const RelationCell& cell) const {
  const auto& t = cells(dir);
  const auto it = std::lower_bound(
      t.begin(), t.end(), cell,
      [](const auto& entry, const RelationCell& c) { return entry.first < c; });
  return it == t.end() || it->first != cell ? nullptr : &it->second;
}

void RelationSet::merge(const RelationSet& other) {
  for (const auto dir :
       {RelationDirection::kSendToRecv, RelationDirection::kRecvToSend}) {
    const auto& src = other.cells(dir);
    if (src.empty()) continue;
    auto& dst = table(dir);
    if (dst.empty()) {
      dst = src;
      continue;
    }
    // Linear merge of two sorted tables — O(n + m) instead of m
    // individual binary-search inserts.
    CellTable merged;
    merged.reserve(dst.size() + src.size());
    auto a = dst.begin();
    auto b = src.begin();
    while (a != dst.end() && b != src.end()) {
      if (a->first < b->first) {
        merged.push_back(std::move(*a++));
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.push_back(std::move(*a++));
        fold_stats(b++->second, merged.back().second);
      }
    }
    merged.insert(merged.end(), std::make_move_iterator(a),
                  std::make_move_iterator(dst.end()));
    merged.insert(merged.end(), b, src.end());
    dst = std::move(merged);
  }
}

void RelationSet::add_stats(RelationDirection dir, const RelationCell& cell,
                            const RelationStats& stats) {
  auto& t = table(dir);
  auto it = lower_bound_cell(t, cell);
  if (it == t.end() || it->first != cell)
    t.emplace(it, cell, stats);
  else
    fold_stats(stats, it->second);
}

void RelationSet::append_sorted(RelationDirection dir, RelationCell&& cell,
                                const RelationStats& stats) {
  auto& t = table(dir);
  if (t.empty() || t.back().first < cell) {
    t.emplace_back(std::move(cell), stats);
    return;
  }
  add_stats(dir, cell, stats);
}

std::set<std::string> RelationSet::stimulus_labels() const {
  std::set<std::string> out;
  for (const auto& [cell, stats] : send_to_recv_) out.insert(cell.stimulus);
  for (const auto& [cell, stats] : recv_to_send_) out.insert(cell.stimulus);
  return out;
}

std::set<std::string> RelationSet::response_labels() const {
  std::set<std::string> out;
  for (const auto& [cell, stats] : send_to_recv_) out.insert(cell.response);
  for (const auto& [cell, stats] : recv_to_send_) out.insert(cell.response);
  return out;
}

ResponseProfile response_profile(const RelationSet& set,
                                 RelationDirection direction) {
  ResponseProfile out;
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [cell, stats] : set.cells(direction)) {
    out.by_stimulus[cell.stimulus].push_back(
        ResponseProfile::Response{cell.response, stats.count, 0.0});
    totals[cell.stimulus] += stats.count;
  }
  for (auto& [stimulus, responses] : out.by_stimulus) {
    const auto total = totals[stimulus];
    for (auto& r : responses)
      r.fraction = total == 0 ? 0.0
                              : static_cast<double>(r.count) / total;
    std::sort(responses.begin(), responses.end(),
              [](const auto& a, const auto& b) {
                if (a.count != b.count) return a.count > b.count;
                return a.label < b.label;
              });
  }
  return out;
}

}  // namespace nidkit::mining
