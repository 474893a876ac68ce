// Non-interoperability detection: comparing implementations' mined
// relationship sets and flagging disagreements (the paper's §2 output).
//
// A discrepancy means one implementation exhibits (and therefore expects)
// a packet causal relationship the other never exhibits — e.g. one
// implementation responds to a stale LSU with a newer LSU while the other
// stays silent. Each flagged discrepancy carries the evidence needed to
// reproduce it: the trace indices of an example stimulus/response pair in
// the implementation that has the relationship.
#pragma once

#include <string>
#include <vector>

#include "mining/relation.hpp"

namespace nidkit::detect {

/// One flagged candidate non-interoperability.
struct Discrepancy {
  mining::RelationDirection direction = mining::RelationDirection::kSendToRecv;
  mining::RelationCell cell;
  /// Name of the implementation that exhibits the relationship...
  std::string present_in;
  /// ...and the one that never does.
  std::string absent_in;
  /// Evidence from the exhibiting implementation.
  mining::RelationStats evidence;
};

/// A named implementation's mined relationships.
struct NamedRelations {
  std::string name;
  const mining::RelationSet* relations = nullptr;
};

/// N-way comparison: a cell is flagged once per implementation that lacks
/// it while at least one other has it. Deterministic order (direction,
/// haver, cell, lacker): for two sets, every cell present in only one of
/// them, the first set's before the second's.
std::vector<Discrepancy> compare_all(
    const std::vector<NamedRelations>& impls);

std::string to_string(mining::RelationDirection dir);

}  // namespace nidkit::detect
