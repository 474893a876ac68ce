#include "detect/detect.hpp"

namespace nidkit::detect {

std::string to_string(mining::RelationDirection dir) {
  return dir == mining::RelationDirection::kSendToRecv ? "send->recv"
                                                       : "recv->send";
}

std::vector<Discrepancy> compare_all(
    const std::vector<NamedRelations>& impls) {
  std::vector<Discrepancy> out;
  for (const auto dir : {mining::RelationDirection::kSendToRecv,
                         mining::RelationDirection::kRecvToSend}) {
    for (const auto& haver : impls) {
      for (const auto& [cell, stats] : haver.relations->cells(dir)) {
        for (const auto& lacker : impls) {
          if (&lacker == &haver) continue;
          if (lacker.relations->find(dir, cell) == nullptr)
            out.push_back(
                Discrepancy{dir, cell, haver.name, lacker.name, stats});
        }
      }
    }
  }
  return out;
}

}  // namespace nidkit::detect
