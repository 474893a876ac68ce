#include "detect/json.hpp"

#include <sstream>

namespace nidkit::detect {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void emit_cell(std::ostringstream& os, mining::RelationDirection dir,
               const mining::RelationCell& cell,
               const mining::RelationStats& stats) {
  os << "{\"direction\":\"" << to_string(dir) << "\",\"stimulus\":\""
     << json_escape(cell.stimulus) << "\",\"response\":\""
     << json_escape(cell.response) << "\",\"count\":" << stats.count
     << ",\"first_seen_us\":" << stats.first_seen.count() << "}";
}

}  // namespace

std::string to_json(const std::vector<NamedRelations>& impls,
                    const std::vector<Discrepancy>& discrepancies) {
  std::ostringstream os;
  os << "{\"implementations\":[";
  for (std::size_t i = 0; i < impls.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(impls[i].name) << "\"";
  }
  os << "],\"relations\":{";
  for (std::size_t i = 0; i < impls.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(impls[i].name) << "\":[";
    bool first = true;
    for (const auto dir : {mining::RelationDirection::kSendToRecv,
                           mining::RelationDirection::kRecvToSend}) {
      for (const auto& [cell, stats] : impls[i].relations->cells(dir)) {
        if (!first) os << ",";
        emit_cell(os, dir, cell, stats);
        first = false;
      }
    }
    os << "]";
  }
  os << "},\"discrepancies\":[";
  for (std::size_t i = 0; i < discrepancies.size(); ++i) {
    if (i) os << ",";
    const auto& d = discrepancies[i];
    os << "{\"direction\":\"" << to_string(d.direction)
       << "\",\"stimulus\":\"" << json_escape(d.cell.stimulus)
       << "\",\"response\":\"" << json_escape(d.cell.response)
       << "\",\"present_in\":\"" << json_escape(d.present_in)
       << "\",\"absent_in\":\"" << json_escape(d.absent_in)
       << "\",\"count\":" << d.evidence.count
       << ",\"first_seen_us\":" << d.evidence.first_seen.count() << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace nidkit::detect
