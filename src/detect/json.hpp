// JSON rendering of audit results, for toolchains that consume the flags
// programmatically (CI gates, dashboards). Hand-rolled emitter — the only
// JSON this repo ever produces is these few shapes.
#pragma once

#include <string>
#include <vector>

#include "detect/detect.hpp"

namespace nidkit::detect {

/// Escapes a string for use inside a JSON string literal.
std::string json_escape(const std::string& text);

/// {"implementations":[...], "relations":{impl:[{dir,stimulus,response,
/// count,first_seen_us},...]}, "discrepancies":[{dir,stimulus,response,
/// present_in,absent_in,count,first_seen_us},...]}
///
/// The report is fully deterministic: identical inputs produce identical
/// bytes regardless of how many workers mined them. Wall-clock telemetry
/// never enters it (cli `--stats-out` writes that to its own file).
std::string to_json(const std::vector<NamedRelations>& impls,
                    const std::vector<Discrepancy>& discrepancies);

}  // namespace nidkit::detect
