// nidt — the toolkit's command-line interface.
//
// Subcommands (see `nidt help`):
//   audit      run the full pipeline for 2+ implementations and print the
//              relationship matrix + flagged discrepancies
//   trace      run one scenario and save/dump its packet trace
//   mine       mine a saved trace into relationships
//   sweep      TDelay calibration sweep
//   inject     craft-and-probe validation of a stimulus class
//   triage     minimize each flag and confirm it by injection
//   stability  per-cell seed-coverage report
//   cache      maintain the scenario result cache (ls/compact/prune/clear)
//
// The CLI is a thin layer: every subcommand parses flags into a struct and
// calls the harness. run_cli is stream-parameterized so tests can drive it
// end to end without spawning processes.
#pragma once

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace nidkit::cli {

/// Parsed command line: positional subcommand + --key value flags.
struct Args {
  std::string command;
  /// Second positional token — only the `cache` command takes one
  /// (`nidt cache ls|compact|prune|clear`); empty elsewhere.
  std::string subcommand;
  std::map<std::string, std::string> flags;

  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const;
  /// The flag's value when all of it is an integer; nullopt when the flag
  /// is absent or malformed ("12x", "1..8", "").
  std::optional<long long> get_int(const std::string& key) const;
};

/// Parses argv-style tokens. Returns nullopt (and writes a message to
/// `err`) on malformed input such as a flag without a value.
std::optional<Args> parse_args(const std::vector<std::string>& tokens,
                               std::ostream& err);

/// Splits "a,b,c" into {"a","b","c"} (empty items dropped).
std::vector<std::string> split_list(const std::string& csv);

/// Runs the CLI. Returns the process exit code.
int run_cli(const std::vector<std::string>& tokens, std::ostream& out,
            std::ostream& err);

}  // namespace nidkit::cli
