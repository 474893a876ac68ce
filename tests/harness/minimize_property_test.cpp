// Property-test suite for the delta-debug minimizer: invariants checked
// over randomized scenarios, predicates and probe budgets with synthetic
// (pure-predicate) oracles, so the shrink loop's soundness is proved
// without paying for simulations. Numbered P1..P10 — the triage layer
// leans on every one of them.
#include "harness/minimize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

namespace nidkit::harness {
namespace {

using namespace std::chrono_literals;

/// Deterministic xorshift generator for scenario/predicate fuzz — seeds
/// are pinned so every run explores the same lattice.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

Scenario random_scenario(Rng& rng) {
  Scenario s;
  constexpr topo::Kind kKinds[] = {topo::Kind::kLinear, topo::Kind::kMesh,
                                   topo::Kind::kRing, topo::Kind::kStar,
                                   topo::Kind::kTree, topo::Kind::kLan};
  s.topology.kind = kKinds[rng.below(6)];
  s.topology.routers = 2 + rng.below(5);
  if (s.topology.kind == topo::Kind::kRing && s.topology.routers < 3)
    s.topology.routers = 3;
  s.seed = 1 + rng.below(100);
  s.tdelay = SimDuration{std::chrono::milliseconds{100 + rng.below(1700)}};
  s.churn_times.clear();
  const auto events = rng.below(4);
  for (std::uint64_t i = 0; i < events; ++i)
    s.churn_times.push_back(SimTime{std::chrono::seconds{30 + 20 * i}});
  return s;
}

/// A random predicate the start scenario is guaranteed to satisfy:
/// thresholds on each shrink dimension drawn at or below the start's
/// values, optionally plus a non-monotone "churn must keep its first
/// event" constraint. Pure, so the oracle is trivially memoizable.
std::function<bool(const Scenario&)> random_predicate(Rng& rng,
                                                      const Scenario& start) {
  const std::size_t min_routers = 2 + rng.below(start.topology.routers - 1);
  const std::size_t min_churn = rng.below(start.churn_times.size() + 1);
  const std::uint64_t min_seed = 1 + rng.below(start.seed);
  const SimDuration min_tdelay{start.tdelay.count() / (1 + rng.below(4))};
  const bool needs_first_event =
      !start.churn_times.empty() && rng.below(2) == 0;
  const SimTime first_event =
      start.churn_times.empty() ? SimTime{0} : start.churn_times.front();
  return [=](const Scenario& s) {
    if (s.topology.routers < min_routers) return false;
    if (s.churn_times.size() < min_churn) return false;
    if (s.seed < min_seed) return false;
    if (s.tdelay < min_tdelay) return false;
    if (needs_first_event &&
        std::find(s.churn_times.begin(), s.churn_times.end(), first_event) ==
            s.churn_times.end())
      return false;
    return true;
  };
}

/// Wraps a predicate as a batch oracle, recording every probed signature
/// and the number of oracle invocations.
struct RecordingOracle {
  std::function<bool(const Scenario&)> predicate;
  std::vector<std::string> probed{};
  std::size_t calls = 0;

  BatchOracle oracle() {
    return [this](const std::vector<Scenario>& batch) {
      ++calls;
      std::vector<bool> verdicts;
      for (const auto& s : batch) {
        probed.push_back(shrink_signature(s));
        verdicts.push_back(predicate(s));
      }
      return verdicts;
    };
  }
};

std::string trace_string(const MinimizeResult& r) {
  std::ostringstream os;
  for (const auto& step : r.trace)
    os << step.phase << '|' << step.action << '|' << step.reproduced << '|'
       << step.kept << '\n';
  return os.str();
}

constexpr int kCases = 60;

TEST(MinimizeProperty, P1_KeptStepsAndFinalReproduce) {
  Rng rng{0x9e3779b97f4a7c15ull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    const auto pred = random_predicate(rng, start);
    ASSERT_TRUE(pred(start));
    RecordingOracle rec{pred};
    const auto r = minimize_scenario(start, {}, rec.oracle());
    // Every kept step was a reproducing candidate, and the result the loop
    // hands back still satisfies the predicate.
    for (const auto& step : r.trace) {
      if (step.kept) {
        EXPECT_TRUE(step.reproduced) << step.action;
      }
    }
    EXPECT_TRUE(pred(r.minimal)) << shrink_signature(r.minimal);
  }
}

TEST(MinimizeProperty, P2_FixpointIsOneMinimal) {
  Rng rng{0xdeadbeefcafef00dull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    const auto pred = random_predicate(rng, start);
    RecordingOracle rec{pred};
    const auto r = minimize_scenario(start, {}, rec.oracle());
    ASSERT_TRUE(r.fixpoint) << "default budget must suffice for this lattice";
    // Independent re-derivation: no single-step reduction of the minimal
    // scenario may still satisfy the predicate.
    for (const auto& cand : shrink_candidates(r.minimal))
      EXPECT_FALSE(pred(cand.scenario))
          << cand.action << " of " << shrink_signature(r.minimal);
  }
}

TEST(MinimizeProperty, P3_DeterministicByteIdenticalTrace) {
  Rng rng{0x1234567890abcdefull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    const auto pred = random_predicate(rng, start);
    RecordingOracle rec1{pred}, rec2{pred};
    const auto a = minimize_scenario(start, {}, rec1.oracle());
    const auto b = minimize_scenario(start, {}, rec2.oracle());
    EXPECT_EQ(trace_string(a), trace_string(b));
    EXPECT_EQ(shrink_signature(a.minimal), shrink_signature(b.minimal));
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.fixpoint, b.fixpoint);
    EXPECT_EQ(a.budget_exhausted, b.budget_exhausted);
  }
}

TEST(MinimizeProperty, P4_JobsInvariantSelection) {
  // A fanned-out oracle evaluates its batch in any order; only the
  // positional verdict vector reaches the minimizer. Emulate the worst
  // case — reverse evaluation order — and demand identical results.
  Rng rng{0x0123456789abcdefull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    const auto pred = random_predicate(rng, start);
    RecordingOracle serial{pred};
    const auto a = minimize_scenario(start, {}, serial.oracle());
    const auto b = minimize_scenario(
        start, {}, [&](const std::vector<Scenario>& batch) {
          std::vector<bool> verdicts(batch.size());
          for (std::size_t i = batch.size(); i-- > 0;)
            verdicts[i] = pred(batch[i]);
          return verdicts;
        });
    EXPECT_EQ(trace_string(a), trace_string(b));
    EXPECT_EQ(shrink_signature(a.minimal), shrink_signature(b.minimal));
  }
}

TEST(MinimizeProperty, P5_ProbeBudgetRespected) {
  Rng rng{0xfeedfacefeedfaceull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    const auto pred = random_predicate(rng, start);
    for (const std::size_t budget : {std::size_t{1}, std::size_t{3},
                                     std::size_t{7}, std::size_t{200}}) {
      RecordingOracle rec{pred};
      MinimizeConfig mc;
      mc.max_probes = budget;
      const auto r = minimize_scenario(start, mc, rec.oracle());
      EXPECT_LE(r.probes, budget);
      EXPECT_EQ(r.probes, rec.probed.size());
      // The budget never breaks soundness, only completeness.
      EXPECT_TRUE(pred(r.minimal));
      if (r.budget_exhausted) {
        // Truncation is only claimed when the budget was spent to the last
        // probe: a truncated round always fills the budget exactly.
        EXPECT_EQ(r.probes, budget);
      }
    }
  }
}

TEST(MinimizeProperty, P6_NoSignatureProbedTwice) {
  Rng rng{0xa5a5a5a55a5a5a5aull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    RecordingOracle rec{random_predicate(rng, start)};
    minimize_scenario(start, {}, rec.oracle());
    std::set<std::string> unique(rec.probed.begin(), rec.probed.end());
    EXPECT_EQ(unique.size(), rec.probed.size())
        << "memoization must prevent duplicate probes";
  }
}

TEST(MinimizeProperty, P7_ShrinkDimensionsNeverGrow) {
  Rng rng{0x0f0f0f0ff0f0f0f0ull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    RecordingOracle rec{random_predicate(rng, start)};
    const auto r = minimize_scenario(start, {}, rec.oracle());
    EXPECT_LE(r.minimal.topology.routers, start.topology.routers);
    EXPECT_LE(r.minimal.churn_times.size(), start.churn_times.size());
    EXPECT_LE(r.minimal.seed, start.seed);
    EXPECT_LE(r.minimal.tdelay, start.tdelay);
    // Only shrink dimensions move; everything else is untouched.
    EXPECT_EQ(r.minimal.duration, start.duration);
    EXPECT_EQ(r.minimal.link_jitter, start.link_jitter);
    EXPECT_DOUBLE_EQ(r.minimal.link_loss, start.link_loss);
  }
}

TEST(MinimizeProperty, P8_TraceAccountsForEveryProbe) {
  Rng rng{0x5ee15ee15ee15ee1ull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    RecordingOracle rec{random_predicate(rng, start)};
    const auto r = minimize_scenario(start, {}, rec.oracle());
    // Each fresh probe corresponds to a traced consideration; memoized
    // re-considerations may add trace entries but never probes.
    EXPECT_LE(r.probes, r.trace.size());
    // When no step was kept, the minimizer returns the input untouched.
    std::size_t kept = 0;
    for (const auto& step : r.trace) kept += step.kept ? 1 : 0;
    if (kept == 0) {
      EXPECT_EQ(shrink_signature(r.minimal), shrink_signature(start));
    }
    EXPECT_EQ(r.fixpoint || r.budget_exhausted, true)
        << "the loop ends either proven minimal or out of budget";
  }
}

TEST(MinimizeProperty, P9_CandidatesWellFormed) {
  Rng rng{0xc001d00dc001d00dull};
  for (int c = 0; c < 200; ++c) {
    const Scenario s = random_scenario(rng);
    const auto cands = shrink_candidates(s);
    std::set<std::string> seen;
    seen.insert(shrink_signature(s));
    for (const auto& cand : cands) {
      // Never the scenario itself, never a duplicate.
      EXPECT_TRUE(seen.insert(shrink_signature(cand.scenario)).second)
          << cand.action;
      // Always a buildable topology.
      EXPECT_GE(cand.scenario.topology.routers, 2u);
      if (cand.scenario.topology.kind == topo::Kind::kRing) {
        EXPECT_GE(cand.scenario.topology.routers, 3u);
      }
      // TDelay reductions stay expressible as --tdelay-ms.
      EXPECT_EQ(cand.scenario.tdelay.count() % 1000, 0)
          << "sub-millisecond tdelay cannot round-trip the repro command";
      EXPECT_GE(cand.scenario.tdelay,
                SimDuration{std::chrono::milliseconds{100}});
      EXPECT_GE(cand.scenario.seed, 1u);
    }
    // A fully-minimal scenario generates nothing.
    Scenario bottom;
    bottom.topology = topo::Spec{topo::Kind::kLinear, 2};
    bottom.churn_times.clear();
    bottom.seed = 1;
    bottom.tdelay = SimDuration{std::chrono::milliseconds{150}};
    EXPECT_TRUE(shrink_candidates(bottom).empty());
  }
}

TEST(MinimizeProperty, P10_UnshrinkableInputIsIdentityFixpoint) {
  // A predicate that only the start satisfies leaves the scenario intact:
  // no kept steps, fixpoint proven, minimal == start.
  Rng rng{0xbadc0ffee0ddf00dull};
  for (int c = 0; c < kCases; ++c) {
    const Scenario start = random_scenario(rng);
    const std::string sig = shrink_signature(start);
    RecordingOracle rec{
        [&sig](const Scenario& s) { return shrink_signature(s) == sig; }};
    const auto r = minimize_scenario(start, {}, rec.oracle());
    EXPECT_EQ(shrink_signature(r.minimal), sig);
    EXPECT_TRUE(r.fixpoint);
    for (const auto& step : r.trace) {
      EXPECT_FALSE(step.kept);
      EXPECT_FALSE(step.reproduced);
    }
  }
}

}  // namespace
}  // namespace nidkit::harness
