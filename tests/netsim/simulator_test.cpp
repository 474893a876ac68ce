#include "netsim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace nidkit::netsim {
namespace {

using namespace std::chrono_literals;

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kSimStart);
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30ms, [&] { order.push_back(3); });
  sim.schedule(10ms, [&] { order.push_back(1); });
  sim.schedule(20ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SimultaneousEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule(10ms, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen{-1};
  sim.schedule(250ms, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{250ms});
  EXPECT_EQ(sim.now(), SimTime{250ms});
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto h = sim.schedule(10ms, [&] { ran = true; });
  h.cancel();
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int runs = 0;
  auto h = sim.schedule(1ms, [&] { ++runs; });
  sim.run();
  h.cancel();
  h.cancel();
  EXPECT_EQ(runs, 1);
}

TEST(Simulator, DefaultHandleIsInert) {
  TimerHandle h;
  EXPECT_FALSE(h.valid());
  h.cancel();  // must not crash
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(1ms, recurse);
  };
  sim.schedule(1ms, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime{5ms});
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10ms, [&] { ++ran; });
  sim.schedule(30ms, [&] { ++ran; });
  sim.run_until(SimTime{20ms});
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime{20ms});
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator sim;
  sim.run_until(SimTime{1s});
  EXPECT_EQ(sim.now(), SimTime{1s});
}

TEST(Simulator, RunUntilIncludesDeadlineEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule(20ms, [&] { ran = true; });
  sim.run_until(SimTime{20ms});
  EXPECT_TRUE(ran);
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator sim;
  sim.schedule(1ms, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelledEvents) {
  Simulator sim;
  bool second = false;
  auto h = sim.schedule(1ms, [] {});
  sim.schedule(2ms, [&] { second = true; });
  h.cancel();
  EXPECT_TRUE(sim.step());  // skips cancelled, runs the live one
  EXPECT_TRUE(second);
}

TEST(Simulator, ExecutedCounterCountsLiveEventsOnly) {
  Simulator sim;
  auto h = sim.schedule(1ms, [] {});
  sim.schedule(2ms, [] {});
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  SimTime seen{0};
  sim.schedule_at(SimTime{77ms}, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime{77ms});
}

/// Drives a Simulator with a seeded mix of schedules, cancels, bursts and
/// deadlines, and checks every executed event against a reference model:
/// the pending set keyed on (when, seq), the order the simulator promises.
class ScheduleModel {
 public:
  ScheduleModel(std::uint64_t seed, std::size_t budget)
      : rng_(seed), budget_(budget) {}

  void run() {
    for (int i = 0; i < 64; ++i) schedule_one();
    while (!pending_.empty()) {
      const auto before = ran_.size();
      if (pick(4) == 0) {
        ASSERT_TRUE(sim_.step());
        ASSERT_EQ(ran_.size(), before + 1) << "step ran no live event";
      } else {
        // Deadlines may lie behind the clock, on an event, or past it.
        const SimTime deadline =
            sim_.now() - SimDuration{1000} + SimDuration{pick(12) * 1000};
        const SimTime clock = std::max(sim_.now(), deadline);
        sim_.run_until(deadline);
        if (!pending_.empty()) {
          ASSERT_GT(pending_.begin()->first.first, deadline)
              << "run_until left an event due by its deadline";
        }
        // Nothing past the deadline runs, even when the last events due
        // by it are cancelled ones, and the clock ends on the deadline (or
        // stays put when the deadline lies behind it).
        for (std::size_t i = before; i < ran_.size(); ++i)
          ASSERT_LE(keys_[ran_[i]].first, deadline)
              << "run_until ran event " << ran_[i] << " past its deadline";
        ASSERT_EQ(sim_.now(), clock);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_FALSE(sim_.step()) << "a cancelled event ran";
    EXPECT_EQ(sim_.executed(), ran_.size());
    EXPECT_GE(bursts_, 3) << "no action regrew the slot slab while running";
  }

  std::size_t events() const { return keys_.size(); }
  std::size_t ran() const { return ran_.size(); }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;  // (when, seq)
  /// Fills an action's inline buffer with values the action re-reads after
  /// its own scheduling work, so one running from a slot that moved under
  /// it reads garbage (and ASan reports the use after free).
  using Payload = std::array<std::uint64_t, 6>;

  static Payload payload_for(std::size_t id) {
    Payload p;
    for (std::size_t i = 0; i < p.size(); ++i)
      p[i] = id * 0x9e3779b97f4a7c15ULL + i;
    return p;
  }

  std::uint64_t pick(std::uint64_t n) { return rng_() % n; }

  void schedule_one() {
    if (keys_.size() >= budget_) return;
    // Few distinct delays, so most events tie on time with others.
    static constexpr std::array<int, 6> kDelayMs = {0, 0, 1, 1, 2, 5};
    const SimTime when =
        sim_.now() + SimDuration{kDelayMs[pick(kDelayMs.size())] * 1000};
    const std::size_t id = keys_.size();
    const Payload payload = payload_for(id);
    auto action = [this, id, payload] {
      on_run(id);
      EXPECT_EQ(payload, payload_for(id)) << "action state moved under it";
    };
    // Both entry points take a seq from the same counter.
    handles_.push_back(pick(2) == 0
                           ? sim_.schedule_at(when, action)
                           : sim_.schedule(when - sim_.now(), action));
    keys_.push_back(Key{when, next_seq_++});
    pending_.emplace(keys_.back(), id);
  }

  void cancel(std::size_t id) {
    handles_[id].cancel();
    // A fired or already-cancelled event is not pending: cancelling it
    // must touch nothing, even when its slot has a new tenant.
    const auto [lo, hi] = pending_.equal_range(keys_[id]);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == id) {
        pending_.erase(it);
        break;
      }
    }
  }

  void on_run(std::size_t id) {
    ASSERT_FALSE(pending_.empty()) << "event " << id << " ran unscheduled";
    ASSERT_EQ(pending_.begin()->second, id) << "ran out of (when, seq) order";
    ASSERT_EQ(sim_.now(), keys_[id].first);
    pending_.erase(pending_.begin());
    ran_.push_back(id);

    if (pick(8) == 0) cancel(id);  // its own, now-fired handle
    if (bursts_ < 4 && pick(64) == 0) {
      // Take in-flight events past twice any earlier peak: the slot slab
      // must grow (and move) while this action is running.
      ++bursts_;
      peak_ = std::max(peak_, sim_.pending());
      const std::size_t target = 2 * peak_ + 1;
      budget_ += target;
      while (sim_.pending() < target) schedule_one();
    }
    for (std::uint64_t n = pick(3); n > 0; --n) schedule_one();
    for (std::uint64_t n = pick(3); n > 0; --n)
      if (!keys_.empty()) cancel(pick(keys_.size()));
    peak_ = std::max(peak_, sim_.pending());
  }

  Simulator sim_;
  std::mt19937_64 rng_;
  std::size_t budget_;
  std::uint64_t next_seq_ = 0;
  std::vector<TimerHandle> handles_;  // by event id
  std::vector<Key> keys_;             // by event id
  std::multimap<Key, std::size_t> pending_;
  std::vector<std::size_t> ran_;
  std::size_t peak_ = 0;
  int bursts_ = 0;
};

TEST(Simulator, RandomScheduleCancelMatchesReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    ScheduleModel model(seed, 4'000);
    model.run();
    if (HasFatalFailure()) return;
    // The mix must exercise both outcomes, not just one.
    EXPECT_GT(model.ran(), model.events() / 4);
    EXPECT_LT(model.ran(), model.events());
  }
}

}  // namespace
}  // namespace nidkit::netsim
