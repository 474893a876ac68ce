// Mid-run fault changes, the way Pumba applies netem rules to a running
// container: a test writes Network::fault directly, at once or from a
// scheduled event, and the next frame sent sees the new model.
#include <gtest/gtest.h>

#include "netsim/network.hpp"

namespace nidkit::netsim {
namespace {

using namespace std::chrono_literals;

struct ChaosFixture : ::testing::Test {
  Simulator sim;
  Network net{sim, 1};
  NodeId a = net.add_node("a");
  NodeId b = net.add_node("b");
  SegmentId ab = net.add_p2p(a, b);
};

TEST_F(ChaosFixture, WindowedCutDisruptsDelivery) {
  sim.schedule_at(SimTime{10ms}, [&] { net.fault(ab).down = true; });
  sim.schedule_at(SimTime{110ms}, [&] { net.fault(ab).down = false; });
  int got = 0;
  net.set_receive_handler(b, [&](IfaceIndex, const Frame&) { ++got; });

  auto send = [&] {
    Frame f;
    f.dst = kAllSpfRouters;
    f.protocol = 89;
    f.payload = {1};
    net.send(a, 0, std::move(f));
  };
  sim.schedule(5ms, send);    // before the window: delivered
  sim.schedule(50ms, send);   // inside: dropped
  sim.schedule(200ms, send);  // after: delivered
  sim.run();
  EXPECT_EQ(got, 2);
}

TEST_F(ChaosFixture, FifoSurvivesMidRunDelayChange) {
  // An in-flight frame delayed 500 ms must not be overtaken by a frame
  // sent later under a reduced 10 ms delay when the link is FIFO.
  net.fault(ab).fifo = true;
  net.fault(ab).delay = 500ms;
  std::vector<std::uint8_t> order;
  net.set_receive_handler(b, [&](IfaceIndex, const Frame& f) {
    order.push_back(f.payload[0]);
  });
  auto send = [&](std::uint8_t tag) {
    Frame f;
    f.dst = kAllSpfRouters;
    f.protocol = 89;
    f.payload = {tag};
    net.send(a, 0, std::move(f));
  };
  send(1);
  sim.schedule(100ms, [&] {
    net.fault(ab).delay = 10ms;
    send(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{1, 2}));
}

TEST_F(ChaosFixture, NonFifoAllowsOvertakingAfterDelayDrop) {
  net.fault(ab).delay = 500ms;
  std::vector<std::uint8_t> order;
  net.set_receive_handler(b, [&](IfaceIndex, const Frame& f) {
    order.push_back(f.payload[0]);
  });
  auto send = [&](std::uint8_t tag) {
    Frame f;
    f.dst = kAllSpfRouters;
    f.protocol = 89;
    f.payload = {tag};
    net.send(a, 0, std::move(f));
  };
  send(1);
  sim.schedule(100ms, [&] {
    net.fault(ab).delay = 10ms;
    send(2);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{2, 1}))
      << "plain IP links deliver per-frame: the fast frame wins";
}

}  // namespace
}  // namespace nidkit::netsim
