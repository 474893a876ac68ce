// InlineAction: the simulator's event-closure storage. The contract under
// test: any void() callable runs exactly once, captures survive moves and
// the hot-path closure sizes stay inline. A closure that cannot live
// inline is a compile error, so no test can construct one.
#include "util/inline_action.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

namespace nidkit::util {
namespace {

TEST(InlineAction, DefaultConstructedIsEmpty) {
  InlineAction a;
  EXPECT_FALSE(static_cast<bool>(a));
}

TEST(InlineAction, InvokesCapturedLambda) {
  int hits = 0;
  InlineAction a = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(a));
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(InlineAction, MoveTransfersTheCallable) {
  int hits = 0;
  InlineAction a = [&hits] { ++hits; };
  InlineAction b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: post-move state is pinned
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineAction, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  InlineAction a = [t = std::move(token)] { (void)t; };
  EXPECT_FALSE(alive.expired());
  a = InlineAction{};
  EXPECT_TRUE(alive.expired());
}

TEST(InlineAction, DestructorReleasesCapture) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  {
    InlineAction a = [t = std::move(token)] { (void)t; };
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

TEST(InlineAction, HotPathClosureSizesFitInline) {
  // The whole point of the type: a frame-delivery-sized capture must not
  // heap-allocate. ~60 bytes of captured state stays under kInlineSize.
  struct DeliveryShaped {
    void* network;
    std::uint32_t segment, node, iface;
    std::array<unsigned char, 40> frame;
  };
  static_assert(sizeof(DeliveryShaped) <= InlineAction::kInlineSize);
  static_assert(InlineAction::kInlineSize >= 72);
}

TEST(InlineAction, ReusableAsAQueueSlot) {
  // The simulator stores actions in a vector-heap and move-assigns slots
  // during push_heap/pop_heap sifts; model that churn.
  std::vector<InlineAction> q;
  int sum = 0;
  for (int i = 0; i < 16; ++i) q.push_back([&sum, i] { sum += i; });
  for (int round = 0; round < 3; ++round)
    for (std::size_t i = 1; i < q.size(); ++i) std::swap(q[i - 1], q[i]);
  for (auto& a : q) a();
  EXPECT_EQ(sum, 120);
}

}  // namespace
}  // namespace nidkit::util
