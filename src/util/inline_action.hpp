// Move-only type-erased callable with small-buffer storage.
//
// The simulator schedules millions of short-lived closures per run; storing
// them as std::function costs a heap allocation each time the capture list
// outgrows libstdc++'s 16-byte inline buffer (a delivery closure carries a
// whole Frame, so it always does). InlineAction widens the inline buffer to
// fit every closure the library schedules — timer re-arms, frame
// deliveries — so scheduling never touches the heap. A closure that does
// not fit (too big, over-aligned, or with a move that may throw) fails to
// compile rather than silently allocating.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace nidkit::util {

class InlineAction {
 public:
  /// Inline capacity. Sized for the largest closure the library
  /// schedules: a frame delivery captures {Network*, SegmentId, NodeId,
  /// IfaceIndex, Frame} (~64 bytes with a refcounted payload).
  static constexpr std::size_t kInlineSize = 72;

  InlineAction() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineAction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineAction(F&& f) {  // NOLINT: implicit, mirrors std::function
    static_assert(sizeof(D) <= kInlineSize,
                  "closure larger than InlineAction::kInlineSize");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "closure over-aligned for InlineAction");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "closure move may throw; InlineAction relocates noexcept");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &kOps<D>;
  }

  InlineAction(InlineAction&& other) noexcept : ops_(other.ops_) {
    if (ops_) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr Ops kOps = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) noexcept {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) noexcept { static_cast<D*>(p)->~D(); },
  };

  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace nidkit::util
