// Small-inline vector for trivially copyable elements.
//
// The SPF kernel's next-hop sets (ospf::SpfScratch::HopSet) hold a handful of
// router ids per destination — almost always one, a few under ECMP — yet
// std::vector heap-allocates for every non-empty set. SmallVec keeps the
// first N elements inline and only spills to the heap for outliers.
// Restricted to trivially copyable T so relocation is memcpy and the type
// stays easy to audit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>

namespace nidkit::util {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is restricted to trivially copyable elements");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  SmallVec() noexcept = default;

  SmallVec(const SmallVec& other) { assign(other.data(), other.size_); }
  SmallVec(SmallVec&& other) noexcept { steal(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      clear_storage();
      assign(other.data(), other.size_);
    }
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      clear_storage();
      steal(other);
    }
    return *this;
  }
  ~SmallVec() { clear_storage(); }

  void push_back(const T& value) {
    if (size_ == capacity_) grow(capacity_ * 2);
    data()[size_++] = value;
  }

  void reserve(std::size_t cap) {
    if (cap > capacity_) grow(cap);
  }

  void clear() { size_ = 0; }

  T* data() noexcept { return heap_ ? heap_ : inline_elems(); }
  const T* data() const noexcept {
    return heap_ ? heap_ : inline_elems();
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool is_inline() const noexcept { return heap_ == nullptr; }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& back() noexcept { return data()[size_ - 1]; }
  const T& back() const noexcept { return data()[size_ - 1]; }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_ * sizeof(T)) == 0);
  }

 private:
  T* inline_elems() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  const T* inline_elems() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void assign(const T* src, std::size_t n) {
    size_ = 0;
    capacity_ = N;
    heap_ = nullptr;
    if (n > N) grow(n);
    if (n > 0) std::memcpy(data(), src, n * sizeof(T));
    size_ = n;
  }

  /// Takes other's storage; other is left empty (inline).
  void steal(SmallVec& other) noexcept {
    if (other.heap_) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
    } else {
      heap_ = nullptr;
      capacity_ = N;
      size_ = other.size_;
      if (size_ > 0)
        std::memcpy(inline_storage_, other.inline_storage_,
                    size_ * sizeof(T));
    }
    other.heap_ = nullptr;
    other.capacity_ = N;
    other.size_ = 0;
  }

  void grow(std::size_t cap) {
    cap = std::max(cap, N + 1);
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    if (size_ > 0) std::memcpy(fresh, data(), size_ * sizeof(T));
    if (heap_) ::operator delete(heap_);
    heap_ = fresh;
    capacity_ = cap;
  }

  void clear_storage() noexcept {
    if (heap_) ::operator delete(heap_);
    heap_ = nullptr;
    capacity_ = N;
    size_ = 0;
  }

  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace nidkit::util
