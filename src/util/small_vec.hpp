// Small vector with inline storage for trivially copyable elements.
//
// DSR source routes are short — the paper's 1500 m x 300 m arena never needs
// more than a handful of hops — yet every forward/copy of a packet cloned a
// heap-allocated std::vector. SmallVec keeps up to N elements inline (no
// allocation at all) and spills to the heap only beyond that, which makes
// route copies part of the packet's own block instead of extra allocations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace rcast::util {

template <class T, std::size_t N>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is specialized for trivially copyable elements");
  static_assert(N > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using reverse_iterator = std::reverse_iterator<iterator>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  SmallVec() = default;

  template <class InputIt,
            class = typename std::iterator_traits<InputIt>::iterator_category>
  SmallVec(InputIt first, InputIt last) {
    assign(first, last);
  }

  SmallVec(std::initializer_list<T> init) { assign(init.begin(), init.end()); }

  /// Intentionally implicit: lets existing std::vector-based call sites and
  /// tests hand routes over without churn.
  SmallVec(const std::vector<T>& v) {  // NOLINT(google-explicit-constructor)
    assign(v.begin(), v.end());
  }

  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }

  SmallVec(SmallVec&& other) noexcept { steal(other); }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~SmallVec() { release(); }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  reverse_iterator rbegin() { return reverse_iterator(end()); }
  reverse_iterator rend() { return reverse_iterator(begin()); }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }
  const T* data() const { return data_; }
  T* data() { return data_; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(std::size_t cap) {
    if (cap > cap_) grow_to(cap);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow_to(cap_ * 2);
    data_[size_++] = v;
  }

  void pop_back() {
    RCAST_DCHECK(size_ > 0);
    --size_;
  }

  void resize(std::size_t n) {
    if (n > cap_) grow_to(std::max(n, cap_ * 2));
    for (std::size_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = n;
  }

  iterator insert(const_iterator pos, const T& v) {
    return insert(pos, &v, &v + 1);
  }

  template <class InputIt>
  iterator insert(const_iterator pos, InputIt first, InputIt last) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    const std::size_t count = static_cast<std::size_t>(
        std::distance(first, last));
    if (size_ + count > cap_) grow_to(std::max(size_ + count, cap_ * 2));
    std::memmove(data_ + at + count, data_ + at, (size_ - at) * sizeof(T));
    std::copy(first, last, data_ + at);
    size_ += count;
    return data_ + at;
  }

  iterator erase(const_iterator pos) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    std::memmove(data_ + at, data_ + at + 1, (size_ - at - 1) * sizeof(T));
    --size_;
    return data_ + at;
  }

  template <class InputIt>
  void assign(InputIt first, InputIt last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  std::vector<T> to_vector() const { return std::vector<T>(begin(), end()); }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const SmallVec& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<T>& a, const SmallVec& b) {
    return b == a;
  }

  friend std::ostream& operator<<(std::ostream& os, const SmallVec& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size_; ++i) {
      if (i > 0) os << ' ';
      os << v.data_[i];
    }
    return os << ']';
  }

 private:
  void grow_to(std::size_t cap) {
    cap = std::max(cap, N + N);
    T* heap = new T[cap];
    std::memcpy(heap, data_, size_ * sizeof(T));
    release();
    data_ = heap;
    cap_ = cap;
  }

  void release() {
    if (data_ != inline_storage()) delete[] data_;
    data_ = inline_storage();
    cap_ = N;
  }

  void steal(SmallVec& other) noexcept {
    if (other.data_ != other.inline_storage()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_storage();
      other.cap_ = N;
      other.size_ = 0;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
      size_ = other.size_;
      other.size_ = 0;
    }
  }

  T* inline_storage() { return reinterpret_cast<T*>(inline_); }

  T* data_ = inline_storage();
  std::size_t size_ = 0;
  std::size_t cap_ = N;
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace rcast::util
