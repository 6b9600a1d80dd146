#pragma once

#include <cstddef>
#include <iterator>
#include <vector>

namespace fs2::telemetry {

/// Fixed-capacity overwrite-oldest ring. The telemetry layer's answer to
/// "keep the recent past without keeping the whole run": trace/debug tails
/// and the feedback loop's trailing-window statistics sit on one of these,
/// so their memory is O(capacity) no matter how long the run lasts.
///
/// Index 0 is always the OLDEST retained element; size() grows until it
/// reaches capacity() and stays there, with each further push evicting the
/// oldest element. Iteration walks oldest -> newest.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : capacity_(capacity ? capacity : 1) {
    slots_.reserve(capacity_);
  }

  void push(T value) {
    if (slots_.size() < capacity_) {
      slots_.push_back(std::move(value));
      return;
    }
    slots_[head_] = std::move(value);
    head_ = (head_ + 1) % capacity_;
    evicted_ = true;
  }

  void clear() {
    slots_.clear();
    head_ = 0;
    evicted_ = false;
  }

  std::size_t size() const { return slots_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return slots_.empty(); }
  /// True once pushes have started evicting (total pushed > capacity).
  bool wrapped() const { return evicted_; }

  /// index 0 = oldest retained, size()-1 = newest.
  const T& operator[](std::size_t index) const {
    return slots_[(head_ + index) % slots_.size()];
  }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[slots_.size() - 1]; }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator(const RingBuffer* ring, std::size_t index) : ring_(ring), index_(index) {}
    const T& operator*() const { return (*ring_)[index_]; }
    const T* operator->() const { return &(*ring_)[index_]; }
    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { const_iterator copy = *this; ++index_; return copy; }
    bool operator==(const const_iterator& other) const { return index_ == other.index_; }
    bool operator!=(const const_iterator& other) const { return index_ != other.index_; }

   private:
    const RingBuffer* ring_;
    std::size_t index_;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

  /// Copy out oldest -> newest (debug dumps, tests).
  std::vector<T> snapshot() const { return std::vector<T>(begin(), end()); }

 private:
  std::size_t capacity_;
  std::vector<T> slots_;   ///< grows to capacity_, then fixed
  std::size_t head_ = 0;   ///< index of the oldest element once full
  bool evicted_ = false;   ///< a push has overwritten data
};

}  // namespace fs2::telemetry
