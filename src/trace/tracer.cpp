#include "trace/tracer.hpp"

#include <memory>
#include <mutex>

namespace fs2::trace {

std::atomic<bool> Tracer::enabled_{false};

namespace {

/// Single-producer (owning thread) / single-consumer (drainer) ring.
/// head_ and tail_ are monotonically increasing event counts; the slot for
/// event n is n % capacity. Producer advances head_, consumer advances
/// tail_; neither writes the other's index, so relaxed/acquire/release
/// pairs are enough.
struct ThreadRing {
  std::vector<SpanEvent> slots{std::vector<SpanEvent>(Tracer::kRingCapacity)};
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::atomic<std::uint64_t> dropped{0};

  void push(const char* name, double begin_s, double end_s) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    if (h - tail.load(std::memory_order_acquire) >= slots.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    SpanEvent& e = slots[h % slots.size()];
    e.name = name;
    e.begin_s = begin_s;
    e.end_s = end_s;
    head.store(h + 1, std::memory_order_release);
  }

  std::size_t drain_into(std::vector<SpanEvent>& out) {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    std::uint64_t t = tail.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(h - t);
    for (; t < h; ++t) out.push_back(slots[t % slots.size()]);
    tail.store(t, std::memory_order_release);
    return n;
  }
};

/// Rings are registered once per thread and retained for the life of the
/// process (the global list holds a shared_ptr), so events buffered by a
/// thread that has since exited are still drained losslessly. A ring is
/// ~384 KiB, so a thread that lives for one phase should hand its spans to
/// a longer-lived thread rather than record them, as ThreadManager does for
/// its stress workers.
struct RingDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadRing>> rings;
};

RingDirectory& directory() {
  static RingDirectory dir;
  return dir;
}

ThreadRing& this_thread_ring() {
  thread_local std::shared_ptr<ThreadRing> ring = [] {
    auto r = std::make_shared<ThreadRing>();
    RingDirectory& dir = directory();
    std::lock_guard<std::mutex> lock(dir.mutex);
    dir.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

void Tracer::record(const char* name, double begin_s, double end_s) {
  this_thread_ring().push(name, begin_s, end_s);
}

std::size_t Tracer::drain(std::vector<SpanEvent>& out) {
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mutex);
  std::size_t total = 0;
  for (const auto& ring : dir.rings) total += ring->drain_into(out);
  return total;
}

std::uint64_t Tracer::dropped() {
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mutex);
  std::uint64_t total = 0;
  for (const auto& ring : dir.rings) total += ring->dropped.load(std::memory_order_relaxed);
  return total;
}

std::size_t Tracer::rings() {
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mutex);
  return dir.rings.size();
}

void Tracer::reset() {
  set_enabled(false);
  RingDirectory& dir = directory();
  std::lock_guard<std::mutex> lock(dir.mutex);
  for (const auto& ring : dir.rings) {
    ring->tail.store(ring->head.load(std::memory_order_acquire), std::memory_order_release);
    ring->dropped.store(0, std::memory_order_relaxed);
  }
}

}  // namespace fs2::trace
