// Object pools for steady-state zero-allocation hot paths.
//
// The model's per-packet storage (BE flit vectors, payload scratch) is
// acquired from and released back to per-context pools instead of the
// heap: a VectorPool<T> keeps retired std::vector<T> bodies — capacity
// intact — on a freelist, so after warm-up the injection -> delivery ->
// recycle cycle performs no allocation at all. Pools are reached through
// SimContext::pools() (one PoolRegistry per simulation context, so
// concurrent sweep scenarios never share a freelist).
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace mango::sim {

/// Freelist of std::vector<T> bodies with retained capacity.
template <typename T>
class VectorPool {
 public:
  /// Bound on retained bodies: a drained burst should not pin unbounded
  /// memory for the rest of the run.
  static constexpr std::size_t kMaxRetained = 4096;

  /// An empty vector, reusing a retired body's capacity when available.
  std::vector<T> acquire() {
    if (free_.empty()) return {};
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    return v;
  }

  /// Retires a vector body (its elements are destroyed, capacity kept).
  void release(std::vector<T>&& v) {
    if (free_.size() < kMaxRetained && v.capacity() > 0) {
      free_.push_back(std::move(v));
    }
  }

  std::size_t retained() const { return free_.size(); }

 private:
  std::vector<std::vector<T>> free_;
};

/// Type-erased registry of VectorPools, one slot per element type.
/// Components resolve their pool once at wiring time and keep the
/// reference — the lookup never runs per packet.
class PoolRegistry {
 public:
  PoolRegistry() = default;
  PoolRegistry(const PoolRegistry&) = delete;
  PoolRegistry& operator=(const PoolRegistry&) = delete;

  template <typename T>
  VectorPool<T>& vectors() {
    const std::size_t slot = slot_of<T>();
    if (slot >= entries_.size()) entries_.resize(slot + 1);
    Entry& e = entries_[slot];
    if (e.pool == nullptr) {
      e.pool = new VectorPool<T>();
      e.destroy = [](void* p) { delete static_cast<VectorPool<T>*>(p); };
    }
    return *static_cast<VectorPool<T>*>(e.pool);
  }

  ~PoolRegistry() {
    for (Entry& e : entries_) {
      if (e.pool != nullptr) e.destroy(e.pool);
    }
  }

 private:
  struct Entry {
    void* pool = nullptr;
    void (*destroy)(void*) = nullptr;
  };

  /// Process-wide slot assignment; atomic because concurrent sweep
  /// workers may first-touch distinct element types simultaneously.
  static std::size_t next_slot() {
    static std::atomic<std::size_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }

  template <typename T>
  static std::size_t slot_of() {
    static const std::size_t slot = next_slot();
    return slot;
  }

  std::vector<Entry> entries_;
};

}  // namespace mango::sim
