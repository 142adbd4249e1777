// Chunked bump arena for partition-resident model state.
//
// A fabric's per-shard components (routers, NAs, links, VC buffers,
// flow boxes, arbiters — and the stat slots embedded in them) are
// allocated back-to-back from one arena per partition, in node-index
// order. The hot path chases pointers between these objects on every
// event, so co-locating a partition's working set in a few contiguous
// chunks keeps neighbouring components on shared cache lines and stops
// the general-purpose heap from interleaving unrelated allocations
// (scenario scratch, report strings) into the middle of the fabric.
//
// The arena owns the lifetime of everything it creates: create<T>()
// registers the destructor (skipped for trivially destructible types)
// and ~Arena() runs them in reverse creation order — mirroring the
// unwind order the member-by-member unique_ptr layout it replaces had.
// Individual objects cannot be freed early, so state with runtime churn
// (the NA's per-connection flow box) lives by value in a slot its owner
// reuses, not in the arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mango::sim {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (auto it = dtors_.rbegin(); it != dtors_.rend(); ++it) {
      it->destroy(it->obj);
    }
  }

  /// Raw aligned storage from the current chunk (a fresh chunk when it
  /// does not fit; oversized requests get a dedicated chunk).
  void* allocate(std::size_t size, std::size_t align) {
    if (!chunks_.empty()) {
      Chunk& c = chunks_.back();
      const std::size_t aligned = (c.used + align - 1) & ~(align - 1);
      if (aligned + size <= c.size) {
        c.used = aligned + size;
        return c.data.get() + aligned;
      }
    }
    const std::size_t chunk = size > chunk_bytes_ ? size : chunk_bytes_;
    chunks_.push_back(Chunk{std::make_unique<unsigned char[]>(chunk),
                            chunk, size});
    return chunks_.back().data.get();
  }

  /// Constructs a T in the arena. The arena destroys it (reverse
  /// creation order) when the arena itself is destroyed.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    T* obj = ::new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      dtors_.push_back(Registered{
          obj, [](void* o) { static_cast<T*>(o)->~T(); }});
    }
    return obj;
  }

  /// Total bytes reserved from the system (capacity of all chunks).
  std::size_t bytes_reserved() const {
    std::size_t n = 0;
    for (const Chunk& c : chunks_) n += c.size;
    return n;
  }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  struct Registered {
    void* obj;
    void (*destroy)(void*);
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::vector<Registered> dtors_;
};

}  // namespace mango::sim
