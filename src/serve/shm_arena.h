// ShmArena: a named POSIX shared-memory arena (shm_open + mmap) holding the
// serving transport's request ring and a lock-free slab allocator for tensor
// payloads. One server process Creates it; any number of client processes
// Attach. All allocator state lives inside the mapping, so every process sees
// the same free lists and the arena survives client crashes (the server's
// reclamation sweep returns slabs held by dead processes).
#ifndef SRC_SERVE_SHM_ARENA_H_
#define SRC_SERVE_SHM_ARENA_H_

#include <memory>
#include <string>

#include "src/runtime/ndarray.h"
#include "src/serve/shm_layout.h"

namespace tvmcpp {
namespace serve {

struct ShmArenaOptions {
  size_t bytes = 64u << 20;  // total mapping size
  int ring_slots = 64;       // request-ring capacity
};

class ShmArena {
 public:
  using Options = ShmArenaOptions;

  // Creates (replacing any stale object of the same name) or attaches to the
  // arena `name` ("/tvmcpp_serve"-style; a leading '/' is added if missing, and
  // "" names "/tvmcpp_serve").
  // Both throw std::runtime_error on failure — including version/magic
  // mismatch on attach — and evaluate the `serve.shm_attach` fail-point, so
  // callers can surface a typed Status. Attach waits up to `timeout_ms` for
  // the creator to finish initializing.
  static std::shared_ptr<ShmArena> Create(const std::string& name, Options opts = {});
  static std::shared_ptr<ShmArena> Attach(const std::string& name, double timeout_ms = 5000);

  ~ShmArena();
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  // Allocates a zero-filled slab of at least `bytes` from the heap and returns
  // the absolute arena offset of its payload, or kShmNoOffset when the heap is
  // exhausted. Lock-free; callable from any attached process.
  int64_t AllocOffset(size_t bytes);
  // Returns a payload obtained from AllocOffset to its size-class free list.
  // Returns false (and leaves the heap untouched) if the offset does not
  // address a live block — a corrupt descriptor must not take the server down.
  bool FreeOffset(int64_t offset);

  char* At(int64_t offset) { return base_ + offset; }
  const char* At(int64_t offset) const { return base_ + offset; }
  // True when [ptr, ptr+bytes) lies inside this mapping's slab heap.
  bool Contains(const void* ptr, size_t bytes) const;
  int64_t OffsetOf(const void* ptr) const {
    return static_cast<const char*>(ptr) - base_;
  }
  // Validates that a descriptor's payload [offset, offset+bytes) lies inside
  // the slab heap (the server runs this on every client-supplied offset).
  bool ValidPayload(int64_t offset, size_t bytes) const;

  ShmArenaHeader* header() { return reinterpret_cast<ShmArenaHeader*>(base_); }
  const ShmArenaHeader* header() const { return reinterpret_cast<const ShmArenaHeader*>(base_); }
  ShmRequestSlot* slot(int i) { return slots_ + i; }
  int num_slots() const { return static_cast<int>(header()->num_slots); }
  const std::string& name() const { return name_; }
  bool owner() const { return owner_; }

  // Removes the name from the shm namespace (existing mappings stay valid).
  void Unlink();

 private:
  ShmArena() = default;
  void MapAndInit(size_t bytes, int ring_slots);

  std::string name_;  // normalized ("/..."-prefixed) shm object name
  int fd_ = -1;
  char* base_ = nullptr;
  size_t mapped_bytes_ = 0;
  ShmRequestSlot* slots_ = nullptr;
  bool owner_ = false;
};

// StoragePool backed by an ShmArena: NDArray::Empty under a
// ScopedStoragePool(&pool) lands tensor bytes directly in the arena, making
// them addressable by offset from any attached process. The returned storage
// frees its slab when the last NDArray referencing it drops.
class ShmStoragePool : public StoragePool {
 public:
  explicit ShmStoragePool(std::shared_ptr<ShmArena> arena) : arena_(std::move(arena)) {}
  std::shared_ptr<NDStorage> Allocate(size_t bytes) override;

 private:
  std::shared_ptr<ShmArena> arena_;
};

}  // namespace serve
}  // namespace tvmcpp

#endif  // SRC_SERVE_SHM_ARENA_H_
