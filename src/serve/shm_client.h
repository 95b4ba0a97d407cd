// ShmClient: the client side of the shared-memory serving transport. Runs in
// a separate process from the server: attaches to the named arena, allocates
// request/response tensors directly in the arena's slab heap (zero-copy in
// both directions), claims a ring slot, and futex-waits on the slot's
// completion word. All failures — attach faults, ring full, injected
// fail-points, timeouts, server-reported errors — surface as typed Status.
//
// One ShmClient is not thread-safe; the unit of concurrency is the process
// (or one ShmClient per thread over the same arena — slot claiming and the
// slab allocator are lock-free and multi-client safe).
#ifndef SRC_SERVE_SHM_CLIENT_H_
#define SRC_SERVE_SHM_CLIENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/serve.h"
#include "src/serve/shm_arena.h"

namespace tvmcpp {
namespace serve {

// Decoded model-directory entry: enough to size and allocate request/response
// tensors without any channel besides the arena.
struct ShmTensorMeta {
  std::string name;
  std::vector<int64_t> shape;
  DataType dtype;
};
struct ShmModelMeta {
  std::string name;
  std::vector<ShmTensorMeta> inputs;
  std::vector<ShmTensorMeta> outputs;
};

struct ShmCallOptions {
  int priority = 0;
  double deadline_ms = -1;    // server-side deadline (serve.h semantics)
  double timeout_ms = 30000;  // client-side bound on waiting for completion
};

class ShmClient {
 public:
  using CallOptions = ShmCallOptions;

  // Attaches to a serving arena (name resolution as in ShmTransport: "" names
  // "/tvmcpp_serve"). Waits up to `attach_timeout_ms`
  // for the server to create + initialize the arena. On failure returns null
  // and, when `status` is non-null, fills it with kTransportFault.
  static std::unique_ptr<ShmClient> Connect(const std::string& shm_name, Status* status,
                                            double attach_timeout_ms = 5000);

  // Reads the model directory. Returns false when `model` is not published.
  bool GetModelMeta(const std::string& model, ShmModelMeta* out) const;
  std::vector<std::string> ListModels() const;

  // Allocates a tensor inside the arena (zero-filled). Returns an undefined
  // NDArray when the heap is exhausted. Tensors passed to Call that were
  // allocated here go by offset — zero-copy; any other tensor is staged into
  // the arena first (one copy, counted in staged_inputs()).
  NDArray AllocTensor(std::vector<int64_t> shape, DataType dtype);

  // Submits one request and blocks until completion or timeout. On success
  // *outputs holds arena-resident tensors owned by this call (their slabs are
  // freed when the NDArrays drop). `meta`, when non-null, receives the
  // server-reported timing/batching fields.
  Status Call(const std::string& model,
              const std::unordered_map<std::string, NDArray>& inputs,
              std::vector<NDArray>* outputs, const CallOptions& opts = CallOptions(),
              InferenceResponse* meta = nullptr);

  const std::shared_ptr<ShmArena>& arena() const { return arena_; }
  int64_t staged_inputs() const { return staged_inputs_; }

 private:
  ShmClient() = default;
  // Claims a free ring slot, retrying until `give_up_ms` (monotonic). Returns
  // slot index or -1 (ring full for the whole window).
  int ClaimSlot(int64_t give_up_ms);
  // Parks tensors of a timed-out/reclaimed call in a never-freed process-wide
  // graveyard: the server still owns their completion, so freeing the slabs
  // from this process could double-free or corrupt a reallocated block.
  static void LeakTensors(std::vector<std::pair<std::string, NDArray>>&& ins,
                          std::vector<NDArray>&& outs);

  std::shared_ptr<ShmArena> arena_;
  std::unique_ptr<ShmStoragePool> pool_;
  int64_t staged_inputs_ = 0;
};

}  // namespace serve
}  // namespace tvmcpp

#endif  // SRC_SERVE_SHM_CLIENT_H_
