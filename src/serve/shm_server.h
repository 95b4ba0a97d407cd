// ShmTransport: the server side of the shared-memory serving transport. Owns
// the arena (ring + slab heap), publishes registered models in the arena's
// model directory, and runs a poller thread that turns ready ring slots into
// InferenceServer::Submit calls — with request tensors wrapped as zero-copy
// NDArray views of the client's arena slabs, and graph outputs bound to the
// client's response slabs. Completions are written back into the slot (typed
// status + timing) by the server worker itself via the request's on_complete
// hook, so no thread ever polls futures.
#ifndef SRC_SERVE_SHM_SERVER_H_
#define SRC_SERVE_SHM_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/serve.h"
#include "src/serve/shm_arena.h"

namespace tvmcpp {
namespace serve {

// Decodes one ready ring slot into an InferenceRequest whose inputs are
// zero-copy views of the arena (`keeper` keeps the mapping alive) and whose
// bound_outputs alias the client's response slabs. Returns false with *error
// set on any malformed descriptor (bad rank/offset/size), touching nothing.
// Exposed standalone so tests can assert pointer identity with the arena.
bool ShmDecodeSlot(const std::shared_ptr<ShmArena>& arena, ShmRequestSlot* slot,
                   InferenceRequest* out, std::string* error);

// Fills a descriptor's shape/dtype fields from a tensor (offset untouched).
void ShmDescribeTensor(const std::string& name, const NDArray& t, ShmTensorDesc* desc);

class ShmTransport {
 public:
  struct Options {
    std::string shm_name;            // arena name; "" -> "/tvmcpp_serve"
    size_t arena_bytes = 64u << 20;  // header + ring + slab heap
    int ring_slots = 64;             // cross-process in-flight bound
    double reclaim_after_ms = 1000;  // age before a dead client's slot is freed
  };

  // Creates the arena and starts the poller. `server` must outlive this object.
  ShmTransport(InferenceServer* server, const Options& opts);
  ~ShmTransport();
  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  // Publishes `model` under `name` in the arena's model directory so clients
  // can size request/response tensors and submit against it.
  void RegisterModel(const std::string& name,
                     std::shared_ptr<const graph::CompiledGraph> model);

  // Stops the poller thread (idempotent). In-flight requests still complete
  // through the underlying server; their slots are written before this returns
  // only if the server has finished them — call server->Shutdown() first for a
  // full drain.
  void Stop();

  struct Stats {
    int64_t received = 0;         // slots decoded and submitted
    int64_t completed = 0;        // completions written back to slots
    int64_t bad_descriptors = 0;  // malformed slots answered with kTransportFault
    int64_t unknown_model = 0;    // slots naming an unregistered model
    int64_t reclaimed_slots = 0;  // crash-reclaimed ring slots
    int64_t zero_copy_requests = 0;  // completions whose outputs needed no copy
    int64_t copied_outputs = 0;      // output tensors copied (batched slices)
  };
  Stats stats() const;

  const std::shared_ptr<ShmArena>& arena() const { return arena_; }

  // One crash-reclamation sweep: frees ring slots (and their descriptor slabs)
  // whose owning client pid is gone and whose claim age exceeds the threshold.
  // Runs periodically on the poller thread; public so tests can force it.
  int ReclaimCrashedSlots();

 private:
  void PollLoop();
  void ProcessReadySlots();
  void SubmitSlot(int slot_idx);
  void CompleteSlot(int slot_idx, uint32_t gen, const InferenceResponse& resp);
  static void WriteStatus(ShmRequestSlot* slot, const Status& status);

  InferenceServer* server_;
  std::shared_ptr<ShmArena> arena_;
  double reclaim_after_ms_;
  std::map<std::string, std::shared_ptr<const graph::CompiledGraph>> models_;
  mutable std::mutex mu_;  // guards models_ and stats_
  Stats stats_;
  std::atomic<bool> stop_{false};
  std::thread poller_;
};

}  // namespace serve
}  // namespace tvmcpp

#endif  // SRC_SERVE_SHM_SERVER_H_
