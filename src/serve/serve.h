// Concurrent inference serving (the paper's "deployed inference" runtime side).
//
// An InferenceServer owns one process-wide ThreadPool and a bounded MPMC request
// queue, and multiplexes many logically-concurrent inference requests over the pool.
// Requests execute against shared, immutable graph::CompiledGraphs; each in-flight
// request gets its own graph::RunContext, so N requests share compiled code (lowered
// funcs + cached vm::Programs + memory plan) but never writable buffers.
//
// Scheduling is two-level:
//   level 1 (whole-request): each accepted request becomes one pool job; with a deep
//     queue, throughput comes from running W requests concurrently, and kernels
//     inside a request run with serial kParallel loops (chunking would only add
//     contention when the pool is already saturated with requests).
//   level 2 (intra-kernel): when the server is shallow (fewer active+pending
//     requests than workers), requests fan their kParallel loops out as chunk jobs
//     on the *same* pool via vm::ExecOptions, so a lone request still uses all
//     cores. A request thread waiting on its chunks helps drain the pool
//     (ThreadPool::TryRunOne), so the single shared pool cannot deadlock.
//
// Dynamic batching (ServerOptions::max_batch > 1): a worker that pops a request
// coalesces every queued same-model, shape-compatible request with it (up to
// max_batch, lingering up to batch_timeout_ms for late arrivals), concatenates the
// inputs along dimension 0, runs one batched CompiledGraph variant (compiled lazily
// per batch size, cached per model in a BatchedModelCache), and resolves each
// request's future with a zero-copy slice of the batched outputs. Per-request
// results stay bitwise-identical to unbatched runs; see src/serve/batch.h.
//
// Fault tolerance & SLA (see docs/ARCHITECTURE.md):
//   - Every future carries a value; InferenceResponse::status is the typed outcome
//     (ok / rejected / shed / deadline-exceeded / queue-fault / compile-failed /
//     execution-failed). Futures never carry exceptions, so one poisoned request
//     fails alone and callers never need try/catch around get().
//   - Requests have a priority class and a deadline (server default + per-request
//     override); the queue pops by (priority desc, deadline asc, FIFO), entries
//     whose deadline already passed are failed at pop instead of executed, and —
//     when shedding is enabled — Submit sheds a request up front if the estimated
//     queue wait (EWMA of observed service times) already exceeds its deadline.
//   - An execution fault (injected via src/support/failpoint.h, or a real CHECK
//     failure) is retried with exponential backoff bounded by the deadline, then
//     down-tiered to the reference interpreter (vm::ExecOptions::force_interp; the
//     interp/VM differential guarantee makes the fallback result bitwise-identical)
//     before a typed failure is reported. A fault inside a coalesced batch splits
//     the batch into per-request runs so healthy cohabitants still succeed; a
//     batch-variant compile fault degrades to per-request runs on the base model.
#ifndef SRC_SERVE_SERVE_H_
#define SRC_SERVE_SERVE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/graph/executor.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/threadpool.h"
#include "src/serve/batch.h"
#include "src/serve/queue.h"

namespace tvmcpp {
namespace serve {

// Typed per-request outcome. Every InferenceResponse carries one; futures always
// resolve with a value (never an exception), so errors are data, not control flow.
enum class StatusCode {
  kOk = 0,
  kRejected,          // submitted after Shutdown
  kShed,              // admission control: predicted queue wait exceeds the deadline
  kDeadlineExceeded,  // deadline passed while queued, retrying, or backing off
  kQueueFault,        // injected fault at the queue-admission seam
  kCompileFailed,     // model (or batch-variant) compilation failed for this request
  kExecutionFailed,   // all execution attempts (retries + fallback) failed
  kTransportFault,    // shm transport failure: attach/push fault, ring full,
                      // bad descriptor, unknown model, or client-side timeout
};

const char* StatusCodeName(StatusCode code);

struct Status {
  StatusCode code = StatusCode::kOk;
  std::string message;  // human-readable cause for non-ok codes
  bool ok() const { return code == StatusCode::kOk; }
};

// One inference call: named input tensors for a shared compiled model, plus the
// request's SLA envelope.
struct InferenceResponse;

struct InferenceRequest {
  std::unordered_map<std::string, NDArray> inputs;
  // Larger pops first (e.g. interactive > batch). Ties pop FIFO.
  int priority = 0;
  // Per-request deadline override, in milliseconds from Submit: < 0 inherits
  // ServerOptions::default_deadline_ms, 0 means no deadline, > 0 overrides.
  double deadline_ms = -1;
  // Pre-bound output buffers (e.g. shared-memory slabs the client owns): when
  // non-empty there must be one tensor per graph output with matching
  // shape/dtype. The unbatched execution path then writes graph outputs
  // directly into these buffers (zero-copy response); the batched path copies
  // its output slice into them. Either way the response's outputs alias them.
  std::vector<NDArray> bound_outputs;
  // Invoked with the final response just before the future resolves, on every
  // path (ok, shed, rejected, expired, faulted). Runs on whichever thread
  // resolves the request; must not throw or block. The shm transport uses it
  // to write completion descriptors without polling futures.
  std::function<void(const InferenceResponse&)> on_complete;
};

struct InferenceResponse {
  Status status;                 // outcome; `outputs` is valid only when ok()
  std::vector<NDArray> outputs;  // one per graph output; per-request storage (a
                                 // zero-copy slice of the batched buffer when the
                                 // request was coalesced)
  double queue_ms = 0;           // time spent waiting in the request queue
  double run_ms = 0;             // kernel execution time (of the whole batch)
  int batch_size = 1;            // how many requests shared this kernel invocation
  int retries = 0;               // extra execution attempts (including fallback)
  bool fell_back = false;        // served by the interpreter down-tier
};

struct ServerOptions {
  // Worker threads in the shared pool. 0 = max(2, vm::DefaultNumThreads()), so
  // request-level concurrency exists even on single-core hosts (an explicit
  // num_workers is used verbatim).
  int num_workers = 0;
  // Bounded request-queue capacity; Submit blocks when this many requests are
  // pending (backpressure toward clients).
  int queue_capacity = 64;
  // Dynamic batching: largest number of same-model, shape-compatible requests one
  // kernel invocation may coalesce. 1 disables batching (the pre-batching 1:1
  // request:run path, zero overhead).
  int max_batch = 1;
  // How long a worker holding a partial batch lingers for late arrivals before
  // flushing, in milliseconds. 0 coalesces only what is already queued (the right
  // choice for closed-loop clients). Ignored when max_batch == 1.
  // Trade-off: a lingering worker occupies a pool thread, so with few workers a
  // long linger delays queued requests of *other* models by up to the timeout.
  double batch_timeout_ms = 0;
  // --- SLA / fault-tolerance knobs -----------------------------------------------
  // Default per-request deadline in ms; 0 = no deadline.
  double default_deadline_ms = 0;
  // Extra VM execution attempts after the first fault, before the interpreter
  // fallback is tried.
  int max_retries = 1;
  // Base of the exponential retry backoff (attempt k sleeps base * 2^k ms, never
  // past the deadline).
  double retry_backoff_ms = 0.5;
  // Down-tier to the reference interpreter after retries are exhausted (results
  // stay bitwise-identical).
  bool enable_fallback = true;
  // Shed doomed requests at admission when the EWMA-estimated queue wait already
  // exceeds their deadline (inert for requests without a deadline).
  bool enable_shedding = true;
  // Shorten the batching linger when the observed arrival rate says the batch
  // cannot fill within it (EWMA of arrival gaps).
  bool adaptive_linger = false;
};

struct ServerStats {
  int64_t accepted = 0;   // requests admitted to the queue
  int64_t completed = 0;  // responses delivered for accepted requests (any status)
  int64_t rejected = 0;   // submits after Shutdown
  int64_t shed = 0;       // refused at admission (predicted deadline miss)
  int64_t chunked_runs = 0;  // executions that ran with intra-kernel parallelism
  int64_t serial_runs = 0;   // executions that ran with serial kParallel loops
  // Dynamic-batching counters (all zero while max_batch == 1). batches ==
  // full_batches + timeout_batches; mean batch size = batched_requests / batches.
  int64_t batches = 0;           // batched-path kernel invocations (any size >= 1)
  int64_t batched_requests = 0;  // requests executed through the batched path
  int64_t full_batches = 0;      // flushed because the batch reached max_batch
  int64_t timeout_batches = 0;   // flushed by the linger deadline (or queue close)
  // Fault-tolerance counters.
  int64_t deadline_missed = 0;  // failed kDeadlineExceeded (at pop or mid-retry)
  int64_t retries = 0;          // extra execution attempts across all requests
  int64_t fallbacks = 0;        // requests served by the interpreter down-tier
  int64_t failed = 0;           // delivered responses with a non-ok status
  int64_t batch_splits = 0;     // faulted batched runs re-run per-request
  int64_t batch_compile_failures = 0;  // batch variants degraded to per-request

  // Per-priority-class breakdown, keyed by InferenceRequest::priority. Maintained
  // under the same mutex as the totals, so any snapshot satisfies e.g.
  // completed == sum over classes of completed.
  struct ClassStats {
    int64_t accepted = 0;
    int64_t completed = 0;
    int64_t ok = 0;
    int64_t shed = 0;
    int64_t deadline_missed = 0;
    int64_t retried = 0;   // requests that needed at least one retry
    int64_t fallback = 0;  // requests served by the interpreter down-tier
  };
  std::map<int, ClassStats> per_class;
};

class InferenceServer {
 public:
  explicit InferenceServer(ServerOptions options = {});
  ~InferenceServer();  // implies Shutdown()

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Thread-safe. Enqueues one request against `model` and returns the future
  // response. Blocks while the queue is full. The future always resolves with a
  // value: after Shutdown it carries status kRejected, a shed request kShed, and
  // execution outcomes their respective codes — get() never throws.
  std::future<InferenceResponse> Submit(
      std::shared_ptr<const graph::CompiledGraph> model, InferenceRequest request);

  // Stops accepting new requests and blocks until every accepted request has been
  // executed and its future fulfilled (a partial batch lingering for arrivals is
  // flushed immediately by the queue close). The pool threads themselves are joined
  // by the destructor. Idempotent; thread-safe.
  void Shutdown();

  // Overrides how batched variants of `model` are compiled (default:
  // CompiledGraph::Rebatched on the model's own graph). Use this to route batched
  // compilation through a frontend model constructor's `batch` parameter. Replaces
  // the model's variant cache, so call before requests for `model` are submitted.
  void SetBatchBuilder(const std::shared_ptr<const graph::CompiledGraph>& model,
                       BatchedModelCache::Builder builder);

  int num_workers() const { return opts_.num_workers; }
  int max_batch() const { return opts_.max_batch; }
  // One consistent snapshot: every field (totals and per_class) is read under the
  // single stats mutex that writers also hold, so cross-field invariants
  // (completed == sum of per-class completed, batches == full + timeout, ...)
  // hold in any snapshot, concurrent traffic or not.
  ServerStats stats() const;

 private:
  struct Pending {
    std::shared_ptr<const graph::CompiledGraph> model;
    InferenceRequest request;
    std::shared_ptr<std::promise<InferenceResponse>> promise;
    std::chrono::steady_clock::time_point enqueued;
    // Resolved absolute deadline; time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    int priority = 0;
    // Admission sequence; seeds the deterministic per-request fail-point stream.
    uint64_t seq = 0;
  };

  void ExecuteOne();
  // Coalesces queued requests compatible with `head` (same model, ShapesCoalesce)
  // up to max_batch, lingering up to batch_timeout_ms for late arrivals (less
  // when adaptive linger or the head's deadline says the wait is pointless).
  std::vector<Pending> FormBatch(Pending head);
  // One request through the full retry ladder: VM attempts with exponential
  // backoff bounded by the deadline, then the interpreter down-tier. Never throws.
  InferenceResponse RunOneWithRetry(const Pending& p, const vm::ExecOptions& exec);
  // Resolves a request: fires the on_complete hook (if any), then the promise.
  static void Deliver(const Pending& p, InferenceResponse&& r);
  // Returned as shared_ptr so a worker mid-execution keeps its cache alive even if
  // SetBatchBuilder concurrently replaces the map entry.
  std::shared_ptr<BatchedModelCache> CacheFor(
      const std::shared_ptr<const graph::CompiledGraph>& m);

  // The options as given, with num_workers resolved to the pool size.
  const ServerOptions opts_;
  BoundedQueue<Pending> queue_;
  std::unique_ptr<ThreadPool> pool_;

  std::mutex caches_mu_;  // guards caches_ (per-model batched-variant caches)
  std::unordered_map<const graph::CompiledGraph*, std::shared_ptr<BatchedModelCache>>
      caches_;

  // Reporting counters live in one plain struct under one mutex, so stats() can
  // hand out a torn-free snapshot (the old per-field atomics could observe e.g.
  // completed > accepted mid-update). Only counters that scheduling decisions or
  // the Shutdown drain read on hot paths stay atomic, below.
  mutable std::mutex stats_mu_;
  ServerStats stats_;
  // EWMA of per-request service time (ms) and inter-arrival gap (ms); guarded by
  // stats_mu_. <= 0 means "no sample yet".
  double ewma_service_ms_ = 0;
  double ewma_arrival_gap_ms_ = 0;
  std::chrono::steady_clock::time_point last_arrival_{};
  bool have_arrival_ = false;

  std::atomic<int64_t> accepted_{0};   // drain: matched against delivered_
  std::atomic<int64_t> delivered_{0};  // drain: bumped after the promise is set
  std::atomic<int64_t> submitting_{0};  // Submit calls currently touching members
  std::atomic<uint64_t> submit_seq_{0};  // per-request fail-point stream ids
  std::atomic<int> active_{0};           // executions (jobs) in flight
  std::atomic<int> active_requests_{0};  // requests inside in-flight executions: a
                                         // batch of B counts B toward the backlog
                                         // the two-level policy sees

  mutable std::mutex mu_;
  std::condition_variable drained_;
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace tvmcpp

#endif  // SRC_SERVE_SERVE_H_
