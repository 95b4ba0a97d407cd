#include "src/serve/serve.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "src/support/failpoint.h"
#include "src/support/logging.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration MsDuration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

// Checks `o` and resolves num_workers = 0 to the host-derived pool size.
ServerOptions Validated(ServerOptions o) {
  CHECK_GE(o.num_workers, 0) << "ServerOptions::num_workers";
  CHECK_GT(o.queue_capacity, 0) << "ServerOptions::queue_capacity";
  CHECK_GE(o.max_batch, 1) << "ServerOptions::max_batch";
  CHECK_GE(o.batch_timeout_ms, 0) << "ServerOptions::batch_timeout_ms";
  CHECK_GE(o.default_deadline_ms, 0) << "ServerOptions::default_deadline_ms";
  CHECK_GE(o.max_retries, 0) << "ServerOptions::max_retries";
  CHECK_GE(o.retry_backoff_ms, 0) << "ServerOptions::retry_backoff_ms";
  if (o.num_workers == 0) {
    // At least 2 so request-level concurrency (and its tests) are exercised even on
    // single-core machines.
    o.num_workers = std::max(2, vm::DefaultNumThreads());
  }
  return o;
}

}  // namespace

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kRejected:
      return "rejected";
    case StatusCode::kShed:
      return "shed";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kQueueFault:
      return "queue_fault";
    case StatusCode::kCompileFailed:
      return "compile_failed";
    case StatusCode::kExecutionFailed:
      return "execution_failed";
    case StatusCode::kTransportFault:
      return "transport_fault";
  }
  return "unknown";
}

void InferenceServer::Deliver(const Pending& p, InferenceResponse&& r) {
  if (p.request.on_complete) {
    try {
      p.request.on_complete(r);
    } catch (...) {
      // A completion hook must never take the worker (or submitter) down.
    }
  }
  p.promise->set_value(std::move(r));
}

InferenceServer::InferenceServer(ServerOptions options)
    : opts_(Validated(std::move(options))),
      // Pop order: higher priority class first, earlier deadline within a class,
      // FIFO (push sequence, supplied by the queue) as the final tiebreak — which
      // also makes deadline-less same-priority traffic behave exactly as before
      // this ordering existed.
      queue_(static_cast<size_t>(opts_.queue_capacity),
             [](const Pending& a, const Pending& b) {
               if (a.priority != b.priority) {
                 return a.priority > b.priority;
               }
               return a.deadline < b.deadline;
             }),
      pool_(std::make_unique<ThreadPool>(opts_.num_workers)) {}

InferenceServer::~InferenceServer() {
  Shutdown();
  pool_.reset();
}

std::future<InferenceResponse> InferenceServer::Submit(
    std::shared_ptr<const graph::CompiledGraph> model, InferenceRequest request) {
  CHECK(model != nullptr) << "Submit with a null model";
  // Keeps Shutdown (and thus the destructor) from completing while this call still
  // touches pool_/mu_/drained_: the drain predicate requires submitting_ == 0, so a
  // Submit that began before destruction finishes before the members are freed.
  submitting_.fetch_add(1, std::memory_order_relaxed);
  struct SubmitGuard {
    InferenceServer* s;
    ~SubmitGuard() {
      // Decrement and notify under the lock: a Shutdown waiter can then only
      // observe the decrement after acquiring mu_, i.e. after this thread has
      // stopped touching the server's members.
      std::lock_guard<std::mutex> lock(s->mu_);
      s->submitting_.fetch_sub(1, std::memory_order_relaxed);
      s->drained_.notify_all();
    }
  } guard{this};

  const Clock::time_point now = Clock::now();
  Pending p;
  p.model = std::move(model);
  p.promise = std::make_shared<std::promise<InferenceResponse>>();
  p.enqueued = now;
  p.priority = request.priority;
  const double deadline_ms =
      request.deadline_ms < 0 ? opts_.default_deadline_ms : request.deadline_ms;
  p.deadline = deadline_ms > 0 ? now + MsDuration(deadline_ms) : kNoDeadline;
  p.seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
  p.request = std::move(request);
  const int priority = p.priority;
  std::future<InferenceResponse> result = p.promise->get_future();
  std::shared_ptr<std::promise<InferenceResponse>> promise = p.promise;

  // Arrival-rate EWMA (feeds the adaptive batching linger) and the service-time
  // estimate used by admission control, in one lock hold.
  double svc_ms = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (have_arrival_) {
      const double gap = MsBetween(last_arrival_, now);
      ewma_arrival_gap_ms_ = ewma_arrival_gap_ms_ <= 0
                                 ? gap
                                 : 0.2 * gap + 0.8 * ewma_arrival_gap_ms_;
    }
    have_arrival_ = true;
    last_arrival_ = now;
    svc_ms = ewma_service_ms_;
  }

  // Admission control: a request whose estimated queue wait already exceeds its
  // deadline would only waste a worker slot to report kDeadlineExceeded later —
  // shed it now instead, cheaply, so the capacity serves requests that can still
  // make their SLA. The estimate is conservative-simple: entries that would pop
  // before this one (higher class, or earlier deadline within the class) plus
  // requests already inside executions, each costing the EWMA service time,
  // spread over the worker count.
  if (opts_.enable_shedding && p.deadline != kNoDeadline && svc_ms > 0) {
    const Clock::time_point dl = p.deadline;
    const size_t ahead = queue_.CountIf([priority, dl](const Pending& q) {
      return q.priority > priority ||
             (q.priority == priority && q.deadline <= dl);
    });
    const double backlog =
        static_cast<double>(ahead) +
        static_cast<double>(active_requests_.load(std::memory_order_relaxed));
    const double est_wait_ms = backlog * svc_ms / static_cast<double>(opts_.num_workers);
    if (est_wait_ms > deadline_ms) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.shed;
        ++stats_.failed;
        ++stats_.per_class[priority].shed;
      }
      InferenceResponse r;
      r.status = {StatusCode::kShed,
                  "shed at admission: estimated queue wait " +
                      std::to_string(est_wait_ms) + " ms exceeds deadline " +
                      std::to_string(deadline_ms) + " ms"};
      Deliver(p, std::move(r));
      return result;
    }
  }

  // Queue-admission fault seam. Throwing evaluation happens here — not inside
  // BoundedQueue::Push, whose callers include raw producer threads with no error
  // path — so an injected fault surfaces as a typed per-request error.
  try {
    failpoint::ScopedRequestSeed seed(p.seq * 257 + 254);
    FAILPOINT("serve.queue_push");
  } catch (const failpoint::InjectedFault& e) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.failed;
    }
    InferenceResponse r;
    r.status = {StatusCode::kQueueFault, e.what()};
    Deliver(p, std::move(r));
    return result;
  }

  // Count the request as accepted *before* the push so Shutdown's drain predicate
  // (delivered == accepted) can never observe a queued request it is not waiting
  // for.
  accepted_.fetch_add(1, std::memory_order_relaxed);
  // Copied out first: a failed Push consumes p, but the rejection must still
  // reach the completion hook.
  std::function<void(const InferenceResponse&)> on_complete = p.request.on_complete;
  if (!queue_.Push(std::move(p))) {
    accepted_.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
      ++stats_.failed;
    }
    InferenceResponse r;
    r.status = {StatusCode::kRejected, "InferenceServer is shut down"};
    if (on_complete) {
      try {
        on_complete(r);
      } catch (...) {
      }
    }
    promise->set_value(std::move(r));
    return result;  // the SubmitGuard notifies any Shutdown waiter
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.accepted;
    ++stats_.per_class[priority].accepted;
  }
  // One pool job per accepted request: the job pops exactly one entry, so every
  // accepted request is matched by a job and the pop below can never block.
  pool_->Submit([this] { ExecuteOne(); });
  return result;
}

std::shared_ptr<BatchedModelCache> InferenceServer::CacheFor(
    const std::shared_ptr<const graph::CompiledGraph>& m) {
  std::lock_guard<std::mutex> lock(caches_mu_);
  auto it = caches_.find(m.get());
  if (it != caches_.end()) {
    return it->second;
  }
  // First batch for a new model: also sweep entries whose base model every client
  // has dropped (the cache is the sole owner), so a long-lived server cycling
  // through models does not retain every model and its batched variants forever.
  for (auto e = caches_.begin(); e != caches_.end();) {
    if (e->second->SoleOwnerOfBase()) {
      e = caches_.erase(e);
    } else {
      ++e;
    }
  }
  std::shared_ptr<BatchedModelCache>& slot = caches_[m.get()];
  slot = std::make_shared<BatchedModelCache>(m);
  return slot;
}

void InferenceServer::SetBatchBuilder(
    const std::shared_ptr<const graph::CompiledGraph>& model,
    BatchedModelCache::Builder builder) {
  std::lock_guard<std::mutex> lock(caches_mu_);
  // Replacing the slot is safe against in-flight batches: workers hold their own
  // shared_ptr to the old cache (CacheFor), which stays alive until they finish.
  caches_[model.get()] =
      std::make_shared<BatchedModelCache>(model, std::move(builder));
}

std::vector<InferenceServer::Pending> InferenceServer::FormBatch(Pending head) {
  std::vector<Pending> batch;
  // Reserve up front: the coalescing predicate reads batch.front() while
  // DrainMatching appends, so the vector must never reallocate.
  batch.reserve(static_cast<size_t>(opts_.max_batch));
  batch.push_back(std::move(head));
  const graph::CompiledGraph* model = batch.front().model.get();
  auto pred = [&](const Pending& p) {
    return p.model.get() == model &&
           ShapesCoalesce(batch.front().request.inputs, p.request.inputs);
  };
  const size_t max = static_cast<size_t>(opts_.max_batch);

  double linger_ms = opts_.batch_timeout_ms;
  double svc_ms = 0;
  double gap_ms = 0;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    svc_ms = ewma_service_ms_;
    gap_ms = ewma_arrival_gap_ms_;
  }
  if (opts_.adaptive_linger && gap_ms > 0) {
    // No point lingering longer than the observed arrival rate needs to deliver
    // the missing batch slots; under light traffic this collapses the linger
    // toward zero instead of stalling a worker for the full timeout.
    linger_ms = std::min(linger_ms,
                         gap_ms * static_cast<double>(max - batch.size()));
  }
  const Clock::time_point now = Clock::now();
  Clock::time_point deadline = now + MsDuration(linger_ms);
  if (batch.front().deadline != kNoDeadline) {
    // Leave the head enough budget to actually execute: flush early when
    // lingering to the full timeout would spend its deadline.
    const Clock::time_point cap = batch.front().deadline - MsDuration(svc_ms);
    if (cap < deadline) {
      deadline = std::max(now, cap);
    }
  }

  bool full = false;
  for (;;) {
    // Snapshot the push counter *before* scanning so an arrival racing with the
    // scan makes the WaitPush below return immediately instead of being missed.
    uint64_t seen = queue_.push_seq();
    size_t taken = queue_.DrainMatching(pred, max - batch.size(), &batch);
    if (taken > 0) {
      // Drained entries leave queue_.size() but are not yet executing; keep them
      // visible to concurrent workers' backlog estimate (two-level policy) so a
      // forming batch doesn't make a saturated server look shallow.
      active_requests_.fetch_add(static_cast<int>(taken), std::memory_order_relaxed);
    }
    if (batch.size() >= max) {
      full = true;
      break;
    }
    if (queue_.closed() || Clock::now() >= deadline) {
      break;
    }
    queue_.WaitPush(seen, deadline);  // wakes on push, close, or deadline
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches;
    stats_.batched_requests += static_cast<int64_t>(batch.size());
    if (full) {
      ++stats_.full_batches;
    } else {
      ++stats_.timeout_batches;
    }
  }
  return batch;
}

InferenceResponse InferenceServer::RunOneWithRetry(const Pending& p,
                                                   const vm::ExecOptions& exec) {
  InferenceResponse resp;
  std::string last_error;
  // Attempts [0, vm_attempts) run the configured engine; the final attempt (when
  // fallback is enabled) down-tiers to the reference interpreter, whose result is
  // bitwise-identical to the VM's by the differential guarantee, so a fallback
  // success is indistinguishable from a healthy run apart from the flag.
  const int vm_attempts = 1 + opts_.max_retries;
  const int total_attempts = vm_attempts + (opts_.enable_fallback ? 1 : 0);
  for (int attempt = 0; attempt < total_attempts; ++attempt) {
    if (Clock::now() >= p.deadline) {
      resp.status = {StatusCode::kDeadlineExceeded,
                     "deadline expired during retries; last error: " + last_error};
      return resp;
    }
    if (attempt > 0) {
      ++resp.retries;
    }
    const bool fallback = attempt >= vm_attempts;
    vm::ExecOptions attempt_exec = exec;
    attempt_exec.force_interp = fallback;
    // Mid-run cancellation: CompiledGraph::Run checks this between kernels, so a
    // request that crosses its deadline mid-graph stops instead of running the
    // remaining kernels to completion.
    attempt_exec.deadline = p.deadline;
    // Deterministic fault stream per (request, attempt): the same seed and
    // armed spec reproduce the same faults, and a retry draws a fresh stream
    // instead of deterministically re-hitting a probabilistic fault.
    failpoint::ScopedRequestSeed seed(p.seq * 257 +
                                      static_cast<uint64_t>(attempt));
    try {
      if (!fallback) {
        // Serving-layer execution fault seam (the VM has its own "vm.run" point).
        // Not evaluated on the fallback attempt: the down-tier exists to remove
        // the faulty component, mirroring how force_interp bypasses vm::Run.
        FAILPOINT("serve.run");
      }
      graph::RunContext ctx(p.model);
      for (const auto& kv : p.request.inputs) {
        ctx.SetInput(kv.first, kv.second);
      }
      // Pre-bound output buffers (shm transport): the graph writes its outputs
      // straight into client-visible memory — the zero-copy response path.
      // Rebound per attempt since each attempt builds a fresh context.
      for (size_t i = 0; i < p.request.bound_outputs.size(); ++i) {
        ctx.BindOutput(static_cast<int>(i), p.request.bound_outputs[i]);
      }
      p.model->Run(&ctx, attempt_exec);
      const size_t num_outputs = p.model->graph().outputs.size();
      resp.outputs.clear();
      resp.outputs.reserve(num_outputs);
      for (size_t i = 0; i < num_outputs; ++i) {
        resp.outputs.push_back(ctx.GetOutput(static_cast<int>(i)));
      }
      resp.status = Status{};
      resp.fell_back = fallback;
      return resp;
    } catch (const graph::DeadlineExceededError& e) {
      // Cancelled between kernels: the budget is already gone, so retrying (or
      // down-tiering to the slower interpreter) could never finish in time.
      resp.status = {StatusCode::kDeadlineExceeded, e.what()};
      return resp;
    } catch (const std::exception& e) {
      // InjectedFault and InternalError (CHECK failures) both land here: real
      // faults and injected ones take the same recovery path.
      last_error = e.what();
    }
    if (attempt + 1 < vm_attempts && opts_.retry_backoff_ms > 0) {
      const Clock::time_point wake =
          Clock::now() + MsDuration(opts_.retry_backoff_ms *
                                    static_cast<double>(int64_t{1} << attempt));
      if (wake >= p.deadline) {
        // Backing off would spend the deadline: skip the remaining same-engine
        // retries and go straight to the fallback attempt (or fail).
        attempt = vm_attempts - 1;
        continue;
      }
      std::this_thread::sleep_until(wake);
    }
  }
  resp.status = {StatusCode::kExecutionFailed, last_error};
  return resp;
}

void InferenceServer::ExecuteOne() {
  Pending head;
  if (!queue_.TryPop(&head)) {
    // This job's entry was coalesced into an earlier job's batch (or, pre-batching,
    // unreachable). A job only returns empty-handed after observing an empty queue,
    // so entries can never be stranded: at all times pending jobs >= queued entries.
    return;
  }
  // The popped head (and every entry FormBatch later drains) counts toward the
  // request backlog until this execution finishes.
  active_requests_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Pending> batch;
  if (opts_.max_batch > 1) {
    batch = FormBatch(std::move(head));
  } else {
    batch.push_back(std::move(head));  // batching disabled: the 1:1 legacy path
  }
  const size_t total = batch.size();
  const Clock::time_point started = Clock::now();

  // Deadline enforcement at pop: entries whose deadline already passed while
  // queued are failed here instead of executed, so an overloaded server spends
  // its cycles on requests whose answer someone still wants.
  std::vector<Pending> live;
  std::vector<Pending> expired;
  live.reserve(total);
  for (Pending& p : batch) {
    if (started > p.deadline) {
      expired.push_back(std::move(p));
    } else {
      live.push_back(std::move(p));
    }
  }

  const int active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  const int active_requests = active_requests_.load(std::memory_order_relaxed);

  // Two-level policy: whole-request parallelism is already saturating the pool when
  // the backlog (running + still-queued *requests* — a batch of B counts as B)
  // reaches the worker count, so kParallel loops inside the kernels run serially;
  // with a shallow backlog the request (or batch) fans its kParallel chunks out
  // over the idle workers instead, so a lone request still uses all cores.
  vm::ExecOptions exec;
  exec.pool = pool_.get();
  const int backlog = static_cast<int>(queue_.size()) + active_requests;
  const bool serial = backlog >= opts_.num_workers;
  exec.num_threads = serial ? 1 : std::max(1, opts_.num_workers - active + 1);

  std::vector<InferenceResponse> resps(live.size());
  bool ran_batched = false;
  bool compile_failed = false;
  bool split = false;
  if (live.size() > 1) {
    // Coalesced batch: concat inputs along N, run the cached batched variant
    // (compiled lazily on first use of this batch size), slice outputs back.
    // Both steps can fault; neither failure mode may sink the whole batch:
    //   compile fault -> degrade to per-request runs on the base model,
    //   run fault     -> split into per-request retry ladders,
    // so one poisoned cohabitant (or a flaky variant) never fails the rest.
    std::shared_ptr<const graph::CompiledGraph> batched;
    try {
      failpoint::ScopedRequestSeed seed(live.front().seq * 257 + 255);
      batched = CacheFor(live.front().model)->Get(static_cast<int>(live.size()));
    } catch (const std::exception&) {
      compile_failed = true;
    }
    if (batched != nullptr) {
      try {
        failpoint::ScopedRequestSeed seed(live.front().seq * 257 + 255);
        FAILPOINT("serve.run");
        graph::RunContext ctx(batched);
        std::vector<const NamedTensors*> inputs;
        inputs.reserve(live.size());
        for (const Pending& p : live) {
          inputs.push_back(&p.request.inputs);
        }
        BindConcatenatedInputs(inputs, &ctx);
        batched->Run(&ctx, exec);
        std::vector<std::vector<NDArray>> slices =
            SliceBatchedOutputs(ctx, static_cast<int>(live.size()));
        const Clock::time_point done = Clock::now();
        for (size_t i = 0; i < live.size(); ++i) {
          const std::vector<NDArray>& bound = live[i].request.bound_outputs;
          if (!bound.empty()) {
            // Batched outputs are zero-copy slices of the shared batch buffer;
            // a request with pre-bound buffers (shm transport) instead needs its
            // result in memory the client can see, so copy the slice over — the
            // one copy batching costs on the shm response path.
            for (size_t j = 0; j < bound.size() && j < slices[i].size(); ++j) {
              NDArray dst = bound[j];  // shares storage; CopyFrom writes through
              dst.CopyFrom(slices[i][j]);
            }
            resps[i].outputs = bound;
          } else {
            resps[i].outputs = std::move(slices[i]);
          }
          resps[i].run_ms = MsBetween(started, done);
          resps[i].batch_size = static_cast<int>(live.size());
        }
        ran_batched = true;
      } catch (const std::exception&) {
        split = true;
      }
    }
  }
  if (!ran_batched) {
    // Single request, degraded batch, or split batch: each request gets its own
    // retry ladder, so they succeed and fail independently.
    for (size_t i = 0; i < live.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      resps[i] = RunOneWithRetry(live[i], exec);
      resps[i].run_ms = MsBetween(t0, Clock::now());
      resps[i].batch_size = 1;
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    resps[i].queue_ms = MsBetween(live[i].enqueued, started);
  }

  active_.fetch_sub(1, std::memory_order_relaxed);
  active_requests_.fetch_sub(static_cast<int>(total), std::memory_order_relaxed);

  // Stats bookkeeping strictly before the promises are fulfilled: a client that
  // returns from future.get() must observe its own request in stats().completed.
  // One lock hold for the whole batch keeps totals and per-class counters
  // mutually consistent in any concurrent stats() snapshot.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (serial) {
      ++stats_.serial_runs;
    } else {
      ++stats_.chunked_runs;
    }
    if (compile_failed) {
      ++stats_.batch_compile_failures;
    }
    if (split) {
      ++stats_.batch_splits;
    }
    stats_.completed += static_cast<int64_t>(total);
    for (const Pending& p : expired) {
      ServerStats::ClassStats& c = stats_.per_class[p.priority];
      ++c.completed;
      ++c.deadline_missed;
      ++stats_.deadline_missed;
      ++stats_.failed;
    }
    for (size_t i = 0; i < live.size(); ++i) {
      ServerStats::ClassStats& c = stats_.per_class[live[i].priority];
      ++c.completed;
      const InferenceResponse& r = resps[i];
      if (r.status.ok()) {
        ++c.ok;
        const double svc = r.run_ms / std::max(1, r.batch_size);
        ewma_service_ms_ =
            ewma_service_ms_ <= 0 ? svc : 0.2 * svc + 0.8 * ewma_service_ms_;
      } else {
        ++stats_.failed;
        if (r.status.code == StatusCode::kDeadlineExceeded) {
          ++stats_.deadline_missed;
          ++c.deadline_missed;
        }
      }
      if (r.retries > 0) {
        stats_.retries += r.retries;
        ++c.retried;
      }
      if (r.fell_back) {
        ++stats_.fallbacks;
        ++c.fallback;
      }
    }
  }
  for (Pending& p : expired) {
    InferenceResponse r;
    r.status = {StatusCode::kDeadlineExceeded,
                "deadline expired after " +
                    std::to_string(MsBetween(p.enqueued, started)) +
                    " ms in queue"};
    r.queue_ms = MsBetween(p.enqueued, started);
    Deliver(p, std::move(r));
  }
  for (size_t i = 0; i < live.size(); ++i) {
    Deliver(live[i], std::move(resps[i]));
  }
  // Drain bookkeeping strictly after: Shutdown must not return until every accepted
  // request's future is actually fulfilled.
  delivered_.fetch_add(static_cast<int64_t>(total), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
  }
  drained_.notify_all();
}

void InferenceServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_.Close();  // new Submits fail; accepted entries stay poppable
  std::unique_lock<std::mutex> lock(mu_);
  drained_.wait(lock, [this] {
    return delivered_.load(std::memory_order_relaxed) >=
               accepted_.load(std::memory_order_relaxed) &&
           submitting_.load(std::memory_order_relaxed) == 0;
  });
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace serve
}  // namespace tvmcpp
