#include "src/serve/shm_server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/support/logging.h"

#ifndef _WIN32
#include <signal.h>
#endif

namespace tvmcpp {
namespace serve {

namespace {

void CopyName(char* dst, size_t cap, const std::string& src) {
  size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::string ReadName(const char* src, size_t cap) {
  return std::string(src, strnlen(src, cap));
}

int64_t DescByteSize(const ShmTensorDesc& d, std::vector<int64_t>* shape, DataType* dtype) {
  *dtype = DataType(static_cast<TypeCode>(d.type_code), d.bits, 1);
  shape->assign(d.shape, d.shape + d.ndim);
  int64_t n = 1;
  for (int64_t dim : *shape) n *= dim;
  return n * InterpElementBytes(*dtype);
}

bool DeadPid(uint32_t pid) {
#ifndef _WIN32
  return pid != 0 && kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
#else
  (void)pid;
  return false;
#endif
}

}  // namespace

void ShmDescribeTensor(const std::string& name, const NDArray& t, ShmTensorDesc* desc) {
  std::memset(desc, 0, sizeof(*desc));
  CopyName(desc->name, kShmNameLen, name);
  desc->type_code = static_cast<uint8_t>(t.dtype().code());
  desc->bits = static_cast<uint16_t>(t.dtype().bits());
  desc->ndim = static_cast<int32_t>(t.shape().size());
  for (size_t i = 0; i < t.shape().size(); ++i) desc->shape[i] = t.shape()[i];
  desc->arena_offset = kShmNoOffset;
}

bool ShmDecodeSlot(const std::shared_ptr<ShmArena>& arena, ShmRequestSlot* slot,
                   InferenceRequest* out, std::string* error) {
  if (slot->num_inputs > kShmMaxTensors || slot->num_outputs > kShmMaxTensors) {
    *error = "descriptor tensor count out of range";
    return false;
  }
  // The arena shared_ptr is the keeper: the mapping stays valid for as long as
  // any decoded tensor is alive, even if the transport is torn down first.
  std::shared_ptr<void> keeper = arena;
  InferenceRequest req;
  for (uint32_t i = 0; i < slot->num_inputs + slot->num_outputs; ++i) {
    bool is_input = i < slot->num_inputs;
    const ShmTensorDesc& d =
        is_input ? slot->inputs[i] : slot->outputs[i - slot->num_inputs];
    if (d.ndim < 0 || d.ndim > kShmMaxDims) {
      *error = "descriptor rank out of range";
      return false;
    }
    std::vector<int64_t> shape;
    DataType dtype;
    int64_t bytes = DescByteSize(d, &shape, &dtype);
    if (bytes <= 0 || !arena->ValidPayload(d.arena_offset, static_cast<size_t>(bytes))) {
      *error = std::string("descriptor payload for '") + ReadName(d.name, kShmNameLen) +
               "' outside the arena heap";
      return false;
    }
    NDArray t = NDArray::FromExternal(arena->At(d.arena_offset), std::move(shape), dtype, keeper);
    if (is_input) {
      req.inputs[ReadName(d.name, kShmNameLen)] = std::move(t);
    } else {
      req.bound_outputs.push_back(std::move(t));
    }
  }
  req.priority = slot->priority;
  req.deadline_ms = slot->deadline_ms;
  *out = std::move(req);
  return true;
}

ShmTransport::ShmTransport(InferenceServer* server, const Options& opts)
    : server_(server), reclaim_after_ms_(opts.reclaim_after_ms) {
  CHECK(server != nullptr) << "ShmTransport over a null InferenceServer";
  CHECK_GE(opts.reclaim_after_ms, 0) << "ShmTransport::Options::reclaim_after_ms";
  ShmArena::Options aopts;
  aopts.bytes = opts.arena_bytes;
  aopts.ring_slots = opts.ring_slots;
  arena_ = ShmArena::Create(opts.shm_name, aopts);
  poller_ = std::thread([this] { PollLoop(); });
}

ShmTransport::~ShmTransport() { Stop(); }

void ShmTransport::Stop() {
  bool was = stop_.exchange(true);
  if (!was && poller_.joinable()) {
    ShmFutexWake(&arena_->header()->doorbell, 1 << 30);
    poller_.join();
  }
}

void ShmTransport::RegisterModel(const std::string& name,
                                 std::shared_ptr<const graph::CompiledGraph> model) {
  CHECK(model != nullptr) << "RegisterModel with a null model";
  ShmArenaHeader* hdr = arena_->header();
  // Reuse the entry with this name if re-registering, else claim a free one.
  ShmModelInfo* entry = nullptr;
  for (int i = 0; i < kShmMaxModels && entry == nullptr; ++i) {
    ShmModelInfo& m = hdr->models[i];
    if (m.valid.load(std::memory_order_acquire) == 2 &&
        ReadName(m.name, kShmNameLen) == name) {
      entry = &m;
    }
  }
  for (int i = 0; i < kShmMaxModels && entry == nullptr; ++i) {
    uint32_t expect = 0;
    if (hdr->models[i].valid.compare_exchange_strong(expect, 1, std::memory_order_acq_rel)) {
      entry = &hdr->models[i];
    }
  }
  CHECK(entry != nullptr) << "model directory full (" << kShmMaxModels << " entries)";

  const graph::Graph& g = model->graph();
  uint32_t ni = 0, no = 0;
  for (const graph::Node& n : g.nodes()) {
    if (n.op != "input") continue;
    CHECK_LT(ni, static_cast<uint32_t>(kShmMaxTensors)) << "model has too many inputs for shm";
    ShmTensorDesc* d = &entry->inputs[ni++];
    std::memset(d, 0, sizeof(*d));
    CopyName(d->name, kShmNameLen, n.name);
    d->type_code = static_cast<uint8_t>(n.dtype.code());
    d->bits = static_cast<uint16_t>(n.dtype.bits());
    d->ndim = static_cast<int32_t>(n.shape.size());
    for (size_t k = 0; k < n.shape.size(); ++k) d->shape[k] = n.shape[k];
    d->arena_offset = kShmNoOffset;
  }
  for (int id : g.outputs) {
    const graph::Node& n = g.node(id);
    CHECK_LT(no, static_cast<uint32_t>(kShmMaxTensors)) << "model has too many outputs for shm";
    ShmTensorDesc* d = &entry->outputs[no++];
    std::memset(d, 0, sizeof(*d));
    CopyName(d->name, kShmNameLen, n.name);
    d->type_code = static_cast<uint8_t>(n.dtype.code());
    d->bits = static_cast<uint16_t>(n.dtype.bits());
    d->ndim = static_cast<int32_t>(n.shape.size());
    for (size_t k = 0; k < n.shape.size(); ++k) d->shape[k] = n.shape[k];
    d->arena_offset = kShmNoOffset;
  }
  entry->num_inputs = ni;
  entry->num_outputs = no;
  CopyName(entry->name, kShmNameLen, name);
  entry->valid.store(2, std::memory_order_release);

  std::lock_guard<std::mutex> lock(mu_);
  models_[name] = std::move(model);
}

void ShmTransport::WriteStatus(ShmRequestSlot* slot, const Status& status) {
  slot->status_code = static_cast<int32_t>(status.code);
  CopyName(slot->status_msg, kShmMsgLen, status.message);
}

void ShmTransport::CompleteSlot(int slot_idx, uint32_t gen, const InferenceResponse& resp) {
  ShmRequestSlot* slot = arena_->slot(slot_idx);
  if (slot->gen.load(std::memory_order_acquire) != gen) {
    return;  // slot was crash-reclaimed under this request; nobody is listening
  }
  WriteStatus(slot, resp.status);
  slot->queue_ms = resp.queue_ms;
  slot->run_ms = resp.run_ms;
  slot->batch_size = resp.batch_size;
  slot->retries = resp.retries;
  slot->fell_back = resp.fell_back ? 1 : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.completed;
    if (resp.status.ok()) {
      // The unbatched path writes outputs directly into the client's slabs
      // (bound_outputs); the batched path copied its slices into them inside
      // the server. Account for both honestly.
      if (resp.batch_size > 1) {
        stats_.copied_outputs += static_cast<int64_t>(resp.outputs.size());
      } else {
        ++stats_.zero_copy_requests;
      }
    }
  }
  if (slot->abandoned.load(std::memory_order_acquire) != 0) {
    // The client timed out and left: free its descriptor slabs and the slot on
    // its behalf (it quarantined its own views; see ShmClient::Call).
    for (uint32_t i = 0; i < slot->num_inputs; ++i) arena_->FreeOffset(slot->inputs[i].arena_offset);
    for (uint32_t i = 0; i < slot->num_outputs; ++i) {
      arena_->FreeOffset(slot->outputs[i].arena_offset);
    }
    slot->gen.fetch_add(1, std::memory_order_acq_rel);
    slot->abandoned.store(0, std::memory_order_relaxed);
    slot->done.store(0, std::memory_order_relaxed);
    slot->client_pid = 0;
    slot->state.store(kSlotFree, std::memory_order_release);
    return;
  }
  slot->state.store(kSlotDone, std::memory_order_release);
  slot->done.store(1, std::memory_order_release);
  ShmFutexWake(&slot->done, 1 << 30);
}

void ShmTransport::SubmitSlot(int slot_idx) {
  ShmRequestSlot* slot = arena_->slot(slot_idx);
  uint32_t gen = slot->gen.load(std::memory_order_acquire);
  std::string model_name = ReadName(slot->model, kShmNameLen);

  InferenceRequest req;
  std::string error;
  if (!ShmDecodeSlot(arena_, slot, &req, &error)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.bad_descriptors;
    }
    InferenceResponse r;
    r.status = {StatusCode::kTransportFault, "bad descriptor: " + error};
    CompleteSlot(slot_idx, gen, r);
    return;
  }

  std::shared_ptr<const graph::CompiledGraph> model;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = models_.find(model_name);
    if (it != models_.end()) model = it->second;
  }
  if (model == nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.unknown_model;
    }
    InferenceResponse r;
    r.status = {StatusCode::kTransportFault, "unknown model '" + model_name + "'"};
    CompleteSlot(slot_idx, gen, r);
    return;
  }
  // The descriptor's output signature must match the graph's before BindOutput
  // (whose shape CHECK would otherwise burn the whole retry ladder).
  const std::vector<int>& outs = model->graph().outputs;
  bool sig_ok = req.bound_outputs.size() == outs.size();
  for (size_t i = 0; sig_ok && i < outs.size(); ++i) {
    const graph::Node& n = model->graph().node(outs[i]);
    sig_ok = req.bound_outputs[i].shape() == n.shape && req.bound_outputs[i].dtype() == n.dtype;
  }
  if (!sig_ok) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.bad_descriptors;
    }
    InferenceResponse r;
    r.status = {StatusCode::kTransportFault,
                "descriptor output signature does not match model '" + model_name + "'"};
    CompleteSlot(slot_idx, gen, r);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
  }
  // Completion is written by whichever server thread resolves the request —
  // worker on the normal path, the submitting poller on shed/reject — so the
  // poller never blocks on or polls a future.
  req.on_complete = [this, slot_idx, gen](const InferenceResponse& resp) {
    CompleteSlot(slot_idx, gen, resp);
  };
  server_->Submit(std::move(model), std::move(req));
}

void ShmTransport::ProcessReadySlots() {
  // Claim every ready slot, then submit in client-stamped order so the fault
  // stream and queue admission see a deterministic sequence.
  std::vector<std::pair<uint64_t, int>> ready;
  for (int i = 0; i < arena_->num_slots(); ++i) {
    ShmRequestSlot* slot = arena_->slot(i);
    uint32_t expect = kSlotReady;
    if (slot->state.compare_exchange_strong(expect, kSlotInFlight, std::memory_order_acq_rel)) {
      ready.emplace_back(slot->seq, i);
    }
  }
  std::sort(ready.begin(), ready.end());
  for (const auto& [seq, idx] : ready) {
    (void)seq;
    SubmitSlot(idx);
  }
}

int ShmTransport::ReclaimCrashedSlots() {
  int reclaimed = 0;
  int64_t now = ShmMonotonicMs();
  for (int i = 0; i < arena_->num_slots(); ++i) {
    ShmRequestSlot* slot = arena_->slot(i);
    uint32_t s = slot->state.load(std::memory_order_acquire);
    if (s != kSlotClaimed && s != kSlotReady && s != kSlotDone) continue;
    if (now - slot->claim_ms < static_cast<int64_t>(reclaim_after_ms_)) continue;
    if (!DeadPid(slot->client_pid)) continue;
    // Take ownership before touching anything; a racing state change (e.g. the
    // pid was reused and the "dead" client just freed the slot) fails the CAS.
    if (!slot->state.compare_exchange_strong(s, kSlotInFlight, std::memory_order_acq_rel)) {
      continue;
    }
    if (s != kSlotClaimed) {
      // kReady/kDone descriptors are fully written, so the dead client's slabs
      // can be returned. A kClaimed slot may hold a half-written descriptor —
      // its slabs leak (bounded by the arena) rather than risk a bad free.
      for (uint32_t j = 0; j < slot->num_inputs && j < kShmMaxTensors; ++j) {
        arena_->FreeOffset(slot->inputs[j].arena_offset);
      }
      for (uint32_t j = 0; j < slot->num_outputs && j < kShmMaxTensors; ++j) {
        arena_->FreeOffset(slot->outputs[j].arena_offset);
      }
    }
    slot->gen.fetch_add(1, std::memory_order_acq_rel);
    slot->done.store(0, std::memory_order_relaxed);
    slot->abandoned.store(0, std::memory_order_relaxed);
    slot->client_pid = 0;
    slot->state.store(kSlotFree, std::memory_order_release);
    ++reclaimed;
  }
  if (reclaimed > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.reclaimed_slots += reclaimed;
  }
  return reclaimed;
}

void ShmTransport::PollLoop() {
  ShmArenaHeader* hdr = arena_->header();
  int64_t last_reclaim = ShmMonotonicMs();
  while (!stop_.load(std::memory_order_acquire)) {
    uint32_t bell = hdr->doorbell.load(std::memory_order_acquire);
    ProcessReadySlots();
    int64_t now = ShmMonotonicMs();
    if (reclaim_after_ms_ > 0 && now - last_reclaim >= static_cast<int64_t>(reclaim_after_ms_)) {
      ReclaimCrashedSlots();
      last_reclaim = now;
    }
    if (hdr->doorbell.load(std::memory_order_acquire) == bell &&
        !stop_.load(std::memory_order_acquire)) {
      ShmFutexWait(&hdr->doorbell, bell, 20.0);
    }
  }
}

ShmTransport::Stats ShmTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace serve
}  // namespace tvmcpp
