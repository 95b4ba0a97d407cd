#include "src/serve/shm_client.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/serve/shm_server.h"
#include "src/support/failpoint.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace tvmcpp {
namespace serve {

namespace {

std::string ReadName(const char* src, size_t cap) {
  return std::string(src, strnlen(src, cap));
}

void CopyName(char* dst, size_t cap, const std::string& src) {
  size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

ShmTensorMeta DecodeDesc(const ShmTensorDesc& d) {
  ShmTensorMeta m;
  m.name = ReadName(d.name, kShmNameLen);
  m.shape.assign(d.shape, d.shape + d.ndim);
  m.dtype = DataType(static_cast<TypeCode>(d.type_code), d.bits, 1);
  return m;
}

void SleepABit() {
#ifndef _WIN32
  usleep(500);
#endif
}

}  // namespace

std::unique_ptr<ShmClient> ShmClient::Connect(const std::string& shm_name, Status* status,
                                              double attach_timeout_ms) {
  auto client = std::unique_ptr<ShmClient>(new ShmClient());
  try {
    client->arena_ = ShmArena::Attach(shm_name, attach_timeout_ms);
  } catch (const std::exception& e) {
    // Injected serve.shm_attach faults and real attach failures (missing
    // arena, version mismatch) land here identically: a typed transport fault.
    if (status != nullptr) *status = {StatusCode::kTransportFault, e.what()};
    return nullptr;
  }
  client->pool_.reset(new ShmStoragePool(client->arena_));
  if (status != nullptr) *status = Status{};
  return client;
}

bool ShmClient::GetModelMeta(const std::string& model, ShmModelMeta* out) const {
  const ShmArenaHeader* hdr = arena_->header();
  for (int i = 0; i < kShmMaxModels; ++i) {
    const ShmModelInfo& m = hdr->models[i];
    if (m.valid.load(std::memory_order_acquire) != 2) continue;
    if (ReadName(m.name, kShmNameLen) != model) continue;
    out->name = model;
    out->inputs.clear();
    out->outputs.clear();
    for (uint32_t j = 0; j < m.num_inputs && j < kShmMaxTensors; ++j) {
      out->inputs.push_back(DecodeDesc(m.inputs[j]));
    }
    for (uint32_t j = 0; j < m.num_outputs && j < kShmMaxTensors; ++j) {
      out->outputs.push_back(DecodeDesc(m.outputs[j]));
    }
    return true;
  }
  return false;
}

std::vector<std::string> ShmClient::ListModels() const {
  std::vector<std::string> names;
  const ShmArenaHeader* hdr = arena_->header();
  for (int i = 0; i < kShmMaxModels; ++i) {
    if (hdr->models[i].valid.load(std::memory_order_acquire) == 2) {
      names.push_back(ReadName(hdr->models[i].name, kShmNameLen));
    }
  }
  return names;
}

NDArray ShmClient::AllocTensor(std::vector<int64_t> shape, DataType dtype) {
  ScopedStoragePool scope(pool_.get());
  NDArray t = NDArray::Empty(std::move(shape), dtype);
  // Empty falls back to the heap when the pool declines (arena exhausted);
  // callers need arena residency, so report that as undefined instead.
  if (!arena_->Contains(t.Data<char>(), static_cast<size_t>(t.ByteSize()))) {
    return NDArray();
  }
  return t;
}

int ShmClient::ClaimSlot(int64_t give_up_ms) {
  while (true) {
    for (int i = 0; i < arena_->num_slots(); ++i) {
      ShmRequestSlot* slot = arena_->slot(i);
      uint32_t expect = kSlotFree;
      if (slot->state.compare_exchange_strong(expect, kSlotClaimed,
                                              std::memory_order_acq_rel)) {
#ifndef _WIN32
        slot->client_pid = static_cast<uint32_t>(getpid());
#endif
        slot->claim_ms = ShmMonotonicMs();
        slot->done.store(0, std::memory_order_relaxed);
        slot->abandoned.store(0, std::memory_order_relaxed);
        return i;
      }
    }
    // Ring full: back off briefly and retry until the caller's window closes.
    // Slots free up as other clients consume completions.
    if (ShmMonotonicMs() >= give_up_ms) return -1;
    SleepABit();
  }
}

Status ShmClient::Call(const std::string& model,
                       const std::unordered_map<std::string, NDArray>& inputs,
                       std::vector<NDArray>* outputs, const CallOptions& opts,
                       InferenceResponse* meta) {
  if (outputs != nullptr) outputs->clear();
  ShmModelMeta mm;
  if (!GetModelMeta(model, &mm)) {
    return {StatusCode::kTransportFault, "model '" + model + "' not in the arena directory"};
  }
  if (inputs.size() > static_cast<size_t>(kShmMaxTensors) ||
      mm.outputs.size() > static_cast<size_t>(kShmMaxTensors)) {
    return {StatusCode::kTransportFault, "too many tensors for a ring descriptor"};
  }
  const int64_t give_up = ShmMonotonicMs() + static_cast<int64_t>(opts.timeout_ms);

  // Arena-resident inputs travel by offset (zero-copy); anything else is
  // staged into the arena first — a convenience copy, counted so benchmarks
  // and tests can assert the hot path stays copy-free.
  std::vector<std::pair<std::string, NDArray>> resident;
  resident.reserve(inputs.size());
  for (const auto& kv : inputs) {
    NDArray t = kv.second;
    if (!arena_->Contains(t.Data<char>(), static_cast<size_t>(t.ByteSize()))) {
      NDArray staged = AllocTensor(t.shape(), t.dtype());
      if (!staged.defined()) {
        return {StatusCode::kTransportFault, "arena heap exhausted while staging input"};
      }
      staged.CopyFrom(t);
      ++staged_inputs_;
      t = std::move(staged);
    }
    resident.emplace_back(kv.first, std::move(t));
  }
  std::vector<NDArray> outs;
  outs.reserve(mm.outputs.size());
  for (const ShmTensorMeta& om : mm.outputs) {
    NDArray o = AllocTensor(om.shape, om.dtype);
    if (!o.defined()) {
      return {StatusCode::kTransportFault, "arena heap exhausted allocating outputs"};
    }
    outs.push_back(std::move(o));
  }

  const int idx = ClaimSlot(give_up);
  if (idx < 0) {
    return {StatusCode::kTransportFault,
            "request ring full for " + std::to_string(opts.timeout_ms) + " ms"};
  }
  ShmRequestSlot* slot = arena_->slot(idx);
  const uint32_t gen = slot->gen.load(std::memory_order_acquire);

  // Ring-push fault seam: an injected fault aborts the submission after the
  // claim, exercising the release path a crashing client would leave behind.
  try {
    FAILPOINT("serve.shm_ring_push");
  } catch (const failpoint::InjectedFault& e) {
    slot->gen.fetch_add(1, std::memory_order_acq_rel);
    slot->client_pid = 0;
    slot->state.store(kSlotFree, std::memory_order_release);
    return {StatusCode::kTransportFault, std::string("ring push fault: ") + e.what()};
  }

  CopyName(slot->model, kShmNameLen, model);
  slot->priority = opts.priority;
  slot->deadline_ms = opts.deadline_ms;
  slot->num_inputs = static_cast<uint32_t>(resident.size());
  slot->num_outputs = static_cast<uint32_t>(outs.size());
  for (size_t i = 0; i < resident.size(); ++i) {
    ShmDescribeTensor(resident[i].first, resident[i].second, &slot->inputs[i]);
    slot->inputs[i].arena_offset = arena_->OffsetOf(resident[i].second.Data<char>());
  }
  for (size_t i = 0; i < outs.size(); ++i) {
    ShmDescribeTensor(mm.outputs[i].name, outs[i], &slot->outputs[i]);
    slot->outputs[i].arena_offset = arena_->OffsetOf(outs[i].Data<char>());
  }
  slot->seq = arena_->header()->req_seq.fetch_add(1, std::memory_order_relaxed);
  slot->state.store(kSlotReady, std::memory_order_release);
  arena_->header()->doorbell.fetch_add(1, std::memory_order_release);
  ShmFutexWake(&arena_->header()->doorbell, 1);

  // Wait for the completion word. The server writes response fields, then
  // state=kDone, then done=1 (release), so done==1 implies a coherent slot.
  while (slot->done.load(std::memory_order_acquire) == 0) {
    if (slot->gen.load(std::memory_order_acquire) != gen) {
      // Reclaimed under us (only possible if the server judged this pid dead);
      // the server freed the slabs, so just drop our views without freeing.
      LeakTensors(std::move(resident), std::move(outs));
      return {StatusCode::kTransportFault, "ring slot reclaimed while waiting"};
    }
    if (ShmMonotonicMs() >= give_up) {
      slot->abandoned.store(1, std::memory_order_release);
      if (slot->done.load(std::memory_order_acquire) != 0) {
        // Completion raced the timeout: take the response after all.
        slot->abandoned.store(0, std::memory_order_release);
        break;
      }
      // The server will free the slot and slabs when the request eventually
      // completes (see ShmTransport::CompleteSlot); our views must therefore
      // never free them — leak them deliberately.
      LeakTensors(std::move(resident), std::move(outs));
      return {StatusCode::kTransportFault,
              "timed out after " + std::to_string(opts.timeout_ms) + " ms"};
    }
    ShmFutexWait(&slot->done, 0, 5.0);
  }

  Status st{static_cast<StatusCode>(slot->status_code),
            ReadName(slot->status_msg, kShmMsgLen)};
  if (meta != nullptr) {
    meta->status = st;
    meta->queue_ms = slot->queue_ms;
    meta->run_ms = slot->run_ms;
    meta->batch_size = slot->batch_size;
    meta->retries = slot->retries;
    meta->fell_back = slot->fell_back != 0;
  }
  // Free the slot before the tensors: the server's crash sweep assumes a
  // kReady/kDone slot's slabs are still allocated, so the slot must leave the
  // ring first. The response slabs stay alive as long as the caller holds the
  // returned NDArrays.
  slot->gen.fetch_add(1, std::memory_order_acq_rel);
  slot->done.store(0, std::memory_order_relaxed);
  slot->client_pid = 0;
  slot->state.store(kSlotFree, std::memory_order_release);

  if (st.ok() && outputs != nullptr) *outputs = std::move(outs);
  return st;
}

void ShmClient::LeakTensors(std::vector<std::pair<std::string, NDArray>>&& ins,
                            std::vector<NDArray>&& outs) {
  // Never freed: the server may still be writing into (or may later free)
  // these slabs, so releasing them from this process would double-free or
  // corrupt a reallocated block. Bounded by the arena; recovered when the
  // server recreates it.
  static std::mutex* mu = new std::mutex();
  static std::vector<NDArray>* graveyard = new std::vector<NDArray>();
  std::lock_guard<std::mutex> lock(*mu);
  for (auto& kv : ins) graveyard->push_back(std::move(kv.second));
  for (auto& t : outs) graveyard->push_back(std::move(t));
}

}  // namespace serve
}  // namespace tvmcpp
