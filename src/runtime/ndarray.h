// NDArray: the runtime tensor container (the paper's tvm.nd array).
//
// Data is stored widened for interpretation: float16 as float32, sub-byte ints as int8
// (see src/interp). Machine models account for true on-device byte widths separately.
#ifndef SRC_RUNTIME_NDARRAY_H_
#define SRC_RUNTIME_NDARRAY_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/interp/interp.h"
#include "src/ir/dtype.h"
#include "src/support/random.h"

namespace tvmcpp {

// Backing bytes of an NDArray. The default form owns a heap vector; the
// external form aliases memory owned elsewhere (a shared-memory arena slab)
// and keeps that memory alive through an opaque keeper handle.
class NDStorage {
 public:
  // Owned heap storage, zero-initialized.
  explicit NDStorage(size_t size) : owned_(size, 0), ptr_(owned_.data()), size_(size) {}
  // External storage: `keeper` must keep `ptr` valid for this object's lifetime.
  NDStorage(char* ptr, size_t size, std::shared_ptr<void> keeper)
      : ptr_(ptr), size_(size), keeper_(std::move(keeper)), external_(true) {}
  char* data() { return ptr_; }
  const char* data() const { return ptr_; }
  size_t size() const { return size_; }
  bool external() const { return external_; }

 private:
  std::vector<char> owned_;  // empty for external storage
  char* ptr_ = nullptr;
  size_t size_ = 0;
  std::shared_ptr<void> keeper_;  // keeps external memory alive; null when owned
  bool external_ = false;
};

// Pluggable allocation pool consulted by NDArray::Empty. Implementations must
// return zero-filled storage (matching Empty's heap semantics) or null to
// decline the request, in which case the caller falls back to the heap.
class StoragePool {
 public:
  virtual ~StoragePool() = default;
  virtual std::shared_ptr<NDStorage> Allocate(size_t bytes) = 0;
};

// Installs `pool` as the calling thread's allocation pool for the scope's
// lifetime, so every NDArray::Empty on this thread (and thus Random, executor
// buffer allocation, ...) draws from it. Nests: the previous pool is restored.
class ScopedStoragePool {
 public:
  explicit ScopedStoragePool(StoragePool* pool) : saved_(Slot()) { Slot() = pool; }
  ~ScopedStoragePool() { Slot() = saved_; }
  ScopedStoragePool(const ScopedStoragePool&) = delete;
  ScopedStoragePool& operator=(const ScopedStoragePool&) = delete;

  static StoragePool*& Slot() {
    thread_local StoragePool* pool = nullptr;
    return pool;
  }

 private:
  StoragePool* saved_;
};

class NDArray {
 public:
  NDArray() = default;

  static NDArray Empty(std::vector<int64_t> shape, DataType dtype = DataType::Float32()) {
    NDArray a;
    a.shape_ = std::move(shape);
    a.dtype_ = dtype;
    size_t bytes = static_cast<size_t>(a.NumElements() * InterpElementBytes(dtype));
    if (StoragePool* pool = ScopedStoragePool::Slot()) {
      a.data_ = pool->Allocate(bytes);
    }
    if (a.data_ == nullptr) {
      a.data_ = std::make_shared<NDStorage>(bytes);
    }
    return a;
  }

  // Wraps externally owned memory (e.g. a shared-memory arena slab) as a tensor
  // without copying. `keeper` must keep `ptr` valid for the array's lifetime;
  // the bytes at `ptr` must span the tensor's ByteSize().
  static NDArray FromExternal(void* ptr, std::vector<int64_t> shape, DataType dtype,
                              std::shared_ptr<void> keeper) {
    NDArray a;
    a.shape_ = std::move(shape);
    a.dtype_ = dtype;
    size_t bytes = static_cast<size_t>(a.NumElements() * InterpElementBytes(dtype));
    a.data_ = std::make_shared<NDStorage>(static_cast<char*>(ptr), bytes, std::move(keeper));
    return a;
  }

  // The next float value Random draws from `rng`: uniform in [-1, 1).
  static float RandomFloat(Rng* rng) {
    return static_cast<float>(rng->UniformReal() * 2.0 - 1.0);
  }

  // Uniform values in [-1, 1) (float) or [0, 2^min(bits,7)) (int), deterministic by seed.
  static NDArray Random(std::vector<int64_t> shape, DataType dtype, uint64_t seed) {
    NDArray a = Empty(std::move(shape), dtype);
    Rng rng(seed);
    int64_t n = a.NumElements();
    if (dtype.is_float()) {
      float* p = a.Data<float>();
      for (int64_t i = 0; i < n; ++i) {
        p[i] = RandomFloat(&rng);
      }
    } else if (InterpElementBytes(dtype) == 1) {
      int8_t* p = a.Data<int8_t>();
      int64_t hi = int64_t{1} << std::min(dtype.bits(), 7);
      for (int64_t i = 0; i < n; ++i) {
        p[i] = static_cast<int8_t>(rng.Uniform(static_cast<uint64_t>(hi)));
      }
    } else {
      int32_t* p = a.Data<int32_t>();
      for (int64_t i = 0; i < n; ++i) {
        p[i] = static_cast<int32_t>(rng.Uniform(100));
      }
    }
    return a;
  }

  const std::vector<int64_t>& shape() const { return shape_; }
  DataType dtype() const { return dtype_; }
  bool defined() const { return data_ != nullptr; }

  int64_t NumElements() const {
    int64_t n = 1;
    for (int64_t d : shape_) {
      n *= d;
    }
    return n;
  }

  template <typename T>
  T* Data() {
    return reinterpret_cast<T*>(data_->data() + byte_offset_);
  }
  template <typename T>
  const T* Data() const {
    return reinterpret_cast<const T*>(data_->data() + byte_offset_);
  }

  BufferBinding Binding() const {
    return BufferBinding{
        data_ ? const_cast<char*>(data_->data()) + byte_offset_ : nullptr, dtype_,
        NumElements()};
  }

  // Creates an array that aliases `storage`'s bytes under its own shape/dtype,
  // starting `byte_offset` bytes into the *viewed* extent of `storage` (offsets
  // compose, so a view of a view works). Used by the graph executor to share one
  // memory-plan storage token between several intermediate tensors whose live ranges
  // do not overlap, and by the serving layer to hand each coalesced request a
  // zero-copy slice of a batched output tensor.
  static NDArray ShareStorage(const NDArray& storage, std::vector<int64_t> shape,
                              DataType dtype, int64_t byte_offset = 0) {
    NDArray a;
    a.shape_ = std::move(shape);
    a.dtype_ = dtype;
    a.data_ = storage.data_;
    a.byte_offset_ = storage.byte_offset_ + byte_offset;
    CHECK_LE(a.byte_offset_ + a.NumElements() * InterpElementBytes(dtype),
             static_cast<int64_t>(a.data_->size()))
        << "storage token too small for aliased tensor";
    return a;
  }

  // True when both arrays alias the same underlying storage.
  bool SameStorageAs(const NDArray& other) const { return data_ == other.data_; }

  // Bytes this tensor logically occupies. May be smaller than the underlying storage
  // for ShareStorage views, so copies must use this rather than the storage size.
  int64_t ByteSize() const { return NumElements() * InterpElementBytes(dtype_); }

  // Deep copy (always into fresh zero-offset heap storage, never pool storage).
  NDArray Copy() const {
    NDArray a;
    a.shape_ = shape_;
    a.dtype_ = dtype_;
    a.data_ = std::make_shared<NDStorage>(static_cast<size_t>(ByteSize()));
    std::memcpy(a.data_->data(), Data<char>(), static_cast<size_t>(ByteSize()));
    return a;
  }

  void CopyFrom(const NDArray& other) {
    CHECK_EQ(NumElements(), other.NumElements());
    CHECK(dtype_ == other.dtype_) << "dtype mismatch in CopyFrom";
    std::memcpy(Data<char>(), other.Data<char>(), static_cast<size_t>(ByteSize()));
  }

 private:
  std::shared_ptr<NDStorage> data_;
  std::vector<int64_t> shape_;
  DataType dtype_;
  int64_t byte_offset_ = 0;  // view offset into data_ (ShareStorage slices)
};

}  // namespace tvmcpp

#endif  // SRC_RUNTIME_NDARRAY_H_
