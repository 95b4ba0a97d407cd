// Sparse tensors + SpMM differential suite (the tentpole's test layer).
//
// The contract under test: a CSR sparse_dense must be *bitwise* identical to the
// dense op with the zeros materialized back in — on the interpreter, the VM, and
// the AOT native kernel, under TVMCPP_VM_STRICT=1 with zero fallbacks. That holds
// by construction: CSR stores columns ascending per row, so the sparse reduction
// accumulates the surviving terms in the same k-ascending order as the dense
// reduction, and the dropped terms were exact zeros (exact no-ops in f32/f16
// accumulation from a +0.0 init, exact in integer arithmetic).
//
// Layers covered: runtime::CSRMatrix storage, the ELL-bounded te compute
// (topi::SparseDense) across schedule configs and dtypes, the hand-lowered
// nnz-balanced row-block kernel (topi::SpMMCSRRowBlocks) including multi-thread
// VM runs, graph-level SparseMlp vs its dense reference on all three engines,
// Rebatched batch-N execution, tuning-cache workload keys, and the serving path
// (coalescing, deadlines, fail-point recovery).
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/codegen/codegen.h"
#include "src/codegen/native.h"
#include "src/frontend/models.h"
#include "src/graph/executor.h"
#include "src/graph/graph.h"
#include "src/interp/interp.h"
#include "src/ir/printer.h"
#include "src/lower/lower.h"
#include "src/runtime/csr.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/serve/batch.h"
#include "src/serve/serve.h"
#include "src/support/failpoint.h"
#include "src/support/float16.h"
#include "src/support/random.h"
#include "src/topi/schedules.h"
#include "src/topi/sparse.h"
#include "src/vm/vm.h"

namespace tvmcpp {
namespace {

namespace fp = failpoint;

struct ScopedStrictMode {
  bool saved;
  ScopedStrictMode() : saved(vm::StrictMode()) { vm::SetStrictMode(true); }
  ~ScopedStrictMode() { vm::SetStrictMode(saved); }
};

struct ScopedEngine {
  ExecEngine saved;
  explicit ScopedEngine(ExecEngine e) : saved(GetExecEngine()) { SetExecEngine(e); }
  ~ScopedEngine() { SetExecEngine(saved); }
};

struct ScopedFailpoints {
  ScopedFailpoints() { fp::DisarmAll(); }
  ~ScopedFailpoints() { fp::DisarmAll(); }
};

struct ArgBuf {
  std::vector<char> bytes;
  DataType dtype;
  int64_t num_elements = 0;

  static ArgBuf Make(int64_t elems, DataType dtype, uint64_t seed) {
    ArgBuf a;
    a.dtype = dtype;
    a.num_elements = elems;
    a.bytes.assign(static_cast<size_t>(elems * InterpElementBytes(dtype)), 0);
    Rng rng(seed);
    if (dtype.is_float()) {
      float* p = reinterpret_cast<float*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
      }
      if (dtype.bits() == 16) {
        for (int64_t i = 0; i < elems; ++i) {
          p[i] = QuantizeFloat16(p[i]);
        }
      }
    } else if (InterpElementBytes(dtype) == 1) {
      int8_t* p = reinterpret_cast<int8_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int8_t>(static_cast<int64_t>(rng.Uniform(11)) - 5);
      }
    } else {
      int32_t* p = reinterpret_cast<int32_t*>(a.bytes.data());
      for (int64_t i = 0; i < elems; ++i) {
        p[i] = static_cast<int32_t>(rng.Uniform(100));
      }
    }
    return a;
  }

  // Snapshot of an NDArray's bytes — how CSR views (indptr/indices/data) become
  // kernel arguments without ever being replaced by random fill.
  static ArgBuf FromNDArray(const NDArray& nd) {
    ArgBuf a;
    a.dtype = nd.dtype();
    a.num_elements = nd.NumElements();
    a.bytes.assign(nd.Data<char>(), nd.Data<char>() + nd.ByteSize());
    return a;
  }

  static ArgBuf Zero(int64_t elems, DataType dtype) {
    ArgBuf a;
    a.dtype = dtype;
    a.num_elements = elems;
    a.bytes.assign(static_cast<size_t>(elems * InterpElementBytes(dtype)), 0);
    return a;
  }

  BufferBinding Bind() { return BufferBinding{bytes.data(), dtype, num_elements}; }
};

// Three-way differential: interpreter (oracle), VM (serial), native — all
// bitwise identical on every buffer, no silent downgrades.
void ExpectThreeTierIdentical(const LoweredFunc& f, const std::vector<ArgBuf>& args,
                              std::vector<char>* interp_out = nullptr) {
  ScopedStrictMode strict;
  vm::ResetFallbackCount();
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f, {});
  ASSERT_NE(prog, nullptr) << "VM failed to compile " << f.name;
  codegen::NativeKernel native = codegen::CompileNativeKernel(f);
  ASSERT_TRUE(static_cast<bool>(native))
      << "native tier failed to compile " << f.name << ":\n" << ToString(f.body);
  std::vector<ArgBuf> interp_bufs = args;
  std::vector<ArgBuf> vm_bufs = args;
  std::vector<ArgBuf> native_bufs = args;
  std::vector<BufferBinding> interp_bind, vm_bind, native_bind;
  for (size_t i = 0; i < args.size(); ++i) {
    interp_bind.push_back(interp_bufs[i].Bind());
    vm_bind.push_back(vm_bufs[i].Bind());
    native_bind.push_back(native_bufs[i].Bind());
  }
  RunLoweredInterp(f, interp_bind);
  vm::ExecOptions serial;
  serial.num_threads = 1;
  vm::Run(*prog, vm_bind, serial);
  codegen::RunNativeKernel(native, native_bind);
  for (size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), vm_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and VM";
    EXPECT_EQ(std::memcmp(interp_bufs[i].bytes.data(), native_bufs[i].bytes.data(),
                          interp_bufs[i].bytes.size()),
              0)
        << f.name << ": buffer " << i << " differs between interp and native";
  }
  EXPECT_EQ(vm::FallbackCount(), 0) << f.name << ": VM fell back to the interpreter";
  if (interp_out != nullptr) {
    *interp_out = interp_bufs.back().bytes;
  }
}

topi::OpWorkload SparseWorkload(const runtime::CSRMatrix& csr, int64_t batch) {
  topi::OpWorkload wl;
  wl.kind = "sparse_dense";
  wl.n = batch;
  wl.k = csr.cols;
  wl.oc = static_cast<int>(csr.rows);
  wl.dtype = csr.dtype;
  wl.nnz = csr.nnz;
  wl.max_row_nnz = csr.max_row_nnz;
  return wl;
}

// Lowers the scheduled te sparse_dense for the workload's CSR matrix.
LoweredFunc BuildSparseFunc(const runtime::CSRMatrix& csr, int64_t batch, int vectorize,
                            int parallel, const std::string& name) {
  topi::OpWorkload wl = SparseWorkload(csr, batch);
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["vectorize"] = vectorize;
  config["parallel"] = parallel;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  return Lower(s, built.Args(), name);
}

// Args in BuildOpCompute order: [x, w_data, w_indices, w_indptr, out]. x is
// random per seed; the three CSR arrays come from the matrix itself.
std::vector<ArgBuf> SparseArgs(const runtime::CSRMatrix& csr, int64_t batch,
                               uint64_t seed) {
  std::vector<ArgBuf> args;
  args.push_back(ArgBuf::Make(batch * csr.cols, csr.dtype, seed));
  args.push_back(ArgBuf::FromNDArray(csr.data));
  args.push_back(ArgBuf::FromNDArray(csr.indices));
  args.push_back(ArgBuf::FromNDArray(csr.indptr));
  args.push_back(ArgBuf::Zero(batch * csr.rows, csr.dtype));
  return args;
}

// Dense oracle: topi::Dense on the zero-materialized weight, scalar schedule,
// interpreter only. Returns the output bytes.
std::vector<char> DenseReferenceOut(const runtime::CSRMatrix& csr, int64_t batch,
                                    uint64_t x_seed) {
  topi::OpWorkload wl;
  wl.kind = "dense";
  wl.n = batch;
  wl.k = csr.cols;
  wl.oc = static_cast<int>(csr.rows);
  wl.dtype = csr.dtype;
  topi::BuiltOp built = topi::BuildOpCompute(wl);
  Target cpu = Target::ArmA53();
  topi::Config config = topi::DefaultConfig(topi::GetScheduleSpace(wl, cpu));
  config["vectorize"] = 0;
  config["parallel"] = 0;
  Schedule s = topi::ApplyOpSchedule(wl, cpu, built, config);
  LoweredFunc f = Lower(s, built.Args(), "sparse_dense_oracle");
  std::vector<ArgBuf> args;
  args.push_back(ArgBuf::Make(batch * csr.cols, csr.dtype, x_seed));
  args.push_back(ArgBuf::FromNDArray(csr.ToDense()));
  args.push_back(ArgBuf::Zero(batch * csr.rows, csr.dtype));
  std::vector<BufferBinding> bind;
  for (ArgBuf& a : args) {
    bind.push_back(a.Bind());
  }
  RunLoweredInterp(f, bind);
  return args.back().bytes;
}

// Runs the sparse kernel on all three engines (bitwise-pinned) AND checks the
// interpreter result against the dense oracle — the sparse == dense contract.
void ExpectSparseMatchesDense(const runtime::CSRMatrix& csr, int64_t batch,
                              int vectorize, int parallel, uint64_t x_seed,
                              const std::string& name) {
  LoweredFunc f = BuildSparseFunc(csr, batch, vectorize, parallel, name);
  std::vector<char> sparse_out;
  ExpectThreeTierIdentical(f, SparseArgs(csr, batch, x_seed), &sparse_out);
  std::vector<char> dense_out = DenseReferenceOut(csr, batch, x_seed);
  ASSERT_EQ(sparse_out.size(), dense_out.size());
  EXPECT_EQ(std::memcmp(sparse_out.data(), dense_out.data(), sparse_out.size()), 0)
      << name << ": sparse output differs bitwise from the dense reference";
}

void ExpectBitwiseEqual(const NDArray& a, const NDArray& b, const std::string& what) {
  ASSERT_EQ(a.NumElements(), b.NumElements()) << what;
  EXPECT_EQ(std::memcmp(a.Data<char>(), b.Data<char>(),
                        static_cast<size_t>(a.ByteSize())),
            0)
      << what << ": outputs differ";
}

// ---------------------------------------------------------------------------
// CSRMatrix storage
// ---------------------------------------------------------------------------

void RoundTrip(DataType dtype, double sparsity, uint64_t seed) {
  NDArray dense = NDArray::Random({13, 29}, dtype, seed);
  runtime::SparsifyDense(&dense, sparsity, seed + 1);
  runtime::CSRMatrix csr = runtime::CSRMatrix::FromDense(dense);
  EXPECT_EQ(csr.rows, 13);
  EXPECT_EQ(csr.cols, 29);
  const int32_t* ip = csr.indptr.Data<int32_t>();
  const int32_t* ix = csr.indices.Data<int32_t>();
  EXPECT_EQ(ip[0], 0);
  EXPECT_EQ(ip[csr.rows], csr.nnz);
  int64_t densest = 0;
  for (int64_t r = 0; r < csr.rows; ++r) {
    ASSERT_LE(ip[r], ip[r + 1]) << "indptr must be monotone";
    densest = std::max<int64_t>(densest, ip[r + 1] - ip[r]);
    for (int32_t p = ip[r]; p < ip[r + 1]; ++p) {
      EXPECT_GE(ix[p], 0);
      EXPECT_LT(ix[p], csr.cols);
      if (p > ip[r]) {
        EXPECT_LT(ix[p - 1], ix[p]) << "columns must ascend within row " << r;
      }
    }
  }
  EXPECT_EQ(csr.max_row_nnz, densest);
  // Tail padding past nnz is zero in both indices and data — the ELL compute may
  // read it for guarded-off steps without leaving the allocation.
  EXPECT_EQ(csr.alloc_len(), csr.nnz + std::max<int64_t>(csr.max_row_nnz, 1));
  for (int64_t p = csr.nnz; p < csr.alloc_len(); ++p) {
    EXPECT_EQ(ix[p], 0);
    EXPECT_TRUE(runtime::csr_detail::IsZeroAt(csr.data, p));
  }
  // All three views share one backing allocation.
  EXPECT_TRUE(csr.indptr.SameStorageAs(csr.indices));
  EXPECT_TRUE(csr.indptr.SameStorageAs(csr.data));
  NDArray back = csr.ToDense();
  EXPECT_EQ(std::memcmp(back.Data<char>(), dense.Data<char>(),
                        static_cast<size_t>(dense.ByteSize())),
            0)
      << "FromDense/ToDense must round-trip bitwise";
}

TEST(Csr, RoundTripF32) { RoundTrip(DataType::Float32(), 0.9, 3); }
TEST(Csr, RoundTripF16) { RoundTrip(DataType::Float16(), 0.8, 5); }
TEST(Csr, RoundTripI8) { RoundTrip(DataType::Int8(), 0.7, 7); }
TEST(Csr, RoundTripFullyDense) { RoundTrip(DataType::Float32(), 0.0, 9); }

TEST(Csr, AllZeroMatrix) {
  NDArray dense = NDArray::Empty({6, 8}, DataType::Float32());
  std::memset(dense.Data<char>(), 0, static_cast<size_t>(dense.ByteSize()));
  runtime::CSRMatrix csr = runtime::CSRMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz, 0);
  EXPECT_EQ(csr.max_row_nnz, 0);
  EXPECT_EQ(csr.alloc_len(), 1);  // padding keeps the buffers non-empty
  NDArray back = csr.ToDense();
  EXPECT_EQ(std::memcmp(back.Data<char>(), dense.Data<char>(),
                        static_cast<size_t>(dense.ByteSize())),
            0);
}

TEST(Csr, NnzBalancedRowBlocksSkewed) {
  // All the mass in the first two rows: an equal-rows split would give one worker
  // nearly everything; the nnz-balanced split must not.
  NDArray dense = NDArray::Random({16, 64}, DataType::Float32(), 11);
  runtime::SparsifyDense(&dense, 0.97, 12);
  // Rows 0 and 1 fully dense.
  Rng rng(13);
  for (int64_t c = 0; c < 2 * 64; ++c) {
    dense.Data<float>()[c] = static_cast<float>(rng.UniformReal() + 0.5);
  }
  runtime::CSRMatrix csr = runtime::CSRMatrix::FromDense(dense);
  for (int nblocks : {1, 2, 3, 4, 32}) {
    std::vector<int32_t> starts = csr.NnzBalancedRowBlocks(nblocks);
    ASSERT_EQ(starts.size(), static_cast<size_t>(nblocks) + 1);
    EXPECT_EQ(starts.front(), 0);
    EXPECT_EQ(starts.back(), csr.rows);
    const int32_t* ip = csr.indptr.Data<int32_t>();
    int64_t ceil_share = (csr.nnz + nblocks - 1) / nblocks;
    for (int b = 0; b < nblocks; ++b) {
      ASSERT_LE(starts[b], starts[b + 1]) << "block starts must be non-decreasing";
      int64_t block_nnz = ip[starts[b + 1]] - ip[starts[b]];
      // A block overshoots its fair share by at most one row's worth of nnz
      // (rows are atomic), never by an arbitrary amount.
      EXPECT_LE(block_nnz, ceil_share + csr.max_row_nnz)
          << "block " << b << "/" << nblocks << " is unbalanced";
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level differential: te sparse_dense vs dense, three engines
// ---------------------------------------------------------------------------

TEST(SparseDiff, F32Scalar) {
  runtime::CSRMatrix csr =
      runtime::RandomCsr(24, 32, 0.9, DataType::Float32(), 21);
  ExpectSparseMatchesDense(csr, 5, 0, 0, 101, "sp_f32_scalar");
}

TEST(SparseDiff, F32Vectorized) {
  runtime::CSRMatrix csr =
      runtime::RandomCsr(24, 32, 0.9, DataType::Float32(), 22);
  ExpectSparseMatchesDense(csr, 5, 1, 0, 102, "sp_f32_vec");
}

TEST(SparseDiff, F32ParallelBatchRows) {
  runtime::CSRMatrix csr =
      runtime::RandomCsr(24, 32, 0.9, DataType::Float32(), 23);
  ExpectSparseMatchesDense(csr, 5, 0, 1, 103, "sp_f32_par_rows");
}

TEST(SparseDiff, F32ParallelColumnBlocks) {
  // parallel=2 is the single-sample serving axis: batch extent 1, the kParallel
  // loop runs over output-column blocks instead.
  runtime::CSRMatrix csr =
      runtime::RandomCsr(24, 32, 0.9, DataType::Float32(), 24);
  ExpectSparseMatchesDense(csr, 1, 0, 2, 104, "sp_f32_par_cols");
}

TEST(SparseDiff, F16) {
  runtime::CSRMatrix csr =
      runtime::RandomCsr(16, 24, 0.85, DataType::Float16(), 25);
  ExpectSparseMatchesDense(csr, 3, 0, 0, 105, "sp_f16");
  ExpectSparseMatchesDense(csr, 3, 1, 0, 106, "sp_f16_vec");
}

TEST(SparseDiff, I8) {
  runtime::CSRMatrix csr = runtime::RandomCsr(16, 24, 0.85, DataType::Int8(), 26);
  ExpectSparseMatchesDense(csr, 3, 0, 0, 107, "sp_i8");
  ExpectSparseMatchesDense(csr, 3, 1, 0, 108, "sp_i8_vec");
}

TEST(SparseDiff, EmptyRowsAndSingleNnz) {
  // Hand-built pathology: rows 0/2/5 empty, row 3 a single entry at the last
  // column, row 1 dense — exercising row_end == row_start (the guard selects the
  // zero arm for every ELL step) and max-column indexing in one matrix.
  NDArray dense = NDArray::Empty({6, 8}, DataType::Float32());
  std::memset(dense.Data<char>(), 0, static_cast<size_t>(dense.ByteSize()));
  float* d = dense.Data<float>();
  for (int c = 0; c < 8; ++c) {
    d[1 * 8 + c] = 0.25f * static_cast<float>(c + 1);
  }
  d[3 * 8 + 7] = -1.5f;
  d[4 * 8 + 2] = 2.0f;
  runtime::CSRMatrix csr = runtime::CSRMatrix::FromDense(dense);
  EXPECT_EQ(csr.nnz, 10);
  EXPECT_EQ(csr.max_row_nnz, 8);
  ExpectSparseMatchesDense(csr, 4, 0, 0, 109, "sp_empty_rows");
  ExpectSparseMatchesDense(csr, 4, 1, 1, 110, "sp_empty_rows_vec_par");
}

TEST(SparseDiff, AllZeroWeight) {
  // nnz == 0, max_row_nnz == 0: the ELL reduce axis has extent zero and the
  // output must be exactly the reduction init everywhere, on all three engines.
  NDArray dense = NDArray::Empty({5, 7}, DataType::Float32());
  std::memset(dense.Data<char>(), 0, static_cast<size_t>(dense.ByteSize()));
  runtime::CSRMatrix csr = runtime::CSRMatrix::FromDense(dense);
  ExpectSparseMatchesDense(csr, 2, 0, 0, 111, "sp_all_zero");
}

// ---------------------------------------------------------------------------
// Row-blocked SpMM kernel (hand-lowered, nnz-balanced kParallel blocks)
// ---------------------------------------------------------------------------

std::vector<ArgBuf> SpmmArgs(const runtime::CSRMatrix& csr, int64_t batch,
                             const std::vector<int32_t>& starts, uint64_t x_seed) {
  std::vector<ArgBuf> args;
  args.push_back(ArgBuf::Make(batch * csr.cols, csr.dtype, x_seed));
  args.push_back(ArgBuf::FromNDArray(csr.data));
  args.push_back(ArgBuf::FromNDArray(csr.indices));
  args.push_back(ArgBuf::FromNDArray(csr.indptr));
  ArgBuf blocks = ArgBuf::Zero(static_cast<int64_t>(starts.size()), DataType::Int32());
  std::memcpy(blocks.bytes.data(), starts.data(), starts.size() * sizeof(int32_t));
  args.push_back(blocks);
  args.push_back(ArgBuf::Zero(batch * csr.rows, csr.dtype));
  return args;
}

TEST(SpmmRowBlocks, ThreeTierMatchesDense) {
  const int64_t kBatch = 3;
  runtime::CSRMatrix csr =
      runtime::RandomCsr(32, 48, 0.92, DataType::Float32(), 31);
  const int kBlocks = 4;
  std::vector<int32_t> starts = csr.NnzBalancedRowBlocks(kBlocks);
  LoweredFunc f = topi::SpMMCSRRowBlocks(kBatch, csr.cols, csr.rows, csr.alloc_len(),
                                         kBlocks, csr.dtype, "spmm_blocks");
  std::vector<char> out;
  ExpectThreeTierIdentical(f, SpmmArgs(csr, kBatch, starts, 201), &out);
  // The row-block kernel accumulates each row's nonzeros in the same ascending
  // order as the te compute and the dense op — one oracle serves all.
  std::vector<char> dense_out = DenseReferenceOut(csr, kBatch, 201);
  ASSERT_EQ(out.size(), dense_out.size());
  EXPECT_EQ(std::memcmp(out.data(), dense_out.data(), out.size()), 0)
      << "row-block SpMM differs bitwise from the dense reference";
}

TEST(SpmmRowBlocks, MultiThreadVmMatchesSerialBitwise) {
  // Different rows write disjoint output elements, so the kParallel block loop
  // must be bitwise-invariant in the thread count — and must actually stay
  // parallel (no hazard demotion, no strict-mode fallback).
  ScopedStrictMode strict;
  const int64_t kBatch = 2;
  runtime::CSRMatrix csr =
      runtime::RandomCsr(64, 40, 0.9, DataType::Float32(), 37);
  const int kBlocks = 8;
  std::vector<int32_t> starts = csr.NnzBalancedRowBlocks(kBlocks);
  LoweredFunc f = topi::SpMMCSRRowBlocks(kBatch, csr.cols, csr.rows, csr.alloc_len(),
                                         kBlocks, csr.dtype, "spmm_blocks_mt");
  std::shared_ptr<const vm::Program> prog = vm::CompileToProgram(f, {});
  ASSERT_NE(prog, nullptr);
  std::vector<ArgBuf> serial_bufs = SpmmArgs(csr, kBatch, starts, 203);
  std::vector<ArgBuf> mt_bufs = serial_bufs;
  std::vector<BufferBinding> serial_bind, mt_bind;
  for (size_t i = 0; i < serial_bufs.size(); ++i) {
    serial_bind.push_back(serial_bufs[i].Bind());
    mt_bind.push_back(mt_bufs[i].Bind());
  }
  vm::ResetFallbackCount();
  vm::ExecOptions serial;
  serial.num_threads = 1;
  vm::Run(*prog, serial_bind, serial);
  vm::ExecOptions mt;
  mt.num_threads = 4;
  vm::Run(*prog, mt_bind, mt);
  EXPECT_EQ(vm::FallbackCount(), 0);
  EXPECT_EQ(std::memcmp(serial_bufs.back().bytes.data(), mt_bufs.back().bytes.data(),
                        serial_bufs.back().bytes.size()),
            0)
      << "multi-thread SpMM differs from serial";
}

// ---------------------------------------------------------------------------
// Tuning-cache identity
// ---------------------------------------------------------------------------

TEST(SparseWorkload, KeyCarriesSparsityStructure) {
  runtime::CSRMatrix csr = runtime::RandomCsr(24, 32, 0.9, DataType::Float32(), 41);
  topi::OpWorkload wl = SparseWorkload(csr, 4);
  std::string key = wl.Key();
  EXPECT_NE(key.find("sparse_dense"), std::string::npos);
  EXPECT_NE(key.find("_nnz"), std::string::npos);
  EXPECT_NE(key.find("_rn"), std::string::npos);
  // A different pruning pattern of the same dense shape is a different cached
  // entity — its best schedule depends on the structure, not just the shape.
  topi::OpWorkload other = wl;
  other.nnz = wl.nnz + 1;
  EXPECT_NE(other.Key(), key);
  // Dense keys must be untouched by the sparse fields (pinned hashes in
  // test_autotune depend on this).
  topi::OpWorkload dense;
  dense.kind = "dense";
  dense.n = 4;
  dense.k = 32;
  dense.oc = 24;
  dense.nnz = 999;  // ignored for non-sparse kinds
  EXPECT_EQ(dense.Key().find("_nnz"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Graph level: SparseMlp vs the dense reference, three engines, batch-N
// ---------------------------------------------------------------------------

NDArray RunModel(const frontend::Model& m, const NDArray& input) {
  graph::GraphExecutor exec(m.graph, Target::ArmA53(), {});
  for (const auto& kv : m.params) {
    exec.SetParam(kv.first, kv.second);
  }
  exec.SetInput(m.input_name, input);
  exec.Run();
  return exec.GetOutput(0).Copy();
}

TEST(SparseGraph, MlpMatchesDenseReferenceAllEngines) {
  ScopedStrictMode strict;
  frontend::Model sparse = frontend::SparseMlp(2, 64, 64, 16, 0.9);
  frontend::Model dense = frontend::SparseMlpDenseReference(2, 64, 64, 16, 0.9);
  NDArray input = NDArray::Random({2, 64}, DataType::Float32(), 55);
  for (ExecEngine e : {ExecEngine::kInterp, ExecEngine::kVm, ExecEngine::kNative}) {
    ScopedEngine engine(e);
    vm::ResetFallbackCount();
    NDArray got = RunModel(sparse, input);
    NDArray want = RunModel(dense, input);
    ExpectBitwiseEqual(got, want,
                       "engine " + std::to_string(static_cast<int>(e)));
    EXPECT_EQ(vm::FallbackCount(), 0);
  }
}

TEST(SparseGraph, RebatchedSharesWeightsBitwise) {
  ScopedStrictMode strict;
  frontend::Model m = frontend::SparseMlp(1, 48, 48, 12, 0.9);
  std::shared_ptr<graph::CompiledGraph> base =
      frontend::CompileModel(m, Target::ArmA53());
  std::shared_ptr<graph::CompiledGraph> batched = base->Rebatched(3);
  std::vector<NDArray> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(NDArray::Random({1, 48}, DataType::Float32(), 60 + i));
  }
  graph::RunContext ctx(batched);
  serve::NamedTensors r0{{"data", inputs[0]}};
  serve::NamedTensors r1{{"data", inputs[1]}};
  serve::NamedTensors r2{{"data", inputs[2]}};
  serve::BindConcatenatedInputs({&r0, &r1, &r2}, &ctx);
  batched->Run(&ctx);
  std::vector<std::vector<NDArray>> slices = serve::SliceBatchedOutputs(ctx, 3);
  for (int i = 0; i < 3; ++i) {
    ExpectBitwiseEqual(slices[static_cast<size_t>(i)][0], RunModel(m, inputs[i]),
                       "batched slice " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Serving: coalescing, deadlines, fail-point recovery for the sparse model
// ---------------------------------------------------------------------------

std::shared_ptr<graph::CompiledGraph> SparseServeModel() {
  return frontend::CompileModel(frontend::SparseMlp(1, 48, 48, 12, 0.9),
                                Target::ArmA53());
}

NDArray SparseOracle(const NDArray& input) {
  return RunModel(frontend::SparseMlp(1, 48, 48, 12, 0.9), input);
}

TEST(SparseServe, BatchesCoalesceBitwise) {
  ScopedFailpoints guard;
  ScopedStrictMode strict;
  std::shared_ptr<graph::CompiledGraph> model = SparseServeModel();
  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  opts.batch_timeout_ms = 300;
  serve::InferenceServer server(opts);
  const int kRequests = 3;
  std::vector<NDArray> inputs;
  std::vector<std::future<serve::InferenceResponse>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(NDArray::Random({1, 48}, DataType::Float32(), 70 + i));
    serve::InferenceRequest req;
    req.inputs["data"] = inputs.back();
    futures.push_back(server.Submit(model, std::move(req)));
  }
  for (int i = 0; i < kRequests; ++i) {
    serve::InferenceResponse resp = futures[static_cast<size_t>(i)].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.message;
    ASSERT_EQ(resp.outputs.size(), 1u);
    EXPECT_EQ(resp.batch_size, kRequests);
    ExpectBitwiseEqual(resp.outputs[0], SparseOracle(inputs[static_cast<size_t>(i)]),
                       "sparse batched request " + std::to_string(i));
  }
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1);
  EXPECT_EQ(stats.batched_requests, kRequests);
}

TEST(SparseServe, DeadlineExpiredInQueueIsTyped) {
  ScopedFailpoints guard;
  ASSERT_TRUE(fp::ArmSpec("serve.run=delay(40)*1"));
  std::shared_ptr<graph::CompiledGraph> model = SparseServeModel();
  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.enable_shedding = 0;
  serve::InferenceServer server(opts);
  serve::InferenceRequest slow;
  slow.inputs["data"] = NDArray::Random({1, 48}, DataType::Float32(), 80);
  std::future<serve::InferenceResponse> f_slow = server.Submit(model, std::move(slow));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  serve::InferenceRequest doomed;
  doomed.inputs["data"] = NDArray::Random({1, 48}, DataType::Float32(), 81);
  doomed.deadline_ms = 5;
  std::future<serve::InferenceResponse> f_doomed =
      server.Submit(model, std::move(doomed));
  EXPECT_TRUE(f_slow.get().status.ok());
  serve::InferenceResponse miss = f_doomed.get();
  EXPECT_EQ(miss.status.code, serve::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(miss.outputs.empty());
  EXPECT_EQ(server.stats().deadline_missed, 1);
}

TEST(SparseServe, TransientFaultRetriesBitwiseWithIsolation) {
  ScopedFailpoints guard;
  ScopedStrictMode strict;
  // The faulted request recovers by retry; the cohabitant submitted after it is
  // untouched. Both must be bitwise-equal to the fault-free oracle.
  ASSERT_TRUE(fp::ArmSpec("serve.run=error*2"));
  std::shared_ptr<graph::CompiledGraph> model = SparseServeModel();
  serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.max_retries = 3;
  opts.retry_backoff_ms = 0.1;
  serve::InferenceServer server(opts);
  NDArray in_a = NDArray::Random({1, 48}, DataType::Float32(), 90);
  NDArray in_b = NDArray::Random({1, 48}, DataType::Float32(), 91);
  serve::InferenceRequest ra;
  ra.inputs["data"] = in_a.Copy();
  std::future<serve::InferenceResponse> fa = server.Submit(model, std::move(ra));
  serve::InferenceRequest rb;
  rb.inputs["data"] = in_b.Copy();
  std::future<serve::InferenceResponse> fb = server.Submit(model, std::move(rb));
  serve::InferenceResponse resp_a = fa.get();
  serve::InferenceResponse resp_b = fb.get();
  ASSERT_TRUE(resp_a.status.ok()) << resp_a.status.message;
  ASSERT_TRUE(resp_b.status.ok()) << resp_b.status.message;
  ExpectBitwiseEqual(resp_a.outputs[0], SparseOracle(in_a), "faulted request");
  ExpectBitwiseEqual(resp_b.outputs[0], SparseOracle(in_b), "cohabitant request");
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.fallbacks, 0);
  EXPECT_EQ(stats.failed, 0);
}

}  // namespace
}  // namespace tvmcpp
