#include "src/topi/schedules.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/ir/simplify.h"
#include "src/runtime/csr.h"
#include "src/topi/sparse.h"

namespace tvmcpp {
namespace topi {

namespace {

// Divisor-based knob choices within [lo, hi].
std::vector<int64_t> DivisorChoices(int64_t extent, int64_t lo, int64_t hi) {
  std::vector<int64_t> out;
  for (int64_t d = 1; d <= extent; ++d) {
    if (extent % d == 0 && d >= lo && d <= hi) {
      out.push_back(d);
    }
  }
  if (out.empty()) {
    out.push_back(std::min(extent, hi));
  }
  return out;
}

int64_t At(const Config& c, const std::string& key, int64_t fallback) {
  auto it = c.find(key);
  return it == c.end() ? fallback : it->second;
}

// Independent vector accumulators in a blocked conv's register tile: enough to hide
// the latency of a dependent vector add chain.
constexpr int64_t kTileVectors = 4;

// Finds the pad stage feeding a conv op (if any).
Tensor FindPadInput(const Tensor& conv) {
  for (const Tensor& t : conv.op()->InputTensors()) {
    if (t.name().find(".pad") != std::string::npos) {
      return t;
    }
  }
  return Tensor();
}

}  // namespace

std::string OpWorkload::Key() const {
  std::ostringstream os;
  os << kind << "_n" << n << "_h" << h << "_w" << w << "_ic" << ic << "_oc" << oc << "_k"
     << k << "_s" << stride << "_p" << pad << "_" << dtype.ToString();
  if (kind == "sparse_dense") {
    // The sparsity pattern changes the kernel (ELL bound, buffer sizes), so it is
    // part of the tuning-cache identity for sparse workloads only.
    os << "_nnz" << nnz << "_rn" << max_row_nnz;
  }
  if (oc_block > 0) {
    os << "_OIHW" << oc_block << "o";
  }
  return os.str();
}

double OpWorkload::Flops() const {
  if (kind == "sparse_dense") {
    return 2.0 * n * static_cast<double>(nnz);
  }
  if (kind == "dense") {
    return 2.0 * n * oc * k;
  }
  double oh = static_cast<double>(ConvOutDim(h, k, stride, pad));
  double ow = static_cast<double>(ConvOutDim(w, k, stride, pad));
  if (kind == "depthwise_conv2d") {
    return 2.0 * n * ic * oh * ow * k * k;
  }
  if (kind == "conv2d_transpose") {
    return 2.0 * n * ic * oc * h * w * k * k;
  }
  return 2.0 * n * oc * ic * oh * ow * k * k;
}

BuiltOp BuildOpCompute(const OpWorkload& wl) {
  BuiltOp b;
  if (wl.kind == "sparse_dense") {
    int64_t alloc = runtime::CsrAllocLen(wl.nnz, wl.max_row_nnz);
    Tensor data = placeholder({make_int(wl.n), make_int(wl.k)}, wl.dtype, "data");
    Tensor w_data = placeholder({make_int(alloc)}, wl.dtype, "w_data");
    Tensor w_indices = placeholder({make_int(alloc)}, DataType::Int32(), "w_indices");
    Tensor w_indptr = placeholder({make_int(wl.oc + 1)}, DataType::Int32(), "w_indptr");
    b.inputs = {data, w_data, w_indices, w_indptr};
    b.output = SparseDense(data, w_data, w_indices, w_indptr, wl.max_row_nnz);
    return b;
  }
  if (wl.kind == "dense") {
    Tensor data = placeholder({make_int(wl.n), make_int(wl.k)}, wl.dtype, "data");
    Tensor weight = placeholder({make_int(wl.oc), make_int(wl.k)}, wl.dtype, "weight");
    b.inputs = {data, weight};
    b.output = Dense(data, weight);
    return b;
  }
  Tensor data = placeholder({make_int(wl.n), make_int(wl.ic), make_int(wl.h), make_int(wl.w)},
                            wl.dtype, "data");
  if (wl.kind == "conv2d") {
    std::vector<Expr> shape = {make_int(wl.oc), make_int(wl.ic), make_int(wl.k),
                               make_int(wl.k)};
    if (wl.oc_block > 0) {
      shape[0] = make_int(wl.oc / wl.oc_block);
      shape.push_back(make_int(wl.oc_block));
    }
    Tensor kernel = placeholder(shape, wl.dtype, "kernel");
    b.inputs = {data, kernel};
    b.output = Conv2dNCHW(data, kernel, wl.stride, wl.pad);
  } else if (wl.kind == "depthwise_conv2d") {
    Tensor kernel = placeholder({make_int(wl.ic), make_int(1), make_int(wl.k), make_int(wl.k)},
                                wl.dtype, "kernel");
    b.inputs = {data, kernel};
    b.output = DepthwiseConv2dNCHW(data, kernel, wl.stride, wl.pad);
  } else if (wl.kind == "conv2d_transpose") {
    Tensor kernel = placeholder(
        {make_int(wl.ic), make_int(wl.oc), make_int(wl.k), make_int(wl.k)}, wl.dtype,
        "kernel");
    b.inputs = {data, kernel};
    b.output = Conv2dTransposeNCHW(data, kernel, wl.stride, wl.pad);
  } else {
    LOG(FATAL) << "unknown workload kind " << wl.kind;
  }
  return b;
}

ConfigSpace GetScheduleSpace(const OpWorkload& wl, const Target& target) {
  ConfigSpace space;
  if (wl.kind == "sparse_dense") {
    if (target.kind == TargetKind::kGpu) {
      space.knobs = {
          {"tile_y", DivisorChoices(wl.n, 1, 16)},
          {"tile_x", DivisorChoices(wl.oc, 1, 64)},
      };
    } else {
      // parallel: 0 = serial, 1 = batch rows, 2 = output-column blocks (the right
      // axis for single-sample serving, where the batch extent is 1; per-column
      // cost is uniform under the ELL bound, so column blocks are nnz-balanced).
      space.knobs = {
          {"tile_y", DivisorChoices(wl.n, 1, 16)},
          {"tile_x", DivisorChoices(wl.oc, 4, 64)},
          {"vectorize", {0, 1}},
          {"parallel", {0, 1, 2}},
      };
    }
    return space;
  }
  if (wl.kind == "dense") {
    if (target.kind == TargetKind::kGpu) {
      // Matrix-vector shapes (small batch) need wide x-tiles to fill a block with
      // threads; square matmul keeps 2-D tiles.
      int64_t max_tx = wl.n <= 4 ? 256 : 32;
      space.knobs = {
          {"tile_y", DivisorChoices(wl.n, 4, 32)},
          {"tile_x", DivisorChoices(wl.oc, 4, max_tx)},
          {"tile_k", DivisorChoices(wl.k, 4, 64)},
          {"use_shared", {0, 1}},
          {"vthread", {1, 2}},
      };
    } else if (target.kind == TargetKind::kAccel) {
      space.knobs = {{"vthread", {1, 2, 4}}};
    } else {
      space.knobs = {
          {"tile_y", DivisorChoices(wl.n, 1, 16)},
          {"tile_x", DivisorChoices(wl.oc, 4, 64)},
          {"vectorize", {0, 1}},
          {"parallel", {0, 1}},
      };
    }
    return space;
  }
  int64_t out_w = wl.kind == "conv2d_transpose"
                      ? (wl.w - 1) * wl.stride + wl.k - 2 * wl.pad
                      : ConvOutDim(wl.w, wl.k, wl.stride, wl.pad);
  int64_t channels = wl.kind == "depthwise_conv2d" ? wl.ic : wl.oc;
  int64_t out_h = wl.kind == "conv2d_transpose"
                      ? (wl.h - 1) * wl.stride + wl.k - 2 * wl.pad
                      : ConvOutDim(wl.h, wl.k, wl.stride, wl.pad);
  if (target.kind == TargetKind::kGpu) {
    space.knobs = {
        {"tile_oc", DivisorChoices(channels, 2, 64)},
        {"tile_ow", DivisorChoices(out_w, 2, 32)},
        {"tile_oh", DivisorChoices(out_h, 1, 8)},
        {"tile_rc", DivisorChoices(wl.kind == "depthwise_conv2d" ? 1 : wl.ic, 1, 32)},
        {"use_shared", {0, 1}},
        {"unroll", {0, 1}},
        {"vthread", {1, 2}},
    };
  } else if (wl.oc_block > 0) {
    // The kernel layout fixes the oc tile at whole blocks (ScheduleConvCpu picks how
    // many from tile_ow). The default tile_ow is the largest divisor of out_w up to
    // kTileVectors, so a fused conv's accumulator tile fills kTileVectors vectors.
    std::vector<int64_t> tile_ow = DivisorChoices(out_w, 1, 32);
    int tile_ow_default = 0;
    for (size_t i = 0; i < tile_ow.size(); ++i) {
      if (tile_ow[i] <= kTileVectors) {
        tile_ow_default = static_cast<int>(i);
      }
    }
    space.knobs = {
        {"tile_ow", tile_ow, tile_ow_default},
        {"vectorize", {0, 1}},
        {"parallel", {0, 1}},
    };
  } else {
    space.knobs = {
        {"tile_oc", DivisorChoices(channels, 1, 32)},
        {"tile_ow", DivisorChoices(out_w, 1, 32)},
        {"vectorize", {0, 1}},
        {"parallel", {0, 1}},
        {"unroll", {0, 1}},
    };
  }
  return space;
}

Config DefaultConfig(const ConfigSpace& space) {
  Config c;
  for (const KnobSpec& k : space.knobs) {
    c[k.name] = k.choices[k.default_index >= 0 ? static_cast<size_t>(k.default_index)
                                               : k.choices.size() / 2];
  }
  return c;
}

namespace {

// ---------------------------------------------------------------------------
// GPU templates
// ---------------------------------------------------------------------------

// Conv2d / depthwise GPU master template. `out` is the stage whose axes are tiled (the
// fused group output); `master` the reduction op (== out when unfused).
void ScheduleConvGpu(const Schedule& s, const Tensor& out, const Tensor& master,
                     const Config& cfg, bool depthwise) {
  int64_t toc = At(cfg, "tile_oc", 8);
  int64_t tow = At(cfg, "tile_ow", 8);
  int64_t toh = At(cfg, "tile_oh", 1);
  int64_t trc = At(cfg, "tile_rc", 8);
  bool use_shared = At(cfg, "use_shared", 1) != 0;
  bool unroll = At(cfg, "unroll", 0) != 0;
  int64_t vthread = At(cfg, "vthread", 1);
  if (vthread > 1 && tow % vthread != 0) {
    vthread = 1;
  }

  Tensor pad = FindPadInput(master);
  if (pad.defined()) {
    (*s)[pad]->compute_inline();
  }
  // Capture the reduction inputs before cache_write rewires the master op.
  std::vector<Tensor> master_inputs = master.op()->InputTensors();

  // Reduction results accumulate in per-thread registers.
  Tensor local;
  if (out == master) {
    local = s->cache_write(out, "local");
  } else {
    local = master;
    (*s)[master]->set_scope("local");
  }

  Stage so = (*s)[out];
  CHECK_GE(so->leaf_iter_vars.size(), 4u)
      << "conv template requires a 4-D NCHW output stage";
  IterVar oc = so->leaf_iter_vars[1];
  IterVar oh = so->leaf_iter_vars[2];
  IterVar ow = so->leaf_iter_vars[3];
  IterVar oco, oci, owo, owi, oho, ohi;
  so->split(oc, toc, &oco, &oci);
  so->split(ow, tow, &owo, &owi);
  so->split(oh, toh, &oho, &ohi);
  // Per-thread virtual-thread striding over the ow tile (when requested).
  IterVar vw, owi2;
  if (vthread > 1) {
    so->split(owi, tow / vthread, &vw, &owi2);
  } else {
    owi2 = owi;
  }
  if (vthread > 1) {
    so->reorder({oco, oho, owo, vw, oci, owi2, ohi});
  } else {
    so->reorder({oco, oho, owo, oci, owi2, ohi});
  }
  IterVar bx = so->fuse(oho, owo);
  so->bind(oco, thread_axis("blockIdx.y"));
  so->bind(bx, thread_axis("blockIdx.x"));
  if (vthread > 1) {
    so->bind(vw, thread_axis("vthread"));
  }
  so->bind(oci, thread_axis("threadIdx.y"));
  so->bind(owi2, thread_axis("threadIdx.x"));

  Stage sl = (*s)[local];
  sl->compute_at(so, owi2);
  // Split the channel reduction; ry/rx stay innermost.
  IterVar attach_point;
  if (!depthwise) {
    // leaf order: n, oc, oh, ow, rc, ry, rx
    IterVar rc = sl->leaf_iter_vars[4];
    IterVar rco, rci;
    sl->split(rc, trc, &rco, &rci);
    attach_point = rco;
    if (unroll) {
      sl->unroll(sl->leaf_iter_vars[6]);  // ry
      sl->unroll(sl->leaf_iter_vars[7]);  // rx
    }
  } else {
    attach_point = sl->leaf_iter_vars[4];  // ry
    if (unroll) {
      sl->unroll(sl->leaf_iter_vars[5]);  // rx
    }
  }

  if (use_shared) {
    Tensor inputs0 = master_inputs[0];
    Tensor kernel = master_inputs[1];
    Tensor as = s->cache_read(inputs0, "shared", {master == out ? local.op() : master.op()});
    Tensor ws = s->cache_read(kernel, "shared", {master == out ? local.op() : master.op()});
    int64_t tx_extent = tow / vthread;  // actual threadIdx.x extent after vthreading
    for (const Tensor& c : {as, ws}) {
      Stage sc = (*s)[c];
      sc->compute_at(sl, attach_point);
      // Cooperative copy: fuse all axes, bind to the thread grid.
      IterVar f = sc->leaf_iter_vars[0];
      for (size_t i = 1; i < sc->leaf_iter_vars.size(); ++i) {
        f = sc->fuse(f, sc->leaf_iter_vars[1]);
      }
      IterVar fo, fi, foo, fty;
      sc->split(f, tx_extent, &fo, &fi);
      sc->bind(fi, thread_axis("threadIdx.x"));
      sc->split(fo, toc, &foo, &fty);
      sc->bind(fty, thread_axis("threadIdx.y"));
    }
  }
}

// Dense GPU template with optional cooperative shared-memory staging (Figure 7).
void ScheduleDenseGpu(const Schedule& s, const Tensor& out, const Tensor& master,
                      const Config& cfg) {
  int64_t ty = At(cfg, "tile_y", 16);
  int64_t tx = At(cfg, "tile_x", 16);
  int64_t tk = At(cfg, "tile_k", 16);
  bool use_shared = At(cfg, "use_shared", 1) != 0;
  int64_t vthread = At(cfg, "vthread", 1);
  if (vthread > 1 && ty % vthread != 0) {
    vthread = 1;  // infeasible striding for this tile; fall back
  }

  std::vector<Tensor> master_inputs = master.op()->InputTensors();
  Tensor local;
  if (out == master) {
    local = s->cache_write(out, "local");
  } else {
    local = master;
    (*s)[master]->set_scope("local");
  }
  Stage so = (*s)[out];
  IterVar y = so->leaf_iter_vars[0], x = so->leaf_iter_vars[1];
  IterVar by, yin, bx, xin;
  so->split(y, ty, &by, &yin);
  so->split(x, tx, &bx, &xin);
  so->reorder({by, bx, yin, xin});
  so->bind(by, thread_axis("blockIdx.y"));
  so->bind(bx, thread_axis("blockIdx.x"));
  IterVar tyv = thread_axis("threadIdx.y");
  IterVar txv = thread_axis("threadIdx.x");
  if (vthread > 1) {
    IterVar vy, tyi;
    so->split(yin, ty / vthread, &vy, &tyi);
    so->bind(vy, thread_axis("vthread"));
    so->bind(tyi, tyv);
    so->bind(xin, txv);
  } else {
    so->bind(yin, tyv);
    so->bind(xin, txv);
  }
  Stage sl = (*s)[local];
  sl->compute_at(so, so->leaf_iter_vars.back());
  IterVar rk = sl->leaf_iter_vars[2];
  IterVar rko, rki;
  sl->split(rk, tk, &rko, &rki);
  if (use_shared) {
    Tensor a = master_inputs[0];
    Tensor b = master_inputs[1];
    Operation reader = (master == out ? local : master).op();
    for (const Tensor& src : {a, b}) {
      Tensor cacheT = s->cache_read(src, "shared", {reader});
      Stage sc = (*s)[cacheT];
      sc->compute_at(sl, rko);
      IterVar f = sc->fuse(sc->leaf_iter_vars[0], sc->leaf_iter_vars[1]);
      IterVar fo, fi, foo, fty;
      sc->split(f, tx, &fo, &fi);
      sc->bind(fi, txv);
      sc->split(fo, ty / std::max<int64_t>(vthread, 1), &foo, &fty);
      sc->bind(fty, tyv);
    }
  }
}

// ---------------------------------------------------------------------------
// CPU templates
// ---------------------------------------------------------------------------

// The pad stage is inlined, and the conv's `where` (the pad's in-bounds test)
// guards each MAC: a tap that falls in the padding is never loaded or multiplied,
// and no padded copy of the input is made. HoistIfThenElse (src/lower) turns the
// row test into ry's range and the column test into rx's, or, in a tile of several
// ow, splits rx into an unguarded middle and two edges that test each ow outside
// the lanes; it folds the inlined pad's select and clamps away. A skipped tap would
// have added 0 * w = +-0 to a sum that is never -0, so outputs are bitwise those of
// the materialized pad. The reduction axes (rc, ry, rx, in that order, never
// split) enclose the oc x ow output tile: each operand load then feeds a row of accumulators
// that stay in the tile instead of one accumulator reloaded per MAC. Every output
// element still sums its terms in the same order as the unscheduled compute.
//
// An OIHW kernel tiles oc by the tile_oc knob and vectorizes the ow tile. An
// OIHW<b>o kernel (wl.oc_block = b) tiles oc by whole blocks and puts the block's
// lanes innermost, ow outside them: the MAC's vectorized lane loop then loads b
// unit-stride weights of one tap and broadcasts one input value. Fused, the master's
// tile is (block, ow, lane), block and ow unrolled: it takes kTileVectors / tile_ow
// blocks (at least one, and a count that divides oc / b), so one tap issues up to
// kTileVectors independent vector MACs. Lowering stores an attached stage in its
// leaf-loop order, so the tile is a contiguous [ow][oc] array. A fused epilogue stays
// scalar: its NCHW stores are oh * ow apart across the block, and vectorizing them
// measured slower.
void ScheduleConvCpu(const Schedule& s, const Tensor& out, const Tensor& master,
                     const Config& cfg, const OpWorkload& wl) {
  const bool depthwise = wl.kind == "depthwise_conv2d";
  const bool blocked = wl.oc_block > 0;
  const bool fused = out != master;
  int64_t tow = At(cfg, "tile_ow", 8);
  int64_t toc = blocked ? wl.oc_block : At(cfg, "tile_oc", 4);
  if (blocked && fused) {
    int64_t blocks = std::max<int64_t>(1, kTileVectors / tow);
    while ((wl.oc / wl.oc_block) % blocks != 0) {
      --blocks;
    }
    toc *= blocks;
  }
  bool vec = At(cfg, "vectorize", 1) != 0;
  bool par = At(cfg, "parallel", 1) != 0;
  // The blocked template unrolls its tile instead of the rx window.
  bool unroll = !blocked && At(cfg, "unroll", 0) != 0;

  Tensor pad = FindPadInput(master);
  if (pad.defined()) {
    (*s)[pad]->compute_inline();
  }
  Stage so = (*s)[out];
  CHECK_GE(so->leaf_iter_vars.size(), 4u)
      << "conv template requires a 4-D NCHW output stage";
  // n, oc, oh, ow, then [rc,] ry, rx when `out` is the conv itself.
  std::vector<IterVar> axes = so->leaf_iter_vars;
  IterVar oco, oci, owo, owi;
  so->split(axes[1], toc, &oco, &oci);
  so->split(axes[3], tow, &owo, &owi);
  if (par) {
    so->parallel(oco);
  }
  // The output tile, innermost axis last. It is vectorized unless it is the scalar
  // epilogue around a blocked master.
  std::vector<IterVar> tile = blocked ? std::vector<IterVar>{owi, oci}
                                      : std::vector<IterVar>{oci, owi};
  if (vec && !(blocked && fused)) {
    so->vectorize(tile.back());
  }
  // `outer`, then the reduction axes of `leaves` (from index 4 on), then `tile`.
  auto reduction_above = [](std::vector<IterVar> outer, const std::vector<IterVar>& leaves,
                            const std::vector<IterVar>& tile) {
    outer.insert(outer.end(), leaves.begin() + 4, leaves.end());
    outer.insert(outer.end(), tile.begin(), tile.end());
    return outer;
  };
  if (fused) {
    // The master computes one oc x ow tile at owo: n, oh, [rc,] ry, rx, then the
    // tile (oc, ow; or block, ow, lane for a blocked kernel).
    so->reorder({axes[0], oco, axes[2], owo, tile[0], tile[1]});
    Stage sm = (*s)[master];
    sm->compute_at(so, owo);
    std::vector<IterVar> m = sm->leaf_iter_vars;
    if (blocked) {
      IterVar block, lane;
      sm->split(m[1], wl.oc_block, &block, &lane);
      sm->reorder(reduction_above({m[0], m[2]}, m, {block, m[3], lane}));
      sm->unroll(block);
      sm->unroll(m[3]);
      if (vec) {
        sm->vectorize(lane);
      }
    } else {
      sm->reorder(reduction_above({m[0], m[2]}, m, {m[1], m[3]}));
      if (unroll && !depthwise) {
        sm->unroll(m.back());  // rx
      }
    }
  } else {
    // n, oco, oh, owo, [rc,] ry, rx, then the tile.
    so->reorder(reduction_above({axes[0], oco, axes[2], owo}, axes, tile));
    if (unroll) {
      so->unroll(axes.back());  // rx
    }
  }
}

// ELL-bounded CSR SpMM. Mirrors the dense template's tiling, but the parallel
// knob may pick the output-column axis (uniform per-column cost under the ELL
// bound makes column blocks nnz-balanced chunks), and vectorizing xi turns the
// indptr/indices/data reads — and the column-indexed x read through them — into
// the vectorizer's gather form (the VM's vector-indexed kVLoad opcodes).
void ScheduleSparseDenseCpu(const Schedule& s, const Tensor& out, const Tensor& master,
                            const Config& cfg) {
  int64_t ty = At(cfg, "tile_y", 1);
  int64_t tx = At(cfg, "tile_x", 16);
  bool vec = At(cfg, "vectorize", 0) != 0;
  int64_t par = At(cfg, "parallel", 1);
  Stage so = (*s)[out];
  IterVar y = so->leaf_iter_vars[0], x = so->leaf_iter_vars[1];
  IterVar yo, yi, xo, xi;
  so->split(y, ty, &yo, &yi);
  so->split(x, tx, &xo, &xi);
  so->reorder({yo, xo, yi, xi});
  if (par == 1) {
    so->parallel(yo);
  } else if (par == 2) {
    so->parallel(xo);
  }
  if (vec) {
    so->vectorize(xi);
  }
  if (out != master) {
    (*s)[master]->compute_at(so, xo);
  }
}

void ScheduleSparseDenseGpu(const Schedule& s, const Tensor& out, const Tensor& master,
                            const Config& cfg) {
  int64_t ty = At(cfg, "tile_y", 1);
  int64_t tx = At(cfg, "tile_x", 16);
  Stage so = (*s)[out];
  IterVar y = so->leaf_iter_vars[0], x = so->leaf_iter_vars[1];
  IterVar by, yi, bx, xi;
  so->split(y, ty, &by, &yi);
  so->split(x, tx, &bx, &xi);
  so->reorder({by, bx, yi, xi});
  so->bind(by, thread_axis("blockIdx.y"));
  so->bind(bx, thread_axis("blockIdx.x"));
  so->bind(yi, thread_axis("threadIdx.y"));
  so->bind(xi, thread_axis("threadIdx.x"));
  if (out != master) {
    (*s)[master]->compute_at(so, so->leaf_iter_vars.back());
  }
}

void ScheduleDenseCpu(const Schedule& s, const Tensor& out, const Tensor& master,
                      const Config& cfg) {
  int64_t ty = At(cfg, "tile_y", 1);
  int64_t tx = At(cfg, "tile_x", 16);
  bool vec = At(cfg, "vectorize", 1) != 0;
  bool par = At(cfg, "parallel", 1) != 0;
  Stage so = (*s)[out];
  IterVar y = so->leaf_iter_vars[0], x = so->leaf_iter_vars[1];
  IterVar yo, yi, xo, xi;
  so->split(y, ty, &yo, &yi);
  so->split(x, tx, &xo, &xi);
  so->reorder({yo, xo, yi, xi});
  if (par) {
    // Rows that fit in one tile leave yo with extent 1 (batch-1 inference):
    // spread the output columns instead.
    int64_t rows;
    bool one_row_tile = is_const_int(y->dom.extent(), &rows) && rows <= ty;
    so->parallel(one_row_tile ? xo : yo);
  }
  if (vec) {
    so->vectorize(xi);
  }
  if (out != master) {
    (*s)[master]->compute_at(so, xo);
  }
}

}  // namespace

void ScheduleInjective(const Target& target, const Schedule& s, const Tensor& out) {
  Stage so = (*s)[out];
  if (so->leaf_iter_vars.empty()) {
    return;
  }
  if (target.kind == TargetKind::kGpu) {
    IterVar f = so->leaf_iter_vars[0];
    size_t ndim = so->leaf_iter_vars.size();
    // Fuse spatial axes only (reduction axes, if any, stay serial).
    size_t spatial = 0;
    for (const IterVar& iv : so->leaf_iter_vars) {
      if (iv->type == IterVarType::kDataPar) {
        ++spatial;
      }
    }
    (void)ndim;
    for (size_t i = 1; i < spatial; ++i) {
      f = so->fuse(f, so->leaf_iter_vars[1]);
    }
    IterVar bx, tx;
    so->split(f, 256, &bx, &tx);
    so->bind(bx, thread_axis("blockIdx.x"));
    so->bind(tx, thread_axis("threadIdx.x"));
  } else {
    so->parallel(so->leaf_iter_vars[0]);
    IterVar last;
    for (const IterVar& iv : so->leaf_iter_vars) {
      if (iv->type == IterVarType::kDataPar) {
        last = iv;
      }
    }
    if (last != nullptr && last.get() != so->leaf_iter_vars[0].get()) {
      so->vectorize(last);
    }
  }
}

Schedule ApplyOpSchedule(const OpWorkload& wl, const Target& target, const BuiltOp& built,
                         const Config& config) {
  Schedule s = create_schedule({built.output});
  if (target.kind == TargetKind::kGpu) {
    if (wl.kind == "sparse_dense") {
      ScheduleSparseDenseGpu(s, built.output, built.output, config);
    } else if (wl.kind == "dense") {
      ScheduleDenseGpu(s, built.output, built.output, config);
    } else if (wl.kind == "conv2d_transpose") {
      ScheduleInjective(target, s, built.output);
    } else {
      ScheduleConvGpu(s, built.output, built.output, config, wl.kind == "depthwise_conv2d");
    }
  } else {
    if (wl.kind == "sparse_dense") {
      ScheduleSparseDenseCpu(s, built.output, built.output, config);
    } else if (wl.kind == "dense") {
      ScheduleDenseCpu(s, built.output, built.output, config);
    } else if (wl.kind == "conv2d_transpose") {
      ScheduleInjective(target, s, built.output);
    } else {
      ScheduleConvCpu(s, built.output, built.output, config, wl);
    }
  }
  return s;
}

Schedule ScheduleFusedGroup(const Target& target, const std::vector<Tensor>& group_outputs,
                            const Tensor& master, const Config& config,
                            const OpWorkload* master_wl) {
  Schedule s = create_schedule(group_outputs);
  Tensor out = group_outputs[0];
  // Inline every injective stage between inputs and the output (except the master).
  for (const Stage& st : s->stages) {
    if (st->is_output || dynamic_cast<ComputeOpNode*>(st->op.get()) == nullptr) {
      continue;
    }
    auto* cop = static_cast<ComputeOpNode*>(st->op.get());
    if (!cop->reduce_axis.empty()) {
      continue;  // reductions (master) cannot inline
    }
    st->compute_inline();
  }
  if (!master.defined() || master == out) {
    // Pure injective group (or reduction output directly).
    if (master.defined() && master_wl != nullptr) {
      // Un-inline nothing; schedule the master via its template.
      if (target.kind == TargetKind::kGpu) {
        if (master_wl->kind == "sparse_dense") {
          ScheduleSparseDenseGpu(s, out, master, config);
        } else if (master_wl->kind == "dense") {
          ScheduleDenseGpu(s, out, master, config);
        } else if (master_wl->kind != "conv2d_transpose") {
          ScheduleConvGpu(s, out, master, config,
                          master_wl->kind == "depthwise_conv2d");
        } else {
          ScheduleInjective(target, s, out);
        }
      } else {
        if (master_wl->kind == "sparse_dense") {
          ScheduleSparseDenseCpu(s, out, master, config);
        } else if (master_wl->kind == "dense") {
          ScheduleDenseCpu(s, out, master, config);
        } else if (master_wl->kind != "conv2d_transpose") {
          ScheduleConvCpu(s, out, master, config, *master_wl);
        } else {
          ScheduleInjective(target, s, out);
        }
      }
    } else {
      ScheduleInjective(target, s, out);
    }
    return s;
  }
  // Master + injective epilogue: schedule the output, attach the master inside.
  if (target.kind == TargetKind::kGpu) {
    if (master_wl != nullptr && master_wl->kind == "sparse_dense") {
      ScheduleSparseDenseGpu(s, out, master, config);
    } else if (master_wl != nullptr && master_wl->kind == "dense") {
      ScheduleDenseGpu(s, out, master, config);
    } else if (master_wl != nullptr && master_wl->kind != "conv2d_transpose") {
      ScheduleConvGpu(s, out, master, config, master_wl->kind == "depthwise_conv2d");
    } else {
      ScheduleInjective(target, s, out);
      (*s)[master]->compute_at((*s)[out], (*s)[out]->leaf_iter_vars.back());
    }
  } else {
    if (master_wl != nullptr && master_wl->kind == "sparse_dense") {
      ScheduleSparseDenseCpu(s, out, master, config);
    } else if (master_wl != nullptr && master_wl->kind == "dense") {
      ScheduleDenseCpu(s, out, master, config);
    } else if (master_wl != nullptr && master_wl->kind != "conv2d_transpose") {
      ScheduleConvCpu(s, out, master, config, *master_wl);
    } else {
      ScheduleInjective(target, s, out);
      (*s)[master]->compute_at((*s)[out], (*s)[out]->leaf_iter_vars.back());
    }
  }
  return s;
}

}  // namespace topi
}  // namespace tvmcpp
