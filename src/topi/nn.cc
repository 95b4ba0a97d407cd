#include "src/topi/nn.h"

#include <string>
#include <vector>

#include "src/ir/simplify.h"

namespace tvmcpp {
namespace topi {

namespace {

// Guarded (zero-padded) read of NCHW data at spatial position (h, w).
Expr PadRead(const Tensor& data, const Expr& n, const Expr& c, Expr h, Expr w, int64_t in_h,
             int64_t in_w) {
  Expr in_bounds = logic_and(logic_and(ge(h, make_int(0)), lt(h, make_int(in_h))),
                             logic_and(ge(w, make_int(0)), lt(w, make_int(in_w))));
  Expr hc = max(min(h, make_int(in_h - 1)), make_int(0));
  Expr wc = max(min(w, make_int(in_w - 1)), make_int(0));
  return if_then_else(in_bounds, data({n, c, hc, wc}), make_const(data.dtype(), 0));
}

int64_t Dim(const Tensor& t, int i) { return get_const_int(Simplify(t.shape()[i])); }

}  // namespace

Tensor PadNCHW(const Tensor& data, int pad, const std::string& name) {
  if (pad == 0) {
    return data;
  }
  int64_t in_h = Dim(data, 2), in_w = Dim(data, 3);
  return compute(
      {data.shape()[0], data.shape()[1], make_int(in_h + 2 * pad), make_int(in_w + 2 * pad)},
      [&](const std::vector<Var>& i) {
        Expr h = i[2] - make_int(pad);
        Expr w = i[3] - make_int(pad);
        return PadRead(data, i[0], i[1], h, w, in_h, in_w);
      },
      name);
}

Tensor Conv2dNCHW(const Tensor& data, const Tensor& kernel, int stride, int pad,
                  const std::string& name) {
  int64_t batch = Dim(data, 0), in_c = Dim(data, 1), in_h = Dim(data, 2), in_w = Dim(data, 3);
  int64_t block = kernel.ndim() == 5 ? Dim(kernel, 4) : 0;  // OIHW<block>o, or OIHW
  int64_t out_c = Dim(kernel, 0) * (block > 0 ? block : 1);
  int64_t kh = Dim(kernel, 2), kw = Dim(kernel, 3);
  int64_t out_h = ConvOutDim(in_h, kh, stride, pad);
  int64_t out_w = ConvOutDim(in_w, kw, stride, pad);
  Tensor padded = PadNCHW(data, pad, name + ".pad");
  IterVar rc = reduce_axis(Range(make_int(0), make_int(in_c)), name + ".rc");
  IterVar ry = reduce_axis(Range(make_int(0), make_int(kh)), name + ".ry");
  IterVar rx = reduce_axis(Range(make_int(0), make_int(kw)), name + ".rx");
  return compute(
      {make_int(batch), make_int(out_c), make_int(out_h), make_int(out_w)},
      [&](const std::vector<Var>& i) {
        Expr h = i[2] * make_int(stride) + ry->var;
        Expr w = i[3] * make_int(stride) + rx->var;
        Expr weight = block > 0 ? kernel({i[1] / make_int(block), rc->var, ry->var, rx->var,
                                          i[1] % make_int(block)})
                                : kernel({i[1], rc->var, ry->var, rx->var});
        Expr val = padded({i[0], rc->var, h, w}) * weight;
        return sum(val, {rc, ry, rx});
      },
      name);
}

Tensor DepthwiseConv2dNCHW(const Tensor& data, const Tensor& kernel, int stride, int pad,
                           const std::string& name) {
  int64_t batch = Dim(data, 0), in_h = Dim(data, 2), in_w = Dim(data, 3);
  int64_t channels = Dim(data, 1);
  int64_t kh = Dim(kernel, 2), kw = Dim(kernel, 3);
  int64_t out_h = ConvOutDim(in_h, kh, stride, pad);
  int64_t out_w = ConvOutDim(in_w, kw, stride, pad);
  Tensor padded = PadNCHW(data, pad, name + ".pad");
  IterVar ry = reduce_axis(Range(make_int(0), make_int(kh)), name + ".ry");
  IterVar rx = reduce_axis(Range(make_int(0), make_int(kw)), name + ".rx");
  return compute(
      {make_int(batch), make_int(channels), make_int(out_h), make_int(out_w)},
      [&](const std::vector<Var>& i) {
        Expr h = i[2] * make_int(stride) + ry->var;
        Expr w = i[3] * make_int(stride) + rx->var;
        Expr val = padded({i[0], i[1], h, w}) * kernel({i[1], make_int(0), ry->var, rx->var});
        return sum(val, {ry, rx});
      },
      name);
}

Tensor Conv2dTransposeNCHW(const Tensor& data, const Tensor& kernel, int stride, int pad,
                           const std::string& name) {
  int64_t batch = Dim(data, 0), in_c = Dim(data, 1), in_h = Dim(data, 2), in_w = Dim(data, 3);
  int64_t out_c = Dim(kernel, 1), kh = Dim(kernel, 2), kw = Dim(kernel, 3);
  int64_t out_h = (in_h - 1) * stride + kh - 2 * pad;
  int64_t out_w = (in_w - 1) * stride + kw - 2 * pad;
  IterVar rc = reduce_axis(Range(make_int(0), make_int(in_c)), name + ".rc");
  IterVar ry = reduce_axis(Range(make_int(0), make_int(kh)), name + ".ry");
  IterVar rx = reduce_axis(Range(make_int(0), make_int(kw)), name + ".rx");
  return compute(
      {make_int(batch), make_int(out_c), make_int(out_h), make_int(out_w)},
      [&](const std::vector<Var>& i) {
        // Input position contributing through kernel tap (ry, rx).
        Expr hn = i[2] + make_int(pad) - ry->var;
        Expr wn = i[3] + make_int(pad) - rx->var;
        Expr h = hn / make_int(stride);
        Expr w = wn / make_int(stride);
        Expr aligned = logic_and(eq(hn % make_int(stride), make_int(0)),
                                 eq(wn % make_int(stride), make_int(0)));
        Expr in_bounds = logic_and(
            logic_and(ge(h, make_int(0)), lt(h, make_int(in_h))),
            logic_and(ge(w, make_int(0)), lt(w, make_int(in_w))));
        Expr hc = max(min(h, make_int(in_h - 1)), make_int(0));
        Expr wc = max(min(w, make_int(in_w - 1)), make_int(0));
        Expr val = if_then_else(logic_and(aligned, in_bounds),
                                data({i[0], rc->var, hc, wc}), make_const(data.dtype(), 0)) *
                   kernel({rc->var, i[1], ry->var, rx->var});
        return sum(val, {rc, ry, rx});
      },
      name);
}

Tensor Dense(const Tensor& data, const Tensor& weight, const std::string& name) {
  int64_t batch = Dim(data, 0), in_dim = Dim(data, 1), out_dim = Dim(weight, 0);
  IterVar k = reduce_axis(Range(make_int(0), make_int(in_dim)), name + ".k");
  return compute({make_int(batch), make_int(out_dim)},
                 [&](const std::vector<Var>& i) {
                   return sum(data({i[0], k->var}) * weight({i[1], k->var}), {k});
                 },
                 name);
}

namespace {

Tensor Elementwise(const Tensor& x, const std::function<Expr(Expr)>& f,
                   const std::string& name) {
  return compute(x.shape(),
                 [&](const std::vector<Var>& i) {
                   std::vector<Expr> idx(i.begin(), i.end());
                   return f(x(idx));
                 },
                 name);
}

}  // namespace

Tensor Relu(const Tensor& x, const std::string& name) {
  return Elementwise(x, [&](Expr v) { return max(v, make_const(x.dtype(), 0)); }, name);
}

Tensor TanhOp(const Tensor& x, const std::string& name) {
  return Elementwise(x, [](Expr v) { return tanh(v); }, name);
}

Tensor SigmoidOp(const Tensor& x, const std::string& name) {
  return Elementwise(x, [](Expr v) { return sigmoid(v); }, name);
}

Tensor Add(const Tensor& a, const Tensor& b, const std::string& name) {
  return compute(a.shape(),
                 [&](const std::vector<Var>& i) {
                   std::vector<Expr> idx(i.begin(), i.end());
                   return a(idx) + b(idx);
                 },
                 name);
}

Tensor Mul(const Tensor& a, const Tensor& b, const std::string& name) {
  return compute(a.shape(),
                 [&](const std::vector<Var>& i) {
                   std::vector<Expr> idx(i.begin(), i.end());
                   return a(idx) * b(idx);
                 },
                 name);
}

Tensor BatchNorm(const Tensor& x, const Tensor& scale, const Tensor& shift,
                 const std::string& name) {
  return compute(x.shape(),
                 [&](const std::vector<Var>& i) {
                   std::vector<Expr> idx(i.begin(), i.end());
                   return x(idx) * scale({i[1]}) + shift({i[1]});
                 },
                 name);
}

Tensor BiasAdd(const Tensor& x, const Tensor& bias, const std::string& name) {
  return compute(x.shape(),
                 [&](const std::vector<Var>& i) {
                   std::vector<Expr> idx(i.begin(), i.end());
                   return x(idx) + bias({i[1]});
                 },
                 name);
}

Tensor MaxPool2d(const Tensor& x, int kernel, int stride, int pad, const std::string& name) {
  int64_t batch = Dim(x, 0), channels = Dim(x, 1), in_h = Dim(x, 2), in_w = Dim(x, 3);
  int64_t out_h = ConvOutDim(in_h, kernel, stride, pad);
  int64_t out_w = ConvOutDim(in_w, kernel, stride, pad);
  IterVar ry = reduce_axis(Range(make_int(0), make_int(kernel)), name + ".ry");
  IterVar rx = reduce_axis(Range(make_int(0), make_int(kernel)), name + ".rx");
  return compute(
      {make_int(batch), make_int(channels), make_int(out_h), make_int(out_w)},
      [&](const std::vector<Var>& i) {
        Expr h = i[2] * make_int(stride) + ry->var - make_int(pad);
        Expr w = i[3] * make_int(stride) + rx->var - make_int(pad);
        Expr in_bounds = logic_and(logic_and(ge(h, make_int(0)), lt(h, make_int(in_h))),
                                   logic_and(ge(w, make_int(0)), lt(w, make_int(in_w))));
        Expr hc = max(min(h, make_int(in_h - 1)), make_int(0));
        Expr wc = max(min(w, make_int(in_w - 1)), make_int(0));
        Expr val = if_then_else(in_bounds, x({i[0], i[1], hc, wc}),
                                make_const(x.dtype(), -1e30));
        return max_reduce(val, {ry, rx});
      },
      name);
}

Tensor GlobalAvgPool(const Tensor& x, const std::string& name) {
  int64_t in_h = Dim(x, 2), in_w = Dim(x, 3);
  IterVar ry = reduce_axis(Range(make_int(0), make_int(in_h)), name + ".ry");
  IterVar rx = reduce_axis(Range(make_int(0), make_int(in_w)), name + ".rx");
  Tensor total = compute(
      {x.shape()[0], x.shape()[1]},
      [&](const std::vector<Var>& i) {
        return sum(x({i[0], i[1], ry->var, rx->var}), {ry, rx});
      },
      name + ".sum");
  double denom = static_cast<double>(in_h * in_w);
  return compute({x.shape()[0], x.shape()[1]},
                 [&](const std::vector<Var>& i) {
                   return total({i[0], i[1]}) * make_const(x.dtype(), 1.0 / denom);
                 },
                 name);
}

Tensor Flatten(const Tensor& x, const std::string& name) {
  int64_t n = 1;
  for (size_t d = 1; d < x.shape().size(); ++d) {
    n *= Dim(x, static_cast<int>(d));
  }
  std::vector<int64_t> dims;
  for (size_t d = 1; d < x.shape().size(); ++d) {
    dims.push_back(Dim(x, static_cast<int>(d)));
  }
  return compute({x.shape()[0], make_int(n)},
                 [&](const std::vector<Var>& i) {
                   std::vector<Expr> idx{i[0]};
                   Expr rem = i[1];
                   int64_t inner = n;
                   for (size_t d = 0; d < dims.size(); ++d) {
                     inner /= dims[d];
                     idx.push_back((rem / make_int(inner)) % make_int(dims[d]));
                   }
                   return x(idx);
                 },
                 name);
}

Tensor Softmax(const Tensor& x, const std::string& name) {
  int64_t classes = Dim(x, 1);
  IterVar k1 = reduce_axis(Range(make_int(0), make_int(classes)), name + ".k1");
  IterVar k2 = reduce_axis(Range(make_int(0), make_int(classes)), name + ".k2");
  Tensor max_el = compute({x.shape()[0]},
                          [&](const std::vector<Var>& i) {
                            return max_reduce(x({i[0], k1->var}), {k1});
                          },
                          name + ".max");
  Tensor expsum = compute({x.shape()[0]},
                          [&](const std::vector<Var>& i) {
                            return sum(exp(x({i[0], k2->var}) - max_el({i[0]})), {k2});
                          },
                          name + ".expsum");
  return compute({x.shape()[0], x.shape()[1]},
                 [&](const std::vector<Var>& i) {
                   return exp(x({i[0], i[1]}) - max_el({i[0]})) / expsum({i[0]});
                 },
                 name);
}

}  // namespace topi
}  // namespace tvmcpp
