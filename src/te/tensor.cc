#include "src/te/tensor.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/functor.h"

namespace tvmcpp {

Tensor::Tensor(Operation op, int value_index) : op_(std::move(op)), value_index_(value_index) {
  CHECK(op_ != nullptr);
  CHECK_LT(value_index, op_->num_outputs());
}

const std::vector<Expr>& Tensor::shape() const { return op_->output_shape(value_index_); }

DataType Tensor::dtype() const { return op_->output_dtype(value_index_); }

const std::string& Tensor::name() const { return op_->name; }

Expr Tensor::operator()(std::vector<Expr> indices) const {
  CHECK(defined()) << "access to undefined tensor";
  CHECK_EQ(indices.size(), shape().size())
      << "tensor " << name() << " expects " << shape().size() << " indices";
  return tensor_read(dtype(), std::static_pointer_cast<void>(op_), value_index_, name(),
                     std::move(indices));
}

std::vector<Tensor> CollectInputTensors(const std::vector<Expr>& body) {
  std::vector<Tensor> inputs;
  auto add = [&inputs](const Tensor& t) {
    for (const Tensor& u : inputs) {
      if (u == t) {
        return;
      }
    }
    inputs.push_back(t);
  };
  for (const Expr& e : body) {
    PostOrderVisit(e, [&](const Expr& x) {
      if (x->kind == ExprKind::kTensorRead) {
        const auto* n = static_cast<const TensorReadNode*>(x.get());
        Operation op = std::static_pointer_cast<OperationNode>(n->op);
        add(Tensor(op, n->value_index));
      }
    });
  }
  return inputs;
}

std::vector<Tensor> ComputeOpNode::InputTensors() const { return CollectInputTensors(body); }

Tensor placeholder(std::vector<Expr> shape, DataType dtype, const std::string& name) {
  auto op = std::make_shared<PlaceholderOpNode>(name, std::move(shape), dtype);
  return op->output(0);
}

Tensor compute(std::vector<Expr> shape, const FCompute& fcompute, const std::string& name) {
  std::vector<IterVar> axis;
  std::vector<Var> vars;
  axis.reserve(shape.size());
  static const char* kAxisNames[] = {"i0", "i1", "i2", "i3", "i4", "i5"};
  for (size_t i = 0; i < shape.size(); ++i) {
    std::string vname = i < 6 ? kAxisNames[i] : "i" + std::to_string(i);
    IterVar iv = make_itervar(name + "." + vname, shape[i], IterVarType::kDataPar);
    vars.push_back(iv->var);
    axis.push_back(std::move(iv));
  }
  Expr body = fcompute(vars);
  std::vector<IterVar> raxis;
  if (body->kind == ExprKind::kReduce) {
    raxis = static_cast<const ReduceNode*>(body.get())->axis;
  }
  auto op = std::make_shared<ComputeOpNode>(name, std::move(axis), std::move(raxis),
                                            std::vector<Expr>{std::move(body)});
  return op->output(0);
}

IterVar reduce_axis(Range dom, const std::string& name) {
  auto iv = std::make_shared<IterVarNode>(dom, make_var(name), IterVarType::kCommReduce, "");
  return iv;
}

Expr sum(Expr source, std::vector<IterVar> axis, Expr where) {
  Expr identity = make_zero(source->dtype);
  return std::make_shared<ReduceNode>("sum", std::move(source), std::move(axis),
                                      std::move(identity), std::move(where));
}

Expr max_reduce(Expr source, std::vector<IterVar> axis) {
  DataType t = source->dtype;
  Expr identity = t.is_float() ? make_const(t, -std::numeric_limits<double>::infinity())
                               : make_const(t, std::numeric_limits<int32_t>::min());
  return std::make_shared<ReduceNode>("max", std::move(source), std::move(axis),
                                      std::move(identity));
}

Expr min_reduce(Expr source, std::vector<IterVar> axis) {
  DataType t = source->dtype;
  Expr identity = t.is_float() ? make_const(t, std::numeric_limits<double>::infinity())
                               : make_const(t, std::numeric_limits<int32_t>::max());
  return std::make_shared<ReduceNode>("min", std::move(source), std::move(axis),
                                      std::move(identity));
}

}  // namespace tvmcpp
