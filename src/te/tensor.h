// The declarative tensor expression language (Section 4.1 of the paper).
//
// Users declare placeholders and compute operations whose bodies are index-formula
// expressions; no loop structure is specified. A Schedule later maps these to low-level
// loop programs.
//
// Example (the paper's transposed matmul):
//   Tensor A = placeholder({m, h}, DataType::Float32(), "A");
//   Tensor B = placeholder({n, h}, DataType::Float32(), "B");
//   IterVar k = reduce_axis(Range(make_int(0), h), "k");
//   Tensor C = compute({m, n}, [&](const std::vector<Var>& i) {
//     return sum(A({k->var, i[0]}) * B({k->var, i[1]}), {k});
//   }, "C");
#ifndef SRC_TE_TENSOR_H_
#define SRC_TE_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/ir/expr.h"

namespace tvmcpp {

class OperationNode;
using Operation = std::shared_ptr<OperationNode>;

// A symbolic multi-dimensional array: output `value_index` of an Operation.
class Tensor {
 public:
  Tensor() = default;
  Tensor(Operation op, int value_index);

  const Operation& op() const { return op_; }
  int value_index() const { return value_index_; }
  const std::vector<Expr>& shape() const;
  int ndim() const { return static_cast<int>(shape().size()); }
  DataType dtype() const;
  const std::string& name() const;
  bool defined() const { return op_ != nullptr; }

  // Element access: builds a TensorRead expression.
  Expr operator()(std::vector<Expr> indices) const;

  bool operator==(const Tensor& other) const {
    return op_.get() == other.op_.get() && value_index_ == other.value_index_;
  }
  bool operator!=(const Tensor& other) const { return !(*this == other); }

 private:
  Operation op_;
  int value_index_ = 0;
};

// Base class of tensor operations.
class OperationNode : public std::enable_shared_from_this<OperationNode> {
 public:
  explicit OperationNode(std::string name) : name(std::move(name)) {}
  virtual ~OperationNode() = default;

  virtual int num_outputs() const = 0;
  virtual const std::vector<Expr>& output_shape(int i) const = 0;
  virtual DataType output_dtype(int i) const = 0;
  // Tensors read by this operation's body (deduplicated, stable order).
  virtual std::vector<Tensor> InputTensors() const = 0;

  Tensor output(int i) { return Tensor(shared_from_this(), i); }

  const std::string name;
};

// An input placeholder with fixed shape and dtype.
class PlaceholderOpNode : public OperationNode {
 public:
  PlaceholderOpNode(std::string name, std::vector<Expr> shape, DataType dtype)
      : OperationNode(std::move(name)), shape(std::move(shape)), dtype(dtype) {}

  int num_outputs() const override { return 1; }
  const std::vector<Expr>& output_shape(int i) const override { return shape; }
  DataType output_dtype(int i) const override { return dtype; }
  std::vector<Tensor> InputTensors() const override { return {}; }

  const std::vector<Expr> shape;
  const DataType dtype;
};

// result = compute(shape, fcompute): one expression per output element.
// Multiple bodies (tuple-valued compute, e.g. argmax) share the same axis.
class ComputeOpNode : public OperationNode {
 public:
  ComputeOpNode(std::string name, std::vector<IterVar> axis, std::vector<IterVar> reduce_axis,
                std::vector<Expr> body)
      : OperationNode(std::move(name)),
        axis(std::move(axis)),
        reduce_axis(std::move(reduce_axis)),
        body(std::move(body)) {
    shape_.reserve(this->axis.size());
    for (const IterVar& iv : this->axis) {
      shape_.push_back(iv->dom.extent());
    }
  }

  int num_outputs() const override { return static_cast<int>(body.size()); }
  const std::vector<Expr>& output_shape(int i) const override { return shape_; }
  DataType output_dtype(int i) const override { return body[static_cast<size_t>(i)]->dtype; }
  std::vector<Tensor> InputTensors() const override;

  // All iteration variables: spatial axis then reduction axis.
  std::vector<IterVar> root_iter_vars() const {
    std::vector<IterVar> all = axis;
    all.insert(all.end(), reduce_axis.begin(), reduce_axis.end());
    return all;
  }

  std::vector<IterVar> axis;
  std::vector<IterVar> reduce_axis;
  std::vector<Expr> body;

 private:
  std::vector<Expr> shape_;
};

// ---------------------------------------------------------------------------
// DSL entry points
// ---------------------------------------------------------------------------

Tensor placeholder(std::vector<Expr> shape, DataType dtype = DataType::Float32(),
                   const std::string& name = "placeholder");

using FCompute = std::function<Expr(const std::vector<Var>&)>;

Tensor compute(std::vector<Expr> shape, const FCompute& fcompute,
               const std::string& name = "compute");

// Declares a reduction axis over [min, min+extent).
IterVar reduce_axis(Range dom, const std::string& name = "k");

// Reductions; `source` may reference the axis variables. A sum skips every point of
// its domain where `where` (when given) is false.
Expr sum(Expr source, std::vector<IterVar> axis, Expr where = nullptr);
Expr max_reduce(Expr source, std::vector<IterVar> axis);
Expr min_reduce(Expr source, std::vector<IterVar> axis);

// Walks `body`, collecting every distinct tensor it reads.
std::vector<Tensor> CollectInputTensors(const std::vector<Expr>& body);

}  // namespace tvmcpp

#endif  // SRC_TE_TENSOR_H_
