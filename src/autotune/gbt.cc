#include "src/autotune/gbt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/support/logging.h"

namespace tvmcpp {
namespace autotune {

namespace {

struct Split {
  int feature = -1;
  double threshold = 0;
  double gain = 0;
};

// Exact best split of `indices` on squared-error reduction, scanning sorted values.
Split BestSplit(const std::vector<std::vector<double>>& x, const std::vector<double>& g,
                const std::vector<int>& indices, int min_leaf) {
  Split best;
  if (static_cast<int>(indices.size()) < 2 * min_leaf) {
    return best;
  }
  int dim = static_cast<int>(x[0].size());
  double total_sum = 0;
  for (int i : indices) {
    total_sum += g[static_cast<size_t>(i)];
  }
  double total_n = static_cast<double>(indices.size());
  double base_score = total_sum * total_sum / total_n;

  std::vector<int> order(indices);
  for (int feat = 0; feat < dim; ++feat) {
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return x[static_cast<size_t>(a)][static_cast<size_t>(feat)] <
             x[static_cast<size_t>(b)][static_cast<size_t>(feat)];
    });
    double left_sum = 0;
    for (size_t i = 0; i + 1 < order.size(); ++i) {
      left_sum += g[static_cast<size_t>(order[i])];
      double lv = x[static_cast<size_t>(order[i])][static_cast<size_t>(feat)];
      double rv = x[static_cast<size_t>(order[i + 1])][static_cast<size_t>(feat)];
      if (lv == rv) {
        continue;
      }
      int left_n = static_cast<int>(i) + 1;
      int right_n = static_cast<int>(order.size()) - left_n;
      if (left_n < min_leaf || right_n < min_leaf) {
        continue;
      }
      double right_sum = total_sum - left_sum;
      double score = left_sum * left_sum / left_n + right_sum * right_sum / right_n;
      double gain = score - base_score;
      if (gain > best.gain) {
        best.feature = feat;
        best.threshold = (lv + rv) / 2;
        best.gain = gain;
      }
    }
  }
  return best;
}

int BuildNode(const std::vector<std::vector<double>>& x, const std::vector<double>& g,
              const std::vector<int>& indices, int depth, int max_depth, int min_leaf,
              std::vector<TreeNode>* tree) {
  int id = static_cast<int>(tree->size());
  tree->push_back(TreeNode{});
  double mean = 0;
  for (int i : indices) {
    mean += g[static_cast<size_t>(i)];
  }
  mean /= static_cast<double>(indices.size());
  (*tree)[static_cast<size_t>(id)].value = mean;
  if (depth >= max_depth) {
    return id;
  }
  Split split = BestSplit(x, g, indices, min_leaf);
  if (split.feature < 0 || split.gain < 1e-12) {
    return id;
  }
  std::vector<int> left, right;
  for (int i : indices) {
    if (x[static_cast<size_t>(i)][static_cast<size_t>(split.feature)] <= split.threshold) {
      left.push_back(i);
    } else {
      right.push_back(i);
    }
  }
  if (left.empty() || right.empty()) {
    return id;
  }
  int l = BuildNode(x, g, left, depth + 1, max_depth, min_leaf, tree);
  int r = BuildNode(x, g, right, depth + 1, max_depth, min_leaf, tree);
  TreeNode& node = (*tree)[static_cast<size_t>(id)];
  node.feature = split.feature;
  node.threshold = split.threshold;
  node.left = l;
  node.right = r;
  return id;
}

}  // namespace

std::vector<TreeNode> GbtModel::FitTree(const std::vector<std::vector<double>>& x,
                                        const std::vector<double>& gradients) {
  std::vector<TreeNode> tree;
  std::vector<int> indices(x.size());
  std::iota(indices.begin(), indices.end(), 0);
  BuildNode(x, gradients, indices, 0, params_.max_depth, params_.min_samples_leaf, &tree);
  return tree;
}

double GbtModel::PredictTree(const std::vector<TreeNode>& tree,
                             const std::vector<double>& f) {
  int id = 0;
  for (;;) {
    const TreeNode& n = tree[static_cast<size_t>(id)];
    if (n.feature < 0) {
      return n.value;
    }
    id = f[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
}

void GbtModel::Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  CHECK_EQ(x.size(), y.size());
  trees_.clear();
  if (x.empty()) {
    return;
  }
  base_ = std::accumulate(y.begin(), y.end(), 0.0) / static_cast<double>(y.size());
  std::vector<double> pred(x.size(), base_);
  int n = static_cast<int>(x.size());
  for (int t = 0; t < params_.num_trees; ++t) {
    // Pseudo-residuals under the chosen objective.
    std::vector<double> grad(x.size(), 0.0);
    if (params_.objective == GbtObjective::kRegression) {
      for (int i = 0; i < n; ++i) {
        grad[static_cast<size_t>(i)] = y[static_cast<size_t>(i)] - pred[static_cast<size_t>(i)];
      }
    } else {
      // Pairwise logistic rank loss: for each pair (i better than j), push pred_i up and
      // pred_j down with weight sigmoid(-(pred_i - pred_j)). Sampled pairs keep this
      // O(n * k).
      int pairs_per_sample = std::min(8, n - 1);
      for (int i = 0; i < n; ++i) {
        for (int p = 1; p <= pairs_per_sample; ++p) {
          int j = (i + p * 7919) % n;  // deterministic scatter
          if (i == j) {
            continue;
          }
          double yi = y[static_cast<size_t>(i)], yj = y[static_cast<size_t>(j)];
          if (yi == yj) {
            continue;
          }
          int hi = yi > yj ? i : j;
          int lo = yi > yj ? j : i;
          double margin = pred[static_cast<size_t>(hi)] - pred[static_cast<size_t>(lo)];
          double w = 1.0 / (1.0 + std::exp(margin));  // sigmoid(-margin)
          grad[static_cast<size_t>(hi)] += w;
          grad[static_cast<size_t>(lo)] -= w;
        }
      }
    }
    std::vector<TreeNode> tree = FitTree(x, grad);
    for (int i = 0; i < n; ++i) {
      pred[static_cast<size_t>(i)] +=
          params_.learning_rate * PredictTree(tree, x[static_cast<size_t>(i)]);
    }
    trees_.push_back(std::move(tree));
  }
}

void GbtModel::Update(const std::vector<std::vector<double>>& x,
                      const std::vector<double>& y) {
  data_x_.insert(data_x_.end(), x.begin(), x.end());
  data_y_.insert(data_y_.end(), y.begin(), y.end());
  Fit(data_x_, data_y_);
}

double GbtModel::Predict(const std::vector<double>& features) const {
  double p = base_;
  for (const auto& tree : trees_) {
    p += params_.learning_rate * PredictTree(tree, features);
  }
  return p;
}

}  // namespace autotune
}  // namespace tvmcpp
