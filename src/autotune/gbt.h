// Gradient boosted regression trees (the XGBoost-style cost model of Section 5.2),
// implemented from scratch.
//
// Supports two training objectives:
//   * kRegression — squared error on -log(seconds)
//   * kRank       — pairwise logistic (RankNet-style) loss; the paper's choice, since the
//                   explorer only needs the relative order of candidates
#ifndef SRC_AUTOTUNE_GBT_H_
#define SRC_AUTOTUNE_GBT_H_

#include <memory>
#include <vector>

namespace tvmcpp {
namespace autotune {

enum class GbtObjective { kRegression, kRank };

struct GbtParams {
  int num_trees = 40;
  int max_depth = 5;
  double learning_rate = 0.25;
  int min_samples_leaf = 2;
  GbtObjective objective = GbtObjective::kRank;
};

// One regression tree node (array-encoded).
struct TreeNode {
  int feature = -1;       // -1 for leaves
  double threshold = 0;
  double value = 0;       // leaf prediction
  int left = -1;
  int right = -1;
};

class GbtModel {
 public:
  explicit GbtModel(GbtParams params = {}) : params_(params) {}

  // Fits to (features, score) pairs. Higher score = better (e.g. -log seconds or GFLOPS).
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  // Incremental refit over the accumulated dataset (the paper's periodic model update).
  void Update(const std::vector<std::vector<double>>& x, const std::vector<double>& y);

  double Predict(const std::vector<double>& features) const;

  bool trained() const { return !trees_.empty(); }
  int num_samples() const { return static_cast<int>(data_x_.size()); }

 private:
  std::vector<TreeNode> FitTree(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& gradients);
  static double PredictTree(const std::vector<TreeNode>& tree,
                            const std::vector<double>& f);

  GbtParams params_;
  std::vector<std::vector<TreeNode>> trees_;
  double base_ = 0;
  std::vector<std::vector<double>> data_x_;
  std::vector<double> data_y_;
};

}  // namespace autotune
}  // namespace tvmcpp

#endif  // SRC_AUTOTUNE_GBT_H_
