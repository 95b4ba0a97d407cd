// Schedule templates with declared knobs (the paper's schedule-space templates,
// Section 5.1).
//
// A template exposes a ConfigSpace of knobs; ApplySchedule instantiates a concrete
// schedule for a knob assignment. The auto-tuner explores these spaces; graph-level
// compilation uses tuned or default configs.
#ifndef SRC_TOPI_SCHEDULES_H_
#define SRC_TOPI_SCHEDULES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/runtime/target.h"
#include "src/schedule/schedule.h"
#include "src/topi/nn.h"

namespace tvmcpp {
namespace topi {

// A knob assignment.
using Config = std::map<std::string, int64_t>;

struct KnobSpec {
  std::string name;
  std::vector<int64_t> choices;
  // Index of the untuned default in `choices`; -1 takes the median choice.
  int default_index = -1;
};

// Cartesian space of knob choices, indexable in mixed radix.
struct ConfigSpace {
  std::vector<KnobSpec> knobs;

  int64_t size() const {
    int64_t n = 1;
    for (const KnobSpec& k : knobs) {
      n *= static_cast<int64_t>(k.choices.size());
    }
    return n;
  }

  Config At(int64_t index) const {
    Config c;
    for (const KnobSpec& k : knobs) {
      int64_t radix = static_cast<int64_t>(k.choices.size());
      c[k.name] = k.choices[static_cast<size_t>(index % radix)];
      index /= radix;
    }
    return c;
  }

  int64_t IndexOf(const Config& c) const {
    int64_t index = 0;
    for (size_t i = knobs.size(); i-- > 0;) {
      const KnobSpec& k = knobs[i];
      int64_t pos = 0;
      auto it = c.find(k.name);
      if (it != c.end()) {
        for (size_t j = 0; j < k.choices.size(); ++j) {
          if (k.choices[j] == it->second) {
            pos = static_cast<int64_t>(j);
            break;
          }
        }
      }
      index = index * static_cast<int64_t>(k.choices.size()) + pos;
    }
    return index;
  }
};

// A single-operator tuning workload (Table 2 rows are instances of this).
struct OpWorkload {
  std::string kind;  // "conv2d", "depthwise_conv2d", "dense", "conv2d_transpose",
                     // "sparse_dense"
  int n = 1;
  int h = 1, w = 1;   // spatial input
  int ic = 1, oc = 1;
  int k = 1;          // kernel size (or input dim for dense / sparse_dense)
  int stride = 1, pad = 0;
  // sparse_dense only: stored entries and densest row of the CSR weight. Appended
  // to Key() for that kind alone, so dense workload keys (and the key hashes
  // pinned by the tuning-cache tests) are unchanged.
  int64_t nnz = 0;
  int64_t max_row_nnz = 0;
  // conv2d only: output-channel block b of an OIHW<b>o kernel, 0 for OIHW. Appended
  // to Key() only when nonzero, so OIHW keys are unchanged.
  int oc_block = 0;
  DataType dtype = DataType::Float32();

  std::string Key() const;
  double Flops() const;  // multiply-add counted as 2
};

// The op's tensors: inputs then output (in Lower() argument order).
struct BuiltOp {
  std::vector<Tensor> inputs;
  Tensor output;
  std::vector<Tensor> Args() const {
    std::vector<Tensor> a = inputs;
    a.push_back(output);
    return a;
  }
};

BuiltOp BuildOpCompute(const OpWorkload& wl);

// Knob space of the (target kind, op kind) master template.
ConfigSpace GetScheduleSpace(const OpWorkload& wl, const Target& target);

// Instantiates a schedule for `config`. `built` must come from BuildOpCompute.
Schedule ApplyOpSchedule(const OpWorkload& wl, const Target& target, const BuiltOp& built,
                         const Config& config);

// A reasonable untuned default config (each knob's default_index, else its median).
Config DefaultConfig(const ConfigSpace& space);

// --- Generic building blocks used by the graph compiler -----------------------------

// Schedules a fused group whose final output is `output` and whose (optional) reduction
// master is `master` (conv/dense); all other injective stages are inlined.
// Returns the schedule.
Schedule ScheduleFusedGroup(const Target& target, const std::vector<Tensor>& group_outputs,
                            const Tensor& master, const Config& config,
                            const OpWorkload* master_wl);

// Default injective schedule (elementwise/pool/softmax groups).
void ScheduleInjective(const Target& target, const Schedule& s, const Tensor& out);

}  // namespace topi
}  // namespace tvmcpp

#endif  // SRC_TOPI_SCHEDULES_H_
