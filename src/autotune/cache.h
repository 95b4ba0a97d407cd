// Persistent tuning cache: what the tuner learned, keyed so compilation can find
// it again (the "fleet warms its tuning cache from live traffic" story).
//
// Keys encode everything that changes which schedule config is best: the full
// OpWorkload (op kind, shape, dtype, batch), the target, and the VM's default
// loop-specialization config, which the measured programs were compiled with.
// The on-disk form is a JSON-lines file (header line with a schema version, then
// one entry per line) at the path named by TVMCPP_TUNE_CACHE; graph compilation
// consults the process-wide GlobalTuningCache() on every master-workload
// lowering and falls back to the untuned default config on a miss.
//
// Robustness contract (fail-points tune.cache_load / tune.cache_save): a
// missing, corrupt, version-mismatched, or faulted cache file degrades to
// untuned schedules with a LOG(WARNING) — it never crashes compilation and
// never changes results (tuned and untuned schedules are bitwise-equivalent by
// construction; see docs/ARCHITECTURE.md "Autotuning").
#ifndef SRC_AUTOTUNE_CACHE_H_
#define SRC_AUTOTUNE_CACHE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/runtime/target.h"
#include "src/topi/schedules.h"

namespace tvmcpp {
namespace autotune {

// On-disk schema version; files written by a different version load as empty.
inline constexpr int kTuningCacheVersion = 1;

// Canonical cache key of one tuning point:
//   <OpWorkload::Key()>@<target name>@<signature of LoopSpecializeOptions{}>
// e.g. "dense_n16_h1_w1_ic1_oc256_k256_s1_p0_float32@arm_cpu@u8_h1_s1_p1".
std::string TuningKey(const topi::OpWorkload& wl, const Target& target);

// FNV-1a (64-bit) of the key string. Stable across processes and platforms —
// stored with each entry so corrupt lines are detected, and asserted against a
// pinned constant in tests so the key schema cannot drift silently.
uint64_t TuningKeyHash(const std::string& key);

struct TuningCacheEntry {
  std::string key;
  topi::Config config;  // the winning knob assignment
  double seconds = 0;   // best measured seconds when tuned
  int trials = 0;       // trial budget that produced it
};

// Thread-safe in-memory map with JSON-lines persistence. Lookup() keeps
// hit/miss counters so CI can prove a cache written by one job is actually
// consumed by another.
class TuningCache {
 public:
  // True when `key` is present; copies the entry into `out` (if non-null).
  bool Lookup(const std::string& key, TuningCacheEntry* out) const;
  void Put(TuningCacheEntry entry);

  // Merges the file's entries over the current ones. Returns false — leaving
  // previously loaded entries untouched and logging a warning — when the file
  // is missing, unreadable, has a header other than exactly kTuningCacheVersion,
  // or fails the tune.cache_load fail-point. Individually corrupt lines (hash
  // mismatch, or seconds/trials non-finite, negative or past INT_MAX) are
  // skipped, not fatal.
  bool Load(const std::string& path);
  // Writes all entries (header first, entries sorted by key) via a temp file +
  // rename. Returns false with a warning on I/O failure or tune.cache_save.
  bool Save(const std::string& path) const;

  void Clear();
  size_t size() const;

  int64_t hits() const;
  int64_t misses() const;
  void ResetCounters();

 private:
  mutable std::mutex mu_;
  mutable int64_t hits_ = 0;
  mutable int64_t misses_ = 0;
  std::unordered_map<std::string, TuningCacheEntry> entries_;
};

// Validates a cached config against a schedule space: starts from the space's
// default config and overlays every cached knob whose value is a legal choice.
// Returns false (leaving `out` untouched) when any cached knob value is not a
// legal choice for its knob — a stale or corrupt entry must not instantiate an
// unverifiable schedule.
bool ApplyCachedConfig(const topi::ConfigSpace& space, const topi::Config& cached,
                       topi::Config* out);

// The process-wide cache graph compilation consults. Lazily loaded from the
// TVMCPP_TUNE_CACHE file on first use (empty when the variable is unset).
TuningCache& GlobalTuningCache();

}  // namespace autotune
}  // namespace tvmcpp

#endif  // SRC_AUTOTUNE_CACHE_H_
