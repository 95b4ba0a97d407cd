#include "src/autotune/cache.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/lower/lower.h"
#include "src/support/failpoint.h"
#include "src/support/logging.h"

namespace tvmcpp {
namespace autotune {

std::string TuningKey(const topi::OpWorkload& wl, const Target& target) {
  // The tuner measures programs compiled with the VM's default specialization, so
  // the key names that config: should the default change, older entries miss
  // instead of applying to differently compiled programs.
  const LoopSpecializeOptions spec;
  std::string sig = "u" + std::to_string(spec.unroll_limit);
  sig += spec.hoist_invariants ? "_h1" : "_h0";
  sig += spec.strength_reduce ? "_s1" : "_s0";
  sig += spec.peephole ? "_p1" : "_p0";
  return wl.Key() + "@" + target.name + "@" + sig;
}

uint64_t TuningKeyHash(const std::string& key) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (unsigned char c : key) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

namespace {

std::string HexOf(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- minimal JSON-line field extraction (writer below emits exactly this shape,
// but readers stay tolerant: any line that does not parse is skipped) ----------

bool FindStringField(const std::string& line, const std::string& name,
                     std::string* out) {
  std::string tag = "\"" + name + "\": \"";
  size_t at = line.find(tag);
  if (at == std::string::npos) {
    return false;
  }
  size_t begin = at + tag.size();
  size_t end = line.find('"', begin);
  if (end == std::string::npos) {
    return false;
  }
  *out = line.substr(begin, end - begin);
  return true;
}

bool FindNumberField(const std::string& line, const std::string& name, double* out) {
  std::string tag = "\"" + name + "\": ";
  size_t at = line.find(tag);
  if (at == std::string::npos) {
    return false;
  }
  const char* s = line.c_str() + at + tag.size();
  char* end = nullptr;
  double v = std::strtod(s, &end);
  if (end == s) {
    return false;
  }
  *out = v;
  return true;
}

// Parses the `"config": {"knob": value, ...}` object.
bool FindConfigField(const std::string& line, topi::Config* out) {
  std::string tag = "\"config\": {";
  size_t at = line.find(tag);
  if (at == std::string::npos) {
    return false;
  }
  size_t pos = at + tag.size();
  while (pos < line.size() && line[pos] != '}') {
    size_t kb = line.find('"', pos);
    if (kb == std::string::npos) {
      return false;
    }
    size_t ke = line.find('"', kb + 1);
    if (ke == std::string::npos) {
      return false;
    }
    std::string knob = line.substr(kb + 1, ke - kb - 1);
    size_t colon = line.find(':', ke);
    if (colon == std::string::npos) {
      return false;
    }
    const char* s = line.c_str() + colon + 1;
    char* end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (end == s) {
      return false;
    }
    (*out)[knob] = static_cast<int64_t>(v);
    pos = static_cast<size_t>(end - line.c_str());
    while (pos < line.size() && (line[pos] == ',' || line[pos] == ' ')) {
      ++pos;
    }
  }
  return pos < line.size();  // saw the closing brace
}

}  // namespace

bool TuningCache::Lookup(const std::string& key, TuningCacheEntry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  if (out != nullptr) {
    *out = it->second;
  }
  return true;
}

void TuningCache::Put(TuningCacheEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[entry.key] = std::move(entry);
}

bool TuningCache::Load(const std::string& path) {
  try {
    FAILPOINT("tune.cache_load");
  } catch (const failpoint::InjectedFault&) {
    LOG(WARNING) << "tuning cache load fault injected for " << path
                 << "; falling back to untuned schedules";
    return false;
  }
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    LOG(WARNING) << "tuning cache " << path
                 << " missing or unreadable; falling back to untuned schedules";
    return false;
  }
  std::vector<std::string> lines;
  std::string line;
  int c;
  while ((c = std::fgetc(in)) != EOF) {
    if (c == '\n') {
      if (!line.empty()) {
        lines.push_back(line);
      }
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  if (!line.empty()) {
    lines.push_back(line);
  }
  std::fclose(in);

  // Exact comparison: the header is outside input, so 1.9 is not version 1.
  double version = -1;
  if (lines.empty() || !FindNumberField(lines[0], "tvmcpp_tuning_cache", &version) ||
      version != kTuningCacheVersion) {
    LOG(WARNING) << "tuning cache " << path << " has no version-"
                 << kTuningCacheVersion
                 << " header; ignoring it (untuned schedules)";
    return false;
  }
  int loaded = 0, skipped = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    TuningCacheEntry e;
    std::string hash_hex;
    double seconds = 0, trials = 0;
    FindNumberField(lines[i], "seconds", &seconds);
    FindNumberField(lines[i], "trials", &trials);
    // The stored hash must match the recomputed one: a truncated or bit-flipped
    // line fails here instead of poisoning compilation with a garbled config.
    // seconds and trials are range-checked before the int conversion below, which
    // is undefined out of range (NaN fails every comparison).
    bool ok = FindStringField(lines[i], "key", &e.key) &&
              FindStringField(lines[i], "hash", &hash_hex) &&
              FindConfigField(lines[i], &e.config) &&
              hash_hex == HexOf(TuningKeyHash(e.key)) && std::isfinite(seconds) &&
              seconds >= 0 && trials >= 0 && trials <= INT_MAX;
    if (!ok) {
      ++skipped;
      continue;
    }
    e.seconds = seconds;
    e.trials = static_cast<int>(trials);
    Put(std::move(e));
    ++loaded;
  }
  if (skipped > 0) {
    LOG(WARNING) << "tuning cache " << path << ": skipped " << skipped
                 << " corrupt entr" << (skipped == 1 ? "y" : "ies") << " (loaded "
                 << loaded << ")";
  }
  return true;
}

bool TuningCache::Save(const std::string& path) const {
  try {
    FAILPOINT("tune.cache_save");
  } catch (const failpoint::InjectedFault&) {
    LOG(WARNING) << "tuning cache save fault injected for " << path
                 << "; tuned configs not persisted";
    return false;
  }
  std::vector<TuningCacheEntry> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(entries_.size());
    for (const auto& kv : entries_) {
      entries.push_back(kv.second);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const TuningCacheEntry& a, const TuningCacheEntry& b) {
              return a.key < b.key;
            });
  std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) {
    LOG(WARNING) << "cannot write tuning cache " << tmp
                 << "; tuned configs not persisted";
    return false;
  }
  std::fprintf(out, "{\"tvmcpp_tuning_cache\": %d}\n", kTuningCacheVersion);
  for (const TuningCacheEntry& e : entries) {
    std::fprintf(out, "{\"key\": \"%s\", \"hash\": \"%s\", \"seconds\": %.9g, "
                      "\"trials\": %d, \"config\": {",
                 e.key.c_str(), HexOf(TuningKeyHash(e.key)).c_str(), e.seconds,
                 e.trials);
    bool first = true;
    for (const auto& kv : e.config) {  // std::map: sorted, deterministic output
      std::fprintf(out, "%s\"%s\": %lld", first ? "" : ", ", kv.first.c_str(),
                   static_cast<long long>(kv.second));
      first = false;
    }
    std::fprintf(out, "}}\n");
  }
  std::fclose(out);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    LOG(WARNING) << "cannot move tuning cache into place at " << path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void TuningCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t TuningCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

int64_t TuningCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t TuningCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void TuningCache::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  misses_ = 0;
}

bool ApplyCachedConfig(const topi::ConfigSpace& space, const topi::Config& cached,
                       topi::Config* out) {
  topi::Config result = topi::DefaultConfig(space);
  for (const topi::KnobSpec& knob : space.knobs) {
    auto it = cached.find(knob.name);
    if (it == cached.end()) {
      continue;  // knob added since the entry was tuned: keep the default choice
    }
    if (std::find(knob.choices.begin(), knob.choices.end(), it->second) ==
        knob.choices.end()) {
      return false;
    }
    result[knob.name] = it->second;
  }
  *out = std::move(result);
  return true;
}

TuningCache& GlobalTuningCache() {
  static TuningCache* cache = [] {
    auto* c = new TuningCache;
    if (const char* path = std::getenv("TVMCPP_TUNE_CACHE")) {
      c->Load(path);
    }
    return c;
  }();
  return *cache;
}

}  // namespace autotune
}  // namespace tvmcpp
