#include "src/codegen/native.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/support/failpoint.h"
#include "src/support/logging.h"

namespace tvmcpp {
namespace codegen {

namespace {

// Flags that pin bitwise float semantics and target the host's vector ISA (see the
// header comment).
constexpr const char* kCompileFlags =
    "-O2 -march=native -fPIC -shared -std=gnu11 -ffp-contract=off -fno-builtin";

std::atomic<int64_t> g_emits{0};
std::atomic<int64_t> g_emit_failures{0};
std::atomic<int64_t> g_compiles{0};
std::atomic<int64_t> g_mem_hits{0};
std::atomic<int64_t> g_disk_hits{0};
std::atomic<int64_t> g_compile_failures{0};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string CompilerPath() {
  const char* cc = std::getenv("TVMCPP_NATIVE_CC");
  return (cc != nullptr && *cc != '\0') ? cc : "cc";
}

// The target options `cc -march=native` resolves to on this host: gcc's expanded
// -march=/-m<feature> flags, or clang's -target-cpu and -target-feature values,
// read from the driver's dry run (`-###`, which runs no compiler pass). "unknown"
// when the driver cannot say. Probed once per compiler.
std::string HostIsa(const std::string& cc) {
  static std::mutex mu;
  static auto* cache = new std::unordered_map<std::string, std::string>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache->find(cc);
  if (it != cache->end()) {
    return it->second;
  }
  std::string isa;
  std::string cmd = cc + " -march=native -### -x c -c /dev/null -o /dev/null 2>&1";
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    std::string out;
    char buf[4096];
    for (size_t n; (n = std::fread(buf, 1, sizeof(buf), p)) > 0;) {
      out.append(buf, n);
    }
    ::pclose(p);
    std::istringstream tokens(out);
    std::string prev;
    for (std::string tok; tokens >> tok; prev = tok) {
      tok.erase(std::remove(tok.begin(), tok.end(), '"'), tok.end());
      if (tok.rfind("-m", 0) == 0 || prev == "-target-cpu" || prev == "-target-feature") {
        isa += (isa.empty() ? "" : " ") + tok;
      }
    }
  }
  if (isa.empty()) {
    isa = "unknown";
  }
  return cache->emplace(cc, isa).first->second;
}

// mkdir -p; best effort (the subsequent fopen/compile surfaces real failures).
void MakeDirs(const std::string& path) {
  std::string cur;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!cur.empty() && cur != ".") {
        ::mkdir(cur.c_str(), 0755);
      }
    }
    if (i < path.size()) {
      cur.push_back(path[i]);
    }
  }
}

// Artifact directory: TVMCPP_NATIVE_CACHE (shared across processes) or a
// per-process temp directory. Read per call so tests can repoint it.
std::string CacheDir() {
  const char* dir = std::getenv("TVMCPP_NATIVE_CACHE");
  std::string d;
  if (dir != nullptr && *dir != '\0') {
    d = dir;
  } else {
    d = "/tmp/tvmcpp-native-" + std::to_string(::getpid());
  }
  if (d.find('/') == std::string::npos) {
    d = "./" + d;  // dlopen treats slash-free paths as library search names
  }
  MakeDirs(d);
  return d;
}

bool WriteFileAtomic(const std::string& path, const std::string& content) {
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      return false;
    }
    os << content;
    if (!os) {
      return false;
    }
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::string ReadFileTail(const std::string& path, size_t max_bytes = 2000) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return "";
  }
  std::stringstream ss;
  ss << is.rdbuf();
  std::string s = ss.str();
  if (s.size() > max_bytes) {
    s = s.substr(s.size() - max_bytes);
  }
  return s;
}

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<uint64_t, std::shared_ptr<NativeModule>>& Registry() {
  static auto* registry =
      new std::unordered_map<uint64_t, std::shared_ptr<NativeModule>>();
  return *registry;
}

// dlopen + verify every expected symbol resolves (a cached .so from a partial
// write or a different build would miss some). Returns nullptr when unusable.
std::shared_ptr<NativeModule> TryOpen(const std::string& so_path,
                                      const std::vector<std::string>& symbols) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    return nullptr;
  }
  auto module = std::make_shared<NativeModule>(handle, so_path);
  for (const std::string& sym : symbols) {
    if (module->Get(sym) == nullptr) {
      return nullptr;  // stale/corrupt entry: treat as absent, recompile
    }
  }
  return module;
}

void LaunchOnPool(const ParallelLauncher* self, void (*body)(void*, int64_t, int64_t),
                  void* env, int64_t begin, int64_t end) {
  vm::ParallelFor(*self->exec, begin, end,
                  [body, env](int64_t b, int64_t e) { body(env, b, e); });
}

}  // namespace

NativeModule::NativeModule(void* handle, std::string path)
    : handle_(handle), path_(std::move(path)) {}

NativeModule::~NativeModule() {
  if (handle_ != nullptr) {
    ::dlclose(handle_);
  }
}

KernelFn NativeModule::Get(const std::string& symbol) const {
  return reinterpret_cast<KernelFn>(::dlsym(handle_, symbol.c_str()));
}

std::shared_ptr<NativeModule> CompileNativeModule(const std::vector<CSource>& srcs) {
  // Assemble one translation unit; identical kernels (content-addressed symbols)
  // dedupe here. The ISA line puts the host's vector ISA into the content hash, so a
  // cache directory shared across CPUs never hands one host another's code.
  std::string cc = CompilerPath();
  std::string full = "/* isa: " + HostIsa(cc) + " */\n" + Preamble();
  std::vector<std::string> symbols;
  std::unordered_set<std::string> seen;
  for (const CSource& s : srcs) {
    if (!s.ok) {
      continue;
    }
    if (seen.insert(s.symbol).second) {
      full += s.code;
      full += '\n';
      symbols.push_back(s.symbol);
    }
  }
  if (symbols.empty()) {
    return nullptr;
  }
  uint64_t hash = Fnv1a(full + "\n/*flags*/" + kCompileFlags + "\n/*cc*/" + cc);

  {
    std::lock_guard<std::mutex> lock(RegistryMu());
    auto it = Registry().find(hash);
    if (it != Registry().end()) {
      g_mem_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }

  std::string dir = CacheDir();
  std::string stem = dir + "/tn_" + HexU64(hash);
  std::string so_path = stem + ".so";

  struct stat st;
  if (::stat(so_path.c_str(), &st) == 0) {
    auto module = TryOpen(so_path, symbols);
    if (module != nullptr) {
      g_disk_hits.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(RegistryMu());
      Registry()[hash] = module;
      return module;
    }
    LOG(WARNING) << "native: cache entry " << so_path
                 << " is corrupt or stale; recompiling";
  }

  std::string c_path = stem + ".c";
  if (!WriteFileAtomic(c_path, full)) {
    g_compile_failures.fetch_add(1, std::memory_order_relaxed);
    LOG(WARNING) << "native: cannot write " << c_path;
    return nullptr;
  }
  std::string tmp_so = so_path + ".tmp." + std::to_string(::getpid());
  std::string err_path = stem + ".err." + std::to_string(::getpid());
  std::string cmd = cc + " " + kCompileFlags + " -o '" + tmp_so + "' '" + c_path +
                    "' -lm 2> '" + err_path + "'";
  g_compiles.fetch_add(1, std::memory_order_relaxed);
  int rc = std::system(cmd.c_str());
  std::string err = ReadFileTail(err_path);
  std::remove(err_path.c_str());
  if (rc != 0 || std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
    g_compile_failures.fetch_add(1, std::memory_order_relaxed);
    std::remove(tmp_so.c_str());
    LOG(WARNING) << "native: compile failed (rc=" << rc << ") for " << c_path << ": "
                 << err;
    return nullptr;
  }
  auto module = TryOpen(so_path, symbols);
  if (module == nullptr) {
    g_compile_failures.fetch_add(1, std::memory_order_relaxed);
    LOG(WARNING) << "native: dlopen failed for freshly built " << so_path << ": "
                 << ::dlerror();
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(RegistryMu());
  auto [it, inserted] = Registry().emplace(hash, module);
  return it->second;  // a concurrent compile may have won the race; share its module
}

std::vector<NativeKernel> CompileNativeKernels(const std::vector<const LoweredFunc*>& funcs) {
  std::vector<CSource> srcs;
  srcs.reserve(funcs.size());
  for (const LoweredFunc* f : funcs) {
    CSource s = EmitC(*f);
    g_emits.fetch_add(1, std::memory_order_relaxed);
    if (!s.ok) {
      g_emit_failures.fetch_add(1, std::memory_order_relaxed);
      LOG(WARNING) << "native: cannot emit " << f->name << ": " << s.error;
    }
    srcs.push_back(std::move(s));
  }
  std::vector<NativeKernel> kernels(funcs.size());
  auto module = CompileNativeModule(srcs);
  if (module == nullptr) {
    return kernels;
  }
  for (size_t i = 0; i < srcs.size(); ++i) {
    if (srcs[i].ok) {
      kernels[i] = NativeKernel{module, module->Get(srcs[i].symbol)};
    }
  }
  return kernels;
}

NativeKernel CompileNativeKernel(const LoweredFunc& func) {
  return CompileNativeKernels({&func})[0];
}

void RunNativeKernel(const NativeKernel& kernel, const std::vector<BufferBinding>& args,
                     const vm::ExecOptions& exec) {
  CHECK(kernel.fn != nullptr) << "RunNativeKernel on an empty kernel";
  // Throwing fail-point mirroring "vm.run": an injected error surfaces as a
  // per-run fault feeding the serving layer's retry/fallback ladder.
  FAILPOINT("native.run");
  std::vector<void*> ptrs;
  ptrs.reserve(args.size());
  for (const BufferBinding& a : args) {
    ptrs.push_back(a.data);
  }
  const ParallelLauncher par{LaunchOnPool, &exec};
  kernel.fn(ptrs.data(), &par);
}

NativeStats GetNativeStats() {
  NativeStats s;
  s.emits = g_emits.load(std::memory_order_relaxed);
  s.emit_failures = g_emit_failures.load(std::memory_order_relaxed);
  s.compiles = g_compiles.load(std::memory_order_relaxed);
  s.mem_hits = g_mem_hits.load(std::memory_order_relaxed);
  s.disk_hits = g_disk_hits.load(std::memory_order_relaxed);
  s.compile_failures = g_compile_failures.load(std::memory_order_relaxed);
  return s;
}

void ResetNativeStats() {
  g_emits.store(0, std::memory_order_relaxed);
  g_emit_failures.store(0, std::memory_order_relaxed);
  g_compiles.store(0, std::memory_order_relaxed);
  g_mem_hits.store(0, std::memory_order_relaxed);
  g_disk_hits.store(0, std::memory_order_relaxed);
  g_compile_failures.store(0, std::memory_order_relaxed);
}

void ClearNativeModuleRegistryForTesting() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  Registry().clear();
}

}  // namespace codegen
}  // namespace tvmcpp
