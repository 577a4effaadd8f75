#include "nvmm/persist.h"

#include <chrono>
#include <cstdlib>
#include <string_view>

namespace simurgh::nvmm {

PersistStats& persist_stats() noexcept {
  static PersistStats stats;
  return stats;
}

namespace {
std::atomic<StoreTracer*> g_tracer{nullptr};

// Opt-in Optane wall-clock model (persist.h header comment).
constexpr double kFenceBaseNs = 200.0;     // costs.h nvmm_write_lat @ 2.5 GHz
constexpr double kNsPerByte = 1.0 / 12.0;  // costs.h nvmm_write_bpc: ~12 GB/s

// Bytes this thread has flushed or streamed since its last fence — the
// modeled write-pending-queue contents the next sfence must drain.
thread_local std::uint64_t t_pending_bytes = 0;

void spin_ns(double ns) noexcept {
  using Clock = std::chrono::steady_clock;
  const auto until =
      Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
  while (Clock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}
}  // namespace

// Read from the environment once; stays false unless SIMURGH_NVMM_OPTANE is
// set to something other than "0", so the default-path cost is one
// predictable branch per primitive.
bool timing_model_enabled() noexcept {
  static const bool on = [] {
    // pmlint: allow(env-read) benches set the model before the first persist
    const char* s = std::getenv("SIMURGH_NVMM_OPTANE");
    return s != nullptr && std::string_view(s) != "0";
  }();
  return on;
}

StoreTracer* set_store_tracer(StoreTracer* t) noexcept {
  return g_tracer.exchange(t, std::memory_order_acq_rel);
}

StoreTracer* store_tracer() noexcept {
  return g_tracer.load(std::memory_order_acquire);
}

std::uint64_t persist(const void* p, std::size_t len) noexcept {
  auto& s = persist_stats();
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = addr / kCacheLine;
  const std::uintptr_t last = (addr + (len == 0 ? 0 : len - 1)) / kCacheLine;
  s.flushed_lines.fetch_add(last - first + 1, std::memory_order_relaxed);
  if (timing_model_enabled()) [[unlikely]]
    t_pending_bytes += (last - first + 1) * kCacheLine;
#ifdef SIMURGH_REAL_PERSIST
  for (std::uintptr_t line = first; line <= last; ++line)
    __builtin_ia32_clflushopt(reinterpret_cast<void*>(line * kCacheLine));
#endif
  // Compiler barrier: model that the flushed stores cannot be reordered
  // past subsequent persistence-ordering points.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (StoreTracer* t = g_tracer.load(std::memory_order_relaxed)) [[unlikely]]
    t->on_persist(p, len);
  return s.epoch.load(std::memory_order_relaxed);
}

std::uint64_t fence() noexcept {
  auto& s = persist_stats();
  s.fences.fetch_add(1, std::memory_order_relaxed);
  if (timing_model_enabled()) [[unlikely]] {
    spin_ns(kFenceBaseNs + static_cast<double>(t_pending_bytes) * kNsPerByte);
    t_pending_bytes = 0;
  }
#ifdef SIMURGH_REAL_PERSIST
  __builtin_ia32_sfence();
#endif
  std::atomic_thread_fence(std::memory_order_release);
  const std::uint64_t e = s.epoch.fetch_add(1, std::memory_order_acq_rel);
  if (StoreTracer* t = g_tracer.load(std::memory_order_relaxed)) [[unlikely]]
    t->on_fence(e);
  return e;
}

void nt_copy(void* dst, const void* src, std::size_t len) noexcept {
  std::memcpy(dst, src, len);
  persist_stats().nt_bytes.fetch_add(len, std::memory_order_relaxed);
  if (timing_model_enabled()) [[unlikely]]
    t_pending_bytes += len;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (StoreTracer* t = g_tracer.load(std::memory_order_relaxed)) [[unlikely]]
    t->on_nt_store(dst, len);
}

}  // namespace simurgh::nvmm
