// Persistence primitives: the clwb/sfence/non-temporal-store model.
//
// On real Optane the library persists with cache-line write-back (clwb)
// followed by sfence, and bypasses the cache for bulk data with non-temporal
// stores (§4.3 "Data operations").  On the emulated device the stores are
// plain memory writes; what we reproduce is the *ordering discipline* and its
// observability:
//
//   * every primitive updates global counters (lines flushed, fences, bytes
//     streamed) so tests can assert that code paths issue the right barriers
//     in the right order, and
//   * a monotonically increasing "persist epoch" lets tests verify claims
//     like "data is persisted before the metadata size update" (the epoch of
//     the data flush must be <= the epoch of the following fence).
//
// The functions compile down to a few relaxed atomic increments plus, on
// x86-64, a real sfence/clwb when SIMURGH_REAL_PERSIST is defined (useful
// when running on genuine pmem).
//
// Wall-clock Optane timing model (opt-in, SIMURGH_NVMM_OPTANE=1): with the
// counters alone a fence costs nothing, so any benchmark contrasting
// synchronous persistence against DRAM staging (bench_writebehind,
// bench_data_path) would measure only bookkeeping overheads.  When enabled,
// fence() busy-waits out the WPQ drain it models: a base media-write latency
// plus the bytes flushed/streamed by this thread since its last fence, at
// media write bandwidth.  The anchors are the same ones the virtual-time
// cost model uses (baselines/costs.h): 500 cycles @ 2.5 GHz = 200 ns write
// latency, 4.8 B/cycle = 12 GB/s random-4KB write bandwidth.  The model
// charges at the fence (where an sfence actually stalls); the emulated
// store itself still runs at DRAM speed, so small-transfer costs are
// approximated from above.
// Pending bytes are tracked per thread: an sfence orders the issuing
// thread's stores, and per-thread accounting keeps the primitives free of
// shared-state contention.  The environment is read once, at the first
// persist-primitive call in the process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace simurgh::nvmm {

constexpr std::size_t kCacheLine = 64;

struct PersistStats {
  std::atomic<std::uint64_t> flushed_lines{0};
  std::atomic<std::uint64_t> fences{0};
  std::atomic<std::uint64_t> nt_bytes{0};
  std::atomic<std::uint64_t> epoch{1};

  void reset() noexcept {
    flushed_lines.store(0, std::memory_order_relaxed);
    fences.store(0, std::memory_order_relaxed);
    nt_bytes.store(0, std::memory_order_relaxed);
    epoch.store(1, std::memory_order_relaxed);
  }
};

PersistStats& persist_stats() noexcept;

// Whether the SIMURGH_NVMM_OPTANE wall-clock timing model is active (the
// env var is read once).  Device uses this to prefault its mapping: a real
// NVMM region is DAX-mapped with no demand paging, so when modeling media
// timing the emulation must not interleave page-fault noise into it.
[[nodiscard]] bool timing_model_enabled() noexcept;

// Observer for the persistence primitives (crash-image testing, shadow
// tracing).  At most one tracer is installed process-wide; the callbacks run
// on the thread issuing the primitive, *after* the primitive's own effect.
// Implementations must not call back into persist()/fence() (re-entrancy).
class StoreTracer {
 public:
  // [p, p+len) was written back (the bytes at p are the flushed values).
  virtual void on_persist(const void* p, std::size_t len) = 0;
  // [dst, dst+len) was written with non-temporal stores (durable only after
  // the next fence, same as a flushed-but-unfenced line).
  virtual void on_nt_store(const void* dst, std::size_t len) = 0;
  // A store fence retired: every previously flushed/streamed line is now
  // durable.  `epoch` is the epoch the fence closed.
  virtual void on_fence(std::uint64_t epoch) = 0;

 protected:
  ~StoreTracer() = default;
};

// Installs/clears the process-wide tracer (nullptr to clear).  Returns the
// previous tracer.  Tracing is strictly opt-in: with no tracer installed the
// primitives pay exactly one relaxed pointer load.
StoreTracer* set_store_tracer(StoreTracer* t) noexcept;
StoreTracer* store_tracer() noexcept;

// Write back the cache lines covering [p, p+len).  Returns the epoch at
// which the flush was issued.
std::uint64_t persist(const void* p, std::size_t len) noexcept;

// Store fence ordering all prior flushes/non-temporal stores.  Bumps the
// persist epoch: stores issued before a fence belong to earlier epochs.
std::uint64_t fence() noexcept;

// Non-temporal (cache-bypassing) copy of `len` bytes; the paper uses this
// for file data so writes do not pollute the CPU cache.  Durable only after
// the next fence().
void nt_copy(void* dst, const void* src, std::size_t len) noexcept;

// Convenience: store a trivially copyable value and persist it.
template <typename T>
void persist_obj(const T& obj) noexcept {
  persist(&obj, sizeof(T));
}

// Store + flush + fence: the "persist immediately" idiom for small metadata.
template <typename T>
void persist_now(const T& obj) noexcept {
  persist(&obj, sizeof(T));
  fence();
}

}  // namespace simurgh::nvmm
