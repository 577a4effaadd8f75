// The traced run's instrumentation, all of it outside the file system.
//
// Spans: one root span per workload op (named by the op, tagged with its
// class), one child span per Process call the op makes, and one span per
// direct layer probe the benchmark issues before the op (PathWalker
// resolve / resolve_parent, MetaService kNoop).  Spans stay in memory, up to
// a cap, and are written out when the run ends.
//
// Counters: each component's own counters are snapshotted at root-span
// boundaries, so their deltas land on the op's class.  Persist primitives
// are attributed per thread through an nvmm::StoreTracer: flushes, fences
// and streamed bytes issued by the client thread go to the op's class, those
// of the file system's own threads (write-behind persister, service-ring
// server) to a background total.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "nvmm/persist.h"

namespace perfbench {

// The Optane timing model's default anchors (nvmm/persist.h), used to turn
// counted persists into an accounted media time.
constexpr double kFenceNs = 200.0;
constexpr double kMediaBytesPerNs = 12.0;

struct PersistCounts {
  std::uint64_t fences = 0;
  std::uint64_t lines = 0;
  std::uint64_t nt_bytes = 0;

  [[nodiscard]] std::uint64_t media_bytes() const {
    return lines * nvmm::kCacheLine + nt_bytes;
  }
  [[nodiscard]] double model_ns() const {
    return static_cast<double>(fences) * kFenceNs +
           static_cast<double>(media_bytes()) / kMediaBytesPerNs;
  }
};

class Tracer {
 public:
  // Sums over the ops of one class.
  struct ClassAgg {
    std::uint64_t ops = 0;
    std::uint64_t ns = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    PersistCounts persist;  // client thread only
    std::uint64_t ext_hits = 0, ext_misses = 0, ext_fills = 0;
    std::uint64_t dir_probes = 0, dir_scoped = 0, dir_full = 0;
    std::uint64_t alloc_grants = 0, slot_probes = 0;
    std::uint64_t ring_requests = 0;
    std::uint64_t path_probe_ns = 0;  // probes issued for ops of the class
  };

  struct ProbeAgg {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
    std::uint64_t pc_hits = 0, pc_lookups = 0;  // PathCache
    std::uint64_t lc_hits = 0, lc_lookups = 0;  // component LookupCache
    std::uint64_t conflicts = 0;                // both layers
  };

  // `fs` is the measured mount; `owner` the service-mode owner (its served
  // count is the client's ring-request count) or null.
  Tracer(core::FileSystem& fs, core::FileSystem* owner, std::size_t span_cap);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // ---- direct layer probes (before the op, outside its root span) ----
  // A probe that repeats a walk the op makes counts toward the op class's
  // explained time; `part_of_op` false only samples the layer.
  void probe_resolve(const core::Credentials& cred, std::string_view path,
                     OpClass cls);
  void probe_resolve_parent(const core::Credentials& cred,
                            std::string_view path, OpClass cls,
                            bool part_of_op = true);
  void probe_noop(const core::Credentials& cred);

  // ---- root spans ----
  void op_begin();
  void op_end(const char* name, const Op& op, Clock::time_point t0,
              Clock::time_point t1);
  void child(const char* name, Clock::time_point t0, Clock::time_point t1);
  // Counts an fsync the client issued (wb.fsyncs_absorbed_per_fsync).
  void note_fsync() { ++fsyncs_; }

  // Stops attributing persists; called when the traced phase ends.
  void finish();
  // One line per span: op, parent, kind, name, class, start_ns, end_ns.
  bool write_spans(const std::string& path) const;

  [[nodiscard]] const ClassAgg& cls(int c) const { return agg_[c]; }
  [[nodiscard]] const ProbeAgg& resolve_probes() const { return resolve_; }
  [[nodiscard]] const ProbeAgg& parent_probes() const { return parent_; }
  [[nodiscard]] const std::vector<std::uint64_t>& noop_ns() const {
    return noop_ns_;
  }
  [[nodiscard]] PersistCounts background() const;
  [[nodiscard]] std::uint64_t fsyncs() const { return fsyncs_; }
  [[nodiscard]] std::uint64_t wb_absorbed() const { return wb_.absorbed; }
  [[nodiscard]] std::uint64_t wb_commits() const { return wb_.commits; }
  [[nodiscard]] std::uint64_t wb_drained() const { return wb_.drained; }
  [[nodiscard]] std::uint64_t wb_staged_peak() const { return wb_peak_; }
  [[nodiscard]] std::uint64_t wb_backpressure() const {
    return wb_.backpressure;
  }
  [[nodiscard]] std::uint64_t obj_cas_retries() const { return cas_retries_; }
  [[nodiscard]] std::uint64_t obj_stripe_steals() const {
    return stripe_steals_;
  }
  [[nodiscard]] std::uint64_t dir_splits() const { return dir_splits_; }
  [[nodiscard]] std::uint64_t lock_fallback_hits() const { return lock_fb_; }
  [[nodiscard]] std::uint64_t lock_lease_steals() const {
    return lock_steals_;
  }
  [[nodiscard]] std::size_t spans_dropped() const { return dropped_; }

 private:
  struct Span {
    std::uint32_t op = 0;
    std::uint8_t kind = 0;  // 0 root, 1 Process call, 2 layer probe
    std::uint8_t cls = 0;
    std::uint16_t name = 0;
    std::uint64_t t0 = 0, t1 = 0;  // ns since the tracer started
  };
  struct Snap {
    PersistCounts persist;
    core::ExtentCacheStats ext;
    core::DirOps::Stats dir;
    std::uint64_t alloc_grants = 0, slot_probes = 0;
    std::uint64_t cas_retries = 0, stripe_steals = 0;
    std::uint64_t served = 0;
    std::uint64_t lock_fb = 0, lock_steals = 0;
    std::uint64_t absorbed = 0, commits = 0, drained = 0, staged = 0,
                  backpressure = 0;
  };
  struct WbTotals {
    std::uint64_t absorbed = 0, commits = 0, drained = 0, backpressure = 0;
  };

  Snap snap();
  void record(std::uint8_t kind, std::uint8_t cls, const char* name,
              Clock::time_point t0, Clock::time_point t1);
  std::uint16_t name_id(const char* name);
  void probe_walk(bool parent, const core::Credentials& cred,
                  std::string_view path, OpClass cls, bool part_of_op);

  core::FileSystem& fs_;
  core::FileSystem* owner_;
  Clock::time_point origin_;
  std::size_t span_cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::vector<const char*> names_;
  std::uint32_t op_id_ = 1;  // the op the next probes and calls belong to
  Snap before_;

  ClassAgg agg_[kClasses];
  ProbeAgg resolve_, parent_;
  std::vector<std::uint64_t> noop_ns_;
  std::uint64_t fsyncs_ = 0;
  WbTotals wb_;
  std::uint64_t wb_peak_ = 0;
  std::uint64_t cas_retries_ = 0, stripe_steals_ = 0, dir_splits_ = 0;
  std::uint64_t lock_fb_ = 0, lock_steals_ = 0;
  bool installed_ = false;
};

// The timed part of one op: construction snapshots the counters (when
// tracing) and starts the clock; end() stops it, sets op.ns and books the
// root span.  Everything after end() — checking results — is untimed.
class OpScope {
 public:
  OpScope(Tracer* tr, const char* name, Op& op)
      : tr_(tr), name_(name), op_(op) {
    if (tr_ != nullptr) tr_->op_begin();
    t0_ = Clock::now();
  }
  // `untimed_ns`: time inside the span spent on the benchmark's own
  // payload work (kv's adapter), left out of the op's latency.
  void end(std::uint64_t untimed_ns = 0) {
    const Clock::time_point t1 = Clock::now();
    const std::uint64_t ns = ns_between(t0_, t1);
    op_.ns = ns > untimed_ns ? ns - untimed_ns : 0;
    if (tr_ != nullptr) tr_->op_end(name_, op_, t0_, t1);
  }

 private:
  Tracer* tr_;
  const char* name_;
  Op& op_;
  Clock::time_point t0_;
};

// Times `f` (one Process call) as a child span of the current op when
// tracing; a plain call otherwise.
template <typename F>
inline auto traced(Tracer* tr, const char* name, F&& f) -> decltype(f()) {
  if (tr == nullptr) return f();
  const Clock::time_point t0 = Clock::now();
  auto r = f();
  tr->child(name, t0, Clock::now());
  return r;
}

}  // namespace perfbench
