#include "trace.h"

#include <cstdio>

#include "core/svc_ring.h"
#include "core/write_behind.h"

namespace perfbench {

namespace {

// Per-thread attribution of the persist primitives.  The tracing thread
// (the client) counts into plain thread-local fields; every other thread
// into shared relaxed atomics.
thread_local bool t_client = false;
thread_local PersistCounts t_client_counts;

class PersistAttribution final : public nvmm::StoreTracer {
 public:
  void on_persist(const void* p, std::size_t len) override {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const std::uint64_t lines =
        (a + (len == 0 ? 0 : len - 1)) / nvmm::kCacheLine -
        a / nvmm::kCacheLine + 1;
    if (t_client)
      t_client_counts.lines += lines;
    else
      bg_lines.fetch_add(lines, std::memory_order_relaxed);
  }
  void on_nt_store(const void*, std::size_t len) override {
    if (t_client)
      t_client_counts.nt_bytes += len;
    else
      bg_nt.fetch_add(len, std::memory_order_relaxed);
  }
  void on_fence(std::uint64_t) override {
    if (t_client)
      ++t_client_counts.fences;
    else
      bg_fences.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> bg_lines{0}, bg_nt{0}, bg_fences{0};
};

PersistAttribution& attribution() {
  static PersistAttribution a;
  return a;
}

}  // namespace

Tracer::Tracer(core::FileSystem& fs, core::FileSystem* owner,
               std::size_t span_cap)
    : fs_(fs), owner_(owner), origin_(Clock::now()), span_cap_(span_cap) {
  spans_.reserve(span_cap_);
  PersistAttribution& a = attribution();
  a.bg_lines.store(0, std::memory_order_relaxed);
  a.bg_nt.store(0, std::memory_order_relaxed);
  a.bg_fences.store(0, std::memory_order_relaxed);
  t_client = true;
  t_client_counts = {};
  nvmm::set_store_tracer(&a);
  installed_ = true;
  before_ = snap();
  dir_splits_ = before_.dir.splits;
  cas_retries_ = before_.cas_retries;
  stripe_steals_ = before_.stripe_steals;
  lock_fb_ = before_.lock_fb;
  lock_steals_ = before_.lock_steals;
}

Tracer::~Tracer() { finish(); }

void Tracer::finish() {
  if (!installed_) return;
  nvmm::set_store_tracer(nullptr);
  t_client = false;
  installed_ = false;
  const Snap end = snap();
  dir_splits_ = end.dir.splits - dir_splits_;
  cas_retries_ = end.cas_retries - cas_retries_;
  stripe_steals_ = end.stripe_steals - stripe_steals_;
  lock_fb_ = end.lock_fb - lock_fb_;
  lock_steals_ = end.lock_steals - lock_steals_;
}

PersistCounts Tracer::background() const {
  const PersistAttribution& a = attribution();
  PersistCounts c;
  c.fences = a.bg_fences.load(std::memory_order_relaxed);
  c.lines = a.bg_lines.load(std::memory_order_relaxed);
  c.nt_bytes = a.bg_nt.load(std::memory_order_relaxed);
  return c;
}

Tracer::Snap Tracer::snap() {
  Snap s;
  s.persist = t_client_counts;
  s.ext = fs_.extent_cache().stats();
  s.dir = fs_.dirops().stats();
  auto& bs = fs_.blocks().stats();
  s.alloc_grants = bs.allocs.load(std::memory_order_relaxed);
  s.slot_probes = bs.reserve_slot_probes.load(std::memory_order_relaxed);
  for (unsigned p = 0; p < core::kNumPools; ++p) {
    auto& os = fs_.pool(static_cast<core::PoolId>(p)).stats();
    s.cas_retries += os.claim_cas_retries.load(std::memory_order_relaxed);
    s.stripe_steals += os.stripe_steals.load(std::memory_order_relaxed);
  }
  if (owner_ != nullptr && owner_->meta_service() != nullptr)
    s.served = owner_->meta_service()->served();
  auto& ls = fs_.file_locks().stats();
  s.lock_fb = ls.fallback_hits.load(std::memory_order_relaxed);
  s.lock_steals = ls.lease_steals.load(std::memory_order_relaxed);
  if (core::WriteBehind* wb = fs_.write_behind()) {
    const core::WriteBehind::Counters c = wb->counters();
    s.absorbed = c.fsyncs_absorbed;
    s.commits = c.group_commits;
    s.drained = c.drained_bytes;
    s.staged = c.staged_bytes;
    s.backpressure = c.backpressure_hits;
  }
  return s;
}

std::uint16_t Tracer::name_id(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint16_t>(i);
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

void Tracer::record(std::uint8_t kind, std::uint8_t cls, const char* name,
                    Clock::time_point t0, Clock::time_point t1) {
  if (spans_.size() >= span_cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{op_id_, kind, cls, name_id(name),
                        ns_between(origin_, t0), ns_between(origin_, t1)});
}

void Tracer::probe_walk(bool parent, const core::Credentials& cred,
                        std::string_view path, OpClass cls,
                        bool part_of_op) {
  const core::LookupCacheStats pc0 = fs_.path_cache().stats();
  const core::LookupCacheStats lc0 = fs_.lookup_cache().stats();
  const Clock::time_point t0 = Clock::now();
  auto r = parent ? fs_.walker().resolve_parent(cred, path)
                  : fs_.walker().resolve(cred, path);
  const Clock::time_point t1 = Clock::now();
  (void)r;  // the op that follows reports (and checks) the outcome
  const core::LookupCacheStats pc1 = fs_.path_cache().stats();
  const core::LookupCacheStats lc1 = fs_.lookup_cache().stats();
  ProbeAgg& a = parent ? parent_ : resolve_;
  const std::uint64_t ns = ns_between(t0, t1);
  ++a.calls;
  a.ns += ns;
  a.pc_hits += pc1.hits - pc0.hits;
  a.pc_lookups += (pc1.hits + pc1.misses + pc1.conflicts) -
                  (pc0.hits + pc0.misses + pc0.conflicts);
  a.lc_hits += lc1.hits - lc0.hits;
  a.lc_lookups += (lc1.hits + lc1.misses + lc1.conflicts) -
                  (lc0.hits + lc0.misses + lc0.conflicts);
  a.conflicts +=
      (pc1.conflicts - pc0.conflicts) + (lc1.conflicts - lc0.conflicts);
  if (part_of_op) agg_[static_cast<int>(cls)].path_probe_ns += ns;
  record(2, static_cast<std::uint8_t>(cls),
         parent ? "probe.resolve_parent" : "probe.resolve", t0, t1);
}

void Tracer::probe_resolve(const core::Credentials& cred,
                           std::string_view path, OpClass cls) {
  probe_walk(false, cred, path, cls, true);
}

void Tracer::probe_resolve_parent(const core::Credentials& cred,
                                  std::string_view path, OpClass cls,
                                  bool part_of_op) {
  probe_walk(true, cred, path, cls, part_of_op);
}

void Tracer::probe_noop(const core::Credentials& cred) {
  core::MetaService* ms = fs_.meta_service();
  if (ms == nullptr) return;
  const Clock::time_point t0 = Clock::now();
  const simurgh::Status st = ms->request(core::SvcOp::kNoop, cred, {}, {}, 0, 0);
  const Clock::time_point t1 = Clock::now();
  if (!st.is_ok()) return;
  noop_ns_.push_back(ns_between(t0, t1));
  record(2, 0, "probe.svc_noop", t0, t1);
}

void Tracer::op_begin() { before_ = snap(); }

void Tracer::op_end(const char* name, const Op& op, Clock::time_point t0,
                    Clock::time_point t1) {
  const Snap s = snap();
  const Snap& b = before_;
  ClassAgg& a = agg_[static_cast<int>(op.cls)];
  ++a.ops;
  a.ns += op.ns;
  a.bytes_read += op.bytes_read;
  a.bytes_written += op.bytes_written;
  a.persist.fences += s.persist.fences - b.persist.fences;
  a.persist.lines += s.persist.lines - b.persist.lines;
  a.persist.nt_bytes += s.persist.nt_bytes - b.persist.nt_bytes;
  a.ext_hits += s.ext.hits - b.ext.hits;
  a.ext_misses += s.ext.misses - b.ext.misses;
  a.ext_fills += s.ext.fills - b.ext.fills;
  a.dir_probes += s.dir.block_probes - b.dir.block_probes;
  a.dir_scoped += s.dir.epoch_bumps_scoped - b.dir.epoch_bumps_scoped;
  a.dir_full += s.dir.epoch_bumps_full - b.dir.epoch_bumps_full;
  a.alloc_grants += s.alloc_grants - b.alloc_grants;
  a.slot_probes += s.slot_probes - b.slot_probes;
  a.ring_requests += s.served - b.served;
  wb_.absorbed += s.absorbed - b.absorbed;
  wb_.commits += s.commits - b.commits;
  wb_.drained += s.drained - b.drained;
  wb_.backpressure += s.backpressure - b.backpressure;
  if (s.staged > wb_peak_) wb_peak_ = s.staged;
  record(0, static_cast<std::uint8_t>(op.cls), name, t0, t1);
  ++op_id_;
}

void Tracer::child(const char* name, Clock::time_point t0,
                   Clock::time_point t1) {
  record(1, 0, name, t0, t1);
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "op\tparent\tkind\tname\tclass\tstart_ns\tend_ns\n");
  static constexpr const char* kKinds[] = {"op", "call", "probe"};
  for (const Span& s : spans_) {
    const bool root = s.kind == 0;
    std::fprintf(f, "%u\t%s\t%s\t%s\t%s\t%llu\t%llu\n", s.op,
                 root ? "-" : "root", kKinds[s.kind], names_[s.name],
                 root ? kClassNames[s.cls] : "-",
                 static_cast<unsigned long long>(s.t0),
                 static_cast<unsigned long long>(s.t1));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
