#include "runner.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/check.h"
#include "core/svc_ring.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::size_t kSpanCap = 1 << 18;  // ~6 MB of spans in memory
constexpr int kCtorProbes = 200;
constexpr int kNoopProbes = 2000;
// A timed run sets up this many times and reports the median as setup_s;
// a traced or tiny run sets up once.
constexpr int kSetupReps = 3;
// The end-to-end statistics cover the whole measured phase.  It is also
// cut into this many equal windows whose ops/s and p50s are printed as
// detail lines, so a slow episode of the host stays visible.
constexpr int kWindows = 10;
// recover() is timed this many times, spaced out so the calls sample
// several host episodes; recovery_s is their mean.  The host switches
// between a fast and a slow state every second or so, and a median over a
// few seconds flips between the two levels where the mean moves with the
// share of slow calls.
constexpr int kRecoveryReps = 21;
constexpr auto kRecoveryGap = std::chrono::milliseconds(200);

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

bool service_mode(const RunConfig& c) { return c.workload == "smallfile_svc"; }

std::unique_ptr<Workload> make(const RunConfig& c) {
  if (c.workload == "smallfile" || service_mode(c))
    return make_smallfile(c.seed, c.tiny, service_mode(c));
  if (c.workload == "bigfile") return make_bigfile(c.seed, c.tiny);
  if (c.workload == "kv") return make_kv(c.seed, c.tiny);
  return nullptr;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Op& op) {
    ++attempted;
    if (!op.ok) ++failed;
  }
};

// One window's latency samples (ns, saturating at ~4.3 s) per op class.
struct Window {
  std::vector<std::uint32_t> ns[kClasses];
  double seconds = 0;
  void add(const Op& op) {
    ns[static_cast<int>(op.cls)].push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(op.ns, UINT32_MAX)));
  }
  [[nodiscard]] std::size_t ops() const {
    std::size_t n = 0;
    for (const auto& v : ns) n += v.size();
    return n;
  }
};

// Nearest-rank percentile; reorders `v`.
double percentile_us(std::vector<std::uint32_t>& v, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx] / 1e3;
}

struct Phase {
  std::uint64_t ops = 0;
  double seconds = 0;
  [[nodiscard]] double ops_per_s() const { return ratio(ops, seconds); }
};

// Closed loop: one client thread issues the next op when the last returns.
// Each op's latency goes to the window its completion falls in.
Phase run_phase(Workload& w, double seconds, Tracer* tr, Tally& tally,
                std::vector<Window>* windows) {
  const Clock::time_point t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  if (windows != nullptr) windows->assign(kWindows, Window{});
  Phase ph;
  for (;;) {
    const Op op = w.step(tr);
    tally.add(op);
    ++ph.ops;
    const Clock::time_point now = Clock::now();
    const double elapsed = seconds_between(t0, now);
    if (windows != nullptr)
      (*windows)[std::min(kWindows - 1,
                          static_cast<int>(elapsed / seconds * kWindows))]
          .add(op);
    if (now >= deadline) {
      ph.seconds = elapsed;
      if (windows != nullptr) {
        for (Window& win : *windows) win.seconds = seconds / kWindows;
        windows->back().seconds += elapsed - seconds;
      }
      return ph;
    }
  }
}

// Fixed thread placement, so it does not vary from run to run: the client
// thread gets the first allowed CPU and the file system's threads, which
// inherit the mask of the thread that starts them, get the last one.
//
// A service-mode world is the exception: all of its threads share the
// client's CPU.  Its ring server polls without sleeping, so on a CPU of
// its own it keeps two CPUs busy, and a shared host often grants this
// machine about one CPU of throughput in all (the ALU probe's N-thread
// time then reads about N times its 1-thread time).  The two busy CPUs then
// took turns at the host's whim, and every latency of the run moved with
// it.  On the client's CPU the server runs whenever the client yields, as
// it does while it waits for a reply.
//
// Call world_cpus() before building a world and client_cpu() before
// issuing load.  No-ops with a single allowed CPU.
class Placement {
 public:
  Placement() {
    ok_ = ::sched_getaffinity(0, sizeof all_, &all_) == 0 &&
          CPU_COUNT(&all_) > 1;
    if (!ok_) return;
    CPU_ZERO(&client_);
    CPU_ZERO(&rest_);
    int first = -1, last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &all_)) continue;
      if (first < 0) first = c;
      last = c;
    }
    CPU_SET(first, &client_);
    CPU_SET(last, &rest_);
  }
  ~Placement() {
    if (ok_) ::sched_setaffinity(0, sizeof all_, &all_);
  }
  Placement(const Placement&) = delete;
  Placement& operator=(const Placement&) = delete;

  void world_cpus(bool service) const {
    const cpu_set_t& set = service ? client_ : rest_;
    if (ok_) ::sched_setaffinity(0, sizeof set, &set);
  }
  void client_cpu() const {
    if (ok_) ::sched_setaffinity(0, sizeof client_, &client_);
  }

 private:
  bool ok_ = false;
  cpu_set_t all_{}, client_{}, rest_{};
};

// Ring round trip on a throwaway owner/client pair, for workloads whose
// own mount has no ring.
double side_noop_trip_us(const Placement& placement) {
  placement.world_cpus(/*service=*/true);
  World sw(std::size_t{128} << 20, /*service=*/true);
  placement.client_cpu();
  core::MetaService* ms = sw.client->meta_service();
  std::vector<double> us;
  for (int i = 0; i < kNoopProbes; ++i) {
    const Clock::time_point t0 = Clock::now();
    const simurgh::Status st =
        ms->request(core::SvcOp::kNoop, sw.proc->cred(), {}, {}, 0, 0);
    const Clock::time_point t1 = Clock::now();
    if (st.is_ok()) us.push_back(ns_between(t0, t1) / 1e3);
  }
  return median(us);
}

// What MetaService::dispatch builds per request: a Process.
double process_ctor_us(core::FileSystem& fs) {
  std::vector<double> us;
  for (int i = 0; i < kCtorProbes; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto p = fs.open_process(kUid, kGid);
    p.reset();
    us.push_back(ns_between(t0, Clock::now()) / 1e3);
  }
  return median(us);
}

struct TracedExtras {
  Phase phase;
  std::uint64_t flushes = 0, compactions = 0;
  double ctor_us = 0;
  double noop_us = 0;
  std::uint64_t local_fastpath = 0;
  std::uint64_t shard_invalidations = 0;
};

void add(RunReport& r, std::string name, double value, std::string unit) {
  r.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void append_num(std::string& s, double v) {
  char num[24];
  std::snprintf(num, sizeof num, " %.4g", v);
  s += num;
}

void end_to_end_metrics(RunReport& r, const std::vector<double>& setup_s,
                        const Phase& measured,
                        const std::vector<Window>& windows, double recovery_s,
                        double space_amp) {
  add(r, "setup_s", median(setup_s), "s");
  add(r, "ops_per_s", measured.ops_per_s(), "ops/s");
  std::string rates = "ops_per_s per window:";
  for (const Window& w : windows) append_num(rates, ratio(w.ops(), w.seconds));
  r.notes.push_back(rates);
  // p50 over every sample of the run; p99 where at least ten samples lie
  // beyond it.
  auto pcts = [&](const std::string& prefix, int cls) {
    std::vector<std::uint32_t> all, win;
    std::string per = prefix + "_p50_us per window:";
    for (const Window& w : windows) {
      win.clear();
      for (int c = 0; c < kClasses; ++c)
        if (cls < 0 || c == cls)
          win.insert(win.end(), w.ns[c].begin(), w.ns[c].end());
      if (win.empty()) continue;
      all.insert(all.end(), win.begin(), win.end());
      append_num(per, percentile_us(win, 0.50));
    }
    if (all.empty()) {
      r.notes.push_back(prefix + ": no samples");
      return;
    }
    add(r, prefix + "_p50_us", percentile_us(all, 0.50), "us");
    r.notes.push_back(per);
    char line[200];
    if (const std::size_t beyond = all.size() / 100; beyond >= 10) {
      const double v = percentile_us(all, 0.99);
      add(r, prefix + "_p99_us", v, "us");
      std::snprintf(line, sizeof line,
                    "%s_p99_us = %.3f us: n=%zu, %zu beyond", prefix.c_str(),
                    v, all.size(), beyond);
    } else {
      std::snprintf(line, sizeof line,
                    "%s_p99_us omitted: fewer than 10 samples beyond it "
                    "(n=%zu)",
                    prefix.c_str(), all.size());
    }
    r.notes.push_back(line);
  };
  pcts("op", -1);
  for (int c = 0; c < kClasses; ++c) pcts(kClassNames[c], c);
  add(r, "recovery_s", recovery_s, "s");
  add(r, "space_amp", space_amp, "ratio");
}

void per_layer_metrics(RunReport& r, const Tracer& tr, const TracedExtras& x,
                       const Phase& untraced,
                       const core::RecoveryReport& rec,
                       std::uint64_t check_errors) {
  std::uint64_t ops = 0, bytes_r = 0, bytes_w = 0, slot_probes = 0;
  PersistCounts client;
  for (int c = 0; c < kClasses; ++c) {
    const Tracer::ClassAgg& a = tr.cls(c);
    ops += a.ops;
    bytes_r += a.bytes_read;
    bytes_w += a.bytes_written;
    slot_probes += a.slot_probes;
    client.fences += a.persist.fences;
    client.lines += a.persist.lines;
    client.nt_bytes += a.persist.nt_bytes;
  }
  const auto dops = static_cast<double>(ops);
  const Tracer::ProbeAgg& R = tr.resolve_probes();
  const Tracer::ProbeAgg& P = tr.parent_probes();
  add(r, "path.resolve_ns", ratio(R.ns, R.calls), "ns");
  add(r, "path.resolve_parent_ns", ratio(P.ns, P.calls), "ns");
  add(r, "path.pathcache_hit_ratio", ratio(R.pc_hits, R.pc_lookups), "ratio");
  add(r, "path.lookupcache_hit_ratio",
      ratio(R.lc_hits + P.lc_hits, R.lc_lookups + P.lc_lookups), "ratio");
  add(r, "path.conflicts_per_op", ratio(R.conflicts + P.conflicts, dops),
      "count/op");

  const Tracer::ClassAgg& M = tr.cls(static_cast<int>(OpClass::mutate));
  add(r, "dir.block_probes_per_mutate", ratio(M.dir_probes, M.ops), "count/op");
  add(r, "dir.epoch_bumps_scoped_per_mutate", ratio(M.dir_scoped, M.ops),
      "count/op");
  add(r, "dir.epoch_bumps_full_per_mutate", ratio(M.dir_full, M.ops),
      "count/op");
  add(r, "dir.splits", tr.dir_splits(), "count");

  const Tracer::ClassAgg& Rd = tr.cls(static_cast<int>(OpClass::read));
  add(r, "extent.hit_ratio", ratio(Rd.ext_hits, Rd.ext_hits + Rd.ext_misses),
      "ratio");
  add(r, "extent.fills_per_read", ratio(Rd.ext_fills, Rd.ops), "count/op");
  add(r, "data.user_bytes_per_op", ratio(bytes_r + bytes_w, dops), "B/op");

  const Tracer::ClassAgg& W = tr.cls(static_cast<int>(OpClass::write));
  add(r, "alloc.grants_per_write", ratio(W.alloc_grants, W.ops), "count/op");
  add(r, "alloc.reserve_slot_probes_per_op", ratio(slot_probes, dops),
      "count/op");
  add(r, "alloc.obj_cas_retries", tr.obj_cas_retries(), "count");
  add(r, "alloc.obj_stripe_steals", tr.obj_stripe_steals(), "count");

  for (int c = 0; c < kClasses; ++c) {
    const Tracer::ClassAgg& a = tr.cls(c);
    const std::string pre = std::string("persist.") + kClassNames[c];
    add(r, pre + ".fences_per_op", ratio(a.persist.fences, a.ops), "count/op");
    add(r, pre + ".lines_per_op", ratio(a.persist.lines, a.ops), "count/op");
    add(r, pre + ".nt_bytes_per_op", ratio(a.persist.nt_bytes, a.ops), "B/op");
    // Only writes persist from the client thread on every workload (reads
    // and lookups never do; service-mode mutations persist on the owner),
    // so the model time is reported for them alone: elsewhere it would be
    // a constant zero.  The breakdown lines below carry every class.
    if (c == static_cast<int>(OpClass::write))
      add(r, pre + ".model_ns_per_op", ratio(a.persist.model_ns(), a.ops),
          "ns");
  }
  const PersistCounts bg = tr.background();
  add(r, "persist.background.fences_per_op", ratio(bg.fences, dops),
      "count/op");
  add(r, "persist.background.media_bytes_per_op",
      ratio(bg.media_bytes(), dops), "B/op");
  add(r, "persist.media_bytes_per_user_byte",
      ratio(client.media_bytes() + bg.media_bytes(), bytes_w), "ratio");

  add(r, "wb.fsyncs_absorbed_per_fsync", ratio(tr.wb_absorbed(), tr.fsyncs()),
      "ratio");
  add(r, "wb.group_commits_per_s", ratio(tr.wb_commits(), x.phase.seconds),
      "1/s");
  add(r, "wb.drained_bytes_per_user_byte", ratio(tr.wb_drained(), bytes_w),
      "ratio");
  add(r, "wb.staged_bytes_peak", tr.wb_staged_peak(), "B");
  add(r, "wb.backpressure_hits", tr.wb_backpressure(), "count");

  for (int c = 0; c < kClasses; ++c)
    add(r, std::string("svc.") + kClassNames[c] + ".requests_per_op",
        ratio(tr.cls(c).ring_requests, tr.cls(c).ops), "count/op");
  add(r, "svc.local_fastpath", x.local_fastpath, "count");
  add(r, "svc.noop_trip_us", x.noop_us, "us");
  add(r, "svc.process_ctor_us", x.ctor_us, "us");

  add(r, "minikv.flushes", x.flushes, "count");
  add(r, "minikv.compactions", x.compactions, "count");
  add(r, "recovery.files", rec.files, "count");
  add(r, "recovery.reclaimed_objects", rec.reclaimed_objects, "count");
  add(r, "check.errors", check_errors, "count");
  add(r, "lock.fallback_hits", tr.lock_fallback_hits(), "count");
  add(r, "lock.lease_steals", tr.lock_lease_steals(), "count");
  add(r, "coord.shard_invalidations", x.shard_invalidations, "count");
  add(r, "trace.overhead_frac",
      1.0 - ratio(x.phase.ops_per_s(), untraced.ops_per_s()), "ratio");

  // Per class: traced latency next to the timed layer parts.
  for (int c = 0; c < kClasses; ++c) {
    const Tracer::ClassAgg& a = tr.cls(c);
    const double op_us = ratio(a.ns, a.ops) / 1e3;
    const double path_us = ratio(a.path_probe_ns, a.ops) / 1e3;
    const double persist_us = ratio(a.persist.model_ns(), a.ops) / 1e3;
    const double ring_us = ratio(a.ring_requests, a.ops) * x.noop_us;
    const double explained = path_us + persist_us + ring_us;
    const std::string pre = std::string("breakdown.") + kClassNames[c];
    add(r, pre + ".op_us", op_us, "us");
    add(r, pre + ".remainder_us", op_us - explained, "us");
    char line[200];
    std::snprintf(line, sizeof line,
                  "%-6s n=%-8llu op %.3f us = path probe %.3f + persist model "
                  "%.3f + ring %.3f + unexplained %.3f",
                  kClassNames[c], static_cast<unsigned long long>(a.ops),
                  op_us, path_us, persist_us, ring_us, op_us - explained);
    r.notes.push_back(line);
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "smallfile" || name == "smallfile_svc" ||
         name == "bigfile" || name == "kv";
}

RunReport run_benchmark(const RunConfig& cfg) {
  RunReport rep;
  Tally tally;

  // Set-up: device map + format + populate + un-timed warm-up, repeated so
  // setup_s is a median; the last world is the one measured.
  const Placement placement;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  const int reps = cfg.trace || cfg.tiny ? 1 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    w.reset();
    placement.world_cpus(service_mode(cfg));
    const Clock::time_point t0 = Clock::now();
    w = make(cfg);
    if (w == nullptr) return rep;
    w->setup();
    placement.client_cpu();
    for (std::uint64_t k = 0; k < w->warmup_ops(); ++k)
      tally.add(w->step(nullptr));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<Window> windows;
  const Phase measured =
      run_phase(*w, cfg.trace ? cfg.seconds / 2 : cfg.seconds, nullptr, tally,
                cfg.trace ? nullptr : &windows);

  std::unique_ptr<Tracer> tr;
  TracedExtras x;
  if (cfg.trace) {
    World& world = w->world();
    core::FileSystem& fs = world.measured();
    const std::uint64_t fl0 = w->app_flushes(), cp0 = w->app_compactions();
    tr = std::make_unique<Tracer>(
        fs, world.client ? world.owner.get() : nullptr, kSpanCap);
    x.phase = run_phase(*w, cfg.seconds / 2, tr.get(), tally, nullptr);
    tr->finish();
    x.flushes = w->app_flushes() - fl0;
    x.compactions = w->app_compactions() - cp0;
    // Whole-mount probes, outside every timed region (fsstat scans the
    // inode pool).
    x.ctor_us = process_ctor_us(fs);
    const core::FsStat st = fs.fsstat();
    x.local_fastpath = st.svc_local_fastpath;
    x.shard_invalidations = st.shard_invalidations;
    std::vector<double> noop_us;
    for (std::uint64_t ns : tr->noop_ns()) noop_us.push_back(ns / 1e3);
    x.noop_us =
        noop_us.empty() ? side_noop_trip_us(placement) : median(noop_us);
    if (!cfg.spans_out.empty()) {
      const bool ok = tr->write_spans(cfg.spans_out);
      rep.notes.push_back((ok ? "spans written to " : "could not write ") +
                          cfg.spans_out + " (" +
                          std::to_string(tr->spans_dropped()) +
                          " dropped past the cap)");
    }
  }

  // After the measured phase: clean unmount, remount, timed recover(),
  // fsck, then every live file re-read and checked.
  World& world = w->world();
  w->release();
  if (cfg.flip_byte)
    rep.notes.push_back(w->flip_live_byte() ? "flipped one live data byte"
                                            : "found no live data to flip");
  placement.world_cpus(/*service=*/false);
  auto fs = core::FileSystem::mount(*world.dev, *world.shm);
  placement.client_cpu();
  std::vector<double> recovery_s;
  core::RecoveryReport rec;
  for (int i = 0; i < kRecoveryReps; ++i) {
    if (i > 0) std::this_thread::sleep_for(kRecoveryGap);
    const Clock::time_point t0 = Clock::now();
    const core::RecoveryReport r = fs->recover();
    recovery_s.push_back(seconds_between(t0, Clock::now()));
    if (i == 0) rec = r;
  }
  std::string rec_line = "recovery_s per call:";
  for (double v : recovery_s) append_num(rec_line, v);
  rep.notes.push_back(rec_line);
  const core::CheckReport chk = core::check_fs(*fs);
  auto p = fs->open_process(kUid, kGid);
  const VerifyResult vr = w->verify(*p);
  tally.attempted += vr.checked;
  tally.failed += vr.mismatches;
  const core::FsStat st = fs->fsstat();
  p.reset();
  fs->unmount();
  fs.reset();
  const double used =
      static_cast<double>(st.total_blocks - st.free_blocks) * st.block_size;
  const double space_amp = ratio(used, w->live_user_bytes());

  rep.attempted = tally.attempted;
  rep.failed = tally.failed;
  rep.check_errors = chk.errors.size();
  rep.correct = rep.failed == 0 && chk.ok();
  if (!chk.ok()) rep.notes.push_back("fsck: " + chk.summary(4));
  char line[160];
  std::snprintf(line, sizeof line,
                "verify: %llu files/listings re-read, %llu mismatched; "
                "failed_frac %.6g",
                static_cast<unsigned long long>(vr.checked),
                static_cast<unsigned long long>(vr.mismatches),
                ratio(rep.failed, rep.attempted));
  rep.notes.push_back(line);

  if (cfg.trace) {
    per_layer_metrics(rep, *tr, x, measured, rec, rep.check_errors);
    add(rep, "failed_frac", ratio(rep.failed, rep.attempted), "ratio");
  } else {
    end_to_end_metrics(rep, setup_s, measured, windows, mean(recovery_s),
                       space_amp);
  }
  return rep;
}

std::string report_json(const RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
