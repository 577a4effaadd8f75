// FileSystem lifecycle and namespace operations.
#include "core/fs.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>
#include <string_view>

#include "common/failpoint.h"
#include "common/hash.h"
#include "core/scrub.h"
#include "core/svc_ring.h"
#include "core/write_behind.h"

namespace simurgh::core {

std::uint64_t wall_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

FileSystem::FileSystem(nvmm::Device& nvmm, nvmm::Device& shm)
    : dev_(&nvmm), shm_(&shm) {}

// Destruction without unmount() models a crashed process: the heartbeat
// thread dies with the instance and peers reap the slot after the lease.
// The service endpoint shuts down WITHOUT resigning the owner seat (a
// crashed owner is replaced by lease-based election, not by courtesy), and
// before the write-behind tier's member destruction so the persister never
// carves through a dying proxy.
FileSystem::~FileSystem() {
  if (meta_) meta_->begin_shutdown(/*resign=*/false);
  if (scrub_) scrub_->stop();
  stop_heartbeat_thread();
}

void FileSystem::start_heartbeat_thread() {
  {
    common::MutexLock lk(hb_mutex_);
    hb_stop_ = false;
  }
  hb_thread_ = std::thread([this] {
    unsigned round = 0;
    common::MutexLock lk(hb_mutex_);
    for (;;) {
      // Re-read the lease each round: tests shrink it mid-run and
      // set_lease_ns() nudges the condition variable so the new cadence
      // takes effect within one old interval.  No wait predicate: a
      // spurious wake just heartbeats one extra time (harmless), and a
      // predicate lambda reading the hb_mutex_-guarded fields would look
      // lockless to the thread-safety analysis.
      const std::uint64_t ns = registry_->lease_ns() / 4 + 1;
      hb_cv_.wait_for(lk, std::chrono::nanoseconds(ns));
      if (hb_stop_) return;
      if (!registry_->heartbeat(attachment_)) registry_->reattach(attachment_);
      // Dead-peer reap, wall-clock-paced (~once per lease) so the data
      // path never walks the registry or the lock table.  Deferred until
      // the mount is fully constructed: recovery may still be running
      // between attach and the walker's construction.
      if (++round % 4 == 0 && coord_ready_.load(std::memory_order_acquire)) {
        lk.unlock();
        reap_dead_mounts();
        lk.lock();
      }
    }
  });
}

void FileSystem::stop_heartbeat_thread() {
  if (!hb_thread_.joinable()) return;
  {
    common::MutexLock lk(hb_mutex_);
    hb_stop_ = true;
  }
  hb_cv_.notify_all();
  hb_thread_.join();
}

namespace {
// Segments = 2 x cores (§4.2), sized for the paper's 10-core testbed.
constexpr unsigned kFormatCores = 10;
// A fresh root is world-writable (tmpfs-style) so unprivileged client
// processes can populate it; tighten via chmod/chown after format.
constexpr std::uint32_t kRootMode = 0777;

std::uint64_t pool_header_off(unsigned i) {
  return kSuperblockOff + offsetof(Superblock, pools) +
         i * sizeof(alloc::PoolHeader);
}

// Pool i's free-object stack in the shm header.  The address is fixed, so
// the pools can take it before attach_components() lays the header out.
alloc::ObjCacheStack& pool_stack(nvmm::Device& shm, unsigned i) {
  return reinterpret_cast<ShmHeader*>(shm.base())->alloc_shared.obj_stacks[i];
}
}  // namespace

std::unique_ptr<FileSystem> FileSystem::format(nvmm::Device& nvmm,
                                               nvmm::Device& shm,
                                               const FormatOptions& opts) {
  SIMURGH_CHECK(nvmm.size() > kDataAreaOff + (64u << 20) / 64);
  // The device must be zero-filled (freshly mapped devices are).  format()
  // deliberately does not wipe() a large device itself: on the emulated
  // (lazily committed) device that would touch every page.  Call wipe()
  // first when re-formatting a used device.
  auto fs = std::unique_ptr<FileSystem>(new FileSystem(nvmm, shm));
  Superblock& sb = fs->sb();
  sb.magic = kSuperblockMagic;
  sb.version = kLayoutVersion;
  sb.device_size = nvmm.size();
  sb.n_cores = kFormatCores;
  sb.clean_shutdown.store(0, std::memory_order_relaxed);  // mounted
  nvmm::persist(&sb, sizeof(sb));
  nvmm::fence();

  fs->blocks_ = std::make_unique<alloc::BlockAllocator>(
      alloc::BlockAllocator::format(nvmm, kBlockAllocOff, kDataAreaOff,
                                    nvmm.size() - kDataAreaOff,
                                    2 * kFormatCores));
  sb.data_off = fs->blocks_->data_off();
  // Integrity table (layout v2): one CRC32C word per data-area block,
  // carved from the data area itself right at format so it lands first.
  {
    const std::uint64_t tblocks =
        CrcTable::blocks_for(fs->blocks_->n_blocks_total());
    auto t = fs->blocks_->alloc(tblocks, 0);
    SIMURGH_CHECK(t.is_ok());
    sb.crc_table_off = *t;
    sb.crc_table_blocks = tblocks;
    nvmm::persist(&sb, sizeof(sb));
    std::memset(nvmm.at(*t), 0, tblocks * alloc::kBlockSize);
    nvmm::persist(nvmm.at(*t), tblocks * alloc::kBlockSize);
    nvmm::fence();
    fs->crc_.attach(nvmm, *t, tblocks, sb.data_off);
  }
  const std::uint64_t payloads[kNumPools] = {
      kInodePayload, kFileEntryPayload, kDirBlockPayload, kExtentPayload};
  const std::uint64_t per_segment[kNumPools] = {2048, 2048, 64, 64};
  for (unsigned i = 0; i < kNumPools; ++i) {
    fs->pools_[i] = std::make_unique<alloc::ObjectAllocator>(
        alloc::ObjectAllocator::format(nvmm, *fs->blocks_, pool_stack(shm, i),
                                       pool_header_off(i), payloads[i],
                                       per_segment[i]));
  }
  fs->attach_components(/*formatted=*/true, opts);
  return fs;
}

std::unique_ptr<FileSystem> FileSystem::mount(nvmm::Device& nvmm,
                                              nvmm::Device& shm) {
  auto fs = std::unique_ptr<FileSystem>(new FileSystem(nvmm, shm));
  Superblock& sb = fs->sb();
  SIMURGH_CHECK(sb.magic == kSuperblockMagic);
  SIMURGH_CHECK(sb.version == kLayoutVersion);

  fs->blocks_ = std::make_unique<alloc::BlockAllocator>(
      alloc::BlockAllocator::attach(nvmm, kBlockAllocOff));
  // Attach the integrity table before the recovery decision: recovery
  // re-derives reachable file-block checksums through crc_.
  if (sb.crc_table_blocks != 0)
    fs->crc_.attach(nvmm, sb.crc_table_off, sb.crc_table_blocks,
                    sb.data_off);
  for (unsigned i = 0; i < kNumPools; ++i)
    fs->pools_[i] = std::make_unique<alloc::ObjectAllocator>(
        alloc::ObjectAllocator::attach(nvmm, *fs->blocks_, pool_stack(shm, i),
                                       pool_header_off(i)));
  // A shm device this boot has not seen yet gets the default lock table.
  fs->attach_components(/*formatted=*/false, FormatOptions{});
  return fs;
}

void FileSystem::attach_components(bool formatted, const FormatOptions& opts) {
  dirops_ = std::make_unique<DirOps>(
      *dev_, DirOps::Pools{pools_[kPoolFileEntry].get(),
                           pools_[kPoolDirBlock].get()});
  // The lock table is volatile shared DRAM: format() and a fresh boot lay
  // it out anew, a same-boot re-attach keeps live locks of other processes.
  auto* shm_hdr = reinterpret_cast<ShmHeader*>(shm_->base());
  if (formatted || shm_hdr->magic != kShmMagic)
    locks_ = std::make_unique<FileLockTable>(
        FileLockTable::format(*shm_, 0, opts.lock_table_slots));
  else
    locks_ = std::make_unique<FileLockTable>(FileLockTable::attach(*shm_, 0));
  registry_ = std::make_unique<MountRegistry>(*shm_, 0);
  attachment_ = registry_->attach_mount();
  // Heartbeats start before the recovery decision: a long recover() below
  // (or a long wait on a peer's) must not read as a dead mount.
  start_heartbeat_thread();
  // Block reservations live in shm slots from here on, and the token sets
  // this mount's segment bias.
  blocks_->attach_shared_state(&shm_hdr->alloc_shared, attachment_.token);

  Superblock& s = sb();
  if (formatted) {
    // Root directory.
    auto ino_off = pools_[kPoolInode]->alloc();
    SIMURGH_CHECK(ino_off.is_ok());
    Inode* root = inode_at(*ino_off);
    new (root) Inode();
    root->mode.store(kModeDir | kRootMode, std::memory_order_relaxed);
    root->nlink.store(1, std::memory_order_relaxed);
    const std::uint64_t now = wall_ns();
    root->atime_ns = now;
    root->mtime_ns = now;
    root->ctime_ns = now;
    auto db = dirops_->create_dir_block();
    SIMURGH_CHECK(db.is_ok());
    root->dir.store(nvmm::pptr<DirBlock>(*db));
    nvmm::persist(root, sizeof(Inode));
    nvmm::fence();
    pools_[kPoolInode]->commit(*ino_off);
    s.root.store(nvmm::pptr<Inode>(*ino_off));
    nvmm::persist_now(s.root);
  }
  root_off_ = s.root.load().raw();

  // DRAM caches: the per-component lookup cache and the directory-path
  // table behind the walker, and the extent cache of the data path.
  lookup_cache_ = std::make_unique<LookupCache>();
  path_cache_ = std::make_unique<PathCache>();
  walker_ = std::make_unique<PathWalker>(*dev_, *dirops_, root_off_,
                                         lookup_cache_.get(),
                                         path_cache_.get());
  extent_cache_ = std::make_unique<ExtentCache>();
  register_protected_functions();

  // Recovery decision (registry protocol): the era's first attacher owns
  // it — it holds the recovering token from attach_mount() until the
  // decision lands, so later attachers cannot race a half-recovered image.
  // Everyone else waits; a waiter inherits the job if the first-in dies
  // mid-recovery.  A freshly formatted image has nothing to recover.
  if (formatted) {
    registry_->finish_recovery(attachment_);
  } else if (attachment_.first_in) {
    const bool clean =
        s.clean_shutdown.exchange(0, std::memory_order_acq_rel) == 1;
    nvmm::persist_now(s.clean_shutdown);
    if (!clean) recover();
    registry_->finish_recovery(attachment_);
  } else if (registry_->wait_recovery_done(attachment_)) {
    recover();
    registry_->finish_recovery(attachment_);
  }
  // After the recovery decision: mount-time recover() runs with wb_ null
  // (there is no staged state yet; the journal roll-forward inside recover()
  // does not need the tier).
  wb_ = std::make_unique<WriteBehind>(*this);
  scrub_ = std::make_unique<Scrubber>(*this);  // crc_ is attached
  cache_gen_seen_.store(s.cache_gen.load(std::memory_order_acquire),
                        std::memory_order_relaxed);
  coord_ready_.store(true, std::memory_order_release);
}

void FileSystem::unmount() {
  if (unmounted_) return;
  // Everything staged becomes durable before detach, and the persister
  // stops while every component it drains through is alive.
  if (wb_) {
    wb_->drain_all();
    wb_.reset();
  }
  // Clean detach from the service ring: resign the owner seat (a waiting
  // client elects itself immediately instead of waiting out the lease).
  // After the write-behind drain, whose refill carves still route through
  // the proxy; before the heartbeat stops, so the server thread's last
  // dispatches still see a live mount.
  if (meta_) meta_->begin_shutdown(/*resign=*/true);
  if (scrub_) scrub_->stop();
  // Stop heartbeating first: once the slot is released below, a stale
  // heartbeat would fail and reattach — resurrecting the mount mid-detach.
  stop_heartbeat_thread();
  // Free this mount's unused reservation remainders before detaching (a
  // clean mount skips the rebuild_bitmap sweep that would otherwise
  // reclaim them).
  blocks_->drain_reservations();
  registry_->detach_mount(
      attachment_,
      [&] {
        // Last one out of the era — and nobody died dirty in it.
        // Straggler slots (peer threads that exited without draining) are
        // swept here; with dirty deaths the blocks stay stranded for the
        // next recovery's rebuild instead.
        blocks_->drain_reservations(/*drain_all=*/true);
        // Derived state (block_alloc.h) must be durable before the image is
        // marked clean: a clean mount runs no recovery to re-derive it.
        blocks_->persist_bitmap();
        crc_.persist_all();
      },
      [&] {
        // Declares the shutdown clean — the registry runs this only while
        // we still own the registry lock after the drain, so a first-in
        // that stole the lock mid-drain can never be followed by a stale
        // clean marking.
        sb().clean_shutdown.store(1, std::memory_order_release);
        nvmm::persist_now(sb().clean_shutdown);
      });
  unmounted_ = true;
}

void FileSystem::poll_coordination_slow() {
  // A peer published an invalidation (recovery or a lock-sweeping reap):
  // drop every DRAM view.  Serialised on a mount-private mutex: concurrent
  // op threads that raced onto the slow path wait here, then see
  // cache_gen_seen_ already caught up.
  common::MutexLock lk(coord_mu_);
  const std::uint64_t cur = sb().cache_gen.load(std::memory_order_acquire);
  if (cur == cache_gen_seen_.load(std::memory_order_relaxed)) return;
  lookup_cache_->clear();
  path_cache_->clear();
  extent_cache_->clear();
  cache_drops_.fetch_add(1, std::memory_order_relaxed);
  cache_gen_seen_.store(cur, std::memory_order_relaxed);
}

ReapReport FileSystem::reap_dead_mounts() {
  ReapReport r;
  r.mounts = registry_->reap_dead(attachment_, [&](std::uint64_t tok) {
    r.reserved_blocks += blocks_->reclaim_mount_reservations(tok);
  });
  const std::uint64_t now = wall_ns();
  if (r.mounts > 0) {
    // The victim's lock-lease stamps can be YOUNGER than the registry
    // stamp that just expired (it heartbeat last before taking the locks
    // it died holding), so the sweep below may find nothing yet.  Every
    // stamp the victim left predates this reap, though, so a sweep that
    // STARTS one lease from now is guaranteed final: leave a sweep debt
    // that only such a mature sweep clears.
    lock_sweep_due_ns_.store(now + registry_->lease_ns(),
                             std::memory_order_relaxed);
  }
  std::uint64_t due = lock_sweep_due_ns_.load(std::memory_order_relaxed);
  if (r.mounts == 0 && due == 0) return r;  // no dead slot, no debt
  if (due != 0 && now >= due) {
    // Mature debt: this sweep will see every victim stamp expired, so
    // retire it (CAS so a concurrent reap that just re-armed the debt is
    // not erased).  Immature debt sweeps too — whatever has expired so
    // far is reclaimed promptly — and stays armed for the final pass.
    lock_sweep_due_ns_.compare_exchange_strong(due, 0,
                                               std::memory_order_relaxed);
  }
  r.file_locks = locks_->sweep_expired();
  r.segment_locks = blocks_->reap_expired_segment_locks();
  // The dead peer may have died mid-mutation of the inodes whose locks we
  // just swept, so every mount (ours included) drops its DRAM caches.
  // Objects it touched WITHOUT a visible lock need no bump: directory walks
  // are epoch-validated (a death mid-EpochGuard leaves the epoch odd, so
  // cached entries stop validating), and its reservation blocks were never
  // reachable.  Before the totals move: a reader of reap_totals() that
  // sees the swept lock finds this mount's caches already dropped.
  if (r.file_locks != 0) {
    sb().cache_gen.fetch_add(1, std::memory_order_acq_rel);
    nvmm::persist_now(sb().cache_gen);
    poll_coordination_slow();  // catch our own caches up
  }
  mount_reclaims_.fetch_add(r.mounts, std::memory_order_relaxed);
  reap_blocks_.fetch_add(r.reserved_blocks, std::memory_order_relaxed);
  reap_file_locks_.fetch_add(r.file_locks, std::memory_order_relaxed);
  reap_segment_locks_.fetch_add(r.segment_locks, std::memory_order_relaxed);
  return r;
}

void FileSystem::set_lease_ns(std::uint64_t ns) {
  blocks_->set_lease_ns(ns);  // the object allocators read it there
  dirops_->set_lease_ns(ns);
  locks_->set_lease_ns(ns);
  if (wb_) wb_->set_lease_ns(ns);
  if (registry_) {
    registry_->set_lease_ns(ns);
    // Wake the heartbeat thread so the new (possibly much shorter) cadence
    // applies now, not after one interval at the old lease.
    {
      common::MutexLock lk(hb_mutex_);
      ++hb_wake_gen_;
    }
    hb_cv_.notify_all();
  }
}

std::unique_ptr<Process> FileSystem::open_process(std::uint32_t uid,
                                                  std::uint32_t gid) {
  return std::make_unique<Process>(*this, Credentials{uid, gid});
}

FsStat FileSystem::fsstat() {
  FsStat st;
  st.block_size = alloc::kBlockSize;
  st.total_blocks = blocks_->n_blocks_total();
  st.free_blocks = blocks_->free_blocks();
  pools_[kPoolInode]->scan([&](std::uint64_t, std::uint32_t flags) {
    if ((flags & alloc::kObjValid) != 0) ++st.live_inodes;
  });
  const LookupCacheStats ls = lookup_cache_->stats();
  const LookupCacheStats ps = path_cache_->stats();
  st.lookup_hits = ls.hits + ps.hits;
  st.lookup_misses = ls.misses + ps.misses;
  st.lookup_conflicts = ls.conflicts + ps.conflicts;
  st.lookup_fills = ls.fills + ps.fills;
  const ExtentCacheStats es = extent_cache_->stats();
  st.extent_hits = es.hits;
  st.extent_misses = es.misses;
  st.extent_fills = es.fills;
  const FileLockStats& fl = locks_->stats();
  st.lock_fallback_hits = fl.fallback_hits.load(std::memory_order_relaxed);
  st.lock_lease_steals = fl.lease_steals.load(std::memory_order_relaxed);
  st.mounts_attached = registry_ ? registry_->attached_mounts() : 0;
  st.mount_reclaims = mount_reclaims_.load(std::memory_order_relaxed);
  for (auto& p : pools_) {
    const alloc::ObjAllocStats& os = p->stats();
    st.obj_cas_retries +=
        os.claim_cas_retries.load(std::memory_order_relaxed);
  }
  st.reserve_slot_probes =
      blocks_->stats().reserve_slot_probes.load(std::memory_order_relaxed);
  st.shard_invalidations = cache_drops_.load(std::memory_order_relaxed);
  const DirOps::Stats ds = dirops_->stats();
  st.dir_splits = ds.splits;
  st.dir_block_probes = ds.block_probes;
  st.dir_epoch_bumps_scoped = ds.epoch_bumps_scoped;
  st.dir_epoch_bumps_full = ds.epoch_bumps_full;
  if (wb_) {
    const WriteBehind::Counters wc = wb_->counters();
    st.fsyncs_absorbed = wc.fsyncs_absorbed;
    st.group_commits = wc.group_commits;
    st.staged_bytes = wc.staged_bytes;
    st.writeback_backpressure_hits = wc.backpressure_hits;
  }
  st.svc_requests = svc_requests_.load(std::memory_order_relaxed);
  st.svc_local_fastpath =
      svc_local_fastpath_.load(std::memory_order_relaxed);
  if (meta_) {
    st.svc_served = meta_->served();
    st.svc_failovers = meta_->failovers();
  }
  st.crc_verify_failures =
      crc_verify_failures_.load(std::memory_order_relaxed);
  if (scrub_) {
    st.scrub_passes = scrub_->passes();
    st.scrub_blocks = scrub_->blocks_checked();
    st.scrub_errors = scrub_->errors();
  }
  return st;
}

Status FileSystem::enable_service_mode() {
  if (meta_) return Status::ok();  // idempotent
  auto m = std::make_unique<MetaService>(*this);
  SIMURGH_RETURN_IF_ERROR(m->enable());
  // From here every reservation refill is arbitrated too.
  blocks_->set_carve_proxy(m.get());
  meta_ = std::move(m);
  return Status::ok();
}

bool FileSystem::service_mode() const noexcept { return meta_ != nullptr; }

Status FileSystem::apply_durability(std::uint64_t ino_off, Durability d) {
  // No tier (unmount() drained and dropped it): every file is strict;
  // asking for strict is a no-op success, asking for a relaxed class
  // silently keeps strict semantics (strictly stronger durability than
  // requested).
  if (wb_ == nullptr) return Status::ok();
  if (d == Durability::strict) {
    // Downgrade: staged acked writes must become durable under the old
    // class's contract before strict semantics take over.
    if (Status st = wb_->flush_inode(ino_off); !st.is_ok()) return st;
  }
  wb_->set_durability(ino_off, d);
  return Status::ok();
}

void FileSystem::register_protected_functions() {
  // Fig. 2: the preload library asks the kernel-module model to map its
  // entry points onto protected pages.  The entries installed here are the
  // dispatchable protected functions used by the security tests and the
  // §3.3 bench; the hot path calls the same code directly and the harness
  // charges the measured jmpp delta instead (§5.1).
  pagetable_ = std::make_unique<protsec::PageTable>();
  gateway_ = std::make_unique<protsec::Gateway>(*pagetable_);
  bootstrap_ = std::make_unique<protsec::Bootstrap>(*pagetable_, *gateway_);
  bootstrap_->whitelist("simurgh");
  std::vector<protsec::ProtFn> entries;
  // Entry 0: fs_identify — smoke entry returning the superblock magic.
  entries.push_back([this](void*) -> std::uint64_t { return sb().magic; });
  // Entry 1: fs_stat — a representative metadata protected function:
  // resolves a path with the pinned credentials.
  entries.push_back([this](void* arg) -> std::uint64_t {
    auto* path = static_cast<const char*>(arg);
    auto r = walker_->resolve(Credentials{prot_handle_.creds.euid,
                                          prot_handle_.creds.egid},
                              path);
    return r.is_ok() ? r->inode_off : 0;
  });
  // Entry 2: nested call demonstration (jmpp from within a protected fn).
  entries.push_back([this](void* arg) -> std::uint64_t {
    std::uint64_t inner = 0;
    gateway_->jmpp(prot_handle_.entry(0), arg, &inner);
    return inner;
  });
  // Entry 3: svc_attach — mints the metadata-service ring capability for a
  // mount token (core/svc_ring.h): a privileged mix of the token with the
  // superblock magic that the serving owner recomputes before dispatching,
  // so a forged ring request is refused without resolving anything.
  entries.push_back([this](void* arg) -> std::uint64_t {
    return mix64(*static_cast<const std::uint64_t*>(arg) ^ sb().magic);
  });
  auto h = bootstrap_->load_protected("simurgh", std::move(entries),
                                      protsec::Credentials{0, 0});
  SIMURGH_CHECK(h.is_ok());
  prot_handle_ = *h;
}

// ----------------------------------------------------------------- Process

Stat Process::stat_of(std::uint64_t ino_off) const {
  const Inode* ino = fs_.inode_at(ino_off);
  Stat st;
  st.inode = ino_off;
  st.mode = ino->mode.load(std::memory_order_acquire);
  st.uid = ino->uid.load(std::memory_order_relaxed);
  st.gid = ino->gid.load(std::memory_order_relaxed);
  st.nlink = ino->nlink.load(std::memory_order_acquire);
  st.size = ino->size.load(std::memory_order_acquire);
  st.atime_ns = ino->atime_ns.load(std::memory_order_relaxed);
  st.mtime_ns = ino->mtime_ns.load(std::memory_order_relaxed);
  st.ctime_ns = ino->ctime_ns.load(std::memory_order_relaxed);
  // Acked staged writes are part of the file's visible size AND mtime — the
  // drain will stamp exactly these values at commit, so stat must not pair
  // a staged size with the pre-stage mtime.
  if (WriteBehind* wb = fs_.write_behind(); wb != nullptr && wb->active()) {
    std::uint64_t ssize = 0, smtime = 0;
    if (wb->staged_stat_of(ino_off, &ssize, &smtime)) {
      st.size = std::max(st.size, ssize);
      st.mtime_ns = smtime;
    }
  }
  return st;
}

// Resolve + permission-check the target of set_durability(path), shared by
// the local path and the service-mode server (which arbitrates exactly this
// step; the class itself is per-mount DRAM and is applied by the caller).
Result<std::uint64_t> Process::durability_target(std::string_view path) {
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                           fs_.walker().resolve(cred_, path));
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (!ino->is_file()) return Errc::is_dir;
  if (!may_access(*ino, cred_, kMayWrite)) return Errc::permission;
  return rr.inode_off;
}

Status Process::set_durability(std::string_view path, Durability d) {
  fs_.poll_coordination();
  std::uint64_t target = 0;
  if (auto routed = route_meta(SvcOp::kSetDurability, path, {},
                               static_cast<std::uint64_t>(d), 0, &target)) {
    if (!routed->is_ok()) return *routed;
    return fs_.apply_durability(target, d);
  }
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t ino_off,
                           durability_target(path));
  return fs_.apply_durability(ino_off, d);
}

Status Process::set_durability(int fd, Durability d) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Status(Errc::bad_fd);
  const std::uint64_t ino_off =
      f->inode_off.load(std::memory_order_acquire);
  // A directory fd is not merely "not writable" — say what it is.  Checked
  // before the writability gate so a read-only directory fd reports is_dir,
  // not bad_fd.
  if (!fs_.inode_at(ino_off)->is_file()) return Status(Errc::is_dir);
  if ((f->flags & kOpenWrite) == 0) return Status(Errc::bad_fd);
  if (auto routed = route_meta(SvcOp::kSetDurabilityFd, {}, {}, ino_off,
                               static_cast<std::uint64_t>(d))) {
    if (!routed->is_ok()) return *routed;
  }
  return fs_.apply_durability(ino_off, d);
}

Result<std::uint64_t> Process::create_file(const ResolveResult& where,
                                           std::uint32_t mode,
                                           std::uint32_t type,
                                           std::string_view symlink_target) {
  Inode* parent = fs_.inode_at(where.parent_off);
  if (!may_access(*parent, cred_, kMayWrite | kMayExec))
    return Errc::permission;

  // Fig. 5a step 1: create the inode (flushed; fenced with the entry).
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t ino_off,
                           fs_.pool(kPoolInode).alloc());
  Inode* ino = fs_.inode_at(ino_off);
  // No placement-new: a recycled inode may still be read by walkers holding
  // a pre-delete offset, and constructing the atomic members would be a
  // plain (racy) write.  Nor is the free scrub's zero payload trusted: its
  // flushes are unfenced, so after a crash a free inode may still hold the
  // dead file's extents in the lines its header did not share.  Every field
  // is stored here, the extent area word-wise like the scrub.
  ino->mode.store(type | (mode & kPermMask), std::memory_order_relaxed);
  ino->uid.store(cred_.euid, std::memory_order_relaxed);
  ino->gid.store(cred_.egid, std::memory_order_relaxed);
  ino->nlink.store(1, std::memory_order_relaxed);
  ino->size.store(0, std::memory_order_relaxed);
  const std::uint64_t now = wall_ns();
  ino->atime_ns.store(now, std::memory_order_relaxed);
  ino->mtime_ns.store(now, std::memory_order_relaxed);
  ino->ctime_ns.store(now, std::memory_order_relaxed);
  ino->dir.store(nvmm::pptr<DirBlock>());
  ino->ext_spill.store(nvmm::pptr<ExtentBlock>());
  ino->ext_epoch.store(0, std::memory_order_relaxed);
  static_assert(sizeof ino->extents % 8 == 0);
  auto* ext_words = reinterpret_cast<std::atomic<std::uint64_t>*>(ino->extents);
  for (std::size_t i = 0; i < sizeof ino->extents / 8; ++i)
    ext_words[i].store(0, std::memory_order_relaxed);
  if (type == kModeDir) {
    auto db = fs_.dirops().create_dir_block();
    if (!db.is_ok()) {
      fs_.pool(kPoolInode).free(ino_off);
      return db.status();
    }
    ino->dir.store(nvmm::pptr<DirBlock>(*db));
  } else if (type == kModeSymlink) {
    if (symlink_target.size() <= kInlineSymlinkMax) {
      std::memcpy(ino->symlink, symlink_target.data(),
                  symlink_target.size());
      ino->symlink[symlink_target.size()] = '\0';
    } else {
      // Long target: one data block.
      const std::uint64_t n_blocks =
          (symlink_target.size() + alloc::kBlockSize) / alloc::kBlockSize;
      auto blk = fs_.blocks().alloc(n_blocks, ino_off);
      if (!blk.is_ok()) {
        fs_.pool(kPoolInode).free(ino_off);
        return blk.status();
      }
      char* dst = reinterpret_cast<char*>(fs_.dev().at(*blk));
      std::memcpy(dst, symlink_target.data(), symlink_target.size());
      dst[symlink_target.size()] = '\0';
      nvmm::persist(dst, symlink_target.size() + 1);
      // Long targets are flagged by size > kInlineSymlinkMax; the target
      // block is recorded in extents[0] (which overlays the inline buffer).
      ino->extents[0] = Extent{0, *blk, n_blocks};
    }
    ino->size.store(symlink_target.size(), std::memory_order_relaxed);
  } else if (type == kModeFile) {
    // Stamp the extent-map epoch: even, nonzero, mount-unique (ABA closure
    // for the DRAM extent cache — see layout.h file_epoch_gen).  The
    // generation turns odd when drop_inode pushes it to the final epoch of
    // a file whose writer died inside its ExtentEpochGuard, so round the
    // stamp down to even: it still exceeds the generation it was read at.
    ino->ext_epoch.store(
        (fs_.sb().file_epoch_gen.fetch_add(2, std::memory_order_acq_rel) +
         2) & ~1ull,
        std::memory_order_release);
  }
  nvmm::persist(ino, sizeof(Inode));
  SIMURGH_FAILPOINT("fs.create.inode_persisted");

  // Fig. 5a step 2: file entry linked to the inode.
  auto fe_off = fs_.pool(kPoolFileEntry).alloc();
  if (!fe_off.is_ok()) {
    fs_.pool(kPoolInode).free(ino_off);
    return fe_off.status();
  }
  auto* fe = reinterpret_cast<FileEntry*>(fs_.dev().at(*fe_off));
  fe->set_name(where.leaf());
  fe->flags.store(type == kModeSymlink ? kEntrySymlink : 0,
                  std::memory_order_relaxed);
  fe->inode.store(nvmm::pptr<Inode>(ino_off));
  nvmm::persist(fe, fe->used_bytes());
  // One fence for every new object: both claims, both payloads, and a new
  // directory's hash block or a long symlink's target block.
  nvmm::fence();
  SIMURGH_FAILPOINT("fs.create.entry_persisted");

  // Fig. 5a steps 3-5: publish in the directory hash map (the fenced slot
  // claim is the commit point).
  Status st = fs_.dirops().insert(*parent, where.leaf(), *fe_off);
  if (!st.is_ok()) {
    fs_.pool(kPoolFileEntry).free(*fe_off);
    (void)drop_inode(ino_off);
    return st.code();
  }
  SIMURGH_FAILPOINT("fs.create.published");

  // Fig. 5a step 6: clear the dirty bits.  They ride the next fence:
  // recovery commits a reachable 11 object.
  fs_.pool(kPoolFileEntry).commit(*fe_off);
  fs_.pool(kPoolInode).commit(ino_off);
  parent->mtime_ns.store(now, std::memory_order_relaxed);
  return ino_off;
}

Status Process::drop_inode(std::uint64_t inode_off) {
  // Staged acked writes must land before the storage they target can be
  // freed — another hard link may still name this file.  Flush first (a
  // no-op for inodes with nothing staged).
  if (WriteBehind* wb = fs_.write_behind(); wb != nullptr && wb->active())
    (void)wb->flush_inode(inode_off);
  Inode* ino = fs_.inode_at(inode_off);
  if (ino->nlink.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return Status::ok();  // other hard links remain
  // Last link: the class binding dies with the file (the inode offset will
  // be recycled), then release storage and the inode object itself.  The
  // caller fenced the store that unlinked the inode, so nothing below
  // fences: its extent clears and frees ride the next fence (recovery
  // reclaims an unreachable inode whatever landed), and block frees only
  // clear bitmap bits, which recovery rebuilds.
  if (WriteBehind* wb = fs_.write_behind(); wb != nullptr)
    wb->forget(inode_off);
  if (ino->is_dir()) {
    // Before the first hash block can be recycled, push the mount-wide
    // epoch generation past this directory's final epoch so no stale
    // lookup-cache entry can ever validate against its successor.
    fs_.dirops().retire_dir_epoch(*ino);
    // Collect every hash block — the anchor chain plus all bucket chains —
    // BEFORE freeing any: pool free scrubs the block, and the bucket-head
    // pointers live inside the anchor block.
    std::vector<std::uint64_t> blocks;
    fs_.dirops().for_each_block(
        *ino, [&](DirBlock*, std::uint64_t off) { blocks.push_back(off); });
    ino->dir.store(nvmm::pptr<DirBlock>());
    for (const std::uint64_t off : blocks) fs_.pool(kPoolDirBlock).free(off);
  } else if (ino->is_symlink()) {
    // An inline target lives in the union over extents[] and owns no
    // storage; only a long target's block is recorded in extents[0].
    if (ino->size.load(std::memory_order_acquire) > kInlineSymlinkMax)
      fs_.blocks().free(ino->extents[0].dev_off, ino->extents[0].n_blocks);
  } else {
    {
      ExtentEpochGuard guard(*ino);
      ExtentMap map(fs_.dev(), fs_.pool(kPoolExtent), *ino, inode_off);
      map.drop_from(0, [&](std::uint64_t dev_off, std::uint64_t n) {
        fs_.blocks().free(dev_off, n);
      });
      map.free_spill_chain();
    }
    // Push the mount-wide generation past this file's final epoch so the
    // recycled inode offset can never replay an epoch some extent-cache
    // view was filled against (mirror of retire_dir_epoch).
    const std::uint64_t final_epoch =
        ino->ext_epoch.load(std::memory_order_acquire);
    auto& gen = fs_.sb().file_epoch_gen;
    std::uint64_t g = gen.load(std::memory_order_relaxed);
    while (g < final_epoch &&
           !gen.compare_exchange_weak(g, final_epoch,
                                      std::memory_order_acq_rel)) {
    }
    ino->ext_epoch.store(0, std::memory_order_release);
    if (ExtentCache* c = fs_.extent_cache_if_enabled())
      c->invalidate(inode_off);
  }
  SIMURGH_FAILPOINT("fs.drop_inode.storage_freed");
  fs_.pool(kPoolInode).free(inode_off);
  return Status::ok();
}

// open(O_CREAT)'s create step as one routable unit: resolve the parent,
// report exists (the caller judges O_EXCL), create otherwise.  Executed by
// the service-mode server on behalf of clients.
Result<std::uint64_t> Process::create_path(std::string_view path,
                                           std::uint32_t mode) {
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                           fs_.walker().resolve_parent(cred_, path));
  if (rr.inode_off != 0) return Errc::exists;
  return create_file(rr, mode, kModeFile);
}

Result<int> Process::open(std::string_view path, int flags,
                          std::uint32_t mode) {
  fs_.poll_coordination();
  const bool want_write = (flags & kOpenWrite) != 0;
  std::uint64_t ino_off = 0;
  if ((flags & kOpenCreate) != 0) {
    std::uint64_t created = 0;
    if (auto routed =
            route_meta(SvcOp::kCreate, path, {}, mode, 0, &created)) {
      // Arbitrated create.  The owner reports exists without judging
      // O_EXCL (it does not see the flags); the client decides: error
      // under O_EXCL, otherwise reopen without O_CREAT (depth-1 — the
      // recursion clears the flag).
      if (routed->is_ok()) {
        ino_off = created;
      } else if (routed->code() == Errc::exists &&
                 (flags & kOpenExcl) == 0) {
        return open(path, flags & ~kOpenCreate, mode);
      } else {
        return routed->code();
      }
    } else {
      SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                               fs_.walker().resolve_parent(cred_, path));
      if (rr.inode_off != 0) {
        if ((flags & kOpenExcl) != 0) return Errc::exists;
        Inode* existing = fs_.inode_at(rr.inode_off);
        if (existing->is_symlink()) {
          SIMURGH_ASSIGN_OR_RETURN(ResolveResult deep,
                                   fs_.walker().resolve(cred_, path));
          rr.inode_off = deep.inode_off;
        }
        ino_off = rr.inode_off;
      } else {
        SIMURGH_ASSIGN_OR_RETURN(ino_off,
                                 create_file(rr, mode, kModeFile));
      }
    }
  } else {
    SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                             fs_.walker().resolve(cred_, path));
    ino_off = rr.inode_off;
  }
  Inode* ino = fs_.inode_at(ino_off);
  if (ino->is_dir() && want_write) return Errc::is_dir;
  const unsigned want = ((flags & kOpenRead) ? kMayRead : 0u) |
                        (want_write ? kMayWrite : 0u);
  if (!may_access(*ino, cred_, want)) return Errc::permission;
  if ((flags & kOpenTrunc) != 0 && want_write && ino->is_file()) {
    Status st = truncate_inode(ino_off, 0);
    if (!st.is_ok()) return st.code();
  }
  const int fd = fds_.alloc(ino_off, flags);
  if (fd < 0) return Errc::bad_fd;
  return fd;
}

Status Process::close(int fd) { return fds_.close(fd); }

Status Process::mkdir(std::string_view path, std::uint32_t mode) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kMkdir, path, {}, mode, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                           fs_.walker().resolve_parent(cred_, path));
  if (rr.inode_off != 0) return Status(Errc::exists);
  return create_file(rr, mode, kModeDir).status();
}

Status Process::rmdir(std::string_view path) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kRmdir, path, {}, 0, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                           fs_.walker().resolve_parent(cred_, path));
  if (rr.inode_off == 0) return Status(Errc::not_found);
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (!ino->is_dir()) return Status(Errc::not_dir);
  if (!fs_.dirops().empty(*ino)) return Status(Errc::not_empty);
  Inode* parent = fs_.inode_at(rr.parent_off);
  if (!may_access(*parent, cred_, kMayWrite | kMayExec))
    return Status(Errc::permission);
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t removed,
                           fs_.dirops().remove(*parent, rr.leaf()));
  return drop_inode(removed);
}

Status Process::unlink(std::string_view path) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kUnlink, path, {}, 0, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                           fs_.walker().resolve_parent(cred_, path));
  if (rr.inode_off == 0) return Status(Errc::not_found);
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (ino->is_dir()) return Status(Errc::is_dir);
  Inode* parent = fs_.inode_at(rr.parent_off);
  if (!may_access(*parent, cred_, kMayWrite | kMayExec))
    return Status(Errc::permission);
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t removed,
                           fs_.dirops().remove(*parent, rr.leaf()));
  return drop_inode(removed);
}

Status Process::rename(std::string_view from, std::string_view to) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kRename, from, to, 0, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult src,
                           fs_.walker().resolve_parent(cred_, from));
  if (src.inode_off == 0) return Status(Errc::not_found);
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult dst,
                           fs_.walker().resolve_parent(cred_, to));
  Inode* src_parent = fs_.inode_at(src.parent_off);
  Inode* dst_parent = fs_.inode_at(dst.parent_off);
  if (!may_access(*src_parent, cred_, kMayWrite | kMayExec) ||
      !may_access(*dst_parent, cred_, kMayWrite | kMayExec))
    return Status(Errc::permission);
  Inode* moving = fs_.inode_at(src.inode_off);
  if (dst.inode_off != 0) {
    Inode* target = fs_.inode_at(dst.inode_off);
    if (target->is_dir() != moving->is_dir())
      return Status(target->is_dir() ? Errc::is_dir : Errc::not_dir);
    if (target->is_dir() && !fs_.dirops().empty(*target))
      return Status(Errc::not_empty);
    if (dst.inode_off == src.inode_off) return Status::ok();  // same file
  }
  Result<std::uint64_t> replaced =
      src.parent_off == dst.parent_off
          ? fs_.dirops().rename_local(*src_parent, src.leaf(), dst.leaf())
          : fs_.dirops().rename_cross(*src_parent, src.leaf(), *dst_parent,
                                      dst.leaf());
  SIMURGH_RETURN_IF_ERROR(replaced);
  if (*replaced != 0) return drop_inode(*replaced);
  const std::uint64_t now = wall_ns();
  src_parent->mtime_ns.store(now, std::memory_order_relaxed);
  dst_parent->mtime_ns.store(now, std::memory_order_relaxed);
  return Status::ok();
}

Result<Stat> Process::stat(std::string_view path) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  return stat_of(rr.inode_off);
}

Result<Stat> Process::lstat(std::string_view path) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(
      ResolveResult rr,
      fs_.walker().resolve(cred_, path, /*follow_symlink=*/false));
  return stat_of(rr.inode_off);
}

Result<Stat> Process::fstat(int fd) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Errc::bad_fd;
  return stat_of(f->inode_off.load(std::memory_order_acquire));
}

Status Process::link(std::string_view existing, std::string_view newpath) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kLink, existing, newpath, 0, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult src,
                           fs_.walker().resolve(cred_, existing));
  Inode* ino = fs_.inode_at(src.inode_off);
  if (ino->is_dir()) return Status(Errc::is_dir);
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult dst,
                           fs_.walker().resolve_parent(cred_, newpath));
  if (dst.inode_off != 0) return Status(Errc::exists);
  Inode* parent = fs_.inode_at(dst.parent_off);
  if (!may_access(*parent, cred_, kMayWrite | kMayExec))
    return Status(Errc::permission);

  // The count and the new entry share the fence before the publish; an
  // increment that lands without the entry is reconciled by recovery.
  ino->nlink.fetch_add(1, std::memory_order_acq_rel);
  nvmm::persist_obj(ino->nlink);
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t fe_off,
                           fs_.pool(kPoolFileEntry).alloc());
  auto* fe = reinterpret_cast<FileEntry*>(fs_.dev().at(fe_off));
  fe->set_name(dst.leaf());
  fe->flags.store(0, std::memory_order_relaxed);
  fe->inode.store(nvmm::pptr<Inode>(src.inode_off));
  nvmm::persist(fe, fe->used_bytes());
  nvmm::fence();
  Status st = fs_.dirops().insert(*parent, dst.leaf(), fe_off);
  if (!st.is_ok()) {
    fs_.pool(kPoolFileEntry).free(fe_off);
    ino->nlink.fetch_sub(1, std::memory_order_acq_rel);
    return st;
  }
  fs_.pool(kPoolFileEntry).commit(fe_off);
  return Status::ok();
}

Status Process::symlink(std::string_view target, std::string_view linkpath) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kSymlink, target, linkpath, 0, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr,
                           fs_.walker().resolve_parent(cred_, linkpath));
  if (rr.inode_off != 0) return Status(Errc::exists);
  return create_file(rr, 0777, kModeSymlink, target).status();
}

Result<std::string> Process::readlink(std::string_view path) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(
      ResolveResult rr,
      fs_.walker().resolve(cred_, path, /*follow_symlink=*/false));
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (!ino->is_symlink()) return Errc::invalid;
  const std::uint64_t len = ino->size.load(std::memory_order_acquire);
  if (len <= kInlineSymlinkMax) return std::string(ino->symlink, len);
  const char* blk =
      reinterpret_cast<const char*>(fs_.dev().at(ino->extents[0].dev_off));
  return std::string(blk, len);
}

Status Process::access(std::string_view path, unsigned may) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  return may_access(*fs_.inode_at(rr.inode_off), cred_, may)
             ? Status::ok()
             : Status(Errc::permission);
}

Status Process::chmod(std::string_view path, std::uint32_t mode) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kChmod, path, {}, mode, 0))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (cred_.euid != 0 &&
      cred_.euid != ino->uid.load(std::memory_order_relaxed))
    return Status(Errc::permission);
  // Changing a *directory's* mode changes who may traverse it, so bump its
  // epoch around the visible change: every cached walk through it stops
  // validating and re-checks permissions.  File modes never gate a walk.
  std::optional<EpochGuard> guard;
  if (ino->is_dir()) guard.emplace(fs_.dirops(), *ino);
  const std::uint32_t type = ino->type();
  ino->mode.store(type | (mode & kPermMask), std::memory_order_release);
  nvmm::persist_now(ino->mode);
  ino->ctime_ns.store(wall_ns(), std::memory_order_relaxed);
  return Status::ok();
}

Status Process::chown(std::string_view path, std::uint32_t uid,
                      std::uint32_t gid) {
  fs_.poll_coordination();
  if (auto routed = route_meta(SvcOp::kChown, path, {}, uid, gid))
    return *routed;
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (cred_.euid != 0) return Status(Errc::permission);
  // Same reasoning as chmod: directory ownership decides which permission
  // triple applies during traversal.
  std::optional<EpochGuard> guard;
  if (ino->is_dir()) guard.emplace(fs_.dirops(), *ino);
  ino->uid.store(uid, std::memory_order_relaxed);
  ino->gid.store(gid, std::memory_order_relaxed);
  nvmm::persist(ino, sizeof(Inode));
  nvmm::fence();
  ino->ctime_ns.store(wall_ns(), std::memory_order_relaxed);
  return Status::ok();
}

Status Process::utimes(std::string_view path, std::uint64_t atime_ns,
                       std::uint64_t mtime_ns) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  Inode* ino = fs_.inode_at(rr.inode_off);
  ino->atime_ns.store(atime_ns, std::memory_order_relaxed);
  ino->mtime_ns.store(mtime_ns, std::memory_order_relaxed);
  nvmm::persist(ino, sizeof(Inode));
  nvmm::fence();
  return Status::ok();
}

Result<std::vector<DirEntry>> Process::readdir(std::string_view path) {
  std::vector<DirEntry> out;
  SIMURGH_RETURN_IF_ERROR(readdir_at(path, 0, out, SIZE_MAX));
  return out;
}

Result<std::uint64_t> Process::readdir_at(std::string_view path,
                                          std::uint64_t cursor,
                                          std::vector<DirEntry>& out,
                                          std::size_t cap) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (!ino->is_dir()) return Errc::not_dir;
  if (!may_access(*ino, cred_, kMayRead)) return Errc::permission;
  return fs_.dirops().list_at(
      *ino, cursor, cap,
      [&](std::string_view name, std::uint64_t, std::uint64_t inode_off) {
        out.push_back(DirEntry{std::string(name), inode_off});
      });
}

}  // namespace simurgh::core
