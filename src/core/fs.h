// Simurgh — the public file-system API.
//
// A FileSystem owns one mounted instance over an NVMM device plus a
// shared-DRAM device.  Client "processes" (the preload-library view of an
// application) are represented by Process handles: each has its own
// credentials and open-file map, while *all* persistent state is shared —
// there is no central server and no kernel involvement after the bootstrap,
// exactly as the paper designs it (§4).
//
// Security integration: format()/mount() register the file system's entry
// points as protected functions through the Bootstrap model (Fig. 2), and
// Process can be asked to route every call through the jmpp Gateway
// (secure mode) — used by the security tests and the protcall bench.  In
// the fast path the calls are direct, mirroring how the paper evaluates on
// hardware without the proposed instructions and charges the measured
// 46-cycle jmpp delta in the harness instead.
#pragma once

#include <condition_variable>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "alloc/block_alloc.h"
#include "common/thread_annotations.h"
#include "alloc/obj_alloc.h"
#include "core/dir_block.h"
#include "core/extent_cache.h"
#include "core/integrity.h"
#include "core/layout.h"
#include "core/lookup_cache.h"
#include "core/openfile.h"
#include "core/path.h"
#include "core/shm.h"
#include "nvmm/device.h"
#include "protsec/bootstrap.h"
#include "protsec/gateway.h"

namespace simurgh::core {

// File-lock table slots laid out in a fresh shm device.
inline constexpr std::uint64_t kLockTableSlots = 1 << 16;

struct FormatOptions {
  // Tests on small shm devices shrink the table; mount() lays out the
  // default one when the shm device is fresh.
  std::uint64_t lock_table_slots = kLockTableSlots;
};

struct Stat {
  std::uint64_t inode = 0;  // the inode offset (Simurgh's inode identity)
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint32_t nlink = 0;
  std::uint64_t size = 0;
  std::uint64_t atime_ns = 0;
  std::uint64_t mtime_ns = 0;
  std::uint64_t ctime_ns = 0;

  [[nodiscard]] bool is_dir() const noexcept {
    return (mode & kModeTypeMask) == kModeDir;
  }
  [[nodiscard]] bool is_symlink() const noexcept {
    return (mode & kModeTypeMask) == kModeSymlink;
  }
};

struct DirEntry {
  std::string name;
  std::uint64_t inode = 0;
};

// statfs-style capacity summary.
struct FsStat {
  std::uint64_t block_size = 0;
  std::uint64_t total_blocks = 0;
  std::uint64_t free_blocks = 0;
  std::uint64_t live_inodes = 0;  // allocated inode objects
  // Path-lookup cache counters (this mount's view; see LookupCache).
  std::uint64_t lookup_hits = 0;
  std::uint64_t lookup_misses = 0;
  std::uint64_t lookup_conflicts = 0;
  std::uint64_t lookup_fills = 0;
  // DRAM extent-cache counters (this mount's view; see ExtentCache).
  std::uint64_t extent_hits = 0;
  std::uint64_t extent_misses = 0;
  std::uint64_t extent_fills = 0;
  // FileLockTable pressure (this mount's view; see FileLockStats).
  std::uint64_t lock_fallback_hits = 0;
  std::uint64_t lock_lease_steals = 0;
  // Mount registry (shared view): live attachments now, and how many dead
  // peers THIS mount has lease-reclaimed.
  std::uint64_t mounts_attached = 0;
  std::uint64_t mount_reclaims = 0;
  // Cross-mount contention telemetry (this mount's view).  CAS retries
  // stay near zero unless mounts race for the same free objects; slot
  // probes grow by about the number of claimed slots once per thread's
  // first reservation.
  std::uint64_t obj_cas_retries = 0;      // lost object-claim CAS races
  std::uint64_t reserve_slot_probes = 0;  // reservation-slot scan length
  // Times this mount dropped its DRAM caches whole because the superblock
  // cache generation moved (the name predates the single generation).
  std::uint64_t shard_invalidations = 0;
  // Giant-directory telemetry (this mount's view; see DirOps::Stats).
  // The epoch-bump split tells how selective invalidation is: scoped bumps
  // touch only the mutated bucket's epoch, full bumps invalidate every
  // cached walk through the directory.
  std::uint64_t dir_splits = 0;             // directories fanned out
  std::uint64_t dir_block_probes = 0;       // blocks scanned by empty()
  std::uint64_t dir_epoch_bumps_scoped = 0; // bucket-scoped epoch bumps
  std::uint64_t dir_epoch_bumps_full = 0;   // whole-directory epoch bumps
  // Write-behind tier telemetry (this mount's view; see WriteBehind).
  std::uint64_t fsyncs_absorbed = 0;    // fsyncs folded into epoch cadence
  std::uint64_t group_commits = 0;      // epochs group-committed to NVMM
  std::uint64_t staged_bytes = 0;       // current DRAM staging residency
  std::uint64_t writeback_backpressure_hits = 0;  // cap-forced strict falls
  // Metadata-service mode (this mount's view; see core/svc_ring.h).  On a
  // client mount in service mode, every namespace/allocation mutation adds
  // to svc_requests and svc_local_fastpath stays zero — the pair proves no
  // mutation bypassed arbitration.  The owner's own mutations count as
  // svc_local_fastpath (it IS the arbiter).  svc_served counts requests
  // THIS mount dispatched while owner; svc_failovers is the ring-wide
  // ownership-change count.
  std::uint64_t svc_requests = 0;
  std::uint64_t svc_local_fastpath = 0;
  std::uint64_t svc_served = 0;
  std::uint64_t svc_failovers = 0;
  // Integrity layer (this mount's view; see core/integrity.h, core/scrub.h).
  std::uint64_t crc_verify_failures = 0;  // verify_reads mismatches returned
  std::uint64_t scrub_passes = 0;
  std::uint64_t scrub_blocks = 0;
  std::uint64_t scrub_errors = 0;
};

// What a survivor's dead-peer reclaim recovered (reap_dead_mounts()).
struct ReapReport {
  unsigned mounts = 0;                 // expired peer slots cleared
  std::uint64_t reserved_blocks = 0;   // stranded reservation blocks freed
  unsigned file_locks = 0;             // expired file locks released
  unsigned segment_locks = 0;          // expired segment locks released
};

struct RecoveryReport {
  std::uint64_t files = 0;
  std::uint64_t directories = 0;
  std::uint64_t symlinks = 0;
  std::uint64_t committed_objects = 0;   // in-flight creates completed
  std::uint64_t reclaimed_objects = 0;   // unreachable / half-freed objects
  std::uint64_t data_blocks_in_use = 0;
  // Inodes whose nlink disagreed with the observed directory references
  // (e.g. a crash between removing an entry and dropping the link count)
  // and were reset to the observed value.
  std::uint64_t link_counts_repaired = 0;
  // Write-behind accounting: staged DRAM bytes discarded (a crash loses
  // them by contract) and whether an armed epoch journal was rolled
  // forward (its data was durable; only the stamps were in flight).
  std::uint64_t wb_staged_discarded = 0;
  std::uint64_t wb_epochs_rolled_forward = 0;
  double seconds = 0;
};

class Process;
class WriteBehind;
class MetaService;
class Scrubber;
enum class SvcOp : std::uint32_t;

class FileSystem {
 public:
  // mkfs: lays out superblock, allocators, pools, lock table, root dir.
  static std::unique_ptr<FileSystem> format(nvmm::Device& nvmm,
                                            nvmm::Device& shm,
                                            const FormatOptions& opts = {});
  // Mount: attaches; runs full recovery when the previous shutdown was
  // unclean (clean_shutdown == 0).
  static std::unique_ptr<FileSystem> mount(nvmm::Device& nvmm,
                                           nvmm::Device& shm);

  ~FileSystem();
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // Clean unmount: marks the superblock so the next mount skips recovery.
  void unmount();

  // Creates a client-process handle with the given credentials (the values
  // the kernel would pin into the protected pages at preload, §3.2).
  std::unique_ptr<Process> open_process(std::uint32_t uid, std::uint32_t gid);

  // Full mark-and-sweep recovery (§5.5); safe on a quiescent mount.
  RecoveryReport recover();

  // ---- multi-mount coordination (§4 "fully decentralized") ----
  // Called at the top of every Process operation: drops the DRAM caches
  // whole when the superblock's cache_gen moved — a peer ran recovery or a
  // reap that released a dead peer's file locks.  That is ALL the data
  // path does now: heartbeats and dead-peer reaping are wall-clock-paced
  // on the background heartbeat thread (started at attach), so an idle or
  // slow mount never reads as dead to its peers and a busy one pays
  // exactly one acquire load of a read-mostly cache line per operation.
  void poll_coordination() {
    if (registry_ == nullptr || unmounted_) return;
    if (sb().cache_gen.load(std::memory_order_acquire) !=
        cache_gen_seen_.load(std::memory_order_relaxed))
      poll_coordination_slow();
  }
  // Reclaims every peer whose heartbeat lease expired: its stranded block
  // reservations, expired file locks and segment leases return to service
  // without a remount.  A victim that held file locks bumps cache_gen, so
  // every mount — this one included — drops its DRAM caches; a victim that
  // held nothing visible bumps nothing.
  ReapReport reap_dead_mounts();
  // Cumulative totals of every reap this mount performed — explicit calls
  // AND the background heartbeat thread's periodic scans.  Tests assert on
  // these: with reaping hoisted onto the heartbeat thread, an explicit
  // call racing the background scan can legitimately find nothing left.
  [[nodiscard]] ReapReport reap_totals() const noexcept {
    ReapReport r;
    r.mounts = static_cast<unsigned>(
        mount_reclaims_.load(std::memory_order_relaxed));
    r.reserved_blocks = reap_blocks_.load(std::memory_order_relaxed);
    r.file_locks = static_cast<unsigned>(
        reap_file_locks_.load(std::memory_order_relaxed));
    r.segment_locks = static_cast<unsigned>(
        reap_segment_locks_.load(std::memory_order_relaxed));
    return r;
  }
  [[nodiscard]] MountRegistry& mount_registry() noexcept {
    return *registry_;
  }
  [[nodiscard]] std::uint64_t mount_token() const noexcept {
    return attachment_.token;
  }

  // Report of the most recent recover() on this instance (all zeros if none
  // ran) — lets tests and the crash harness observe what an auto-recovering
  // mount() did without re-running recovery.
  [[nodiscard]] const RecoveryReport& last_recovery() const noexcept {
    return last_recovery_;
  }

  // Capacity summary (statfs).  live_inodes scans the inode pool.
  [[nodiscard]] FsStat fsstat();

  // Fig. 7k "relaxed": disable the per-file exclusive write lock and let
  // the application coordinate shared-file writes itself.
  void set_relaxed_writes(bool relaxed) noexcept { relaxed_writes_ = relaxed; }
  [[nodiscard]] bool relaxed_writes() const noexcept {
    return relaxed_writes_;
  }

  // Shrinks every busy-wait lease (crash tests).
  void set_lease_ns(std::uint64_t ns);

  // ---- write-behind tier (write_behind.h) ----
  // nullptr during mount-time recovery and after unmount(): every file is
  // strict then.
  [[nodiscard]] WriteBehind* write_behind() noexcept { return wb_.get(); }
  // Binds a durability class to an inode; a downgrade to strict flushes the
  // inode's staged ranges first.  No-op success when there is no tier.
  Status apply_durability(std::uint64_t ino_off, Durability d);

  // ---- metadata-service mode (core/svc_ring.h) ----
  // Opt-in: attaches this mount to the shm request ring (electing it owner
  // when the seat is empty) and routes every namespace/allocation mutation
  // of its processes through the owner from then on.  Reads/writes keep the
  // direct NVMM path.  Errc::no_space when the shm device cannot hold the
  // ring.
  Status enable_service_mode();
  [[nodiscard]] MetaService* meta_service() noexcept { return meta_.get(); }
  // True once enable_service_mode() succeeded on this mount.
  [[nodiscard]] bool service_mode() const noexcept;

  // ---- integrity layer (core/integrity.h, core/scrub.h) ----
  [[nodiscard]] CrcTable& crc() noexcept { return crc_; }
  // verify_reads mode (off at format/mount): do_read recomputes each
  // touched block's CRC32C and fails with Errc::io on a mismatch.
  // Incompatible with relaxed writes (unlocked writers legitimately leave
  // entry and bytes out of step mid-write).
  void set_verify_reads(bool on) noexcept { verify_reads_ = on; }
  [[nodiscard]] bool verify_reads() const noexcept { return verify_reads_; }
  void note_crc_failure() noexcept {
    crc_verify_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  // Background checksum scrubber; present after format/mount, idle until
  // started (or driven synchronously via run_pass in tests).
  [[nodiscard]] Scrubber& scrubber() noexcept { return *scrub_; }

  // ---- data-path plumbing shared with the write-behind drain ----
  // Streams [off, off+n) into the file's blocks (extent allocation + one
  // nt_copy per run) and zeroes what it grows the file over from `eof`
  // (DESIGN.md §13.4).  NO size/mtime stamp: the caller owns the commit
  // (strict do_write fences + stamps per write; the epoch drain fences once
  // per epoch and stamps through the journal).  Fences only a hole fill's
  // bytes before mapping them.  Caller holds the file's exclusive lock.
  Status write_file_bytes(Inode& ino, std::uint64_t ino_off, const void* buf,
                          std::size_t n, std::uint64_t off, std::uint64_t eof);
  // Zeroes the bytes of [from, to) that lie in mapped blocks and re-stamps
  // those blocks' checksums: what a growth from `from` to `to` exposes.
  // Flushes, does not fence.  Caller holds the file's exclusive lock.
  void zero_mapped(Inode& ino, std::uint64_t ino_off, std::uint64_t from,
                   std::uint64_t to);

  // Path-lookup cache A/B switch (benches, tests); toggles both the
  // per-component cache and the directory-path layer.  On at format/mount.
  void set_lookup_cache_enabled(bool enabled) noexcept {
    walker_->set_cache(enabled ? lookup_cache_.get() : nullptr);
    walker_->set_path_cache(enabled ? path_cache_.get() : nullptr);
  }
  [[nodiscard]] bool lookup_cache_enabled() const noexcept {
    return walker_->cache() != nullptr;
  }
  [[nodiscard]] LookupCache& lookup_cache() noexcept {
    return *lookup_cache_;
  }
  [[nodiscard]] PathCache& path_cache() noexcept { return *path_cache_; }

  // Extent-cache A/B switch (benches, tests).  On at format/mount.
  void set_extent_cache_enabled(bool enabled) noexcept {
    extent_cache_on_ = enabled;
  }
  [[nodiscard]] ExtentCache& extent_cache() noexcept {
    return *extent_cache_;
  }
  [[nodiscard]] ExtentCache* extent_cache_if_enabled() noexcept {
    return extent_cache_on_ ? extent_cache_.get() : nullptr;
  }

  // ---- component access (tests, benches, recovery) ----
  // The superblock lives at device offset 0, which pptr reserves as null,
  // so it is addressed through base() directly.
  [[nodiscard]] Superblock& sb() noexcept {
    return *reinterpret_cast<Superblock*>(dev_->base() + kSuperblockOff);
  }
  [[nodiscard]] nvmm::Device& dev() noexcept { return *dev_; }
  [[nodiscard]] alloc::BlockAllocator& blocks() noexcept { return *blocks_; }
  [[nodiscard]] alloc::ObjectAllocator& pool(PoolId id) noexcept {
    return *pools_[id];
  }
  [[nodiscard]] DirOps& dirops() noexcept { return *dirops_; }
  [[nodiscard]] FileLockTable& file_locks() noexcept { return *locks_; }
  [[nodiscard]] PathWalker& walker() noexcept { return *walker_; }
  [[nodiscard]] std::uint64_t root_off() const noexcept { return root_off_; }
  [[nodiscard]] Inode* inode_at(std::uint64_t off) const noexcept {
    return reinterpret_cast<Inode*>(dev_->at(off));
  }

  // Security bootstrap artifacts (Fig. 2); present after format/mount.
  [[nodiscard]] protsec::Gateway& gateway() noexcept { return *gateway_; }
  [[nodiscard]] protsec::Bootstrap& bootstrap() noexcept {
    return *bootstrap_;
  }
  [[nodiscard]] const protsec::ProtectedLibraryHandle& prot_handle()
      const noexcept {
    return prot_handle_;
  }

 private:
  friend class Process;
  friend class MetaService;
  friend class Scrubber;
  FileSystem(nvmm::Device& nvmm, nvmm::Device& shm);
  // The one wiring path of format() and mount(), run once the allocators
  // and the integrity table are formatted or attached: DirOps, the lock
  // table, the registry attach and heartbeat, the shared allocator state,
  // the root (formatted) or the recovery decision (mounted), the caches
  // and walker, the protected functions, the write-behind tier and the
  // scrubber.
  void attach_components(bool formatted, const FormatOptions& opts);
  void register_protected_functions();
  void poll_coordination_slow();
  // Wall-clock heartbeat pacing (~lease/4): op-driven polling alone stops
  // when the mount goes idle, which must not read as death — peers would
  // reap the live mount and a fresh attacher would become first-in and run
  // recovery concurrently with its operations.  The same thread paces the
  // dead-peer reap scan (once per lease), so the data path never walks the
  // registry or the lock table.  The thread's shm side
  // (heartbeat/reattach) is lock-free, so fork()ed children sharing this
  // mount's slot can never inherit a locked process-private mutex from it.
  void start_heartbeat_thread();
  void stop_heartbeat_thread();

  nvmm::Device* dev_;
  nvmm::Device* shm_;
  std::uint64_t root_off_ = 0;
  bool relaxed_writes_ = false;
  bool unmounted_ = false;
  RecoveryReport last_recovery_{};

  std::unique_ptr<MountRegistry> registry_;
  MountRegistry::Attachment attachment_;
  std::thread hb_thread_;
  common::Mutex hb_mutex_;
  std::condition_variable_any hb_cv_;  // waits on common::MutexLock
  bool hb_stop_ GUARDED_BY(hb_mutex_) = false;
  // Bumped to re-pace the heartbeat thread.
  std::uint64_t hb_wake_gen_ GUARDED_BY(hb_mutex_) = 0;
  // Last superblock cache_gen this mount synchronised its DRAM caches to.
  // The slow path (generation moved) serialises on coord_mu_ and clears the
  // caches.  (The field stays atomic, not GUARDED_BY(coord_mu_): the lock
  // serialises the slow-path clear, while the fast path reads
  // cache_gen_seen_ lock-free on every operation.)
  std::atomic<std::uint64_t> cache_gen_seen_{0};
  common::Mutex coord_mu_;
  std::atomic<std::uint64_t> cache_drops_{0};
  std::atomic<std::uint64_t> mount_reclaims_{0};
  std::atomic<std::uint64_t> reap_blocks_{0};
  std::atomic<std::uint64_t> reap_file_locks_{0};
  std::atomic<std::uint64_t> reap_segment_locks_{0};
  // Outstanding lock-sweep debt (wall-clock ns; 0 = none): a victim's
  // registry stamp ages from its last heartbeat, but its lock stamps age
  // from the (later) acquisitions it died holding, so the sweep riding
  // the slot reap can run before those leases expire.  reap_dead_mounts
  // re-sweeps once the debt matures (one lease past the reap, by which
  // time every stamp the victim left has aged out).
  std::atomic<std::uint64_t> lock_sweep_due_ns_{0};
  // The heartbeat thread starts before the DRAM caches exist (recovery may
  // run between attach and the walker's construction); it only reaps once
  // this flips.
  std::atomic<bool> coord_ready_{false};

  std::unique_ptr<alloc::BlockAllocator> blocks_;
  std::unique_ptr<alloc::ObjectAllocator> pools_[kNumPools];
  std::unique_ptr<DirOps> dirops_;
  std::unique_ptr<FileLockTable> locks_;
  std::unique_ptr<LookupCache> lookup_cache_;
  std::unique_ptr<PathCache> path_cache_;
  std::unique_ptr<ExtentCache> extent_cache_;
  bool extent_cache_on_ = true;
  std::unique_ptr<PathWalker> walker_;

  std::unique_ptr<protsec::PageTable> pagetable_;
  std::unique_ptr<protsec::Gateway> gateway_;
  std::unique_ptr<protsec::Bootstrap> bootstrap_;
  protsec::ProtectedLibraryHandle prot_handle_;

  // ---- integrity layer ----
  // Attached at format (which carves the table) and at mount (superblock
  // residency); never detached while mounted.
  CrcTable crc_;
  bool verify_reads_ = false;
  std::atomic<std::uint64_t> crc_verify_failures_{0};
  std::unique_ptr<Scrubber> scrub_;  // created by format()/mount()

  // ---- metadata-service mode ----
  // Null until enable_service_mode().  Declared BEFORE wb_ deliberately:
  // the write-behind persister may carve block reservations through the
  // service proxy during its own destruction, so the MetaService object
  // must outlive wb_ (its server thread, which calls INTO wb_, is joined
  // explicitly at the top of ~FileSystem/unmount before either dies).
  std::unique_ptr<MetaService> meta_;
  std::atomic<std::uint64_t> svc_requests_{0};
  std::atomic<std::uint64_t> svc_local_fastpath_{0};

  // Declared LAST: destroyed first, so the persister thread is joined while
  // every component it drains through (locks_, blocks_, pools_) is alive.
  std::unique_ptr<WriteBehind> wb_;
};

// One client process: credentials + open-file map over the shared FS.
class Process {
 public:
  Process(FileSystem& fs, Credentials cred) : fs_(fs), cred_(cred) {}

  // ---- files ----
  Result<int> open(std::string_view path, int flags, std::uint32_t mode = 0644);
  Status close(int fd);
  Result<std::size_t> read(int fd, void* buf, std::size_t n);
  Result<std::size_t> write(int fd, const void* buf, std::size_t n);
  Result<std::size_t> pread(int fd, void* buf, std::size_t n,
                            std::uint64_t off);
  Result<std::size_t> pwrite(int fd, const void* buf, std::size_t n,
                             std::uint64_t off);
  Result<std::uint64_t> lseek(int fd, std::int64_t off, int whence);
  Status fsync(int fd);
  Status ftruncate(int fd, std::uint64_t size);
  Status fallocate(int fd, std::uint64_t off, std::uint64_t len);
  Result<Stat> fstat(int fd);
  // Selects the file's durability class (write_behind.h).  The path form
  // needs write permission on the file; the fd form needs a writable fd.
  // Note O_SYNC descriptors stay strict regardless of the file's class.
  Status set_durability(std::string_view path, Durability d);
  Status set_durability(int fd, Durability d);

  // ---- namespace ----
  Status mkdir(std::string_view path, std::uint32_t mode = 0755);
  Status rmdir(std::string_view path);
  Status unlink(std::string_view path);
  Status rename(std::string_view from, std::string_view to);
  Result<Stat> stat(std::string_view path);
  Result<Stat> lstat(std::string_view path);
  Status link(std::string_view existing, std::string_view newpath);
  Status symlink(std::string_view target, std::string_view linkpath);
  Result<std::string> readlink(std::string_view path);
  Status truncate(std::string_view path, std::uint64_t size);
  Status access(std::string_view path, unsigned may);
  Status chmod(std::string_view path, std::uint32_t mode);
  Status chown(std::string_view path, std::uint32_t uid, std::uint32_t gid);
  Status utimes(std::string_view path, std::uint64_t atime_ns,
                std::uint64_t mtime_ns);
  // The whole directory in one call: readdir_at from cursor 0, uncapped.
  Result<std::vector<DirEntry>> readdir(std::string_view path);
  // Streaming readdir for giant directories: appends up to `cap` entries to
  // `out` starting at `cursor` (0 = begin) and returns the cursor to resume
  // from, or kReaddirEnd when the scan is finished.  Semantics under
  // concurrent mutation: an entry alive for the whole scan is returned at
  // least once and never skipped; an entry renamed or migrated by a
  // concurrent bucket split may be returned twice (dup-once); entries
  // created or removed mid-scan may or may not appear.  Cursors stay valid
  // across calls and processes as long as the directory exists.
  Result<std::uint64_t> readdir_at(std::string_view path, std::uint64_t cursor,
                                   std::vector<DirEntry>& out,
                                   std::size_t cap);

  [[nodiscard]] const Credentials& cred() const noexcept { return cred_; }
  [[nodiscard]] FileSystem& fs() noexcept { return fs_; }

  // lseek whence values.
  static constexpr int kSeekSet = 0;
  static constexpr int kSeekCur = 1;
  static constexpr int kSeekEnd = 2;

 private:
  friend class FileSystem;
  friend class MetaService;

  // Service-mode arbitration (core/svc_ring.h): when this mount is a
  // client, forwards the mutation to the owner and returns its status;
  // disengaged optional = execute locally (service off, owner fast path, or
  // this Process IS the server-side worker).
  std::optional<Status> route_meta(SvcOp op, std::string_view p1,
                                   std::string_view p2, std::uint64_t a0,
                                   std::uint64_t a1,
                                   std::uint64_t* r0 = nullptr);

  // Shared implementation pieces.
  Result<std::uint64_t> create_file(const ResolveResult& where,
                                    std::uint32_t mode, std::uint32_t type,
                                    std::string_view symlink_target = {});
  // Resolve + permission-check + create a regular file at `path` (open's
  // O_CREAT step); shared by the local path and the service-mode server.
  Result<std::uint64_t> create_path(std::string_view path,
                                    std::uint32_t mode);
  // Resolve + permission-check the target of set_durability(path); returns
  // the inode offset so service-mode clients can apply the class to their
  // own write-behind tier after arbitration.
  Result<std::uint64_t> durability_target(std::string_view path);
  Status drop_inode(std::uint64_t inode_off);
  Result<std::size_t> do_read(Inode& ino, std::uint64_t ino_off, void* buf,
                              std::size_t n, std::uint64_t off);
  // `append` resolves the write position under the file lock (or, in
  // relaxed mode, by an atomic size reservation) and reports it through
  // `pos_out` so the caller can advance its fd cursor.
  Result<std::size_t> do_write(Inode& ino, std::uint64_t ino_off,
                               const void* buf, std::size_t n,
                               std::uint64_t off, bool append = false,
                               std::uint64_t* pos_out = nullptr);
  Status truncate_inode(std::uint64_t ino_off, std::uint64_t size);
  Stat stat_of(std::uint64_t ino_off) const;

  FileSystem& fs_;
  Credentials cred_;
  OpenFileMap fds_;
  // Set on the worker Process each service-mode server thread dispatches
  // through: its mutations execute locally (it already IS the arbiter)
  // instead of re-routing into the ring.
  bool svc_worker_ = false;
};

// Wall-clock timestamp helper shared by the FS code.
std::uint64_t wall_ns() noexcept;

}  // namespace simurgh::core
