// On-media layout of a Simurgh file system (Fig. 3).
//
// NVMM device:
//   [0]              Superblock (one 4 KB page): magic, geometry, the four
//                    metadata pool headers, and the root inode pointer.
//   [4 KB]           Block-allocator header + per-segment headers.
//   [60 KB]          Write-behind epoch journal (one page).
//   [64 KB]          Block-allocator bitmap (layout v3): 1 bit per data
//                    block, set = in use; 12 KB at 384 MB, 128 KB at 4 GB.
//   [sb.data_off]    Block area — everything else, right after the bitmap:
//                    the CRC table, pool segments (inodes, file entries,
//                    directory hash blocks, extent-spill blocks) and file
//                    data blocks.
//
// Shared-DRAM device (volatile, shared by all client processes):
//   [0]              ShmHeader — magic/geometry, the mount registry
//                    (lease-stamped attachment slots), and the shared
//                    allocator runtime state (block reservations, free-
//                    object rings; alloc/shm_state.h).
//   [...]            Per-file reader/writer lock table (open addressing,
//                    keyed by inode offset).
//
// Every cross-structure reference is an nvmm::pptr (device offset); inode
// identity *is* the inode's offset — there are no inode numbers (§4.3).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "alloc/block_alloc.h"
#include "alloc/obj_alloc.h"
#include "alloc/shm_state.h"
#include "common/lease.h"
#include "common/thread_annotations.h"
#include "nvmm/pptr.h"

namespace simurgh::core {

constexpr std::uint64_t kSuperblockMagic = 0x53494d5552474831ull;  // SIMURGH1
constexpr std::uint32_t kLayoutVersion = 3;

constexpr std::uint64_t kSuperblockOff = 0;
constexpr std::uint64_t kBlockAllocOff = 4096;
// Block-allocator header + up to kMaxSegments segment headers fit below
// this; the allocator's bitmap starts here and the data blocks follow it
// (sb.data_off).
constexpr std::uint64_t kDataAreaOff = 64 * 1024;
constexpr unsigned kMaxSegments = 256;
// Write-behind epoch journal: the last 4 KB page of the metadata area
// (block-alloc header + 256 × 64 B segment headers stop well short of it).
constexpr std::uint64_t kWbJournalOff = kDataAreaOff - 4096;
static_assert(kBlockAllocOff + 4096 + kMaxSegments * 64 <= kWbJournalOff);

// Metadata object pools (§4.2).  Pool payload sizes are chosen so strides
// are cache-line multiples; see inode.h / dir_block.h for the structures.
enum PoolId : unsigned {
  kPoolInode = 0,
  kPoolFileEntry = 1,
  kPoolDirBlock = 2,
  kPoolExtent = 3,
  kNumPools = 4,
};

constexpr std::uint64_t kInodePayload = 248;      // stride 256
constexpr std::uint64_t kFileEntryPayload = 312;  // stride 320
constexpr std::uint64_t kDirBlockPayload = 4088;  // stride 4096
constexpr std::uint64_t kExtentPayload = 4088;    // stride 4096

struct Superblock {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  // 1 after a clean unmount; 0 while mounted.  A mount observing 0 must run
  // full recovery (improper shutdown, §4.3).
  std::atomic<std::uint32_t> clean_shutdown{0};
  std::uint64_t device_size = 0;
  std::uint64_t data_off = 0;
  std::uint64_t n_cores = 0;  // segments = 2 * n_cores at format time
  // Integrity layer (core/integrity.h, layout version 2): device offset and
  // length (4 KB blocks) of the per-block CRC32C table, carved from the
  // data area at format time.  One 4-byte entry per data-area block; an
  // entry of 0 means "no checksum recorded" and every verifier skips it.
  std::uint64_t crc_table_off = 0;
  std::uint64_t crc_table_blocks = 0;
  alloc::PoolHeader pools[kNumPools];
  nvmm::atomic_pptr<struct Inode> root;
  // Generation source for directory mutation epochs (volatile semantics,
  // like DirBlock::epoch — never meaningfully persisted).  Every new first
  // hash block is stamped from it (DirOps::create_dir_block) and retiring a
  // directory advances it past the dead directory's final epoch
  // (DirOps::retire_dir_epoch), so a recycled offset can never replay an
  // epoch value some DRAM cache entry was filled against (lookup_cache.h).
  // Cache-line isolated: this counter is RMWed by every mkdir/rmdir on
  // every mount, and must not share a line with anything the read path
  // polls (cache_gen) or the other epoch source.
  alignas(64) std::atomic<std::uint64_t> dir_epoch_gen{0};
  // Same construction for *file* extent-map epochs (Inode::ext_epoch,
  // extent_cache.h): new regular files stamp their epoch from here
  // (Process::create_file) and dropping a file's last link advances the
  // counter past the dead file's final epoch (Process::drop_inode), closing
  // the recycled-inode-offset ABA for the DRAM extent cache.
  alignas(64) std::atomic<std::uint64_t> file_epoch_gen{0};
  // Cross-mount cache-invalidation generation.  recover() bumps it, and so
  // does a survivor's reap that released a dead peer's file locks: both can
  // leave objects changed behind the per-directory / per-file epochs the
  // DRAM caches validate against.  Every mount polls it on entry to an
  // operation (the ONLY cross-mount line the fast path reads) and, when it
  // moved, drops its DRAM caches whole.  NVMM-resident so peer mounts —
  // separate processes — observe the bumps.  Older layout-v2 images keep
  // eight per-shard generation lines after it; nothing reads them.
  alignas(64) std::atomic<std::uint64_t> cache_gen{0};
};
static_assert(sizeof(Superblock) <= 4096);

// ---- write-behind epoch journal (write_behind.cc) ----
//
// One NVMM page that makes a group-commit epoch crash-atomic.  The drain
// protocol is:
//   1. stream every staged range into place (nt_copy), one fence — the data
//      is durable but invisible (no size moved);
//   2. fill `entries`/`epoch_seq`/`n_entries`, persist, fence; then set
//      state = armed, persist, fence (the intent record: "this epoch's data
//      is durable, its size stamps may be torn");
//   3. apply the per-inode size/mtime stamps, one fence;
//   4. committed_seq = epoch_seq, persist, fence; state = idle, persist,
//      fence.
// Recovery (and a survivor stealing `lock` from a dead peer) rolls an armed
// journal FORWARD — the arm record proves the data under the stamps is
// durable — making "epoch k durable ⇒ all epochs < k durable" structural:
// committed_seq is the single monotonic commit counter and epochs arm
// through this one page in order.  fsck rejects an armed journal in a
// quiescent image, like an armed directory split or rename log.
struct WbJournalEntry {
  std::uint64_t ino_off = 0;
  std::uint64_t new_size = 0;
  std::uint64_t mtime_ns = 0;
};

constexpr unsigned kWbJournalCap = 128;  // distinct inodes per epoch
constexpr std::uint32_t kWbJournalIdle = 0;
constexpr std::uint32_t kWbJournalArmed = 1;

// The journal page is itself the capability its lease lock protects
// (thread_annotations.h pattern 2): WriteBehind::lock_journal /
// unlock_journal are ACQUIRE(j)/RELEASE(j), and the arm/commit sequence in
// drain_epoch runs with the capability held.  The attribute adds no bytes —
// the static_asserts below still pin the on-media layout.
struct CAPABILITY("wb_journal_lease") WbJournal {
  // Line 0: the commit record.  committed_seq and state are stamped by
  // separate persist+fence steps so an armed journal can never claim a
  // commit that did not happen (8-byte store atomicity is enough).
  std::atomic<std::uint64_t> committed_seq{0};
  std::atomic<std::uint32_t> state{kWbJournalIdle};
  std::uint32_t n_entries = 0;
  std::uint64_t epoch_seq = 0;
  // Cross-mount drain lock: epochs from concurrent mounts serialize their
  // arm/commit through this page.  A stealer finding the journal armed
  // rolls it forward first.
  common::LeaseLock lock;
  std::uint8_t pad_[64 - 40];
  WbJournalEntry entries[kWbJournalCap];
};
static_assert(sizeof(WbJournal) <= 4096);
static_assert(offsetof(WbJournal, lock) == 24);
static_assert(offsetof(WbJournal, entries) == 64);

// ---- shared-DRAM runtime state ----

constexpr std::uint64_t kShmMagic = 0x53494d5f53484d31ull;  // "SIM_SHM1"

// Busy-wait reader/writer lock with a lease stamp so survivors can detect a
// crashed holder (common/lease.h rules over its own word shape).
// A capability: FileLockTable::lock_shared/lock_exclusive acquire it (with
// the lease-steal path counting as an acquisition by the thief — exactly
// the runtime ownership contract).
struct CAPABILITY("file_lease_lock") FileLock {
  std::atomic<std::uint64_t> inode_off{0};  // key; 0 = empty slot
  std::atomic<std::uint32_t> word{0};       // writer bit 31, readers 0..30
  std::atomic<std::uint64_t> stamp_ns{0};
};

// One attached FileSystem instance ("mount").  A slot is claimed at attach
// under the registry lock, heartbeat-stamped on every operation, and
// released at clean unmount.  A slot whose heartbeat exceeded the mount
// lease is a dead mount: any survivor may reclaim its cross-process state
// (file locks, segment locks, block reservations) and clear the slot.
// Padded to a cache line: every mount CASes its own slot's heartbeat at
// ~lease/4, and 24-byte slots put adjacent mounts' heartbeats on one line.
struct alignas(64) MountSlot {
  std::atomic<std::uint64_t> token{0};  // 0 = free
  std::atomic<std::uint64_t> heartbeat_ns{0};
  std::atomic<std::uint64_t> attach_gen{0};
};
static_assert(sizeof(MountSlot) == 64);

constexpr unsigned kMaxMountSlots = 64;

// Capability for the embedded registry lease lock: MountRegistry's
// lock_registry/unlock_registry are ACQUIRE(header())/RELEASE(header()),
// serialising attach/detach/reap transitions over `mounts` and
// `dirty_deaths`.
struct CAPABILITY("mount_registry_lease") ShmHeader {
  std::uint64_t magic = 0;
  std::uint64_t n_locks = 0;  // power of two
  // ---- mount registry ----
  // Serialises attach/detach/reap and the clean-flag transitions they gate.
  common::LeaseLock registry_lock;
  // Token of a first-in mount currently running full recovery; later
  // attachers wait until it clears (or its lease expires).
  std::atomic<std::uint64_t> recovering{0};
  // Mounts that died uncleanly since the registry was formatted.  A dead
  // mount's lease reclaim returns its locks and reservations, but its
  // in-flight (valid+dirty) metadata objects still need the next full
  // recovery — so last-out only marks the superblock clean when this is 0.
  std::atomic<std::uint64_t> dirty_deaths{0};
  std::atomic<std::uint64_t> attach_counter{0};
  MountSlot mounts[kMaxMountSlots];
  // Cross-mount allocator state: shared block reservations + the shared
  // free-object rings (see alloc/shm_state.h).
  alloc::ShmAllocShared alloc_shared;
  // FileLock[n_locks] follows.
};
static_assert(offsetof(ShmHeader, registry_lock) == 16);
static_assert(offsetof(ShmHeader, recovering) == 32);

}  // namespace simurgh::core
