// Full-system crash recovery (§4.3 "Crash recovery", §5.5).
//
// Mark-and-sweep over the whole file system:
//   1. Runtime repairs: every reachable directory replays its
//      cross-directory rename log and fixes interrupted deletes / renames
//      (the same per-line repairs a lease-stealing survivor performs).
//   2. Mark: DFS from the root marks every reachable inode, file entry,
//      directory hash block, extent block and data block.  A file's blocks
//      past EOF are unmapped instead, so the rebuild frees them.
//   3. Sweep: each metadata pool is scanned; the two persistence bits give
//      a unique decision per object — half-freed objects (01) finish their
//      free, reachable in-flight objects (11) are committed, unreachable
//      allocated objects are reclaimed.
//   4. The block allocator's bitmap is rewritten from the mark, and the
//      volatile shared-DRAM lock table is reset.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lease.h"
#include "core/fs.h"
#include "core/write_behind.h"

namespace simurgh::core {

RecoveryReport FileSystem::recover() {
  RecoveryReport report;
  const std::uint64_t t0 = common::monotonic_ns();

  // Long recoveries must not look like a dead mount: a peer blocked in
  // MountRegistry::wait_recovery_done watches our heartbeat, and if it
  // expires mid-sweep it CAS-steals the recovering token and runs a second
  // recover() concurrently with this one — two bitmap rebuilds on the
  // same image corrupt allocator state.  The background heartbeat thread
  // paces this in wall-clock time; the explicit beats threaded through the
  // scan loops below keep recover() safe on its own as well (tests and the
  // crash harness drive it directly).
  std::uint64_t hb_tick = 0;
  auto beat = [&](std::uint64_t every) {
    if (registry_ != nullptr && (++hb_tick & (every - 1)) == 0 &&
        !registry_->heartbeat(attachment_))
      registry_->reattach(attachment_);
  };
  if (registry_ && !registry_->heartbeat(attachment_))
    registry_->reattach(attachment_);

  // Survivor state of crashed processes is gone; volatile caches must not
  // hand out objects the sweep will reason about.
  locks_->reset_all();
  for (auto& p : pools_) p->drop_volatile_cache();
  // The sweep below may reclaim directory first blocks without going
  // through retire_dir_epoch; drop the DRAM lookup state wholesale instead
  // so no pre-recovery binding can validate against whatever epoch streams
  // the recycled blocks start afterwards.
  lookup_cache_->clear();
  path_cache_->clear();
  // Same reasoning for file extent maps: the sweep may reclaim/recycle
  // inodes without going through drop_inode's epoch retirement.
  extent_cache_->clear();
  // Thread-local block reservations reference carved-out blocks that no
  // inode uses; forget them so the rebuild below frees those blocks
  // exactly once (rebuild_bitmap also does this defensively, but the
  // intent belongs here with the other caches).
  blocks_->invalidate_reservations();
  // Write-behind tier: staged DRAM epochs model page-cache state a crash
  // loses — discard them with accounting (the relaxed-class contract).  An
  // epoch journal left ARMED is the opposite case: its data is provably
  // durable and only its size/mtime stamps were in flight — roll it forward
  // BEFORE the mark phase so the sweep sees final sizes.  The roll-forward
  // runs even when the tier is disabled on this mount: the crashed writer
  // may have had it enabled.
  if (wb_) report.wb_staged_discarded = wb_->discard_staged();
  // Under the journal's lease lock (with the dead-peer steal path): on a
  // shared device a live peer may be mid-drain, and an unlocked roll-forward
  // would disarm/commit its armed epoch between its own arm and commit
  // steps, racing the peer's protocol state.
  if (wb_journal_roll_forward_locked(*dev_, mount_token(),
                                     wb_ ? wb_->lease_ns() : kWbLeaseNs))
    report.wb_epochs_rolled_forward = 1;

  const Superblock& s = sb();
  const std::uint64_t n_blocks = blocks_->n_blocks_total();
  const std::uint64_t data_off = blocks_->data_off();
  std::vector<bool> block_used(n_blocks, false);
  auto mark_blocks = [&](std::uint64_t dev_off, std::uint64_t count) {
    const std::uint64_t first = (dev_off - data_off) / alloc::kBlockSize;
    for (std::uint64_t i = 0; i < count && first + i < n_blocks; ++i)
      block_used[first + i] = true;
  };

  std::unordered_set<std::uint64_t> live_inodes, live_fentries,
      live_dirblocks, live_extblocks;
  // Directory references per inode, to repair link counts a crash left
  // over- or under-counted (e.g. between entry removal and nlink store).
  std::unordered_map<std::uint64_t, std::uint32_t> ref_count;

  // ---- mark phase ----
  std::vector<std::uint64_t> stack{s.root.load().raw()};
  live_inodes.insert(stack[0]);
  ref_count[stack[0]] = 1;  // the superblock's root reference
  while (!stack.empty()) {
    beat(64);  // per directory
    const std::uint64_t dir_off = stack.back();
    stack.pop_back();
    Inode* dir = inode_at(dir_off);
    ++report.directories;
    dirops_->recover_directory(*dir);
    // Deferred Fig. 5b step 6: drop emptied chain blocks while offline.
    report.reclaimed_objects += dirops_->compact_chain(*dir);
    // Mark every hash block: the anchor chain plus, once the directory has
    // fanned out, each bucket chain (a plain next-walk would sweep the
    // bucket blocks as unreachable and lose every migrated entry).
    dirops_->for_each_block(
        *dir, [&](DirBlock*, std::uint64_t off) { live_dirblocks.insert(off); });
    (void)dirops_->list_at(*dir, 0, SIZE_MAX, [&](std::string_view,
                                                  std::uint64_t fe_off,
                                                  std::uint64_t ino_off) {
      beat(4096);  // per directory entry
      live_fentries.insert(fe_off);
      if (ino_off == 0) return;
      ++ref_count[ino_off];
      const bool first_visit = live_inodes.insert(ino_off).second;
      if (!first_visit) return;  // hard link already processed
      Inode* ino = inode_at(ino_off);
      if (ino->is_dir()) {
        stack.push_back(ino_off);
      } else if (ino->is_file()) {
        ++report.files;
        ExtentMap map(*dev_, *pools_[kPoolExtent], *ino, ino_off);
        const std::uint64_t fsize = ino->size.load(std::memory_order_relaxed);
        // Mark only blocks below EOF.  An append that died before its size
        // stamp, or a truncate that died between its size commit and
        // drop_from, leaves blocks past it: unmap them, and the rebuild
        // below frees them.  Bytes past EOF inside the last block stay as
        // they are; every growth path zeroes what it exposes (§13.4).
        const std::uint64_t keep =
            (fsize + alloc::kBlockSize - 1) / alloc::kBlockSize;
        bool past_eof = false;
        map.for_each([&](const Extent& e) {
          const std::uint64_t n =
              e.file_block >= keep
                  ? 0
                  : std::min<std::uint64_t>(e.n_blocks, keep - e.file_block);
          mark_blocks(e.dev_off, n);
          report.data_blocks_in_use += n;
          past_eof |= n < e.n_blocks;
        });
        if (past_eof) {
          {
            ExtentEpochGuard guard(*ino);
            map.drop_from(keep, [](std::uint64_t, std::uint64_t) {});
          }
          nvmm::fence();
        }
        // Re-derive the file's block checksums (integrity.h): an in-place
        // overwrite torn by the crash legitimately leaves bytes and entry
        // out of step, and the invariant must hold before any verifier
        // (verify_reads, scrubber, fsck) runs.
        if (crc_.attached()) {
          map.for_each([&](const Extent& e) {
            for (std::uint64_t b = 0; b < e.n_blocks; ++b)
              crc_.stamp(e.dev_off + b * alloc::kBlockSize);
          });
        }
        nvmm::pptr<ExtentBlock> eb = ino->ext_spill.load();
        while (eb) {
          live_extblocks.insert(eb.raw());
          eb = eb.in(*dev_)->next;
        }
      } else if (ino->is_symlink()) {
        ++report.symlinks;
        if (ino->size.load(std::memory_order_relaxed) > kInlineSymlinkMax)
          mark_blocks(ino->extents[0].dev_off, ino->extents[0].n_blocks);
      }
    });
  }

  // ---- sweep phase ----
  const std::unordered_set<std::uint64_t>* live_sets[kNumPools] = {
      &live_inodes, &live_fentries, &live_dirblocks, &live_extblocks};
  for (unsigned pi = 0; pi < kNumPools; ++pi) {
    alloc::ObjectAllocator& pool = *pools_[pi];
    std::vector<std::uint64_t> to_finish, to_reclaim, to_commit;
    pool.scan([&](std::uint64_t off, std::uint32_t flags) {
      beat(4096);  // per pool object
      if (flags == alloc::kObjDirty) {
        to_finish.push_back(off);  // interrupted free: complete it
      } else if (flags != 0) {
        if (live_sets[pi]->count(off) == 0) {
          to_reclaim.push_back(off);  // allocated but unreachable
        } else if (flags == (alloc::kObjValid | alloc::kObjDirty)) {
          to_commit.push_back(off);  // reachable in-flight op: completed
        }
      }
    });
    for (std::uint64_t off : to_finish) pool.finish_pending_free(off);
    for (std::uint64_t off : to_reclaim) pool.free(off);
    for (std::uint64_t off : to_commit) pool.commit(off);
    report.reclaimed_objects += to_finish.size() + to_reclaim.size();
    report.committed_objects += to_commit.size();
  }

  // Reconcile link counts with the surviving namespace: a crash between a
  // directory-entry change and the matching nlink store leaves the count
  // off by one, which would leak (overcount) or prematurely free
  // (undercount) the inode on its eventual last unlink.  Reachable inodes
  // are all valid after the sweep above.
  for (const auto& [ino_off, n] : ref_count) {
    beat(4096);  // per referenced inode
    if (pools_[kPoolInode]->flags_of(ino_off) != alloc::kObjValid) continue;
    Inode* ino = inode_at(ino_off);
    if (ino->nlink.load(std::memory_order_relaxed) != n) {
      ino->nlink.store(n, std::memory_order_relaxed);
      nvmm::persist_obj(ino->nlink);
      ++report.link_counts_repaired;
    }
  }
  if (report.link_counts_repaired > 0) nvmm::fence();

  // ---- rebuild allocator state ----
  // Pool segments stay allocated regardless of object liveness.
  for (const auto& p : pools_)
    p->for_each_segment([&](std::uint64_t seg_off, std::uint64_t count) {
      mark_blocks(seg_off, count);
    });
  // The integrity table is a permanent data-area resident (layout v2).
  if (s.crc_table_blocks != 0)
    mark_blocks(s.crc_table_off, s.crc_table_blocks);
  blocks_->rebuild_bitmap([&](std::uint64_t dev_off) {
    beat(16384);  // per data block
    const std::uint64_t idx = (dev_off - data_off) / alloc::kBlockSize;
    return idx < n_blocks && block_used[idx];
  });

  // Peer mounts must drop their DRAM caches too: the sweep above recycles
  // objects without the per-directory / per-file epoch retirement those
  // caches validate against.  This mount cleared its own caches above, so
  // it marks the new generation seen rather than dropping them again.
  {
    const std::uint64_t gen =
        sb().cache_gen.fetch_add(1, std::memory_order_acq_rel) + 1;
    nvmm::persist_now(sb().cache_gen);
    cache_gen_seen_.store(gen, std::memory_order_relaxed);
  }
  if (registry_ && !registry_->heartbeat(attachment_))
    registry_->reattach(attachment_);

  if (wb_) wb_->resume();  // restart the persister for post-recovery work
  report.seconds = static_cast<double>(common::monotonic_ns() - t0) * 1e-9;
  last_recovery_ = report;
  return report;
}

}  // namespace simurgh::core
