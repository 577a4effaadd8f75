#include "core/check.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace simurgh::core {

namespace {

constexpr std::size_t kMaxErrors = 256;

const char* const kPoolNames[kNumPools] = {"inode", "fentry", "dirblock",
                                           "extent"};

// Block-claim bookkeeping: who owns each block of the data area.
enum BlockOwner : std::uint8_t {
  kOwnerNone = 0,
  kOwnerPoolSegment,
  kOwnerFileData,
  kOwnerSymlinkData,
  kOwnerFreeList,
  kOwnerReservation,
  kOwnerCrcTable,
};

const char* owner_name(std::uint8_t o) noexcept {
  switch (o) {
    case kOwnerPoolSegment: return "pool segment";
    case kOwnerFileData: return "file extent";
    case kOwnerSymlinkData: return "symlink target";
    case kOwnerFreeList: return "free list";
    case kOwnerReservation: return "thread reservation";
    case kOwnerCrcTable: return "crc table";
    default: return "nothing";
  }
}

class Checker {
 public:
  explicit Checker(FileSystem& fs) : fs_(fs), dev_(fs.dev()) {}

  CheckReport run() {
    if (!check_superblock()) return std::move(r_);
    check_wb_journal();
    scan_pools();
    claim_pool_segments();
    walk_namespace();
    check_link_counts();
    check_leaked_objects();
    check_free_blocks();
    check_block_coverage();
    fill_census();
    return std::move(r_);
  }

 private:
  template <typename... Parts>
  void fail(Parts&&... parts) {
    if (r_.errors.size() >= kMaxErrors) {
      if (r_.errors.size() == kMaxErrors)
        r_.errors.push_back("... further errors suppressed");
      return;
    }
    std::ostringstream os;
    (os << ... << parts);
    r_.errors.push_back(os.str());
  }

  bool check_superblock() {
    const Superblock& sb = fs_.sb();
    if (sb.magic != kSuperblockMagic) {
      fail("superblock: bad magic ", sb.magic);
      return false;
    }
    if (sb.version != kLayoutVersion)
      fail("superblock: layout version ", sb.version, " != ", kLayoutVersion);
    return true;
  }

  // The write-behind epoch journal must be quiescent, like an armed
  // directory split or rename log: recovery (or a journal-lock stealer)
  // rolls an armed epoch forward, so an armed state surviving to fsck means
  // a roll-forward was skipped.  committed_seq going backwards cannot be
  // observed from one page, but an armed epoch at or below the commit
  // counter is the analogous impossibility.
  void check_wb_journal() {
    const WbJournal& j =
        *reinterpret_cast<const WbJournal*>(dev_.at(kWbJournalOff));
    const std::uint32_t state = j.state.load(std::memory_order_acquire);
    if (state == kWbJournalArmed) {
      fail("write-behind epoch journal still armed (epoch ", j.epoch_seq,
           ", committed ", j.committed_seq.load(std::memory_order_relaxed),
           ") in quiescent image");
    } else if (state != kWbJournalIdle) {
      fail("write-behind epoch journal has impossible state ", state);
    }
    if (j.n_entries > kWbJournalCap)
      fail("write-behind epoch journal claims ", j.n_entries,
           " entries (cap ", kWbJournalCap, ")");
  }

  void scan_pools() {
    for (unsigned pi = 0; pi < kNumPools; ++pi) {
      fs_.pool(static_cast<PoolId>(pi))
          .scan([&](std::uint64_t off, std::uint32_t flags) {
            switch (flags) {
              case 0:
                break;
              case alloc::kObjValid:
                valid_[pi].insert(off);
                break;
              case alloc::kObjValid | alloc::kObjDirty:
                fail(kPoolNames[pi], " pool: object @", off,
                     " left allocated-in-flight (flags 11) in quiescent "
                     "image");
                valid_[pi].insert(off);  // still walk it
                break;
              case alloc::kObjDirty:
                fail(kPoolNames[pi], " pool: object @", off,
                     " left free-in-progress (flags 01) in quiescent image");
                break;
              default:
                fail(kPoolNames[pi], " pool: object @", off,
                     " has impossible flags ", flags);
            }
          });
    }
  }

  void claim(std::uint64_t dev_off, std::uint64_t count, std::uint8_t who,
             const char* what) {
    const std::uint64_t data_off = fs_.blocks().data_off();
    const std::uint64_t n_blocks = fs_.blocks().n_blocks_total();
    if (owner_.empty()) owner_.assign(n_blocks, kOwnerNone);
    if (count == 0) {
      fail(what, " @", dev_off, ": zero-length block claim");
      return;
    }
    if (dev_off < data_off || (dev_off - data_off) % alloc::kBlockSize != 0) {
      fail(what, " @", dev_off, ": offset outside/unaligned in data area");
      return;
    }
    const std::uint64_t first = (dev_off - data_off) / alloc::kBlockSize;
    if (first + count > n_blocks) {
      fail(what, " @", dev_off, ": ", count,
           " blocks run past the end of the data area");
      return;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      if (owner_[first + i] != kOwnerNone) {
        fail("block ", first + i, " (@", data_off + (first + i) *
             alloc::kBlockSize, ") claimed by both ",
             owner_name(owner_[first + i]), " and ", what);
      } else {
        owner_[first + i] = who;
      }
    }
  }

  void claim_pool_segments() {
    for (unsigned pi = 0; pi < kNumPools; ++pi)
      fs_.pool(static_cast<PoolId>(pi))
          .for_each_segment([&](std::uint64_t seg_off, std::uint64_t n) {
            claim(seg_off, n, kOwnerPoolSegment, "pool segment");
          });
    const Superblock& sb = fs_.sb();
    if (sb.crc_table_blocks != 0)
      claim(sb.crc_table_off, sb.crc_table_blocks, kOwnerCrcTable,
            "crc table");
  }

  void walk_namespace() {
    const std::uint64_t root_off = fs_.sb().root.load().raw();
    if (root_off == 0 || valid_[kPoolInode].count(root_off) == 0) {
      fail("superblock: root @", root_off, " is not a valid inode object");
      return;
    }
    Inode* root = fs_.inode_at(root_off);
    if (!root->is_dir()) {
      fail("superblock: root inode @", root_off, " is not a directory");
      return;
    }
    refs_[root_off] = 1;  // the superblock's own reference
    reached_[kPoolInode].insert(root_off);
    std::vector<std::uint64_t> stack{root_off};
    while (!stack.empty()) {
      const std::uint64_t dir_off = stack.back();
      stack.pop_back();
      check_directory(dir_off, stack);
    }
  }

  void check_directory(std::uint64_t dir_off,
                       std::vector<std::uint64_t>& stack) {
    Inode* dir = fs_.inode_at(dir_off);
    ++r_.directories;
    std::unordered_set<std::uint64_t> chain_seen;
    std::unordered_set<std::string> names;
    const nvmm::pptr<DirBlock> first = dir->dir.load();
    if (!first) {
      fail("directory @", dir_off, ": no hash block");
      return;
    }
    DirBlock* anchor = first.in(dev_);
    const std::uint64_t depth = anchor->depth.load(std::memory_order_acquire);
    const std::uint32_t split_state =
        anchor->split_state.load(std::memory_order_acquire);
    if (split_state != 0)
      fail("directory @", dir_off, ": bucket split still armed (state=",
           split_state, ") in quiescent image");
    if (depth > kMaxBucketBits)
      fail("directory @", dir_off, ": impossible bucket depth ", depth);
    const std::uint64_t n_buckets =
        (depth == 0 || depth > kMaxBucketBits) ? 0 : (1ull << depth);
    for (unsigned i = 0; i < kMaxDirBuckets; ++i) {
      const bool have = static_cast<bool>(anchor->bucket_heads[i].load());
      if (i < n_buckets && !have)
        fail("directory @", dir_off, ": bucket ", i,
             " head missing at depth ", depth);
      else if (i >= n_buckets && have)
        fail("directory @", dir_off, ": bucket ", i,
             " head present beyond depth ", depth);
    }

    // One chain walk.  `bucket` >= 0 pins every entry's hashed bucket (a
    // bucket chain after fan-out); -1 skips the bucket check (unsplit
    // anchor).  `expect_empty` marks the legacy chain of a settled split,
    // which migration must have fully drained.
    auto walk_chain = [&](nvmm::pptr<DirBlock> b, bool is_anchor, int bucket,
                          bool expect_empty) {
      bool first_block = true;
      while (b) {
        const std::uint64_t blk_off = b.raw();
        if (!chain_seen.insert(blk_off).second) {
          fail("directory @", dir_off, ": hash-block chain loops at @",
               blk_off);
          break;
        }
        if (valid_[kPoolDirBlock].count(blk_off) == 0)
          fail("directory @", dir_off, ": chain block @", blk_off,
               " is not a valid dirblock object");
        reached_[kPoolDirBlock].insert(blk_off);
        DirBlock* blk = b.in(dev_);
        // Lock words live on every lockable block: the anchor and each
        // bucket head carry per-line busy bits; the rename marker and the
        // cross-directory log only ever arm on the anchor.
        if (first_block &&
            blk->busy.load(std::memory_order_acquire) != 0)
          fail("directory @", dir_off, ": busy line bits ",
               blk->busy.load(std::memory_order_relaxed),
               " set in quiescent image");
        if (first_block && is_anchor) {
          if (blk->rename_busy.load(std::memory_order_acquire) != 0)
            fail("directory @", dir_off,
                 ": intra-directory rename marker set in quiescent image");
          if (blk->log.state.load(std::memory_order_acquire) != 0)
            fail("directory @", dir_off,
                 ": cross-directory rename log still armed (state=",
                 blk->log.state.load(std::memory_order_relaxed), ")");
          if (blk->log_lock.owner.load(std::memory_order_acquire) != 0)
            fail("directory @", dir_off,
                 ": rename-log lock held in quiescent image");
        }
        for (unsigned ln = 0; ln < kLines; ++ln)
          for (unsigned s = 0; s < kSlotsPerLine; ++s) {
            const std::uint64_t v =
                blk->lines[ln].slots[s].v.load(std::memory_order_acquire);
            if (expect_empty && DirSlot::off_of(v) != 0)
              fail("directory @", dir_off, ": entry left in legacy chain @",
                   blk_off, " after a settled split");
            check_slot(dir_off, depth, bucket, ln, v, names, stack);
          }
        b = blk->next.load();
        first_block = false;
      }
    };
    walk_chain(first, /*is_anchor=*/true, /*bucket=*/-1,
               /*expect_empty=*/n_buckets != 0);
    for (std::uint64_t i = 0; i < n_buckets; ++i) {
      const nvmm::pptr<DirBlock> hb = anchor->bucket_heads[i].load();
      if (!hb) continue;  // missing head already reported above
      walk_chain(hb, /*is_anchor=*/false, static_cast<int>(i),
                 /*expect_empty=*/false);
    }
  }

  void check_slot(std::uint64_t dir_off, std::uint64_t depth, int bucket,
                  unsigned ln, std::uint64_t v,
                  std::unordered_set<std::string>& names,
                  std::vector<std::uint64_t>& stack) {
    const std::uint64_t fe_off = DirSlot::off_of(v);
    if (fe_off == 0) return;
    if (valid_[kPoolFileEntry].count(fe_off) == 0) {
      fail("directory @", dir_off, " line ", ln,
           ": slot references non-valid file entry @", fe_off);
      return;
    }
    if (!reached_[kPoolFileEntry].insert(fe_off).second) {
      fail("file entry @", fe_off, " referenced by more than one slot");
      return;
    }
    const auto* fe = reinterpret_cast<const FileEntry*>(dev_.at(fe_off));
    const std::string name(fe->name_view());
    if (name.empty() || name.size() > kMaxName) {
      fail("file entry @", fe_off, ": bad name length ", name.size());
    } else {
      if (line_of(name) != ln)
        fail("entry '", name, "' @", fe_off, " stored in line ", ln,
             " but its name hashes to line ", line_of(name),
             " (unrepaired rename)");
      if (tag_of_name(name) != DirSlot::tag_of(v))
        fail("entry '", name, "' @", fe_off, ": slot tag ",
             DirSlot::tag_of(v), " != name tag ", tag_of_name(name));
      if (bucket >= 0 &&
          bucket_of(name, depth) != static_cast<unsigned>(bucket))
        fail("entry '", name, "' @", fe_off, " stored in bucket ", bucket,
             " but its name hashes to bucket ", bucket_of(name, depth),
             " at depth ", depth);
      // `names` spans every chain of the directory, so a split entry
      // duplicated across the legacy and bucket chains is caught here.
      if (!names.insert(name).second)
        fail("duplicate name '", name, "' in directory @", dir_off);
    }
    const std::uint64_t ino_off = fe->inode.load().raw();
    if (ino_off == 0) {
      fail("entry '", name, "' @", fe_off, ": null inode pointer");
      return;
    }
    if (valid_[kPoolInode].count(ino_off) == 0) {
      fail("entry '", name, "' @", fe_off,
           ": references non-valid inode @", ino_off);
      return;
    }
    ++refs_[ino_off];
    Inode* ino = fs_.inode_at(ino_off);
    const bool entry_symlink =
        (fe->flags.load(std::memory_order_acquire) & kEntrySymlink) != 0;
    if (entry_symlink != ino->is_symlink())
      fail("entry '", name, "' @", fe_off,
           ": symlink flag disagrees with inode @", ino_off, " mode");
    if (!reached_[kPoolInode].insert(ino_off).second) {
      // Hard link to a file/symlink — legal.  A directory reachable twice
      // would make the namespace a DAG/cycle.
      if (ino->is_dir())
        fail("directory inode @", ino_off,
             " reachable through more than one entry");
      return;
    }
    if (ino->is_dir()) {
      stack.push_back(ino_off);
    } else if (ino->is_file()) {
      ++r_.files;
      check_file(ino_off, *ino);
    } else if (ino->is_symlink()) {
      ++r_.symlinks;
      check_symlink(ino_off, *ino);
    } else {
      fail("inode @", ino_off, ": unknown mode type ",
           ino->mode.load(std::memory_order_relaxed));
    }
  }

  void check_file(std::uint64_t ino_off, Inode& ino) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
    ExtentMap map(dev_, fs_.pool(kPoolExtent), ino, ino_off);
    map.for_each([&](const Extent& e) {
      if (e.n_blocks == 0) {
        fail("inode @", ino_off, ": zero-length extent in spill chain");
        return;
      }
      claim(e.dev_off, e.n_blocks, kOwnerFileData, "file extent");
      runs.emplace_back(e.file_block, e.n_blocks);
      r_.data_blocks_in_use += e.n_blocks;
      // Integrity pass: every data block with a recorded checksum must
      // match its stored CRC32C (entry 0 == "none recorded" is skipped
      // inside verify()).
      if (fs_.crc().attached()) {
        for (std::uint64_t b = 0; b < e.n_blocks; ++b) {
          const std::uint64_t blk = e.dev_off + b * alloc::kBlockSize;
          if (!fs_.crc().verify(blk)) {
            fail("inode @", ino_off, ": CRC mismatch at data block @", blk,
                 " (file block ", e.file_block + b, ")");
            ++r_.crc_mismatches;
          }
        }
      }
    });
    std::sort(runs.begin(), runs.end());
    for (std::size_t i = 1; i < runs.size(); ++i)
      if (runs[i - 1].first + runs[i - 1].second > runs[i].first)
        fail("inode @", ino_off, ": extents overlap at file block ",
             runs[i].first);
    // No block is mapped past EOF in a quiescent image: a write stamps the
    // size after mapping, fallocate grows the size over what it maps, a
    // failed write maps nothing, and recovery unmaps what a crash left
    // there.  Bytes past EOF inside the last block are undefined (§13.4):
    // each growth path zeroes what it exposes, so they are not checked.
    const std::uint64_t size = ino.size.load(std::memory_order_relaxed);
    const std::uint64_t eof_blocks =
        (size + alloc::kBlockSize - 1) / alloc::kBlockSize;
    for (const auto& [first, n] : runs) {
      if (first + n > eof_blocks) {
        fail("inode @", ino_off, ": block mapped past EOF at file block ",
             std::max(first, eof_blocks), " (size ", size, ")");
        break;
      }
    }
    std::unordered_set<std::uint64_t> seen;
    nvmm::pptr<ExtentBlock> eb = ino.ext_spill.load();
    while (eb) {
      if (!seen.insert(eb.raw()).second) {
        fail("inode @", ino_off, ": extent spill chain loops at @",
             eb.raw());
        break;
      }
      if (valid_[kPoolExtent].count(eb.raw()) == 0)
        fail("inode @", ino_off, ": spill block @", eb.raw(),
             " is not a valid extent object");
      reached_[kPoolExtent].insert(eb.raw());
      const ExtentBlock* x = eb.in(dev_);
      if (x->n > ExtentBlock::kCapacity)
        fail("extent block @", eb.raw(), ": count ", x->n,
             " exceeds capacity");
      eb = x->next;
    }
  }

  void check_symlink(std::uint64_t ino_off, Inode& ino) {
    const std::uint64_t len = ino.size.load(std::memory_order_relaxed);
    if (len <= kInlineSymlinkMax) return;
    const Extent& e = ino.extents[0];
    claim(e.dev_off, e.n_blocks, kOwnerSymlinkData, "symlink target");
    if (e.n_blocks * alloc::kBlockSize < len + 1)
      fail("symlink inode @", ino_off, ": target of ", len,
           " bytes but only ", e.n_blocks, " blocks allocated");
    r_.data_blocks_in_use += e.n_blocks;
  }

  void check_link_counts() {
    for (const std::uint64_t off : reached_[kPoolInode]) {
      const std::uint32_t want = refs_[off];
      const std::uint32_t have =
          fs_.inode_at(off)->nlink.load(std::memory_order_acquire);
      if (have != want)
        fail("inode @", off, ": nlink=", have, " but ", want,
             " directory reference", want == 1 ? "" : "s", " observed");
    }
  }

  void check_leaked_objects() {
    for (unsigned pi = 0; pi < kNumPools; ++pi)
      for (const std::uint64_t off : valid_[pi])
        if (reached_[pi].count(off) == 0)
          fail(kPoolNames[pi], " pool: valid object @", off,
               " unreachable from the root (leak)");
  }

  // The block census's free side: every maximal free run of the bitmap.
  void check_free_blocks() {
    alloc::BlockAllocator& blocks = fs_.blocks();
    blocks.for_each_free_range([&](std::uint64_t off, std::uint64_t count) {
      claim(off, count, kOwnerFreeList, "free range");
      r_.free_blocks += count;
    });
    // On a live mount, blocks carved into thread-local reservations are
    // still free space — their bits are set, but they sit in a thread's shm
    // slot rather than in any file.  (Crash images never reach here with
    // reservations: recovery invalidates them and the rebuild frees them.)
    blocks.for_each_reservation([&](std::uint64_t off, std::uint64_t count) {
      claim(off, count, kOwnerReservation, "thread reservation");
      r_.free_blocks += count;
    });
  }

  void check_block_coverage() {
    if (owner_.empty()) owner_.assign(fs_.blocks().n_blocks_total(),
                                      kOwnerNone);
    const std::uint64_t data_off = fs_.blocks().data_off();
    for (std::uint64_t i = 0; i < owner_.size(); ++i)
      if (owner_[i] == kOwnerNone)
        fail("block ", i, " (@", data_off + i * alloc::kBlockSize,
             ") neither in use nor on a free list (leak)");
  }

  void fill_census() {
    r_.inodes = reached_[kPoolInode].size();
    r_.file_entries = reached_[kPoolFileEntry].size();
    r_.dir_blocks = reached_[kPoolDirBlock].size();
    r_.extent_blocks = reached_[kPoolExtent].size();
  }

  FileSystem& fs_;
  nvmm::Device& dev_;
  CheckReport r_;
  std::unordered_set<std::uint64_t> valid_[kNumPools];
  std::unordered_set<std::uint64_t> reached_[kNumPools];
  std::unordered_map<std::uint64_t, std::uint32_t> refs_;
  std::vector<std::uint8_t> owner_;
};

}  // namespace

std::string CheckReport::summary(std::size_t max_errors) const {
  if (errors.empty()) return "clean";
  std::ostringstream os;
  os << errors.size() << " invariant violation"
     << (errors.size() == 1 ? "" : "s") << ":";
  for (std::size_t i = 0; i < errors.size() && i < max_errors; ++i)
    os << "\n  " << errors[i];
  if (errors.size() > max_errors)
    os << "\n  ... (" << errors.size() - max_errors << " more)";
  return os.str();
}

CheckReport check_fs(FileSystem& fs) { return Checker(fs).run(); }

}  // namespace simurgh::core
