// DRAM path-resolution cache (dentry-style), validated by directory epochs.
//
// Simurgh deliberately has no kernel dentry cache: every component lookup
// probes the persistent hash blocks (§3.2, §4.3).  That keeps the design
// decentralized but makes path-heavy workloads pay O(depth) NVMM probes per
// call.  This cache restores the probe savings without centralizing
// anything: it is a plain DRAM hash table mapping
//
//     (parent directory inode offset, component name)
//         -> (file-entry offset, inode offset)
//
// shared by every Process handle of a mount, and validated against a
// per-directory *epoch counter* that lives in the directory's first hash
// block (shared memory, so cooperating OS processes see each other's
// bumps).  Every DirOps mutation of a directory increments the epoch once
// before its first visible change and once after its last (seqlock-style,
// see DirOps::EpochGuard).  A cache entry records the epoch observed while
// it was filled; a hit is honoured only when the directory's current epoch
// still equals the fill epoch, i.e. when provably *no* mutation of that
// directory became visible since the binding was verified against the hash
// blocks.  Invalidation therefore needs no broadcast and no shootdown —
// stale entries simply stop validating — preserving the paper's fully
// decentralized coordination model.
//
// Epoch values are unique across directory *lifetimes*, not just within
// one: a new directory's epoch is stamped from a mount-wide generation
// counter that retiring any directory advances past its final epoch
// (DirOps::create_dir_block / retire_dir_epoch).  Without that, the object
// allocator's offset recycling would re-arm old entries: a deleted
// directory's (parent_off, name, epoch) could validate again once an
// unrelated directory reusing the same offset counted its own epoch up to
// the recorded value.
//
// The table itself is lock-free: direct-mapped slots, each guarded by a
// per-slot sequence counter (even = stable, odd = being written).  All slot
// fields are relaxed atomics so concurrent fills and probes are race-free
// (and ThreadSanitizer-clean); a torn read is detected by the sequence
// check and treated as a miss.  Component names are stored verbatim (up to
// kCacheNameMax bytes; longer names bypass the cache), so a hit can never
// alias a different name.
//
// Lock discipline: no capabilities declared here on purpose
// (common/thread_annotations.h) — the per-slot seqlock is the protocol, and
// a seqlock's reader side holds nothing the thread-safety analysis could
// model; TSAN plus the sequence check cover it instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

namespace simurgh::core {

struct LookupCacheStats {
  std::uint64_t hits = 0;       // validated hits served from the cache
  std::uint64_t misses = 0;     // empty / different-key slots
  std::uint64_t conflicts = 0;  // key matched but the epoch moved on
  std::uint64_t fills = 0;      // successful inserts
};

class LookupCache {
 public:
  // Longest component name the cache stores; longer names fall back to the
  // hash-block probe (kMaxName still bounds what the FS accepts).
  static constexpr std::size_t kCacheNameMax = 56;
  static constexpr std::size_t kDefaultSlots = 16384;

  explicit LookupCache(std::size_t slots = kDefaultSlots);
  LookupCache(const LookupCache&) = delete;
  LookupCache& operator=(const LookupCache&) = delete;

  [[nodiscard]] static bool cacheable(std::string_view name) noexcept {
    return !name.empty() && name.size() <= kCacheNameMax;
  }

  struct Binding {
    std::uint64_t fentry_off = 0;
    std::uint64_t inode_off = 0;
  };

  // Probes for (parent_off, name).  `dir_epoch` is the parent's current
  // epoch, loaded (acquire) by the caller *before* this call; the hit is
  // only reported when the slot's fill epoch equals it.
  bool get(std::uint64_t parent_off, std::string_view name,
           std::uint64_t dir_epoch, Binding& out) noexcept;

  // Publishes a binding verified against the hash blocks while the
  // directory epoch was `dir_epoch` (the caller re-checks the epoch after
  // the probe and skips the put when it moved).  Never blocks: a slot being
  // written concurrently is simply left alone.
  void put(std::uint64_t parent_off, std::string_view name,
           std::uint64_t dir_epoch, std::uint64_t fentry_off,
           std::uint64_t inode_off) noexcept;

  // Drops every entry: recovery, and a moved cross-mount cache generation
  // (FileSystem::poll_coordination).
  void clear() noexcept;

  [[nodiscard]] LookupCacheStats stats() const noexcept;
  void reset_stats() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return n_slots_; }

 private:
  static constexpr std::size_t kNameWords = kCacheNameMax / 8;  // 7 u64s

  // All fields are atomics accessed relaxed under the per-slot seqlock so
  // concurrent readers/writers never constitute a data race.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // even = stable, odd = writing
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> fentry{0};
    std::atomic<std::uint64_t> inode{0};
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<std::uint64_t> name_len{0};
    std::atomic<std::uint64_t> name[kNameWords];
  };

  [[nodiscard]] Slot& slot_for(std::uint64_t parent_off,
                               std::string_view name) noexcept;

  std::unique_ptr<Slot[]> slots_;
  std::size_t n_slots_;  // power of two
  std::uint64_t mask_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> conflicts_{0};
  mutable std::atomic<std::uint64_t> fills_{0};
};

// Directory-path layer on top of the component cache: maps
//
//     (credentials, path of a directory) -> that directory's inode offset
//
// together with the *validation chain* — the (directory inode offset,
// epoch) pair of every directory the filling walk passed through on the
// way there.  A path's entry is keyed by its directory part, everything
// before the last '/', so "/a/b/f" and "/a/b/g" share the entry for
// "/a/b", and resolve() and resolve_parent() share it too.  A hit is
// honoured only after the walker re-checks that every chained directory
// still carries its recorded epoch (one pass in reverse walk order: each
// ancestor is read after all of its descendants, so a recycled directory
// whose epoch matches by coincidence is always exposed by the ancestor
// bump that its removal required).  Because chmod/chown of a directory
// also bump its own epoch (traversal rights live in the dir's inode), an
// unchanged chain proves the walk to the directory — bindings *and*
// permission checks — would replay identically.  The cached directory is
// not in its own chain: each hit checks its exec right, loads the leaf's
// epoch and looks the leaf up with one ordinary walk step (component cache
// first), so a create, unlink or rename inside the directory invalidates
// nothing here.  Entries are keyed by credentials so one process's
// traversal rights never leak to another.
//
// Same lock-free slot protocol as LookupCache.  Paths whose leaf sits
// directly under the root, or that end in '/', "." or "..", never use this
// layer (dir_of() is empty for them); walks to a directory through a
// symlink, "." or "..", or through more than kMaxChain directories never
// fill it.  The component cache still serves all of these.
class PathCache {
 public:
  static constexpr std::size_t kPathMax = 120;  // longest key stored
  static constexpr std::size_t kMaxChain = 12;  // dirs a cached walk spans
  static constexpr std::size_t kDefaultSlots = 4096;

  explicit PathCache(std::size_t slots = kDefaultSlots);
  PathCache(const PathCache&) = delete;
  PathCache& operator=(const PathCache&) = delete;

  [[nodiscard]] static bool cacheable(std::string_view key) noexcept {
    return !key.empty() && key.size() <= kPathMax;
  }

  // The key `path`'s entry lives under: the path's directory part, or empty
  // when the path bypasses this layer (see the class comment).
  [[nodiscard]] static std::string_view dir_of(std::string_view path) noexcept {
    const std::size_t slash = path.rfind('/');
    if (slash == std::string_view::npos) return {};
    const std::string_view leaf = path.substr(slash + 1);
    if (leaf.empty() || leaf == "." || leaf == "..") return {};
    const std::string_view dir = path.substr(0, slash);
    if (!cacheable(dir) || dir.find_first_not_of('/') == std::string_view::npos)
      return {};
    return dir;
  }

  // One chain link: a directory the walk passed through and the epoch that
  // governed the next component's name in it.  `bucket` is the bucket that
  // name hashed to (0 while the directory was unsplit): once a directory
  // fans out, the epoch is validated against that bucket head's epoch, not
  // the whole directory's.
  struct Link {
    std::uint64_t dir = 0;
    std::uint64_t epoch = 0;
    std::uint32_t bucket = 0;
  };

  struct Entry {
    std::uint64_t dir_off = 0;  // the directory the key names
    std::uint32_t n_links = 0;
    Link links[kMaxChain];
  };

  // Snapshot lookup: returns true when a consistent entry for
  // (cred_key, dir) exists.  The caller still has to validate the chain;
  // it reports the outcome back via note_hit()/note_conflict().
  bool get(std::uint64_t cred_key, std::string_view dir, Entry& out) noexcept;

  void put(std::uint64_t cred_key, std::string_view dir,
           const Entry& e) noexcept;

  void clear() noexcept;

  void note_hit() noexcept;
  void note_conflict() noexcept;

  [[nodiscard]] LookupCacheStats stats() const noexcept;
  void reset_stats() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return n_slots_; }

 private:
  static constexpr std::size_t kPathWords = kPathMax / 8;  // 15 u64s

  struct SlotLink {
    std::atomic<std::uint64_t> dir;
    std::atomic<std::uint64_t> epoch;
    std::atomic<std::uint64_t> bucket;
  };

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> cred{0};
    std::atomic<std::uint64_t> path_len{0};
    std::atomic<std::uint64_t> path[kPathWords];
    std::atomic<std::uint64_t> dir{0};
    std::atomic<std::uint64_t> n_links{0};
    SlotLink links[kMaxChain];
  };

  [[nodiscard]] Slot& slot_for(std::uint64_t cred_key,
                               std::string_view dir) noexcept;

  std::unique_ptr<Slot[]> slots_;
  std::size_t n_slots_;
  std::uint64_t mask_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> conflicts_{0};
  mutable std::atomic<std::uint64_t> fills_{0};
};

}  // namespace simurgh::core
