// Path resolution with POSIX permission checks.
//
// Simurgh path walks go straight from hash block to hash block: there is no
// inode-number indirection — each component lookup hashes the name, probes
// the directory's line, and lands directly on the persistent inode (§3.2,
// §4.3).  On top of that, the walker consults a shared DRAM lookup cache
// (lookup_cache.h) validated by per-directory epoch counters: a warm walk
// replays the path's directory part from one PathCache entry and looks the
// leaf up in one step, staying fully decentralized.
// Permission bits are checked during the walk against the credentials the
// bootstrap pinned for the process.
//
// The hot path is allocation-free: components are iterated in place over
// the input string_view, the ".." ancestor chain lives in a fixed-size
// stack, and the resolved leaf is returned in an inline buffer inside
// ResolveResult.  Only symlink restarts (cold, bounded by
// kMaxSymlinkDepth) build a temporary path string.
#pragma once

#include <cstring>
#include <string_view>

#include "core/dir_block.h"
#include "core/lookup_cache.h"
#include "protsec/bootstrap.h"

namespace simurgh::core {

using protsec::Credentials;

// Permission bit requests.
constexpr unsigned kMayRead = 4;
constexpr unsigned kMayWrite = 2;
constexpr unsigned kMayExec = 1;

// Deepest directory nesting a single walk supports (the ".." ancestor
// stack is this big; deeper paths fail with name_too_long, mirroring how
// PATH_MAX bounds kernel walks).
constexpr unsigned kMaxWalkDepth = 128;

// Classic owner/group/other check against an inode's mode bits.
[[nodiscard]] bool may_access(const Inode& ino, const Credentials& cred,
                              unsigned want) noexcept;

struct ResolveResult {
  std::uint64_t inode_off = 0;   // final inode (0 if only parent resolved)
  std::uint64_t parent_off = 0;  // parent directory inode

  // Last path component, stored inline so a result never dangles into a
  // temporary (symlink-restart) path and never heap-allocates.
  [[nodiscard]] std::string_view leaf() const noexcept {
    return {leaf_buf_, leaf_len_};
  }
  void set_leaf(std::string_view s) noexcept {
    leaf_len_ = static_cast<std::uint16_t>(s.size());
    std::memcpy(leaf_buf_, s.data(), s.size());
  }

 private:
  std::uint16_t leaf_len_ = 0;
  char leaf_buf_[kMaxName + 1] = {};
};

// Validation chain recorded while a walk runs: one PathCache link per
// directory the walk passes *through* (every component but the last), each
// epoch loaded *before* that directory was probed or permission-checked.
// The PathCache entry filled from a trace — the leaf's directory plus this
// chain — replays identically as long as every chained epoch is unchanged.
// Walks that the chain cannot represent — a symlink restart, "." or "..",
// more than PathCache::kMaxChain directories, a directory being torn
// down — poison the trace instead.
struct WalkTrace {
  bool ok = true;
  PathCache::Entry chain;  // chain.dir_off is set from the walk's result
};

class PathWalker {
 public:
  PathWalker(nvmm::Device& dev, DirOps& dirops, std::uint64_t root_off,
             LookupCache* cache = nullptr, PathCache* pcache = nullptr)
      : dev_(dev),
        dirops_(dirops),
        root_off_(root_off),
        cache_(cache),
        pcache_(pcache) {}

  // Resolves `path` fully.  If `follow_symlink` is false, a trailing
  // symlink is returned itself.  Errors: not_found / not_dir / permission.
  Result<ResolveResult> resolve(const Credentials& cred, std::string_view path,
                                bool follow_symlink = true) const;

  // Resolves all but the last component; the leaf may or may not exist
  // (create/rename/unlink paths).  inode_off is 0 when the leaf is absent.
  Result<ResolveResult> resolve_parent(const Credentials& cred,
                                       std::string_view path) const;

  [[nodiscard]] Inode* inode_at(std::uint64_t off) const noexcept {
    return reinterpret_cast<Inode*>(dev_.at(off));
  }

  // The lookup cache consulted per component; null disables caching (the
  // A/B switch the benches and tests use).
  void set_cache(LookupCache* cache) noexcept { cache_ = cache; }
  [[nodiscard]] LookupCache* cache() const noexcept { return cache_; }

  // The directory-path layer consulted by resolve() and resolve_parent();
  // null disables it.
  void set_path_cache(PathCache* pcache) noexcept { pcache_ = pcache; }
  [[nodiscard]] PathCache* path_cache() const noexcept { return pcache_; }

 private:
  // One plain descent step: looks `name` (neither "." nor "..") up in the
  // directory at `dir_off` after checking that it is a directory the caller
  // may traverse, and returns the child's inode offset.  The name's epoch
  // is loaded once, before the exec check, when the component cache or a
  // live `trace` needs it; the trace records it as the next chain link.  A
  // cache hit is valid against that epoch; on a miss or conflict the
  // hash-block probe runs and refills when the epoch held still.
  Result<std::uint64_t> descend(const Credentials& cred, std::uint64_t dir_off,
                                std::string_view name,
                                WalkTrace* trace) const;

  Result<ResolveResult> walk(const Credentials& cred, std::string_view path,
                             bool follow_symlink, bool want_parent, int depth,
                             WalkTrace* trace = nullptr) const;

  // resolve() and resolve_parent(): the PathCache entry for the path's
  // directory part plus one descent for the leaf, or a traced walk that
  // fills the entry.
  Result<ResolveResult> cached_walk(const Credentials& cred,
                                    std::string_view path,
                                    bool follow_symlink,
                                    bool want_parent) const;

  // Loads the current epoch governing `bucket` of the directory inode at
  // `ino_off` (the bucket head's epoch once the directory is split, the
  // anchor's otherwise), refusing offsets that cannot denote a live first
  // block (bounds / alignment): validation chases offsets recorded in the
  // past, so unlike the walk it may encounter freed-and-rewritten inodes
  // and must stay in bounds.
  bool dir_epoch_now(std::uint64_t ino_off, std::uint32_t bucket,
                     std::uint64_t& out) const noexcept;

  // One reverse pass: every chained directory still carries its recorded
  // epoch.  Hits and fills each take one pass (see lookup_cache.h).
  bool chain_matches(const PathCache::Entry& e) const noexcept;

  nvmm::Device& dev_;
  DirOps& dirops_;
  std::uint64_t root_off_;
  LookupCache* cache_;
  PathCache* pcache_;
};

}  // namespace simurgh::core
