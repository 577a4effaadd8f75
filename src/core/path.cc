#include "core/path.h"

#include <string>

namespace simurgh::core {

bool may_access(const Inode& ino, const Credentials& cred,
                unsigned want) noexcept {
  if (cred.euid == 0) {
    // root: exec still requires some x bit on regular files (Linux rule),
    // but for simplicity (and because the workloads never exec) root may
    // do anything.
    return true;
  }
  const std::uint32_t mode = ino.perms();
  unsigned granted;
  if (cred.euid == ino.uid.load(std::memory_order_relaxed))
    granted = (mode >> 6) & 7;
  else if (cred.egid == ino.gid.load(std::memory_order_relaxed))
    granted = (mode >> 3) & 7;
  else granted = mode & 7;
  return (granted & want) == want;
}

namespace {
constexpr int kMaxSymlinkDepth = 8;
}  // namespace

Result<std::uint64_t> PathWalker::descend(const Credentials& cred,
                                          std::uint64_t dir_off,
                                          std::string_view name,
                                          WalkTrace* trace) const {
  Inode& dir = *inode_at(dir_off);
  if (!dir.is_dir()) return Errc::not_dir;
  LookupCache* cache = LookupCache::cacheable(name) ? cache_ : nullptr;
  const bool record = trace != nullptr && trace->ok;
  // The epoch is loaded (acquire) before the exec check and the probe: a
  // cache hit is only valid against this snapshot, a fill only happens
  // when the epoch did not move across the slow probe, and a chmod or
  // mutation racing the walk leaves a recorded link behind the directory's
  // final epoch, so the fill-side re-check refuses it.  name_epoch routes
  // to the bucket head governing `name` once the directory is split, so
  // mutations in other buckets neither invalidate this binding nor block
  // its fill.
  DirOps::NameEpoch ne;
  if (cache != nullptr || record) ne = dirops_.name_epoch(dir, name);
  if (record) {
    PathCache::Entry& c = trace->chain;
    if (ne.epoch == ~0ull || c.n_links == PathCache::kMaxChain) {
      trace->ok = false;
    } else {
      c.links[c.n_links++] = {dir_off, ne.epoch, ne.bucket};
    }
  }
  // Traversal needs execute permission on each directory.
  if (!may_access(dir, cred, kMayExec)) return Errc::permission;
  if (ne.epoch == ~0ull) cache = nullptr;  // being torn down: never cache

  if (cache != nullptr) {
    LookupCache::Binding b;
    if (cache->get(dir_off, name, ne.epoch, b)) return b.inode_off;
  }
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t fe_off,
                           dirops_.lookup(dir, name));
  const auto* fe = reinterpret_cast<const FileEntry*>(dev_.at(fe_off));
  const std::uint64_t child_off = fe->inode.load().raw();
  if (child_off == 0) return Errc::not_found;  // racing delete
  if (cache != nullptr && dirops_.name_epoch(dir, name).epoch == ne.epoch)
    cache->put(dir_off, name, ne.epoch, fe_off, child_off);
  return child_off;
}

bool PathWalker::dir_epoch_now(std::uint64_t ino_off, std::uint32_t bucket,
                               std::uint64_t& out) const noexcept {
  // Chain entries were recorded in the past: the inode may have been freed
  // since (pool memory is only ever reused for inodes, so the read itself
  // stays typed), and a rewritten `dir` field may hold any block offset.
  // Reject anything that cannot be a live, in-bounds first block before
  // dereferencing.
  if (ino_off == 0 || (ino_off & 7) != 0 ||
      ino_off + sizeof(Inode) > dev_.size())
    return false;
  const Inode* d = inode_at(ino_off);
  const std::uint64_t blk = d->dir.load().raw();
  if (blk == 0 || (blk & 7) != 0 || blk + sizeof(DirBlock) > dev_.size())
    return false;
  const auto* b = reinterpret_cast<const DirBlock*>(dev_.at(blk));
  const std::uint64_t depth = b->depth.load(std::memory_order_acquire);
  if (depth == 0) {
    // A bucket recorded against a since-unsplit directory compares safely
    // here: unsplitting re-stamps the anchor epoch above every retired
    // head epoch, so the comparison simply fails.
    out = b->epoch.load(std::memory_order_acquire);
    return true;
  }
  if (depth > kMaxBucketBits) return false;  // recycled/torn memory
  if (bucket >= (1u << depth)) return false;
  const std::uint64_t hoff = b->bucket_heads[bucket].load().raw();
  if (hoff == 0 || (hoff & 7) != 0 || hoff + sizeof(DirBlock) > dev_.size())
    return false;
  out = reinterpret_cast<const DirBlock*>(dev_.at(hoff))
            ->epoch.load(std::memory_order_acquire);
  return true;
}

bool PathWalker::chain_matches(const PathCache::Entry& e) const noexcept {
  // Reverse order (leaf-most first, root last) makes one pass sound
  // against recycled directories: removing or moving links[i].dir out of
  // links[i-1].dir bumps the latter's epoch *before* the former can be
  // freed, and reading the parent after the child means that bump — which
  // postdates the recorded epoch, taken while the chain was intact — is
  // visible by the time links[i-1] is checked.  A freed links[i].dir can
  // therefore match only if its parent then mismatches; induction anchors
  // at the never-recycled root.
  for (std::uint32_t i = e.n_links; i-- > 0;) {
    const PathCache::Link& l = e.links[i];
    std::uint64_t now = 0;
    if (!dir_epoch_now(l.dir, l.bucket, now) || now != l.epoch) return false;
  }
  return true;
}

Result<ResolveResult> PathWalker::walk(const Credentials& cred,
                                       std::string_view path,
                                       bool follow_symlink, bool want_parent,
                                       int depth, WalkTrace* trace) const {
  if (path.empty()) return Errc::not_found;  // POSIX: "" is ENOENT
  if (depth > kMaxSymlinkDepth) return Errc::too_many_links;

  // Fixed-size ancestor stack for ".." — no heap on the hot path.
  std::uint64_t stack[kMaxWalkDepth];
  unsigned sp = 0;
  stack[sp++] = root_off_;

  ResolveResult res;
  res.parent_off = root_off_;
  res.inode_off = root_off_;
  res.set_leaf("/");

  const std::size_t n = path.size();
  std::size_t i = 0;
  while (i < n) {
    while (i < n && path[i] == '/') ++i;
    std::size_t j = i;
    while (j < n && path[j] != '/') ++j;
    if (j == i) break;  // only trailing slashes remained
    const std::string_view comp = path.substr(i, j - i);
    if (comp.size() > kMaxName) return Errc::invalid;
    // Last component iff nothing but slashes follows.
    std::size_t k = j;
    while (k < n && path[k] == '/') ++k;
    const bool last = k >= n;
    i = j;

    const std::uint64_t cur_off = stack[sp - 1];
    if (comp == "." || comp == "..") {
      if (trace != nullptr) trace->ok = false;  // not a plain descent
      const Inode* cur = inode_at(cur_off);
      if (!cur->is_dir()) return Errc::not_dir;
      if (!may_access(*cur, cred, kMayExec)) return Errc::permission;
      if (comp == ".." && sp > 1) --sp;  // "/.." clamps at the root (POSIX)
      if (last) {
        res.inode_off = stack[sp - 1];
        res.parent_off = sp > 1 ? stack[sp - 2] : root_off_;
        res.set_leaf(comp);
      }
      continue;
    }

    // The trace chains only the directories walked through: the leaf's
    // directory is the entry itself, and each hit re-checks it.
    auto child = descend(cred, cur_off, comp, last ? nullptr : trace);
    if (!child.is_ok()) {
      if (child.code() == Errc::not_found && last && want_parent) {
        res.parent_off = cur_off;
        res.inode_off = 0;
        res.set_leaf(comp);
        return res;
      }
      return child.status();
    }
    const std::uint64_t child_off = *child;
    Inode* child_ino = inode_at(child_off);

    if (child_ino->is_symlink() && (follow_symlink || !last)) {
      // The restart walks a different string: the chain cannot follow it.
      if (trace != nullptr) trace->ok = false;
      // Restart against the link target.  One pre-sized buffer holds
      // target + the unconsumed remainder of the path; recursion is capped
      // by an explicit depth test (self-loops terminate with EMLINK-style
      // too_many_links rather than smashing the stack).
      if (depth + 1 > kMaxSymlinkDepth) return Errc::too_many_links;
      const std::uint64_t tlen =
          child_ino->size.load(std::memory_order_acquire);
      const char* tdata =
          tlen <= kInlineSymlinkMax
              ? child_ino->symlink
              : reinterpret_cast<const char*>(
                    dev_.at(child_ino->extents[0].dev_off));
      const std::string_view rest =
          last ? std::string_view{} : path.substr(k);
      std::string restart;
      restart.reserve(tlen + rest.size() + 1);
      restart.assign(tdata, tlen);
      if (!rest.empty()) {
        restart.push_back('/');
        restart.append(rest);
      }
      if (tlen > 0 && tdata[0] == '/') {
        return walk(cred, restart, follow_symlink, want_parent, depth + 1);
      }
      // Relative link: walk from the containing directory via a sub-walker
      // rooted there (the prefix cannot be rebuilt textually).
      PathWalker sub(dev_, dirops_, cur_off, cache_);
      return sub.walk(cred, restart, follow_symlink, want_parent, depth + 1);
    }

    if (last) {
      res.parent_off = cur_off;
      res.inode_off = child_off;
      res.set_leaf(comp);
      return res;
    }
    if (sp == kMaxWalkDepth) return Errc::name_too_long;
    stack[sp++] = child_off;
  }

  // Path was "/" or equivalent.
  return res;
}

Result<ResolveResult> PathWalker::cached_walk(const Credentials& cred,
                                              std::string_view path,
                                              bool follow_symlink,
                                              bool want_parent) const {
  PathCache* pc = pcache_;
  const std::string_view dir = PathCache::dir_of(path);
  if (pc == nullptr || dir.empty())
    return walk(cred, path, follow_symlink, want_parent, 0);

  const std::uint64_t cred_key =
      (static_cast<std::uint64_t>(cred.euid) << 32) | cred.egid;
  PathCache::Entry e;
  if (pc->get(cred_key, dir, e)) {
    // One child-before-parent pass (see chain_matches) revalidates the
    // walk to the directory: bindings and permission outcomes replay
    // identically while every chained epoch stands.  The directory itself
    // is not in its chain, so the leaf step checks its exec right and
    // loads the leaf's epoch afresh.
    if (chain_matches(e)) {
      pc->note_hit();
      const std::string_view leaf = path.substr(dir.size() + 1);
      if (leaf.size() > kMaxName) return Errc::invalid;
      ResolveResult res;
      res.parent_off = e.dir_off;
      res.set_leaf(leaf);
      auto child = descend(cred, e.dir_off, leaf, nullptr);
      if (!child.is_ok()) {
        if (child.code() == Errc::not_found && want_parent) return res;
        return child.status();
      }
      // A symlink to follow restarts the walk elsewhere: take the plain
      // walk, exactly as a miss would.
      if (follow_symlink && inode_at(*child)->is_symlink())
        return walk(cred, path, follow_symlink, want_parent, 0);
      res.inode_off = *child;
      return res;
    }
    pc->note_conflict();
  }

  WalkTrace tr;
  auto r = walk(cred, path, follow_symlink, want_parent, 0, &tr);
  // Fill only when every directory walked through still carries the epoch
  // recorded before it was checked: then bindings *and* permission outcomes
  // replay identically until some chained epoch moves.  An unpoisoned walk
  // that succeeded ended in the leaf's directory, r->parent_off.
  if (r.is_ok() && tr.ok && chain_matches(tr.chain)) {
    tr.chain.dir_off = r->parent_off;
    pc->put(cred_key, dir, tr.chain);
  }
  return r;
}

Result<ResolveResult> PathWalker::resolve(const Credentials& cred,
                                          std::string_view path,
                                          bool follow_symlink) const {
  return cached_walk(cred, path, follow_symlink, /*want_parent=*/false);
}

Result<ResolveResult> PathWalker::resolve_parent(
    const Credentials& cred, std::string_view path) const {
  auto r = cached_walk(cred, path, /*follow_symlink=*/false,
                       /*want_parent=*/true);
  if (r.is_ok() && r->leaf() == "/")
    return Errc::invalid;  // cannot re-create root
  return r;
}

}  // namespace simurgh::core
