#include "core/extent_cache.h"

namespace simurgh::core {

namespace {
std::size_t round_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

ExtentCache::ExtentCache(std::size_t slots)
    : n_slots_(round_pow2(std::max<std::size_t>(slots, 16))),
      slots_(new Slot[n_slots_]) {}

ExtentCache::ViewPtr ExtentCache::get(std::uint64_t ino_off,
                                      std::uint64_t epoch) noexcept {
  Slot& s = slot_for(ino_off);
  ViewPtr v;
  {
    common::MutexLock lk(s.mu);
    if (s.view && s.view->ino_off == ino_off && s.view->epoch == epoch)
      v = s.view;
  }
  (v ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return v;
}

// The displaced views are released after the slot lock drops: the last
// reference frees the extent vector.
void ExtentCache::put(ViewPtr v) noexcept {
  if (!v) return;
  Slot& s = slot_for(v->ino_off);
  fills_.fetch_add(1, std::memory_order_relaxed);
  // Unconditional overwrite: a racing stale put is harmless — its epoch no
  // longer matches the inode's, so the next get simply misses and refills.
  common::MutexLock lk(s.mu);
  v.swap(s.view);
}

void ExtentCache::invalidate(std::uint64_t ino_off) noexcept {
  Slot& s = slot_for(ino_off);
  ViewPtr old;
  common::MutexLock lk(s.mu);
  if (s.view && s.view->ino_off == ino_off) old.swap(s.view);
}

void ExtentCache::clear() noexcept {
  for (std::size_t i = 0; i < n_slots_; ++i) {
    Slot& s = slots_[i];
    ViewPtr old;
    common::MutexLock lk(s.mu);
    old.swap(s.view);
  }
}

ExtentCacheStats ExtentCache::stats() const noexcept {
  ExtentCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.fills = fills_.load(std::memory_order_relaxed);
  return s;
}

void ExtentCache::reset_stats() noexcept {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  fills_.store(0, std::memory_order_relaxed);
}

const ExtentCache::View* ExtentResolver::view() {
  if (view_) return view_.get();
  if (probed_) return nullptr;  // one attempt per snapshot lifetime
  probed_ = true;
  if (cache_ == nullptr) return nullptr;
  const std::uint64_t e = ino_.ext_epoch.load(std::memory_order_acquire);
  // Odd: a mutator is inside the map.  Zero: never stamped (not a regular
  // file created through the normal path) — uncacheable either way.
  if (e == 0 || (e & 1) != 0) return nullptr;
  if (ExtentCache::ViewPtr v = cache_->get(ino_off_, e)) {
    view_ = std::move(v);
    return view_.get();
  }
  if (!build_views_) return nullptr;  // write path: probe directly instead
  // Cold miss: scan the persistent map, sort, re-validate, publish.
  auto v = std::make_shared<ExtentCache::View>();
  v->ino_off = ino_off_;
  v->epoch = e;
  map_.for_each([&](const Extent& ex) { v->ext.push_back(ex); });
  std::sort(v->ext.begin(), v->ext.end(),
            [](const Extent& a, const Extent& b) {
              return a.file_block < b.file_block;
            });
  // A mutation may have raced the scan; only a still-identical epoch proves
  // the snapshot is a consistent view of the map.
  if (ino_.ext_epoch.load(std::memory_order_acquire) != e) return nullptr;
  view_ = std::move(v);
  cache_->put(view_);
  return view_.get();
}

ExtentResolver::Run ExtentResolver::run_at(std::uint64_t file_block,
                                           std::uint64_t max_blocks) {
  Run r;
  if (const ExtentCache::View* v = view()) {
    // Last extent starting at or before file_block.
    auto it = std::upper_bound(
        v->ext.begin(), v->ext.end(), file_block,
        [](std::uint64_t fb, const Extent& e) { return fb < e.file_block; });
    if (it != v->ext.begin()) {
      const Extent& e = *(it - 1);
      if (file_block < e.file_block + e.n_blocks) {
        const std::uint64_t into = file_block - e.file_block;
        r.dev_off = e.dev_off + into * alloc::kBlockSize;
        r.n_blocks = std::min(max_blocks, e.n_blocks - into);
        return r;
      }
    }
    // Hole up to the next mapped extent (or the cap).
    r.n_blocks = it != v->ext.end()
                     ? std::min(max_blocks, it->file_block - file_block)
                     : max_blocks;
    return r;
  }
  // Fallback: probe the persistent map directly (pre-cache behavior, one
  // O(extents) find per block), still coalescing contiguous probes into a
  // run so callers keep their single-copy/single-memset shape.
  r.dev_off = map_.find(file_block);
  r.n_blocks = 1;
  if (r.dev_off == 0) {
    while (r.n_blocks < max_blocks &&
           map_.find(file_block + r.n_blocks) == 0)
      ++r.n_blocks;
  } else {
    while (r.n_blocks < max_blocks &&
           map_.find(file_block + r.n_blocks) ==
               r.dev_off + r.n_blocks * alloc::kBlockSize)
      ++r.n_blocks;
  }
  return r;
}

}  // namespace simurgh::core
