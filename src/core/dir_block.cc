#include "core/dir_block.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/lease.h"
#include "core/layout.h"

namespace simurgh::core {

namespace {

// Mount-wide generation counter for directory epochs; lives in the
// superblock so every process of the mount shares it (volatile semantics).
std::atomic<std::uint64_t>& epoch_gen(nvmm::Device& dev) noexcept {
  return reinterpret_cast<Superblock*>(dev.base() + kSuperblockOff)
      ->dir_epoch_gen;
}

// Advances the generation counter past `e` so the next create_dir_block
// stamps a strictly larger epoch than anything observed so far.
void advance_epoch_gen(nvmm::Device& dev, std::uint64_t e) noexcept {
  auto& gen = epoch_gen(dev);
  std::uint64_t g = gen.load(std::memory_order_relaxed);
  while (g <= e &&
         !gen.compare_exchange_weak(g, e + 2, std::memory_order_acq_rel)) {
  }
}

// Publishes `value` into a slot observed free.  All publications go through
// a CAS from 0 so the lock-free repair path and lock-holding writers can
// never overwrite each other.  Fenced: a publish is a commit point.
bool claim_slot(DirSlot& slot, std::uint64_t value) noexcept {
  std::uint64_t expected = 0;
  const bool ok = slot.v.compare_exchange_strong(expected, value,
                                                 std::memory_order_acq_rel);
  if (ok) nvmm::persist_now(slot.v);
  return ok;
}

// Clears a slot iff it still holds `expected`.  Fenced: the entry it
// pointed at may be freed, and so recycled, right after.
bool clear_slot(DirSlot& slot, std::uint64_t expected) noexcept {
  const bool ok = slot.v.compare_exchange_strong(expected, 0,
                                                 std::memory_order_acq_rel);
  if (ok) nvmm::persist_now(slot.v);
  return ok;
}

// Holds a source directory's rename-log lock for one cross-directory move.
// Like LineLock, a holder that crash-unwinds keeps the lock: the next
// writer steals it once the lease expires and replays the dead holder's
// record before writing its own.
class RenameLogLock {
 public:
  RenameLogLock(common::LeaseLock& lock, std::uint64_t lease_ns) noexcept
      : lock_(lock),
        self_(common::thread_token()),
        stole_(lock.lock(self_, lease_ns)) {}
  ~RenameLogLock() {
    if (std::uncaught_exceptions() == 0) lock_.unlock(self_);
  }
  RenameLogLock(const RenameLogLock&) = delete;
  RenameLogLock& operator=(const RenameLogLock&) = delete;

  [[nodiscard]] bool stole_lease() const noexcept { return stole_; }

 private:
  common::LeaseLock& lock_;
  const std::uint64_t self_;
  const bool stole_;
};

}  // namespace

void FileEntry::set_name(std::string_view n) noexcept {
  // Atomic byte stores: the entry may sit on pool memory a straggling
  // lock-free probe (holding a pre-delete slot snapshot) is still reading.
  // Such a probe value-validates and loses the race benignly; the atomics
  // keep the interleaving defined.
  name_len.store(static_cast<std::uint16_t>(n.size()),
                 std::memory_order_relaxed);
  for (std::size_t i = 0; i < n.size(); ++i)
    __atomic_store_n(&name[i], n[i], __ATOMIC_RELAXED);
  __atomic_store_n(&name[n.size()], '\0', __ATOMIC_RELAXED);
}

void scrub_entry(FileEntry* fe) noexcept {
  // Lock-free probes are still possible: word-wise atomic zeroing instead
  // of memset so a racing reader sees old-or-zero words, never torn bytes.
  // FileEntry is 8-aligned and padded to a multiple of 8.
  static_assert(sizeof(FileEntry) % 8 == 0 && alignof(FileEntry) >= 8);
  auto* words = reinterpret_cast<std::atomic<std::uint64_t>*>(fe);
  for (std::size_t i = 0; i < sizeof(FileEntry) / 8; ++i)
    words[i].store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  nvmm::persist(fe, sizeof(FileEntry));
}

// ---------------------------------------------------------------- LineLock

LineLock::LineLock(DirBlock* head, unsigned line, std::uint64_t lease_ns)
    : first_(head), line_(line) {
  const std::uint64_t bit = 1ull << line;
  std::atomic<std::uint64_t>& stamp = first_->stamp_ns[line];
  unsigned spins = 0;
  for (;;) {
    // Acquire: a waiter that sees the bit set also sees the holder's stamp
    // (stored before its claiming CAS), never the idle line's old one.
    std::uint64_t cur = first_->busy.load(std::memory_order_acquire);
    if ((cur & bit) == 0) {
      stamp.store(common::monotonic_ns(), std::memory_order_relaxed);
      if (first_->busy.compare_exchange_weak(cur, cur | bit,
                                             std::memory_order_acq_rel))
        break;
      continue;
    }
    // Lease check: a stale stamp means the holder crashed mid-operation.
    // Claiming the stamp IS the steal — the bit stays set and we adopt it —
    // and the caller repairs the line (paper: "the waiting process performs
    // the recovery corresponding to this lock").
    if (common::claim_expired_stamp(stamp, lease_ns)) {
      stole_ = true;
      break;
    }
    common::lease_backoff(spins);
  }
  held_ = true;
}

void LineLock::unlock() noexcept {
  if (!held_) return;
  first_->busy.fetch_and(~(1ull << line_), std::memory_order_release);
  held_ = false;
}

// ----------------------------------------------------------------- DirOps

Result<std::uint64_t> DirOps::create_dir_block() {
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t off, pools_.dirblock->alloc());
  auto* blk = reinterpret_cast<DirBlock*>(dev_.at(off));
  new (blk) DirBlock();
  // Stamp the mutation epoch from the mount-wide generation counter rather
  // than leaving the constructed 0: retire_dir_epoch keeps the counter
  // above every freed directory's final epoch, so a recycled offset starts
  // a fresh, never-before-observed epoch stream and stale lookup-cache
  // entries can never validate again.  Stride 2 keeps stable epochs even,
  // matching EpochGuard's balanced bumps.
  blk->epoch.store(epoch_gen(dev_).fetch_add(2, std::memory_order_acq_rel),
                   std::memory_order_release);
  // Flushed, not fenced: the caller fences before publishing the block.
  nvmm::persist(blk, sizeof(DirBlock));
  pools_.dirblock->commit(off);
  return off;
}

void DirOps::retire_dir_epoch(Inode& dir) noexcept {
  DirBlock* first = first_block(dir);
  if (first == nullptr) return;
  // The retiring directory's largest epoch governs: the anchor while
  // unsplit, the anchor and every bucket head once split.
  std::uint64_t e = first->epoch.load(std::memory_order_acquire);
  const std::uint64_t d = first->depth.load(std::memory_order_acquire);
  if (d != 0) {
    const unsigned nb = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
    for (unsigned i = 0; i < nb; ++i) {
      DirBlock* h = first->bucket_heads[i].load().in(dev_);
      if (h != nullptr)
        e = std::max(e, h->epoch.load(std::memory_order_acquire));
    }
  }
  advance_epoch_gen(dev_, e);
}

bool DirOps::entry_dead(std::uint64_t off) const {
  // Interrupted delete: entry invalidated (dirty-only) or already zeroed
  // while a slot still points at it (Fig. 5b crash between steps 2-5).
  const std::uint32_t flags = pools_.fentry->flags_of(off);
  return flags == alloc::kObjDirty ||
         (entry_at(off)->name_len.load(std::memory_order_acquire) == 0 &&
          flags == 0);
}

bool DirOps::scrub_slot(DirSlot& slot) const {
  const std::uint64_t v = slot.v.load(std::memory_order_acquire);
  const std::uint64_t off = DirSlot::off_of(v);
  if (off == 0 || !entry_dead(off)) return false;
  const bool pending_free = pools_.fentry->flags_of(off) == alloc::kObjDirty;
  if (clear_slot(slot, v) && pending_free)
    pools_.fentry->finish_pending_free(off);
  return true;
}

DirOps::Route DirOps::route_of(Inode& dir,
                               std::string_view name) const noexcept {
  Route rt;
  rt.anchor = first_block(dir);
  if (rt.anchor == nullptr) return rt;
  // depth before split_state: the split publishes state=1 strictly before
  // depth, so observing depth>0 guarantees the state load below sees the
  // armed marker or its later clearing — never the pre-split 0 that would
  // make a mid-migration directory look settled.
  const std::uint64_t d = rt.anchor->depth.load(std::memory_order_acquire);
  rt.splitting =
      rt.anchor->split_state.load(std::memory_order_acquire) != 0;
  if (d == 0) {
    rt.head = rt.anchor;
    return rt;
  }
  rt.bucket = static_cast<unsigned>(
      bucket_of(name, d > kMaxBucketBits ? kMaxBucketBits : d));
  rt.head = rt.anchor->bucket_heads[rt.bucket].load().in(dev_);
  if (rt.head == nullptr) rt.head = rt.anchor;  // torn image; be lenient
  return rt;
}

DirOps::MutCtx DirOps::lock_name(Inode& dir, std::string_view name,
                                 unsigned ln) {
  MutCtx ctx;
  for (;;) {
    ctx.rt = route_of(dir, name);
    if (ctx.rt.anchor == nullptr) return ctx;  // directory being torn down
    DirBlock* tgt = lock_block_of(ctx.rt);
    ctx.lock.emplace(tgt, ln, lease_ns_);
    // The route may have changed while we waited for the lock (a split
    // published its depth, or settled): re-route and retry on the block
    // that now serializes this name.
    Route now = route_of(dir, name);
    if (now.anchor == nullptr || lock_block_of(now) != tgt) {
      ctx.lock.reset();
      if (now.anchor == nullptr) return ctx;
      continue;
    }
    ctx.rt = now;
    if (ctx.lock->stole_lease()) steal_repair(dir, ctx.rt, tgt, ln);
    return ctx;
  }
}

DirOps::PairCtx DirOps::lock_pair(Inode& dir_a, std::string_view name_a,
                                  unsigned ln_a, Inode& dir_b,
                                  std::string_view name_b, unsigned ln_b) {
  PairCtx ctx;
  for (;;) {
    ctx.rt_a = route_of(dir_a, name_a);
    ctx.rt_b = route_of(dir_b, name_b);
    if (ctx.rt_a.anchor == nullptr || ctx.rt_b.anchor == nullptr) return ctx;
    DirBlock* ta = lock_block_of(ctx.rt_a);
    DirBlock* tb = lock_block_of(ctx.rt_b);
    // Global (block address, line) order keeps concurrent multi-line
    // operations — including the splitter's ascending 0..47 sweep of one
    // block — deadlock free.
    const bool a_first =
        std::make_pair(ta, ln_a) <= std::make_pair(tb, ln_b);
    const bool same = ta == tb && ln_a == ln_b;
    ctx.first.emplace(a_first ? ta : tb, a_first ? ln_a : ln_b, lease_ns_);
    if (!same)
      ctx.second.emplace(a_first ? tb : ta, a_first ? ln_b : ln_a, lease_ns_);
    Route now_a = route_of(dir_a, name_a);
    Route now_b = route_of(dir_b, name_b);
    if (now_a.anchor == nullptr || now_b.anchor == nullptr ||
        lock_block_of(now_a) != ta || lock_block_of(now_b) != tb) {
      ctx.second.reset();
      ctx.first.reset();
      if (now_a.anchor == nullptr || now_b.anchor == nullptr) return ctx;
      continue;
    }
    ctx.rt_a = now_a;
    ctx.rt_b = now_b;
    if (ctx.first->stole_lease())
      steal_repair(a_first ? dir_a : dir_b, a_first ? now_a : now_b,
                   a_first ? ta : tb, a_first ? ln_a : ln_b);
    if (ctx.second.has_value() && ctx.second->stole_lease())
      steal_repair(a_first ? dir_b : dir_a, a_first ? now_b : now_a,
                   a_first ? tb : ta, a_first ? ln_b : ln_a);
    return ctx;
  }
}

void DirOps::steal_repair(Inode& dir, const Route& rt, DirBlock* target,
                          unsigned ln) {
  // Repairs mutate slot visibility (completed deletes, relocated rename
  // strays), so they invalidate like any mutation.
  EpochGuard epoch(*this, dir);
  const std::uint64_t d = rt.anchor->depth.load(std::memory_order_acquire);
  const bool splitting =
      rt.anchor->split_state.load(std::memory_order_acquire) != 0;
  if (target == rt.anchor && d > 0 && splitting) {
    // The dead holder was (or raced with) the splitter: every mutator
    // serializes on the anchor here, so we may touch all chains.  Repair
    // first (rename strays route to their buckets), then finish this
    // line's migration so our caller finds a consistent line.
    repair_line_all(dir, ln);
    migrate_line(dir, ln);
    return;
  }
  repair_line_chain(dir, target, ln);
}

DirOps::SlotRef DirOps::find_slot_in(DirBlock* head, unsigned ln,
                                     std::string_view name, std::uint16_t tag,
                                     bool scrub) const {
  for (DirBlock* blk = head; blk != nullptr;
       blk = blk->next.load().in(dev_)) {
    for (unsigned s = 0; s < kSlotsPerLine; ++s) {
      DirSlot& slot = blk->lines[ln].slots[s];
      const std::uint64_t v = slot.v.load(std::memory_order_acquire);
      const std::uint64_t off = DirSlot::off_of(v);
      if (off == 0 || DirSlot::tag_of(v) != tag) continue;
      FileEntry* fe = entry_at(off);
      if (fe->name_equals(name)) {
        if (scrub ? scrub_slot(slot) : entry_dead(off)) continue;
        return {blk, &slot, v};
      }
    }
  }
  return {};
}

DirOps::SlotRef DirOps::find_slot(Inode& dir, unsigned ln,
                                  std::string_view name, std::uint16_t tag,
                                  bool scrub) const {
  const Route rt = route_of(dir, name);
  if (rt.anchor == nullptr) return {};
  if (rt.head != rt.anchor && rt.splitting) {
    // Mid-split: an entry lives in the legacy chain until its bucket copy
    // is published, and the copy is published before the legacy slot
    // clears — so scanning source before destination can never miss it.
    SlotRef ref = find_slot_in(rt.anchor, ln, name, tag, scrub);
    if (ref.slot != nullptr) return ref;
  }
  return find_slot_in(rt.head, ln, name, tag, scrub);
}

Result<DirOps::SlotRef> DirOps::free_slot_in(DirBlock* head, unsigned ln) {
  DirBlock* last = nullptr;
  for (DirBlock* blk = head; blk != nullptr;
       blk = blk->next.load().in(dev_)) {
    for (unsigned s = 0; s < kSlotsPerLine; ++s) {
      DirSlot& slot = blk->lines[ln].slots[s];
      scrub_slot(slot);
      if (slot.v.load(std::memory_order_acquire) == 0)
        return SlotRef{blk, &slot};
    }
    last = blk;
  }
  // Line full in every block: extend the chain (Fig. 5a step 4).  The next
  // pointer is CAS-published because other lines extend concurrently, and
  // fenced on its own: another line's writer may publish an entry in the
  // new block, and its fence does not order our flushes.
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t new_off, create_dir_block());
  nvmm::fence();
  auto new_blk = nvmm::pptr<DirBlock>(new_off);
  for (;;) {
    nvmm::pptr<DirBlock> expected;
    if (last->next.compare_exchange(expected, new_blk)) {
      nvmm::persist_now(last->next);
      break;
    }
    // Someone else appended first; maybe their block has room for us.
    last = last->next.load().in(dev_);
    for (unsigned s = 0; s < kSlotsPerLine; ++s) {
      DirSlot& slot = last->lines[ln].slots[s];
      if (slot.v.load(std::memory_order_acquire) == 0) {
        pools_.dirblock->free(new_off);
        return SlotRef{last, &slot};
      }
    }
  }
  SIMURGH_FAILPOINT("dir.chain_extended");
  return SlotRef{new_blk.in(dev_), &new_blk.in(dev_)->lines[ln].slots[0]};
}

Result<std::uint64_t> DirOps::lookup(Inode& dir, std::string_view name) const {
  if (name.empty() || name.size() > kMaxName) return Errc::invalid;
  const unsigned ln = line_of(name);
  const std::uint16_t tag = tag_of_name(name);
  // Lock-free: readers never take the busy bit (paper: concurrent lookups
  // scale; consistency comes from the publication order of slots).
  SlotRef ref = find_slot(dir, ln, name, tag, /*scrub=*/false);
  if (ref.slot == nullptr) return Errc::not_found;
  return DirSlot::off_of(ref.v);
}

Status DirOps::insert(Inode& dir, std::string_view name,
                      std::uint64_t fentry_off) {
  if (name.empty() || name.size() > kMaxName) return Status(Errc::invalid);
  const unsigned ln = line_of(name);
  MutCtx ctx = lock_name(dir, name, ln);  // Fig. 5a step 3
  if (ctx.rt.anchor == nullptr) return Status(Errc::not_found);
  const Status st = insert_locked(dir, ctx.rt, name, fentry_off);
  ctx.lock.reset();  // release before the (lock-hungry) split check
  if (st.is_ok()) maybe_split(dir);
  return st;
}

Status DirOps::insert_locked(Inode& dir, const Route& rt,
                             std::string_view name,
                             std::uint64_t fentry_off) {
  const unsigned ln = line_of(name);
  const std::uint16_t tag = tag_of_name(name);
  EpochGuard epoch(*this, dir, rt.head);
  if (find_slot(dir, ln, name, tag).slot != nullptr)
    return Status(Errc::exists);
  SIMURGH_FAILPOINT("dir.insert.before_publish");
  for (;;) {
    // New entries always go to the governing head — mid-split inserts land
    // directly in their bucket, never in the draining legacy chain.
    SIMURGH_ASSIGN_OR_RETURN(SlotRef ref, free_slot_in(rt.head, ln));
    if (claim_slot(*ref.slot, DirSlot::pack(tag, fentry_off))) break;
  }
  SIMURGH_FAILPOINT("dir.insert.after_publish");  // Fig. 5a after step 5
  return Status::ok();
}

Result<std::uint64_t> DirOps::remove(Inode& dir, std::string_view name) {
  if (name.empty() || name.size() > kMaxName) return Errc::invalid;
  const unsigned ln = line_of(name);
  MutCtx ctx = lock_name(dir, name, ln);  // Fig. 5b step 1
  if (ctx.rt.anchor == nullptr) return Errc::not_found;
  EpochGuard epoch(*this, dir, ctx.rt.head);
  return remove_locked(dir, ln, name);
}

Result<std::uint64_t> DirOps::remove_locked(Inode& dir, unsigned ln,
                                            std::string_view name) {
  const std::uint16_t tag = tag_of_name(name);
  SlotRef ref = find_slot(dir, ln, name, tag);
  if (ref.slot == nullptr) return Errc::not_found;
  const std::uint64_t v = ref.slot->v.load(std::memory_order_acquire);
  const std::uint64_t fe_off = DirSlot::off_of(v);
  FileEntry* fe = entry_at(fe_off);
  const std::uint64_t inode_off = fe->inode.load().raw();

  // Step 2: invalidate the entry (valid off, dirty on).  Fenced before the
  // slot clear: the durable 01 is what makes the entry dead to probes, line
  // repair and recovery while the slot still reaches it.
  pools_.fentry->set_flags(fe_off, alloc::kObjDirty);
  nvmm::fence();
  SIMURGH_FAILPOINT("dir.remove.entry_invalidated");
  // Step 5: zero the slot (fenced: the unlinking store).  (The inode itself
  // is released by the caller once the last link drops; a crash in between
  // leaves an unreachable inode that the full-recovery sweep reclaims —
  // same final state as the paper's ordering.)
  clear_slot(*ref.slot, v);
  SIMURGH_FAILPOINT("dir.remove.slot_cleared");
  // Steps 3-4 and the object free: zero the entry and turn its dirty bit
  // off — after the fenced slot clear so a recycled entry can never be
  // reached through the stale slot.  It rides the next fence.
  pools_.fentry->finish_pending_free(fe_off);
  SIMURGH_FAILPOINT("dir.remove.entry_zeroed");
  // Step 6 (optional in the paper): freeing emptied chain blocks is
  // deferred to full recovery, which compacts chains safely offline.
  return inode_off;
}

Result<std::uint64_t> DirOps::rename_local(Inode& dir,
                                           std::string_view old_name,
                                           std::string_view new_name) {
  if (old_name.empty() || old_name.size() > kMaxName || new_name.empty() ||
      new_name.size() > kMaxName)
    return Errc::invalid;
  const unsigned l_old = line_of(old_name);
  const unsigned l_new = line_of(new_name);
  const std::uint16_t tag_old = tag_of_name(old_name);
  const std::uint16_t tag_new = tag_of_name(new_name);
  DirBlock* first = first_block(dir);
  if (first == nullptr) return Errc::not_found;

  // Steps 1-2: shadow entry pointing at the same inode.
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t new_fe_off,
                           pools_.fentry->alloc());
  FileEntry* new_fe = entry_at(new_fe_off);

  // Lock both names' lines — possibly on two different bucket heads — in
  // the global (block, line) order.
  PairCtx ctx = lock_pair(dir, old_name, l_old, dir, new_name, l_new);
  if (ctx.rt_a.anchor == nullptr || ctx.rt_b.anchor == nullptr) {
    pools_.fentry->free(new_fe_off);
    return Errc::not_found;
  }
  // Both names' governing heads; one bump pair per head (deduplicated by
  // the guard when they coincide).
  EpochGuard epoch(*this, dir, ctx.rt_a.head, ctx.rt_b.head);

  SlotRef old_ref = find_slot(dir, l_old, old_name, tag_old);
  if (old_ref.slot == nullptr) {
    pools_.fentry->free(new_fe_off);
    return Errc::not_found;
  }
  const std::uint64_t old_v = old_ref.slot->v.load(std::memory_order_acquire);
  const std::uint64_t old_fe_off = DirSlot::off_of(old_v);
  FileEntry* old_fe = entry_at(old_fe_off);

  new_fe->set_name(new_name);
  new_fe->flags.store(old_fe->flags.load(std::memory_order_acquire),
                      std::memory_order_release);
  new_fe->inode.store(old_fe->inode.load());
  nvmm::persist(new_fe, new_fe->used_bytes());
  // One fence before the swing publishes the shadow: its claim and payload.
  nvmm::fence();
  SIMURGH_FAILPOINT("dir.rename.shadow_created");

  // If new_name already exists, it is displaced (POSIX rename semantics).
  std::uint64_t replaced_inode = 0;
  SlotRef target_ref = find_slot(dir, l_new, new_name, tag_new);
  if (target_ref.slot != nullptr &&
      DirSlot::off_of(target_ref.slot->v.load()) == old_fe_off)
    target_ref = {};  // renaming onto itself through the old slot

  // Steps 3-4: mark the directory and line(s) as rename-busy.  Recovery
  // repairs from the line state alone and only resets the marker, so it
  // is flushed but never fenced.
  first->rename_busy.store(1, std::memory_order_release);
  nvmm::persist_obj(first->rename_busy);
  SIMURGH_FAILPOINT("dir.rename.marked");

  // Step 5: swing the *old* slot onto the new entry.  The line is now
  // deliberately inconsistent: the entry's name hashes to l_new (and
  // possibly a different bucket).  Fenced: this is the commit point —
  // from here line repair rolls the rename forward.
  old_ref.slot->v.store(DirSlot::pack(tag_new, new_fe_off),
                        std::memory_order_release);
  nvmm::persist_now(old_ref.slot->v);
  SIMURGH_FAILPOINT("dir.rename.line_inconsistent");

  // Step 6: the old entry is no longer reachable; its free rides the next
  // fence.
  pools_.fentry->free(old_fe_off);
  SIMURGH_FAILPOINT("dir.rename.old_entry_freed");

  // The swung slot can serve as the entry's home only when it already sits
  // in the right line of the right (settled) chain; a mid-split directory
  // always republishes, since the swung slot may sit in a chain the new
  // name's future lookups will stop scanning.
  const bool keep_home = target_ref.slot == nullptr && l_new == l_old &&
                         ctx.rt_a.head == ctx.rt_b.head &&
                         !ctx.rt_a.splitting && !ctx.rt_b.splitting;

  // Step 7: publish in the correct line (reusing the displaced target's
  // slot when replacing).  Fenced before step 8 retires the temporary
  // pointer; the displaced target is unreachable once its slot swings.
  if (target_ref.slot != nullptr) {
    const std::uint64_t t_v = target_ref.slot->v.load();
    const std::uint64_t t_off = DirSlot::off_of(t_v);
    replaced_inode = entry_at(t_off)->inode.load().raw();
    target_ref.slot->v.store(DirSlot::pack(tag_new, new_fe_off),
                             std::memory_order_release);
    nvmm::persist_now(target_ref.slot->v);
    pools_.fentry->free(t_off);
  } else if (!keep_home) {
    for (;;) {
      SIMURGH_ASSIGN_OR_RETURN(SlotRef dst,
                               free_slot_in(ctx.rt_b.head, l_new));
      if (claim_slot(*dst.slot, DirSlot::pack(tag_new, new_fe_off))) break;
    }
  }
  SIMURGH_FAILPOINT("dir.rename.published");

  // Step 8: retire the temporary (inconsistent) pointer, unless the swung
  // slot stayed the entry's home.  It rides the next fence with the commit
  // and the marker: a surviving temporary is a stray whose home already
  // holds the entry, which line repair drops.
  if (!keep_home) {
    old_ref.slot->v.store(0, std::memory_order_release);
    nvmm::persist_obj(old_ref.slot->v);
  }
  pools_.fentry->commit(new_fe_off);
  first->rename_busy.store(0, std::memory_order_release);
  nvmm::persist_obj(first->rename_busy);
  return replaced_inode;
}

Result<std::uint64_t> DirOps::rename_cross(Inode& src_dir,
                                           std::string_view old_name,
                                           Inode& dst_dir,
                                           std::string_view new_name) {
  const unsigned l_src = line_of(old_name);
  const unsigned l_dst = line_of(new_name);
  const std::uint16_t tag_old = tag_of_name(old_name);
  const std::uint16_t tag_new = tag_of_name(new_name);
  DirBlock* src_first = first_block(src_dir);
  if (src_first == nullptr) return Errc::not_found;

  // Lock rows in a global order keyed by (block address, line) so two
  // opposing cross-renames cannot deadlock (§4.3 step 3).
  PairCtx ctx = lock_pair(src_dir, old_name, l_src, dst_dir, new_name, l_dst);
  if (ctx.rt_a.anchor == nullptr || ctx.rt_b.anchor == nullptr)
    return Errc::not_found;
  EpochGuard epoch_src(*this, src_dir, ctx.rt_a.head);
  EpochGuard epoch_dst(*this, dst_dir, ctx.rt_b.head);
  // The source directory has one log, and its fields are plain stores: one
  // move out of the directory at a time, from the record's write through
  // its fenced close.  A thief first replays the dead holder's record.
  RenameLogLock log_lock(src_first->log_lock, lease_ns_);
  if (log_lock.stole_lease()) replay_cross_log(src_dir);

  SlotRef src_ref = find_slot(src_dir, l_src, old_name, tag_old);
  if (src_ref.slot == nullptr) return Errc::not_found;
  const std::uint64_t src_v = src_ref.slot->v.load(std::memory_order_acquire);
  const std::uint64_t old_fe_off = DirSlot::off_of(src_v);
  FileEntry* old_fe = entry_at(old_fe_off);

  // Pre-build the destination entry.
  SIMURGH_ASSIGN_OR_RETURN(const std::uint64_t new_fe_off,
                           pools_.fentry->alloc());
  FileEntry* new_fe = entry_at(new_fe_off);
  new_fe->set_name(new_name);
  new_fe->flags.store(old_fe->flags.load(std::memory_order_acquire),
                      std::memory_order_release);
  new_fe->inode.store(old_fe->inode.load());
  nvmm::persist(new_fe, new_fe->used_bytes());

  std::uint64_t replaced_inode = 0;
  SlotRef dst_ref = find_slot(dst_dir, l_dst, new_name, tag_new);

  // Steps 1-2: write the operation into the source directory's log entry,
  // fence it together with the new entry, then arm it (fenced: the arm
  // must be durable before the destination can publish).
  RenameLog& log = src_first->log;
  log.dst_dir_inode = dst_dir.dir.load().raw();  // identifies the dst chain
  log.old_fentry = old_fe_off;
  log.new_fentry = new_fe_off;
  log.replaced_inode =
      dst_ref.slot ? entry_at(DirSlot::off_of(dst_ref.slot->v.load()))
                         ->inode.load()
                         .raw()
                   : 0;
  nvmm::persist(&log, sizeof(log));
  nvmm::fence();
  SIMURGH_FAILPOINT("dir.xrename.log_written");
  log.state.store(1, std::memory_order_release);
  nvmm::persist_now(log.state);
  SIMURGH_FAILPOINT("dir.xrename.log_armed");

  // Step 4: perform the operation.  The fenced destination publish is the
  // commit point: replay redoes from here on.  A displaced target is
  // unreachable once its slot swings.
  if (dst_ref.slot != nullptr) {
    const std::uint64_t t_v = dst_ref.slot->v.load();
    const std::uint64_t t_off = DirSlot::off_of(t_v);
    replaced_inode = entry_at(t_off)->inode.load().raw();
    dst_ref.slot->v.store(DirSlot::pack(tag_new, new_fe_off),
                          std::memory_order_release);
    nvmm::persist_now(dst_ref.slot->v);
    pools_.fentry->free(t_off);
  } else {
    for (;;) {
      SIMURGH_ASSIGN_OR_RETURN(SlotRef dst,
                               free_slot_in(ctx.rt_b.head, l_dst));
      if (claim_slot(*dst.slot, DirSlot::pack(tag_new, new_fe_off))) break;
    }
  }
  SIMURGH_FAILPOINT("dir.xrename.dst_published");

  // Retire the source entry.  Once its 01 is durable the source side is an
  // ordinary interrupted delete (Fig. 5b), finished by the next holder of
  // its line or by recovery, so the log may close in the window that
  // clears the slot.  That slot clear's fence makes the close durable
  // before the log lock is released.
  pools_.fentry->set_flags(old_fe_off, alloc::kObjDirty);
  nvmm::fence();
  pools_.fentry->commit(new_fe_off);
  log.state.store(0, std::memory_order_release);
  nvmm::persist_obj(log.state);
  clear_slot(*src_ref.slot, src_v);
  SIMURGH_FAILPOINT("dir.xrename.src_cleared");
  pools_.fentry->finish_pending_free(old_fe_off);
  return replaced_inode;
}

bool DirOps::empty(Inode& dir) const {
  const nvmm::pptr<DirBlock> first = dir.dir.load();
  if (!first) return true;
  // Early-exit scan: stop at the first live entry, in the block where it
  // was found — a giant directory answers "not empty" after one block.
  auto chain_has_entry = [&](DirBlock* blk) {
    for (; blk != nullptr; blk = blk->next.load().in(dev_)) {
      stat_block_probes_.fetch_add(1, std::memory_order_relaxed);
      for (unsigned ln = 0; ln < kLines; ++ln) {
        for (unsigned s = 0; s < kSlotsPerLine; ++s) {
          const std::uint64_t v =
              blk->lines[ln].slots[s].v.load(std::memory_order_acquire);
          const std::uint64_t off = DirSlot::off_of(v);
          if (off == 0) continue;
          if (entry_at(off)->name_len.load(std::memory_order_acquire) != 0)
            return true;  // live entry; entries mid-delete don't count
        }
      }
    }
    return false;
  };
  DirBlock* anchor = first.in(dev_);
  if (chain_has_entry(anchor)) return false;
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) return true;
  const unsigned nb = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
  for (unsigned i = 0; i < nb; ++i) {
    DirBlock* h = anchor->bucket_heads[i].load().in(dev_);
    if (h != nullptr && chain_has_entry(h)) return false;
  }
  return true;
}

void DirOps::repair_line_chain(Inode& dir, DirBlock* head, unsigned ln) {
  // Finish interrupted deletes, drop duplicate slots (rename crash between
  // steps 7-8), relocate rename/migration strays and resolve displaced
  // replace-rename targets in line `ln` of `head`'s chain.
  std::uint64_t seen[kSlotsPerLine * 8];
  unsigned n_seen = 0;
  // Entries whose home is this very (chain, line), to detect a
  // replace-rename that crashed between swinging the source slot and
  // retiring the displaced same-name target (both then coexist here).
  struct NamedSlot {
    std::string name;
    std::uint64_t off;
    DirSlot* slot;
  };
  std::vector<NamedSlot> by_name;
  // Retires a displaced entry still reached through `victim` exactly like
  // delete steps 2-5.
  auto retire_entry = [&](DirSlot& victim, std::uint64_t vv) {
    const std::uint64_t fe_off = DirSlot::off_of(vv);
    pools_.fentry->set_flags(fe_off, alloc::kObjDirty);
    nvmm::fence();
    clear_slot(victim, vv);
    pools_.fentry->finish_pending_free(fe_off);
  };
  for (DirBlock* blk = head; blk != nullptr;
       blk = blk->next.load().in(dev_)) {
    for (unsigned s = 0; s < kSlotsPerLine; ++s) {
      DirSlot& slot = blk->lines[ln].slots[s];
      if (scrub_slot(slot)) continue;
      const std::uint64_t v = slot.v.load(std::memory_order_acquire);
      const std::uint64_t off = DirSlot::off_of(v);
      if (off == 0) continue;
      bool dup = false;
      for (unsigned k = 0; k < n_seen; ++k)
        if (seen[k] == off) dup = true;
      if (dup) {
        clear_slot(slot, v);
        continue;
      }
      if (n_seen < std::size(seen)) seen[n_seen++] = off;
      FileEntry* fe = entry_at(off);
      // Snapshot the name race-safely: the line lock keeps other *writers*
      // out, but a lock-free probe's scrub (interrupted-delete completion)
      // can still zero the entry under us.
      char namebuf[kMaxName + 1];
      const std::uint16_t nlen = fe->load_name(namebuf);
      if (nlen == 0) continue;
      const std::string_view nm{namebuf, nlen};
      const unsigned want = line_of(nm);
      const std::uint16_t tag = tag_of_name(nm);
      // Where this name should live now.  While a split is migrating, an
      // anchor-chain entry's home is already its bucket head — relocating
      // it below doubles as (idempotent) migration.
      const Route home_rt = route_of(dir, nm);
      const bool home_here = want == ln && home_rt.head == head;
      if (home_here) {
        // Two distinct entries under one name can only come from a
        // replace-rename (Fig. 5c with an existing target) that crashed
        // after swinging the source slot but before displacing the target.
        // The swing is the visibility point, so roll forward: the still
        // in-flight (uncommitted) entry is the rename's redo side and
        // wins; the committed one is the displaced target.
        bool dup_name = false;
        for (NamedSlot& prev : by_name) {
          if (prev.name != nm) continue;
          dup_name = true;
          const bool cur_wins =
              pools_.fentry->flags_of(off) ==
              (alloc::kObjValid | alloc::kObjDirty);
          DirSlot* loser_slot = cur_wins ? prev.slot : &slot;
          retire_entry(*loser_slot,
                       loser_slot->v.load(std::memory_order_acquire));
          if (cur_wins) {
            prev.off = off;
            prev.slot = &slot;
          }
          break;
        }
        if (!dup_name) by_name.push_back({std::string(nm), off, &slot});
        continue;
      }
      // Stray (Fig. 5c crash between steps 5 and 8, or a half-migrated
      // split slot): publish the entry at its home if not already there,
      // then retire this slot.  Publication uses CAS, so racing with the
      // original renamer resolves to exactly one slot.  The home probe
      // must never find *this* slot: when only the bucket differs
      // (want == ln) we search the home chain alone, and when the line
      // differs the routed search scans a different line by construction.
      SlotRef home = want == ln
                         ? find_slot_in(home_rt.head, want, nm, tag)
                         : find_slot(dir, want, nm, tag);
      if (home.slot == nullptr) {
        auto free_ref = free_slot_in(home_rt.head, want);
        if (free_ref.is_ok())
          claim_slot(*free_ref->slot, DirSlot::pack(tag, off));
      } else if (const std::uint64_t hv =
                     home.slot->v.load(std::memory_order_acquire);
                 DirSlot::off_of(hv) != off) {
        // The home line holds a *different* entry under this name: the
        // stray is a replace-rename's redo side and the home entry is the
        // displaced target (roll forward, mirroring steps 5 and 7): swing
        // the home slot onto the stray's entry, then retire the target.
        home.slot->v.store(DirSlot::pack(tag, off), std::memory_order_release);
        nvmm::persist_now(home.slot->v);
        pools_.fentry->free(DirSlot::off_of(hv));  // unreachable now
      }
      clear_slot(slot, v);
      if (pools_.fentry->flags_of(off) ==
          (alloc::kObjValid | alloc::kObjDirty))
        pools_.fentry->commit(off);
    }
  }
}

void DirOps::repair_line_all(Inode& dir, unsigned ln) {
  DirBlock* anchor = first_block(dir);
  if (anchor == nullptr) return;
  repair_line_chain(dir, anchor, ln);
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) return;
  const unsigned nb = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
  for (unsigned i = 0; i < nb; ++i) {
    DirBlock* h = anchor->bucket_heads[i].load().in(dev_);
    if (h != nullptr) repair_line_chain(dir, h, ln);
  }
}

bool DirOps::migrate_line(Inode& dir, unsigned ln) {
  DirBlock* anchor = first_block(dir);
  if (anchor == nullptr) return true;
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) return true;
  const std::uint64_t eff_d = d > kMaxBucketBits ? kMaxBucketBits : d;
  bool drained = true;
  for (DirBlock* blk = anchor; blk != nullptr;
       blk = blk->next.load().in(dev_)) {
    for (unsigned s = 0; s < kSlotsPerLine; ++s) {
      DirSlot& slot = blk->lines[ln].slots[s];
      if (scrub_slot(slot)) continue;
      const std::uint64_t v = slot.v.load(std::memory_order_acquire);
      const std::uint64_t off = DirSlot::off_of(v);
      if (off == 0) continue;
      FileEntry* fe = entry_at(off);
      char namebuf[kMaxName + 1];
      const std::uint16_t nlen = fe->load_name(namebuf);
      if (nlen == 0) {  // mid-delete; a later scrub finishes it
        drained = false;
        continue;
      }
      const std::string_view nm{namebuf, nlen};
      DirBlock* head =
          anchor->bucket_heads[bucket_of(nm, eff_d)].load().in(dev_);
      if (head == nullptr) {  // torn image; recovery rolls back
        drained = false;
        continue;
      }
      const unsigned want_ln = line_of(nm);  // == ln except rename strays
      const std::uint16_t tag = tag_of_name(nm);
      SlotRef existing = find_slot_in(head, want_ln, nm, tag);
      if (existing.slot == nullptr) {
        // Publish the bucket copy first; the legacy slot clears only after
        // the copy persisted, so no crash prefix loses the entry.
        bool placed = false;
        while (!placed) {
          auto free_ref = free_slot_in(head, want_ln);
          if (!free_ref.is_ok()) break;  // out of blocks
          placed = claim_slot(*free_ref->slot, DirSlot::pack(tag, off));
        }
        if (!placed) {
          // The entry stays in the legacy chain.  Keep scanning: slots
          // whose bucket copy already exists still dedup-clear below
          // without allocating, so a partial drain leaves no duplicates.
          drained = false;
          continue;
        }
        SIMURGH_FAILPOINT("dir.split.slot_copied");
      } else if (DirSlot::off_of(existing.slot->v.load(
                     std::memory_order_acquire)) != off) {
        // Same name, different entry: remnant of a crashed replace-rename.
        // Leave the legacy slot for repair_line_* to adjudicate.
        drained = false;
        continue;
      }
      clear_slot(slot, v);
      SIMURGH_FAILPOINT("dir.split.slot_migrated");
    }
  }
  return drained;
}

void DirOps::maybe_split(Inode& dir) {
  if (split_bits_ == 0) return;
  DirBlock* anchor = first_block(dir);
  if (anchor == nullptr) return;
  if (anchor->split_state.load(std::memory_order_acquire) != 0) {
    // A split is mid-flight.  A live splitter refreshes every anchor
    // lease each line it migrates, so a fresh stamp means "stay out of
    // the way".  A stale one means the splitter died (or a drain stalled
    // on ENOSPC and released its locks): roll the split forward now so
    // the directory doesn't stay in splitting mode — every lookup
    // double-scanning legacy then bucket chains — until a remount.
    if (common::lease_expired(anchor->stamp_ns[0], lease_ns_))
      (void)split_directory(dir);
    return;
  }
  if (anchor->depth.load(std::memory_order_acquire) != 0) return;
  std::uint64_t n = 0;
  for (DirBlock* b = anchor; b != nullptr; b = b->next.load().in(dev_)) ++n;
  if (n <= split_threshold_) return;
  // Best effort: ENOSPC leaves the dir unsplit, or armed mid-drain (a
  // later pass finishes it).
  (void)split_directory(dir);
}

Status DirOps::split_directory(Inode& dir) {
  if (split_bits_ == 0) return Status::ok();
  DirBlock* anchor = first_block(dir);
  if (anchor == nullptr) return Status(Errc::invalid);

  // Take every anchor line lock, ascending — consistent with the global
  // (block, line) order, so the sweep cannot deadlock against mutators.
  std::optional<LineLock> locks[kLines];
  for (unsigned ln = 0; ln < kLines; ++ln)
    locks[ln].emplace(anchor, ln, lease_ns_);

  // A predecessor may have died mid-split: roll its attempt forward (depth
  // published) or back (depth still 0) before deciding ours.
  const std::uint64_t d0 = anchor->depth.load(std::memory_order_acquire);
  if (d0 != 0) {
    if (anchor->split_state.load(std::memory_order_acquire) != 0) {
      EpochGuard epoch(*this, dir);
      // Repair every line before draining: rename remnants need full
      // duplicate adjudication, and migrate_line refuses to settle while
      // any remain.  All mutators serialize on the anchor locks we hold,
      // so touching the bucket chains is safe.
      for (unsigned ln = 0; ln < kLines; ++ln) repair_line_all(dir, ln);
      bool drained = true;
      for (unsigned ln = 0; ln < kLines; ++ln) {
        const std::uint64_t now = common::monotonic_ns();
        for (unsigned i = 0; i < kLines; ++i)
          anchor->stamp_ns[i].store(now, std::memory_order_relaxed);
        if (!migrate_line(dir, ln)) drained = false;
      }
      // Settle only when every legacy slot drained: while any remain,
      // find_slot must keep probing the legacy chain first, which it does
      // only while the armed marker is up.
      if (!drained) return Status(Errc::no_space);
      anchor->split_state.store(0, std::memory_order_release);
      nvmm::persist_now(anchor->split_state);
    }
    return Status::ok();  // already split
  }
  if (anchor->split_state.load(std::memory_order_acquire) != 0) {
    // Rollback: the heads were never reachable (depth never published), so
    // they hold no entries.  Unhook before freeing — the pool scrubs.
    std::uint64_t head_offs[kMaxDirBuckets];
    unsigned n_heads = 0;
    for (unsigned i = 0; i < kMaxDirBuckets; ++i) {
      const nvmm::pptr<DirBlock> h = anchor->bucket_heads[i].load();
      if (!h) continue;
      head_offs[n_heads++] = h.raw();
      anchor->bucket_heads[i].store(nvmm::pptr<DirBlock>());
    }
    nvmm::persist(&anchor->bucket_heads[0], sizeof(anchor->bucket_heads));
    nvmm::fence();
    anchor->split_state.store(0, std::memory_order_release);
    nvmm::persist_now(anchor->split_state);
    for (unsigned i = 0; i < n_heads; ++i) pools_.dirblock->free(head_offs[i]);
  }
  for (unsigned ln = 0; ln < kLines; ++ln)
    if (locks[ln]->stole_lease()) repair_line_chain(dir, anchor, ln);

  // The guard's entry bump happens before any head exists and its exit
  // bump re-reads depth, so it invalidates the anchor now and the anchor
  // plus every head afterwards.
  EpochGuard epoch(*this, dir);
  // Advance the generation past the anchor's epoch before creating heads:
  // their epochs are then strictly greater than any epoch a pre-split
  // cache fill recorded, so such fills can never validate against a head.
  advance_epoch_gen(dev_, anchor->epoch.load(std::memory_order_acquire));
  SIMURGH_FAILPOINT("dir.split.prepared");

  const unsigned d = split_bits_;
  const unsigned nb = 1u << d;
  std::uint64_t head_offs[kMaxDirBuckets] = {};
  for (unsigned i = 0; i < nb; ++i) {
    auto r = create_dir_block();
    if (!r.is_ok()) {
      for (unsigned j = 0; j < i; ++j) pools_.dirblock->free(head_offs[j]);
      return r.status();
    }
    head_offs[i] = *r;
  }
  // The heads' claims and payloads are durable before any head pointer.
  nvmm::fence();
  for (unsigned i = 0; i < nb; ++i)
    anchor->bucket_heads[i].store(nvmm::pptr<DirBlock>(head_offs[i]));
  nvmm::persist(&anchor->bucket_heads[0], sizeof(anchor->bucket_heads));
  nvmm::fence();
  SIMURGH_FAILPOINT("dir.split.heads_published");

  anchor->split_state.store(1, std::memory_order_release);
  nvmm::persist_now(anchor->split_state);
  SIMURGH_FAILPOINT("dir.split.armed");

  // Readers load depth with acquire before anything else, so observing
  // d > 0 implies the heads and the armed marker above are visible.
  anchor->depth.store(d, std::memory_order_release);
  nvmm::persist_now(anchor->depth);
  SIMURGH_FAILPOINT("dir.split.depth_published");

  bool drained = true;
  for (unsigned ln = 0; ln < kLines; ++ln) {
    // Keep every held lease fresh: mutators must not conclude we died
    // while a long migration is still making progress.
    const std::uint64_t now = common::monotonic_ns();
    for (unsigned i = 0; i < kLines; ++i)
      anchor->stamp_ns[i].store(now, std::memory_order_relaxed);
    if (!migrate_line(dir, ln)) drained = false;
  }

  if (!drained) {
    // Out of blocks mid-migration: leave split_state armed — legacy-first
    // probing keeps the undrained entries reachable — and let a later
    // mutator (maybe_split's roll-forward) or recovery finish the drain.
    return Status(Errc::no_space);
  }
  anchor->split_state.store(0, std::memory_order_release);
  nvmm::persist_now(anchor->split_state);
  stat_splits_.fetch_add(1, std::memory_order_relaxed);
  SIMURGH_FAILPOINT("dir.split.done");
  return Status::ok();
}

void DirOps::replay_cross_log(Inode& src_dir) {
  DirBlock* first = first_block(src_dir);
  RenameLog& log = first->log;
  if (log.state.load(std::memory_order_acquire) == 0) return;
  // Decide redo vs. undo by whether the destination directory published a
  // slot pointing at the new entry — the operation's commit point.
  const std::uint64_t new_fe = log.new_fentry;
  const std::uint64_t old_fe = log.old_fentry;
  const bool dst_published = dir_contains_fentry(log.dst_dir_inode, new_fe);
  if (dst_published) {
    // Redo: the source entry becomes an interrupted delete (01, scrubbed).
    // Its slot is left to the next holder of its line or to recovery's line
    // repair, which clears it before finishing the free: a lease thief
    // replaying here holds only its own lines.
    if (pools_.fentry->flags_of(new_fe) ==
        (alloc::kObjValid | alloc::kObjDirty))
      pools_.fentry->commit(new_fe);
    const std::uint32_t f = pools_.fentry->flags_of(old_fe);
    if ((f & alloc::kObjValid) != 0) {
      pools_.fentry->set_flags(old_fe, alloc::kObjDirty);
      nvmm::fence();  // the source slot may still reach it
      scrub_entry(entry_at(old_fe));
    }
  } else if (pools_.fentry->flags_of(new_fe) != 0) {
    // Undo: the new entry never became reachable; drop it.
    pools_.fentry->free(new_fe);
  }
  // The replayed state is durable before the log disarms, and the disarm
  // before the log lock can pass to a writer who rewrites the record.
  nvmm::fence();
  log.state.store(0, std::memory_order_release);
  nvmm::persist_now(log.state);
}

bool DirOps::dir_contains_fentry(std::uint64_t first_blk_off,
                                 std::uint64_t fe_off) const {
  if (first_blk_off == 0) return false;
  auto chain_contains = [&](DirBlock* blk) {
    for (; blk != nullptr; blk = blk->next.load().in(dev_))
      for (unsigned ln = 0; ln < kLines; ++ln)
        for (unsigned s = 0; s < kSlotsPerLine; ++s)
          if (DirSlot::off_of(blk->lines[ln].slots[s].v.load(
                  std::memory_order_acquire)) == fe_off)
            return true;
    return false;
  };
  auto* anchor = reinterpret_cast<DirBlock*>(dev_.at(first_blk_off));
  if (chain_contains(anchor)) return true;
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) return false;
  const unsigned nb = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
  for (unsigned i = 0; i < nb; ++i) {
    DirBlock* h = anchor->bucket_heads[i].load().in(dev_);
    if (h != nullptr && chain_contains(h)) return true;
  }
  return false;
}

std::uint64_t DirOps::chain_length(Inode& dir) const {
  std::uint64_t n = 0;
  for_each_block(dir, [&](DirBlock*, std::uint64_t) { ++n; });
  return n;
}

std::uint64_t DirOps::compact_chain(Inode& dir) {
  if (!dir.dir.load()) return 0;
  EpochGuard epoch(*this, dir);
  std::uint64_t freed = 0;
  auto block_empty = [&](DirBlock* blk) {
    for (unsigned ln = 0; ln < kLines; ++ln)
      for (unsigned s = 0; s < kSlotsPerLine; ++s)
        if (blk->lines[ln].slots[s].v.load(std::memory_order_acquire) != 0)
          return false;
    return true;
  };
  auto compact_one = [&](DirBlock* first) {
    DirBlock* prev = first;
    nvmm::pptr<DirBlock> cur = prev->next.load();
    while (cur) {
      DirBlock* blk = cur.in(dev_);
      const nvmm::pptr<DirBlock> next = blk->next.load();
      if (block_empty(blk)) {
        // Unlink first (persist), then release the block: a crash in
        // between leaves an allocated-but-unreachable block the next sweep
        // reclaims.
        prev->next.store(next);
        nvmm::persist_now(prev->next);
        pools_.dirblock->free(cur.raw());
        ++freed;
      } else {
        prev = blk;
      }
      cur = next;
    }
  };
  DirBlock* anchor = first_block(dir);
  compact_one(anchor);
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) return freed;
  const unsigned nb = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
  bool all_empty = block_empty(anchor);
  for (unsigned i = 0; i < nb; ++i) {
    DirBlock* h = anchor->bucket_heads[i].load().in(dev_);
    if (h == nullptr) continue;
    compact_one(h);
    if (!block_empty(h) || h->next.load()) all_empty = false;
  }
  if (!all_empty) return freed;
  // The whole fan-out emptied: unsplit so the directory is a single block
  // again.  Keep every epoch unique first — advance the generation past
  // the largest epoch any chain head reached, then clear depth (persist)
  // before unhooking and freeing the heads, so no crash prefix leaves a
  // positive depth pointing at freed blocks.
  std::uint64_t mx = anchor->epoch.load(std::memory_order_acquire);
  std::uint64_t head_offs[kMaxDirBuckets];
  unsigned n_heads = 0;
  for (unsigned i = 0; i < nb; ++i) {
    const nvmm::pptr<DirBlock> h = anchor->bucket_heads[i].load();
    if (!h) continue;
    mx = std::max(mx, h.in(dev_)->epoch.load(std::memory_order_acquire));
    head_offs[n_heads++] = h.raw();
  }
  advance_epoch_gen(dev_, mx);
  anchor->depth.store(0, std::memory_order_release);
  nvmm::persist_now(anchor->depth);
  for (unsigned i = 0; i < kMaxDirBuckets; ++i)
    anchor->bucket_heads[i].store(nvmm::pptr<DirBlock>());
  nvmm::persist(&anchor->bucket_heads[0], sizeof(anchor->bucket_heads));
  nvmm::fence();
  for (unsigned i = 0; i < n_heads; ++i) {
    pools_.dirblock->free(head_offs[i]);
    ++freed;
  }
  // Future fills validate against the anchor again; stamp it above every
  // retired head epoch so none of their cached entries can ever match.
  anchor->epoch.store(
      epoch_gen(dev_).fetch_add(2, std::memory_order_acq_rel),
      std::memory_order_release);
  return freed;
}

void DirOps::recover_directory(Inode& dir) {
  if (!dir.dir.load()) return;
  EpochGuard epoch(*this, dir);
  DirBlock* anchor = first_block(dir);
  replay_cross_log(dir);
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) {
    // Roll back any split that never published its depth: the heads were
    // never reachable, so they hold no entries.  This also sweeps head
    // pointers a crash persisted before the armed marker.
    std::uint64_t head_offs[kMaxDirBuckets];
    unsigned n_heads = 0;
    for (unsigned i = 0; i < kMaxDirBuckets; ++i) {
      const nvmm::pptr<DirBlock> h = anchor->bucket_heads[i].load();
      if (!h) continue;
      head_offs[n_heads++] = h.raw();
      anchor->bucket_heads[i].store(nvmm::pptr<DirBlock>());
    }
    if (n_heads != 0) {
      nvmm::persist(&anchor->bucket_heads[0], sizeof(anchor->bucket_heads));
      nvmm::fence();
    }
    if (anchor->split_state.load(std::memory_order_acquire) != 0) {
      anchor->split_state.store(0, std::memory_order_release);
      nvmm::persist_now(anchor->split_state);
    }
    for (unsigned i = 0; i < n_heads; ++i)
      pools_.dirblock->free(head_offs[i]);
  }
  // Repair before finishing a migration: rename strays route to their
  // buckets with full duplicate adjudication, which plain slot migration
  // must not preempt.
  for (unsigned ln = 0; ln < kLines; ++ln) repair_line_all(dir, ln);
  if (d != 0 && anchor->split_state.load(std::memory_order_acquire) != 0) {
    // Roll the split forward: depth was published, so readers already
    // route to the buckets; drain what the dead splitter left behind.
    // Settle only if every line fully drained — otherwise keep the split
    // armed so legacy-first probing still reaches the leftover entries
    // and a later pass (maybe_split, the next recovery) finishes.
    bool drained = true;
    for (unsigned ln = 0; ln < kLines; ++ln)
      if (!migrate_line(dir, ln)) drained = false;
    if (drained) {
      anchor->split_state.store(0, std::memory_order_release);
      nvmm::persist_now(anchor->split_state);
    }
  }
  anchor->busy.store(0, std::memory_order_release);
  anchor->rename_busy.store(0, std::memory_order_release);
  anchor->log_lock.reset();
  nvmm::persist_obj(anchor->log_lock);
  nvmm::persist_now(anchor->busy);
  if (d != 0) {
    const unsigned nb = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
    for (unsigned i = 0; i < nb; ++i) {
      DirBlock* h = anchor->bucket_heads[i].load().in(dev_);
      if (h == nullptr) continue;
      h->busy.store(0, std::memory_order_release);
      nvmm::persist_now(h->busy);
    }
  }
}

}  // namespace simurgh::core
