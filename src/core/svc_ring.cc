// Metadata-service mode implementation (see svc_ring.h for the protocol).
#include "core/svc_ring.h"

#include <cstring>
#include <new>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/lease.h"
#include "core/fs.h"
#include "core/inode.h"
#include "core/shm.h"

namespace simurgh::core {

using common::claim_expired_stamp;
using common::lease_expired;
using common::monotonic_ns;

std::uint64_t MetaService::ring_offset(nvmm::Device& shm) {
  const auto& h = *reinterpret_cast<const ShmHeader*>(shm.base());
  const std::uint64_t off =
      (sizeof(ShmHeader) + h.n_locks * sizeof(FileLock) + 63) / 64 * 64;
  // At least the header and one slot must fit.
  if (off + sizeof(SvcRingHeader) + sizeof(SvcSlot) > shm.size()) return 0;
  return off;
}

std::uint64_t MetaService::owner_lease_ns() const noexcept {
  // Twice the registry lease: the registry reaper must get first call on a
  // dead mount (locks, reservations) before a peer re-executes its
  // in-flight arbitrations.
  return 2 * fs_.mount_registry().lease_ns();
}

std::uint64_t MetaService::expected_cap(std::uint64_t token) const noexcept {
  // Mirrors protected entry 3 (fs.cc register_protected_functions): the
  // server recomputes what the gateway minted for `token` and refuses a
  // mismatch before resolving anything.
  return mix64(token ^ fs_.sb().magic);
}

Status MetaService::enable() {
  nvmm::Device& shm = *fs_.shm_;
  const std::uint64_t off = ring_offset(shm);
  if (off == 0) return Status(Errc::no_space);
  auto* hdr = reinterpret_cast<SvcRingHeader*>(shm.base() + off);
  std::uint32_t expect = 0;
  if (hdr->init.compare_exchange_strong(expect, 1,
                                        std::memory_order_acq_rel)) {
    unsigned n = kSvcSlots;
    // Shrink to what the device can hold (the ring is DRAM convenience
    // state; a tiny ring just means more backpressure).
    while (n > 1 &&
           off + sizeof(SvcRingHeader) + n * sizeof(SvcSlot) > shm.size())
      n /= 2;
    if (off + sizeof(SvcRingHeader) + n * sizeof(SvcSlot) > shm.size()) {
      hdr->init.store(0, std::memory_order_release);
      return Status(Errc::no_space);
    }
    auto* slots =
        reinterpret_cast<SvcSlot*>(shm.base() + off + sizeof(SvcRingHeader));
    for (unsigned i = 0; i < n; ++i) new (&slots[i]) SvcSlot();
    hdr->n_slots = n;
    hdr->magic = kSvcMagic;
    hdr->owner_token.store(0, std::memory_order_relaxed);
    hdr->owner_stamp_ns.store(0, std::memory_order_relaxed);
    hdr->ticket.store(0, std::memory_order_relaxed);
    hdr->served.store(0, std::memory_order_relaxed);
    hdr->failovers.store(0, std::memory_order_relaxed);
    hdr->init.store(2, std::memory_order_release);
  } else {
    while (hdr->init.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    SIMURGH_CHECK(hdr->magic == kSvcMagic);
  }
  hdr_ = hdr;
  n_slots_ = hdr->n_slots;
  slots_ =
      reinterpret_cast<SvcSlot*>(shm.base() + off + sizeof(SvcRingHeader));
  token_ = fs_.mount_token();
  // Mint the attach capability through the protected gateway (entry 3).
  std::uint64_t arg = token_;
  std::uint64_t cap = 0;
  fs_.gateway().jmpp(fs_.prot_handle().entry(3), &arg, &cap);
  cap_ = cap;
  try_elect();
  return Status();
}

void MetaService::begin_shutdown(bool resign) {
  if (shut_down_) return;
  shut_down_ = true;
  shutting_down_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  if (server_.joinable()) server_.join();
  // New refill carves fall back to the allocator's direct path from here.
  fs_.blocks().set_carve_proxy(nullptr);
  if (hdr_ != nullptr && resign) {
    std::uint64_t tok = token_;
    hdr_->owner_token.compare_exchange_strong(tok, 0,
                                              std::memory_order_acq_rel);
  }
}

bool MetaService::is_owner() const noexcept {
  return hdr_ != nullptr &&
         hdr_->owner_token.load(std::memory_order_acquire) == token_;
}

bool MetaService::try_elect() {
  // The seat is a lease lock over its own two words (common/lease.h rules):
  // stamp a free seat before claiming it, and steal an expired one by
  // claiming its stamp first — so a peer that sees our token never reads
  // the previous owner's stale stamp and re-posts our in-flight slots.
  std::uint64_t cur = hdr_->owner_token.load(std::memory_order_acquire);
  if (cur == token_) return true;
  if (cur == 0) {
    hdr_->owner_stamp_ns.store(monotonic_ns(), std::memory_order_relaxed);
  } else if (!claim_expired_stamp(hdr_->owner_stamp_ns, owner_lease_ns())) {
    return false;
  }
  if (!hdr_->owner_token.compare_exchange_strong(cur, token_,
                                                 std::memory_order_acq_rel))
    return false;
  if (cur != 0) {
    // Took a dead owner's seat: first complete-or-unwind whatever its
    // in-flight requests left behind by re-posting them.
    hdr_->failovers.fetch_add(1, std::memory_order_relaxed);
    takeover_scan();
  }
  start_server();
  return true;
}

void MetaService::takeover_scan() {
  for (unsigned i = 0; i < n_slots_; ++i) {
    SvcSlot& s = slots_[i];
    std::uint32_t ph = s.phase.load(std::memory_order_acquire);
    if (ph != kSvcExecuting) continue;
    // attempts stays as the dead owner left it: the re-run dispatch sees
    // attempts > 1 and softens already-applied outcomes (roll-forward).
    s.phase.compare_exchange_strong(ph, kSvcPosted,
                                    std::memory_order_acq_rel);
  }
}

void MetaService::start_server() {
  if (server_.joinable()) return;
  stop_.store(false, std::memory_order_release);
  server_ = std::thread([this] { server_main(); });
}

void MetaService::server_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    // Refresh the seat lease; stand down if a peer stole it (our lease
    // expired — e.g. this process was stopped under a debugger).
    if (hdr_->owner_token.load(std::memory_order_acquire) != token_) return;
    hdr_->owner_stamp_ns.store(monotonic_ns(), std::memory_order_release);
    bool did = false;
    try {
      did = serve_once();
    } catch (const CrashedException&) {
      // The armed failpoint fired mid-dispatch: die exactly like a killed
      // owner — slot stays kExecuting, whatever locks the dispatch held
      // stay held (lease-steal repairs them), and the seat stamp goes
      // stale until a client elects itself.
      server_crashed_.store(true, std::memory_order_release);
      return;
    }
    if (!did) std::this_thread::yield();
  }
}

bool MetaService::serve_once() {
  bool did = false;
  for (unsigned i = 0; i < n_slots_ && !stop_.load(std::memory_order_acquire);
       ++i) {
    SvcSlot& s = slots_[i];
    std::uint32_t ph = s.phase.load(std::memory_order_acquire);
    if (ph != kSvcPosted) continue;
    if (!s.phase.compare_exchange_strong(ph, kSvcExecuting,
                                         std::memory_order_acq_rel))
      continue;
    execute(s);
    did = true;
  }
  return did;
}

void MetaService::execute(SvcSlot& s) {
  const std::uint32_t attempt =
      s.attempts.fetch_add(1, std::memory_order_acq_rel) + 1;
  hdr_->served.fetch_add(1, std::memory_order_relaxed);
  served_.fetch_add(1, std::memory_order_relaxed);
  {
    // Test hook: arm the pending failpoint in THIS thread (FailPoint state
    // is thread-local) so the dispatch below dies mid-mutation.
    common::MutexLock g(fp_mu_);
    if (fp_armed_) {
      fp_armed_ = false;
      FailPoint::arm(armed_failpoint_);
    }
  }
  Status st;
  std::uint64_t r0 = 0;
  if (s.cap != expected_cap(s.client_token.load(std::memory_order_acquire))) {
    // Forged or stale capability: refused before any path is resolved.
    st = Status(Errc::permission);
  } else {
    st = dispatch(s, attempt > 1, &r0);
  }
  publish(s, st, r0);
}

Status MetaService::dispatch(const SvcSlot& s, bool retry,
                             std::uint64_t* r0) {
  const std::string_view p1(s.paths[0], s.p1_len);
  const std::string_view p2(s.paths[1], s.p2_len);
  // A stack worker carrying the CLIENT's credentials: permission checks run
  // against the requester, not the server process.  svc_worker_ makes its
  // mutations execute locally instead of re-routing into the ring.
  Process w(fs_, protsec::Credentials{s.euid, s.egid});
  w.svc_worker_ = true;
  switch (static_cast<SvcOp>(s.op)) {
    case SvcOp::kNoop:
      return Status();
    case SvcOp::kMkdir: {
      Status st = w.mkdir(p1, static_cast<std::uint32_t>(s.arg0));
      // Roll-forward: a re-executed request may find its own first attempt
      // already applied (the dead owner crashed between apply and reply).
      if (retry && st.code() == Errc::exists) return Status();
      return st;
    }
    case SvcOp::kRmdir: {
      Status st = w.rmdir(p1);
      if (retry && st.code() == Errc::not_found) return Status();
      return st;
    }
    case SvcOp::kUnlink: {
      Status st = w.unlink(p1);
      if (retry && st.code() == Errc::not_found) return Status();
      return st;
    }
    case SvcOp::kRename: {
      Status st = w.rename(p1, p2);
      if (retry && st.code() == Errc::not_found) return Status();
      return st;
    }
    case SvcOp::kLink: {
      Status st = w.link(p1, p2);
      if (retry && st.code() == Errc::exists) return Status();
      return st;
    }
    case SvcOp::kSymlink: {
      Status st = w.symlink(p1, p2);
      if (retry && st.code() == Errc::exists) return Status();
      return st;
    }
    case SvcOp::kChmod:
      return w.chmod(p1, static_cast<std::uint32_t>(s.arg0));
    case SvcOp::kChown:
      return w.chown(p1, static_cast<std::uint32_t>(s.arg0),
                     static_cast<std::uint32_t>(s.arg1));
    case SvcOp::kCreate: {
      // Existing path reports exists regardless of O_EXCL — the client
      // holds the flags and decides (error, or reopen without O_CREAT).
      // On a retry that finding usually IS our first attempt's result;
      // either way the client-side reopen converges.
      auto r = w.create_path(p1, static_cast<std::uint32_t>(s.arg0));
      if (!r.is_ok()) return r.status();
      *r0 = r.value();
      return Status();
    }
    case SvcOp::kSetDurability: {
      // Arbitrate the resolve + permission check; the CLIENT applies the
      // class to its own write-behind tier (durability classes are
      // per-mount DRAM and the data path stays direct).
      auto r = w.durability_target(p1);
      if (!r.is_ok()) return r.status();
      *r0 = r.value();
      return Status();
    }
    case SvcOp::kSetDurabilityFd: {
      // fd validity was checked client-side; re-check what shared state
      // can prove (the inode must still be a live file).
      const std::uint64_t ino_off = s.arg0;
      if (fs_.pool(kPoolInode).flags_of(ino_off) != alloc::kObjValid)
        return Status(Errc::bad_fd);
      if (!fs_.inode_at(ino_off)->is_file()) return Status(Errc::is_dir);
      *r0 = ino_off;
      return Status();
    }
    case SvcOp::kCarve: {
      auto r = fs_.blocks().carve_grant(s.arg0, s.arg1);
      if (!r.is_ok()) return r.status();
      *r0 = r.value();
      return Status();
    }
  }
  return Status(Errc::invalid);
}

void MetaService::publish(SvcSlot& s, Status st, std::uint64_t r0) {
  const std::uint64_t sq = s.seq.load(std::memory_order_relaxed);
  s.seq.store(sq + 1, std::memory_order_release);  // odd: response unstable
  s.err = static_cast<std::int32_t>(st.code());
  s.r0 = r0;
  s.seq.store(sq + 2, std::memory_order_release);  // even: response stable
  if (lease_expired(s.client_stamp_ns, owner_lease_ns())) {
    // The waiter died: nobody will consume the response; reap the slot.
    s.phase.store(kSvcFree, std::memory_order_release);
  } else {
    s.phase.store(kSvcDone, std::memory_order_release);
  }
}

SvcSlot* MetaService::claim_slot() {
  const std::uint64_t start =
      hdr_->ticket.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    if (shutting_down_.load(std::memory_order_acquire)) return nullptr;
    for (unsigned j = 0; j < n_slots_; ++j) {
      SvcSlot& s = slots_[(start + j) % n_slots_];
      std::uint32_t ph = s.phase.load(std::memory_order_acquire);
      if (ph != kSvcFree) {
        // Reap a dead claimant's parked slot — but never one the server is
        // executing (the failover takeover path owns those).
        if (ph == kSvcExecuting) continue;
        if (!lease_expired(s.client_stamp_ns, owner_lease_ns())) continue;
        if (!s.phase.compare_exchange_strong(ph, kSvcFree,
                                             std::memory_order_acq_rel))
          continue;
      }
      // Stamp before claim: a peer that sees the slot claimed must not
      // judge it by the previous claimant's stamp and reap it from us.
      s.client_stamp_ns.store(monotonic_ns(), std::memory_order_relaxed);
      std::uint32_t expect = kSvcFree;
      if (s.phase.compare_exchange_strong(expect, kSvcClaimed,
                                          std::memory_order_acq_rel)) {
        s.client_token.store(token_, std::memory_order_relaxed);
        return &s;
      }
    }
    // Full ring: backpressure by spinning — a slot frees as soon as the
    // server publishes (or a dead claimant's lease expires).
    std::this_thread::yield();
  }
}

Status MetaService::request(SvcOp op, const protsec::Credentials& cred,
                            std::string_view p1, std::string_view p2,
                            std::uint64_t a0, std::uint64_t a1,
                            std::uint64_t* r0) {
  if (hdr_ == nullptr) return Status(Errc::invalid);
  if (shutting_down_.load(std::memory_order_acquire))
    return Status(Errc::busy);
  if (p1.size() >= kSvcMaxPath || p2.size() >= kSvcMaxPath)
    return Status(Errc::name_too_long);
  SvcSlot* s = claim_slot();
  if (s == nullptr) return Status(Errc::busy);
  s->op = static_cast<std::uint32_t>(op);
  s->euid = cred.euid;
  s->egid = cred.egid;
  s->p1_len = static_cast<std::uint32_t>(p1.size());
  s->p2_len = static_cast<std::uint32_t>(p2.size());
  if (!p1.empty()) std::memcpy(s->paths[0], p1.data(), p1.size());
  if (!p2.empty()) std::memcpy(s->paths[1], p2.data(), p2.size());
  s->cap = cap_;
  s->arg0 = a0;
  s->arg1 = a1;
  s->attempts.store(0, std::memory_order_relaxed);
  s->phase.store(kSvcPosted, std::memory_order_release);

  unsigned spins = 0;
  for (;;) {
    const std::uint32_t ph = s->phase.load(std::memory_order_acquire);
    if (ph == kSvcDone) break;
    if (ph == kSvcFree ||
        s->client_token.load(std::memory_order_relaxed) != token_) {
      // Reaped under us (our own stamp read as expired — a paused
      // process).  The request may or may not have been applied; report
      // busy and let the caller retry against current state.
      return Status(Errc::busy);
    }
    if (hdr_->owner_token.load(std::memory_order_acquire) == 0 ||
        lease_expired(hdr_->owner_stamp_ns, owner_lease_ns())) {
      // Owner death detection: elect ourselves (the takeover re-posts this
      // very slot and the new server thread serves it).
      try_elect();
    }
    if (++spins > 64) {
      // A long wait: keep our slot's lease fresh (claim_slot stamped it)
      // so the server and other claimants never take us for dead.
      s->client_stamp_ns.store(monotonic_ns(), std::memory_order_release);
      std::this_thread::yield();
    }
  }

  // The phase acquire already ordered the response words; the seqlock
  // check is a torn-read guard on top (belt over the braces).
  std::int32_t err;
  std::uint64_t rr;
  for (;;) {
    const std::uint64_t q1 = s->seq.load(std::memory_order_acquire);
    err = s->err;
    rr = s->r0;
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t q2 = s->seq.load(std::memory_order_relaxed);
    if ((q1 & 1) == 0 && q1 == q2) break;
  }
  s->phase.store(kSvcFree, std::memory_order_release);
  if (r0 != nullptr) *r0 = rr;
  return err == 0 ? Status() : Status(static_cast<Errc>(err));
}

Result<std::uint64_t> MetaService::carve(std::uint64_t n_blocks,
                                         std::uint64_t hint) {
  if (shutting_down_.load(std::memory_order_acquire)) return Errc::busy;
  if (is_owner()) return fs_.blocks().carve_grant(n_blocks, hint);
  std::uint64_t r0 = 0;
  Status st = request(SvcOp::kCarve, protsec::Credentials{0, 0}, {}, {},
                      n_blocks, hint, &r0);
  if (!st.is_ok()) return st;
  return r0;
}

void MetaService::arm_server_failpoint(std::string point) {
  common::MutexLock g(fp_mu_);
  armed_failpoint_ = std::move(point);
  fp_armed_ = true;
}

// ----------------------------------------------------------------- Process

std::optional<Status> Process::route_meta(SvcOp op, std::string_view p1,
                                          std::string_view p2,
                                          std::uint64_t a0, std::uint64_t a1,
                                          std::uint64_t* r0) {
  MetaService* m = fs_.meta_.get();
  if (m == nullptr || !m->enabled() || svc_worker_) return std::nullopt;
  if (m->is_owner()) {
    // The arbiter mutating its own namespace IS arbitration.
    fs_.svc_local_fastpath_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  fs_.svc_requests_.fetch_add(1, std::memory_order_relaxed);
  return m->request(op, cred_, p1, p2, a0, a1, r0);
}

}  // namespace simurgh::core
