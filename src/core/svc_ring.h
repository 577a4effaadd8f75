// Metadata-service mode: the arbitrated trust boundary (DESIGN.md §13).
//
// Simurgh's default is fully decentralized — every mount mutates shared
// NVMM directly.  Service mode narrows that: one *owner* mount arbitrates
// all namespace and allocation mutations (create/unlink/rename/mkdir/rmdir/
// link/symlink/chmod/chown, block-reservation carves, durability-class
// changes) while reads and writes keep going straight to NVMM through the
// extent cache and the write-behind tier — the KucoFS split (PAPERS.md): a
// trusted arbiter owns metadata, clients keep the direct data path.
//
// Transport: a fixed-slot request/response ring in the shared-DRAM device,
// placed right after the file-lock table (SvcRing::ring_offset).  Each slot
// is one cache-line-aligned mailbox:
//
//   phase   kFree -> kClaimed (client CAS) -> kPosted (payload ready)
//              -> kExecuting (server CAS)  -> kDone (response ready)
//              -> kFree (client consumes)
//   payload plain request fields, written between Claimed and Posted and
//           read between Posted and Done — the phase release/acquire pair
//           carries the ordering;
//   seq     seqlock over the response words (err/r0): the server publishes
//           odd -> fields -> even before kDone, the client rejects a torn
//           read (belt over the phase ordering's braces);
//   leases  client_stamp_ns is refreshed by the waiting client and
//           owner_stamp_ns by the serving owner, both against the mount
//           registry's lease — a dead client's slot is reaped by the next
//           claimant or the server, a dead owner is replaced by election
//           (below), exactly the lease discipline the registry machinery
//           applies to mount slots.
//
// Waiting is spin-then-yield.  A futex word would work (the shm device can
// be MAP_SHARED) but does not pay: with client and server on one CPU the
// server runs only once the client gives the CPU up, so a trip costs two
// sched_yields (about 2.8 µs on a 4-vCPU x86-64 VM), where a futex handoff
// needs at least four syscalls.  The client's first 64 spins read only its
// slot's words and no clock: 64 clock reads take 2.6–2.9 µs there, all of
// it delay when the server cannot run until the client yields.  From then
// on each spin checks the owner's lease, refreshes the slot stamp and
// yields.
//
// Each server thread dispatches through one worker Process, built when the
// thread starts and re-credentialed per request: building a Process
// zero-fills its 96 KiB fd table (2.4–3.0 µs on the same VM), and the
// server never opens an fd.
//
// Ownership and failover: the first mount to enable service mode CASes its
// registry token into owner_token and runs the server thread.  A client
// that observes owner_stamp_ns expired CASes itself in (failovers++), then
// *re-posts* every slot the dead owner left kExecuting — attempts counts
// executions, so a re-run request knows it may be a roll-forward and
// softens already-applied outcomes (mkdir EEXIST after a crash between
// apply and response is success, not failure).  The re-executed mutation
// lease-steals whatever directory lines or file locks the dead server died
// holding; the steal_repair machinery completes or unwinds the torn
// protocol step first, so roll-forward needs no new repair code.
//
// Security: a client attaches to the ring by minting a capability through
// the protected-function gateway (entry 3, Fig. 2 model): the kernel-side
// entry mixes the caller's registry token with the superblock magic, and
// the server recomputes the same mix before dispatching — a request with a
// forged capability is refused with Errc::permission before any path is
// resolved.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "alloc/block_alloc.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/layout.h"
#include "protsec/bootstrap.h"

namespace simurgh::core {

class FileSystem;
class Process;

// Arbitrated operations.  Values are part of the shm ABI between processes
// of one boot; append only.
enum class SvcOp : std::uint32_t {
  kNoop = 0,  // liveness probe (tests)
  kMkdir = 1,
  kRmdir = 2,
  kUnlink = 3,
  kRename = 4,
  kLink = 5,
  kSymlink = 6,
  kChmod = 7,
  kChown = 8,
  kCreate = 9,           // open(O_CREAT) create step; r0 = new inode offset
  kSetDurability = 10,   // by path; r0 = inode offset, client applies locally
  kSetDurabilityFd = 11, // by inode offset (fd checks stay client-side)
  kCarve = 12,           // block-reservation grant; r0 = run device offset
};

constexpr std::uint32_t kSvcFree = 0;
constexpr std::uint32_t kSvcClaimed = 1;
constexpr std::uint32_t kSvcPosted = 2;
constexpr std::uint32_t kSvcExecuting = 3;
constexpr std::uint32_t kSvcDone = 4;

constexpr std::size_t kSvcMaxPath = 480;
constexpr unsigned kSvcSlots = 16;  // shrunk to fit a small shm device
constexpr std::uint64_t kSvcMagic = 0x53494d5f53564331ull;  // "SIM_SVC1"

struct alignas(64) SvcSlot {
  // Mailbox protocol state — named `phase`, deliberately not `state`: this
  // is volatile shared DRAM, and pmlint's fence-before-commit rule is about
  // NVMM commit words.
  std::atomic<std::uint32_t> phase{kSvcFree};
  // Executions of the posted request (server increments before dispatch);
  // > 1 on the wait side means a failover re-post may have rolled the
  // mutation forward already.
  std::atomic<std::uint32_t> attempts{0};
  std::atomic<std::uint64_t> client_token{0};
  std::atomic<std::uint64_t> client_stamp_ns{0};
  std::atomic<std::uint64_t> seq{0};  // seqlock over err / r0

  // Request payload (plain: ordered by the phase transitions).
  std::uint32_t op = 0;
  std::uint32_t euid = 0;
  std::uint32_t egid = 0;
  std::uint32_t p1_len = 0;
  std::uint32_t p2_len = 0;
  std::uint64_t cap = 0;  // gateway-minted attach capability
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  char paths[2][kSvcMaxPath];

  // Response payload (seqlock'd).
  std::int32_t err = 0;
  std::uint64_t r0 = 0;
};

struct alignas(64) SvcRingHeader {
  // 0 untouched / 1 initializing / 2 ready — the first enabler wins the
  // CAS, sizes the ring and publishes 2 with release; later enablers adopt
  // its n_slots.
  std::atomic<std::uint32_t> init{0};
  std::uint32_t n_slots = 0;
  std::uint64_t magic = 0;
  std::atomic<std::uint64_t> owner_token{0};
  std::atomic<std::uint64_t> owner_stamp_ns{0};
  std::atomic<std::uint64_t> ticket{0};     // round-robin claim start
  std::atomic<std::uint64_t> served{0};     // requests dispatched (all owners)
  std::atomic<std::uint64_t> failovers{0};  // ownership changes after death
};

// Per-mount endpoint: client transport, owner election, and (while owner)
// the server thread.  Owned by FileSystem; created by enable_service_mode().
// Doubles as the allocator's CarveProxy so reservation refills are
// arbitrated through the same seat as namespace mutations.
class MetaService : public alloc::CarveProxy {
 public:
  explicit MetaService(FileSystem& fs) : fs_(fs) {}
  ~MetaService() override { begin_shutdown(/*resign=*/false); }
  MetaService(const MetaService&) = delete;
  MetaService& operator=(const MetaService&) = delete;

  // Ring placement in the shm device: first 64-byte boundary past the
  // file-lock table.  Returns 0 when the device cannot hold header + slots.
  static std::uint64_t ring_offset(nvmm::Device& shm);

  // Attaches to (initializing if first) the ring, mints the attach
  // capability through the gateway, and elects this mount owner when the
  // seat is empty.  Errc::no_space when the shm device is too small.
  Status enable();

  // Stops serving.  `resign` (clean unmount) releases owner_token so a peer
  // takes over immediately; a destructor without resign models a crash and
  // leaves the seat to lease-based failover.
  void begin_shutdown(bool resign);

  [[nodiscard]] bool enabled() const noexcept { return hdr_ != nullptr; }
  [[nodiscard]] bool is_owner() const noexcept;

  // Client side: execute `op` on the owner and wait for the response.
  // Elects itself (and then serves its own slot) when the owner's lease
  // expires mid-wait.
  Status request(SvcOp op, const protsec::Credentials& cred,
                 std::string_view p1, std::string_view p2, std::uint64_t a0,
                 std::uint64_t a1, std::uint64_t* r0 = nullptr);

  // Allocation carve proxy (BlockAllocator reservation refills).  The owner
  // short-circuits to a local grant; a client routes kCarve; after
  // begin_shutdown it reports busy and the allocator falls back to its
  // direct path (the mount is dying — ~FileSystem without unmount models a
  // crash anyway).
  Result<std::uint64_t> carve(std::uint64_t n_blocks,
                              std::uint64_t hint) override;

  [[nodiscard]] std::uint64_t served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failovers() const noexcept {
    return hdr_ ? hdr_->failovers.load(std::memory_order_relaxed) : 0;
  }

  // ---- test hooks ----
  [[nodiscard]] SvcRingHeader* ring_header() noexcept { return hdr_; }
  [[nodiscard]] SvcSlot* slot(unsigned i) noexcept { return &slots_[i]; }
  [[nodiscard]] unsigned n_slots() const noexcept { return n_slots_; }
  // Forged-capability injection: subsequent requests carry `cap` instead of
  // the gateway-minted one.
  void override_capability(std::uint64_t cap) noexcept { cap_ = cap; }
  // Arms `point` inside the server thread before its next dispatch; the
  // resulting CrashedException stops the server cold (locks stay held,
  // slot stays kExecuting) — the in-process stand-in for killing the owner.
  void arm_server_failpoint(std::string point);
  [[nodiscard]] bool server_crashed() const noexcept {
    return server_crashed_.load(std::memory_order_acquire);
  }

 private:
  friend class FileSystem;

  [[nodiscard]] std::uint64_t owner_lease_ns() const noexcept;
  [[nodiscard]] std::uint64_t expected_cap(std::uint64_t token) const noexcept;

  bool try_elect();
  void start_server();
  void takeover_scan();  // re-post the dead owner's kExecuting slots
  void server_main();
  // One ring sweep through the thread's worker `w`; true if something was
  // dispatched.
  bool serve_once(Process& w);
  void execute(SvcSlot& s, Process& w);
  Status dispatch(const SvcSlot& s, Process& w, bool retry, std::uint64_t* r0);
  SvcSlot* claim_slot();
  void publish(SvcSlot& s, Status st, std::uint64_t r0);

  FileSystem& fs_;
  SvcRingHeader* hdr_ = nullptr;
  SvcSlot* slots_ = nullptr;
  unsigned n_slots_ = 0;
  std::uint64_t token_ = 0;  // this mount's registry token
  std::uint64_t cap_ = 0;    // gateway-minted attach capability

  std::thread server_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> server_crashed_{false};
  // Set (and never cleared) by begin_shutdown before the server joins, so
  // carve() and request() refuse with busy instead of touching a ring the
  // destructor is abandoning.
  std::atomic<bool> shutting_down_{false};
  bool shut_down_ = false;  // begin_shutdown idempotence (single caller)
  std::atomic<std::uint64_t> served_{0};

  common::Mutex fp_mu_;
  // The armed point's characters must outlive the FailPoint::arm call
  // (FailPoint keeps a string_view); armed once, consumed by CrashedException
  // — the string is never shrunk after fp_armed_ is set.
  std::string armed_failpoint_ GUARDED_BY(fp_mu_);
  bool fp_armed_ GUARDED_BY(fp_mu_) = false;
};

}  // namespace simurgh::core
