// Data operations (§4.3 "Data operations").
//
// Writes stream into NVMM with non-temporal stores and are ordered before
// the metadata (size) update by a store fence; reads copy straight out of
// the mapped region.  A per-file reader/writer lock in shared DRAM gives
// writes exclusivity while reads run concurrently; relaxed mode (Fig. 7k)
// drops the write lock and leaves coordination to the application.
//
// Files with a relaxed durability class (write_behind.h) divert writes into
// the DRAM staging tier before reaching the strict path, and reads overlay
// staged bytes so acked data is always visible.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory_resource>
#include <optional>
#include <vector>

#include "common/failpoint.h"
#include "core/fs.h"
#include "core/write_behind.h"

namespace simurgh::core {

namespace {
constexpr std::uint64_t kBS = alloc::kBlockSize;
constexpr std::uint64_t kNoZero = ~std::uint64_t{0};
}  // namespace

Result<bool> FileSystem::ensure_allocated(ExtentResolver& res, Inode& ino,
                                          std::uint64_t ino_off,
                                          std::uint64_t first_block,
                                          std::uint64_t n_blocks,
                                          std::uint64_t zero_a,
                                          std::uint64_t zero_b) {
  // Allocate every missing run before mapping any: a run mapped ahead of a
  // later no_space would stay in the file unwritten, holding the bytes of
  // whichever file freed it.  The usual one or two runs fit the stack
  // buffer, so the write path allocates nothing on the heap.
  struct Run {
    std::uint64_t file_block, dev_off, n_blocks;
  };
  alignas(Run) std::byte stack_buf[2 * sizeof(Run)];
  std::pmr::monotonic_buffer_resource mem(stack_buf, sizeof stack_buf);
  std::pmr::vector<Run> fresh(&mem);
  fresh.reserve(2);
  auto give_back = [&](std::size_t from) {
    for (std::size_t i = from; i < fresh.size(); ++i)
      blocks().free(fresh[i].dev_off, fresh[i].n_blocks);
  };
  std::uint64_t b = first_block;
  const std::uint64_t end = first_block + n_blocks;
  while (b < end) {
    const ExtentResolver::Run run = res.run_at(b, end - b);
    if (run.dev_off != 0) {
      b += run.n_blocks;
      continue;
    }
    // Allocate the whole missing run contiguously.  No segment holds a run
    // longer than itself, so on no_space halve the request and fill the
    // hole piecewise; the loop re-probes the remainder.
    std::uint64_t take = run.n_blocks;
    Result<std::uint64_t> got = blocks().alloc(take, ino_off);
    while (!got.is_ok() && got.code() == Errc::no_space && take > 1) {
      take /= 2;
      got = blocks().alloc(take, ino_off);
    }
    if (!got.is_ok()) {
      give_back(0);
      return got.code();
    }
    fresh.push_back({b, *got, take});
    b += take;
  }
  if (fresh.empty()) return false;
  // Mark the map epoch odd and stop trusting the snapshot we found the
  // holes through (it predates our own appends).
  ExtentEpochGuard guard(ino);
  res.invalidate_snapshot();
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const Run& r = fresh[i];
    // Reset the run's checksum entries: a recycled block's stale entry must
    // not indict its new owner's bytes, and fallocate'd blocks stay
    // "no checksum recorded" until actually written.
    crc_.clear(r.dev_off, r.n_blocks);
    // A fresh block the write only partially covers must read back zeros
    // in its unwritten bytes; interior blocks are fully overwritten.  The
    // zeros must be *durable* before the size stamp can commit: the block
    // may be recycled and still hold a dead file's bytes, and the nt_copy
    // covers only [off, off+n) — so flush the zeroed lines here (the data
    // fence preceding the size stamp orders them with the commit).
    for (const std::uint64_t zb : {zero_a, zero_b}) {
      if (zb >= r.file_block && zb < r.file_block + r.n_blocks) {
        std::byte* blk = dev().at(r.dev_off + (zb - r.file_block) * kBS);
        std::memset(blk, 0, kBS);
        nvmm::persist(blk, kBS);
      }
    }
    if (Status st = res.map().append(r.file_block, r.dev_off, r.n_blocks);
        !st.is_ok()) {
      // The extent pool ran dry part-way.  Give back the runs not mapped,
      // zero the mapped ones so they read as the holes they filled, and
      // trim any that lie past EOF.
      give_back(i);
      for (std::size_t j = 0; j < i; ++j) {
        std::byte* p = dev().at(fresh[j].dev_off);
        std::memset(p, 0, fresh[j].n_blocks * kBS);
        nvmm::persist(p, fresh[j].n_blocks * kBS);
      }
      const std::uint64_t size = ino.size.load(std::memory_order_acquire);
      res.map().drop_from((size + kBS - 1) / kBS,
                          [&](std::uint64_t off, std::uint64_t n) {
                            blocks().free(off, n);
                          });
      nvmm::fence();
      return st.code();
    }
  }
  return true;
}

Status FileSystem::write_file_bytes(Inode& ino, std::uint64_t ino_off,
                                    const void* buf, std::size_t n,
                                    std::uint64_t off) {
  if (n == 0) return Status::ok();
  const std::uint64_t first = off / kBS;
  const std::uint64_t last = (off + n + kBS - 1) / kBS;
  const std::uint64_t zero_a = off % kBS != 0 ? first : kNoZero;
  const std::uint64_t zero_b =
      (off + n) % kBS != 0 ? (off + n) / kBS : kNoZero;
  ExtentResolver res(extent_cache_if_enabled(), dev(), pool(kPoolExtent),
                     ino, ino_off, /*build_views=*/false);
  auto mutated = ensure_allocated(res, ino, ino_off, first, last - first,
                                  zero_a, zero_b);
  if (!mutated.is_ok()) return mutated.status();
  // Our own appends invalidated the snapshot mid-allocation; re-probe at
  // the new (even) epoch so the copy loop below — and the next writer —
  // run off a fresh cached view.
  if (*mutated) res.invalidate_snapshot();
  std::size_t done = 0;
  const auto* src = static_cast<const std::byte*>(buf);
  while (done < n) {
    const std::uint64_t pos = off + done;
    const std::uint64_t in_block = pos % kBS;
    const std::uint64_t fb = pos / kBS;
    const ExtentResolver::Run run = res.run_at(fb, last - fb);
    SIMURGH_CHECK(run.dev_off != 0);
    // One streaming copy per extent run: adjacent blocks of one extent are
    // device-contiguous, so a multi-block write needs one nt_copy per
    // extent instead of one per 4 KB block.
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(n - done, run.n_blocks * kBS - in_block));
    nvmm::nt_copy(dev().at(run.dev_off) + in_block, src + done, chunk);
    done += chunk;
  }
  // Re-derive the checksum of every touched block (integrity.h).  Under the
  // caller's exclusive file lock entry and bytes move together; the entries
  // ride the caller's commit fence so data and checksum become durable as
  // one.  (Relaxed-writes mode waives the lock and with it checksum
  // coherence — documented as incompatible with verify_reads.)
  if (crc_.attached()) {
    std::uint64_t fb = first;
    while (fb < last) {
      const ExtentResolver::Run run = res.run_at(fb, last - fb);
      SIMURGH_CHECK(run.dev_off != 0);
      const std::uint64_t take =
          std::min<std::uint64_t>(run.n_blocks, last - fb);
      for (std::uint64_t i = 0; i < take; ++i)
        crc_.stamp(run.dev_off + i * kBS);
      fb += take;
    }
  }
  return Status::ok();
}

Result<std::size_t> Process::do_read(Inode& ino, std::uint64_t ino_off,
                                     void* buf, std::size_t n,
                                     std::uint64_t off) {
  SharedFileLock lock(fs_.file_locks(), fs_.file_locks().slot_for(ino_off));
  const std::uint64_t size = ino.size.load(std::memory_order_acquire);
  // Reads must see acked-but-staged data: the effective size includes
  // staged appends, and staged ranges are overlaid after the base copy.
  WriteBehind* wb = fs_.write_behind();
  const bool staged = wb != nullptr && wb->active();
  std::uint64_t eff = size;
  if (staged) eff = std::max(eff, wb->staged_size_of(ino_off));
  if (off >= eff) return std::size_t{0};
  n = static_cast<std::size_t>(std::min<std::uint64_t>(n, eff - off));
  ExtentResolver res(fs_.extent_cache_if_enabled(), fs_.dev(),
                     fs_.pool(kPoolExtent), ino, ino_off);
  const std::uint64_t last = (off + n + kBS - 1) / kBS;
  std::size_t done = 0;
  auto* out = static_cast<std::byte*>(buf);
  while (done < n) {
    const std::uint64_t pos = off + done;
    if (pos >= size) {
      // Between the persisted size and the staged size: blocks here may be
      // unwritten fallocate garbage — zero-fill, then let the overlay put
      // the staged bytes on top (gaps between staged ranges read as zeros).
      std::memset(out + done, 0, n - done);
      done = n;
      break;
    }
    const std::uint64_t in_block = pos % kBS;
    const std::uint64_t fb = pos / kBS;
    const ExtentResolver::Run run = res.run_at(fb, last - fb);
    // One copy (or zero-fill) per extent-sized run, not per block.
    const std::size_t chunk = static_cast<std::size_t>(std::min<std::uint64_t>(
        std::min<std::uint64_t>(n - done, run.n_blocks * kBS - in_block),
        size - pos));
    if (run.dev_off == 0) {
      std::memset(out + done, 0, chunk);  // hole
    } else {
      if (fs_.verify_reads()) {
        // Validate every device block this chunk touches BEFORE copying —
        // a flipped bit is reported as io, never silently returned.  The
        // shared lock excludes writers, so an entry can't be mid-update.
        const std::uint64_t vlast = (in_block + chunk - 1) / kBS;
        for (std::uint64_t vb = 0; vb <= vlast; ++vb) {
          if (!fs_.crc().verify(run.dev_off + vb * kBS)) {
            fs_.note_crc_failure();
            return Errc::io;
          }
        }
      }
      std::memcpy(out + done, fs_.dev().at(run.dev_off) + in_block, chunk);
    }
    done += chunk;
  }
  if (staged) wb->overlay_read(ino_off, buf, n, off);
  // Lazy atime: volatile update only; persisting atime on every read would
  // defeat the purpose of a read path (relatime-style policy).
  ino.atime_ns.store(wall_ns(), std::memory_order_relaxed);
  return done;
}

Result<std::size_t> Process::do_write(Inode& ino, std::uint64_t ino_off,
                                      const void* buf, std::size_t n,
                                      std::uint64_t off, bool append,
                                      std::uint64_t* pos_out) {
  std::optional<ExclusiveFileLock> lock;
  if (!fs_.relaxed_writes())
    lock.emplace(fs_.file_locks(), fs_.file_locks().slot_for(ino_off));
  if (append) {
    // O_APPEND: the position is resolved *after* taking the write lock, so
    // concurrent appenders see each other's size update and never overlap.
    // Relaxed mode (no lock, Fig. 7k) reserves a disjoint range by bumping
    // the size atomically up front — appends interleave without clobbering;
    // the size-before-data crash-atomicity this gives up is part of what
    // relaxed mode already waives.
    off = lock ? ino.size.load(std::memory_order_acquire)
               : ino.size.fetch_add(n, std::memory_order_acq_rel);
  }
  if (pos_out != nullptr) *pos_out = off;
  if (n == 0) return std::size_t{0};

  if (Status st = fs_.write_file_bytes(ino, ino_off, buf, n, off);
      !st.is_ok())
    return st.code();
  // Order: data durable before the size/mtime update (paper: sfence between
  // data persist and metadata update) — ONE fence for the whole write.
  nvmm::fence();
  SIMURGH_FAILPOINT("fs.write.data_persisted");
  inode_size_max(ino.size, off + n);
  ino.mtime_ns.store(wall_ns(), std::memory_order_relaxed);
  nvmm::persist(&ino.size, kSizeStampBytes);
  nvmm::fence();
  return n;
}

Result<std::size_t> Process::read(int fd, void* buf, std::size_t n) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Errc::bad_fd;
  if ((f->flags & kOpenRead) == 0) return Errc::bad_fd;
  const std::uint64_t ino_off = f->inode_off.load(std::memory_order_acquire);
  const std::uint64_t pos = f->pos.load(std::memory_order_relaxed);
  auto r = do_read(*fs_.inode_at(ino_off), ino_off, buf, n, pos);
  if (r.is_ok()) f->pos.store(pos + *r, std::memory_order_relaxed);
  return r;
}

Result<std::size_t> Process::write(int fd, const void* buf, std::size_t n) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Errc::bad_fd;
  if ((f->flags & kOpenWrite) == 0) return Errc::bad_fd;
  const std::uint64_t ino_off = f->inode_off.load(std::memory_order_acquire);
  Inode* ino = fs_.inode_at(ino_off);
  // O_APPEND positions are resolved inside do_write, under the file lock —
  // reading the size here would race a concurrent appender's size update
  // and overwrite its data.
  const bool append = (f->flags & kOpenAppend) != 0;
  if (WriteBehind* wb = fs_.write_behind(); wb != nullptr && wb->active()) {
    if ((f->flags & kOpenSync) == 0) {
      std::uint64_t pos = append ? 0 : f->pos.load(std::memory_order_relaxed);
      if (wb->stage_write(ino_off, buf, n, pos, append, &pos)) {
        f->pos.store(pos + n, std::memory_order_relaxed);
        return n;
      }
    } else {
      // O_SYNC descriptor on a relaxed-class file: earlier acked staged
      // writes must not land after this strict one — flush them first.
      (void)wb->flush_inode(ino_off);
    }
  }
  std::uint64_t pos = append ? 0 : f->pos.load(std::memory_order_relaxed);
  auto r = do_write(*ino, ino_off, buf, n, pos, append, &pos);
  if (r.is_ok()) f->pos.store(pos + *r, std::memory_order_relaxed);
  return r;
}

Result<std::size_t> Process::pread(int fd, void* buf, std::size_t n,
                                   std::uint64_t off) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Errc::bad_fd;
  if ((f->flags & kOpenRead) == 0) return Errc::bad_fd;
  const std::uint64_t ino_off = f->inode_off.load(std::memory_order_acquire);
  return do_read(*fs_.inode_at(ino_off), ino_off, buf, n, off);
}

Result<std::size_t> Process::pwrite(int fd, const void* buf, std::size_t n,
                                    std::uint64_t off) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Errc::bad_fd;
  if ((f->flags & kOpenWrite) == 0) return Errc::bad_fd;
  const std::uint64_t ino_off = f->inode_off.load(std::memory_order_acquire);
  if (WriteBehind* wb = fs_.write_behind(); wb != nullptr && wb->active()) {
    if ((f->flags & kOpenSync) == 0) {
      if (wb->stage_write(ino_off, buf, n, off, /*append=*/false, nullptr))
        return n;
    } else {
      (void)wb->flush_inode(ino_off);
    }
  }
  return do_write(*fs_.inode_at(ino_off), ino_off, buf, n, off);
}

Result<std::uint64_t> Process::lseek(int fd, std::int64_t off, int whence) {
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Errc::bad_fd;
  const std::uint64_t ino_off = f->inode_off.load(std::memory_order_acquire);
  std::int64_t base = 0;
  switch (whence) {
    case kSeekSet: base = 0; break;
    case kSeekCur:
      base = static_cast<std::int64_t>(f->pos.load(std::memory_order_relaxed));
      break;
    case kSeekEnd: {
      std::uint64_t sz =
          fs_.inode_at(ino_off)->size.load(std::memory_order_acquire);
      if (WriteBehind* wb = fs_.write_behind();
          wb != nullptr && wb->active())
        sz = std::max(sz, wb->staged_size_of(ino_off));
      base = static_cast<std::int64_t>(sz);
      break;
    }
    default: return Errc::invalid;
  }
  const std::int64_t target = base + off;
  if (target < 0) return Errc::invalid;
  f->pos.store(static_cast<std::uint64_t>(target), std::memory_order_relaxed);
  return static_cast<std::uint64_t>(target);
}

Status Process::fsync(int fd) {
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Status(Errc::bad_fd);
  if (WriteBehind* wb = fs_.write_behind();
      wb != nullptr && wb->active() && (f->flags & kOpenSync) == 0) {
    const std::uint64_t ino_off =
        f->inode_off.load(std::memory_order_acquire);
    // group: absorbed into the epoch cadence; strict: falls through to the
    // fence (see WriteBehind::fsync_inode).
    if (wb->fsync_inode(ino_off)) return Status::ok();
  }
  // All strict Simurgh writes are synchronously persisted (no page cache,
  // §1); fsync only needs a fence to order outstanding non-temporal stores.
  nvmm::fence();
  return Status::ok();
}

Status Process::truncate_inode(std::uint64_t ino_off, std::uint64_t size) {
  // Staged ranges must land before the truncate commits, or a later drain
  // would resurrect bytes (and a size) the truncate removed.  Flush before
  // taking the lock — the drain takes the same exclusive lock per inode.
  if (WriteBehind* wb = fs_.write_behind(); wb != nullptr && wb->active())
    (void)wb->flush_inode(ino_off);
  Inode* ino = fs_.inode_at(ino_off);
  std::optional<ExclusiveFileLock> lock;
  if (!fs_.relaxed_writes())
    lock.emplace(fs_.file_locks(), fs_.file_locks().slot_for(ino_off));
  const std::uint64_t old = ino->size.load(std::memory_order_acquire);
  // Commit point first: the persisted size store makes the truncate visible
  // atomically; a crash before it leaves the old file intact, a crash after
  // it leaves the new size with every byte in range unchanged.  Storage
  // release and tail zeroing follow the commit — they only touch bytes
  // beyond the (new) size, so interrupted cleanup is invisible and recovery
  // finishes it (it unmaps the blocks past EOF and re-zeroes the tail).
  ino->size.store(size, std::memory_order_release);
  ino->mtime_ns.store(wall_ns(), std::memory_order_relaxed);
  nvmm::persist(&ino->size, kSizeStampBytes);
  nvmm::fence();
  SIMURGH_FAILPOINT("fs.truncate.size_persisted");
  if (size < old) {
    const std::uint64_t keep_blocks = (size + kBS - 1) / kBS;
    ExtentMap map(fs_.dev(), fs_.pool(kPoolExtent), *ino, ino_off);
    // Zero the tail of the final kept block so growth re-exposes zeros.
    // If a crash lands before this, recovery re-zeroes beyond-EOF tails.
    if (size % kBS != 0) {
      const std::uint64_t dev_off = map.find(size / kBS);
      if (dev_off != 0) {
        std::memset(fs_.dev().at(dev_off) + size % kBS, 0, kBS - size % kBS);
        nvmm::persist(fs_.dev().at(dev_off) + size % kBS, kBS - size % kBS);
        // The kept block's bytes changed; its checksum entry follows.
        fs_.crc().stamp(dev_off);
      }
    }
    {
      ExtentEpochGuard guard(*ino);
      map.drop_from(keep_blocks,
                    [&](std::uint64_t dev_off, std::uint64_t n) {
                      fs_.blocks().free(dev_off, n);
                    });
    }
    // The file stays reachable: its cleared extents are durable before the
    // truncate returns, so no later growth can find a freed block mapped.
    nvmm::fence();
    if (ExtentCache* c = fs_.extent_cache_if_enabled()) c->invalidate(ino_off);
  }
  return Status::ok();
}

Status Process::ftruncate(int fd, std::uint64_t size) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Status(Errc::bad_fd);
  if ((f->flags & kOpenWrite) == 0) return Status(Errc::bad_fd);
  return truncate_inode(f->inode_off.load(std::memory_order_acquire), size);
}

Status Process::truncate(std::string_view path, std::uint64_t size) {
  fs_.poll_coordination();
  SIMURGH_ASSIGN_OR_RETURN(ResolveResult rr, fs_.walker().resolve(cred_, path));
  Inode* ino = fs_.inode_at(rr.inode_off);
  if (!ino->is_file()) return Status(Errc::is_dir);
  if (!may_access(*ino, cred_, kMayWrite)) return Status(Errc::permission);
  return truncate_inode(rr.inode_off, size);
}

Status Process::fallocate(int fd, std::uint64_t off, std::uint64_t len) {
  fs_.poll_coordination();
  OpenFile* f = fds_.get(fd);
  if (f == nullptr) return Status(Errc::bad_fd);
  if ((f->flags & kOpenWrite) == 0) return Status(Errc::bad_fd);
  const std::uint64_t ino_off = f->inode_off.load(std::memory_order_acquire);
  Inode* ino = fs_.inode_at(ino_off);
  std::optional<ExclusiveFileLock> lock;
  if (!fs_.relaxed_writes())
    lock.emplace(fs_.file_locks(), fs_.file_locks().slot_for(ino_off));
  const std::uint64_t first = off / kBS;
  const std::uint64_t last = (off + len + kBS - 1) / kBS;
  // The evaluation configures file systems to *not* zero preallocated
  // blocks (§5.2 fallocate); contents are undefined until written.
  ExtentResolver res(fs_.extent_cache_if_enabled(), fs_.dev(),
                     fs_.pool(kPoolExtent), *ino, ino_off,
                     /*build_views=*/false);
  if (auto r = fs_.ensure_allocated(res, *ino, ino_off, first, last - first,
                                    kNoZero, kNoZero);
      !r.is_ok())
    return r.status();
  inode_size_max(ino->size, off + len);
  nvmm::persist(&ino->size, kSizeStampBytes);
  nvmm::fence();
  return Status::ok();
}

}  // namespace simurgh::core
