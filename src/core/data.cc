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

// One run of a write's (or fallocate's) block range: mapped before the op,
// or freshly allocated for it and not yet in the extent map.  The usual one
// or two runs fit the stack buffer, so the write path allocates nothing on
// the heap.
struct Run {
  std::uint64_t file_block, dev_off, n_blocks;
  bool fresh;
};
struct RunBuf {
  alignas(Run) std::byte buf[4 * sizeof(Run)];
  std::pmr::monotonic_buffer_resource mem{buf, sizeof buf};
};

void zero_durably(std::byte* p, std::uint64_t n) {
  if (n == 0) return;
  std::memset(p, 0, n);
  nvmm::persist(p, n);
}

// Resolves file blocks [first, last) into runs, allocating every hole.  All
// or nothing: a run mapped ahead of a later no_space would stay in the file
// unwritten, holding the bytes of whichever file freed it.
Status plan_runs(FileSystem& fs, ExtentResolver& res, std::uint64_t ino_off,
                 std::uint64_t first, std::uint64_t last,
                 std::pmr::vector<Run>& runs) {
  std::uint64_t b = first;
  while (b < last) {
    const ExtentResolver::Run run = res.run_at(b, last - b);
    if (run.dev_off != 0) {
      runs.push_back({b, run.dev_off, run.n_blocks, false});
      b += run.n_blocks;
      continue;
    }
    // Allocate the whole missing run contiguously.  No segment holds a run
    // longer than itself, so on no_space halve the request and fill the
    // hole piecewise; the loop re-probes the remainder.
    std::uint64_t take = run.n_blocks;
    Result<std::uint64_t> got = fs.blocks().alloc(take, ino_off);
    while (!got.is_ok() && got.code() == Errc::no_space && take > 1) {
      take /= 2;
      got = fs.blocks().alloc(take, ino_off);
    }
    if (!got.is_ok()) {
      for (const Run& r : runs)
        if (r.fresh) fs.blocks().free(r.dev_off, r.n_blocks);
      return Status(got.code());
    }
    runs.push_back({b, *got, take, true});
    b += take;
  }
  return Status::ok();
}

// Records the fresh runs in the extent map, unfenced: the caller's next
// fence orders them before its size commit.  If the extent pool runs dry
// part-way, the runs not mapped go back, the mapped ones are zeroed so they
// read as the holes they filled, and whatever lies past EOF is unmapped.
Status map_fresh(FileSystem& fs, ExtentResolver& res, Inode& ino,
                 const std::pmr::vector<Run>& runs) {
  if (std::none_of(runs.begin(), runs.end(),
                   [](const Run& r) { return r.fresh; }))
    return Status::ok();
  ExtentEpochGuard guard(ino);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    if (!r.fresh) continue;
    // A recycled block's stale entry must not indict its new owner's bytes,
    // and fallocate'd blocks stay "no checksum recorded" until written.
    fs.crc().clear(r.dev_off, r.n_blocks);
    if (Status st = res.map().append(r.file_block, r.dev_off, r.n_blocks);
        !st.is_ok()) {
      for (std::size_t j = 0; j < runs.size(); ++j) {
        const Run& q = runs[j];
        if (!q.fresh) continue;
        if (j >= i)
          fs.blocks().free(q.dev_off, q.n_blocks);
        else
          zero_durably(fs.dev().at(q.dev_off), q.n_blocks * kBS);
      }
      const std::uint64_t size = ino.size.load(std::memory_order_acquire);
      res.map().drop_from((size + kBS - 1) / kBS,
                          [&](std::uint64_t off, std::uint64_t n) {
                            fs.blocks().free(off, n);
                          });
      nvmm::fence();
      return st;
    }
  }
  return Status::ok();
}
}  // namespace

void FileSystem::zero_mapped(Inode& ino, std::uint64_t ino_off,
                             std::uint64_t from, std::uint64_t to) {
  if (from >= to) return;
  const ExtentMap map(dev(), pool(kPoolExtent), ino, ino_off);
  map.for_each([&](const Extent& e) {
    const std::uint64_t base = e.file_block * kBS;
    const std::uint64_t lo = std::max(from, base);
    const std::uint64_t hi = std::min(to, base + e.n_blocks * kBS);
    if (lo >= hi) return;
    zero_durably(dev().at(e.dev_off) + (lo - base), hi - lo);
    for (std::uint64_t b = lo / kBS; b * kBS < hi; ++b)
      crc_.stamp(e.dev_off + (b - e.file_block) * kBS);
  });
}

Status FileSystem::write_file_bytes(Inode& ino, std::uint64_t ino_off,
                                    const void* buf, std::size_t n,
                                    std::uint64_t off, std::uint64_t eof) {
  if (n == 0) return Status::ok();
  const std::uint64_t end = off + n;
  const std::uint64_t first = off / kBS;
  const std::uint64_t last = (end + kBS - 1) / kBS;
  ExtentResolver res(extent_cache_if_enabled(), dev(), pool(kPoolExtent),
                     ino, ino_off, /*build_views=*/false);
  RunBuf rb;
  std::pmr::vector<Run> runs(&rb.mem);
  if (Status st = plan_runs(*this, res, ino_off, first, last, runs);
      !st.is_ok())
    return st;
  // Bytes past EOF are undefined (DESIGN.md §13.4).  What this write grows
  // the file over must read zero: [eof, off) in blocks mapped before it...
  if (off > eof) zero_mapped(ino, ino_off, eof, off);
  // ...and, in its fresh blocks, the head before `off` and, for a hole
  // below EOF, the tail up to EOF.  Everything else past `end` stays as the
  // block's last owner left it.
  if (const Run& r = runs.front(); r.fresh)
    zero_durably(dev().at(r.dev_off), off % kBS);
  if (const Run& r = runs.back(); r.fresh && end < eof && end % kBS != 0)
    zero_durably(dev().at(r.dev_off + (end / kBS - r.file_block) * kBS) +
                     end % kBS,
                 std::min(last * kBS, eof) - end);
  // One streaming copy per run: adjacent blocks of one extent are
  // device-contiguous, so a multi-block write needs one nt_copy per extent
  // instead of one per 4 KB block.
  const auto* src = static_cast<const std::byte*>(buf);
  auto copy = [&](auto&& want) {
    for (const Run& r : runs) {
      if (!want(r)) continue;
      const std::uint64_t base = r.file_block * kBS;
      const std::uint64_t lo = std::max(off, base);
      const std::uint64_t hi = std::min(end, base + r.n_blocks * kBS);
      nvmm::nt_copy(dev().at(r.dev_off) + (lo - base), src + (lo - off),
                    static_cast<std::size_t>(hi - lo));
    }
  };
  // A fresh block below EOF becomes readable the moment its extent lands,
  // so its bytes are copied, zeroed and fenced before it is mapped; the
  // caller's commit fence then publishes the extent.  Fresh blocks past EOF
  // are mapped first: the size commit, ordered after the data fence, is
  // what publishes them.
  const bool hole_fill =
      std::any_of(runs.begin(), runs.end(), [&](const Run& r) {
        return r.fresh && r.file_block * kBS < eof;
      });
  if (hole_fill) {
    copy([](const Run& r) { return r.fresh; });
    nvmm::fence();
  }
  if (Status st = map_fresh(*this, res, ino, runs); !st.is_ok())
    return st;
  copy([&](const Run& r) { return !hole_fill || !r.fresh; });
  // Re-derive the checksum of every touched block (integrity.h).  Under the
  // caller's exclusive file lock entry and bytes move together; the entries
  // ride the caller's commit fence so data and checksum become durable as
  // one.  (Relaxed-writes mode waives the lock and with it checksum
  // coherence — documented as incompatible with verify_reads.)
  if (crc_.attached())
    for (const Run& r : runs)
      for (std::uint64_t i = 0; i < r.n_blocks; ++i)
        crc_.stamp(r.dev_off + i * kBS);
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
      // Between the persisted size and the staged size: bytes here are
      // undefined until the drain's growth zeroes them (DESIGN.md §13.4) —
      // zero-fill, then let the overlay put the staged bytes on top (gaps
      // between staged ranges read as zeros).
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
  // O_APPEND: the position is resolved *after* taking the write lock, so
  // concurrent appenders see each other's size update and never overlap.
  // Relaxed mode (no lock, Fig. 7k) reserves a disjoint range by bumping
  // the size atomically up front — appends interleave without clobbering;
  // the size-before-data crash-atomicity this gives up is part of what
  // relaxed mode already waives.
  const std::uint64_t eof =
      append && !lock ? ino.size.fetch_add(n, std::memory_order_acq_rel)
                      : ino.size.load(std::memory_order_acquire);
  if (append) off = eof;
  if (pos_out != nullptr) *pos_out = off;
  if (n == 0) return std::size_t{0};

  if (Status st = fs_.write_file_bytes(ino, ino_off, buf, n, off, eof);
      !st.is_ok())
    return st.code();
  // Order: data durable before the size that exposes it (paper: sfence
  // between data persist and metadata update).  Only a write that grows the
  // file moves a size.  A hole fill fenced its bytes before mapping them,
  // so its extents are the commit; an in-place overwrite has nothing to
  // order after its data.  Either rides the closing fence with its
  // size/mtime line.
  if (off + n > eof) {
    nvmm::fence();
    SIMURGH_FAILPOINT("fs.write.data_persisted");
  }
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
  // Bytes past EOF are undefined (DESIGN.md §13.4): growth zeroes what it
  // exposes of the blocks already mapped there before the size moves.
  if (size > old) {
    fs_.zero_mapped(*ino, ino_off, old, size);
    nvmm::fence();
  }
  // Commit point: the persisted size store makes the truncate visible
  // atomically; a crash before it leaves the old file intact, a crash after
  // it leaves the new size with every byte in range unchanged.  Storage
  // release follows the commit — it only touches blocks beyond the (new)
  // size, so interrupted cleanup is invisible and recovery finishes it (it
  // unmaps the blocks past EOF).
  ino->size.store(size, std::memory_order_release);
  ino->mtime_ns.store(wall_ns(), std::memory_order_relaxed);
  nvmm::persist(&ino->size, kSizeStampBytes);
  nvmm::fence();
  SIMURGH_FAILPOINT("fs.truncate.size_persisted");
  if (size < old) {
    ExtentMap map(fs_.dev(), fs_.pool(kPoolExtent), *ino, ino_off);
    {
      ExtentEpochGuard guard(*ino);
      map.drop_from((size + kBS - 1) / kBS,
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
  // The evaluation configures file systems to *not* zero preallocated
  // blocks (§5.2 fallocate); contents are undefined until written.  Only
  // the blocks mapped before it get their bytes past EOF zeroed, as on
  // every growth path.
  ExtentResolver res(fs_.extent_cache_if_enabled(), fs_.dev(),
                     fs_.pool(kPoolExtent), *ino, ino_off,
                     /*build_views=*/false);
  RunBuf rb;
  std::pmr::vector<Run> runs(&rb.mem);
  if (Status st = plan_runs(fs_, res, ino_off, off / kBS,
                            (off + len + kBS - 1) / kBS, runs);
      !st.is_ok())
    return st;
  fs_.zero_mapped(*ino, ino_off, ino->size.load(std::memory_order_acquire),
                  off + len);
  if (Status st = map_fresh(fs_, res, *ino, runs); !st.is_ok()) return st;
  nvmm::fence();  // blocks and zeros before the size that exposes them
  inode_size_max(ino->size, off + len);
  nvmm::persist(&ino->size, kSizeStampBytes);
  nvmm::fence();
  return Status::ok();
}

}  // namespace simurgh::core
