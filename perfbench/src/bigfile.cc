// bigfile: a fileserver/DRBL-shaped data load on a few large, fragmented
// files, with an append log beside each (WORKLOADS.md).
#include <string>
#include <vector>

#include "alloc/block_alloc.h"
#include "bench.h"
#include "common/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kBlock = simurgh::alloc::kBlockSize;

struct Params {
  unsigned files;
  std::uint64_t base_bytes;   // each data file's size after setup
  std::uint64_t setup_chunk;  // interleaved setup append size
  std::uint64_t warmup_ops;
  std::size_t dev_bytes;
};

constexpr Params kFull{4, std::uint64_t{64} << 20, 64 << 10, 50000,
                       std::size_t{512} << 20};
constexpr Params kTiny{2, std::uint64_t{1} << 20, 16 << 10, 200,
                       std::size_t{64} << 20};

// Cumulative op mix, in per mille.
enum Kind { kPread, kPwrite, kAppend, kFsync, kList, kRotate };
constexpr int kMixCum[] = {570, 820, 920, 970, 985, 1000};

// A fixed-size data file: overwritten in place, never resized.
struct DataFile {
  std::string path;
  std::uint32_t fid = 0;
  int fd = -1;
  // Pattern generation of every 4 KiB block.
  std::vector<std::uint32_t> ver;
};

// An append-only log, replaced by a fresh one on rotation.
struct Log {
  std::string path;
  std::uint32_t fid = 0;
  int fd = -1;  // O_APPEND
  std::uint64_t blocks = 0;
};

class Bigfile final : public Workload {
 public:
  Bigfile(std::uint64_t seed, bool tiny)
      : p_(tiny ? kTiny : kFull), rng_(seed) {}

  void setup() override {
    world_ = std::make_unique<World>(p_.dev_bytes, /*service=*/false);
    core::Process& p = *world_->proc;
    data_.resize(p_.files);
    std::vector<int> afd(p_.files);
    for (unsigned i = 0; i < p_.files; ++i) {
      DataFile& f = data_[i];
      f.path = "/data" + std::to_string(i);
      f.fid = next_fid_++;
      auto fd = p.open(f.path, core::kOpenCreate | core::kOpenRead |
                                   core::kOpenWrite);
      auto a = p.open(f.path, core::kOpenWrite | core::kOpenAppend);
      SIMURGH_CHECK(fd.is_ok() && a.is_ok());
      f.fd = *fd;
      afd[i] = *a;
    }
    // Interleaved appends fragment every file into ~base/chunk extents.
    buf_.resize(p_.setup_chunk);
    for (std::uint64_t off = 0; off < p_.base_bytes; off += p_.setup_chunk)
      for (unsigned i = 0; i < p_.files; ++i) {
        DataFile& f = data_[i];
        const std::uint32_t v = ++gen_;
        fill_pattern(buf_.data(), p_.setup_chunk, pattern_key(f.fid, v), off);
        auto n = p.write(afd[i], buf_.data(), p_.setup_chunk);
        SIMURGH_CHECK(n.is_ok() && *n == p_.setup_chunk);
        f.ver.insert(f.ver.end(), p_.setup_chunk / kBlock, v);
      }
    for (unsigned i = 0; i < p_.files; ++i) {
      SIMURGH_CHECK(p.fsync(data_[i].fd).is_ok());
      SIMURGH_CHECK(p.close(afd[i]).is_ok());
    }
    logs_.resize(p_.files);
    for (unsigned i = 0; i < p_.files; ++i) SIMURGH_CHECK(open_log(p, i));
  }

  [[nodiscard]] std::uint64_t warmup_ops() const override {
    return p_.warmup_ops;
  }

  Op step(Tracer* tr) override {
    const auto roll = static_cast<int>(rng_.below(1000));
    int kind = 0;
    while (roll >= kMixCum[kind]) ++kind;
    const auto i = static_cast<unsigned>(rng_.below(p_.files));
    core::Process& p = *world_->proc;
    switch (kind) {
      case kPread: return do_pread(p, data_[i], tr);
      case kPwrite: return do_pwrite(p, data_[i], tr);
      case kAppend: return do_append(p, logs_[i], tr);
      case kFsync: return do_fsync(p, data_[i], tr);
      case kList: return do_list(p, tr);
      default: return do_rotate(p, i, tr);
    }
  }

  World& world() override { return *world_; }

  void release() override {
    for (const DataFile& f : data_) (void)world_->proc->close(f.fd);
    for (const Log& l : logs_) (void)world_->proc->close(l.fd);
    world_->unmount_all();
  }

  VerifyResult verify(core::Process& p) override {
    VerifyResult v;
    for (const DataFile& f : data_) {
      ++v.checked;
      if (!reread(p, f.path, f.ver.size() * kBlock, [&](std::uint64_t b) {
            return pattern_key(f.fid, f.ver[b]);
          }))
        ++v.mismatches;
    }
    for (const Log& l : logs_) {
      ++v.checked;
      if (!reread(p, l.path, l.blocks * kBlock,
                  [&](std::uint64_t) { return pattern_key(l.fid, 0); }))
        ++v.mismatches;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t live_user_bytes() const override {
    std::uint64_t b = 0;
    for (const DataFile& f : data_) b += f.ver.size() * kBlock;
    for (const Log& l : logs_) b += l.blocks * kBlock;
    return b;
  }

  bool flip_live_byte() override {
    const DataFile& f = data_[0];
    unsigned char head[64];
    fill_pattern(head, sizeof head, pattern_key(f.fid, f.ver[0]), 0);
    return flip_device_byte(*world_->dev, head, sizeof head);
  }

 private:
  // Opens log i's next generation (O_CREAT|O_EXCL, O_APPEND).
  bool open_log(core::Process& p, unsigned i, Tracer* tr = nullptr) {
    Log& l = logs_[i];
    l.fid = next_fid_++;
    l.path = "/log" + std::to_string(i) + "." + std::to_string(l.fid);
    l.blocks = 0;
    auto fd = traced(tr, "open", [&] {
      return p.open(l.path, core::kOpenCreate | core::kOpenExcl |
                                core::kOpenWrite | core::kOpenAppend);
    });
    l.fd = fd.is_ok() ? *fd : -1;
    return fd.is_ok();
  }

  // Reads `path` whole in 1 MiB pieces; key_of(block) gives each block's
  // pattern key.
  template <typename KeyOf>
  bool reread(core::Process& p, const std::string& path, std::uint64_t size,
              KeyOf key_of) {
    constexpr std::uint64_t kChunk = 1 << 20;
    buf_.resize(kChunk);
    auto st = p.stat(path);
    auto fd = p.open(path, core::kOpenRead);
    bool ok = st.is_ok() && st->size == size && fd.is_ok();
    for (std::uint64_t off = 0; ok && off < size; off += kChunk) {
      const std::uint64_t len = std::min(kChunk, size - off);
      auto n = p.pread(*fd, buf_.data(), len, off);
      ok = n.is_ok() && *n == len;
      for (std::uint64_t o = 0; ok && o < len; o += kBlock)
        ok = check_pattern(buf_.data() + o, kBlock,
                           key_of((off + o) / kBlock), off + o);
    }
    if (fd.is_ok()) (void)p.close(*fd);
    return ok;
  }

  Op do_pread(core::Process& p, DataFile& f, Tracer* tr) {
    const std::uint64_t b = rng_.below(f.ver.size());
    buf_.resize(kBlock);
    Op op{OpClass::read};
    OpScope s(tr, "pread", op);
    auto n = traced(tr, "pread", [&] {
      return p.pread(f.fd, buf_.data(), kBlock, b * kBlock);
    });
    s.end();
    op.bytes_read = n.is_ok() ? *n : 0;
    op.ok = n.is_ok() && *n == kBlock &&
            check_pattern(buf_.data(), kBlock, pattern_key(f.fid, f.ver[b]),
                          b * kBlock);
    return op;
  }

  Op do_pwrite(core::Process& p, DataFile& f, Tracer* tr) {
    const std::uint64_t b = rng_.below(f.ver.size());
    const std::uint32_t v = ++gen_;
    buf_.resize(kBlock);
    fill_pattern(buf_.data(), kBlock, pattern_key(f.fid, v), b * kBlock);
    Op op{OpClass::write};
    op.bytes_written = kBlock;
    OpScope s(tr, "pwrite", op);
    auto n = traced(tr, "pwrite", [&] {
      return p.pwrite(f.fd, buf_.data(), kBlock, b * kBlock);
    });
    s.end();
    op.ok = n.is_ok() && *n == kBlock;
    if (op.ok) f.ver[b] = v;
    return op;
  }

  Op do_append(core::Process& p, Log& l, Tracer* tr) {
    buf_.resize(kBlock);
    fill_pattern(buf_.data(), kBlock, pattern_key(l.fid, 0), l.blocks * kBlock);
    Op op{OpClass::write};
    op.bytes_written = kBlock;
    OpScope s(tr, "append", op);
    auto n = traced(tr, "write",
                    [&] { return p.write(l.fd, buf_.data(), kBlock); });
    s.end();
    op.ok = n.is_ok() && *n == kBlock;
    if (op.ok) ++l.blocks;
    return op;
  }

  Op do_fsync(core::Process& p, DataFile& f, Tracer* tr) {
    Op op{OpClass::write};
    if (tr) tr->note_fsync();
    OpScope s(tr, "fsync", op);
    const simurgh::Status st =
        traced(tr, "fsync", [&] { return p.fsync(f.fd); });
    s.end();
    op.ok = st.is_ok();
    return op;
  }

  // `ls -l` of the share: readdir of / and a stat of every entry, checked
  // against the model's names and sizes.  One lookup op makes 9 calls, so
  // its latency is not one call's cache misses.
  Op do_list(core::Process& p, Tracer* tr) {
    if (tr) tr->probe_resolve(p.cred(), "/", OpClass::lookup);
    Op op{OpClass::lookup};
    sizes_.clear();
    OpScope s(tr, "list", op);
    auto ls = traced(tr, "readdir", [&] { return p.readdir("/"); });
    if (ls.is_ok())
      for (const core::DirEntry& e : *ls) {
        auto st = traced(tr, "stat", [&] { return p.stat("/" + e.name); });
        sizes_.push_back(st.is_ok() ? st->size : ~std::uint64_t{0});
      }
    s.end();
    op.ok = ls.is_ok() && listing_matches(*ls);
    return op;
  }

  bool listing_matches(const std::vector<core::DirEntry>& ls) const {
    if (ls.size() != data_.size() + logs_.size()) return false;
    for (std::size_t k = 0; k < ls.size(); ++k) {
      const std::string path = "/" + ls[k].name;
      bool found = false;
      for (const DataFile& f : data_)
        found = found || (f.path == path && sizes_[k] == f.ver.size() * kBlock);
      for (const Log& l : logs_)
        found = found || (l.path == path && sizes_[k] == l.blocks * kBlock);
      if (!found) return false;
    }
    return true;
  }

  // Retires log i and starts its next generation: close + unlink +
  // O_CREAT|O_EXCL.  Keeps the logs small and the device's free space
  // recycled.
  Op do_rotate(core::Process& p, unsigned i, Tracer* tr) {
    const std::string old = logs_[i].path;
    const int old_fd = logs_[i].fd;
    if (tr) tr->probe_resolve_parent(p.cred(), old, OpClass::mutate);
    Op op{OpClass::mutate};
    OpScope s(tr, "rotate", op);
    bool ok = traced(tr, "close", [&] { return p.close(old_fd); }).is_ok();
    ok = traced(tr, "unlink", [&] { return p.unlink(old); }).is_ok() && ok;
    ok = open_log(p, i, tr) && ok;
    s.end();
    op.ok = ok;
    return op;
  }

  Params p_;
  simurgh::Rng rng_;
  std::unique_ptr<World> world_;
  std::vector<DataFile> data_;
  std::vector<Log> logs_;
  std::uint32_t next_fid_ = 1;
  std::uint32_t gen_ = 0;
  std::vector<unsigned char> buf_;
  std::vector<std::uint64_t> sizes_;  // the list op's stat results
};

}  // namespace

std::unique_ptr<Workload> make_bigfile(std::uint64_t seed, bool tiny) {
  return std::make_unique<Bigfile>(seed, tiny);
}

}  // namespace perfbench
