// kv: YCSB-A on minikv, running on the real file system (WORKLOADS.md).
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "trace.h"
#include "workloads/minikv.h"

namespace perfbench {

namespace {

namespace sb = simurgh::bench;
namespace sim = simurgh::sim;
using simurgh::Errc;
using simurgh::Result;
using simurgh::Status;

// Wall-clock FsBackend over core::Process: forwards every call with
// descriptors cached per path, ignores the SimThread argument and charges
// no virtual cost.  Every byte it writes follows the content pattern and
// every byte it reads is checked against it (a mismatch is Errc::io), so
// MiniKv runs on the real file system unchanged.
class WallClockFs final : public sb::FsBackend {
 public:
  static constexpr std::uint64_t kWriteChunk = 1 << 20;

  struct FileModel {
    std::uint32_t fid = 0;
    std::uint64_t size = 0;
  };

  explicit WallClockFs(core::Process& p) : p_(p) {}
  ~WallClockFs() override { close_all(); }
  WallClockFs(const WallClockFs&) = delete;
  WallClockFs& operator=(const WallClockFs&) = delete;

  [[nodiscard]] std::string name() const override { return "wallclock"; }

  void set_tracer(Tracer* tr) { tr_ = tr; }
  void close_all() {
    for (auto& [path, fd] : fds_) (void)p_.close(fd);
    fds_.clear();
  }
  [[nodiscard]] const std::map<std::string, FileModel>& files() const {
    return files_;
  }
  [[nodiscard]] std::uint64_t table_creates() const { return tables_; }

  // ---- namespace ----
  Status create(sim::SimThread&, const std::string& path) override {
    auto fd = traced(tr_, "open", [&] {
      return p_.open(path, core::kOpenCreate | core::kOpenWrite |
                               core::kOpenTrunc);
    });
    if (!fd.is_ok()) return fd.status();
    SIMURGH_RETURN_IF_ERROR(traced(tr_, "close", [&] { return p_.close(*fd); }));
    // The log is the write-behind tier's group class; tables and the
    // manifest stay strict.
    if (path.find("/wal-") != std::string::npos)
      SIMURGH_RETURN_IF_ERROR(traced(tr_, "set_durability", [&] {
        return p_.set_durability(path, core::Durability::group);
      }));
    if (path.find("/sst-") != std::string::npos) ++tables_;
    files_[path] = FileModel{next_fid_++, 0};
    return Status::ok();
  }
  Status mkdir(sim::SimThread&, const std::string& path) override {
    return traced(tr_, "mkdir", [&] { return p_.mkdir(path); });
  }
  Status unlink(sim::SimThread&, const std::string& path) override {
    close_fd(path);
    SIMURGH_RETURN_IF_ERROR(
        traced(tr_, "unlink", [&] { return p_.unlink(path); }));
    files_.erase(path);
    return Status::ok();
  }
  Status rename(sim::SimThread&, const std::string& from,
                const std::string& to) override {
    close_fd(from);
    close_fd(to);
    SIMURGH_RETURN_IF_ERROR(
        traced(tr_, "rename", [&] { return p_.rename(from, to); }));
    auto it = files_.find(from);
    if (it != files_.end()) {
      files_[to] = it->second;
      files_.erase(it);
    }
    return Status::ok();
  }
  Status resolve(sim::SimThread&, const std::string& path) override {
    return traced(tr_, "stat", [&] { return p_.stat(path); }).status();
  }
  Result<std::uint64_t> file_size(sim::SimThread&,
                                  const std::string& path) override {
    auto st = traced(tr_, "stat", [&] { return p_.stat(path); });
    if (!st.is_ok()) return st.status();
    return st->size;
  }
  Result<std::vector<std::string>> readdir(sim::SimThread&,
                                           const std::string& path) override {
    auto ls = traced(tr_, "readdir", [&] { return p_.readdir(path); });
    if (!ls.is_ok()) return ls.status();
    std::vector<std::string> names;
    for (auto& e : *ls) names.push_back(std::move(e.name));
    return names;
  }

  // ---- data ----
  Status read(sim::SimThread&, const std::string& path, std::uint64_t off,
              std::uint64_t len) override {
    auto m = files_.find(path);
    auto fd = fd_of(path);
    if (m == files_.end() || !fd.is_ok()) return Status(Errc::not_found);
    if (buf_.size() < len) buf_.resize(len);
    auto n = traced(tr_, "pread",
                    [&] { return p_.pread(*fd, buf_.data(), len, off); });
    if (!n.is_ok()) return n.status();
    bytes_read_ += *n;
    const std::uint64_t want =
        off >= m->second.size ? 0 : std::min(len, m->second.size - off);
    const Clock::time_point c0 = Clock::now();
    const bool match = *n == want && check_pattern(buf_.data(), *n,
                                                   pattern_key(m->second.fid, 0),
                                                   off);
    check_ns_ += ns_between(c0, Clock::now());
    return match ? Status::ok() : Status(Errc::io);
  }
  Status write(sim::SimThread&, const std::string& path, std::uint64_t off,
               std::uint64_t len) override {
    return write_at(path, off, len);
  }
  Status append(sim::SimThread&, const std::string& path,
                std::uint64_t len) override {
    auto m = files_.find(path);
    if (m == files_.end()) return Status(Errc::not_found);
    return write_at(path, m->second.size, len);
  }
  Status fallocate(sim::SimThread&, const std::string& path,
                   std::uint64_t len) override {
    auto fd = fd_of(path);
    if (!fd.is_ok()) return fd.status();
    return traced(tr_, "fallocate",
                  [&] { return p_.fallocate(*fd, 0, len); });
  }
  Status fsync(sim::SimThread&, const std::string& path) override {
    auto fd = fd_of(path);
    if (!fd.is_ok()) return fd.status();
    if (tr_) tr_->note_fsync();
    return traced(tr_, "fsync", [&] { return p_.fsync(*fd); });
  }

  // Time spent generating and checking the pattern inside MiniKv's calls;
  // ops subtract it so their latency covers only the store and the FS.
  std::uint64_t take_check_ns() { return std::exchange(check_ns_, 0); }
  std::uint64_t take_bytes_read() { return std::exchange(bytes_read_, 0); }
  std::uint64_t take_bytes_written() {
    return std::exchange(bytes_written_, 0);
  }

 private:
  Result<int> fd_of(const std::string& path) {
    if (auto it = fds_.find(path); it != fds_.end()) return it->second;
    auto fd = traced(tr_, "open", [&] {
      return p_.open(path, core::kOpenRead | core::kOpenWrite);
    });
    if (fd.is_ok()) fds_[path] = *fd;
    return fd;
  }
  void close_fd(const std::string& path) {
    if (auto it = fds_.find(path); it != fds_.end()) {
      (void)traced(tr_, "close", [&] { return p_.close(it->second); });
      fds_.erase(it);
    }
  }
  Status write_at(const std::string& path, std::uint64_t off,
                  std::uint64_t len) {
    auto m = files_.find(path);
    auto fd = fd_of(path);
    if (m == files_.end() || !fd.is_ok()) return Status(Errc::not_found);
    if (off > m->second.size) return Status(Errc::invalid);  // no holes
    if (buf_.size() < len) buf_.resize(len);
    const Clock::time_point c0 = Clock::now();
    fill_pattern(buf_.data(), len, pattern_key(m->second.fid, 0), off);
    check_ns_ += ns_between(c0, Clock::now());
    // Large appends (table builds) go out in kWriteChunk pieces, as a
    // store's buffered file writer issues them; one call the size of a
    // whole table can exceed an allocator segment.
    for (std::uint64_t done = 0; done < len;) {
      const std::uint64_t part = std::min(kWriteChunk, len - done);
      auto n = traced(tr_, "pwrite", [&] {
        return p_.pwrite(*fd, buf_.data() + done, part, off + done);
      });
      if (!n.is_ok()) return n.status();
      if (*n != part) return Status(Errc::io);
      done += part;
    }
    bytes_written_ += len;
    m->second.size = std::max(m->second.size, off + len);
    return Status::ok();
  }

  core::Process& p_;
  Tracer* tr_ = nullptr;
  std::map<std::string, int> fds_;
  std::map<std::string, FileModel> files_;
  std::uint32_t next_fid_ = 1;
  std::uint64_t tables_ = 0;
  std::uint64_t bytes_read_ = 0, bytes_written_ = 0;
  std::uint64_t check_ns_ = 0;
  std::vector<unsigned char> buf_;
};

struct Params {
  std::uint64_t records;
  std::uint64_t value_bytes;
  double theta;
  std::uint64_t memtable_budget;
  std::uint64_t warmup_ops;
  std::size_t dev_bytes;
};

constexpr Params kFull{50000, 1024, 0.99, 320 << 10, 5000,
                       std::size_t{512} << 20};
constexpr Params kTiny{500, 1024, 0.99, 16 << 10, 100,
                       std::size_t{64} << 20};

// Cumulative op mix, in per mille: YCSB-A's 50/50 get/update plus the
// store's own file housekeeping (WORKLOADS.md).
enum Kind { kGet, kUpdate, kList, kSetCurrent };
constexpr int kMixCum[] = {475, 950, 975, 1000};

constexpr const char* kDir = "/db";

class Kv final : public Workload {
 public:
  Kv(std::uint64_t seed, bool tiny) : p_(tiny ? kTiny : kFull), rng_(seed) {}

  void setup() override {
    world_ = std::make_unique<World>(p_.dev_bytes, /*service=*/false);
    fs_ = std::make_unique<WallClockFs>(*world_->proc);
    sb::MiniKvOptions o;
    o.dir = kDir;
    o.memtable_budget = p_.memtable_budget;
    o.sync_writes = true;
    kv_ = std::make_unique<sb::MiniKv>(*fs_, sim_, o);
    // YCSB load phase: every record once, in key order.
    for (std::uint64_t k = 0; k < p_.records; ++k)
      SIMURGH_CHECK(kv_->put(sim_, key(k), p_.value_bytes).is_ok());
    fs_->take_bytes_read();
    fs_->take_bytes_written();
    fs_->take_check_ns();
  }

  [[nodiscard]] std::uint64_t warmup_ops() const override {
    return p_.warmup_ops;
  }

  Op step(Tracer* tr) override {
    const auto roll = static_cast<int>(rng_.below(1000));
    int kind = 0;
    while (roll >= kMixCum[kind]) ++kind;
    fs_->set_tracer(tr);
    Op op;
    switch (kind) {
      case kGet: op = do_get(tr); break;
      case kUpdate: op = do_update(tr); break;
      case kList: op = do_list(tr); break;
      default: op = do_set_current(tr); break;
    }
    fs_->set_tracer(nullptr);
    return op;
  }

  World& world() override { return *world_; }

  void release() override {
    fs_->close_all();
    world_->unmount_all();
  }

  VerifyResult verify(core::Process& p) override {
    VerifyResult v;
    std::vector<unsigned char> buf;
    for (const auto& [path, m] : fs_->files()) {
      ++v.checked;
      buf.resize(m.size + 1);
      auto fd = p.open(path, core::kOpenRead);
      bool ok = fd.is_ok();
      if (ok) {
        auto n = p.read(*fd, buf.data(), m.size + 1);
        ok = n.is_ok() && *n == m.size &&
             check_pattern(buf.data(), m.size, pattern_key(m.fid, 0), 0);
        (void)p.close(*fd);
      }
      if (!ok) ++v.mismatches;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t live_user_bytes() const override {
    std::uint64_t b = 0;
    for (const auto& [path, m] : fs_->files()) b += m.size;
    return b;
  }

  bool flip_live_byte() override {
    // The largest file: a table, whose bytes no later op rewrites.
    const WallClockFs::FileModel* big = nullptr;
    for (const auto& [path, m] : fs_->files())
      if (big == nullptr || m.size > big->size) big = &m;
    if (big == nullptr || big->size < 64) return false;
    unsigned char head[64];
    fill_pattern(head, sizeof head, pattern_key(big->fid, 0), 0);
    return flip_device_byte(*world_->dev, head, sizeof head);
  }

  [[nodiscard]] std::uint64_t app_flushes() const override {
    return fs_->table_creates() - kv_->compactions();
  }
  [[nodiscard]] std::uint64_t app_compactions() const override {
    return kv_->compactions();
  }

 private:
  static std::string key(std::uint64_t k) {
    char b[32];
    std::snprintf(b, sizeof b, "user%012llu", static_cast<unsigned long long>(k));
    return b;
  }

  Op do_get(Tracer* tr) {
    const std::string k = key(rng_.zipf(p_.records, p_.theta));
    Op op{OpClass::read};
    OpScope s(tr, "get", op);
    auto r = kv_->get(sim_, k);
    op.bytes_read = fs_->take_bytes_read();
    s.end(fs_->take_check_ns());
    op.ok = r.is_ok() && *r == p_.value_bytes;
    return op;
  }

  Op do_update(Tracer* tr) {
    const std::string k = key(rng_.zipf(p_.records, p_.theta));
    Op op{OpClass::write};
    OpScope s(tr, "update", op);
    const Status st = kv_->put(sim_, k, p_.value_bytes);
    op.bytes_written = fs_->take_bytes_written();
    op.bytes_read = fs_->take_bytes_read();  // compaction input
    s.end(fs_->take_check_ns());
    op.ok = st.is_ok();
    return op;
  }

  // LevelDB's GetChildren on the store directory (it lists the store to
  // find obsolete files after every compaction); checked against the model.
  Op do_list(Tracer* tr) {
    core::Process& p = *world_->proc;
    if (tr) tr->probe_resolve(p.cred(), kDir, OpClass::lookup);
    Op op{OpClass::lookup};
    OpScope s(tr, "list", op);
    auto names = fs_->readdir(sim_, kDir);
    s.end();
    op.ok = names.is_ok() && names->size() == fs_->files().size();
    if (op.ok) {
      const std::string prefix = std::string(kDir) + "/";
      for (const std::string& n : *names)
        op.ok = op.ok && fs_->files().count(prefix + n) == 1;
    }
    return op;
  }

  // LevelDB's SetCurrentFile: write a temp file, sync it, rename it over
  // CURRENT.
  Op do_set_current(Tracer* tr) {
    const std::string tmp = std::string(kDir) + "/CURRENT.tmp";
    const std::string cur = std::string(kDir) + "/CURRENT";
    core::Process& p = *world_->proc;
    if (tr) {
      tr->probe_resolve_parent(p.cred(), tmp, OpClass::mutate);
      tr->probe_resolve_parent(p.cred(), cur, OpClass::mutate);
    }
    Op op{OpClass::mutate};
    OpScope s(tr, "set_current", op);
    Status st = fs_->create(sim_, tmp);
    if (st.is_ok()) st = fs_->append(sim_, tmp, 16);
    if (st.is_ok()) st = fs_->fsync(sim_, tmp);
    if (st.is_ok()) st = fs_->rename(sim_, tmp, cur);
    op.bytes_written = fs_->take_bytes_written();
    s.end(fs_->take_check_ns());
    op.ok = st.is_ok();
    return op;
  }

  Params p_;
  simurgh::Rng rng_;
  sim::SimThread sim_;  // MiniKv's cost-model thread; charges are ignored
  std::unique_ptr<World> world_;
  std::unique_ptr<WallClockFs> fs_;
  std::unique_ptr<sb::MiniKv> kv_;
};

}  // namespace

std::unique_ptr<Workload> make_kv(std::uint64_t seed, bool tiny) {
  return std::make_unique<Kv>(seed, tiny);
}

}  // namespace perfbench
