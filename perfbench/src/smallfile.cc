// smallfile / smallfile_svc: a varmail/tar-shaped metadata load over a
// deep tree of small files (WORKLOADS.md).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "trace.h"

namespace perfbench {

namespace {

struct Params {
  unsigned fanout, levels;  // leaf dirs = fanout^levels, under /w
  std::uint32_t files;
  std::uint32_t min_size, max_size;      // deliver / populate size
  std::uint32_t min_append, max_append;  // append size
  double theta;
  std::uint64_t warmup_ops;
  std::size_t dev_bytes;
};

constexpr Params kFull{4, 5, 16384, 1024, 16384, 1024, 4096, 0.9, 20000,
                       std::size_t{384} << 20};
constexpr Params kTiny{2, 3, 64, 1024, 16384, 1024, 4096, 0.9, 200,
                       std::size_t{64} << 20};

// Cumulative op mix, in percent.
enum Kind { kStat, kReaddir, kReadfile, kDeliver, kAppend, kUnlink, kRename };
constexpr int kMixCum[] = {30, 35, 55, 70, 75, 90, 100};

struct FileRec {
  std::uint32_t id = 0;  // unique for the run: the pattern's file id
  std::uint32_t leaf = 0;
  std::uint64_t size = 0;
};

class Smallfile final : public Workload {
 public:
  Smallfile(std::uint64_t seed, bool tiny, bool service)
      : p_(tiny ? kTiny : kFull), rng_(seed), service_(service) {}

  void setup() override {
    world_ = std::make_unique<World>(p_.dev_bytes, service_);
    core::Process& pp = *world_->populate;
    // Directory tree, breadth first: /w, then each level's children.
    SIMURGH_CHECK(pp.mkdir("/w").is_ok());
    std::vector<std::string> level{"/w"};
    for (unsigned l = 0; l < p_.levels; ++l) {
      std::vector<std::string> next;
      for (const std::string& d : level)
        for (unsigned c = 0; c < p_.fanout; ++c) {
          next.push_back(d + "/d" + std::to_string(c));
          SIMURGH_CHECK(pp.mkdir(next.back()).is_ok());
        }
      level.swap(next);
    }
    leaf_path_ = std::move(level);
    leaf_files_.assign(leaf_path_.size(), {});
    for (std::uint32_t i = 0; i < p_.files; ++i) {
      const auto leaf = static_cast<std::uint32_t>(i % leaf_path_.size());
      FileRec f{next_id_++, leaf, size_between(p_.min_size, p_.max_size)};
      fill(f.size, f.id, 0);
      const std::string path = path_of(f);
      auto fd = pp.open(path, core::kOpenCreate | core::kOpenExcl |
                                  core::kOpenWrite);
      SIMURGH_CHECK(fd.is_ok());
      auto n = pp.write(*fd, wbuf_.data(), f.size);
      SIMURGH_CHECK(n.is_ok() && *n == f.size);
      SIMURGH_CHECK(pp.close(*fd).is_ok());
      add(f);
    }
    // Scatter the Zipf ranks over the tree.
    for (std::size_t i = live_.size(); i > 1; --i)
      std::swap(live_[i - 1], live_[rng_.below(i)]);
    for (std::size_t i = 0; i < live_.size(); ++i) pos_[live_[i].id] = i;
  }

  [[nodiscard]] std::uint64_t warmup_ops() const override {
    return p_.warmup_ops;
  }

  Op step(Tracer* tr) override {
    const auto roll = static_cast<int>(rng_.below(100));
    int kind = 0;
    while (roll >= kMixCum[kind]) ++kind;
    // Deliver and unlink are a random walk on the population; keep it
    // within 1/16 of the populated size.
    if (kind == kUnlink && live_.size() <= p_.files * 15 / 16) kind = kDeliver;
    if (kind == kDeliver && live_.size() >= p_.files * 17 / 16) kind = kUnlink;
    core::Process& p = *world_->proc;
    switch (kind) {
      case kStat: return do_stat(p, tr);
      case kReaddir: return do_readdir(p, tr);
      case kReadfile: return do_readfile(p, tr);
      case kDeliver: return do_deliver(p, tr);
      case kAppend: return do_append(p, tr);
      case kUnlink: return do_unlink(p, tr);
      default: return do_rename(p, tr);
    }
  }

  World& world() override { return *world_; }
  void release() override { world_->unmount_all(); }

  VerifyResult verify(core::Process& p) override {
    VerifyResult v;
    for (const FileRec& f : live_) {
      ++v.checked;
      if (!read_whole(p, f)) ++v.mismatches;
    }
    for (std::uint32_t leaf = 0; leaf < leaf_path_.size(); ++leaf) {
      ++v.checked;
      auto ls = p.readdir(leaf_path_[leaf]);
      if (!ls.is_ok() || !listing_matches(*ls, leaf)) ++v.mismatches;
    }
    return v;
  }

  [[nodiscard]] std::uint64_t live_user_bytes() const override {
    std::uint64_t b = 0;
    for (const FileRec& f : live_) b += f.size;
    return b;
  }

  bool flip_live_byte() override {
    for (const FileRec& f : live_) {
      if (f.size < 64) continue;
      unsigned char head[64];
      fill_pattern(head, sizeof head, pattern_key(f.id, 0), 0);
      return flip_device_byte(*world_->dev, head, sizeof head);
    }
    return false;
  }

 private:
  std::uint64_t size_between(std::uint32_t lo, std::uint32_t hi) {
    return lo + rng_.below(hi - lo + 1);
  }
  // Zipf-chosen live file (rank 0 hottest); the rank domain stays the
  // populated size so the generator's table is built once.
  std::size_t pick() {
    return rng_.zipf(p_.files, p_.theta) % live_.size();
  }
  std::string path_of(const FileRec& f) const {
    return leaf_path_[f.leaf] + "/f" + std::to_string(f.id);
  }
  void fill(std::uint64_t n, std::uint32_t id, std::uint64_t off) {
    if (wbuf_.size() < n) wbuf_.resize(n);
    fill_pattern(wbuf_.data(), n, pattern_key(id, 0), off);
  }
  void add(const FileRec& f) {
    if (pos_.size() <= f.id) pos_.resize(f.id + 1);
    pos_[f.id] = live_.size();
    live_.push_back(f);
    leaf_files_[f.leaf].push_back(f.id);
    fifo_.push_back(f.id);
  }
  void drop_from_leaf(std::uint32_t leaf, std::uint32_t id) {
    auto& v = leaf_files_[leaf];
    auto it = std::find(v.begin(), v.end(), id);
    if (it != v.end()) {
      *it = v.back();
      v.pop_back();
    }
  }
  void drop(std::size_t idx) {
    drop_from_leaf(live_[idx].leaf, live_[idx].id);
    live_[idx] = live_.back();
    pos_[live_[idx].id] = idx;
    live_.pop_back();
  }

  bool listing_matches(const std::vector<core::DirEntry>& ls,
                       std::uint32_t leaf) {
    if (ls.size() != leaf_files_[leaf].size()) return false;
    ids_.clear();
    for (const core::DirEntry& e : ls) {
      if (e.name.size() < 2 || e.name[0] != 'f') return false;
      ids_.push_back(
          static_cast<std::uint32_t>(std::stoul(e.name.substr(1))));
    }
    want_ = leaf_files_[leaf];
    std::sort(ids_.begin(), ids_.end());
    std::sort(want_.begin(), want_.end());
    return ids_ == want_;
  }

  // open + read whole (asking for one byte more than the model size) +
  // close into rbuf_; false on any error.  `got` is the byte count read.
  bool read_calls(core::Process& p, const std::string& path,
                  const FileRec& f, Tracer* tr, std::size_t& got) {
    if (rbuf_.size() < f.size + 1) rbuf_.resize(f.size + 1);
    got = 0;
    auto fd = traced(tr, "open", [&] { return p.open(path, core::kOpenRead); });
    if (!fd.is_ok()) return false;
    auto n = traced(tr, "read",
                    [&] { return p.read(*fd, rbuf_.data(), f.size + 1); });
    if (n.is_ok()) got = *n;
    return traced(tr, "close", [&] { return p.close(*fd); }).is_ok() &&
           n.is_ok();
  }
  bool content_matches(const FileRec& f, std::size_t got) const {
    return got == f.size &&
           check_pattern(rbuf_.data(), got, pattern_key(f.id, 0), 0);
  }
  bool read_whole(core::Process& p, const FileRec& f) {
    std::size_t got = 0;
    return read_calls(p, path_of(f), f, nullptr, got) &&
           content_matches(f, got);
  }

  Op do_stat(core::Process& p, Tracer* tr) {
    const FileRec& f = live_[pick()];
    const std::string path = path_of(f);
    if (tr) tr->probe_resolve(p.cred(), path, OpClass::lookup);
    Op op{OpClass::lookup};
    OpScope s(tr, "stat", op);
    auto st = traced(tr, "stat", [&] { return p.stat(path); });
    s.end();
    op.ok = st.is_ok() && !st->is_dir() && st->size == f.size;
    return op;
  }

  Op do_readdir(core::Process& p, Tracer* tr) {
    const std::uint32_t leaf = live_[pick()].leaf;
    const std::string& path = leaf_path_[leaf];
    if (tr) tr->probe_resolve(p.cred(), path, OpClass::lookup);
    Op op{OpClass::lookup};
    OpScope s(tr, "readdir", op);
    auto ls = traced(tr, "readdir", [&] { return p.readdir(path); });
    s.end();
    op.ok = ls.is_ok() && listing_matches(*ls, leaf);
    return op;
  }

  Op do_readfile(core::Process& p, Tracer* tr) {
    const FileRec f = live_[pick()];
    const std::string path = path_of(f);
    if (tr) tr->probe_resolve(p.cred(), path, OpClass::read);
    Op op{OpClass::read};
    std::size_t got = 0;
    OpScope s(tr, "readfile", op);
    const bool ok = read_calls(p, path, f, tr, got);
    op.bytes_read = got;
    s.end();
    op.ok = ok && content_matches(f, got);
    return op;
  }

  Op do_deliver(core::Process& p, Tracer* tr) {
    FileRec f{next_id_++,
              static_cast<std::uint32_t>(rng_.below(leaf_path_.size())),
              size_between(p_.min_size, p_.max_size)};
    fill(f.size, f.id, 0);
    const std::string path = path_of(f);
    if (tr) {
      tr->probe_resolve_parent(p.cred(), path, OpClass::write);
      tr->probe_noop(p.cred());
    }
    Op op{OpClass::write};
    op.bytes_written = f.size;
    OpScope s(tr, "deliver", op);
    auto fd = traced(tr, "open", [&] {
      return p.open(path,
                    core::kOpenCreate | core::kOpenExcl | core::kOpenWrite);
    });
    bool ok = fd.is_ok();
    if (ok) {
      auto n = traced(tr, "write",
                      [&] { return p.write(*fd, wbuf_.data(), f.size); });
      ok = n.is_ok() && *n == f.size;
      if (tr) tr->note_fsync();
      ok = traced(tr, "fsync", [&] { return p.fsync(*fd); }).is_ok() && ok;
      ok = traced(tr, "close", [&] { return p.close(*fd); }).is_ok() && ok;
    }
    s.end();
    op.ok = ok;
    if (fd.is_ok()) add(f);
    return op;
  }

  // Appends to a uniformly chosen file (mail to any folder): Zipf-chosen
  // appends would grow the hottest files without bound and read_p99 would
  // follow their sizes instead of the file system.
  Op do_append(core::Process& p, Tracer* tr) {
    FileRec& f = live_[rng_.below(live_.size())];
    const std::uint64_t len = size_between(p_.min_append, p_.max_append);
    fill(len, f.id, f.size);
    const std::string path = path_of(f);
    if (tr) tr->probe_resolve(p.cred(), path, OpClass::write);
    Op op{OpClass::write};
    op.bytes_written = len;
    OpScope s(tr, "append", op);
    auto fd = traced(tr, "open", [&] {
      return p.open(path, core::kOpenWrite | core::kOpenAppend);
    });
    bool ok = fd.is_ok();
    std::size_t wrote = 0;
    if (ok) {
      auto n = traced(tr, "write",
                      [&] { return p.write(*fd, wbuf_.data(), len); });
      ok = n.is_ok() && *n == len;
      if (n.is_ok()) wrote = *n;
      if (tr) tr->note_fsync();
      ok = traced(tr, "fsync", [&] { return p.fsync(*fd); }).is_ok() && ok;
      ok = traced(tr, "close", [&] { return p.close(*fd); }).is_ok() && ok;
    }
    s.end();
    op.ok = ok;
    f.size += wrote;
    return op;
  }

  // Removes the oldest file, mail-queue order (WORKLOADS.md).
  Op do_unlink(core::Process& p, Tracer* tr) {
    const std::size_t idx = pos_[fifo_.front()];
    const std::string path = path_of(live_[idx]);
    if (tr) {
      tr->probe_resolve_parent(p.cred(), path, OpClass::mutate);
      tr->probe_noop(p.cred());
    }
    Op op{OpClass::mutate};
    OpScope s(tr, "unlink", op);
    const simurgh::Status st =
        traced(tr, "unlink", [&] { return p.unlink(path); });
    s.end();
    op.ok = st.is_ok();
    if (op.ok) {
      drop(idx);
      fifo_.pop_front();
    }
    return op;
  }

  Op do_rename(core::Process& p, Tracer* tr) {
    FileRec& f = live_[pick()];
    auto to_leaf = static_cast<std::uint32_t>(
        rng_.below(leaf_path_.size() - 1));
    if (to_leaf >= f.leaf) ++to_leaf;  // always cross-directory
    const std::string from = path_of(f);
    const std::string to =
        leaf_path_[to_leaf] + "/f" + std::to_string(f.id);
    if (tr) {
      tr->probe_resolve_parent(p.cred(), from, OpClass::mutate);
      tr->probe_resolve_parent(p.cred(), to, OpClass::mutate);
      tr->probe_noop(p.cred());
    }
    Op op{OpClass::mutate};
    OpScope s(tr, "rename", op);
    const simurgh::Status st =
        traced(tr, "rename", [&] { return p.rename(from, to); });
    s.end();
    op.ok = st.is_ok();
    if (op.ok) {
      drop_from_leaf(f.leaf, f.id);
      f.leaf = to_leaf;
      leaf_files_[to_leaf].push_back(f.id);
    }
    return op;
  }

  Params p_;
  simurgh::Rng rng_;
  bool service_;
  std::unique_ptr<World> world_;
  std::vector<std::string> leaf_path_;
  std::vector<std::vector<std::uint32_t>> leaf_files_;
  std::vector<FileRec> live_;
  std::vector<std::size_t> pos_;  // file id -> index in live_
  std::deque<std::uint32_t> fifo_;  // live file ids, oldest first
  std::uint32_t next_id_ = 1;
  std::vector<unsigned char> wbuf_, rbuf_;
  std::vector<std::uint32_t> ids_, want_;
};

}  // namespace

std::unique_ptr<Workload> make_smallfile(std::uint64_t seed, bool tiny,
                                         bool service) {
  return std::make_unique<Smallfile>(seed, tiny, service);
}

}  // namespace perfbench
