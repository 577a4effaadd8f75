#include "crash_harness.h"

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/openfile.h"

namespace simurgh::testing {

namespace {

std::uint64_t hash_file(core::Process& p, const std::string& path) {
  auto fd = p.open(path, core::kOpenRead);
  if (!fd.is_ok()) return 0;
  std::uint64_t h = kFnvOffset;
  char buf[1 << 16];
  for (;;) {
    auto n = p.read(*fd, buf, sizeof buf);
    if (!n.is_ok() || *n == 0) break;
    h = fnv1a64(std::string_view(buf, *n), h);
  }
  (void)p.close(*fd);
  return h;
}

void walk(core::Process& p, const std::string& path, NsSnapshot& out) {
  auto entries = p.readdir(path.empty() ? "/" : path);
  if (!entries.is_ok()) return;
  for (const core::DirEntry& de : *entries) {
    const std::string child = path + "/" + de.name;
    auto st = p.lstat(child);
    if (!st.is_ok()) continue;
    NsEntry e;
    e.type = st->mode & core::kModeTypeMask;
    e.nlink = st->nlink;
    e.size = st->size;
    if (st->is_symlink()) {
      auto tgt = p.readlink(child);
      e.content_hash = tgt.is_ok() ? fnv1a64(*tgt) : 0;
    } else if (!st->is_dir()) {
      e.content_hash = hash_file(p, child);
    }
    out.emplace(child, e);
    if (st->is_dir()) walk(p, child, out);
  }
}

std::string entry_str(const NsEntry& e) {
  std::ostringstream os;
  os << "{type=" << std::hex << e.type << std::dec << " nlink=" << e.nlink
     << " size=" << e.size << " hash=" << std::hex << e.content_hash << "}";
  return os.str();
}

}  // namespace

NsSnapshot snapshot_namespace(core::FileSystem& fs) {
  NsSnapshot out;
  auto root = fs.open_process(0, 0);
  auto st = root->stat("/");
  if (st.is_ok()) {
    NsEntry e;
    e.type = st->mode & core::kModeTypeMask;
    e.nlink = st->nlink;
    e.size = st->size;
    out.emplace("/", e);
  }
  walk(*root, "", out);
  return out;
}

std::string snapshot_diff(const NsSnapshot& a, const NsSnapshot& b) {
  std::ostringstream os;
  int shown = 0;
  constexpr int kMax = 5;
  for (const auto& [path, e] : a) {
    if (shown >= kMax) break;
    auto it = b.find(path);
    if (it == b.end()) {
      os << " [only in recovered: " << path << "]";
      ++shown;
    } else if (!(it->second == e)) {
      os << " [" << path << ": recovered " << entry_str(e) << " vs oracle "
         << entry_str(it->second) << "]";
      ++shown;
    }
  }
  for (const auto& [path, e] : b) {
    if (shown >= kMax) break;
    if (a.find(path) == a.end()) {
      os << " [missing from recovered: " << path << "]";
      ++shown;
    }
  }
  if (shown == 0) os << " (snapshots equal)";
  return os.str();
}

CrashStats& CrashStats::operator+=(const CrashStats& o) noexcept {
  fences += o.fences;
  images += o.images;
  exhaustive_windows += o.exhaustive_windows;
  sampled_windows += o.sampled_windows;
  lines_logged += o.lines_logged;
  max_window_lines = std::max(max_window_lines, o.max_window_lines);
  recovered_to_pre += o.recovered_to_pre;
  recovered_to_post += o.recovered_to_post;
  objects_committed += o.objects_committed;
  objects_reclaimed += o.objects_reclaimed;
  link_counts_repaired += o.link_counts_repaired;
  return *this;
}

std::ostream& operator<<(std::ostream& os, const CrashStats& s) {
  return os << s.images << " crash images across " << s.fences
            << " fence boundaries (" << s.exhaustive_windows
            << " exhaustive, " << s.sampled_windows << " sampled windows; "
            << s.lines_logged << " lines logged, max window "
            << s.max_window_lines << "); recovered to pre=" << s.recovered_to_pre
            << " post=" << s.recovered_to_post << "; recovery committed "
            << s.objects_committed << ", reclaimed " << s.objects_reclaimed
            << ", repaired " << s.link_counts_repaired << " link counts";
}

CrashHarness::CrashHarness() : CrashHarness(Options{}) {}

CrashHarness::CrashHarness(const Options& opts) : opts_(opts) {
  nvmm_ = std::make_unique<nvmm::Device>(opts_.nvmm_bytes);
  shm_ = std::make_unique<nvmm::Device>(opts_.shm_bytes);
  core::FormatOptions fo;
  fo.lock_table_slots = 1 << 10;  // small shm device
  fs_ = core::FileSystem::format(*nvmm_, *shm_, fo);
  proc_ = fs_->open_process(0, 0);
  scratch_nvmm_ = std::make_unique<nvmm::Device>(opts_.nvmm_bytes);
  scratch_shm_ = std::make_unique<nvmm::Device>(opts_.shm_bytes);
}

CrashHarness::~CrashHarness() {
  if (log_ != nullptr) log_->stop();
}

void CrashHarness::setup(const std::function<void(core::Process&)>& fn) {
  fn(*proc_);
}

void CrashHarness::run_op(const std::function<void(core::Process&)>& op) {
  pre_ = snapshot_namespace(*fs_);
  log_ = std::make_unique<nvmm::ShadowLog>(*nvmm_);
  log_->start();
  op(*proc_);
  log_->stop();
  log_->seal();
  post_ = snapshot_namespace(*fs_);
  stats_.lines_logged = log_->stats().lines_logged;
  stats_.max_window_lines = log_->stats().max_window_lines;
}

int CrashHarness::check_image(
    const std::string& context, const std::string& image_id,
    const std::vector<const NsSnapshot*>& oracle_states) {
  ++stats_.images;
  scratch_shm_->wipe();
  auto fs = core::FileSystem::mount(*scratch_nvmm_, *scratch_shm_);
  const core::RecoveryReport& rr = fs->last_recovery();
  stats_.objects_committed += rr.committed_objects;
  stats_.objects_reclaimed += rr.reclaimed_objects;
  stats_.link_counts_repaired += rr.link_counts_repaired;
  const core::CheckReport cr = core::check_fs(*fs);
  EXPECT_TRUE(cr.ok()) << context << " [" << image_id
                       << "]: post-recovery fsck: " << cr.summary();
  const NsSnapshot got = snapshot_namespace(*fs);
  for (std::size_t i = 0; i < oracle_states.size(); ++i)
    if (got == *oracle_states[i]) return static_cast<int>(i);
  std::ostringstream os;
  for (std::size_t i = 0; i < oracle_states.size(); ++i)
    os << "\n  vs oracle " << i << ":"
       << snapshot_diff(got, *oracle_states[i]);
  ADD_FAILURE() << context << " [" << image_id
                << "]: recovered namespace matches no oracle state"
                << os.str();
  return -1;
}

void CrashHarness::explore(const std::string& context,
                           const std::vector<NsSnapshot>& between) {
  ASSERT_NE(log_, nullptr) << "run_op() before explore()";
  const std::size_t nw = log_->n_windows();
  std::vector<const NsSnapshot*> oracle{&pre_};
  for (const NsSnapshot& s : between) oracle.push_back(&s);
  oracle.push_back(&post_);
  auto tally = [&](int matched) {
    if (matched == 0) ++stats_.recovered_to_pre;
    if (matched == static_cast<int>(oracle.size()) - 1)
      ++stats_.recovered_to_post;
  };
  for (std::size_t f = 0; f <= nw; ++f) {
    ++stats_.fences;
    if (f == nw) {
      // Final durable state: everything flushed and fenced must recover to
      // exactly the post-op namespace.
      log_->materialize(f, {}, *scratch_nvmm_);
      const int m =
          check_image(context, "final durable state", {&post_});
      if (m == 0) ++stats_.recovered_to_post;
      continue;
    }
    const std::size_t k = log_->window(f).lines();
    std::ostringstream tag;
    tag << "fence " << f << "/" << nw << " (" << k << " lines)";
    if (k <= opts_.exhaustive_max_lines) {
      ++stats_.exhaustive_windows;
      for (std::uint64_t mask = 0; mask < (1ull << k); ++mask) {
        log_->materialize_mask(f, mask, *scratch_nvmm_);
        std::ostringstream id;
        id << tag.str() << " mask 0x" << std::hex << mask;
        tally(check_image(context, id.str(), oracle));
      }
    } else {
      ++stats_.sampled_windows;
      Rng rng(opts_.seed ^ mix64(f));
      std::vector<bool> take(k, false);
      for (std::size_t s = 0; s < opts_.samples_per_window; ++s) {
        if (s == 0) {
          take.assign(k, false);  // nothing landed
        } else if (s == 1) {
          take.assign(k, true);  // everything landed
        } else {
          for (std::size_t i = 0; i < k; ++i) take[i] = (rng.next() & 1) != 0;
        }
        log_->materialize(f, take, *scratch_nvmm_);
        std::ostringstream id;
        id << tag.str() << " sample " << s << " seed 0x" << std::hex
           << opts_.seed;
        tally(check_image(context, id.str(), oracle));
      }
    }
  }
}

void CrashHarness::explore_sampled(
    const std::string& context, std::size_t n,
    const std::vector<NsSnapshot>& oracle_states) {
  ASSERT_NE(log_, nullptr) << "run_op() before explore_sampled()";
  const std::size_t nw = log_->n_windows();
  std::vector<const NsSnapshot*> oracle;
  oracle.reserve(oracle_states.size());
  for (const NsSnapshot& s : oracle_states) oracle.push_back(&s);
  Rng rng(opts_.seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t f = static_cast<std::size_t>(rng.below(nw + 1));
    ++stats_.fences;
    std::vector<bool> take;
    std::size_t k = 0;
    if (f < nw) {
      k = log_->window(f).lines();
      take.resize(k);
      for (std::size_t b = 0; b < k; ++b) take[b] = (rng.next() & 1) != 0;
    }
    log_->materialize(f, take, *scratch_nvmm_);
    std::ostringstream id;
    id << "sample " << i << " fence " << f << "/" << nw << " (" << k
       << " lines) seed 0x" << std::hex << opts_.seed;
    const int m = check_image(context, id.str(), oracle);
    // With a multi-state oracle, "pre" means the earliest state and "post"
    // the latest that matched; intermediate matches count as post-steps.
    if (m == 0) ++stats_.recovered_to_pre;
    if (m > 0) ++stats_.recovered_to_post;
  }
}

}  // namespace simurgh::testing
