// LookupCache unit tests + FS-level epoch-invalidation tests: a cache hit
// must never surface a stale binding, and mutations must invalidate by
// epoch alone (no broadcasts).
#include <gtest/gtest.h>

#include <string>

#include "core/lookup_cache.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::LookupCache;
using core::LookupCacheStats;
using core::PathCache;

// ---- direct unit tests ----

TEST(LookupCacheUnit, CacheableBounds) {
  EXPECT_FALSE(LookupCache::cacheable(""));
  EXPECT_TRUE(LookupCache::cacheable("a"));
  EXPECT_TRUE(LookupCache::cacheable(std::string(56, 'x')));
  EXPECT_FALSE(LookupCache::cacheable(std::string(57, 'x')));
}

TEST(LookupCacheUnit, PutGetRoundTrip) {
  LookupCache c(64);
  EXPECT_EQ(c.capacity(), 64u);
  LookupCache::Binding b;
  EXPECT_FALSE(c.get(100, "file", 7, b));  // cold
  c.put(100, "file", 7, 0xfe0, 0x1000);
  ASSERT_TRUE(c.get(100, "file", 7, b));
  EXPECT_EQ(b.fentry_off, 0xfe0u);
  EXPECT_EQ(b.inode_off, 0x1000u);
  const LookupCacheStats s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.fills, 1u);
}

TEST(LookupCacheUnit, EpochMismatchIsConflictNotHit) {
  LookupCache c(64);
  c.put(100, "file", 7, 0xfe0, 0x1000);
  LookupCache::Binding b;
  EXPECT_FALSE(c.get(100, "file", 8, b));  // directory mutated since fill
  const LookupCacheStats s = c.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.conflicts, 1u);
}

TEST(LookupCacheUnit, ExactNameMatchingNeverAliases) {
  LookupCache c(64);
  c.put(100, "alpha", 1, 0xa, 0xa0);
  LookupCache::Binding b;
  EXPECT_FALSE(c.get(100, "alphb", 1, b));
  EXPECT_FALSE(c.get(100, "alph", 1, b));
  EXPECT_FALSE(c.get(101, "alpha", 1, b));  // other parent
  EXPECT_TRUE(c.get(100, "alpha", 1, b));
}

TEST(LookupCacheUnit, MaxLenNameRoundTrips) {
  LookupCache c(64);
  const std::string name(56, 'n');
  c.put(42, name, 3, 0xbeef, 0xf00d);
  LookupCache::Binding b;
  ASSERT_TRUE(c.get(42, name, 3, b));
  EXPECT_EQ(b.inode_off, 0xf00du);
  // One byte shorter is a different key even with equal stored words.
  EXPECT_FALSE(c.get(42, std::string(55, 'n'), 3, b));
}

TEST(LookupCacheUnit, ClearDropsEverything) {
  LookupCache c(64);
  c.put(1, "a", 0, 0x10, 0x20);
  c.clear();
  LookupCache::Binding b;
  EXPECT_FALSE(c.get(1, "a", 0, b));
}

// ---- PathCache (directory-path layer) unit tests ----

TEST(PathCacheUnit, CacheableBounds) {
  EXPECT_FALSE(PathCache::cacheable(""));
  EXPECT_TRUE(PathCache::cacheable("/a"));
  EXPECT_TRUE(PathCache::cacheable(std::string(120, 'p')));
  EXPECT_FALSE(PathCache::cacheable(std::string(121, 'p')));
}

TEST(PathCacheUnit, PathsAreKeyedByTheirDirectoryPart) {
  EXPECT_EQ(PathCache::dir_of("/a/b/f"), "/a/b");
  EXPECT_EQ(PathCache::dir_of("/a/f"), "/a");
  EXPECT_EQ(PathCache::dir_of("a/f"), "a");
  EXPECT_EQ(PathCache::dir_of("/a//f"), "/a/");
  EXPECT_EQ(PathCache::dir_of("/a/./f"), "/a/.");  // walked, never filled
  // Leaves directly under the root, and paths ending in '/', "." or "..",
  // bypass the layer.
  for (const char* p : {"", "f", "/", "/f", "//f", "/a/", "/a/b/", "/a/.",
                        "/a/..", "/a/b/."})
    EXPECT_EQ(PathCache::dir_of(p), "") << p;
  const std::string dir(120, 'd');
  EXPECT_EQ(PathCache::dir_of("/" + dir.substr(1) + "/f"),
            "/" + dir.substr(1));
  EXPECT_EQ(PathCache::dir_of("/" + dir + "/f"), "");  // key too long
}

TEST(PathCacheUnit, PutGetRoundTripAndCredentialIsolation) {
  PathCache c(64);
  EXPECT_EQ(c.capacity(), 64u);
  PathCache::Entry e;
  e.dir_off = 0x200;
  e.n_links = 2;
  e.links[0] = {8, 4, 0};
  e.links[1] = {16, 6, 3};
  c.put(7, "/a/b", e);
  PathCache::Entry g;
  ASSERT_TRUE(c.get(7, "/a/b", g));
  EXPECT_EQ(g.dir_off, 0x200u);
  ASSERT_EQ(g.n_links, 2u);
  EXPECT_EQ(g.links[0].dir, 8u);
  EXPECT_EQ(g.links[1].dir, 16u);
  EXPECT_EQ(g.links[1].epoch, 6u);
  EXPECT_EQ(g.links[1].bucket, 3u);
  // Entries never cross credentials or alias another path.
  EXPECT_FALSE(c.get(8, "/a/b", g));
  EXPECT_FALSE(c.get(7, "/a/c", g));
  EXPECT_FALSE(c.get(7, "/a/", g));
  c.note_hit();
  c.note_conflict();
  const LookupCacheStats s = c.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.conflicts, 1u);
  EXPECT_EQ(s.fills, 1u);
}

TEST(PathCacheUnit, RefusesEntriesItCouldNotValidate) {
  PathCache c(64);
  PathCache::Entry e;
  e.dir_off = 0x200;
  e.n_links = 0;  // no chain -> nothing to validate against
  c.put(1, "/x", e);
  PathCache::Entry g;
  EXPECT_FALSE(c.get(1, "/x", g));
  e.n_links = 1;
  e.links[0] = {8, 2, 0};
  e.dir_off = 0;  // no directory
  c.put(1, "/x", e);
  EXPECT_FALSE(c.get(1, "/x", g));
  EXPECT_EQ(c.stats().fills, 0u);
}

TEST(PathCacheUnit, ClearDropsEverything) {
  PathCache c(64);
  PathCache::Entry e;
  e.dir_off = 0x200;
  e.n_links = 1;
  e.links[0] = {8, 2, 0};
  c.put(1, "/x", e);
  PathCache::Entry g;
  ASSERT_TRUE(c.get(1, "/x", g));
  c.clear();
  EXPECT_FALSE(c.get(1, "/x", g));
}

// ---- FS-level: epoch protocol and end-to-end invalidation ----

class LookupCacheFsTest : public FsTest {
 protected:
  std::uint64_t epoch_of(const std::string& dir) {
    auto st = p().stat(dir);
    EXPECT_TRUE(st.is_ok());
    return fs_->dirops().dir_epoch(*fs_->inode_at(st->inode));
  }
  core::LookupCacheStats delta_stats() {
    auto s = fs_->lookup_cache().stats();
    fs_->lookup_cache().reset_stats();
    return s;
  }
  core::LookupCacheStats delta_path_stats() {
    auto s = fs_->path_cache().stats();
    fs_->path_cache().reset_stats();
    return s;
  }
};

TEST_F(LookupCacheFsTest, MutationsBumpTheDirectoryEpochTwice) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  const std::uint64_t e0 = epoch_of("/d");
  auto fd = p().open("/d/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  const std::uint64_t e1 = epoch_of("/d");
  EXPECT_EQ(e1, e0 + 2);  // one balanced guard around the insert
  ASSERT_TRUE(p().rename("/d/f", "/d/g").is_ok());
  const std::uint64_t e2 = epoch_of("/d");
  EXPECT_EQ(e2, e1 + 2);
  ASSERT_TRUE(p().unlink("/d/g").is_ok());
  EXPECT_EQ(epoch_of("/d"), e2 + 2);
}

TEST_F(LookupCacheFsTest, ReadsDoNotBumpTheEpoch) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  auto fd = p().open("/d/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  const std::uint64_t e = epoch_of("/d");
  ASSERT_TRUE(p().stat("/d/f").is_ok());
  ASSERT_TRUE(p().readdir("/d").is_ok());
  ASSERT_TRUE(p().chmod("/d/f", 0600).is_ok());  // inode-only change
  EXPECT_EQ(epoch_of("/d"), e);
}

TEST_F(LookupCacheFsTest, CrossDirRenameBumpsBothDirectories) {
  ASSERT_TRUE(p().mkdir("/src").is_ok());
  ASSERT_TRUE(p().mkdir("/dst").is_ok());
  auto fd = p().open("/src/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  const std::uint64_t es = epoch_of("/src"), ed = epoch_of("/dst");
  ASSERT_TRUE(p().rename("/src/f", "/dst/f").is_ok());
  EXPECT_EQ(epoch_of("/src"), es + 2);
  EXPECT_EQ(epoch_of("/dst"), ed + 2);
}

TEST_F(LookupCacheFsTest, WarmWalkServesFromTheCache) {
  // Pin walks to the per-component layer so its hit accounting is exact
  // (the directory-path layer would otherwise short-circuit "a" and "b").
  fs_->walker().set_path_cache(nullptr);
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  ASSERT_TRUE(p().mkdir("/a/b").is_ok());
  auto fd = p().open("/a/b/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());  // fill
  (void)delta_stats();
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());  // all three components warm
  const auto s = delta_stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 0u);
  // The shared cache serves every Process of the mount, not just one.
  auto other = fs_->open_process(1000, 1000);
  ASSERT_TRUE(other->stat("/a/b/f").is_ok());
  EXPECT_EQ(delta_stats().hits, 3u);
  // And the mount-wide counters surface through fsstat().
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());
  EXPECT_GT(fs_->fsstat().lookup_hits, 0u);
}

TEST_F(LookupCacheFsTest, WarmWalkIsOneDirectoryHitAndOneLeafProbe) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  ASSERT_TRUE(p().mkdir("/a/b").is_ok());
  auto fd = p().open("/a/b/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());  // walk fills both layers
  (void)delta_stats();
  (void)delta_path_stats();
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());
  const auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits, 1u);
  EXPECT_EQ(pcs.misses + pcs.conflicts, 0u);
  // The directory-path hit skipped "a" and "b": the per-component layer
  // saw exactly one probe, the leaf's, and served it.
  const auto lcs = delta_stats();
  EXPECT_EQ(lcs.hits, 1u);
  EXPECT_EQ(lcs.misses + lcs.conflicts, 0u);
}

class DirEntryTest : public LookupCacheFsTest {
 protected:
  // /a/b holding f and g, with the entry for "/a/b" warm.
  void SetUp() override {
    LookupCacheFsTest::SetUp();
    ASSERT_TRUE(p().mkdir("/a").is_ok());
    ASSERT_TRUE(p().mkdir("/a/b").is_ok());
    for (const char* f : {"/a/b/f", "/a/b/g"}) {
      auto fd = p().open(f, core::kOpenCreate | core::kOpenWrite);
      ASSERT_TRUE(fd.is_ok());
      ASSERT_TRUE(p().close(*fd).is_ok());
    }
    ASSERT_TRUE(p().stat("/a/b/f").is_ok());
    (void)delta_path_stats();
  }
};

TEST_F(DirEntryTest, ParentChmodRevokesWarmLeaves) {
  // /a/b is not in its own chain, so its entry still hits after the chmod;
  // the exec check every hit makes on the directory refuses the leaf.
  ASSERT_TRUE(p().chmod("/a/b", 0600).is_ok());
  (void)delta_path_stats();
  EXPECT_EQ(p().stat("/a/b/f").code(), Errc::permission);
  EXPECT_EQ(delta_path_stats().hits, 1u);
  ASSERT_TRUE(p().chmod("/a/b", 0700).is_ok());
  EXPECT_TRUE(p().stat("/a/b/f").is_ok());
}

TEST_F(DirEntryTest, SiblingsShareTheDirectoryEntry) {
  ASSERT_TRUE(p().stat("/a/b/g").is_ok());  // g's first stat
  const auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits, 1u);
  EXPECT_EQ(pcs.misses + pcs.conflicts + pcs.fills, 0u);
}

TEST_F(DirEntryTest, MutationsInsideTheDirectoryKeepItsEntry) {
  auto fd = p().open("/a/b/h", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  (void)delta_path_stats();
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());
  EXPECT_EQ(delta_path_stats().hits, 1u);  // after a create
  ASSERT_TRUE(p().unlink("/a/b/g").is_ok());
  (void)delta_path_stats();
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());
  EXPECT_EQ(delta_path_stats().hits, 1u);  // after an unlink
  EXPECT_EQ(p().stat("/a/b/g").code(), Errc::not_found);
}

TEST_F(DirEntryTest, ResolveParentOfANewNameHits) {
  const std::uint64_t b = p().stat("/a/b")->inode;
  (void)delta_path_stats();
  auto r = fs_->walker().resolve_parent({1000, 1000}, "/a/b/new");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r->parent_off, b);
  EXPECT_EQ(r->inode_off, 0u);  // absent leaf
  EXPECT_EQ(r->leaf(), "new");
  const auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits, 1u);
  EXPECT_EQ(pcs.misses + pcs.conflicts, 0u);
}

TEST_F(DirEntryTest, RenamedDirectoryNeverHitsStale) {
  const std::uint64_t f = p().stat("/a/b/f")->inode;
  ASSERT_TRUE(p().rename("/a/b", "/a/c").is_ok());
  (void)delta_path_stats();
  EXPECT_EQ(p().stat("/a/b/f").code(), Errc::not_found);
  EXPECT_EQ(delta_path_stats().hits, 0u);  // /a's epoch moved
  auto st = p().stat("/a/c/f");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, f);
}

TEST_F(DirEntryTest, LeafSymlinksResolveOnAHit) {
  ASSERT_TRUE(p().symlink("f", "/a/b/ln").is_ok());
  const std::uint64_t f = p().stat("/a/b/f")->inode;
  (void)delta_path_stats();
  auto st = p().stat("/a/b/ln");  // followed: the hit falls back to a walk
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, f);
  auto lst = p().lstat("/a/b/ln");  // returned itself from the hit
  ASSERT_TRUE(lst.is_ok());
  EXPECT_NE(lst->inode, f);
  EXPECT_EQ(delta_path_stats().hits, 2u);
}

TEST_F(LookupCacheFsTest, RootLeavesAndDotLeavesBypassTheLayer) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  ASSERT_TRUE(p().mkdir("/a/b").is_ok());
  (void)delta_path_stats();
  for (const char* path : {"/a", "/a", "/a/b/", "/a/b/", "/a/b/.", "/a/b/.",
                           "/a/b/..", "/a/b/.."})
    ASSERT_TRUE(p().stat(path).is_ok()) << path;
  const auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits + pcs.misses + pcs.conflicts + pcs.fills, 0u);
}

TEST_F(LookupCacheFsTest, DirectoryChmodBumpsItsOwnEpoch) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  const std::uint64_t e0 = epoch_of("/d");
  ASSERT_TRUE(p().chmod("/d", 0755).is_ok());
  EXPECT_EQ(epoch_of("/d"), e0 + 2);  // traversal rights changed
}

TEST_F(LookupCacheFsTest, AncestorChmodRevokesWarmPaths) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  ASSERT_TRUE(p().mkdir("/a/b").is_ok());
  auto fd = p().open("/a/b/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());
  ASSERT_TRUE(p().stat("/a/b/f").is_ok());  // warm directory-path hit
  // Removing x from /a must make the *warm* walk fail closed: the cached
  // entry stops validating because chmod bumped /a's epoch.
  ASSERT_TRUE(p().chmod("/a", 0600).is_ok());
  EXPECT_EQ(p().stat("/a/b/f").code(), Errc::permission);
  ASSERT_TRUE(p().chmod("/a", 0700).is_ok());
  EXPECT_TRUE(p().stat("/a/b/f").is_ok());
}

TEST_F(LookupCacheFsTest, AncestorChownRevokesWarmPaths) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  ASSERT_TRUE(p().chmod("/a", 0700).is_ok());  // owner-only traversal
  auto fd = p().open("/a/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().stat("/a/f").is_ok());
  ASSERT_TRUE(p().stat("/a/f").is_ok());  // warm under uid 1000
  auto root = fs_->open_process(0, 0);
  ASSERT_TRUE(root->chown("/a", 2000, 2000).is_ok());
  // /a now belongs to someone else and grants others nothing; the warm
  // entry must not keep serving the old answer.
  EXPECT_EQ(p().stat("/a/f").code(), Errc::permission);
}

TEST_F(LookupCacheFsTest, WholePathEntriesAreCredentialScoped) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  auto fd = p().open("/a/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().stat("/a/f").is_ok());  // fill under (1000, 1000)
  (void)delta_path_stats();
  auto other = fs_->open_process(2000, 2000);
  ASSERT_TRUE(other->stat("/a/f").is_ok());
  // Different credentials never match the uid-1000 entry: first walk under
  // (2000, 2000) misses and fills its own.
  auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits, 0u);
  EXPECT_EQ(pcs.misses, 1u);
  EXPECT_EQ(pcs.fills, 1u);
  ASSERT_TRUE(other->stat("/a/f").is_ok());
  EXPECT_EQ(delta_path_stats().hits, 1u);
}

TEST_F(LookupCacheFsTest, DotComponentsBypassTheWholePathLayer) {
  ASSERT_TRUE(p().mkdir("/a").is_ok());
  auto fd = p().open("/a/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  (void)delta_path_stats();
  ASSERT_TRUE(p().stat("/a/./f").is_ok());
  ASSERT_TRUE(p().stat("/a/./f").is_ok());
  ASSERT_TRUE(p().stat("/a/../a/f").is_ok());
  const auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits, 0u);
  EXPECT_EQ(pcs.fills, 0u);  // "." and ".." poison the trace
}

TEST_F(LookupCacheFsTest, SymlinkWalksBypassTheWholePathLayer) {
  ASSERT_TRUE(p().mkdir("/t").is_ok());
  auto fd = p().open("/t/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().symlink("/t", "/ln").is_ok());
  (void)delta_path_stats();
  ASSERT_TRUE(p().stat("/ln/f").is_ok());
  ASSERT_TRUE(p().stat("/ln/f").is_ok());
  ASSERT_TRUE(p().lstat("/ln").is_ok());  // symlink leaf, not followed
  ASSERT_TRUE(p().lstat("/ln").is_ok());
  const auto pcs = delta_path_stats();
  EXPECT_EQ(pcs.hits, 0u);
  EXPECT_EQ(pcs.fills, 0u);
}

TEST_F(LookupCacheFsTest, UnlinkedNameNeverResolvesWarm) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  auto fd = p().open("/d/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  ASSERT_TRUE(p().stat("/d/f").is_ok());  // cached binding
  ASSERT_TRUE(p().unlink("/d/f").is_ok());
  EXPECT_EQ(p().stat("/d/f").code(), Errc::not_found);
}

TEST_F(LookupCacheFsTest, RenameRebindsWithoutStaleHits) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  auto fd = p().open("/d/old", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  const std::uint64_t ino = p().stat("/d/old")->inode;  // cached
  ASSERT_TRUE(p().rename("/d/old", "/d/new").is_ok());
  EXPECT_EQ(p().stat("/d/old").code(), Errc::not_found);
  auto st = p().stat("/d/new");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, ino);
}

TEST_F(LookupCacheFsTest, RmdirInvalidatesTheCachedDirectory) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  ASSERT_TRUE(p().mkdir("/d/sub").is_ok());
  ASSERT_TRUE(p().stat("/d/sub").is_ok());  // cached
  ASSERT_TRUE(p().rmdir("/d/sub").is_ok());
  EXPECT_EQ(p().stat("/d/sub").code(), Errc::not_found);
}

// ---- cross-lifetime epoch uniqueness (directory-recycling ABA) ----

TEST_F(LookupCacheFsTest, FreshDirectoriesStartAtUniqueEpochs) {
  ASSERT_TRUE(p().mkdir("/d1").is_ok());
  ASSERT_TRUE(p().mkdir("/d2").is_ok());
  EXPECT_NE(epoch_of("/d1"), epoch_of("/d2"));
  // Recycling an offset never rewinds its epoch stream: a directory
  // created after another died starts past the dead one's final epoch.
  const std::uint64_t final_epoch = epoch_of("/d1");
  ASSERT_TRUE(p().rmdir("/d1").is_ok());
  ASSERT_TRUE(p().mkdir("/d3").is_ok());
  EXPECT_GT(epoch_of("/d3"), final_epoch);
}

TEST_F(LookupCacheFsTest, RecycledDirectoryNeverServesStaleBindings) {
  // Reconstructs the component-cache ABA: a directory dies while the cache
  // holds one of its (parent_off, name) bindings, the allocator recycles
  // its inode offset into a fresh directory, and the fresh directory's own
  // mutations march its epoch to exactly the dead one's fill epoch.  With
  // lifetime-unique epoch streams the stale entry can never validate;
  // without them this walk would observe the dead directory's freed inode.
  ASSERT_TRUE(p().mkdir("/p").is_ok());
  const std::uint64_t p_ino = p().stat("/p")->inode;
  auto fd = p().open("/p/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  const std::uint64_t f_old = p().fstat(*fd)->inode;
  ASSERT_TRUE(p().close(*fd).is_ok());
  auto fd2 = p().open("/p/g", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd2.is_ok());
  ASSERT_TRUE(p().close(*fd2).is_ok());
  ASSERT_TRUE(p().stat("/p/f").is_ok());  // fills (p_ino, "f")
  ASSERT_TRUE(p().unlink("/p/f").is_ok());
  ASSERT_TRUE(p().unlink("/p/g").is_ok());
  ASSERT_TRUE(p().rmdir("/p").is_ok());

  // Recycle /p's inode offset into a fresh directory.
  std::string q;
  for (int i = 0; i < 32 && q.empty(); ++i) {
    const std::string cand = "/q" + std::to_string(i);
    ASSERT_TRUE(p().mkdir(cand).is_ok());
    if (p().stat(cand)->inode == p_ino) q = cand;
  }
  ASSERT_FALSE(q.empty()) << "allocator stopped recycling inode offsets; "
                             "re-provoke the ABA differently";

  // Advance the recycled directory's epoch by the same two mutations the
  // dead one had absorbed when the stale entry was filled.  The spare file
  // soaks up /p/f's freed inode so a stale hit stays distinguishable.
  auto g = p().open(q + "/g", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(g.is_ok());
  ASSERT_TRUE(p().close(*g).is_ok());
  auto spare = p().open("/spare", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(spare.is_ok());
  ASSERT_TRUE(p().close(*spare).is_ok());
  auto f = p().open(q + "/f", core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(f.is_ok());
  const std::uint64_t f_new = p().fstat(*f)->inode;
  ASSERT_TRUE(p().close(*f).is_ok());
  ASSERT_NE(f_new, f_old);  // distinct inode: a stale hit is observable

  auto st = p().stat(q + "/f");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, f_new);
}

TEST_F(LookupCacheFsTest, RecoveryDropsCachedBindings) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  ASSERT_TRUE(p().mkdir("/d/e").is_ok());
  ASSERT_TRUE(p().stat("/d/e").is_ok());
  (void)delta_path_stats();
  ASSERT_TRUE(p().stat("/d/e").is_ok());  // warm entry for "/d"
  ASSERT_EQ(delta_path_stats().hits, 1u);
  (void)delta_stats();
  // Recovery may recycle directory blocks without per-directory retire
  // bookkeeping, so it drops all cached bindings wholesale.
  (void)fs_->recover();
  ASSERT_TRUE(p().stat("/d/e").is_ok());
  EXPECT_EQ(delta_path_stats().hits, 0u);  // cold again
  EXPECT_EQ(delta_stats().hits, 0u);
}

TEST_F(LookupCacheFsTest, OverlongNamesBypassTheCacheButResolve) {
  const std::string name(100, 'z');  // > kCacheNameMax, < kMaxName
  auto fd = p().open("/" + name, core::kOpenCreate | core::kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  (void)delta_stats();
  ASSERT_TRUE(p().stat("/" + name).is_ok());
  ASSERT_TRUE(p().stat("/" + name).is_ok());
  const auto s = delta_stats();
  EXPECT_EQ(s.hits + s.misses + s.fills, 0u);  // never consulted
}

TEST_F(LookupCacheFsTest, RuntimeSwitchDisablesTheCache) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  fs_->set_lookup_cache_enabled(false);
  EXPECT_FALSE(fs_->lookup_cache_enabled());
  (void)delta_stats();
  ASSERT_TRUE(p().stat("/d").is_ok());
  ASSERT_TRUE(p().stat("/d").is_ok());
  const auto s = delta_stats();
  EXPECT_EQ(s.hits + s.misses + s.fills, 0u);
  fs_->set_lookup_cache_enabled(true);
  EXPECT_TRUE(fs_->lookup_cache_enabled());
}

TEST_F(LookupCacheFsTest, CacheIsVolatileAcrossRemount) {
  ASSERT_TRUE(p().mkdir("/d").is_ok());
  ASSERT_TRUE(p().stat("/d").is_ok());
  remount_after_crash();
  const auto s = fs_->lookup_cache().stats();
  EXPECT_EQ(s.hits + s.fills, 0u);  // fresh mount starts cold
  ASSERT_TRUE(p().stat("/d").is_ok());  // and refills lazily
  EXPECT_EQ(fs_->lookup_cache().stats().fills, 1u);
}

}  // namespace
}  // namespace simurgh::testing
