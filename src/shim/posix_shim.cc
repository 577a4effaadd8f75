#include "shim/posix_shim.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>

#include "common/thread_annotations.h"

namespace simurgh::shim {

namespace {

struct ShimState {
  core::FileSystem* fs = nullptr;
  std::unique_ptr<core::Process> proc;
};

ShimState& state() {
  static ShimState s;
  return s;
}
// Serialises attach()/detach(); reads (attached(), proc_or_fail) are
// deliberately lock-free — the shim contract is that attach/detach happen
// while no other shim call is in flight.
common::Mutex attach_mu;

thread_local int tl_errno = 0;

// Translates real O_* flags to the library's open flags.
int translate_oflags(int oflag) {
  int f = 0;
  const int acc = oflag & O_ACCMODE;
  if (acc == O_RDONLY) f |= core::kOpenRead;
  if (acc == O_WRONLY) f |= core::kOpenWrite;
  if (acc == O_RDWR) f |= core::kOpenRead | core::kOpenWrite;
  if (oflag & O_CREAT) f |= core::kOpenCreate;
  if (oflag & O_EXCL) f |= core::kOpenExcl;
  if (oflag & O_TRUNC) f |= core::kOpenTrunc;
  if (oflag & O_APPEND) f |= core::kOpenAppend;
  // O_SYNC / O_DSYNC: the application asked for synchronous durability on
  // this descriptor — writes stay strict no matter the file's durability
  // class (O_SYNC on glibc includes the O_DSYNC bit; test both).
  if (oflag & (O_SYNC | O_DSYNC)) f |= core::kOpenSync;
  return f;
}

int fail(Errc e) {
  tl_errno = errno_of(e);
  return -1;
}

core::Process* proc_or_fail() {
  core::Process* p = state().proc.get();
  if (p == nullptr) tl_errno = ENODEV;
  return p;
}

void fill_stat(const core::Stat& st, SfsStat* out) {
  out->st_ino = st.inode;
  out->st_mode = st.mode;
  out->st_uid = st.uid;
  out->st_gid = st.gid;
  out->st_nlink = st.nlink;
  out->st_size = st.size;
  out->st_atime_ns = st.atime_ns;
  out->st_mtime_ns = st.mtime_ns;
  out->st_ctime_ns = st.ctime_ns;
}

}  // namespace

int errno_of(Errc e) {
  switch (e) {
    case Errc::ok: return 0;
    case Errc::not_found: return ENOENT;
    case Errc::exists: return EEXIST;
    case Errc::not_dir: return ENOTDIR;
    case Errc::is_dir: return EISDIR;
    case Errc::not_empty: return ENOTEMPTY;
    case Errc::permission: return EACCES;
    case Errc::bad_fd: return EBADF;
    case Errc::invalid: return EINVAL;
    case Errc::no_space: return ENOSPC;
    case Errc::name_too_long: return ENAMETOOLONG;
    case Errc::too_many_links: return ELOOP;
    case Errc::busy: return EBUSY;
    case Errc::io: return EIO;
    case Errc::crashed: return EIO;
  }
  return EIO;
}

void attach(core::FileSystem* fs, std::uint32_t uid, std::uint32_t gid) {
  common::MutexLock lock(attach_mu);
  state().fs = fs;
  state().proc = fs->open_process(uid, gid);
}

void detach() {
  common::MutexLock lock(attach_mu);
  state().proc.reset();
  state().fs = nullptr;
}

bool attached() { return state().proc != nullptr; }

int last_errno() { return tl_errno; }

int sfs_open(const char* path, int oflag, mode_t mode) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto fd = p->open(path, translate_oflags(oflag),
                    static_cast<std::uint32_t>(mode));
  if (!fd.is_ok()) return fail(fd.code());
  return *fd;
}

int sfs_close(int fd) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->close(fd);
  return st.is_ok() ? 0 : fail(st.code());
}

ssize_t sfs_read(int fd, void* buf, size_t n) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto r = p->read(fd, buf, n);
  if (!r.is_ok()) return fail(r.code());
  return static_cast<ssize_t>(*r);
}

ssize_t sfs_write(int fd, const void* buf, size_t n) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto r = p->write(fd, buf, n);
  if (!r.is_ok()) return fail(r.code());
  return static_cast<ssize_t>(*r);
}

ssize_t sfs_pread(int fd, void* buf, size_t n, off_t off) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  if (off < 0) return fail(Errc::invalid);
  auto r = p->pread(fd, buf, n, static_cast<std::uint64_t>(off));
  if (!r.is_ok()) return fail(r.code());
  return static_cast<ssize_t>(*r);
}

ssize_t sfs_pwrite(int fd, const void* buf, size_t n, off_t off) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  if (off < 0) return fail(Errc::invalid);
  auto r = p->pwrite(fd, buf, n, static_cast<std::uint64_t>(off));
  if (!r.is_ok()) return fail(r.code());
  return static_cast<ssize_t>(*r);
}

off_t sfs_lseek(int fd, off_t off, int whence) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  int w;
  switch (whence) {
    case SEEK_SET: w = core::Process::kSeekSet; break;
    case SEEK_CUR: w = core::Process::kSeekCur; break;
    case SEEK_END: w = core::Process::kSeekEnd; break;
    default: return fail(Errc::invalid);
  }
  auto r = p->lseek(fd, off, w);
  if (!r.is_ok()) return fail(r.code());
  return static_cast<off_t>(*r);
}

int sfs_fsync(int fd) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->fsync(fd);
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_ftruncate(int fd, off_t len) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  if (len < 0) return fail(Errc::invalid);
  Status st = p->ftruncate(fd, static_cast<std::uint64_t>(len));
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_truncate(const char* path, off_t len) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  if (len < 0) return fail(Errc::invalid);
  Status st = p->truncate(path, static_cast<std::uint64_t>(len));
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_unlink(const char* path) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->unlink(path);
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_mkdir(const char* path, mode_t mode) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->mkdir(path, static_cast<std::uint32_t>(mode));
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_rmdir(const char* path) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->rmdir(path);
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_rename(const char* from, const char* to) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->rename(from, to);
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_link(const char* existing, const char* newpath) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->link(existing, newpath);
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_symlink(const char* target, const char* linkpath) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->symlink(target, linkpath);
  return st.is_ok() ? 0 : fail(st.code());
}

ssize_t sfs_readlink(const char* path, char* buf, size_t bufsize) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto r = p->readlink(path);
  if (!r.is_ok()) return fail(r.code());
  // POSIX readlink: no NUL terminator, truncates silently.
  const size_t n = std::min(bufsize, r->size());
  std::memcpy(buf, r->data(), n);
  return static_cast<ssize_t>(n);
}

int sfs_access(const char* path, int amode) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  unsigned may = 0;
  if (amode & R_OK) may |= core::kMayRead;
  if (amode & W_OK) may |= core::kMayWrite;
  if (amode & X_OK) may |= core::kMayExec;
  Status st = p->access(path, may);  // F_OK == existence == resolve
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_chmod(const char* path, mode_t mode) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  Status st = p->chmod(path, static_cast<std::uint32_t>(mode));
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_stat(const char* path, SfsStat* out) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto st = p->stat(path);
  if (!st.is_ok()) return fail(st.code());
  fill_stat(*st, out);
  return 0;
}

int sfs_lstat(const char* path, SfsStat* out) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto st = p->lstat(path);
  if (!st.is_ok()) return fail(st.code());
  fill_stat(*st, out);
  return 0;
}

int sfs_fstat(int fd, SfsStat* out) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  auto st = p->fstat(fd);
  if (!st.is_ok()) return fail(st.code());
  fill_stat(*st, out);
  return 0;
}

namespace {
bool durability_of_int(int cls, core::Durability* out) {
  switch (cls) {
    case SFS_DURABILITY_STRICT: *out = core::Durability::strict; return true;
    case SFS_DURABILITY_GROUP: *out = core::Durability::group; return true;
    default: return false;
  }
}
}  // namespace

int sfs_set_durability(const char* path, int durability_class) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  core::Durability d;
  if (!durability_of_int(durability_class, &d)) return fail(Errc::invalid);
  Status st = p->set_durability(path, d);
  return st.is_ok() ? 0 : fail(st.code());
}

int sfs_fset_durability(int fd, int durability_class) {
  core::Process* p = proc_or_fail();
  if (p == nullptr) return -1;
  core::Durability d;
  if (!durability_of_int(durability_class, &d)) return fail(Errc::invalid);
  Status st = p->set_durability(fd, d);
  return st.is_ok() ? 0 : fail(st.code());
}

}  // namespace simurgh::shim
