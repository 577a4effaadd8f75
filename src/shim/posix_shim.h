// POSIX interposition layer — the preload-library face of Simurgh.
//
// The paper ships Simurgh as an LD_PRELOAD library: "applications then call
// the standard libc functions to access files, and the preloading library
// redirects the calls to the corresponding Simurgh function using the jmpp
// instruction" (§3.2), so applications run unmodified.  This shim is that
// redirection layer: C-style functions with libc signatures, real O_* flag
// handling and errno semantics, dispatching to a process-wide mounted
// FileSystem through a per-thread credentials context.
//
// (In this repository the shim is linked and called explicitly rather than
// interposed over glibc — interposition itself is a build/packaging detail;
// everything semantic about it lives here and is tested.)
#pragma once

#include <fcntl.h>
#include <sys/types.h>

#include <cstdint>

#include "core/fs.h"

namespace simurgh::shim {

// Attaches the shim to a mounted file system with the calling "process'"
// credentials (what the bootstrap would pin at preload time, Fig. 2).
// Replaces any previous attachment.  Not owning.
void attach(core::FileSystem* fs, std::uint32_t uid, std::uint32_t gid);
void detach();
[[nodiscard]] bool attached();

// Thread-safe errno of the last failed shim call on this thread.
[[nodiscard]] int last_errno();

// Maps internal error codes to errno values (exposed for tests).
[[nodiscard]] int errno_of(Errc e);

// ---- libc-shaped entry points ----
// Flags are the real <fcntl.h> O_* values.  Return conventions match
// POSIX: -1 on error with last_errno() set, etc.
int sfs_open(const char* path, int oflag, mode_t mode = 0644);
int sfs_close(int fd);
ssize_t sfs_read(int fd, void* buf, size_t n);
ssize_t sfs_write(int fd, const void* buf, size_t n);
ssize_t sfs_pread(int fd, void* buf, size_t n, off_t off);
ssize_t sfs_pwrite(int fd, const void* buf, size_t n, off_t off);
off_t sfs_lseek(int fd, off_t off, int whence);
int sfs_fsync(int fd);
int sfs_ftruncate(int fd, off_t len);
int sfs_truncate(const char* path, off_t len);
int sfs_unlink(const char* path);
int sfs_mkdir(const char* path, mode_t mode);
int sfs_rmdir(const char* path);
int sfs_rename(const char* from, const char* to);
int sfs_link(const char* existing, const char* newpath);
int sfs_symlink(const char* target, const char* linkpath);
ssize_t sfs_readlink(const char* path, char* buf, size_t bufsize);
int sfs_access(const char* path, int amode);
int sfs_chmod(const char* path, mode_t mode);

// stat: fills the subset of struct stat fields Simurgh maintains.
struct SfsStat {
  std::uint64_t st_ino;
  std::uint32_t st_mode;
  std::uint32_t st_uid;
  std::uint32_t st_gid;
  std::uint32_t st_nlink;
  std::uint64_t st_size;
  std::uint64_t st_atime_ns;
  std::uint64_t st_mtime_ns;
  std::uint64_t st_ctime_ns;
};
int sfs_stat(const char* path, SfsStat* out);
int sfs_lstat(const char* path, SfsStat* out);
int sfs_fstat(int fd, SfsStat* out);

// ---- durability classes (Simurgh extension; write_behind.h) ----
// Values for sfs_set_durability.  `strict` is the default: every write is
// durable before it returns.  `group` acks from a DRAM staging tier; see
// core/write_behind.h for the exact contract.  O_SYNC/O_DSYNC
// descriptors always write strictly regardless of the file's class.
constexpr int SFS_DURABILITY_STRICT = 0;
constexpr int SFS_DURABILITY_GROUP = 1;
int sfs_set_durability(const char* path, int durability_class);
int sfs_fset_durability(int fd, int durability_class);

}  // namespace simurgh::shim
