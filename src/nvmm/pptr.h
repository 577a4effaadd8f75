// Persistent relative pointers (§4.1 of the paper).
//
// A pptr<T> is a 64-bit offset from the start of its device.  Offset 0 is
// the null pointer (the first bytes of every device hold the superblock
// magic, so no real object ever lives at offset 0).  Resolution requires the
// device, which keeps the type honest: there is no hidden process-global
// base, so several independent file systems can coexist in one process (as
// the tests do).
//
// pptr is also Simurgh's inode identity: the paper removes inode numbers and
// uses the inode's NVMM offset as its unique, directly dereferenceable id.
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>

#include "nvmm/device.h"

namespace simurgh::nvmm {

template <typename T>
class pptr {
 public:
  constexpr pptr() noexcept = default;
  constexpr explicit pptr(std::uint64_t off) noexcept : off_(off) {}

  static pptr to(const Device& dev, const T* p) noexcept {
    return p == nullptr ? pptr() : pptr(dev.offset_of(p));
  }

  [[nodiscard]] constexpr std::uint64_t raw() const noexcept { return off_; }
  [[nodiscard]] constexpr bool is_null() const noexcept { return off_ == 0; }
  constexpr explicit operator bool() const noexcept { return !is_null(); }

  [[nodiscard]] T* in(const Device& dev) const noexcept {
    return reinterpret_cast<T*>(dev.at(off_));
  }

  friend constexpr auto operator<=>(pptr, pptr) noexcept = default;

 private:
  std::uint64_t off_ = 0;
};

// Atomic cell holding a pptr, for lock-free pointer publication on NVMM.
// The paper persists 8-byte pointer stores atomically (x86 guarantees
// power-fail atomicity for aligned 8-byte stores to NVMM).
template <typename T>
class atomic_pptr {
 public:
  [[nodiscard]] pptr<T> load(
      std::memory_order mo = std::memory_order_acquire) const noexcept {
    return pptr<T>(raw_.load(mo));
  }
  void store(pptr<T> p,
             std::memory_order mo = std::memory_order_release) noexcept {
    raw_.store(p.raw(), mo);
  }
  bool compare_exchange(pptr<T>& expected, pptr<T> desired) noexcept {
    std::uint64_t e = expected.raw();
    const bool ok = raw_.compare_exchange_strong(
        e, desired.raw(), std::memory_order_acq_rel);
    expected = pptr<T>(e);
    return ok;
  }

 private:
  std::atomic<std::uint64_t> raw_{0};
};

static_assert(sizeof(pptr<int>) == 8);
static_assert(sizeof(atomic_pptr<int>) == 8);

}  // namespace simurgh::nvmm
