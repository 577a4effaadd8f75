#include <algorithm>
#include <cstring>

#include "bench.h"
#include "common/status.h"

namespace perfbench {

namespace {
inline std::uint64_t pattern_word(std::uint64_t key, std::uint64_t w) {
  return (w + 1) * 0x9e3779b97f4a7c15ull ^ key;
}
}  // namespace

void fill_pattern(void* dst, std::size_t n, std::uint64_t key,
                  std::uint64_t off) {
  auto* out = static_cast<unsigned char*>(dst);
  std::uint64_t w = off / 8;
  if (const std::size_t skip = off % 8; skip != 0 && n > 0) {
    const std::uint64_t v = pattern_word(key, w++);
    const std::size_t take = std::min<std::size_t>(8 - skip, n);
    std::memcpy(out, reinterpret_cast<const unsigned char*>(&v) + skip, take);
    out += take;
    n -= take;
  }
  for (; n >= 8; n -= 8, out += 8) {
    const std::uint64_t v = pattern_word(key, w++);
    std::memcpy(out, &v, 8);
  }
  if (n > 0) {
    const std::uint64_t v = pattern_word(key, w);
    std::memcpy(out, &v, n);
  }
}

bool check_pattern(const void* src, std::size_t n, std::uint64_t key,
                   std::uint64_t off) {
  const auto* in = static_cast<const unsigned char*>(src);
  std::uint64_t w = off / 8;
  if (const std::size_t skip = off % 8; skip != 0 && n > 0) {
    const std::uint64_t v = pattern_word(key, w++);
    const std::size_t take = std::min<std::size_t>(8 - skip, n);
    if (std::memcmp(in, reinterpret_cast<const unsigned char*>(&v) + skip,
                    take) != 0)
      return false;
    in += take;
    n -= take;
  }
  std::uint64_t diff = 0;
  for (; n >= 8; n -= 8, in += 8) {
    std::uint64_t got = 0;
    std::memcpy(&got, in, 8);
    diff |= got ^ pattern_word(key, w++);
  }
  if (n > 0) {
    const std::uint64_t v = pattern_word(key, w);
    if (std::memcmp(in, &v, n) != 0) return false;
  }
  return diff == 0;
}

bool flip_device_byte(nvmm::Device& dev, const void* expected,
                      std::size_t len) {
  auto* hit = static_cast<unsigned char*>(
      ::memmem(dev.base(), dev.size(), expected, len));
  if (hit == nullptr) return false;
  hit[len / 2] ^= 0x5a;
  return true;
}

World::World(std::size_t nvmm_bytes, bool service) {
  dev = std::make_unique<nvmm::Device>(nvmm_bytes);
  shm = std::make_unique<nvmm::Device>(std::size_t{16} << 20);
  owner = core::FileSystem::format(*dev, *shm);
  SIMURGH_CHECK(owner != nullptr);
  populate = owner->open_process(kUid, kGid);
  if (service) {
    SIMURGH_CHECK(owner->enable_service_mode().is_ok());
    client = core::FileSystem::mount(*dev, *shm);
    SIMURGH_CHECK(client->enable_service_mode().is_ok());
    proc = client->open_process(kUid, kGid);
  } else {
    proc = owner->open_process(kUid, kGid);
  }
}

World::~World() { unmount_all(); }

void World::unmount_all() {
  proc.reset();
  populate.reset();
  if (client) {
    client->unmount();
    client.reset();
  }
  if (owner) {
    owner->unmount();
    owner.reset();
  }
}

}  // namespace perfbench
