// pmlint fixture: every rule violation here carries a justified waiver, so
// the file must lint clean — this pins the waiver machinery itself (both
// trailing and preceding-line placement).  Expected findings: none.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace fixture {

struct Device {
  char* at(unsigned long off);
};

struct ObjectHeader {
  std::atomic<unsigned> flags;
};

// pmlint: allow(raw-mutex) fixture exercises the preceding-line waiver form
std::mutex g_fixture_mu;

void scrub(Device& dev) {
  // DRAM-backed scratch device in this fixture, nothing to persist.
  std::memset(dev.at(0), 0, 64);  // pmlint: allow(raw-device-store) volatile scratch device
}

bool model_on() {
  // pmlint: allow(env-read) fixture exercises the waiver for the env rule
  return std::getenv("FIXTURE_MODEL") != nullptr;
}

bool claim(ObjectHeader& hdr) {
  unsigned expected = 0;
  // pmlint: allow(rmw-persist) caller persists the whole header afterwards
  return hdr.flags.compare_exchange_strong(expected, 3);
}

}  // namespace fixture
