// pmlint fixture: the library takes no configuration from its environment
// — every process mounting an image must run the same policy.  Comments
// and strings naming getenv( are not reads.  Expected findings:
// env-read x2.
#include <cstdlib>

namespace fixture {

bool cache_enabled() {
  const char* s = std::getenv("FIXTURE_CACHE");  // finding: env-read
  return s == nullptr || s[0] != '0';
}

long slots() {
  const char* s = getenv("FIXTURE_SLOTS");  // finding: env-read
  return s == nullptr ? 64 : std::strtol(s, nullptr, 10);
}

const char* kDoc = "set getenv(\"FIXTURE_SLOTS\") to resize";

}  // namespace fixture
