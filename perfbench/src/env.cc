#include "env.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_env.h"

namespace perfbench {

std::string stray_simurgh_var(char** envp) {
  constexpr std::string_view kPrefix = "SIMURGH_";
  for (char** e = envp; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.substr(0, kPrefix.size()) != kPrefix) continue;
    const std::size_t eq = kv.find('=');
    const std::string_view name = kv.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : kv.substr(eq + 1);
    if (name == kTimingModelVar && value == "1") continue;
    return std::string(name);
  }
  return {};
}

void pin_timing_model() { ::setenv(kTimingModelVar, "1", /*overwrite=*/1); }

std::string unoptimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#endif
  const std::string_view type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo")
    return "build type '" + std::string(type) + "'";
  return {};
}

namespace {

// A dependent multiply-add chain: pure ALU, no memory traffic.
std::uint64_t alu_loop(std::uint64_t iters, std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
  return x;
}

double time_threads(unsigned n, std::uint64_t iters) {
  std::vector<std::thread> ts;
  std::vector<std::uint64_t> sink(n);
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned i = 0; i < n; ++i)
    ts.emplace_back([&, i] { sink[i] = alu_loop(iters, i + 1); });
  for (auto& t : ts) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t keep = 0;
  for (std::uint64_t s : sink) keep = keep + s;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

std::string host_stamp_json() {
  // bench_env_fields writes indented, comma-terminated lines; join them.
  char* buf = nullptr;
  std::size_t len = 0;
  std::string json = "{";
  if (std::FILE* f = ::open_memstream(&buf, &len); f != nullptr) {
    simurgh::bench_env_fields(f);
    std::fclose(f);
    std::istringstream lines(std::string(buf, len));
    std::free(buf);
    for (std::string line; std::getline(lines, line);)
      json += line.substr(line.find_first_not_of(' ')) + ' ';
  }
  const unsigned hc = std::thread::hardware_concurrency();
  const unsigned n = hc > 1 ? hc : 2;
  constexpr std::uint64_t kIters = 20'000'000;  // ~20 ms on one core
  const double one_ms = time_threads(1, kIters);
  const double n_ms = time_threads(n, kIters);
  char alu[160];
  std::snprintf(alu, sizeof alu,
                "\"alu_probe_threads\": %u, \"alu_1_thread_ms\": %.2f, "
                "\"alu_n_threads_ms\": %.2f}",
                n, one_ms, n_ms);
  return json + alu;
}

}  // namespace perfbench
