// Environment pinning: what a run refuses, what it sets, and the host stamp
// it prints so a reader can tell host effects from code effects.
#pragma once

#include <string>

namespace perfbench {

// The one SIMURGH_* variable a run sets itself.
constexpr const char* kTimingModelVar = "SIMURGH_NVMM_OPTANE";

// Name of the first SIMURGH_* variable in `envp` (a null-terminated
// environ-style array) that would change what is measured — every one but
// SIMURGH_NVMM_OPTANE=1 — or empty when there is none.
std::string stray_simurgh_var(char** envp);

// Turns on the Optane wall-clock timing model with its default anchors
// (200 ns fence, 12 GB/s).  Must run before the first persist call: the
// model reads the environment once.
void pin_timing_model();

// Why this build must not be timed (Debug, sanitizers, assertions on), or
// empty for an optimized build.
std::string unoptimized_build();

// The host stamp as one JSON object: the fields every BENCH_*.json carries
// (simurgh::bench_env_fields: hardware_concurrency and the uname triple)
// plus an ALU probe, the same loop on 1 thread and on alu_probe_threads
// threads at once.  A slowdown near 1 means the threads really ran in
// parallel, near alu_probe_threads that the host gives about one CPU.
std::string host_stamp_json();

}  // namespace perfbench
