// perfbench command line:
//
//   perfbench --workload <smallfile|smallfile_svc|bigfile|kv> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <file>] [--tiny]
//
// Prints detail lines starting with '#', then one JSON result object as
// the last line.  Exits 0 only when every op and the final re-read came
// back correct and fsck found nothing.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "env.h"
#include "runner.h"

extern char** environ;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <smallfile|"
               "smallfile_svc|bigfile|kv> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <file>] [--tiny]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Refuse before anything touches the file system: every other SIMURGH_*
  // knob would silently change what is measured.
  if (const std::string var = perfbench::stray_simurgh_var(environ);
      !var.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; unset it (the "
                 "benchmark pins %s=1 itself)\n",
                 var.c_str(), perfbench::kTimingModelVar);
    return 3;
  }
  perfbench::pin_timing_model();

  perfbench::RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value");
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (a == "--trace") {
      cfg.trace = std::string_view(v) == "1";
      have_trace = std::string_view(v) == "0" || cfg.trace;
    } else if (a == "--spans-out") {
      cfg.spans_out = v;
    } else {
      return usage("unknown argument");
    }
  }
  if (!perfbench::known_workload(cfg.workload))
    return usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");
  if (!cfg.tiny) {
    if (const std::string why = perfbench::unoptimized_build(); !why.empty()) {
      std::fprintf(stderr, "perfbench: refusing a timed run from a %s\n",
                   why.c_str());
      return 3;
    }
  }

  std::printf("# host: %s\n", perfbench::host_stamp_json().c_str());
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::fflush(stdout);

  const perfbench::RunReport r = perfbench::run_benchmark(cfg);
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const perfbench::Metric& m : r.metrics)
    std::printf("# %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%s\n", perfbench::report_json(r).c_str());
  return r.correct ? 0 : 1;
}
