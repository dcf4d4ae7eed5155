// rock_perfbench — runs one benchmark workload against librock's public
// functions and prints its metrics. run.py builds this binary and starts
// it once per workload, each time in a fresh process and directory:
//
//   rock_perfbench --workload=pipeline_t5|build_s10k|serve_append
//                  --seed=N --seconds=S --trace=0|1 --dir=DIR
//                  [--scale=F] [--trace-out=FILE]
//
// --trace=0 times the workload and prints its end-to-end metrics; --trace=1
// calls the layers one at a time with a span around each call and prints
// the per-layer metrics. Every answer is checked outside the timed regions.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string v;
      if (ParseFlag(arg, "workload", &v)) {
        args.workload = v;
      } else if (ParseFlag(arg, "seed", &v)) {
        args.seed = std::stoull(v);
      } else if (ParseFlag(arg, "seconds", &v)) {
        args.seconds = std::stod(v);
      } else if (ParseFlag(arg, "trace", &v)) {
        args.trace = std::stoi(v) != 0;
      } else if (ParseFlag(arg, "scale", &v)) {
        args.scale = std::stod(v);
      } else if (ParseFlag(arg, "dir", &v)) {
        args.dir = v;
      } else if (ParseFlag(arg, "trace-out", &v)) {
        args.trace_out = v;
      } else {
        std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: bad argument value (%s)\n", e.what());
    return 2;
  }
  if (args.dir.empty() || args.seconds <= 0.0 || args.scale <= 0.0 ||
      args.scale > 1.0) {
    std::fprintf(stderr, "error: need --dir, --seconds > 0, 0 < --scale <= 1\n");
    return 2;
  }

  perfbench::Report report;
  try {
    if (args.workload == "pipeline_t5") {
      perfbench::RunPipelineT5(args, &report);
    } else if (args.workload == "build_s10k") {
      perfbench::RunBuildS10k(args, &report);
    } else if (args.workload == "serve_append") {
      perfbench::RunServeAppend(args, &report);
    } else {
      std::fprintf(stderr, "error: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return report.Emit();
}
