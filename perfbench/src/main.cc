// The serving benchmark: one command per (workload, seed). With --trace 0
// it drives an in-process daemon over loopback and reports the end-to-end
// metrics; with --trace 1 it sends the same inputs through each layer's
// public functions and reports the per-layer split. The last line of
// stdout is the JSON result; the exit code is non-zero on any wrong
// verdict, answer set or fingerprint.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n");
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir = ".";
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      workdir = value;
    } else {
      Usage();
      return 2;
    }
  }
  const perfbench::WorkloadDef* def = perfbench::FindWorkload(workload);
  if (def == nullptr || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  perfbench::Inputs inputs;
  if (!perfbench::BuildInputs(*def, static_cast<uint64_t>(seed), &inputs)) {
    return 1;
  }
  perfbench::PrintInputRecord(inputs);
  perfbench::RunOptions opts;
  opts.seconds = seconds;
  opts.workdir = workdir;
  perfbench::RunResult run = trace == 1 ? perfbench::RunTraced(inputs, opts)
                                        : perfbench::RunEndToEnd(inputs, opts);
  for (const std::string& m : run.mismatches) {
    std::printf("MISMATCH %s\n", m.c_str());
  }
  if (run.attempted == 0) run.Mismatch("no operation was attempted");

  std::string json = "{\"correct\": ";
  json += run.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : run.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return run.correct ? 0 : 1;
}
