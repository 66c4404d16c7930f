// End-to-end HTAP freshness benchmark. One process runs one workload:
//
//   perfbench --workload <bus-live-sharded|ch-live-tcp>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--perturb <q6|scan|row>]
//
// It sets the workload up, measures for --seconds, checks every output
// against a reference computed apart from the program, and prints the metric
// table followed by one JSON line. --trace 1 adds the per-layer costs and
// writes per-epoch spans under --workdir. --perturb corrupts one observed
// output after the measured phase; the checks must then fail the run.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "live.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <bus-live-sharded|ch-live-tcp> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--perturb <q6|scan|row>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      long s = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || s < 1 || s > 120) return Usage("--seconds takes 1..120");
      args.seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--perturb") {
      if (value != "q6" && value != "scan" && value != "row") {
        return Usage("--perturb takes q6, scan or row");
      }
      args.perturb = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  std::filesystem::create_directories(args.workdir);
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  if (args.workload == "bus-live-sharded") return perfbench::RunBusLiveSharded(args);
  if (args.workload == "ch-live-tcp") return perfbench::RunChLiveTcp(args);
  return Usage("unknown workload");
}
