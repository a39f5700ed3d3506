// Benchmark program of the PACOR router. One process runs one workload for
// a fixed time, checks every output, and prints its metrics as the last
// line of standard output (see perfbench/README.md).
//
//   pacor_perfbench --workload <table1|serve-eco>
//                   --seed <n> --seconds <s> --trace <0|1> [--root <dir>]
//   pacor_perfbench --self-test [--root <dir>]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pacor_perfbench --workload <table1|serve-eco>\n"
               "                       --seed <n> --seconds <s> --trace <0|1> [--root <dir>]\n"
               "       pacor_perfbench --self-test [--root <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.start = perfbench::Clock::now();
  bool selfTest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--self-test") {
        selfTest = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = static_cast<std::uint32_t>(std::stoul(value));
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--root") args.root = value;
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  const bool oneShot = args.workload == "table1";
  if (!selfTest && ((!oneShot && args.workload != "serve-eco") || !(args.seconds > 0.0)))
    return usage();

  namespace fs = std::filesystem;
  args.outDir = args.root + "/.bench_out/run-" + std::to_string(::getpid());
  int rc = 0;
  try {
    fs::create_directories(args.outDir);
    if (selfTest) {
      rc = perfbench::runSelfTest(args);
    } else {
      perfbench::Report report;
      rc = oneShot ? perfbench::runOneShot(args, report) : perfbench::runServeEco(args, report);
      if (rc == 0) report.print(args.trace);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pacor_perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ignored;
  fs::remove_all(args.outDir, ignored);
  return rc;
}
