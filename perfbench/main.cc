// perfbench: the repository benchmark's measuring binary. run.py builds it,
// prepares the seeded inputs with `prep`, runs one workload per process and
// turns the JSON line each command prints into the benchmark's result.
//
//   perfbench prep --seed N --triples T --nt out.nt [--image out.rsb]
//   perfbench ingest --nt in.nt --work DIR --seconds S [--trace 0|1]
//   perfbench serve_lookup|serve_mixed --image in.rsb --input-bytes B
//             --seed N --seconds S [--trace 0|1]
//   common: [--trace-out spans.csv] [--inject-wrong-answer]
//
// The last line of standard output is the workload's result as JSON; the
// exit code is 0 when every attempt succeeded with a correct answer.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prep|ingest|serve_lookup|serve_mixed "
               "[--seed N] [--triples T] [--nt PATH] [--image PATH] "
               "[--work DIR] [--seconds S] [--input-bytes B] [--trace 0|1] "
               "[--trace-out PATH] [--inject-wrong-answer]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string_view cmd = argv[1];
  perfbench::Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--inject-wrong-answer") {
      opt.inject_wrong_answer = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--triples") {
      opt.triples = std::strtoull(value, nullptr, 10);
    } else if (flag == "--nt") {
      opt.nt = value;
    } else if (flag == "--image") {
      opt.image = value;
    } else if (flag == "--work") {
      opt.work = value;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--input-bytes") {
      opt.input_bytes = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage();
    }
  }

  perfbench::Result r;
  if (cmd == "prep" && !opt.nt.empty()) {
    r = perfbench::Prep(opt);
  } else if (cmd == "ingest" && !opt.nt.empty() && !opt.work.empty()) {
    r = perfbench::RunIngest(opt);
  } else if ((cmd == "serve_lookup" || cmd == "serve_mixed") &&
             !opt.image.empty() && opt.input_bytes > 0) {
    r = perfbench::RunServe(opt, cmd == "serve_mixed");
  } else {
    return Usage();
  }
  std::printf("%s\n", r.ToJson().c_str());
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
