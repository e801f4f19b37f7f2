// corpus_run: run the staged decider pipeline (src/corpus/pipeline.h)
// over a binary corpus and write one certificate file per stage.
//
// Usage: corpus_run --corpus=FILE --out-dir=DIR [--threads=N]
//                   [--deadline-ms=MS] [--max-steps=N]
//                   [--instance-deadline-ms=MS]
//
// Writes DIR/stage-<name>.certs (lint, forward, linear, unfold,
// ptrees; a stage that emitted nothing still writes its header-only
// file) and prints per-stage entered/decided/holdout counts plus the
// corpus-wide verdict-class tallies. The outputs are deterministic for
// a fixed corpus regardless of --threads.
//
// --deadline-ms bounds the whole run on the wall clock. --max-steps is
// inherited by every governed procedure the pipeline spawns (each
// instance's engine/decider run charges its own counter against it), so
// it caps the largest single unit of work, not the run's total.
// --instance-deadline-ms bounds each instance, and an instance that
// exceeds it leaves the pipeline with a `timeout` certificate instead
// of aborting the run.
//
// Exit status:
//   0  success, no instance timed out
//   1  pipeline error (engine failure or stage disagreement)
//   2  usage or I/O failure (an --out-dir that is not an existing,
//      writable directory fails here, before the corpus is opened)
//   3  success, but at least one instance timed out
//   4  run cancelled (kCancelled)
//   5  run-wide deadline or step budget exhausted (kDeadlineExceeded /
//      kResourceExhausted from the run-wide governor)
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "src/corpus/certificate.h"
#include "src/corpus/format.h"
#include "src/corpus/pipeline.h"
#include "src/util/status.h"

namespace {

int Usage() {
  std::cerr << "usage: corpus_run --corpus=FILE --out-dir=DIR [--threads=N]\n"
            << "                  [--deadline-ms=MS] [--max-steps=N]\n"
            << "                  [--instance-deadline-ms=MS]\n";
  return 2;
}

bool ParseU64(const std::string& arg, std::size_t prefix,
              std::uint64_t* value) {
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(arg.c_str() + prefix, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *value = static_cast<std::uint64_t>(parsed);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_path;
  std::string out_dir;
  datalog::corpus::PipelineOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::uint64_t value = 0;
    if (arg.rfind("--corpus=", 0) == 0) {
      corpus_path = arg.substr(9);
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseU64(arg, 10, &value)) return Usage();
      options.threads = static_cast<std::size_t>(value);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseU64(arg, 14, &value)) return Usage();
      options.limits =
          options.limits.WithDeadlineIn(static_cast<std::int64_t>(value));
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      if (!ParseU64(arg, 12, &value)) return Usage();
      options.limits = options.limits.WithMaxSteps(value);
    } else if (arg.rfind("--instance-deadline-ms=", 0) == 0) {
      if (!ParseU64(arg, 23, &value)) return Usage();
      options.instance_deadline_ms = value;
    } else {
      return Usage();
    }
  }
  if (corpus_path.empty() || out_dir.empty()) return Usage();
  // Checked before any work: the certificates are written only after the
  // whole run, which an unusable directory would throw away.
  struct stat out_stat;
  if (stat(out_dir.c_str(), &out_stat) != 0 || !S_ISDIR(out_stat.st_mode) ||
      access(out_dir.c_str(), W_OK | X_OK) != 0) {
    std::cerr << "corpus_run: --out-dir " << out_dir
              << " is not an existing, writable directory\n";
    return 2;
  }

  datalog::StatusOr<datalog::corpus::CorpusReader> reader =
      datalog::corpus::CorpusReader::Open(corpus_path);
  if (!reader.ok()) {
    std::cerr << "corpus_run: " << reader.status().ToString() << "\n";
    return 2;
  }
  datalog::StatusOr<std::vector<datalog::corpus::CorpusInstance>> instances =
      reader->DecodeAll();
  if (!instances.ok()) {
    std::cerr << "corpus_run: " << instances.status().ToString() << "\n";
    return 2;
  }

  datalog::StatusOr<datalog::corpus::PipelineResult> result =
      datalog::corpus::RunCorpusPipeline(*instances, options);
  if (!result.ok()) {
    std::cerr << "corpus_run: " << result.status().ToString() << "\n";
    switch (result.status().code()) {
      case datalog::StatusCode::kCancelled:
        return 4;
      case datalog::StatusCode::kDeadlineExceeded:
      case datalog::StatusCode::kResourceExhausted:
        return 5;
      default:
        return 1;
    }
  }

  for (const datalog::corpus::StageReport& stage : result->stages) {
    const std::string path = out_dir + "/stage-" + stage.name + ".certs";
    std::ofstream file(path, std::ios::binary);
    if (!file) {
      std::cerr << "corpus_run: cannot write " << path << "\n";
      return 2;
    }
    file << datalog::corpus::SerializeCertificates(stage.certificates);
    if (!file.flush()) {
      std::cerr << "corpus_run: write failed for " << path << "\n";
      return 2;
    }
    std::cout << "stage " << stage.name << ": entered=" << stage.entered
              << " decided=" << stage.decided
              << " holdout=" << stage.holdout
              << " certificates=" << stage.certificates.size() << "\n";
  }
  std::cout << "verdicts: equivalent=" << result->equivalent
            << " forward-only=" << result->forward_only
            << " backward-only=" << result->backward_only
            << " incomparable=" << result->incomparable
            << " invalid=" << result->invalid
            << " timed-out=" << result->timed_out << "\n";
  return result->timed_out > 0 ? 3 : 0;
}
