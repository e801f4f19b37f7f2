// Benchmark driver for the datalog_eq library.
//
// Each subcommand is one measured pass and runs in its own process, so
// the peak RSS it reports (VmHWM) belongs to that pass alone. run.py
// orchestrates the passes, compares their outputs and prints the result.
// Every subcommand prints exactly one JSON object on stdout.
//
//   context                                   host and build facts
//   setup      --workload W --corpus FILE     one set-up, timed
//   serial     --corpus FILE --out DIR --seed S    RunCorpusPipeline per instance
//   parallel   --corpus FILE --out DIR --threads N   one batch
//   verify     --corpus FILE --certs DIR      VerifyCorpus over DIR's files
//   trace      --corpus FILE --certs DIR --spans FILE   per-layer timing
//   eval-setup --seed S                       EDB generation, timed
//   eval-pass  --seed S --threads N --out FILE   EvaluateProgram per call
//   eval-trace --seed S --threads N --spans FILE
//
// `--scale tiny` shrinks every workload for the self-test.
//
// Only public entry points of the library are called; the layer timings
// of `trace` are taken from outside, around each call.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/containment/decider.h"
#include "src/containment/linear.h"
#include "src/containment/ucq_in_datalog.h"
#include "src/corpus/certificate.h"
#include "src/corpus/format.h"
#include "src/corpus/generate.h"
#include "src/corpus/naive.h"
#include "src/corpus/pipeline.h"
#include "src/corpus/verify.h"
#include "src/engine/eval.h"
#include "src/engine/random_db.h"
#include "src/generators/examples.h"
#include "src/trees/expansion_tree.h"

namespace {

using namespace datalog;          // NOLINT
using namespace datalog::corpus;  // NOLINT
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(2);
}

// ---- JSON output --------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Builds one flat JSON object in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Nums(const std::string& key, const std::vector<double>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) a += ",";
      a += JsonNumber(vs[i]);
    }
    return Raw(key, a + "]");
  }
  JsonObject& Strs(const std::string& key,
                   const std::vector<std::string>& vs) {
    std::string a = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) a += ",";
      a += JsonString(vs[i]);
    }
    return Raw(key, a + "]");
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonString(key) + ":" + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void Print(const JsonObject& o) {
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

/// Peak resident set size of this process, in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---- arguments ----------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) Die("bad argument " + key);
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  std::string GetOr(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  std::uint64_t Uint(const std::string& key) const {
    return std::stoull(Get(key));
  }
  bool Tiny() const { return GetOr("scale", "full") == "tiny"; }

 private:
  std::map<std::string, std::string> values_;
};

// ---- corpus workloads ---------------------------------------------------

struct CorpusWorkload {
  const char* name;
  int weight_tc;
  std::size_t count;       // instances in the measured corpus
  std::size_t tiny_count;  // instances under --scale tiny
};

// corpus-mix keeps the generator's default weights; corpus-nolinear turns
// the tc family off so the linear arm has no productive work.
constexpr CorpusWorkload kCorpusWorkloads[] = {
    {"corpus-mix", 30, 210, 24},
    {"corpus-nolinear", 0, 20000, 200},
};
// The reference pool the corpus composition is apportioned from.
constexpr std::uint64_t kCompositionSeed = 1;
constexpr std::size_t kPoolDraws = 40000;
constexpr std::size_t kTinyPoolDraws = 4000;

const CorpusWorkload& FindCorpusWorkload(const std::string& name) {
  for (const CorpusWorkload& w : kCorpusWorkloads) {
    if (name == w.name) return w;
  }
  Die("unknown corpus workload " + name);
}

/// The workload's corpus. The generator's instances fall into a few dozen
/// distinct variants whose costs differ by four orders of magnitude (one
/// tc variant, drawn 1 time in 80, costs ~50x the mean), so a plain draw
/// of a few hundred instances swings wall time by a third from seed to
/// seed, and even shares estimated from a large per-seed pool flip the
/// rounded copy counts of some variants. So the corpus is fixed:
/// GenerateCorpus draws a reference pool with a fixed seed, and every
/// distinct instance appears round(count * its pool share) times, in order
/// of first draw, copies adjacent: the generator's mix without sample
/// noise, and one 4-thread schedule. Ids are 0..n-1 in corpus order. (The
/// run's seed sets the serial pass's visit order; see VisitOrder.)
std::vector<CorpusInstance> BuildCorpus(const CorpusWorkload& w, bool tiny) {
  CorpusGenOptions options;
  options.seed = kCompositionSeed;
  options.count = tiny ? kTinyPoolDraws : kPoolDraws;
  options.weight_tc = w.weight_tc;
  std::vector<CorpusInstance> pool = GenerateCorpus(options);
  std::map<std::string, std::size_t> group_of;
  std::vector<std::size_t> first;  // pool index of each group's first draw
  std::vector<std::size_t> draws;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    CorpusInstance keyed = pool[i];
    keyed.id = 0;
    CorpusWriter writer;
    writer.Add(keyed);
    auto [it, fresh] = group_of.emplace(writer.Serialize(), first.size());
    if (fresh) {
      first.push_back(i);
      draws.push_back(0);
    }
    ++draws[it->second];
  }
  const std::size_t count = tiny ? w.tiny_count : w.count;
  std::vector<CorpusInstance> out;
  for (std::size_t g = 0; g < first.size(); ++g) {
    const std::size_t copies =
        (2 * count * draws[g] + pool.size()) / (2 * pool.size());
    for (std::size_t c = 0; c < copies; ++c) {
      CorpusInstance inst = pool[first[g]];
      inst.id = out.size();
      out.push_back(std::move(inst));
    }
  }
  return out;
}

std::vector<CorpusInstance> ReadCorpus(const std::string& path) {
  StatusOr<CorpusReader> reader = CorpusReader::Open(path);
  if (!reader.ok()) Die(reader.status().ToString());
  StatusOr<std::vector<CorpusInstance>> all = reader->DecodeAll();
  if (!all.ok()) Die(all.status().ToString());
  return std::move(*all);
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.flush();
  if (!file) Die("cannot write " + path);
}

std::string ReadText(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) Die("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

// The pipeline's stage order; certificate files are <dir>/<stage>.cert.
const std::vector<std::string>& StageNames() {
  static const std::vector<std::string> names = {"lint", "forward", "linear",
                                                 "unfold", "ptrees"};
  return names;
}

std::string CertPath(const std::string& dir, const std::string& stage) {
  return dir + "/" + stage + ".cert";
}

struct Tallies {
  std::size_t equivalent = 0, forward_only = 0, backward_only = 0,
              incomparable = 0, invalid = 0, timed_out = 0;
  void Add(const PipelineResult& r) {
    equivalent += r.equivalent;
    forward_only += r.forward_only;
    backward_only += r.backward_only;
    incomparable += r.incomparable;
    invalid += r.invalid;
    timed_out += r.timed_out;
  }
  std::string Json() const {
    return JsonObject()
        .Num("equivalent", equivalent)
        .Num("forward_only", forward_only)
        .Num("backward_only", backward_only)
        .Num("incomparable", incomparable)
        .Num("invalid", invalid)
        .Num("timed_out", timed_out)
        .str();
  }
};

/// Writes one certificate file per stage; returns the total bytes.
std::size_t WriteStageCerts(
    const std::string& dir,
    const std::map<std::string, std::vector<Certificate>>& by_stage) {
  std::size_t bytes = 0;
  for (const std::string& stage : StageNames()) {
    auto it = by_stage.find(stage);
    const std::string text = SerializeCertificates(
        it == by_stage.end() ? std::vector<Certificate>() : it->second);
    bytes += text.size();
    WriteText(CertPath(dir, stage), text);
  }
  return bytes;
}

void CheckStageNames(const PipelineResult& r) {
  for (const StageReport& stage : r.stages) {
    if (std::find(StageNames().begin(), StageNames().end(), stage.name) ==
        StageNames().end()) {
      Die("unexpected pipeline stage " + stage.name);
    }
  }
}

int CmdSetup(const Args& args) {
  const CorpusWorkload& w = FindCorpusWorkload(args.Get("workload"));
  const std::string path = args.Get("corpus");
  const Clock::time_point start = Clock::now();
  std::vector<CorpusInstance> instances = BuildCorpus(w, args.Tiny());
  CorpusWriter writer;
  for (const CorpusInstance& inst : instances) writer.Add(inst);
  Status written = writer.WriteFile(path);
  if (!written.ok()) Die(written.ToString());
  std::vector<CorpusInstance> decoded = ReadCorpus(path);
  const double seconds = MsSince(start) / 1000.0;
  if (decoded.size() != instances.size()) Die("corpus round trip lost rows");
  Print(JsonObject().Num("setup_s", seconds).Num("instances", decoded.size()));
  return 0;
}

/// The order a serial pass visits its n calls: a shuffle drawn from the
/// run's seed. Copies of one corpus instance (or calls of one eval case)
/// are then timed at moments spread over the pass, not back to back: the
/// speed of a shared host drifts over seconds, and a latency percentile
/// that sits inside one group of copies would otherwise sample one moment.
std::vector<std::size_t> VisitOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

int CmdSerial(const Args& args) {
  const std::vector<CorpusInstance> instances = ReadCorpus(args.Get("corpus"));
  PipelineOptions options;
  options.threads = 1;
  // Per instance: its stage reports, reassembled in instance order below.
  std::vector<std::vector<StageReport>> reports(instances.size());
  std::vector<double> latency_ms;
  std::vector<std::string> errors;
  Tallies tallies;
  std::size_t failed = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i : VisitOrder(instances.size(), args.Uint("seed"))) {
    const Clock::time_point t = Clock::now();
    StatusOr<PipelineResult> r = RunCorpusPipeline({instances[i]}, options);
    latency_ms.push_back(MsSince(t));
    if (!r.ok()) {
      ++failed;
      errors.push_back(r.status().ToString());
      continue;
    }
    failed += r->timed_out;
    tallies.Add(*r);
    CheckStageNames(*r);
    reports[i] = std::move(r->stages);
  }
  const double wall_s = MsSince(start) / 1000.0;
  std::map<std::string, std::vector<Certificate>> by_stage;
  for (std::vector<StageReport>& stages : reports) {
    for (StageReport& stage : stages) {
      for (Certificate& cert : stage.certificates) {
        by_stage[stage.name].push_back(std::move(cert));
      }
    }
  }
  const std::size_t bytes = WriteStageCerts(args.Get("out"), by_stage);
  Print(JsonObject()
            .Num("wall_s", wall_s)
            .Nums("latency_ms", latency_ms)
            .Raw("tallies", tallies.Json())
            .Num("attempted", instances.size())
            .Num("failed", failed)
            .Strs("errors", errors)
            .Num("cert_bytes", bytes)
            .Num("rss_mb", PeakRssMb()));
  return 0;
}

int CmdParallel(const Args& args) {
  const std::vector<CorpusInstance> instances = ReadCorpus(args.Get("corpus"));
  PipelineOptions options;
  options.threads = args.Uint("threads");
  const Clock::time_point start = Clock::now();
  StatusOr<PipelineResult> r = RunCorpusPipeline(instances, options);
  const double wall_s = MsSince(start) / 1000.0;
  JsonObject out;
  out.Num("wall_s", wall_s).Num("attempted", instances.size());
  std::map<std::string, std::vector<Certificate>> by_stage;
  Tallies tallies;
  if (r.ok()) {
    CheckStageNames(*r);
    tallies.Add(*r);
    for (StageReport& stage : r->stages) {
      by_stage[stage.name] = std::move(stage.certificates);
    }
    out.Num("failed", r->timed_out).Strs("errors", {});
  } else {
    // The batch answers for every instance at once.
    out.Num("failed", instances.size())
        .Strs("errors", {r.status().ToString()});
  }
  const std::size_t bytes = WriteStageCerts(args.Get("out"), by_stage);
  Print(out.Raw("tallies", tallies.Json())
            .Num("cert_bytes", bytes)
            .Num("rss_mb", PeakRssMb()));
  return 0;
}

StatusOr<std::vector<Certificate>> ReadStageCerts(const std::string& dir,
                                                  const std::string& stage) {
  return ParseCertificates(ReadText(CertPath(dir, stage)));
}

int CmdVerify(const Args& args) {
  const std::vector<CorpusInstance> instances = ReadCorpus(args.Get("corpus"));
  std::vector<Certificate> certs;
  JsonObject out;
  for (const std::string& stage : StageNames()) {
    StatusOr<std::vector<Certificate>> parsed =
        ReadStageCerts(args.Get("certs"), stage);
    if (!parsed.ok()) {
      Print(out.Bool("ok", false).Str(
          "message", stage + ": " + parsed.status().ToString()));
      return 0;
    }
    for (Certificate& c : *parsed) certs.push_back(std::move(c));
  }
  const StatusOr<VerifyReport> report = VerifyCorpus(instances, certs);
  out.Num("certificates", certs.size());
  if (!report.ok()) {
    Print(out.Bool("ok", false).Str("message", report.status().ToString()));
    return 0;
  }
  // Full coverage: every instance invalid, or decided in both directions.
  const std::size_t decided = instances.size() - report->invalid_instances;
  const bool ok = report->certificates_checked == certs.size() &&
                  report->timed_out_instances == 0 &&
                  report->forward_covered == decided &&
                  report->backward_covered == decided;
  Print(out.Bool("ok", ok).Str(
      "message",
      ok ? "" : "verifier report does not cover every instance"));
  return 0;
}

// ---- per-layer trace ----------------------------------------------------

struct EvalCase {
  const char* name;
  bool nonlinear;
  int domain;  // constants
  int edges;   // edge draws (with replacement)
};

// sparse: linear TC with long paths, so the parallel engine runs many
//   small-delta rounds; dense: linear TC with few wide rounds; nonlinear:
//   self-joins of p, on graphs well above the critical degree so that
//   the closure (and the cost) varies little between seeds. The three
//   cases' costs barely overlap (~3, ~15 and ~35 ms), so p50 falls inside
//   the nonlinear group and p95 inside the dense one. The nonlinear
//   graphs stay far below the engine's 50M-emission cap, which counts
//   duplicate emissions (see NOTES.md).
constexpr EvalCase kEvalCaseTable[] = {
    {"sparse", false, 400, 500},
    {"dense", false, 200, 1600},
    {"nonlinear", true, 60, 180},
};
constexpr int kEvalCalls = 67;  // per case; 201 calls in all
constexpr int kTinyEvalCalls = 3;

struct Unit {
  std::string name;
  const char* unit;
};

std::vector<Unit> TraceUnits(std::vector<Unit> units,
                             std::initializer_list<const char*> layers) {
  for (const char* layer : layers) {
    units.push_back({std::string("share.") + layer, "1"});
  }
  units.push_back({"trace.wall_s", "s"});
  units.push_back({"trace.pipeline_s", "s"});
  return units;
}

// The per-layer metrics of a corpus workload's traced pass, in output
// order (BENCHMARK.json lists the same). Each is printed, 0 if no call
// reached it.
std::vector<Unit> CorpusLayerUnits() {
  return TraceUnits(
      {
          {"lint.ms", "ms"},
          {"forward.ms", "ms"},
          {"forward.calls", "count"},
          {"forward.engine.join_probes", "count"},
          {"forward.engine.facts_derived", "count"},
          {"forward.engine.iterations", "count"},
          {"derive.ms", "ms"},
          {"derive.calls", "count"},
          {"linear.ms", "ms"},
          {"linear.ms_max", "ms"},
          {"linear.calls", "count"},
          {"linear.refuted", "count"},
          {"linear.bailed", "count"},
          {"linear.yield", "1"},
          {"linear.pairs_explored", "count"},
          {"linear.alphabet_size", "count"},
          {"linear.ptrees_states", "count"},
          {"unfold.ms", "ms"},
          {"unfold.trees", "count"},
          {"unfold.yield", "1"},
          {"decider.ms", "ms"},
          {"decider.calls", "count"},
          {"decider.states_discovered", "count"},
          {"decider.combine_calls", "count"},
          {"decider.memo_hits", "count"},
          {"decider.subset_checks", "count"},
          {"decider.antichain_prunes", "count"},
          {"verify.ms", "ms"},
          {"verify.certs", "count"},
          {"format.encode_ms", "ms"},
          {"format.decode_ms", "ms"},
          {"format.bytes", "bytes"},
          {"certificate.serialize_ms", "ms"},
      },
      {"lint", "forward", "derive", "linear", "unfold", "decider", "verify",
       "format", "certificate"});
}

// The per-layer metrics of the eval workload's traced pass, per case.
std::vector<Unit> EvalLayerUnits() {
  std::vector<Unit> units;
  for (const EvalCase& c : kEvalCaseTable) {
    for (const char* m :
         {"ms_serial", "ms_parallel", "iterations", "rounds_parallel",
          "ms_per_parallel_round", "join_probes", "index_probes",
          "tuples_staged", "merge_collisions", "plans_rebuilt"}) {
      const std::string name = std::string("engine.") + c.name + "." + m;
      units.push_back({name, name.find(".ms_") != std::string::npos
                                 ? "ms"
                                 : "count"});
    }
  }
  return TraceUnits(std::move(units), {"engine"});
}

/// Accumulates per-layer values and the span log of a traced pass.
class Trace {
 public:
  Trace(const std::string& spans_path, std::vector<Unit> units)
      : spans_(spans_path, std::ios::trunc),
        origin_(Clock::now()),
        units_(std::move(units)) {
    if (!spans_) Die("cannot write " + spans_path);
    spans_ << "request\tlayer\tstart_ns\tend_ns\tparent\n";
  }

  /// Times `fn`, adds the duration to `metric` and to `layer`'s share,
  /// and logs it as a span of `layer` under the request's root span.
  template <typename Fn>
  auto Time(const std::string& request, const std::string& layer,
            const std::string& metric, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    const Clock::time_point end = Clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    values_[metric] += ms;
    layer_ms_[layer] += ms;
    last_ms_ = ms;
    Span(request, layer, start, end, "request");
    return result;
  }

  /// Logs one span; a request's root span has layer "request", parent "-".
  void Span(const std::string& request, const std::string& layer,
            Clock::time_point start, Clock::time_point end,
            const std::string& parent) {
    spans_ << request << '\t' << layer << '\t' << Ns(start) << '\t'
           << Ns(end) << '\t' << parent << '\n';
  }

  double last_ms() const { return last_ms_; }
  double& operator[](const std::string& metric) { return values_[metric]; }

  /// Prints every per-layer metric; `wall_s` is the traced pass's wall.
  void Emit(double wall_s, double pipeline_s) {
    for (const auto& [layer, ms] : layer_ms_) {
      values_["share." + layer] = ms / (wall_s * 1000.0);
    }
    values_["trace.wall_s"] = wall_s;
    values_["trace.pipeline_s"] = pipeline_s;
    JsonObject metrics;
    for (const Unit& u : units_) {
      auto it = values_.find(u.name);
      metrics.Raw(u.name,
                  JsonObject()
                      .Num("value", it == values_.end() ? 0.0 : it->second)
                      .Str("unit", u.unit)
                      .str());
    }
    spans_.flush();
    if (!spans_) Die("span log write failed");
    Print(JsonObject()
              .Bool("ok", mismatches_.empty())
              .Strs("mismatches", mismatches_)
              .Num("failed", failed_)
              .Raw("metrics", metrics.str()));
  }

  void Mismatch(const std::string& what) { mismatches_.push_back(what); }
  void Failed() { ++failed_; }

 private:
  long long Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  std::ofstream spans_;
  Clock::time_point origin_;
  std::vector<Unit> units_;
  std::map<std::string, double> values_;
  std::map<std::string, double> layer_ms_;
  std::vector<std::string> mismatches_;
  std::size_t failed_ = 0;
  double last_ms_ = 0;
};

/// Re-issues one instance's pipeline work as the public calls each stage
/// makes, routed by the certificates an untraced pass produced for it.
void TraceInstance(const CorpusInstance& inst,
                   const std::map<std::string, std::vector<Certificate>>& certs,
                   const PipelineOptions& defaults, Trace* trace) {
  const std::string id = std::to_string(inst.id);
  auto has = [&certs](const std::string& stage) {
    return certs.count(stage) != 0;
  };
  auto mismatch = [&](const std::string& what) {
    trace->Mismatch("instance " + id + ": " + what);
  };

  trace->Time(id, "lint", "lint.ms",
              [&] { return LintProgram(inst.program, inst.goal); });
  if (has("lint")) return;
  if (!has("forward") || certs.at("forward").size() != 1) {
    mismatch("expected one forward certificate");
    return;
  }

  // forward: canonical-database checks, then the naive derivations.
  const Certificate& fwd = certs.at("forward").front();
  const bool contained = fwd.kind == CertificateKind::kForwardContained;
  const std::size_t disjuncts = inst.theta.disjuncts().size();
  const std::size_t checked = contained ? disjuncts : fwd.failing_disjunct + 1;
  CanonicalDbOptions db_opts;
  db_opts.eval.num_threads = 1;
  EvalStats eval_stats;
  for (std::size_t d = 0; d < checked; ++d) {
    StatusOr<bool> in = trace->Time(id, "forward", "forward.ms", [&] {
      return IsUcqDisjunctContainedInDatalog(inst.theta, d, inst.program,
                                             inst.goal, &eval_stats, db_opts);
    });
    (*trace)["forward.calls"] += 1;
    if (!in.ok()) {
      trace->Failed();
      return;
    }
    if (*in != (contained || d < fwd.failing_disjunct)) {
      mismatch("forward verdict differs from its certificate");
    }
  }
  std::vector<std::size_t> derive;
  if (contained) {
    for (std::size_t d = 0; d < disjuncts; ++d) derive.push_back(d);
  } else {
    CanonicalDbWitness witness;
    CanonicalDbOptions witness_opts = db_opts;
    witness_opts.witness = &witness;
    StatusOr<bool> again = trace->Time(id, "forward", "forward.ms", [&] {
      return IsUcqDisjunctContainedInDatalog(inst.theta, fwd.failing_disjunct,
                                             inst.program, inst.goal,
                                             &eval_stats, witness_opts);
    });
    (*trace)["forward.calls"] += 1;
    if (!again.ok()) trace->Failed();
    derive.push_back(fwd.failing_disjunct);
  }
  (*trace)["forward.engine.join_probes"] += eval_stats.join_probes;
  (*trace)["forward.engine.facts_derived"] += eval_stats.facts_derived;
  (*trace)["forward.engine.iterations"] += eval_stats.iterations;
  for (std::size_t d : derive) {
    NaiveFrozenCq frozen = NaiveFreezeCq(inst.goal, inst.theta.disjuncts()[d]);
    auto steps = trace->Time(id, "derive", "derive.ms", [&] {
      return FindDerivation(inst.program, frozen.facts, frozen.goal_atom,
                            defaults.naive_max_facts);
    });
    (*trace)["derive.calls"] += 1;
    if (!steps.ok()) trace->Failed();
  }

  // linear: recursive programs only, as the stage itself decides.
  const bool recursive = IsRecursiveNaive(inst.program);
  if (recursive) {
    LinearContainmentOptions lopts;
    lopts.limits = ExecutionLimits()
                       .WithMaxStates(defaults.linear_max_states)
                       .WithMaxLabels(defaults.linear_max_labels);
    auto result = trace->Time(id, "linear", "linear.ms", [&] {
      return DecideLinearDatalogInUcq(inst.program, inst.goal, inst.theta,
                                      lopts);
    });
    (*trace)["linear.calls"] += 1;
    (*trace)["linear.ms_max"] =
        std::max((*trace)["linear.ms_max"], trace->last_ms());
    bool refuted = false;
    if (result.ok()) {
      refuted = !result->contained;
      (*trace)["linear.pairs_explored"] += result->pairs_explored;
      (*trace)["linear.alphabet_size"] += result->alphabet_size;
      (*trace)["linear.ptrees_states"] += result->ptrees_states;
    } else if (result.status().code() == StatusCode::kInvalidArgument ||
               result.status().code() == StatusCode::kResourceExhausted) {
      (*trace)["linear.bailed"] += 1;
    } else {
      trace->Failed();
    }
    if (refuted) (*trace)["linear.refuted"] += 1;
    if (refuted != has("linear")) {
      mismatch("linear verdict differs from the linear stage's certificate");
    }
  }
  if (has("linear")) return;

  // unfold: complete enumeration (nonrecursive) or a shallow probe.
  const int depth =
      recursive ? kRecursiveRefutationDepth
                : static_cast<int>(inst.program.IdbPredicates().size()) + 1;
  trace->Time(id, "unfold", "unfold.ms", [&] {
    StatusOr<ExpansionEnumeration> e = EnumerateExpansionsNaive(
        inst.program, inst.goal, depth, kExpansionNodeBudget);
    if (!e.ok()) return 0;
    (*trace)["unfold.trees"] += e->trees.size();
    for (const ExpansionTree& tree : e->trees) {
      if (!UcqCoversCq(inst.theta, TreeToCq(inst.program, tree))) break;
    }
    return 0;
  });
  (*trace)["unfold.calls"] += 1;
  if (has("unfold")) {
    (*trace)["unfold.resolved"] += 1;
    return;
  }

  // ptrees: the full decider, as configured by the pipeline.
  ContainmentOptions copts;
  copts.track_witness = true;
  copts.export_trace = true;
  copts.limits = ExecutionLimits().WithMaxStates(defaults.decider_max_states);
  auto decision = trace->Time(id, "decider", "decider.ms", [&] {
    return DecideDatalogInUcq(inst.program, inst.goal, inst.theta, copts);
  });
  (*trace)["decider.calls"] += 1;
  if (!decision.ok()) {
    trace->Failed();
    return;
  }
  const ContainmentStats& s = decision->stats;
  (*trace)["decider.states_discovered"] += s.states_discovered;
  (*trace)["decider.combine_calls"] += s.combine_calls;
  (*trace)["decider.memo_hits"] += s.memo_hits;
  (*trace)["decider.subset_checks"] += s.subset_checks;
  (*trace)["decider.antichain_prunes"] += s.antichain_prunes;
  if (!has("ptrees")) mismatch("no certificate from the ptrees stage");
}

int CmdTrace(const Args& args) {
  const std::vector<CorpusInstance> instances = ReadCorpus(args.Get("corpus"));
  // Per instance: stage -> its certificates from the untraced pass.
  std::map<std::uint64_t, std::map<std::string, std::vector<Certificate>>>
      routed;
  for (const std::string& stage : StageNames()) {
    StatusOr<std::vector<Certificate>> parsed =
        ReadStageCerts(args.Get("certs"), stage);
    if (!parsed.ok()) Die(stage + ": " + parsed.status().ToString());
    for (Certificate& c : *parsed) {
      routed[c.instance_id][stage].push_back(std::move(c));
    }
  }
  const PipelineOptions defaults;
  Trace trace(args.Get("spans"), CorpusLayerUnits());
  double pipeline_ms = 0;
  const Clock::time_point start = Clock::now();
  for (const CorpusInstance& inst : instances) {
    const std::string id = std::to_string(inst.id);
    const auto& certs = routed[inst.id];
    const Clock::time_point t = Clock::now();
    TraceInstance(inst, certs, defaults, &trace);
    pipeline_ms += MsSince(t);

    std::vector<Certificate> mine;
    for (const std::string& stage : StageNames()) {
      auto it = certs.find(stage);
      if (it == certs.end()) continue;
      mine.insert(mine.end(), it->second.begin(), it->second.end());
    }
    auto verified = trace.Time(id, "verify", "verify.ms",
                               [&] { return VerifyCorpus({inst}, mine); });
    trace["verify.certs"] += mine.size();
    if (!verified.ok()) trace.Mismatch(verified.status().ToString());
    std::string bytes = trace.Time(id, "format", "format.encode_ms", [&] {
      CorpusWriter writer;
      writer.Add(inst);
      return writer.Serialize();
    });
    trace["format.bytes"] += bytes.size();
    auto decoded = trace.Time(id, "format", "format.decode_ms", [&] {
      StatusOr<CorpusReader> reader = CorpusReader::FromBytes(bytes);
      return reader.ok() ? reader->Decode(0)
                         : StatusOr<CorpusInstance>(reader.status());
    });
    if (!decoded.ok()) trace.Mismatch(decoded.status().ToString());
    trace.Time(id, "certificate", "certificate.serialize_ms",
               [&] { return SerializeCertificates(mine); });
    trace.Span(id, "request", t, Clock::now(), "-");
  }
  const double wall_s = MsSince(start) / 1000.0;
  const double calls = trace["linear.calls"];
  trace["linear.yield"] = calls > 0 ? trace["linear.refuted"] / calls : 0;
  const double unfolds = trace["unfold.calls"];
  trace["unfold.yield"] =
      unfolds > 0 ? trace["unfold.resolved"] / unfolds : 0;
  trace.Emit(wall_s, pipeline_ms / 1000.0);
  return 0;
}

// ---- eval workload ------------------------------------------------------

Program EvalProgram(const EvalCase& c) {
  return c.nonlinear ? NonlinearTransitiveClosureProgram()
                     : TransitiveClosureProgram("e", "e");
}

/// The EDB of call `i` of case `c`: a seeded random graph.
Database EvalEdb(const Program& program, std::size_t c, int i,
                 std::uint64_t seed) {
  // SplitMix64 over (seed, case, call) so every call gets its own graph.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + c * 1000003ull +
                    static_cast<std::uint64_t>(i) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  RandomDbOptions options;
  options.domain_size = kEvalCaseTable[c].domain;
  options.tuples_per_relation = kEvalCaseTable[c].edges;
  options.seed = z ^ (z >> 31);
  return RandomDatabaseFor(program, options);
}

int EvalCalls(const Args& args) {
  return args.Tiny() ? kTinyEvalCalls : kEvalCalls;
}

int CmdEvalSetup(const Args& args) {
  const std::uint64_t seed = args.Uint("seed");
  const Clock::time_point start = Clock::now();
  std::size_t facts = 0;
  for (std::size_t c = 0; c < std::size(kEvalCaseTable); ++c) {
    const Program program = EvalProgram(kEvalCaseTable[c]);
    for (int i = 0; i < EvalCalls(args); ++i) {
      facts += EvalEdb(program, c, i, seed).TotalFacts();
    }
  }
  const double seconds = MsSince(start) / 1000.0;
  Print(JsonObject().Num("setup_s", seconds).Num("edb_facts", facts));
  return 0;
}

/// The transitive closure of `db`'s binary relation e, by BFS from every
/// node, as flat (x, y) pairs: the reference fixpoint p the engine's
/// output is checked against.
std::vector<int> ClosureOfE(const Database& db) {
  const Relation& e = db.GetRelation("e", 2);
  std::vector<std::vector<int>> succ(db.dictionary().size());
  for (std::size_t r = 0; r < e.size(); ++r) {
    const int* row = e.RowData(r);
    succ[row[0]].push_back(row[1]);
  }
  std::vector<int> closure;
  std::vector<int> seen(succ.size(), -1);
  std::vector<int> frontier;
  for (int x = 0; x < static_cast<int>(succ.size()); ++x) {
    frontier.assign(1, x);
    while (!frontier.empty()) {
      const int u = frontier.back();
      frontier.pop_back();
      for (int v : succ[u]) {
        if (seen[v] == x) continue;
        seen[v] = x;
        closure.push_back(x);
        closure.push_back(v);
        frontier.push_back(v);
      }
    }
  }
  return closure;
}

/// An order-independent digest of a binary relation's rows (the 1-thread
/// and N-thread engines insert rows in different orders).
std::uint64_t RowSetDigest(const Relation& r) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    const int* row = r.RowData(i);
    std::uint64_t z = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                           row[0])) << 32) |
                      static_cast<std::uint32_t>(row[1]);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    sum += z ^ (z >> 31);
  }
  return sum;
}

int CmdEvalPass(const Args& args) {
  const std::uint64_t seed = args.Uint("seed");
  EvalOptions options;
  options.num_threads = static_cast<int>(args.Uint("threads"));
  std::vector<double> latency_ms;
  std::vector<std::string> errors;
  std::string digests;
  std::size_t failed = 0, attempted = 0, output_bytes = 0, mismatched = 0;
  std::vector<Program> programs;
  std::vector<std::pair<std::size_t, int>> calls;  // (case, call)
  for (std::size_t c = 0; c < std::size(kEvalCaseTable); ++c) {
    programs.push_back(EvalProgram(kEvalCaseTable[c]));
    for (int i = 0; i < EvalCalls(args); ++i) calls.emplace_back(c, i);
  }
  std::vector<std::string> digest_of(calls.size());
  for (std::size_t k : VisitOrder(calls.size(), seed)) {
    const auto [c, i] = calls[k];
    const Database edb = EvalEdb(programs[c], c, i, seed);
    ++attempted;
    const Clock::time_point t = Clock::now();
    StatusOr<Database> db = EvaluateProgram(programs[c], edb, options);
    latency_ms.push_back(MsSince(t));
    if (!db.ok()) {
      ++failed;
      errors.push_back(db.status().ToString());
      continue;
    }
    // Output: p's rows, digested so the 1-thread and N-thread passes can
    // be compared without keeping them.
    const Relation& p = db->GetRelation("p", 2);
    output_bytes += p.size() * p.arity() * sizeof(int);
    digest_of[k] = std::string(kEvalCaseTable[c].name) + " " +
                   std::to_string(i) + " " + std::to_string(p.size()) + " " +
                   std::to_string(RowSetDigest(p)) + "\n";
    // Check: p equals the BFS closure, probed through the Relation API.
    const std::vector<int> closure = ClosureOfE(*db);
    bool equal = 2 * p.size() == closure.size();
    for (std::size_t j = 0; equal && j < closure.size(); j += 2) {
      equal = p.ContainsRow(&closure[j]);
    }
    if (!equal) ++mismatched;
  }
  for (const std::string& d : digest_of) digests += d;
  WriteText(args.Get("out"), digests);
  double wall_ms = 0;
  for (double ms : latency_ms) wall_ms += ms;
  Print(JsonObject()
            .Num("wall_s", wall_ms / 1000.0)
            .Nums("latency_ms", latency_ms)
            .Num("attempted", attempted)
            .Num("failed", failed)
            .Strs("errors", errors)
            .Num("mismatched", mismatched)
            .Num("output_bytes", output_bytes)
            .Num("rss_mb", PeakRssMb()));
  return 0;
}

int CmdEvalTrace(const Args& args) {
  const std::uint64_t seed = args.Uint("seed");
  const int threads = static_cast<int>(args.Uint("threads"));
  Trace trace(args.Get("spans"), EvalLayerUnits());
  double serial_ms = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < std::size(kEvalCaseTable); ++c) {
    const std::string name =
        std::string("engine.") + kEvalCaseTable[c].name + ".";
    const Program program = EvalProgram(kEvalCaseTable[c]);
    for (int i = 0; i < EvalCalls(args); ++i) {
      const Database edb = EvalEdb(program, c, i, seed);
      const std::string id = std::string(kEvalCaseTable[c].name) + "/" +
                             std::to_string(i);
      const Clock::time_point request_start = Clock::now();
      for (int t : {1, threads}) {
        EvalOptions options;
        options.num_threads = t;
        EvalStats stats;
        const std::string pass = t == 1 ? "ms_serial" : "ms_parallel";
        auto db = trace.Time(id, "engine", name + pass, [&] {
          return EvaluateProgram(program, edb, options, &stats);
        });
        if (!db.ok()) trace.Failed();
        if (t == 1) {
          serial_ms += trace.last_ms();
          trace[name + "iterations"] += stats.iterations;
          trace[name + "join_probes"] += stats.join_probes;
          trace[name + "index_probes"] += stats.index_probes;
          trace[name + "plans_rebuilt"] += stats.plans_rebuilt;
        } else {
          trace[name + "rounds_parallel"] += stats.rounds_parallel;
          trace[name + "tuples_staged"] += stats.tuples_staged;
          trace[name + "merge_collisions"] += stats.merge_collisions;
        }
      }
      trace.Span(id, "request", request_start, Clock::now(), "-");
    }
    const double rounds = trace[name + "rounds_parallel"];
    trace[name + "ms_per_parallel_round"] =
        rounds > 0 ? trace[name + "ms_parallel"] / rounds : 0;
  }
  trace.Emit(MsSince(start) / 1000.0, serial_ms / 1000.0);
  return 0;
}

// ---- host context -------------------------------------------------------

int CmdContext(const Args&) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  Print(JsonObject()
            .Num("hardware_concurrency", std::thread::hardware_concurrency())
            .Str("cpu_model", cpu)
            .Str("build_type", PERFBENCH_BUILD_TYPE)
            .Str("compiler", PERFBENCH_COMPILER));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_driver <subcommand> [--key value]...");
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (cmd == "context") return CmdContext(args);
  if (cmd == "setup") return CmdSetup(args);
  if (cmd == "serial") return CmdSerial(args);
  if (cmd == "parallel") return CmdParallel(args);
  if (cmd == "verify") return CmdVerify(args);
  if (cmd == "trace") return CmdTrace(args);
  if (cmd == "eval-setup") return CmdEvalSetup(args);
  if (cmd == "eval-pass") return CmdEvalPass(args);
  if (cmd == "eval-trace") return CmdEvalTrace(args);
  Die("unknown subcommand " + cmd);
}
