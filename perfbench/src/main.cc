// The repo benchmark binary: runs one named workload at one seed and prints
// the result as the last line of standard output.
//
//   perfbench_metis --workload flat_scan --seed 1 --seconds 30 --trace 0
//
// --trace 0 (timed run): builds the dataset and serves the workload's
// sub-streams on it (the sim-clock metrics are medians over them), then
// rebuilds and re-serves sub-stream 0 until --seconds is spent (at least
// once), each repeat bit-identical to the first. setup_s and serve_qps are
// medians over every build and every serve.
// --trace 1 (traced run): one untraced and one traced serve, then a
// per-query replay that times every layer from outside; reports the
// per-layer metrics and writes the spans to --trace-out as JSON lines.
// --fingerprint prints the host facts the recorded results carry.
//
// Exit code 1 when any correctness check fails (the result line then says
// "correct": false), 2 on bad arguments.

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/report.h"
#include "perfbench/src/serve.h"
#include "perfbench/src/trace.h"
#include "perfbench/src/workloads.h"
#include "src/vectordb/kernels.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 30;
  bool trace = false;
  std::string trace_out;
  bool fingerprint = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--fingerprint") {
      a->fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      a->has_seed = true;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(), v);
      return false;
    }
  }
  return a->fingerprint || (!a->workload.empty() && a->has_seed && a->seconds > 0);
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

template <typename T>
void Append(std::vector<T>* into, const std::vector<T>& more) {
  into->insert(into->end(), more.begin(), more.end());
}

// Pins the calling thread to one CPU for its lifetime, then restores the
// thread's affinity. A serve is single-threaded and on a shared host the CPUs
// differ in speed (busy neighbours on the same core or cache); serve k of a
// run goes to allowed CPU k mod n, so every run samples every CPU alike
// instead of wherever the scheduler happened to park it.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(size_t k) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        cpus.push_back(c);
      }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[k % cpus.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToCpu() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Builds a fresh dataset, timing the build.
std::unique_ptr<metis::Dataset> TimedBuild(const Workload& w, std::vector<double>* setup_s) {
  auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<metis::Dataset> ds = BuildDataset(w);
  setup_s->push_back(SecondsSince(t0));
  return ds;
}

// Serves `w` on `ds` pinned to CPU slot `slot` (see PinnedToCpu) and checks
// the result.
ServeResult CheckedServe(const Workload& w, metis::Dataset& ds, size_t slot, Tracer* tracer,
                         std::vector<std::string>* failures, uint64_t* attempted) {
  std::vector<IngestOp> ops = MakeIngestOps(w);
  ServeResult r;
  {
    PinnedToCpu pin(slot);
    r = Serve(w, ds, ops, tracer);
  }
  *attempted += r.offered + r.ops_issued;
  Append(failures, CheckServe(w, ops, r));
  Append(failures, SpotCheckRetrieval(ds, r, 16));
  return r;
}

void PrintSamples(const char* label, const std::vector<double>& samples) {
  std::printf("%s", label);
  for (double s : samples) {
    std::printf(" %.4f", s);
  }
  std::printf("\n");
}

int Finish(const std::vector<std::string>& failures, uint64_t attempted, const Metrics& metrics) {
  for (const std::string& f : failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(failures.empty(), attempted, failures.size(), metrics).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

int RunTimed(const Workload& w, const Args& args) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> setup_s, serve_s, first_fp;
  std::vector<std::string> failures;
  std::vector<Metrics> sims;
  uint64_t attempted = 0;
  // Every sub-stream once, one after another on one dataset: the sim-clock
  // metrics are their medians.
  std::unique_ptr<metis::Dataset> ds = TimedBuild(w, &setup_s);
  for (int i = 0; i < w.substreams; ++i) {
    ServeResult r = CheckedServe(Substream(w, i), *ds, serve_s.size(), nullptr, &failures,
                                 &attempted);
    serve_s.push_back(r.wall_s);
    sims.push_back(SimMetrics(Summarize(w, r)));
    if (i == 0) {
      first_fp = SimFingerprint(r);
    }
  }
  ds.reset();
  // Then rebuild and re-serve sub-stream 0 until --seconds is spent: more
  // set-up and serve samples, each repeat bit-identical to the first.
  const auto repeats_start = std::chrono::steady_clock::now();
  for (int rep = 1;; ++rep) {
    ds = TimedBuild(w, &setup_s);
    ServeResult r = CheckedServe(w, *ds, serve_s.size(), nullptr, &failures, &attempted);
    serve_s.push_back(r.wall_s);
    if (SimFingerprint(r) != first_fp) {
      failures.push_back("sim-clock metrics differ between repeats of one stream");
    }
    ds.reset();
    double per_repeat = SecondsSince(repeats_start) / rep;
    if (SecondsSince(start) + per_repeat > args.seconds) {
      break;
    }
  }
  // The first build of a process also pays its heap's first-touch page
  // faults; with three builds the median leaves that one out.
  while (setup_s.size() < 3) {
    TimedBuild(w, &setup_s);
  }
  std::vector<double> qps;
  for (double s : serve_s) {
    qps.push_back(static_cast<double>(w.spec.num_queries) / s);
  }
  std::printf("workload %s seed %llu: %d sub-streams, %zu set-ups, %zu serves of %d queries\n",
              w.name.c_str(), static_cast<unsigned long long>(w.spec.seed), w.substreams,
              setup_s.size(), serve_s.size(), w.spec.num_queries);
  PrintSamples("set-up s:", setup_s);
  PrintSamples("serve s: ", serve_s);
  Metrics metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"serve_qps", Median(qps), "queries/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  Append(&metrics, MedianMetrics(sims));
  return Finish(failures, attempted, metrics);
}

int RunTraced(const Workload& w, const Args& args) {
  std::vector<double> setup_s;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  // Both serves on the same CPU, so their difference is the tracing.
  std::unique_ptr<metis::Dataset> ds = TimedBuild(w, &setup_s);
  ServeResult untraced = CheckedServe(w, *ds, 0, nullptr, &failures, &attempted);
  ds.reset();

  ds = TimedBuild(w, &setup_s);
  SetupLayers layers = TimeSetupLayers(w, *ds);
  layers.generate_s = setup_s;
  Tracer tracer;
  ServeResult traced = CheckedServe(w, *ds, 0, &tracer, &failures, &attempted);
  if (SimFingerprint(traced) != SimFingerprint(untraced)) {
    failures.push_back("sim-clock metrics differ between the traced and the untraced serve");
  }
  Replay replay = ReplayQueries(w, *ds, traced, tracer);
  Append(&failures, replay.failures);
  if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
    failures.push_back("cannot write " + args.trace_out);
  }
  Metrics metrics = PerLayerMetrics(w, traced, replay, layers, tracer, untraced.wall_s);
  return Finish(failures, attempted, metrics);
}

int PrintFingerprint() {
  std::printf("{\"nproc\": %u, \"kernel_target\": \"%s\", \"fast_math\": %s}\n",
              std::thread::hardware_concurrency(),
              metis::KernelTargetName(metis::ActiveKernelTarget()),
              metis::KernelFastMathEnabled() ? "true" : "false");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_metis --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH] | --fingerprint\n");
    return 2;
  }
  if (args.fingerprint) {
    return PrintFingerprint();
  }
  std::optional<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w.has_value()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(*w, args) : RunTimed(*w, args);
}
