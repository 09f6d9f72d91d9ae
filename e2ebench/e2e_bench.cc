// End-to-end APSP benchmark: host solve time and served-batch latency,
// broken down by layer.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--trace-out <file.json>] [--setup-only <0|1>]
//
// One process runs one workload (getrusage peak RSS only ever grows, so a
// shared process would report the largest workload's memory for all). The
// library is driven only through its public calls — graph::PaperErdosRenyi,
// apsp::Solve, apsp::PersistSolve, store::DistanceService, the linalg
// kernels and obs::Registry — with every kernel/ISA/tile setting left at the
// library default, so a later change of a default shows in the numbers.
// Load is a closed loop with one caller.
//
// Every timed operation is checked outside its timed region and counts as
// failed on a non-OK Status or a wrong answer:
//   * each solve, row by row and bitwise, against graph::Dijkstra (integer
//     weights make every path sum exact; by row keeps the check O(n) memory);
//   * each served batch against a Dijkstra oracle matrix;
//   * the modelled time and the engine counters must repeat exactly across
//     the solves of one seed.
//
// With --trace 1 the whole run is captured by obs::Tracer under one
// "workload" span, with bench-side spans around each layer call; self times
// (span minus nested bench spans) are reported per layer and the Chrome
// trace is written to --trace-out.
//
// The last stdout line is "RESULT <json>" with attempted/failed counts and
// the end_to_end and per_layer metric maps; run.py turns it into the
// benchmark result.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apsp/api.h"
#include "apsp/persist.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/shortest_paths.h"
#include "linalg/kernel_registry.h"
#include "linalg/kernels.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "store/distance_service.h"

namespace {

using namespace apspark;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------- workloads

enum class Kind { kSolve, kServe };

struct Workload {
  const char* name;
  Kind kind;
  apsp::SolverKind solver;
  std::int64_t n;
  std::int64_t b;  // solve block size
  bool zipf;       // serve: hot-vertex Zipf queries instead of uniform
};

// Why each workload exists (see README.md): solve-cb-coarse puts the work
// in the linalg kernels (16 blocks, little engine work); solve-fw2d-fine
// puts it in sparklet record handling (512 rounds of O(b^2) per block);
// serve-uniform churns the store's LRU; serve-zipf mostly hits it.
constexpr Workload kWorkloads[] = {
    {"solve-cb-coarse", Kind::kSolve,
     apsp::SolverKind::kBlockedCollectBroadcast, 2048, 512, false},
    {"solve-fw2d-fine", Kind::kSolve, apsp::SolverKind::kFloydWarshall2d, 512,
     64, false},
    {"serve-uniform", Kind::kServe,
     apsp::SolverKind::kBlockedCollectBroadcast, 512, 128, false},
    {"serve-zipf", Kind::kServe, apsp::SolverKind::kBlockedCollectBroadcast,
     512, 128, true},
};

constexpr std::int64_t kStoreBlock = 64;
constexpr std::int64_t kBatchQueries = 256;
constexpr double kZipfTheta = 0.99;
// The p99 of batch latency needs at least 1000 batches (ten beyond it).
constexpr std::int64_t kMinBatches = 1000;
constexpr std::int64_t kMinSolves = 3;
// Set-up is repeated at least kMinSetups times and until it has taken
// kSetupSeconds (at most kMaxSetups); the median is reported.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 1001;
constexpr double kSetupSeconds = 0.5;
// Kernel probe: kProbeChunks timed chunks of at least kProbeChunkSeconds.
constexpr int kProbeChunks = 5;
constexpr double kProbeChunkSeconds = 0.1;

// ------------------------------------------------------------ bench spans

// Self-time ledger of the traced run: a span's self time is its duration
// minus the time its nested bench spans cover. Null when tracing is off.
struct SpanLedger {
  std::map<std::string, double> self_seconds;
  std::vector<double> child_seconds;  // one entry per open span
};
SpanLedger* g_ledger = nullptr;

/// A layer boundary: an obs::RealSpanScope for the Chrome trace plus the
/// self-time ledger. Spans nest on the calling (main) thread.
class Span {
 public:
  explicit Span(const char* name)
      : scope_(name), name_(name), start_(Clock::now()) {
    if (g_ledger != nullptr) g_ledger->child_seconds.push_back(0);
  }
  ~Span() {
    if (g_ledger == nullptr) return;
    const double total = Since(start_);
    const double children = g_ledger->child_seconds.back();
    g_ledger->child_seconds.pop_back();
    g_ledger->self_seconds[name_] += total - children;
    if (!g_ledger->child_seconds.empty()) {
      g_ledger->child_seconds.back() += total;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  obs::RealSpanScope scope_;
  const char* name_;
  Clock::time_point start_;
};

// Every bench span, in the order the report lists their self times.
constexpr const char* kSpanNames[] = {
    "workload",     "graph.generate", "linalg.probe", "apsp.solve",
    "apsp.persist", "store.open",     "store.batch",  "check",
};

// ------------------------------------------------------- process counters

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssBytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

/// Per-solve deltas of the linalg layer's kernel_invocations_total counters,
/// read from the registry's JSON export (the surface a scrape sees).
struct KernelCalls {
  std::uint64_t accumulate = 0;
  std::uint64_t panel = 0;
  std::uint64_t closure = 0;
  std::uint64_t scalar = 0;  // of the above, labelled isa="scalar"

  std::uint64_t total() const { return accumulate + panel + closure; }
  bool operator==(const KernelCalls&) const = default;
  KernelCalls operator-(const KernelCalls& o) const {
    return {accumulate - o.accumulate, panel - o.panel, closure - o.closure,
            scalar - o.scalar};
  }
};

/// Value of label `key` in an escaped label body (key=\"value\",...).
std::string_view LabelValue(std::string_view labels, std::string_view key) {
  const std::string needle = std::string(key) + "=\\\"";
  const auto at = labels.find(needle);
  if (at == std::string_view::npos) return {};
  const auto begin = at + needle.size();
  const auto end = labels.find("\\\"", begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : labels.substr(begin, end - begin);
}

KernelCalls ReadKernelCalls() {
  KernelCalls calls;
  const std::string json = obs::Registry::Global().ToJson();
  std::string_view rest(json);
  while (!rest.empty()) {
    const auto eol = rest.find('\n');
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 1);
    if (line.find("\"name\":\"kernel_invocations_total\"") ==
        std::string_view::npos) {
      continue;
    }
    const auto value_at = line.find("\"value\":");
    if (value_at == std::string_view::npos) continue;
    const std::uint64_t value = std::strtoull(
        std::string(line.substr(value_at + 8)).c_str(), nullptr, 10);
    const std::string_view kernel = LabelValue(line, "kernel");
    if (kernel == "accumulate") calls.accumulate += value;
    if (kernel == "panel") calls.panel += value;
    if (kernel == "closure") calls.closure += value;
    if (LabelValue(line, "isa") == "scalar") calls.scalar += value;
  }
  return calls;
}

// ------------------------------------------------------------------ solve

struct SolveSample {
  double wall_s = 0;
  double cpu_s = 0;
  KernelCalls calls;
  double sim_s = 0;
  std::int64_t rounds = 0;
  sparklet::SimMetrics metrics;
};

/// The exact-repeat guard: modelled time and engine counts of two solves of
/// one graph must be identical (host-only work never moves them).
bool SameModel(const SolveSample& a, const SolveSample& b) {
  const auto& x = a.metrics;
  const auto& y = b.metrics;
  return std::memcmp(&a.sim_s, &b.sim_s, sizeof(double)) == 0 &&
         a.rounds == b.rounds && a.calls == b.calls && x.stages == y.stages &&
         x.tasks == y.tasks && x.shuffle_bytes == y.shuffle_bytes &&
         x.collect_bytes == y.collect_bytes &&
         x.broadcast_bytes == y.broadcast_bytes &&
         x.shared_fs_written_bytes == y.shared_fs_written_bytes &&
         x.node_peak_bytes == y.node_peak_bytes &&
         x.driver_peak_bytes == y.driver_peak_bytes;
}

/// The cluster `apspark_cli solve` builds by default: 2 nodes x 2 cores,
/// 64 GiB local storage, library-default kernel variant.
apsp::SolveRequest MakeRequest(const Workload& w) {
  apsp::SolveRequest request;
  request.solver = w.solver;
  request.options.block_size = w.b;
  request.cluster.nodes = 2;
  request.cluster.cores_per_node = 2;
  request.cluster.local_storage_bytes = 64ULL * kGiB;
  return request;
}

apsp::SolveReport TimedSolve(const graph::Graph& g, const Workload& w,
                             SolveSample& sample) {
  const apsp::SolveRequest request = MakeRequest(w);
  const KernelCalls calls_before = ReadKernelCalls();
  const double cpu_before = CpuSeconds();
  const auto start = Clock::now();
  apsp::SolveReport report = [&] {
    Span span("apsp.solve");
    return apsp::Solve(g, request);
  }();
  sample.wall_s = Since(start);
  sample.cpu_s = CpuSeconds() - cpu_before;
  sample.calls = ReadKernelCalls() - calls_before;
  sample.sim_s = report.run.sim_seconds;
  sample.rounds = report.run.rounds_executed;
  sample.metrics = report.metrics();
  return report;
}

/// Integer-weight paper graph: floor of PaperErdosRenyi's [1, 10) weights,
/// so every path sum is exact and any two correct solvers agree bitwise.
graph::Graph MakeGraph(std::int64_t n, std::uint64_t seed) {
  Span span("graph.generate");
  const graph::Graph real = graph::PaperErdosRenyi(n, seed);
  graph::Graph g(n, false);
  for (const auto& e : real.edges()) {
    g.AddEdge(e.u, e.v, std::floor(e.weight)).CheckOk();
  }
  return g;
}

/// Rows of `distances` that differ bitwise from graph::Dijkstra.
std::int64_t DijkstraMismatches(const graph::Csr& csr,
                                const linalg::DenseBlock& distances,
                                ThreadPool& pool) {
  Span span("check");
  const std::int64_t n = csr.num_vertices();
  if (distances.rows() != n || distances.cols() != n ||
      distances.is_phantom() || distances.is_packed()) {
    return n;
  }
  std::atomic<std::int64_t> bad{0};
  pool.ParallelFor(static_cast<std::size_t>(n), [&](std::size_t row) {
    const auto s = static_cast<graph::VertexId>(row);
    const std::vector<double> expected = graph::Dijkstra(csr, s);
    if (std::memcmp(expected.data(), distances.Row(s),
                    static_cast<std::size_t>(n) * sizeof(double)) != 0) {
      bad.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return bad.load();
}

// ------------------------------------------------------------ kernel probe

struct Probe {
  double accumulate_gops = 0;
  double closure_gops = 0;
};

/// Median rate of kProbeChunks timed chunks of `op`, each repeated until it
/// has run kProbeChunkSeconds; `ops_per_call` is the work of one call.
template <typename Fn>
double MedianGops(double ops_per_call, Fn op) {
  std::vector<double> rates;
  for (int chunk = 0; chunk < kProbeChunks; ++chunk) {
    std::int64_t calls = 0;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      op();
      ++calls;
      elapsed = Since(start);
    } while (elapsed < kProbeChunkSeconds);
    rates.push_back(ops_per_call * static_cast<double>(calls) / elapsed / 1e9);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// The kernel ceiling at block size b, measured in this process: the
/// accumulate kernel on non-aliased operands, and the in-place closure.
Probe RunProbe(std::int64_t b, std::uint64_t seed) {
  Span span("linalg.probe");
  Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  auto random_block = [&] {
    linalg::DenseBlock block(b, b);
    double* v = block.mutable_data();
    for (std::int64_t i = 0; i < b * b; ++i) {
      v[i] = std::floor(rng.NextDouble(1.0, 10.0));
    }
    return block;
  };
  const linalg::DenseBlock a = random_block();
  const linalg::DenseBlock bb = random_block();
  linalg::DenseBlock c = random_block();
  const double cube = static_cast<double>(b) * static_cast<double>(b) *
                      static_cast<double>(b);
  Probe probe;
  probe.accumulate_gops = MedianGops(cube, [&] {
    linalg::MinPlusAccumulateRaw(b, b, b, a.data(), b, bb.data(), b,
                                 c.mutable_data(), b);
  });
  const linalg::DenseBlock closure_input = random_block();
  linalg::DenseBlock work = closure_input;
  probe.closure_gops = MedianGops(cube, [&] {
    std::memcpy(work.mutable_data(), closure_input.data(),
                static_cast<std::size_t>(b * b) * sizeof(double));
    linalg::FloydWarshallInPlace(work);
  });
  return probe;
}

// ------------------------------------------------------------------ serve

struct ServeState {
  std::unique_ptr<store::DistanceService> service;
  double persist_s = 0;
  double open_s = 0;
  std::uint64_t persist_bytes = 0;
};

/// Persists a solved matrix as a b=64 store with a successor plane and
/// opens it with the cache capped at a quarter of the payload (uniform
/// traffic churns the LRU, Zipf traffic mostly hits).
Result<ServeState> PersistAndOpen(const graph::Graph& g,
                                  const linalg::DenseBlock& distances,
                                  const std::string& dir) {
  std::filesystem::remove_all(dir);
  ServeState state;
  auto start = Clock::now();
  {
    Span span("apsp.persist");
    apsp::PersistOptions options;
    options.block_size = kStoreBlock;
    options.with_paths = true;
    const Status status = apsp::PersistSolve(
        dir, distances, &g, false, linalg::SemiringId::kMinPlus, options);
    if (!status.ok()) return status;
  }
  state.persist_s = Since(start);
  start = Clock::now();
  {
    Span span("store.open");
    auto probe = store::BlockStore::Open(dir);
    if (!probe.ok()) return probe.status();
    state.persist_bytes = (*probe)->total_payload_bytes();
    probe->reset();
    store::DistanceService::Options options;
    options.store_options.cache_capacity_bytes = state.persist_bytes / 4;
    auto service = store::DistanceService::Open(dir, options);
    if (!service.ok()) return service.status();
    state.service = std::move(*service);
  }
  state.open_s = Since(start);
  return state;
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AppendJsonMap(std::string& out, const std::vector<Metric>& metrics) {
  out += "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string trace_out;
  bool setup_only = false;  // report setup_s only, skipping the timed loop
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--setup-only") {
      args.setup_only = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr, "e2e_bench: refusing to report from a non-optimised "
                       "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
  return 2;
#endif
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--trace-out FILE] "
                 "[--setup-only 0|1]\n");
    return 2;
  }
  const Workload* found = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const bool serve = w.kind == Kind::kServe;
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const double matrix_bytes = 8.0 * static_cast<double>(w.n * w.n);
  const linalg::SimdIsa host_isa = linalg::DetectSimdIsa();
  std::printf(
      "context: workload=%s seed=%llu n=%lld b=%lld matrix_bytes=%.0f "
      "nproc=%ld isa=%s trace=%d\n"
      "kernels: %s\n",
      w.name, static_cast<unsigned long long>(args.seed),
      static_cast<long long>(w.n), static_cast<long long>(w.b), matrix_bytes,
      nproc, linalg::SimdIsaName(host_isa), args.trace ? 1 : 0,
      linalg::DescribeKernelTuning(linalg::GetKernelTuning()).c_str());

  SpanLedger ledger;
  std::optional<Span> workload_span;
  if (args.trace) {
    obs::Tracer::Get().Start();
    g_ledger = &ledger;
    workload_span.emplace("workload");
  }
  std::filesystem::create_directories(args.workdir);
  const std::string store_dir =
      (std::filesystem::path(args.workdir) /
       ("store-" + std::string(w.name) + "-" + std::to_string(getpid())))
          .string();

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // ---------------------------------------------------------------- setup
  // Everything a user waits on before the first timed operation: graph
  // generation, plus solve + persist + open for the serve workloads. The
  // last repetition's state is kept.
  std::vector<double> setup_s, generate_s, open_s, persist_s;
  graph::Graph g(0);
  ServeState state;
  std::vector<SolveSample> solves;  // timed solves, or the set-up solves
  const auto setups_start = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (Since(setups_start) < kSetupSeconds && setup_s.size() < kMaxSetups)) {
    // Release the previous repetition and hand its memory back to the OS, so
    // every repetition starts from the same heap state and pays for the
    // pages it touches, as a set-up in a fresh process does.
    state = ServeState{};
    g = graph::Graph(0);
    malloc_trim(0);
    const auto start = Clock::now();
    g = MakeGraph(w.n, args.seed);
    generate_s.push_back(Since(start));
    if (serve) {
      SolveSample sample;
      apsp::SolveReport report = TimedSolve(g, w, sample);
      if (!report.ok()) {
        std::fprintf(stderr, "set-up solve failed: %s\n",
                     report.status().ToString().c_str());
        return 1;
      }
      auto opened = PersistAndOpen(g, *report.distances(), store_dir);
      if (!opened.ok()) {
        std::fprintf(stderr, "set-up persist/open failed: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      state = std::move(*opened);
      persist_s.push_back(state.persist_s);
      open_s.push_back(state.open_s);
      solves.push_back(sample);
    }
    setup_s.push_back(Since(start));
  }
  if (args.setup_only) {
    state = ServeState{};
    std::filesystem::remove_all(store_dir);
    std::string result = "RESULT {\"attempted\":0,\"failed\":0,\"end_to_end\":";
    AppendJsonMap(result, {{"setup_s", Median(setup_s), "s"}});
    std::printf("%s,\"per_layer\":{}}\n", result.c_str());
    return 0;
  }

  // The check structures are built outside every timed region.
  ThreadPool check_pool(static_cast<std::size_t>(nproc));
  const graph::Csr csr(g);
  linalg::DenseBlock oracle;
  if (serve) {
    Span span("check");
    oracle = graph::DijkstraAllPairs(g);
  }
  const Probe probe = RunProbe(w.b, args.seed);

  // ------------------------------------------------------------ timed loop
  std::vector<double> op_s;  // one per timed solve or DistanceBatch
  double op_cpu_s = 0;
  std::int64_t queries = 0;
  store::BlockStore::Stats store_before;
  store::BlockStore::Stats store_after;
  if (serve) {
    auto& registry = obs::Registry::Global();
    registry.GetHistogram("serve_point_latency_ns").Reset();
    registry.GetHistogram("serve_batch_latency_ns").Reset();
    store::DistanceService& svc = *state.service;
    Xoshiro256 rng(args.seed * 0x2545f4914f6cdd1dULL + (w.zipf ? 2 : 1));
    const ZipfSampler zipf(static_cast<std::uint64_t>(w.n), kZipfTheta);
    auto vertex = [&] {
      return static_cast<graph::VertexId>(
          w.zipf ? zipf.Sample(rng)
                 : rng.NextBounded(static_cast<std::uint64_t>(w.n)));
    };
    std::vector<store::DistanceService::Query> batch(kBatchQueries);
    store_before = svc.store().stats();
    const auto loop_start = Clock::now();
    while (Since(loop_start) < args.seconds ||
           static_cast<std::int64_t>(op_s.size()) < kMinBatches) {
      for (auto& q : batch) q = {vertex(), vertex()};
      const double cpu_before = CpuSeconds();
      const auto start = Clock::now();
      auto answers = [&] {
        Span span("store.batch");
        return svc.DistanceBatch(batch);
      }();
      op_s.push_back(Since(start));
      op_cpu_s += CpuSeconds() - cpu_before;
      ++attempted;
      bool ok = answers.ok() && answers->size() == batch.size();
      if (ok) {
        Span span("check");
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const double expected = oracle.At(batch[i].s, batch[i].t);
          ok &= std::memcmp(&(*answers)[i], &expected, sizeof(double)) == 0;
        }
      }
      failed += ok ? 0 : 1;
      queries += kBatchQueries;
    }
    store_after = svc.store().stats();
  } else {
    const auto loop_start = Clock::now();
    while (Since(loop_start) < args.seconds ||
           static_cast<std::int64_t>(op_s.size()) < kMinSolves) {
      // Hand freed memory back to the OS so every solve pays for the pages
      // it touches, as a solve in a fresh process does.
      malloc_trim(0);
      SolveSample sample;
      apsp::SolveReport report = TimedSolve(g, w, sample);
      op_s.push_back(sample.wall_s);
      op_cpu_s += sample.cpu_s;
      ++attempted;
      bool ok = report.ok() && report.distances().has_value() &&
                DijkstraMismatches(csr, *report.distances(), check_pool) == 0;
      ok &= solves.empty() || SameModel(solves.front(), sample);
      failed += ok ? 0 : 1;
      solves.push_back(sample);
    }
  }
  // The set-up solves of a serve workload must repeat exactly too; each
  // one counts as an operation.
  for (std::size_t i = 0; serve && i < solves.size(); ++i) {
    ++attempted;
    failed += SameModel(solves.front(), solves[i]) ? 0 : 1;
  }

  workload_span.reset();
  std::size_t trace_events = 0;
  if (args.trace) {
    auto& tracer = obs::Tracer::Get();
    tracer.Stop();
    trace_events = tracer.EventCount();
    if (!args.trace_out.empty() && !tracer.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  std::filesystem::remove_all(store_dir);

  // --------------------------------------------------------------- metrics
  const double peak_rss = PeakRssBytes();
  double op_wall_total = 0;
  for (double s : op_s) op_wall_total += s;
  const double op_p50 = Median(op_s);
  // Work answered per second of operation time: queries for serve, solves
  // for solve workloads.
  const double work = serve ? static_cast<double>(queries)
                            : static_cast<double>(op_s.size());

  std::vector<Metric> e2e = {
      {"op_p50_ms", op_p50 * 1e3, "ms"},
      {"peak_rss_mb", peak_rss / (1024.0 * 1024.0), "MB"},
      {"setup_s", Median(setup_s), "s"},
  };

  const SolveSample& first = solves.front();
  std::vector<double> solve_wall;
  for (const auto& s : solves) solve_wall.push_back(s.wall_s);
  const double solve_wall_s = Median(solve_wall);
  const double nd = static_cast<double>(w.n);
  const bool host_simd = host_isa != linalg::SimdIsa::kScalar;
  const auto& m = first.metrics;
  const double hits = static_cast<double>(store_after.hits - store_before.hits);
  const double misses =
      static_cast<double>(store_after.misses - store_before.misses);
  const double batches = serve ? static_cast<double>(op_s.size()) : 1;
  const auto point = serve ? state.service->PointLatency()
                           : store::DistanceService::LatencySnapshot{};
  std::vector<Metric> layer = {
      // End-to-end figures too noisy across runs to gate (see README.md):
      // the latency tail, and throughput, a mean that the tail dominates.
      {"op_p99_ms", Quantile(op_s, 0.99) * 1e3, "ms"},
      {"work_per_s", Ratio(work, op_wall_total), "1/s"},
      {"linalg.accumulate_gops", probe.accumulate_gops, "Gop/s"},
      {"linalg.closure_gops", probe.closure_gops, "Gop/s"},
      {"linalg.calls_accumulate", static_cast<double>(first.calls.accumulate),
       "count"},
      {"linalg.calls_panel", static_cast<double>(first.calls.panel), "count"},
      {"linalg.calls_closure", static_cast<double>(first.calls.closure),
       "count"},
      {"linalg.scalar_share",
       host_simd ? Ratio(static_cast<double>(first.calls.scalar),
                         static_cast<double>(first.calls.total()))
                 : 0,
       "ratio"},
      {"apsp.kernel_fraction",
       Ratio(Ratio(nd * nd * nd, solve_wall_s) / 1e9, probe.accumulate_gops),
       "ratio"},
      {"apsp.rounds", static_cast<double>(first.rounds), "count"},
      {"apsp.sim_s", first.sim_s, "s"},
      {"apsp.persist_s", Median(persist_s), "s"},
      {"apsp.persist_bytes", static_cast<double>(state.persist_bytes), "B"},
      {"sparklet.stages", static_cast<double>(m.stages), "count"},
      {"sparklet.tasks", static_cast<double>(m.tasks), "count"},
      {"sparklet.shuffle_bytes", static_cast<double>(m.shuffle_bytes), "B"},
      {"sparklet.collect_bytes", static_cast<double>(m.collect_bytes), "B"},
      {"sparklet.broadcast_bytes", static_cast<double>(m.broadcast_bytes),
       "B"},
      {"sparklet.shared_fs_written_bytes",
       static_cast<double>(m.shared_fs_written_bytes), "B"},
      {"sparklet.node_peak_bytes", static_cast<double>(m.node_peak_bytes),
       "B"},
      {"sparklet.driver_peak_bytes", static_cast<double>(m.driver_peak_bytes),
       "B"},
      {"host.cpu_util", Ratio(op_cpu_s, op_wall_total), "ratio"},
      {"host.idle_core_s",
       Ratio(static_cast<double>(nproc) * op_wall_total - op_cpu_s,
             static_cast<double>(op_s.size())),
       "s/op"},
      {"host.rss_over_matrix", Ratio(peak_rss, matrix_bytes), "ratio"},
      {"store.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"store.misses", misses / batches, "count/batch"},
      {"store.evictions",
       static_cast<double>(store_after.evictions - store_before.evictions) /
           batches,
       "count/batch"},
      {"store.bytes_loaded",
       static_cast<double>(store_after.bytes_loaded -
                           store_before.bytes_loaded) /
           batches,
       "B/batch"},
      {"store.peak_resident_bytes",
       static_cast<double>(store_after.peak_resident_bytes), "B"},
      {"store.point_p50_us", point.p50_seconds * 1e6, "us"},
      {"store.point_p99_us", point.p99_seconds * 1e6, "us"},
      {"store.open_s", Median(open_s), "s"},
      {"graph.generate_s", Median(generate_s), "s"},
      {"graph.edges", static_cast<double>(g.num_edges()), "count"},
      {"obs.trace_events",
       Ratio(static_cast<double>(trace_events),
             static_cast<double>(op_s.size())),
       "count/op"},
  };
  for (const char* name : kSpanNames) {
    const auto it = ledger.self_seconds.find(name);
    layer.push_back({std::string("self.") + name + "_ms",
                     it == ledger.self_seconds.end() ? 0 : it->second * 1e3,
                     "ms"});
  }

  PrintMetrics("end-to-end", e2e);
  PrintMetrics("per-layer", layer);
  std::printf("samples: %zu timed ops, %zu set-ups; failed_share %.6g (%lld of "
              "%lld)\n",
              op_s.size(), setup_s.size(),
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  if (serve) {
    std::printf("serve: serve_qps %.6g  serve_batch_p50_ms %.6g  "
                "serve_batch_p99_ms %.6g\n",
                layer[1].value, e2e[0].value, layer[0].value);
  } else {
    std::printf("solve: solve_wall_s %.6g\n", solve_wall_s);
  }

  std::string result = "RESULT {\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" + std::to_string(failed) +
                       ",\"end_to_end\":";
  AppendJsonMap(result, e2e);
  result += ",\"per_layer\":";
  AppendJsonMap(result, layer);
  result += "}";
  std::printf("%s\n", result.c_str());
  return 0;
}
