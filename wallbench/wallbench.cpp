// wallbench — wall-clock benchmark of the MFBC library.
//
// One process runs one workload at one seed and prints, as its last stdout
// line, {"correct", "attempted", "failed", "metrics"}. The workload's graph
// is generated from the seed, written to an edge-list file, and every timed
// path starts at graph::read_edge_list_file. Work is count-based (a fixed,
// seeded number of set-ups, solves and mutation batches), so every count
// and every modelled (α–β ledger) figure repeats exactly at one seed.
//
// Each workload runs three phases on its graph, interleaved in slots (one
// set-up and one chunk of the stream each, solves evenly between them):
//   set-up  read → engine ready, once per slot; setup_s is the fastest;
//   solve   exact all-sources BC with the workload's engine; solve_s is the
//           fastest solve, each checked against baseline::brandes;
//   serve   a BcServer over the same graph: the mutator applies a seeded
//           stream of add/remove batches while two closed-loop readers run
//           the bc_server CLI's query mix; update_s is the fastest apply,
//           query_qps the readers' answers per second.
//
// --trace 0 reports the end-to-end metrics, measured with span collection
// off. --trace 1 then repeats one set-up, one solve and one stretch of the
// stream with collection on, wraps each public call in a bench.* span,
// writes Chrome traces, and reports the per-layer metrics (see
// wallbench/README.md for the table).
//
// usage: wallbench --workload NAME --seed S --seconds T --trace 0|1
//                  --work-dir DIR [--size full|small] [--perturb]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/bc_server.hpp"
#include "baseline/brandes.hpp"
#include "dist/partition.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/mutate.hpp"
#include "graph/prep.hpp"
#include "mfbc/mfbc_dist.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sim/comm.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/ledger_sink.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace mfbc;
using graph::vid_t;

// ---------------------------------------------------------------------------
// Workload definitions

/// kDist: read → make_partition → DistMfbc ctor, solves on that engine.
/// kSeq: read only, solves with core::mfbc. kServe: read → BcServer ctor,
/// solves are the serving engine's full recompute of the current version.
enum class Engine { kDist, kSeq, kServe };

/// Every mutation batch adds as many edges as it removes, so m and the
/// component structure stay stationary however long the stream runs.
constexpr int kAdds = 3;
constexpr int kRemoves = 3;

struct Workload {
  std::string name;
  // Graph recipe.
  bool rmat = false;
  int scale = 0;
  double edge_factor = 0;
  vid_t er_n = 0;
  graph::nnz_t er_m = 0;
  bool weighted = false;
  // Set-up and solve.
  Engine engine = Engine::kDist;
  int ranks = 16;    ///< kDist only; kServe uses the server's defaults
  vid_t batch = 64;  ///< kDist and kSeq
  int threads = 1;
  // Work per run at kBaseSeconds; every count scales with --seconds. Each
  // set-up opens one slot of the run and a stream chunk follows it.
  int setups = 1;
  int solves = 1;
  int applies = 1;
  // Serve phase.
  vid_t serve_sources = 0;  ///< 0 = all vertices
};

/// The run length the counts are set for (BENCHMARK.json run_seconds).
constexpr double kBaseSeconds = 30;

/// Applies of the prologue's stream chunk, run with the allocator's defaults.
constexpr int kUntunedApplies = 8;

/// Most applies in the traced stream: their spans (not the per-query ones)
/// are kept in memory for the stream's trace.
constexpr int kTracedApplies = 16;

Workload make_workload(const std::string& name, bool small) {
  Workload w;
  w.name = name;
  if (name == "rmat-p16") {
    // The paper's headline R-MAT experiment through the CLI's --rmat recipe
    // on a simulated 16-rank machine, CLI defaults, batch 64, 2 threads.
    w.rmat = true;
    w.scale = small ? 8 : 12;
    w.edge_factor = 8;
    w.engine = Engine::kDist;
    w.ranks = 16;
    w.batch = 64;
    w.threads = 2;
    w.setups = 20;
    w.solves = 1;
    w.applies = 80;
    w.serve_sources = 16;
  } else if (name == "er-weighted-seq") {
    // Weighted ER (integer U{1..100} weights) on the sequential engine: no
    // dist, sim or pool on the solve path.
    w.er_n = small ? 128 : 2048;
    w.er_m = small ? 1024 : 16384;
    w.weighted = true;
    w.engine = Engine::kSeq;
    w.batch = 64;
    w.threads = 1;
    w.setups = 20;
    w.solves = 2;
    w.applies = 80;
    w.serve_sources = 16;
  } else if (name == "serve-churn") {
    // BcServer with server defaults on a sparse ER graph of many small
    // components; the solve phase is the serving engine's full-recompute
    // path on the version its stream has just published.
    w.er_n = small ? 600 : 6000;
    w.er_m = small ? 180 : 1800;
    w.engine = Engine::kServe;
    w.threads = 1;
    w.setups = 9;
    w.solves = 9;
    w.applies = 432;
    w.serve_sources = 0;
  } else {
    throw Error("unknown workload: " + name +
                " (rmat-p16 | er-weighted-seq | serve-churn)");
  }
  if (small) {
    w.setups = 3;
    w.solves = 1;
    w.applies = 6;
  }
  return w;
}

/// `n` (a count at kBaseSeconds) scaled to `seconds`, at least 1.
int scaled(int n, double seconds) {
  const double s = std::round(n * std::min(seconds, 600.0) / kBaseSeconds);
  return std::max(1, static_cast<int>(s));
}

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The least of a run's repeats of one kind of work. The host's noise only
/// adds time, and it switches between a fast and a slow mode every few
/// seconds (one serve-churn run's nine full recomputes took 0.29 to
/// 0.52 s), so a median follows the run's share of slow-mode samples while
/// the minimum follows the program. The traced run reports the typical
/// and tail applies.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// Nearest-rank percentile, p in [0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t fnv_bits(const std::vector<double>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (double x : v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    for (int i = 0; i < 8; ++i) {
      h ^= (b >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// The host's own speed: a fixed single-thread integer loop. Recorded at
/// run start and end so host drift can be told apart from program change.
volatile std::uint64_t host_ref_state = 88172645463325252ull;

double host_ref_seconds() {
  WallTimer t;
  std::uint64_t x = host_ref_state, acc = 0;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x & 0xff;
  }
  host_ref_state = acc;  // the volatile store keeps the loop alive
  return t.seconds();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Minor page faults so far of the process (RUSAGE_SELF) or of the calling
/// thread (RUSAGE_THREAD).
std::uint64_t minor_faults(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

/// Tells glibc malloc to keep freed memory in the process: no trimming of
/// the heap top, no mmap for blocks under 32 MiB (the largest threshold it
/// takes). With its adaptive defaults the engines' per-batch buffers go
/// back to the kernel and are faulted in again page by page on every
/// batch. How many pages that is jumps between seeds (93k to 252k faults
/// per serve-churn recompute), and each fault costs what the shared host's
/// memory load makes it cost: over 10 seeds serve-churn's solve_s spread
/// by 0.44 of its median. The run's prologue measures the defaults.
void keep_freed_memory() {
  const bool ok = mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
                  mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 &&
                  mallopt(M_TOP_PAD, 64 << 20) == 1;
  MFBC_CHECK(ok, "mallopt rejected the allocator settings");
}

/// Attempted/failed operation tally; the first failures are printed.
struct Checks {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> first_failures;

  void fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (first_failures.size() < 20) first_failures.push_back(what);
  }
  /// One checked operation; `ok` false counts it failed.
  void op(bool ok, const std::string& what) {
    attempted.fetch_add(1);
    if (!ok) fail(what);
  }
};

/// λ against Brandes at the differential harness's tolerance,
/// |got − ref| ≤ 1e-9·(1 + ref), and every λ finite.
bool lambda_matches(const std::vector<double>& got,
                    const std::vector<double>& ref, std::string* why) {
  if (got.size() != ref.size()) {
    *why = "size " + std::to_string(got.size()) + " vs " +
           std::to_string(ref.size());
    return false;
  }
  for (std::size_t v = 0; v < ref.size(); ++v) {
    if (!std::isfinite(got[v])) {
      *why = "non-finite lambda at vertex " + std::to_string(v);
      return false;
    }
    if (std::fabs(got[v] - ref[v]) > 1e-9 * (1.0 + std::fabs(ref[v]))) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "vertex %zu: %.17g vs brandes %.17g", v,
                    got[v], ref[v]);
      *why = buf;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Span bookkeeping for the traced run

/// Moves the collector's finished spans into `events` as the library's own
/// Chrome trace events (telemetry::chrome_trace, span attributes and ledger
/// costs included), except per-query spans, which are only counted into
/// `query_spans`: a traced stream makes millions of them, so the stream's
/// spans are drained after every apply instead of written once at the end.
void drain_spans(telemetry::Json& events, std::uint64_t& query_spans) {
  const telemetry::Json part = telemetry::chrome_trace();
  telemetry::collector().clear();
  const telemetry::Json& evs = part.at("traceEvents");
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const std::string& name = evs.at(i).at("name").as_string();
    if (name == "serve.query" || name == "serve.batch") {
      ++query_spans;
    } else {
      events.push(evs.at(i));
    }
  }
}

/// Self time per span id: duration minus the part covered by direct child
/// spans on the same thread (work a pool worker did in parallel is not
/// subtracted from the span that enqueued it).
std::map<std::int64_t, double> self_times_us(
    const std::vector<telemetry::SpanRecord>& recs) {
  std::map<std::int64_t, const telemetry::SpanRecord*> by_id;
  for (const auto& r : recs) by_id[r.id] = &r;
  std::map<std::int64_t, double> self;
  for (const auto& r : recs) self[r.id] += r.dur_us;
  for (const auto& r : recs) {
    auto it = by_id.find(r.parent);
    if (it != by_id.end() && it->second->tid == r.tid) {
      self[r.parent] -= r.dur_us;
    }
  }
  return self;
}

struct SpanSums {
  double self_s = 0;
  double total_s = 0;
  std::uint64_t count = 0;
  std::vector<double> durations_s;
};

std::map<std::string, SpanSums> sum_spans(
    const std::vector<telemetry::SpanRecord>& recs) {
  const auto self = self_times_us(recs);
  std::map<std::string, SpanSums> out;
  for (const auto& r : recs) {
    SpanSums& s = out[r.name];
    s.self_s += self.at(r.id) * 1e-6;
    s.total_s += r.dur_us * 1e-6;
    ++s.count;
    s.durations_s.push_back(r.dur_us * 1e-6);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The phases

struct Bench {
  Workload w;
  std::uint64_t seed = 1;
  double seconds = kBaseSeconds;
  bool trace = false;
  bool perturb = false;
  std::string work_dir;
  std::string graph_path;

  Checks checks;
  std::map<std::string, double> detail;  ///< counts and checksums
  std::map<std::string, double> layer;   ///< per-layer metrics (traced run)
  telemetry::Json stream_events = telemetry::Json::array();  ///< traced run
  std::uint64_t query_spans = 0;  ///< per-query spans seen, traced run

  graph::EdgeListOptions read_opts() const {
    return {.directed = false, .weighted = w.weighted, .one_indexed = false};
  }

  // --- input -------------------------------------------------------------

  void write_graph() {
    graph::Graph g;
    if (w.rmat) {
      // The CLI's --rmat recipe: Graph500 a/b/c, isolated vertices
      // removed, vertices randomly relabeled.
      graph::RmatParams p;
      p.scale = w.scale;
      p.edge_factor = w.edge_factor;
      p.weights = {w.weighted, 1, 100};
      g = graph::random_relabel(graph::remove_isolated(graph::rmat(p, seed)),
                                seed ^ 0xabc);
    } else {
      g = graph::erdos_renyi(w.er_n, w.er_m, false, {w.weighted, 1, 100},
                             seed);
    }
    graph_path = work_dir + "/" + w.name + "-" + std::to_string(seed) +
                 (w.weighted ? ".wel" : ".el");
    std::ofstream out(graph_path);
    MFBC_CHECK(static_cast<bool>(out), "cannot write " + graph_path);
    // One self-loop line per vertex first: the reader drops self-loops but
    // numbers vertices by first appearance, so the file declares every
    // vertex (isolated ones included) under its generated id and the graph
    // read back is exactly the generated one.
    out << "# " << g.n() << " vertices declared as self-loops, then edges\n";
    for (vid_t v = 0; v < g.n(); ++v) out << v << ' ' << v << " 1\n";
    graph::write_edge_list(out, g);
    out.close();
    MFBC_CHECK(static_cast<bool>(out), "cannot write " + graph_path);
  }

  graph::Graph read_graph() {
    telemetry::Span span("bench.graph.read");
    return graph::read_edge_list_file(graph_path, read_opts());
  }

  // --- set-up --------------------------------------------------------------

  /// Everything a solve needs, built from the edge-list file.
  struct Ready {
    /// Heap-held so its address survives moves: the engine keeps a
    /// reference to it.
    std::unique_ptr<graph::Graph> g;
    std::unique_ptr<sim::Sim> sim;
    std::unique_ptr<telemetry::ScopedLedgerSink> sink;
    std::unique_ptr<core::DistMfbc> engine;
    std::unique_ptr<serve::BcServer> server;
  };

  serve::ServerOptions server_options(const graph::Graph& g) const {
    // Server defaults: 4 simulated ranks, batch 16, fallback fraction 0.5.
    serve::ServerOptions o;
    if (w.serve_sources > 0 && w.serve_sources < g.n()) {
      // Evenly spaced source ids, as bc_server --sources K.
      const vid_t stride = g.n() / w.serve_sources;
      for (vid_t i = 0; i < w.serve_sources; ++i) {
        o.compute.sources.push_back(i * stride);
      }
    }
    return o;
  }

  std::unique_ptr<serve::BcServer> make_server(graph::Graph g) {
    telemetry::Span span("bench.apps.server");
    serve::ServerOptions o = server_options(g);
    return std::make_unique<serve::BcServer>(std::move(g), std::move(o));
  }

  Ready setup_once() {
    Ready r;
    r.g = std::make_unique<graph::Graph>(read_graph());
    if (w.engine == Engine::kServe) {
      r.server = make_server(*r.g);
      return r;
    }
    if (w.engine == Engine::kSeq) return r;
    dist::Partition part;
    {
      telemetry::Span span("bench.dist.partition");
      part = dist::make_partition(*r.g, dist::PartitionKind::kBlock, w.ranks);
    }
    telemetry::Span span("bench.dist.distribute");
    r.sim = std::make_unique<sim::Sim>(w.ranks);
    r.sink = std::make_unique<telemetry::ScopedLedgerSink>(r.sim->ledger());
    r.engine =
        std::make_unique<core::DistMfbc>(*r.sim, *r.g, std::move(part));
    return r;
  }

  // --- solve ----------------------------------------------------------------

  struct SolveResult {
    double wall_s = 0;
    std::vector<double> lambda;
    core::FrontierTrace forward, backward;
    sim::Cost ledger_delta;  ///< critical-path delta of the solve (dist)
    sim::Cost forward_cost, backward_cost;
    double imbalance_ops = 0;
  };

  /// One timed exact solve of `g`: on the set-up's engine (kDist), with
  /// core::mfbc (kSeq), or as the serving engine's full recompute of the
  /// current version on a machine built before the timer starts (kServe).
  SolveResult solve(Ready& ready, const graph::Graph& g) {
    SolveResult out;
    core::DistMfbcStats dstats;
    sim::Cost before, after;
    if (w.engine == Engine::kSeq) {
      core::MfbcOptions o;
      o.batch_size = w.batch;
      core::MfbcStats sstats;
      WallTimer t;
      {
        telemetry::Span span("bench.mfbc.solve");
        out.lambda = core::mfbc(g, o, &sstats);
      }
      out.wall_s = t.seconds();
      out.forward = sstats.forward;
      out.backward = sstats.backward;
      return out;
    }
    if (w.engine == Engine::kDist) {
      core::DistMfbcOptions o;
      o.batch_size = w.batch;
      before = ready.sim->ledger().critical();
      WallTimer t;
      {
        telemetry::Span span("bench.mfbc.solve");
        out.lambda = ready.engine->run(o, &dstats);
      }
      out.wall_s = t.seconds();
      after = ready.sim->ledger().critical();
    } else {
      // The serving engine's full-recompute path: a fresh machine with the
      // server's default ranks and batch size, version-stable plans.
      const serve::IncrementalOptions defaults;
      sim::Sim sim(defaults.ranks);
      core::DistMfbc engine(sim, g);
      core::DistMfbcOptions o;
      o.batch_size = defaults.batch_size;
      o.stable_plans = true;
      o.graph_signature = graph::structural_signature(g);
      WallTimer t;
      {
        telemetry::Span span("bench.mfbc.solve");
        out.lambda = engine.run(o, &dstats);
      }
      out.wall_s = t.seconds();
      after = sim.ledger().critical();
    }
    out.forward = dstats.forward;
    out.backward = dstats.backward;
    out.forward_cost = dstats.forward_cost;
    out.backward_cost = dstats.backward_cost;
    out.imbalance_ops = dstats.imbalance_ops;
    out.ledger_delta.words = after.words - before.words;
    out.ledger_delta.msgs = after.msgs - before.msgs;
    out.ledger_delta.comm_seconds = after.comm_seconds - before.comm_seconds;
    out.ledger_delta.compute_seconds =
        after.compute_seconds - before.compute_seconds;
    return out;
  }

  /// The λ check of one solve against Brandes' `ref` (computed outside
  /// every timed phase).
  void check_solve(SolveResult& s, const std::vector<double>& ref) {
    if (perturb && !s.lambda.empty()) {
      // Self-test of the check: one λ off by far more than the tolerance.
      double& x = s.lambda[s.lambda.size() / 2];
      x += 1e-6 * (1.0 + std::fabs(x));
    }
    std::string why;
    const bool ok = lambda_matches(s.lambda, ref, &why);
    checks.op(ok, "solve lambda differs from brandes: " + why);
  }

  // --- serve -----------------------------------------------------------------

  struct StreamResult {
    std::vector<double> apply_s;
    std::vector<serve::RecomputeReport> reports;
    std::uint64_t answers = 0;
    double wall_s = 0;
    std::vector<double> query_us;  ///< traced run only (decimated)
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_lookups = 0;
    std::uint64_t apply_faults = 0;  ///< minor page faults of the mutator
  };

  /// The mutator applies `applies` seeded add/remove batches while two
  /// closed-loop readers run bc_server's query mix until it is done.
  /// `traced`: span collection is on; time each query, harvest spans.
  StreamResult stream(serve::BcServer& server, int applies,
                      std::uint64_t stream_seed, bool traced) {
    StreamResult out;
    const vid_t n = server.n();
    const std::uint64_t hits0 = server.cache_hits();
    const std::uint64_t misses0 = server.cache_misses();
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> answers{0};
    constexpr int kReaders = 2;
    constexpr std::size_t kMaxSamples = 1 << 16;
    std::vector<std::vector<double>> lat(kReaders);
    std::vector<std::thread> readers;
    WallTimer wall;
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t]() {
        try {
          Xoshiro256 rng(stream_seed * 1000 + 17 + static_cast<unsigned>(t));
          std::uint64_t last_version = 0, mine = 0, stride = 1, seen = 0;
          std::uint64_t bad_floor = 0, bad_order = 0;
          auto note = [&](const serve::Answer& a, std::uint64_t floor) {
            if (a.version < floor) ++bad_floor;
            if (a.version < last_version) ++bad_order;
            last_version = a.version;
            ++mine;
          };
          while (!done.load(std::memory_order_relaxed)) {
            const auto q0 = std::chrono::steady_clock::now();
            const std::uint64_t floor = server.version();
            const std::uint64_t pick = rng.bounded(8);
            if (pick == 0) {
              std::vector<serve::Query> batch;
              batch.push_back(serve::Query::top_k(1 + rng.bounded(10)));
              batch.push_back(serve::Query::centrality(
                  static_cast<vid_t>(rng.bounded(n))));
              for (const serve::Answer& a : server.submit(batch)) {
                note(a, floor);
              }
            } else if (pick <= 2) {
              note(server.centrality(static_cast<vid_t>(rng.bounded(n))),
                   floor);
            } else {
              note(server.top_k(1 + rng.bounded(10)), floor);
            }
            if (traced && (seen++ % stride) == 0) {
              auto& v = lat[static_cast<std::size_t>(t)];
              v.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - q0)
                              .count());
              if (v.size() == kMaxSamples) {
                // Deterministic decimation: keep every other sample.
                for (std::size_t i = 0; i < v.size() / 2; ++i) v[i] = v[2 * i];
                v.resize(v.size() / 2);
                stride *= 2;
              }
            }
          }
          answers.fetch_add(mine);
          checks.attempted.fetch_add(mine);
          if (bad_floor + bad_order > 0) {
            checks.failed.fetch_add(bad_floor + bad_order - 1);
            checks.fail("reader " + std::to_string(t) + ": " +
                        std::to_string(bad_floor) + " answers below the "
                        "published floor, " + std::to_string(bad_order) +
                        " version regressions");
          }
        } catch (const std::exception& e) {
          checks.fail(std::string("reader threw: ") + e.what());
        }
      });
    }
    try {
      Xoshiro256 mut_rng(stream_seed * 1000 + 7);
      std::uint64_t prev = server.version();
      for (int i = 0; i < applies; ++i) {
        graph::MutationBatch batch = graph::random_mutation_batch(
            server.current_graph(), kAdds, kRemoves, mut_rng);
        batch.label = "bench batch " + std::to_string(i);
        WallTimer t;
        serve::RecomputeReport rep;
        const std::uint64_t faults0 = minor_faults(RUSAGE_THREAD);
        {
          telemetry::Span span("bench.apps.apply");
          rep = server.apply(batch);
        }
        out.apply_s.push_back(t.seconds());
        out.apply_faults += minor_faults(RUSAGE_THREAD) - faults0;
        const std::uint64_t now = server.version();
        bool ok = rep.version == prev + 1 && now == rep.version;
        std::string why = "version " + std::to_string(rep.version) +
                          " after " + std::to_string(prev);
        if (rep.incremental && rep.batches_rerun > rep.affected_batches) {
          ok = false;
          why = "re-ran " + std::to_string(rep.batches_rerun) +
                " batches, affected bound " +
                std::to_string(rep.affected_batches);
        }
        checks.op(ok, "apply " + std::to_string(i) + ": " + why);
        prev = now;
        out.reports.push_back(rep);
        if (traced) drain_spans(stream_events, query_spans);
      }
    } catch (const std::exception& e) {
      checks.fail(std::string("mutator threw: ") + e.what());
    }
    done.store(true);
    for (std::thread& th : readers) th.join();
    out.wall_s = wall.seconds();
    out.answers = answers.load();
    for (auto& v : lat) {
      out.query_us.insert(out.query_us.end(), v.begin(), v.end());
    }
    out.cache_hits = server.cache_hits() - hits0;
    out.cache_lookups = out.cache_hits + (server.cache_misses() - misses0);
    return out;
  }

  /// Serve-phase checks on the final version: zero stale answers and the
  /// final published λ equal to Brandes on the final graph.
  void check_served(serve::BcServer& server) {
    checks.op(server.stale_answers() == 0,
              std::to_string(server.stale_answers()) + " stale answers");
    std::vector<serve::Query> all;
    for (vid_t v = 0; v < server.n(); ++v) {
      all.push_back(serve::Query::centrality(v));
    }
    std::vector<double> served;
    for (const serve::Answer& a : server.submit(all)) served.push_back(a.score);
    const graph::Graph& g = server.current_graph();
    std::vector<double> ref;
    const serve::ServerOptions o = server_options(g);
    if (o.compute.sources.empty()) {
      ref = baseline::brandes(g);
    } else {
      ref = baseline::brandes_partial(g, o.compute.sources);
    }
    if (perturb && !served.empty()) served[0] += 1.0;
    std::string why;
    const bool ok = lambda_matches(served, ref, &why);
    checks.op(ok, "final served lambda differs from brandes: " + why);
    detail["serve.final_lambda_fnv_lo32"] =
        static_cast<double>(fnv_bits(served) & 0xffffffffu);
    detail["serve.final_version"] = static_cast<double>(server.version());
  }

  void note_stream_counts(const StreamResult& s) {
    double rerun = 0, total = 0, full = 0;
    std::vector<double> model;
    for (const auto& r : s.reports) {
      rerun += r.batches_rerun;
      total += r.total_batches;
      model.push_back(r.modelled_seconds);
      if (!r.incremental) ++full;
    }
    detail["serve.applies"] = static_cast<double>(s.reports.size());
    detail["serve.rerun_frac"] = total > 0 ? rerun / total : 0;
    detail["serve.full_recomputes"] = full;
    // Median, not mean: an apply that touches one of the few larger
    // components costs many times the typical one, so the mean follows
    // the seed's handful of such applies.
    detail["serve.model_p50_s"] = median(model);
  }

  // --- the run ---------------------------------------------------------------

  std::map<std::string, std::pair<double, std::string>> run() {
    std::map<std::string, std::pair<double, std::string>> m;
    const double ref0 = host_ref_seconds();
    write_graph();
    const int slots = scaled(w.setups, seconds);
    const int solves = scaled(w.solves, seconds);
    const int per_slot = std::max(1, scaled(w.applies, seconds) / slots);
    detail["setups"] = slots;
    detail["solves"] = solves;
    detail["applies"] = per_slot * slots;

    // Prologue, with the allocator's defaults as mfbc_cli and bc_server run
    // them: the set-up whose engine (kDist) or server (kServe) carries the
    // run, one stream chunk and, on kServe, one solve. Its figures are the
    // per-layer host.untuned_* and host.*_faults metrics.
    support::set_threads(w.threads);
    std::optional<Ready> ready;
    {
      WallTimer t;
      ready.emplace(setup_once());
      detail["host.untuned_setup_s"] = t.seconds();
    }
    std::unique_ptr<serve::BcServer> server =
        w.engine == Engine::kServe ? std::move(ready->server)
                                   : make_server(*ready->g);
    {
      const graph::Graph& g = *ready->g;
      detail["graph.n"] = static_cast<double>(g.n());
      detail["graph.m"] = static_cast<double>(g.m());
      detail["graph.signature_lo32"] = static_cast<double>(
          graph::structural_signature(g) & 0xffffffffu);
    }
    support::set_threads(1);
    StreamResult st = stream(*server, kUntunedApplies, seed * 4096, false);
    detail["host.untuned_update_s"] = median(st.apply_s);
    detail["host.apply_faults"] = static_cast<double>(st.apply_faults) /
                                  static_cast<double>(st.apply_s.size());
    support::set_threads(w.threads);
    detail["host.untuned_solve_s"] = 0;
    detail["host.solve_faults"] = 0;
    if (w.engine == Engine::kServe) {
      const graph::Graph& g = server->current_graph();
      const std::uint64_t faults0 = minor_faults(RUSAGE_SELF);
      SolveResult s = solve(*ready, g);
      detail["host.solve_faults"] =
          static_cast<double>(minor_faults(RUSAGE_SELF) - faults0);
      detail["host.untuned_solve_s"] = s.wall_s;
      check_solve(s, baseline::brandes(g));
    }
    keep_freed_memory();

    // The measured run is `slots` slots, each one timed set-up followed by
    // a stream chunk of `per_slot` applies; the solves sit evenly between
    // slots. The host's speed changes in stretches of a few hundred
    // milliseconds to seconds, so every metric samples the whole run, not
    // one window of it. Each slot's set-up is timed and released.
    std::vector<double> setup_times, solve_times;
    SolveResult first;        ///< the first solve: counts and checksums
    std::vector<double> ref;  ///< Brandes on the graph last solved
    double brandes_s = 0;
    int solved = 0;
    st = StreamResult();
    for (int slot = 0; slot < slots; ++slot) {
      support::set_threads(w.threads);
      {
        WallTimer t;
        Ready r = setup_once();
        setup_times.push_back(t.seconds());
      }
      support::set_threads(1);
      StreamResult seg =
          stream(*server, per_slot, seed * 4096 + 1 + slot, false);
      st.apply_s.insert(st.apply_s.end(), seg.apply_s.begin(),
                        seg.apply_s.end());
      st.reports.insert(st.reports.end(), seg.reports.begin(),
                        seg.reports.end());
      st.answers += seg.answers;
      st.wall_s += seg.wall_s;
      support::set_threads(w.threads);
      // Solve i follows slot ⌈(i + ½)·slots / solves⌉ − 1; kServe solves the
      // version its stream has just published.
      while (solved < solves &&
             2 * (slot + 1) * solves >= (2 * solved + 1) * slots) {
        const graph::Graph& g =
            w.engine == Engine::kServe ? server->current_graph() : *ready->g;
        SolveResult s = solve(*ready, g);
        solve_times.push_back(s.wall_s);
        if (ref.empty() || w.engine == Engine::kServe) {
          WallTimer t;
          ref = baseline::brandes(g);
          if (solved == 0) brandes_s = t.seconds();
        }
        if (solved > 0 && w.engine != Engine::kServe) {
          checks.op(fnv_bits(s.lambda) == fnv_bits(first.lambda),
                    "solve " + std::to_string(solved) +
                        " is not bit-identical to solve 0");
        }
        check_solve(s, ref);
        if (solved == 0) first = std::move(s);
        ++solved;
      }
    }
    check_served(*server);
    note_stream_counts(st);
    detail["solve.lambda_fnv_lo32"] =
        static_cast<double>(fnv_bits(first.lambda) & 0xffffffffu);

    double it = 0, prod = 0, front = 0;
    for (const auto* tr : {&first.forward, &first.backward}) {
      it += tr->iterations();
      for (auto x : tr->product_nnz) prod += static_cast<double>(x);
      for (auto x : tr->frontier_nnz) front += static_cast<double>(x);
    }
    detail["mfbc.iterations"] = it;
    detail["mfbc.product_nnz"] = prod;
    detail["mfbc.frontier_nnz"] = front;
    detail["sim.words"] = first.ledger_delta.words;
    detail["sim.msgs"] = first.ledger_delta.msgs;
    const double model_s = w.engine == Engine::kDist
                               ? first.ledger_delta.total_seconds()
                               : detail["serve.model_p50_s"];
    detail["model_s"] = model_s;
    const double solve_s = fastest(solve_times);
    const double qps = static_cast<double>(st.answers) / st.wall_s;

    if (!trace) {
      m["solve_s"] = {solve_s, "s"};
      m["update_s"] = {fastest(st.apply_s), "s"};
      m["query_qps"] = {qps, "1/s"};
      m["model_s"] = {model_s, "s"};
      m["setup_s"] = {fastest(setup_times), "s"};
      const double ref1 = host_ref_seconds();
      detail["host.ref_s"] = 0.5 * (ref0 + ref1);
      m["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
      return m;
    }

    // ---- traced pass: the same phases with span collection on ----------
    // The set-up and solve spans are written to <workload>-<seed>.trace.json
    // by the library's telemetry::write_chrome_trace, the stream's to
    // <workload>-<seed>.stream.trace.json (see drain_spans).
    const std::string trace_base =
        work_dir + "/" + w.name + "-" + std::to_string(seed);
    telemetry::collector().set_enabled(true);
    telemetry::collector().clear();
    // Set-up layers: one more set-up, traced. Its fresh engine runs the
    // traced solve, so that solve pays what the untraced first solve paid.
    support::set_threads(w.threads);
    Ready fresh = setup_once();
    std::size_t setup_spans = 0;
    {
      const auto recs = telemetry::collector().finished();
      setup_spans = recs.size();
      auto sp = sum_spans(recs);
      layer["graph.read_s"] = sp["bench.graph.read"].total_s;
      layer["dist.partition_s"] = sp["bench.dist.partition"].total_s;
      layer["dist.distribute_s"] = sp["bench.dist.distribute"].total_s;
      layer["apps.build_s"] = sp["bench.apps.server"].total_s;
    }

    // Solve layers, on the graph the untraced run solved last.
    support::pool().reset_utilization();
    telemetry::registry().clear();
    const graph::Graph& solved_g =
        w.engine == Engine::kServe ? server->current_graph() : *ready->g;
    SolveResult traced = solve(fresh, solved_g);
    if (w.engine == Engine::kServe) {
      check_solve(traced, baseline::brandes(solved_g));
    } else {
      checks.op(fnv_bits(traced.lambda) == fnv_bits(first.lambda),
                "traced solve is not bit-identical to the checked solves");
    }
    support::export_pool_utilization();
    std::map<std::string, SpanSums> sp;
    {
      auto recs = telemetry::collector().finished();
      recs.erase(recs.begin(),
                 recs.begin() + static_cast<std::ptrdiff_t>(setup_spans));
      sp = sum_spans(recs);
    }
    telemetry::write_chrome_trace(trace_base + ".trace.json");
    telemetry::collector().clear();
    const bool seq = w.engine == Engine::kSeq;
    layer["dist.spgemm_s"] = sp["dist.spgemm"].self_s;
    layer["dist.spgemm_calls"] = static_cast<double>(sp["dist.spgemm"].count);
    layer["dist.autotune_s"] = sp["dist.autotune"].self_s;
    layer["dist.imbalance_ops"] = traced.imbalance_ops;
    layer["mfbc.forward_s"] =
        sp[seq ? "mfbc.mfbf" : "mfbc.forward"].self_s;
    layer["mfbc.backward_s"] =
        sp[seq ? "mfbc.mfbr" : "mfbc.backward"].self_s;
    layer["mfbc.iterations"] = it;
    layer["mfbc.product_nnz"] = prod;
    layer["mfbc.frontier_yield"] = prod > 0 ? front / prod : 0;
    layer["mfbc.over_brandes"] = brandes_s > 0 ? solve_s / brandes_s : 0;
    layer["sparse.kernel_s"] =
        sp["mfbc.mfbf.multiply"].total_s + sp["mfbc.mfbr.multiply"].total_s;
    layer["core.batches"] = static_cast<double>(sp["mfbc.batch"].count);
    layer["core.batch_p50_s"] = percentile(sp["mfbc.batch"].durations_s, 50);
    layer["core.batch_p90_s"] = percentile(sp["mfbc.batch"].durations_s, 90);
    layer["parallel.busy_s"] =
        telemetry::registry().value("parallel.pool.busy_ns") * 1e-9;
    layer["parallel.wait_s"] =
        telemetry::registry().value("parallel.pool.wait_ns") * 1e-9;
    layer["sim.comm_s"] = traced.ledger_delta.comm_seconds;
    layer["sim.compute_s"] = traced.ledger_delta.compute_seconds;
    layer["sim.words"] = traced.ledger_delta.words;
    layer["sim.msgs"] = traced.ledger_delta.msgs;
    layer["sim.forward_s"] = traced.forward_cost.total_seconds();
    layer["sim.backward_s"] = traced.backward_cost.total_seconds();
    layer["baseline.brandes_s"] = brandes_s;

    // Serve layers: one traced stream, as long as the applies between two
    // solves but at most kTracedApplies.
    support::set_threads(1);
    const int traced_applies =
        std::min(kTracedApplies, per_slot * std::max(1, slots / solves));
    st = stream(*server, traced_applies, seed * 4096 + 1 + slots, true);
    support::set_threads(w.threads);
    double rerun = 0, total = 0, rerun_inc = 0, affected_inc = 0, full = 0;
    for (const auto& r : st.reports) {
      rerun += r.batches_rerun;
      total += r.total_batches;
      if (r.incremental) {
        rerun_inc += r.batches_rerun;
        affected_inc += r.affected_batches;
      } else {
        ++full;
      }
    }
    check_served(*server);
    layer["serve.rerun_frac"] = total > 0 ? rerun / total : 0;
    layer["serve.rerun_over_bound"] =
        affected_inc > 0 ? rerun_inc / affected_inc : 0;
    layer["serve.full_recomputes"] = full;
    layer["serve.update_p50_s"] = percentile(st.apply_s, 50);
    layer["serve.update_p90_s"] = percentile(st.apply_s, 90);
    for (const char* k : {"host.untuned_setup_s", "host.untuned_solve_s",
                          "host.untuned_update_s", "host.solve_faults",
                          "host.apply_faults"}) {
      layer[k] = detail[k];
    }
    layer["apps.query_p50_us"] = percentile(st.query_us, 50);
    layer["apps.query_p99_us"] = percentile(st.query_us, 99);
    layer["apps.cache_hit_frac"] =
        st.cache_lookups > 0 ? static_cast<double>(st.cache_hits) /
                                   static_cast<double>(st.cache_lookups)
                             : 0;
    const double qps_traced = static_cast<double>(st.answers) / st.wall_s;
    layer["telemetry.overhead_frac"] =
        w.engine == Engine::kServe ? qps / qps_traced - 1.0
                                   : traced.wall_s / solve_s - 1.0;
    telemetry::collector().set_enabled(false);
    drain_spans(stream_events, query_spans);
    detail["telemetry.query_spans"] = static_cast<double>(query_spans);
    telemetry::Json doc = telemetry::Json::object();
    doc["displayTimeUnit"] = "ms";
    doc["traceEvents"] = std::move(stream_events);
    telemetry::write_json(trace_base + ".stream.trace.json", doc);
    const double ref1 = host_ref_seconds();
    layer["host.ref_s"] = 0.5 * (ref0 + ref1);
    detail["host.ref_s"] = layer["host.ref_s"];
    return m;
  }
};

// ---------------------------------------------------------------------------
// Per-layer metric catalogue: unit, layer, the end-to-end metric it should
// move and the workloads it is measured on. The traced run prints it, so a
// later change can cite a layer metric together with what it predicts.

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* layer;
  const char* moves;
  const char* on;
};

constexpr LayerMetric kLayerMetrics[] = {
    {"graph.read_s", "s", "graph", "setup_s", "all"},
    {"dist.partition_s", "s", "dist", "setup_s", "rmat-p16"},
    {"dist.distribute_s", "s", "dist", "setup_s", "rmat-p16"},
    {"apps.build_s", "s", "apps", "setup_s", "serve-churn"},
    {"dist.spgemm_s", "s", "dist", "solve_s", "rmat-p16"},
    {"dist.spgemm_calls", "count", "dist", "solve_s", "rmat-p16"},
    {"dist.autotune_s", "s", "dist", "solve_s", "rmat-p16"},
    {"dist.imbalance_ops", "ratio", "dist", "solve_s", "rmat-p16"},
    {"mfbc.forward_s", "s", "mfbc", "solve_s", "rmat-p16,er-weighted-seq"},
    {"mfbc.backward_s", "s", "mfbc", "solve_s", "rmat-p16,er-weighted-seq"},
    {"mfbc.iterations", "count", "mfbc", "solve_s", "rmat-p16,er-weighted-seq"},
    {"mfbc.product_nnz", "count", "mfbc", "solve_s", "rmat-p16,er-weighted-seq"},
    {"mfbc.frontier_yield", "ratio", "mfbc", "solve_s",
     "rmat-p16,er-weighted-seq"},
    {"mfbc.over_brandes", "ratio", "mfbc", "solve_s",
     "rmat-p16,er-weighted-seq"},
    {"sparse.kernel_s", "s", "sparse", "solve_s", "er-weighted-seq"},
    {"core.batches", "count", "core", "solve_s", "rmat-p16,er-weighted-seq"},
    {"core.batch_p50_s", "s", "core", "solve_s", "rmat-p16,er-weighted-seq"},
    {"core.batch_p90_s", "s", "core", "solve_s", "rmat-p16,er-weighted-seq"},
    {"parallel.busy_s", "s", "support", "solve_s", "rmat-p16"},
    {"parallel.wait_s", "s", "support", "solve_s", "rmat-p16"},
    {"sim.comm_s", "s", "sim", "model_s", "rmat-p16,serve-churn"},
    {"sim.compute_s", "s", "sim", "model_s", "rmat-p16,serve-churn"},
    {"sim.words", "words", "sim", "model_s", "rmat-p16,serve-churn"},
    {"sim.msgs", "count", "sim", "model_s", "rmat-p16,serve-churn"},
    {"sim.forward_s", "s", "sim", "model_s", "rmat-p16"},
    {"sim.backward_s", "s", "sim", "model_s", "rmat-p16"},
    {"serve.rerun_frac", "ratio", "serve", "update_s", "serve-churn"},
    {"serve.rerun_over_bound", "ratio", "serve", "update_s", "serve-churn"},
    {"serve.full_recomputes", "count", "serve", "update_s", "serve-churn"},
    {"serve.update_p50_s", "s", "serve", "update_s", "serve-churn"},
    {"serve.update_p90_s", "s", "serve", "update_s", "serve-churn"},
    {"apps.query_p50_us", "us", "apps", "query_qps", "serve-churn"},
    {"apps.query_p99_us", "us", "apps", "query_qps", "serve-churn"},
    {"apps.cache_hit_frac", "ratio", "apps", "query_qps", "serve-churn"},
    {"baseline.brandes_s", "s", "baseline", "none",
     "rmat-p16,er-weighted-seq"},
    {"telemetry.overhead_frac", "ratio", "telemetry", "solve_s,query_qps",
     "rmat-p16,serve-churn"},
    {"host.untuned_setup_s", "s", "host", "setup_s", "all"},
    {"host.untuned_solve_s", "s", "host", "solve_s", "serve-churn"},
    {"host.untuned_update_s", "s", "host", "update_s", "all"},
    {"host.solve_faults", "count", "host", "solve_s", "serve-churn"},
    {"host.apply_faults", "count", "host", "update_s", "all"},
    {"host.ref_s", "s", "host", "none", "all"},
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kBaseSeconds;
  int trace = 0;
  std::string work_dir = ".";
  bool small = false;
  bool perturb = false;
};

Cli parse(int argc, char** argv) {
  Cli c;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw Error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--workload") c.workload = need(i);
    else if (f == "--seed") c.seed = std::strtoull(need(i).c_str(), nullptr, 10);
    else if (f == "--seconds") c.seconds = std::atof(need(i).c_str());
    else if (f == "--trace") c.trace = std::atoi(need(i).c_str());
    else if (f == "--work-dir") c.work_dir = need(i);
    else if (f == "--size") {
      const std::string s = need(i);
      MFBC_CHECK(s == "full" || s == "small", "--size expects full|small");
      c.small = s == "small";
    } else if (f == "--perturb") c.perturb = true;
    else throw Error("unknown flag: " + f);
  }
  MFBC_CHECK(!c.workload.empty(), "--workload is required");
  MFBC_CHECK(c.seconds > 0, "--seconds must be positive");
  MFBC_CHECK(c.trace == 0 || c.trace == 1, "--trace expects 0 or 1");
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Cli cli = parse(argc, argv);
    Bench b;
    b.w = make_workload(cli.workload, cli.small);
    b.seed = cli.seed;
    b.seconds = cli.small ? kBaseSeconds : cli.seconds;  // small runs are fixed-size
    b.trace = cli.trace == 1;
    b.perturb = cli.perturb;
    b.work_dir = cli.work_dir;
    telemetry::collector().set_enabled(false);
    auto e2e = b.run();

    std::string metrics;
    auto add = [&](const std::string& name, double v, const std::string& unit) {
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + name + "\": {\"value\": " + num(v) +
                 ", \"unit\": \"" + unit + "\"}";
    };
    if (b.trace) {
      std::string layers;
      for (const LayerMetric& lm : kLayerMetrics) {
        add(lm.name, b.layer.count(lm.name) ? b.layer.at(lm.name) : 0,
            lm.unit);
        layers += std::string(layers.empty() ? "" : ", ") + "\"" + lm.name +
                  "\": {\"layer\": \"" + lm.layer + "\", \"moves\": \"" +
                  lm.moves + "\", \"on\": \"" + lm.on + "\"}";
      }
      std::printf("layers: {%s}\n", layers.c_str());
    } else {
      for (const auto& [name, vu] : e2e) add(name, vu.first, vu.second);
    }
    std::string detail;
    for (const auto& [k, v] : b.detail) {
      detail += (detail.empty() ? "" : ", ") + ("\"" + k + "\": " + num(v));
    }
    for (const std::string& f : b.checks.first_failures) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
    const std::uint64_t failed = b.checks.failed.load();
    const std::uint64_t attempted =
        std::max<std::uint64_t>(b.checks.attempted.load(), failed);
    std::printf("detail: {%s}\n", detail.c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        failed == 0 ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), metrics.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: %s\n", e.what());
    return 2;
  }
}
