// bc_server — deterministic serving-storm driver for the BC-as-a-service
// front-end (docs/serving.md).
//
// Builds a generated graph, starts an in-process BcServer, then runs a
// concurrent query storm (top-k / per-vertex / batched submissions) from
// --query-threads std::threads while the main thread applies random
// mutation batches mid-flight. On completion it self-checks the serving
// contract and exits nonzero on any violation:
//
//   * zero stale answers — every answer's version >= the version published
//     when its query started;
//   * per-thread version monotonicity — a thread never observes versions
//     going backwards;
//   * the affected-region bound — an incremental recompute never re-runs
//     more source batches than affected-region detection predicted.
//
// Examples:
//   bc_server --er 400,1600 --ranks 4 --mutations 6 --json serve.json
//   bc_server --rmat 9,4 --weighted --mode full --queries 100
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/bc_server.hpp"
#include "graph/generators.hpp"
#include "graph/mutate.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/strutil.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace mfbc;

struct Args {
  std::string er;    // "n,m"
  std::string rmat;  // "scale,degree"
  bool directed = false;
  bool weighted = false;
  int ranks = 4;
  graph::vid_t batch = 16;
  int threads = 0;        // pool threads (0 = MFBC_THREADS / default)
  graph::vid_t sources = 0;  // 0 = all vertices, else K evenly spaced
  int query_threads = 4;
  int queries = 200;      // per query thread
  int topk = 10;          // k drawn uniformly from [1, topk]
  int mutations = 8;      // mutation batches applied mid-flight
  int mutation_adds = 3;
  int mutation_removes = 1;
  std::string mode = "auto";  // auto | incremental | full
  double full_threshold = -2;  // <-1 = take it from --mode
  bool approx = false;        // approximate serving (adaptive sampler)
  double approx_eps = 0.25;
  double approx_delta = 0.1;
  std::uint64_t approx_seed = 1;
  std::uint64_t seed = 1;
  std::string json_file;
  bool help = false;
};

void usage() {
  std::puts(
      "usage: bc_server [options]\n"
      "graph source (choose one):\n"
      "  --er N,M            Erdos-Renyi graph with N vertices, M edges\n"
      "  --rmat S,E          R-MAT graph, 2^S vertices, avg degree E\n"
      "  --directed --weighted\n"
      "serving engine:\n"
      "  --ranks P           simulated ranks per recompute (default 4)\n"
      "  --batch NB          source batch size (default 16)\n"
      "  --sources K         accumulate from K evenly spaced sources\n"
      "                      (default: all vertices)\n"
      "  --threads N         execution-pool threads (results identical\n"
      "                      for every N)\n"
      "  --mode M            auto (default; incremental with fraction\n"
      "                      fallback) | incremental (never fall back on\n"
      "                      fraction) | full (always full recompute)\n"
      "  --full-threshold F  override the affected-fraction fallback\n"
      "  --approx E,D[,S]    approximate serving: every published version\n"
      "                      is an adaptive (eps,delta)-sampled recompute\n"
      "                      with sampler seed S (default 1); answers carry\n"
      "                      the guarantee and per-vertex CIs\n"
      "storm:\n"
      "  --query-threads T   concurrent query threads (default 4)\n"
      "  --queries N         queries per thread (default 200)\n"
      "  --topk K            top-k sizes drawn from [1, K] (default 10)\n"
      "  --mutations M       mutation batches applied mid-flight (default 8)\n"
      "  --mutation-adds A --mutation-removes R\n"
      "                      edges added/removed per batch (default 3/1)\n"
      "output:\n"
      "  --seed S            storm seed\n"
      "  --json FILE         write the run summary (serve block with\n"
      "                      p50/p95 latency, per-apply recompute reports)\n");
}

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) throw Error(std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--er") a.er = need(i);
    else if (f == "--rmat") a.rmat = need(i);
    else if (f == "--directed") a.directed = true;
    else if (f == "--weighted") a.weighted = true;
    else if (f == "--ranks") a.ranks = parse_int<int>(need(i), f);
    else if (f == "--batch") a.batch = parse_int(need(i), f);
    else if (f == "--threads") a.threads = parse_int<int>(need(i), f);
    else if (f == "--sources") a.sources = parse_int(need(i), f);
    else if (f == "--query-threads")
      a.query_threads = parse_int<int>(need(i), f);
    else if (f == "--queries") a.queries = parse_int<int>(need(i), f);
    else if (f == "--topk") a.topk = parse_int<int>(need(i), f);
    else if (f == "--mutations") a.mutations = parse_int<int>(need(i), f);
    else if (f == "--mutation-adds")
      a.mutation_adds = parse_int<int>(need(i), f);
    else if (f == "--mutation-removes")
      a.mutation_removes = parse_int<int>(need(i), f);
    else if (f == "--mode") a.mode = need(i);
    else if (f == "--full-threshold")
      a.full_threshold = parse_double(need(i), f);
    else if (f == "--approx") {
      const std::vector<std::string> parts = split(need(i), ',');
      require_flag(parts.size() == 2 || parts.size() == 3, f,
                   "expects eps,delta[,seed]");
      a.approx = true;
      a.approx_eps = parse_double(parts[0], "--approx eps");
      a.approx_delta = parse_double(parts[1], "--approx delta");
      if (parts.size() == 3) {
        a.approx_seed = parse_u64(parts[2], "--approx seed");
      }
    }
    else if (f == "--seed") a.seed = parse_u64(need(i), f);
    else if (f == "--json") a.json_file = need(i);
    else if (f == "--help" || f == "-h") a.help = true;
    else throw Error("unknown flag: " + f);
  }
  return a;
}

graph::Graph load_graph(const Args& a) {
  graph::WeightSpec ws;
  ws.weighted = a.weighted;
  if (!a.er.empty()) {
    const auto [n, m] = graph::parse_er_flag(a.er, a.directed);
    return graph::erdos_renyi(n, m, a.directed, ws, a.seed);
  }
  if (!a.rmat.empty()) {
    const std::vector<std::string> se = split(a.rmat, ',');
    require_flag(se.size() == 2, "--rmat", "expects S,E");
    graph::RmatParams params;
    params.scale = parse_int<int>(se[0], "--rmat S");
    params.edge_factor = parse_double(se[1], "--rmat E");
    params.directed = a.directed;
    params.weights = ws;
    return graph::rmat(params, a.seed);
  }
  throw Error("pick a graph: --er N,M or --rmat S,E");
}

double threshold_of(const Args& a) {
  if (a.full_threshold >= -1) return a.full_threshold;
  if (a.mode == "auto") return 0.5;
  if (a.mode == "incremental") return 1.0;  // never fall back on fraction
  if (a.mode == "full") return -1.0;        // always full recompute
  throw Error("--mode expects auto|incremental|full, got: " + a.mode);
}

int run(const Args& a) {
  if (a.threads > 0) support::set_threads(a.threads);
  require_flag(a.query_threads >= 1, "--query-threads", "must be >= 1");

  graph::Graph g = load_graph(a);
  const graph::vid_t n = g.n();
  require_flag(n >= 2, a.er.empty() ? "--rmat" : "--er",
               "graph too small to serve (fewer than 2 vertices)");
  std::printf("serving |V|=%ld |E|=%ld %s %s\n", static_cast<long>(n),
              static_cast<long>(g.m()), a.directed ? "directed" : "undirected",
              a.weighted ? "weighted" : "unweighted");

  serve::ServerOptions sopts;
  sopts.compute.ranks = a.ranks;
  sopts.compute.batch_size = a.batch;
  sopts.compute.full_recompute_fraction = threshold_of(a);
  if (a.approx) {
    sopts.approx.enabled = true;
    sopts.approx.eps = a.approx_eps;
    sopts.approx.delta = a.approx_delta;
    sopts.approx.seed = a.approx_seed;
  }
  if (a.sources > 0 && a.sources < n) {
    // K evenly spaced source ids: deterministic, duplicate-free.
    const graph::vid_t stride = n / a.sources;
    for (graph::vid_t i = 0; i < a.sources; ++i) {
      sopts.compute.sources.push_back(i * stride);
    }
  }
  serve::BcServer server(std::move(g), std::move(sopts));
  if (a.approx) {
    std::printf(
        "approximate serving: eps=%g delta=%g seed=%llu\n", a.approx_eps,
        a.approx_delta, static_cast<unsigned long long>(a.approx_seed));
  }
  std::printf("version %llu published, %d source batches\n",
              static_cast<unsigned long long>(server.version()),
              server.total_batches());

  // --- concurrent query storm -------------------------------------------
  std::atomic<std::uint64_t> monotonicity_violations{0};
  std::atomic<std::uint64_t> floor_violations{0};
  std::atomic<std::uint64_t> approx_violations{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(a.query_threads));
  for (int t = 0; t < a.query_threads; ++t) {
    pool.emplace_back([&, t]() {
      Xoshiro256 rng(a.seed + 1000 + static_cast<std::uint64_t>(t));
      std::uint64_t last_version = 0;
      auto note = [&](const serve::Answer& ans, std::uint64_t floor) {
        if (ans.version < last_version) monotonicity_violations.fetch_add(1);
        if (ans.version < floor) floor_violations.fetch_add(1);
        last_version = ans.version;
        // Approx contract: every answer advertises the configured
        // guarantee, and a vertex answer's CI brackets its score.
        if (ans.approximate != a.approx) approx_violations.fetch_add(1);
        if (ans.approximate) {
          if (ans.eps != a.approx_eps || ans.delta != a.approx_delta) {
            approx_violations.fetch_add(1);
          }
          if (ans.kind == serve::QueryKind::kVertex &&
              !(ans.ci_lower <= ans.score && ans.score <= ans.ci_upper)) {
            approx_violations.fetch_add(1);
          }
        }
      };
      for (int i = 0; i < a.queries; ++i) {
        const std::uint64_t floor = server.version();
        const std::uint64_t pick = rng.bounded(8);
        if (pick == 0) {
          // Batched submission: one snapshot, one version for all answers.
          std::vector<serve::Query> batch;
          batch.push_back(serve::Query::top_k(
              1 + rng.bounded(static_cast<std::uint64_t>(a.topk))));
          batch.push_back(serve::Query::centrality(static_cast<graph::vid_t>(
              rng.bounded(static_cast<std::uint64_t>(n)))));
          for (const serve::Answer& ans : server.submit(batch)) {
            note(ans, floor);
          }
        } else if (pick <= 2) {
          note(server.centrality(static_cast<graph::vid_t>(
                   rng.bounded(static_cast<std::uint64_t>(n)))),
               floor);
        } else {
          note(server.top_k(
                   1 + rng.bounded(static_cast<std::uint64_t>(a.topk))),
               floor);
        }
      }
    });
  }

  // --- mutation stream on the main thread --------------------------------
  Xoshiro256 mut_rng(a.seed + 7);
  std::vector<serve::RecomputeReport> reports;
  int bound_violations = 0;
  int guarantee_misses = 0;
  // Approx contract: the sampler certifies every published version. The
  // probe rides the normal query path so the check sees what clients see.
  auto check_guarantee = [&]() {
    if (!a.approx) return;
    if (!server.centrality(0).guarantee_met) ++guarantee_misses;
  };
  check_guarantee();
  for (int m = 0; m < a.mutations; ++m) {
    graph::MutationBatch batch = graph::random_mutation_batch(
        server.current_graph(), a.mutation_adds, a.mutation_removes,
        mut_rng);
    batch.label = "serve batch " + std::to_string(m);
    if (batch.empty()) continue;
    const serve::RecomputeReport rep = server.apply(batch);
    std::printf(
        "v%llu: %s (%s), %d/%d batches re-run, affected bound %d, "
        "%.3fs modelled\n",
        static_cast<unsigned long long>(rep.version),
        rep.incremental ? "incremental" : "full", rep.reason.c_str(),
        rep.batches_rerun, rep.total_batches, rep.affected_batches,
        rep.modelled_seconds);
    if (rep.incremental && rep.batches_rerun > rep.affected_batches) {
      ++bound_violations;
    }
    check_guarantee();
    reports.push_back(rep);
  }
  for (std::thread& th : pool) th.join();

  // --- self-checks --------------------------------------------------------
  const std::uint64_t stale = server.stale_answers();
  std::printf(
      "storm done: %llu queries (%llu cache hits), %llu versions published, "
      "%llu stale answers\n",
      static_cast<unsigned long long>(server.queries()),
      static_cast<unsigned long long>(server.cache_hits()),
      static_cast<unsigned long long>(server.versions_published()),
      static_cast<unsigned long long>(stale));

  if (!a.json_file.empty()) {
    telemetry::RunSummary summary("bc_server");
    telemetry::Json config = telemetry::Json::object();
    config["ranks"] = telemetry::Json(a.ranks);
    config["batch"] = telemetry::Json(static_cast<std::int64_t>(a.batch));
    config["mode"] = telemetry::Json(a.mode);
    config["query_threads"] = telemetry::Json(a.query_threads);
    config["mutations"] = telemetry::Json(a.mutations);
    config["seed"] = telemetry::Json(static_cast<std::int64_t>(a.seed));
    config["approx"] = telemetry::Json(a.approx);
    summary.set("config", std::move(config));
    summary.set("serve", server.json());
    telemetry::Json recs = telemetry::Json::array();
    for (const serve::RecomputeReport& rep : reports) {
      telemetry::Json r = telemetry::Json::object();
      r["version"] = telemetry::Json(static_cast<std::int64_t>(rep.version));
      r["incremental"] = telemetry::Json(rep.incremental);
      r["reason"] = telemetry::Json(rep.reason);
      r["batches_rerun"] = telemetry::Json(rep.batches_rerun);
      r["affected_bound"] = telemetry::Json(rep.affected_batches);
      r["total_batches"] = telemetry::Json(rep.total_batches);
      r["modelled_seconds"] = telemetry::Json(rep.modelled_seconds);
      recs.push(std::move(r));
    }
    summary.set("recomputes", std::move(recs));
    summary.write(a.json_file);
    std::printf("[json] wrote %s\n", a.json_file.c_str());
  }

  bool ok = true;
  if (stale != 0) {
    std::fprintf(stderr, "FAIL: %llu stale answers (must be 0)\n",
                 static_cast<unsigned long long>(stale));
    ok = false;
  }
  if (floor_violations.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu answers older than the version published at "
                 "query start\n",
                 static_cast<unsigned long long>(floor_violations.load()));
    ok = false;
  }
  if (monotonicity_violations.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu per-thread version-monotonicity violations\n",
                 static_cast<unsigned long long>(
                     monotonicity_violations.load()));
    ok = false;
  }
  if (bound_violations != 0) {
    std::fprintf(stderr,
                 "FAIL: %d incremental recomputes exceeded the "
                 "affected-region bound\n",
                 bound_violations);
    ok = false;
  }
  if (approx_violations.load() != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu answers violated the approximate-serving "
                 "contract (guarantee metadata or CI bracketing)\n",
                 static_cast<unsigned long long>(approx_violations.load()));
    ok = false;
  }
  if (guarantee_misses != 0) {
    std::fprintf(stderr,
                 "FAIL: %d published versions missed the (eps,delta) "
                 "guarantee\n",
                 guarantee_misses);
    ok = false;
  }
  if (ok) std::puts("serve storm: all contracts held");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.help) {
      usage();
      return 0;
    }
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
