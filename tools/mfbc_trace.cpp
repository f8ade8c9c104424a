// mfbc_trace — per-iteration frontier diagnostics.
//
// Prints nnz(F_i) and nnz(G_i) for every MFBF relaxation and MFBr
// back-propagation of one source batch — the quantities the §5.3
// communication analysis sums (Σ nnz(F_i) ≤ n·n_b for unweighted graphs,
// Σ nnz(G_i) ≤ 3·n·n_b) and the §7.2 explanation of the weighted slowdown
// ("the frontier stays relatively dense for several steps").
//
//   mfbc_trace --rmat 12,8 --batch 64
//   mfbc_trace --rmat 12,8 --weighted --batch 64     # compare iterations
//   mfbc_trace --er 4096,32768 --csv trace.csv
//   mfbc_trace --rmat 12,8 --json trace.json --chrome-trace trace.trace.json
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/prep.hpp"
#include "mfbc/mfbc_seq.hpp"
#include "sparse/ops.hpp"
#include "support/error.hpp"
#include "support/strutil.hpp"
#include "telemetry/export.hpp"
#include "telemetry/span.hpp"

namespace {

using namespace mfbc;

telemetry::Json phase_json(const core::FrontierTrace& trace) {
  telemetry::Json j = telemetry::Json::object();
  j["iterations"] = telemetry::Json(trace.iterations());
  j["total_ops"] = telemetry::Json(static_cast<double>(trace.total_ops));
  telemetry::Json f = telemetry::Json::array();
  for (auto v : trace.frontier_nnz) f.push(telemetry::Json(static_cast<double>(v)));
  j["frontier_nnz"] = std::move(f);
  telemetry::Json g = telemetry::Json::array();
  for (auto v : trace.product_nnz) g.push(telemetry::Json(static_cast<double>(v)));
  j["product_nnz"] = std::move(g);
  return j;
}

void print_phase(const char* name, const core::FrontierTrace& trace,
                 graph::nnz_t bound, std::ostream* csv) {
  std::printf("%s: %d iterations, %s ops total\n", name, trace.iterations(),
              human_count(static_cast<double>(trace.total_ops)).c_str());
  std::printf("  iter  nnz(F_i)  nnz(G_i)\n");
  graph::nnz_t f_total = 0, g_total = 0;
  for (int i = 0; i < trace.iterations(); ++i) {
    const auto f = trace.frontier_nnz[static_cast<std::size_t>(i)];
    const auto g = trace.product_nnz[static_cast<std::size_t>(i)];
    f_total += f;
    g_total += g;
    std::printf("  %4d  %8lld  %8lld\n", i + 1, static_cast<long long>(f),
                static_cast<long long>(g));
    if (csv != nullptr) {
      *csv << name << ',' << (i + 1) << ',' << f << ',' << g << '\n';
    }
  }
  std::printf("  sum   %8lld  %8lld   (unweighted bound on sum nnz(F): "
              "%lld)\n\n",
              static_cast<long long>(f_total), static_cast<long long>(g_total),
              static_cast<long long>(bound));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfbc;
  try {
    std::string rmat, er, csv_path, json_path, chrome_path;
    bool weighted = false, directed = false;
    graph::vid_t batch = 64;
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string f = argv[i];
      auto need = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + f);
        return argv[++i];
      };
      if (f == "--rmat") rmat = need();
      else if (f == "--er") er = need();
      else if (f == "--weighted") weighted = true;
      else if (f == "--directed") directed = true;
      else if (f == "--batch") batch = parse_int(need(), f);
      else if (f == "--seed") seed = parse_u64(need(), f);
      else if (f == "--csv") csv_path = need();
      else if (f == "--json") json_path = need();
      else if (f == "--chrome-trace") chrome_path = need();
      else throw Error("unknown flag " + f);
    }
    if (batch < 1) throw Error("--batch: value must be at least 1");
    graph::Graph g = [&] {
      graph::WeightSpec ws{weighted, 1, 100};
      if (!rmat.empty()) {
        const std::vector<std::string> se = split(rmat, ',');
        if (se.size() != 2) throw Error("--rmat expects S,E");
        graph::RmatParams p;
        p.scale = parse_int<int>(se[0], "--rmat S");
        p.edge_factor = parse_double(se[1], "--rmat E");
        p.directed = directed;
        p.weights = ws;
        return graph::random_relabel(
            graph::remove_isolated(graph::rmat(p, seed)), seed ^ 1);
      }
      if (!er.empty()) {
        const auto [n, m] = graph::parse_er_flag(er, directed);
        return graph::erdos_renyi(n, m, directed, ws, seed);
      }
      throw Error("give --rmat S,E or --er N,M");
    }();
    batch = std::min(batch, g.n());
    std::printf("graph: n=%lld m=%lld %s %s; tracing one batch of %lld "
                "sources\n\n",
                static_cast<long long>(g.n()), static_cast<long long>(g.m()),
                g.directed() ? "directed" : "undirected",
                g.weighted() ? "weighted" : "unweighted",
                static_cast<long long>(batch));

    std::vector<graph::vid_t> sources;
    for (graph::vid_t s = 0; s < batch; ++s) sources.push_back(s);

    std::ofstream csv;
    if (!csv_path.empty()) {
      csv.open(csv_path);
      if (!csv.is_open()) throw Error("cannot write " + csv_path);
      csv << "phase,iter,frontier_nnz,product_nnz\n";
    }
    std::ostream* csv_out = csv_path.empty() ? nullptr : &csv;

    // Span collection is opt-in; a requested chrome trace turns it on so the
    // batch → phase → multiply nesting below gets recorded.
    if (!chrome_path.empty()) telemetry::collector().set_enabled(true);

    core::FrontierTrace fwd, bwd;
    const auto at = sparse::transpose(g.adj());
    {
      telemetry::Span batch_span("mfbc.batch");
      batch_span.attr("nb", static_cast<std::int64_t>(batch));
      core::PathMatrix t = core::mfbf(g, sources, &fwd);
      core::mfbr(g, at, t, &bwd);
    }
    const graph::nnz_t bound = g.n() * batch;
    print_phase("MFBF (forward)", fwd, bound, csv_out);
    print_phase("MFBr (backward)", bwd, bound, csv_out);
    if (!csv_path.empty()) {
      std::printf("wrote %s\n", csv_path.c_str());
    }
    if (!json_path.empty()) {
      telemetry::RunSummary summary("mfbc_trace");
      telemetry::Json gj = telemetry::Json::object();
      gj["n"] = telemetry::Json(static_cast<double>(g.n()));
      gj["m"] = telemetry::Json(static_cast<double>(g.m()));
      gj["directed"] = telemetry::Json(g.directed());
      gj["weighted"] = telemetry::Json(g.weighted());
      gj["batch"] = telemetry::Json(static_cast<double>(batch));
      summary.set("graph", std::move(gj));
      summary.set("forward", phase_json(fwd));
      summary.set("backward", phase_json(bwd));
      summary.write(json_path);
      std::printf("wrote %s\n", json_path.c_str());
    }
    if (!chrome_path.empty()) {
      telemetry::write_chrome_trace(chrome_path);
      std::printf("wrote %s\n", chrome_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
