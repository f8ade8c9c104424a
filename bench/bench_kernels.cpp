// Microbenchmarks of the sequential kernels (google-benchmark): generalized
// SpGEMM over every monoid the library uses, elementwise ops, structural
// ops, and format conversion. They document the single-rank performance
// baseline the distributed results build on; the host flop rate the planning
// model uses is measured by `mfbc --calibrate` (tune::calibrate).
#include <benchmark/benchmark.h>

#include "algebra/centpath.hpp"
#include "algebra/multpath.hpp"
#include "algebra/tropical.hpp"
#include "benchsupport/harness.hpp"
#include "dist/spgemm_dist.hpp"
#include "graph/generators.hpp"
#include "sparse/ops.hpp"
#include "sparse/spgemm.hpp"
#include "support/parallel.hpp"

namespace {

using namespace mfbc;
using algebra::BellmanFordAction;
using algebra::BrandesAction;
using algebra::Centpath;
using algebra::CentpathMonoid;
using algebra::Multpath;
using algebra::MultpathMonoid;
using algebra::SumMonoid;
using algebra::TropicalMinMonoid;
using sparse::Csr;

graph::Graph make_graph(int scale, double degree) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = degree;
  return graph::rmat(p, /*seed=*/11);
}

Csr<Multpath> make_multpath_frontier(const graph::Graph& g, sparse::vid_t nb) {
  sparse::Coo<Multpath> coo(nb, g.n());
  for (sparse::vid_t s = 0; s < nb; ++s) {
    auto cols = g.adj().row_cols(s);
    auto vals = g.adj().row_vals(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coo.push(s, cols[i], Multpath{vals[i], 1.0});
    }
  }
  return Csr<Multpath>::from_coo<MultpathMonoid>(std::move(coo));
}

Csr<Centpath> make_centpath_frontier(const graph::Graph& g, sparse::vid_t nb) {
  sparse::Coo<Centpath> coo(nb, g.n());
  for (sparse::vid_t s = 0; s < nb; ++s) {
    auto cols = g.adj().row_cols(s);
    auto vals = g.adj().row_vals(s);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coo.push(s, cols[i], Centpath{vals[i], 0.5, -1.0});
    }
  }
  return Csr<Centpath>::from_coo<CentpathMonoid>(std::move(coo));
}

void set_ops_rate(benchmark::State& state, sparse::nnz_t ops) {
  state.counters["ops"] = static_cast<double>(ops);
  state.counters["ns_per_op"] = benchmark::Counter(
      static_cast<double>(ops) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_SpgemmMultpath(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = make_multpath_frontier(g, std::min<sparse::vid_t>(64, g.n()));
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<MultpathMonoid>(f, g.adj(), BellmanFordAction{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmMultpath)->Arg(10)->Arg(12)->Arg(14);

void BM_SpgemmCentpath(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto at = sparse::transpose(g.adj());
  const auto f = make_centpath_frontier(g, std::min<sparse::vid_t>(64, g.n()));
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<CentpathMonoid>(f, at, BrandesAction{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmCentpath)->Arg(10)->Arg(12)->Arg(14);

void BM_SpgemmCountSemiring(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = sparse::slice_rows(g.adj(), 0,
                                    std::min<sparse::vid_t>(64, g.n()));
  struct Times {
    double operator()(double a, double b) const { return a * b; }
  };
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<SumMonoid>(f, g.adj(), Times{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmCountSemiring)->Arg(10)->Arg(12)->Arg(14);

void BM_SpgemmTropical(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = sparse::slice_rows(g.adj(), 0,
                                    std::min<sparse::vid_t>(64, g.n()));
  struct Extend {
    double operator()(double a, double b) const { return a + b; }
  };
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<TropicalMinMonoid>(f, g.adj(), Extend{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmTropical)->Arg(12);

// The er-weighted-seq shape: a 64-source weighted frontier two hops deep on
// ER n=2048, m=16384 with U{1..100} weights. Its output rows cover most
// columns, so they take the kernel's dense (occupancy-scan) emission path;
// BM_SpgemmMultpath's R-MAT rows at scale 14 mostly take the sorted path.
void BM_SpgemmMultpathDenseRows(benchmark::State& state) {
  const auto g = graph::erdos_renyi(2048, 16384, /*directed=*/false,
                                    {true, 1, 100}, /*seed=*/11);
  auto f = make_multpath_frontier(g, 64);
  f = sparse::spgemm<MultpathMonoid>(f, g.adj(), BellmanFordAction{});
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    sparse::SpgemmStats st;
    auto c = sparse::spgemm<MultpathMonoid>(f, g.adj(), BellmanFordAction{}, &st);
    benchmark::DoNotOptimize(c);
    ops = st.ops;
  }
  set_ops_rate(state, ops);
}
BENCHMARK(BM_SpgemmMultpathDenseRows);

// Distributed 2D multiply (16 virtual ranks) with the execution pool at
// 1/2/4/8 threads: the per-rank block multiplies run concurrently, so
// ns_per_op should drop with the thread count while the result (and every
// ledger total) stays bit-identical.
void BM_DistSpgemmThreads(benchmark::State& state) {
  using dist::DistMatrix;
  using dist::Layout;
  using dist::Range;
  const auto g = make_graph(12, 8);
  const auto f = make_multpath_frontier(g, std::min<sparse::vid_t>(64, g.n()));
  support::set_threads(static_cast<int>(state.range(0)));
  const int p = 16;
  dist::Plan plan;
  plan.p2 = 4;
  plan.p3 = 4;
  plan.v2 = dist::Variant2D::kAC;
  sim::Sim sim(p);
  const Layout lf{0, 1, p, Range{0, f.nrows()}, Range{0, g.n()}, false};
  const Layout la{0, 4, 4, Range{0, g.n()}, Range{0, g.n()}, false};
  const auto df = DistMatrix<Multpath>::scatter(sim, f, lf);
  const auto da = DistMatrix<double>::scatter(sim, g.adj(), la);
  sparse::nnz_t ops = 0;
  for (auto _ : state) {
    dist::DistSpgemmStats dst;
    auto c = dist::spgemm<MultpathMonoid>(sim, plan, df, da,
                                          BellmanFordAction{}, lf, &dst);
    benchmark::DoNotOptimize(c);
    ops = static_cast<sparse::nnz_t>(dst.total_ops);
  }
  state.counters["threads"] = static_cast<double>(support::num_threads());
  set_ops_rate(state, ops);
  support::set_threads(1);
}
BENCHMARK(BM_DistSpgemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EwiseUnion(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto f = make_multpath_frontier(g, std::min<sparse::vid_t>(256, g.n()));
  for (auto _ : state) {
    auto c = sparse::ewise_union<MultpathMonoid>(f, f);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_EwiseUnion)->Arg(12)->Arg(14);

void BM_Transpose(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto t = sparse::transpose(g.adj());
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_Transpose)->Arg(12)->Arg(14);

void BM_CooToCsr(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const auto coo = g.adj().to_coo();
  for (auto _ : state) {
    auto copy = coo;
    auto c = Csr<double>::from_coo<SumMonoid>(std::move(copy));
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CooToCsr)->Arg(12)->Arg(14);

void BM_FilterSparsify(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    auto c = sparse::filter(g.adj(), [](sparse::vid_t, sparse::vid_t c2,
                                        double) { return c2 % 2 == 0; });
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_FilterSparsify)->Arg(12)->Arg(14);

void BM_SliceCols(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)), 8);
  const sparse::vid_t quarter = g.n() / 4;
  for (auto _ : state) {
    auto c = sparse::slice_cols(g.adj(), quarter, 2 * quarter);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SliceCols)->Arg(12)->Arg(14);

}  // namespace

// Expanded BENCHMARK_MAIN(): the shared bench flags (--json, --chrome-trace)
// are peeled off argv before google-benchmark parses the rest, and run
// artifacts are written once the benchmarks finish.
int main(int argc, char** argv) {
  const mfbc::bench::BenchArgs args =
      mfbc::bench::extract_bench_args(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  mfbc::bench::maybe_write_artifacts(args, "kernels");
  return 0;
}
