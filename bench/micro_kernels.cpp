// google-benchmark microbenchmarks for the kernels every experiment is
// built from: dense GEMM, sparse SpMM, edge-softmax attention, the four
// completion operations, the proximal projections, and the modularity loss.
//
// The hot kernels sweep the thread count of the shared parallel runtime
// (util/parallel.h) as their last argument; run
//   micro_kernels --benchmark_filter='MatMul|SpMM'
//       --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
// to record the 1-vs-N scaling (see BENCH_kernels.json at the repo root).

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>

#include "autoac/clustering.h"
#include "autoac/completion_params.h"
#include "completion/completion_module.h"
#include "data/hgb_datasets.h"
#include "graph/sparse_ops.h"
#include "tensor/init.h"
#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

/// Pins the pool to the benchmark's thread-count argument for the duration
/// of one benchmark run, restoring the default afterwards.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int64_t n) {
    SetNumThreads(static_cast<int>(n));
  }
  ~ThreadCountScope() { SetNumThreads(0); }
};

Dataset& BenchDataset() {
  static Dataset* dataset = [] {
    DatasetOptions options;
    options.scale = 0.1;
    return new Dataset(MakeDataset("dblp", options));
  }();
  return *dataset;
}

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  ThreadCountScope threads(state.range(1));
  Rng rng(1);
  VarPtr a = MakeConst(RandomNormal({n, 64}, 1.0f, rng));
  VarPtr b = MakeConst(RandomNormal({64, 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}});

// The attention-score shape: [3924, 64] by a [64, n] weight with fewer
// columns than one AVX2 vector (the kernel vectorizes across rows instead).
void BM_MatMulSkinny(benchmark::State& state) {
  constexpr int64_t kRows = 3924;
  int64_t n = state.range(0);
  ThreadCountScope threads(state.range(1));
  Rng rng(1);
  VarPtr a = MakeConst(RandomNormal({kRows, 64}, 1.0f, rng));
  VarPtr b = MakeConst(RandomNormal({64, n}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * kRows * 64 * n);
}
BENCHMARK(BM_MatMulSkinny)->ArgsProduct({{1, 4}, {1, 2, 4}});

// MatMul's backward kernels on a [rows, 64] x [64, 64] product: the input
// gradient (GemmNT) and the weight gradient (GemmTN). Items are MACs.
void BM_MatMulBackward(benchmark::State& state) {
  int64_t rows = state.range(0);
  ThreadCountScope threads(state.range(1));
  Rng rng(1);
  Tensor a = RandomNormal({rows, 64}, 1.0f, rng);
  Tensor b = RandomNormal({64, 64}, 1.0f, rng);
  Tensor grad = RandomNormal({rows, 64}, 1.0f, rng);
  Tensor grad_a(rows, 64);
  Tensor grad_b(64, 64);
  for (auto _ : state) {
    internal::GemmNT(grad.data(), b.data(), grad_a.data(), rows, 64, 64);
    internal::GemmTN(a.data(), grad.data(), grad_b.data(), rows, 64, 64);
    benchmark::DoNotOptimize(grad_a.data());
    benchmark::DoNotOptimize(grad_b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * 64 * 64);
}
BENCHMARK(BM_MatMulBackward)->ArgsProduct({{1024, 4096}, {1, 2, 4}});

void BM_SpMM(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  ThreadCountScope threads(state.range(0));
  SpMatPtr adj = dataset.graph->FullAdjacency(AdjNorm::kSym, true);
  Rng rng(2);
  VarPtr x =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpMM(adj, x));
  }
  state.SetItemsProcessed(state.iterations() * adj->nnz() * 64);
}
BENCHMARK(BM_SpMM)->ArgsProduct({{1, 2, 4, 8}});

void BM_EdgeSoftmaxAggregate(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  ThreadCountScope threads(state.range(0));
  SpMatPtr adj = dataset.graph->FullAdjacency(AdjNorm::kNone, true);
  Rng rng(3);
  VarPtr logits = MakeConst(RandomNormal({adj->nnz()}, 1.0f, rng));
  VarPtr h =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdgeSoftmaxAggregate(adj, logits, h));
  }
  state.SetItemsProcessed(state.iterations() * adj->nnz() * 64);
}
BENCHMARK(BM_EdgeSoftmaxAggregate)->ArgsProduct({{1, 2, 4, 8}});

void BM_CompletionOp(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  Rng rng(4);
  CompletionConfig config;
  config.hidden_dim = 64;
  static CompletionModule* module =
      new CompletionModule(dataset.graph, config, rng);
  auto op = static_cast<CompletionOpType>(state.range(0));
  VarPtr base = module->BaseFeatures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(module->RunOp(op, base));
  }
}
BENCHMARK(BM_CompletionOp)
    ->Arg(static_cast<int>(CompletionOpType::kMean))
    ->Arg(static_cast<int>(CompletionOpType::kGcn))
    ->Arg(static_cast<int>(CompletionOpType::kPpnp))
    ->Arg(static_cast<int>(CompletionOpType::kOneHot));

void BM_ProxC1(benchmark::State& state) {
  Rng rng(5);
  Tensor alpha = InitCompletionParams(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProxC1(alpha));
  }
}
BENCHMARK(BM_ProxC1)->Arg(16)->Arg(4096);

void BM_ModularityLoss(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  Rng rng(6);
  static ClusterHead* head =
      new ClusterHead(dataset.graph, 64, 8, rng);
  VarPtr hidden =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        head->ModularityLoss(head->Assignments(hidden)));
  }
}
BENCHMARK(BM_ModularityLoss);

void BM_BackwardPass(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  SpMatPtr adj = dataset.graph->FullAdjacency(AdjNorm::kSym, true);
  Rng rng(7);
  VarPtr w = MakeParam(RandomNormal({64, 64}, 0.1f, rng));
  VarPtr x =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    w->ZeroGrad();
    VarPtr loss = SumSquares(SpMM(adj, MatMul(x, w)));
    Backward(loss);
    benchmark::DoNotOptimize(w->grad.data());
  }
}
BENCHMARK(BM_BackwardPass);

/// Console display plus one JSONL "bench" record per benchmark run, so the
/// CI bench-smoke job can diff a run against the committed
/// BENCH_kernels.json baseline (scripts/check_bench_regression.py) with the
/// same record format the trainer telemetry uses.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    if (Telemetry::Enabled()) {
      Telemetry::Get().Emit(
          MetricRecord("bench_context")
              .Add("num_cpus",
                   static_cast<int64_t>(context.cpu_info.num_cpus))
              .Add("mhz_per_cpu",
                   context.cpu_info.cycles_per_second / 1e6)
              .Add("num_threads_env", static_cast<int64_t>(NumThreads())));
    }
    return ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    if (Telemetry::Enabled()) {
      for (const Run& run : reports) {
        if (run.run_type != Run::RT_Iteration || run.error_occurred ||
            run.iterations <= 0) {
          continue;
        }
        // real_accumulated_time is seconds over all iterations; normalize
        // to per-iteration nanoseconds, the unit BENCH_kernels.json keeps.
        double wall_ns = run.real_accumulated_time /
                         static_cast<double>(run.iterations) * 1e9;
        Telemetry::Get().Emit(MetricRecord("bench")
                                  .Add("name", run.benchmark_name())
                                  .Add("iterations", run.iterations)
                                  .Add("wall_time_ns", wall_ns));
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

}  // namespace
}  // namespace autoac

int main(int argc, char** argv) {
  // --metrics_out is ours, not google-benchmark's: capture and strip it
  // before Initialize() would reject it as unrecognized.
  std::string metrics_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr std::string_view kFlag = "--metrics_out=";
    std::string_view arg(argv[i]);
    if (arg.substr(0, kFlag.size()) == kFlag) {
      metrics_out = std::string(arg.substr(kFlag.size()));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  autoac::InitTelemetryFromFlag(metrics_out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  autoac::TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  autoac::ShutdownTelemetry(/*print_profile_table=*/false);
  return 0;
}
