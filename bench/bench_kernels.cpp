// Kernel microbenchmarks — the naive seed loops vs the im2col+SGEMM backend
// (fl/gemm.h), plus one MLP training step and one end-to-end FedAvg round
// under each backend, and the five GEMM calls of an MLP step at four and at
// eight lanes (the 8-lane rows only on hosts with AVX2). The
// speedup table at the bottom is the acceptance evidence for ISSUE 3
// (>= 3x Conv2D forward, >= 2x FedAvg round vs the serial seed kernels);
// docs/PERFORMANCE.md records the measured numbers. threads=N sizes the
// shared pool (bench::parse_args), so the same binary produces the thread
// sweep columns.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/fedavg.h"
#include "fl/gemm.h"
#include "fl/gemm_kernels.h"
#include "fl/layers.h"
#include "fl/loss.h"
#include "obs/metrics.h"

using namespace tradefl;

namespace {

void fill_random(float* data, std::size_t count, Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    data[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
}

/// The seed's reference matmul: plain triple loop, C = A(m,k) * B(k,n).
void naive_matmul(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
                  float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

void bm_sgemm(benchmark::State& state, std::size_t dim, bool use_gemm) {
  Rng rng(11);
  std::vector<float> a(dim * dim), b(dim * dim), c(dim * dim);
  fill_random(a.data(), a.size(), rng);
  fill_random(b.data(), b.size(), rng);
  for (auto _ : state) {
    if (use_gemm) {
      fl::gemm::sgemm_nn(dim, dim, dim, a.data(), dim, b.data(), dim, /*accumulate=*/false,
                         c.data(), dim, global_pool());
    } else {
      naive_matmul(dim, dim, dim, a.data(), b.data(), c.data());
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}

void bm_conv2d(benchmark::State& state, fl::KernelBackend backend, bool backward,
               std::size_t batch) {
  Rng rng(7);
  fl::Conv2D conv(8, 16, 3, 1, 1, 1, rng);
  fl::Tensor input({batch, 8, 12, 12});
  fill_random(input.data(), input.size(), rng);
  fl::set_kernel_backend(backend);
  fl::Tensor output = conv.forward(input, /*training=*/true);
  fl::Tensor grad(output.shape(), 0.01f);
  for (auto _ : state) {
    if (backward) {
      for (fl::Param* param : conv.parameters()) param->grad.fill(0.0f);
      fl::Tensor grad_input = conv.backward(grad);
      benchmark::DoNotOptimize(grad_input.data());
    } else {
      fl::Tensor out = conv.forward(input, /*training=*/true);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  fl::set_kernel_backend(fl::KernelBackend::kGemm);
}

void bm_dense(benchmark::State& state, fl::KernelBackend backend, bool backward,
              std::size_t in_features, std::size_t out_features, std::size_t batch) {
  Rng rng(13);
  fl::Dense dense(in_features, out_features, rng);
  fl::Tensor input({batch, in_features});
  fill_random(input.data(), input.size(), rng);
  fl::set_kernel_backend(backend);
  fl::Tensor output = dense.forward(input, /*training=*/true);
  fl::Tensor grad(output.shape(), 0.01f);
  for (auto _ : state) {
    if (backward) {
      for (fl::Param* param : dense.parameters()) param->grad.fill(0.0f);
      fl::Tensor grad_input = dense.backward(grad);
      benchmark::DoNotOptimize(grad_input.data());
    } else {
      fl::Tensor out = dense.forward(input, /*training=*/true);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  fl::set_kernel_backend(fl::KernelBackend::kGemm);
}

/// One SGD step of the MLP perfbench's train_mlp trains (12x12 -> 32 -> 10,
/// batch 32), as fl::train_local runs it: zero_grad, gather, forward, loss,
/// backward, step. Each call takes the next batch of a 1,024-sample shard, so
/// the ReLU sees fresh signs every call, as it does in training.
void bm_mlp_step(benchmark::State& state, fl::KernelBackend backend) {
  constexpr std::size_t kBatch = 32;
  const std::uint64_t seed = 42;
  const auto spec = fl::DatasetSpec::builtin(fl::DatasetKind::kFmnistLike, seed);
  const fl::Dataset data(spec.with_sample_seed(seed + 1), 1024);
  fl::ModelSpec model;
  model.kind = fl::ModelKind::kMlp;
  model.channels = spec.channels;
  model.height = spec.height;
  model.width = spec.width;
  model.classes = spec.classes;
  model.seed = seed;
  fl::Net net = fl::build_model(model);
  fl::Sgd optimizer;
  Rng rng(seed);
  const std::vector<std::size_t> order = rng.permutation(data.size());
  std::vector<std::size_t> labels;
  std::size_t start = 0;
  fl::set_kernel_backend(backend);
  for (auto _ : state) {
    if (start + kBatch > order.size()) start = 0;
    const std::size_t* batch = order.data() + start;
    net.zero_grad();
    const fl::Tensor logits = net.forward(data.batch_span(batch, kBatch), /*training=*/true);
    data.batch_labels_into(batch, kBatch, labels);
    const fl::LossResult loss = fl::softmax_cross_entropy(logits, labels.data(), kBatch);
    net.backward(loss.grad);
    optimizer.step(net.parameters());
    start += kBatch;
    benchmark::DoNotOptimize(loss.mean_loss);
  }
  fl::set_kernel_backend(fl::KernelBackend::kGemm);
}

/// One full FedAvg round (3 clients, AlexNet-lite on the FMNIST profile).
void bm_fedavg_round(benchmark::State& state, fl::KernelBackend backend, std::size_t samples) {
  const std::uint64_t seed = 42;
  const auto spec = fl::DatasetSpec::builtin(fl::DatasetKind::kFmnistLike, seed);
  std::vector<fl::Dataset> locals;
  locals.reserve(3);
  for (std::size_t i = 0; i < 3; ++i) {
    locals.emplace_back(spec.with_sample_seed(seed + i + 1), samples);
  }
  std::vector<fl::FedClient> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.push_back(fl::FedClient{&locals[i], 0.8, seed * 31 + i});
  }
  const fl::Dataset test_set(spec.with_sample_seed(seed + 999), samples);
  fl::ModelSpec model;
  model.kind = fl::ModelKind::kAlexNetLite;
  model.channels = spec.channels;
  model.height = spec.height;
  model.width = spec.width;
  model.classes = spec.classes;
  model.seed = seed;
  fl::FedAvgOptions options;
  options.rounds = 1;
  options.local_epochs = 1;
  fl::set_kernel_backend(backend);
  for (auto _ : state) {
    const fl::FedAvgResult result = fl::train_fedavg(model, clients, test_set, options);
    benchmark::DoNotOptimize(result.final_accuracy);
  }
  fl::set_kernel_backend(fl::KernelBackend::kGemm);
}

/// One of the five GEMM calls of an MLP step (train_mlp's 144 -> 32 -> 10,
/// batch 32), serial, on the kernels of one vector width.
struct MlpCall {
  const char* name;  // row label; the shape is (m, n, k)
  char kernel;       // 'n' = nn, 't' = nt, 'T' = tn
  std::size_t m, n, k;
};

constexpr MlpCall kMlpCalls[] = {
    {"nt(32,32,144)", 't', 32, 32, 144},  // first-layer forward
    {"tn(32,144,32)", 'T', 32, 144, 32},  // first-layer dW
    {"tn(10,32,32)", 'T', 10, 32, 32},    // second-layer dW
    {"nt(32,10,32)", 't', 32, 10, 32},    // second-layer forward
    {"nn(32,32,10)", 'n', 32, 32, 10},    // second-layer dX
};

void bm_mlp_gemm(benchmark::State& state, const fl::gemm::detail::KernelSet* set,
                 MlpCall call) {
  Rng rng(17);
  std::vector<float> a(call.m * call.k), b(call.k * call.n), c(call.m * call.n);
  fill_random(a.data(), a.size(), rng);
  fill_random(b.data(), b.size(), rng);
  const fl::gemm::detail::GemmFn kernel =
      call.kernel == 'n' ? set->nn : call.kernel == 't' ? set->nt : set->tn;
  const std::size_t lda = call.kernel == 'T' ? call.m : call.k;
  const std::size_t ldb = call.kernel == 't' ? call.k : call.n;
  for (auto _ : state) {
    kernel(call.m, call.n, call.k, a.data(), lda, b.data(), ldb, /*accumulate=*/false, c.data(),
           call.n, nullptr);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
}

/// Console reporter that also captures seconds/iteration per benchmark so the
/// speedup table (and the manifest gauges) can be computed afterwards.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const double iterations =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      // Fixed-iteration runs report as "name/iterations:N"; key by the name.
      std::string name = run.benchmark_name();
      if (const auto cut = name.find("/iterations:"); cut != std::string::npos) {
        name.resize(cut);
      }
      seconds_[name] = run.real_accumulated_time / iterations;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  [[nodiscard]] double seconds(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_;
};

}  // namespace

int main(int argc, char** argv) {
  const Config config = bench::parse_args(argc, argv);
  bench::banner("kernels",
                "im2col+SGEMM backend and the parallel execution layer beat the "
                "naive seed kernels (>= 3x Conv2D forward, >= 2x FedAvg round)");

  const bool fast = config.get_bool("fast", false);
  const std::size_t dim = fast ? 48 : 96;
  const std::size_t conv_batch = fast ? 8 : 16;
  const std::size_t dense_batch = fast ? 16 : 64;
  const std::size_t samples = fast ? 40 : 120;
  const auto iters = [fast](long long n) { return fast ? std::max(1LL, n / 4) : n; };

  benchmark::RegisterBenchmark("sgemm/naive", bm_sgemm, dim, false)
      ->Iterations(iters(40))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("sgemm/gemm", bm_sgemm, dim, true)
      ->Iterations(iters(40))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("conv2d_fwd/naive", bm_conv2d, fl::KernelBackend::kNaive, false,
                               conv_batch)
      ->Iterations(iters(40))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("conv2d_fwd/gemm", bm_conv2d, fl::KernelBackend::kGemm, false,
                               conv_batch)
      ->Iterations(iters(40))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("conv2d_bwd/naive", bm_conv2d, fl::KernelBackend::kNaive, true,
                               conv_batch)
      ->Iterations(iters(20))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("conv2d_bwd/gemm", bm_conv2d, fl::KernelBackend::kGemm, true,
                               conv_batch)
      ->Iterations(iters(20))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_fwd/naive", bm_dense, fl::KernelBackend::kNaive, false,
                               256, 128, dense_batch)
      ->Iterations(iters(200))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_fwd/gemm", bm_dense, fl::KernelBackend::kGemm, false,
                               256, 128, dense_batch)
      ->Iterations(iters(200))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_bwd/naive", bm_dense, fl::KernelBackend::kNaive, true,
                               256, 128, dense_batch)
      ->Iterations(iters(100))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_bwd/gemm", bm_dense, fl::KernelBackend::kGemm, true,
                               256, 128, dense_batch)
      ->Iterations(iters(100))->Unit(benchmark::kMicrosecond);
  // The MLP's first layer as perfbench's train_mlp trains it (144 -> 32,
  // batch 32); backward here is the full one, input gradient included.
  benchmark::RegisterBenchmark("dense_mlp_fwd/naive", bm_dense, fl::KernelBackend::kNaive,
                               false, 144, 32, 32)
      ->Iterations(iters(800))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_mlp_fwd/gemm", bm_dense, fl::KernelBackend::kGemm, false,
                               144, 32, 32)
      ->Iterations(iters(800))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_mlp_bwd/naive", bm_dense, fl::KernelBackend::kNaive,
                               true, 144, 32, 32)
      ->Iterations(iters(800))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("dense_mlp_bwd/gemm", bm_dense, fl::KernelBackend::kGemm, true,
                               144, 32, 32)
      ->Iterations(iters(800))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("mlp_step/naive", bm_mlp_step, fl::KernelBackend::kNaive)
      ->Iterations(iters(2000))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("mlp_step/gemm", bm_mlp_step, fl::KernelBackend::kGemm)
      ->Iterations(iters(2000))->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark("fedavg_round/naive", bm_fedavg_round,
                               fl::KernelBackend::kNaive, samples)
      ->Iterations(iters(4))->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("fedavg_round/gemm", bm_fedavg_round, fl::KernelBackend::kGemm,
                               samples)
      ->Iterations(iters(4))->Unit(benchmark::kMillisecond);

  // The GEMM rung at each width, through the private per-width entry points.
  const fl::gemm::detail::KernelSet* eight = fl::gemm::detail::eight_lanes();
  for (const MlpCall& call : kMlpCalls) {
    benchmark::RegisterBenchmark((std::string("mlp_gemm/") + call.name + "/4").c_str(),
                                 bm_mlp_gemm, &fl::gemm::detail::four_lanes(), call)
        ->Iterations(iters(6000))->Unit(benchmark::kMicrosecond);
    if (eight != nullptr) {
      benchmark::RegisterBenchmark((std::string("mlp_gemm/") + call.name + "/8").c_str(),
                                   bm_mlp_gemm, eight, call)
          ->Iterations(iters(6000))->Unit(benchmark::kMicrosecond);
    }
  }
  if (eight == nullptr) std::printf("no AVX2 on this host: the 8-lane mlp_gemm rows are skipped\n");

  benchmark::Initialize(&argc, argv);
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  AsciiTable table({"kernel", "naive us/iter", "gemm us/iter", "speedup"});
  CsvWriter csv({"kernel", "naive_us", "gemm_us", "speedup"});
  for (const char* kernel :
       {"sgemm", "conv2d_fwd", "conv2d_bwd", "dense_fwd", "dense_bwd", "dense_mlp_fwd",
        "dense_mlp_bwd", "mlp_step", "fedavg_round"}) {
    const double naive = reporter.seconds(std::string(kernel) + "/naive");
    const double with_gemm = reporter.seconds(std::string(kernel) + "/gemm");
    const double speedup = with_gemm > 0.0 ? naive / with_gemm : 0.0;
    table.add_labeled_row(kernel, {naive * 1e6, with_gemm * 1e6, speedup}, 3);
    csv.add_row({kernel, format_double(naive * 1e6, 3), format_double(with_gemm * 1e6, 3),
                 format_double(speedup, 3)});
    obs::metrics().gauge(std::string("bench.") + kernel + ".speedup").set(speedup);
  }
  std::printf("threads=%zu\n", global_threads());
  bench::emit(config, "kernels", table, &csv);

  AsciiTable lanes_table({"mlp gemm call", "4 lanes us", "8 lanes us", "4 / 8"});
  CsvWriter lanes_csv({"call", "lanes4_us", "lanes8_us", "ratio"});
  for (const MlpCall& call : kMlpCalls) {
    const std::string row = std::string("mlp_gemm/") + call.name;
    const double four_lanes = reporter.seconds(row + "/4");
    const double eight_lanes = reporter.seconds(row + "/8");
    const double ratio = eight_lanes > 0.0 ? four_lanes / eight_lanes : 0.0;
    lanes_table.add_labeled_row(call.name, {four_lanes * 1e6, eight_lanes * 1e6, ratio}, 3);
    lanes_csv.add_row({call.name, format_double(four_lanes * 1e6, 3),
                       format_double(eight_lanes * 1e6, 3), format_double(ratio, 3)});
  }
  std::printf("gemm lanes=%zu\n", fl::gemm::detail::selected().lanes);
  bench::emit(config, "kernels_lanes", lanes_table, &lanes_csv);
  if (!bench::write_manifest(config, "kernels").ok()) return 1;
  return 0;
}
