// google-benchmark microbenchmarks of the computational kernels the
// reproduction is built on: the fixed-point SIMD kernel layer
// (common/kernels.hpp, scalar reference vs every ISA this host can
// run), dense matvec, truncated SVD, quantisation, the paper net's
// QuantizedNetwork constructor, router arbitration throughput, and the
// PE W-phase consumption loop.
//
// Run with --benchmark_format=json for a machine-readable section; the
// custom context records the dispatched SIMD ISA so recorded numbers
// carry their dispatch context ("simd_isa_active", "simd_isa_detected").

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "arch/params.hpp"
#include "common/fixed_point.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "data/dataset.hpp"
#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "noc/htree.hpp"
#include "tensor/matrix.hpp"
#include "tensor/svd.hpp"

namespace {

using namespace sparsenn;

// ---- fixed-point kernel layer: scalar reference vs dispatched ISA ----

struct KernelInputs {
  std::vector<std::int16_t> a;
  std::vector<std::int16_t> b;
  std::vector<std::int64_t> acc;
  std::vector<std::uint32_t> idx;
  std::vector<float> floats;
  std::vector<std::int16_t> out16;
  std::vector<std::uint32_t> out32;
};

KernelInputs make_kernel_inputs(std::size_t n, double density) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> val(-32768, 32767);
  std::bernoulli_distribution keep(density);
  KernelInputs in;
  in.a.resize(n);
  in.b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.a[i] = keep(rng) ? static_cast<std::int16_t>(val(rng)) : 0;
    in.b[i] = static_cast<std::int16_t>(val(rng));
  }
  in.acc.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    if (in.a[i] != 0) in.idx.push_back(static_cast<std::uint32_t>(i));
  std::uniform_real_distribution<float> f(-40.0f, 40.0f);
  in.floats.resize(n);
  for (auto& v : in.floats) v = f(rng);
  in.out16.resize(n);
  in.out32.resize(n);
  return in;
}

const KernelTable& table_for(bool dispatched) {
  return dispatched ? kernels() : scalar_kernels();
}

void BM_KernelAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& k = table_for(state.range(1) != 0);
  KernelInputs in = make_kernel_inputs(n, 1.0);
  for (auto _ : state) {
    k.axpy_i16_i64(in.acc.data(), in.a.data(), 1234, n);
    benchmark::DoNotOptimize(in.acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(to_string(k.isa));
}
BENCHMARK(BM_KernelAxpy)->ArgsProduct({{256}, {0, 1}});

void BM_KernelSparseMatvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& k = table_for(state.range(1) != 0);
  const std::size_t m = 256;
  KernelInputs in = make_kernel_inputs(n, 0.4);
  std::vector<std::int16_t> cols(n * m);
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> val(-32768, 32767);
  for (auto& v : cols) v = static_cast<std::int16_t>(val(rng));
  std::vector<std::int64_t> acc(m, 0);
  for (auto _ : state) {
    k.sparse_matvec_i16_i64(acc.data(), cols.data(), m, in.idx.data(),
                            in.idx.size(), in.a.data());
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in.idx.size() * m));
  state.SetLabel(to_string(k.isa));
}
BENCHMARK(BM_KernelSparseMatvec)->ArgsProduct({{784}, {0, 1}});

void BM_KernelNonzeroScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& k = table_for(state.range(1) != 0);
  KernelInputs in = make_kernel_inputs(n, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k.nonzero_scan_i16(in.a.data(), n, in.out32.data()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(to_string(k.isa));
}
BENCHMARK(BM_KernelNonzeroScan)->ArgsProduct({{784}, {0, 1}});

void BM_KernelPredictBits(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  const auto& k = table_for(state.range(1) != 0);
  const std::size_t rows = 256;
  KernelInputs in = make_kernel_inputs(rows * rank, 1.0);
  std::vector<std::uint8_t> bits(rows);
  for (auto _ : state) {
    k.predict_bits_i16(in.a.data(), rank, rows, rank, in.b.data(), 0,
                       bits.data());
    benchmark::DoNotOptimize(bits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * rank));
  state.SetLabel(to_string(k.isa));
}
BENCHMARK(BM_KernelPredictBits)->ArgsProduct({{15}, {0, 1}});

void BM_KernelQuantize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto& k = table_for(state.range(1) != 0);
  KernelInputs in = make_kernel_inputs(n, 1.0);
  for (auto _ : state) {
    k.quantize_f32_i16(in.floats.data(), n, 512.0f, in.out16.data());
    benchmark::DoNotOptimize(in.out16.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(to_string(k.isa));
}
BENCHMARK(BM_KernelQuantize)->ArgsProduct({{784}, {0, 1}});

void BM_Matvec(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{1};
  const Matrix a = Matrix::randn(n, n, 0.1f, rng);
  Vector x(n, 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matvec(a, x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_Matvec)->Arg(256)->Arg(512)->Arg(1024);

void BM_TruncatedSvd(benchmark::State& state) {
  const auto rank = static_cast<std::size_t>(state.range(0));
  Rng rng{2};
  const Matrix w = Matrix::randn(512, 512, 0.1f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(truncated_svd(w, rank));
  }
}
BENCHMARK(BM_TruncatedSvd)->Arg(5)->Arg(15)->Arg(50);

void BM_Quantize(benchmark::State& state) {
  Rng rng{3};
  std::vector<float> values(1 << 16);
  for (float& v : values) v = static_cast<float>(rng.normal(0.0, 1.0));
  const FixedPointFormat fmt = choose_format(values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quantize(values, fmt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_Quantize);

/// Deployment of the paper net (784-1000-1000-1000-10, rank-15 random
/// predictors) calibrated on the first 8 or 64 MNIST-BASIC training
/// images: perfbench's sweeps calibrate on 8, System and the CLI on 64.
void BM_QuantizedNetworkCtor(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  Rng rng{4};
  Network net{five_layer_topology(1000), rng};
  for (std::size_t l = 0; l < net.num_hidden_layers(); ++l) {
    const auto sizes = net.layer_sizes();
    net.set_predictor(l, Predictor::random(sizes[l + 1], sizes[l], 15, rng));
  }
  const DatasetSplit data = make_dataset(
      DatasetVariant::kBasic, {.train_size = 64, .test_size = 1});
  for (auto _ : state) {
    const QuantizedNetwork quantized(net, data.train.inputs, rows);
    benchmark::DoNotOptimize(quantized.layer(0).w_t.data.data());
  }
}
BENCHMARK(BM_QuantizedNetworkCtor)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_HTreeThroughput(benchmark::State& state) {
  const ArchParams params = ArchParams::paper();
  const auto per_pe = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    UpwardTree tree(params, RouterMode::kArbitrate);
    std::vector<std::size_t> cursor(params.num_pes, 0);
    std::size_t received = 0;
    const std::size_t expected = params.num_pes * per_pe;
    std::uint64_t cycles = 0;
    while (received < expected) {
      ++cycles;
      for (std::size_t pe = 0; pe < params.num_pes; ++pe) {
        if (cursor[pe] < per_pe && tree.can_inject(pe)) {
          tree.inject(pe,
                      Flit{.index = static_cast<std::uint32_t>(
                               pe + cursor[pe] * params.num_pes),
                           .payload = 1,
                           .source = static_cast<std::uint16_t>(pe)});
          ++cursor[pe];
        }
      }
      if (tree.step(true)) ++received;
    }
    benchmark::DoNotOptimize(cycles);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(params.num_pes * per_pe));
}
BENCHMARK(BM_HTreeThroughput)->Arg(8)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  // Stamp the dispatch context into the (JSON) output so recorded
  // numbers say which ISA produced them.
  benchmark::AddCustomContext("simd_isa_active",
                              to_string(active_simd_isa()));
  benchmark::AddCustomContext("simd_isa_detected",
                              to_string(detect_simd_isa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
