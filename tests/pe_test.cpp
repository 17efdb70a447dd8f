// Tests for src/pe: activation queue, register files, SRAM banks, the
// processing element's V/U/W phase arithmetic, and the census's counts
// of the steps the PEs take.

#include <gtest/gtest.h>

#include "nn/quantized.hpp"
#include "pe/act_queue.hpp"
#include "pe/memory.hpp"
#include "pe/pe.hpp"
#include "pe/regfile.hpp"
#include "sim/census.hpp"
#include "sim/schedule.hpp"

namespace sparsenn {
namespace {

Flit flit(std::uint32_t index, std::int64_t payload) {
  return Flit{.index = index, .payload = payload, .source = 0};
}

TEST(ActQueue, FifoSemantics) {
  ActQueue q(3);
  EXPECT_TRUE(q.empty());
  q.push(flit(1, 10));
  q.push(flit(2, 20));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().index, 1u);
  q.pop();
  EXPECT_EQ(q.front().index, 2u);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.free_slots(), 2u);
}

TEST(ActQueue, OverflowAndUnderflowGuards) {
  ActQueue q(1);
  q.push(flit(1, 1));
  EXPECT_TRUE(q.full());
  EXPECT_THROW(q.push(flit(2, 2)), InvariantError);
  q.pop();
  EXPECT_THROW(q.pop(), std::invalid_argument);
}

TEST(RegFile, WriteClearAndBounds) {
  ActRegFile rf(8);
  rf.write(3, 42);
  EXPECT_EQ(rf.raw()[3], 42);
  EXPECT_THROW(rf.write(8, 1), std::invalid_argument);
  rf.clear();
  EXPECT_EQ(rf.raw()[3], 0);
}

TEST(RegFile, PingPongSwap) {
  PingPongRegFiles pp(4);
  pp.destination().write(0, 7);
  EXPECT_EQ(pp.source().raw()[0], 0);
  pp.swap();
  EXPECT_EQ(pp.source().raw()[0], 7);  // destination became source
}

TEST(SramBank, CapacityEnforced) {
  SramBank bank(1);  // 1KB = 512 words
  EXPECT_EQ(bank.capacity_words(), 512u);
  // The bank views caller-owned words (it no longer copies).
  const std::vector<std::int16_t> fits(512, 1);
  const std::vector<std::int16_t> overflows(513, 1);
  EXPECT_NO_THROW(bank.load_rows(fits, fits.size()));
  EXPECT_THROW(bank.load_rows(overflows, overflows.size()),
               std::invalid_argument);
}

TEST(SramBank, RowAccess) {
  SramBank bank(1);
  const std::vector<std::int16_t> words{1, 2, 3, 4, 5, 6};
  bank.load_rows(words, 3);
  EXPECT_EQ(bank.num_rows(), 2u);
  EXPECT_EQ(bank.read_row_word(1, 2), 6);
  EXPECT_THROW(bank.read_row_word(2, 0), std::invalid_argument);
  EXPECT_THROW(bank.read_row_word(0, 3), std::invalid_argument);
  const auto row = bank.row(0);
  EXPECT_EQ(row[0], 1);
  EXPECT_THROW(bank.row(2), std::invalid_argument);
}

// ---- ProcessingElement ----

ArchParams small_params() {
  ArchParams p;
  p.num_pes = 4;
  p.router_levels = 1;
  p.w_mem_kb_per_pe = 4;
  p.u_mem_kb_per_pe = 2;
  p.v_mem_kb_per_pe = 2;
  p.act_regs_per_pe = 8;
  return p;
}

/// Builds a quantised single-layer network and the slice for PE 0.
struct PeFixture {
  PeFixture() : params(small_params()) {
    Rng rng{77};
    Network net{{8, 6, 3}, rng};
    net.set_predictor(0, Predictor::random(6, 8, 2, rng));
    Matrix calib(4, 8, 0.5f);
    quantized.emplace(net, calib);
  }

  ArchParams params;
  std::optional<QuantizedNetwork> quantized;
};

TEST(ProcessingElement, InputScatteringByModulo) {
  PeFixture f;
  ProcessingElement pe(1, f.params);
  const OwnedPeSlice slice =
      make_pe_slice(f.quantized->layer(0), f.params, 1, true);
  pe.load_layer(slice.view);
  std::vector<std::int16_t> input{10, 11, 12, 13, 14, 15, 16, 17};
  pe.load_input(input);
  const auto nz = pe.scan_source_nonzeros();
  // PE 1 of 4 owns global indices 1 and 5.
  ASSERT_EQ(nz.size(), 2u);
  EXPECT_EQ(nz[0].index, 1u);
  EXPECT_EQ(nz[0].payload, 11);
  EXPECT_EQ(nz[1].index, 5u);
  EXPECT_EQ(nz[1].payload, 15);
}

TEST(ProcessingElement, WPhaseMatchesGoldenRows) {
  PeFixture f;
  const QuantizedLayer& layer = f.quantized->layer(0);

  // Quantise an input and compute the golden layer result.
  const Vector x{0.9f, 0.0f, 0.4f, 0.2f, 0.0f, 0.7f, 0.1f, 0.3f};
  const auto qx = f.quantized->quantize_input(x);
  const QuantizedLayerResult golden =
      f.quantized->forward_layer(0, qx, /*use_predictor=*/false);

  for (std::size_t pe_id = 0; pe_id < f.params.num_pes; ++pe_id) {
    ProcessingElement pe(pe_id, f.params);
    const OwnedPeSlice slice = make_pe_slice(layer, f.params, pe_id, true);
    pe.load_layer(slice.view);
    pe.load_input(qx);
    pe.force_all_rows_active();
    pe.start_w_phase();

    // Feed the PE every nonzero activation (order scrambled to check
    // commutativity), then drain the datapath.
    std::vector<Flit> acts;
    for (std::size_t i = 0; i < qx.size(); ++i)
      if (qx[i] != 0)
        acts.push_back(flit(static_cast<std::uint32_t>(i), qx[i]));
    std::rotate(acts.begin(), acts.begin() + acts.size() / 2, acts.end());
    for (const Flit& a : acts) {
      pe.enqueue_activation(a);
      while (!pe.w_done() || !pe.injections_done()) {
        if (pe.has_injection()) pe.pop_injection();
        if (!pe.step_w_consume()) break;
      }
    }
    while (pe.step_w_consume()) {
    }

    for (const auto& [global, value] : pe.write_back()) {
      EXPECT_EQ(value, golden.activations[global])
          << "PE " << pe_id << " row " << global;
    }
  }
}

TEST(ProcessingElement, VAndUPhasesReproducePredictorBits) {
  PeFixture f;
  const QuantizedLayer& layer = f.quantized->layer(0);
  const Vector x{0.9f, 0.0f, 0.4f, 0.2f, 0.0f, 0.7f, 0.1f, 0.3f};
  const auto qx = f.quantized->quantize_input(x);
  const QuantizedLayerResult golden =
      f.quantized->forward_layer(0, qx, /*use_predictor=*/true);

  // Run the V phase across all PEs manually: local partials, exact
  // reduction, rescale at the "root", then U per PE.
  const std::size_t rank = layer.rank();
  std::vector<std::int64_t> sums(rank, 0);
  std::vector<ProcessingElement> pes;
  std::vector<OwnedPeSlice> slices;  // must outlive the PEs' use
  for (std::size_t id = 0; id < f.params.num_pes; ++id) {
    pes.emplace_back(id, f.params);
    slices.push_back(make_pe_slice(layer, f.params, id, true));
    pes.back().load_layer(slices.back().view);
    pes.back().load_input(qx);
    pes.back().start_v_phase();
    while (!pes.back().v_compute_done()) pes.back().step_v_compute();
    while (pes.back().has_partial_ready()) {
      const Flit p = pes.back().peek_partial();
      sums[p.index] += p.payload;
      pes.back().pop_partial();
    }
  }
  const int from_frac =
      layer.in_fmt.frac_bits + layer.v->fmt.frac_bits;
  for (std::uint32_t row = 0; row < rank; ++row) {
    const std::int16_t s = rescale_to_i16(sums[row], from_frac,
                                          layer.mid_fmt.frac_bits);
    EXPECT_EQ(s, golden.v_result[row]) << "V row " << row;
    for (auto& pe : pes) pe.receive_v_result(row, s);
  }

  for (auto& pe : pes) {
    const std::size_t cycles = pe.run_u_phase();
    EXPECT_EQ(cycles, pe.predictor_bits().size() * rank);
    // Compare bits against the golden mask, row by mapped row.
    std::size_t local = 0;
    for (std::size_t global = pe.id(); global < layer.out_dim();
         global += f.params.num_pes, ++local) {
      EXPECT_EQ(pe.predictor_bits()[local], golden.mask[global])
          << "PE " << pe.id() << " global row " << global;
    }
  }
}

TEST(ProcessingElement, CapacityViolationSurfaces) {
  ArchParams p = small_params();
  p.w_mem_kb_per_pe = 1;  // 512 words only
  PeFixture f;
  ProcessingElement pe(0, p);
  OwnedPeSlice slice = make_pe_slice(f.quantized->layer(0), p, 0, true);
  // Inflate the W view beyond 512 words.
  const std::vector<std::int16_t> inflated(600, 1);
  slice.view.w_view = WordView::row_major(inflated, 8);
  EXPECT_THROW(pe.load_layer(slice.view), std::invalid_argument);
}

// The census (sim/census.hpp) counts a layer's events from each PE's
// work instead of from counters in the PE. Run one layer's V, U and W
// phases on all four PEs a step at a time, the way the per-cycle engine
// drives them, and check every count against the steps taken: each V
// or U step is one SRAM read, one MAC and one busy cycle; each W
// delivery is one queue push and pop at every PE and busies PE i for
// max(1, a_i) cycles, one W read and MAC per active row.
TEST(ProcessingElement, CensusCountsTheStepsThePesTake) {
  PeFixture f;
  const QuantizedLayer& layer = f.quantized->layer(0);
  const Vector x{0.9f, 0.0f, 0.4f, 0.2f, 0.0f, 0.7f, 0.1f, 0.3f};
  const auto qx = f.quantized->quantize_input(x);
  const std::size_t num_pes = f.params.num_pes;
  const std::size_t rank = layer.rank();
  ASSERT_GT(rank, 0u);

  std::vector<ProcessingElement> pes;
  std::vector<OwnedPeSlice> slices;  // must outlive the PEs' use
  std::vector<std::size_t> nnz(num_pes), active(num_pes);
  std::uint64_t v_steps = 0, partials = 0, inputs_read = 0;
  std::vector<std::int64_t> sums(rank, 0);
  for (std::size_t id = 0; id < num_pes; ++id) {
    pes.emplace_back(id, f.params);
    slices.push_back(make_pe_slice(layer, f.params, id, true));
    ProcessingElement& pe = pes.back();
    pe.load_layer(slices.back().view);
    pe.load_input(qx);
    nnz[id] = pe.scan_source_nonzeros().size();
    pe.start_v_phase();
    std::uint64_t steps = 0;
    while (!pe.v_compute_done()) {
      pe.step_v_compute();
      ++steps;
    }
    v_steps += steps;
    inputs_read += steps / rank;  // one register read per input column
    while (pe.has_partial_ready()) {
      const Flit p = pe.peek_partial();
      sums[p.index] += p.payload;
      pe.pop_partial();
      ++partials;
    }
  }
  const int from_frac = layer.in_fmt.frac_bits + layer.v->fmt.frac_bits;
  std::uint64_t results_queued = 0;
  for (std::uint32_t row = 0; row < rank; ++row) {
    for (auto& pe : pes) {
      pe.receive_v_result(row, rescale_to_i16(sums[row], from_frac,
                                              layer.mid_fmt.frac_bits));
      ++results_queued;
    }
  }
  std::uint64_t u_steps = 0, bank_rows = 0;
  for (auto& pe : pes) {
    u_steps += pe.run_u_phase();
    bank_rows += pe.predictor_bits().size();  // U writes, W reads
  }

  // Every PE injects its local nonzeros (one register read each); the
  // root broadcasts each to every PE.
  std::vector<Flit> deliveries;
  for (std::size_t id = 0; id < num_pes; ++id) {
    pes[id].start_w_phase();
    active[id] = pes[id].w_active_row_count();
    while (pes[id].has_injection()) {
      deliveries.push_back(pes[id].peek_injection());
      pes[id].pop_injection();
    }
  }
  std::uint64_t busy = 0, w_macs = 0, writes = 0;
  for (std::size_t id = 0; id < num_pes; ++id) {
    for (const Flit& d : deliveries) {
      pes[id].enqueue_activation(d);
      std::uint64_t cycles = 0;
      while (pes[id].step_w_consume()) ++cycles;
      EXPECT_EQ(cycles, std::max<std::size_t>(1, active[id]));
      busy += cycles;
    }
    EXPECT_TRUE(pes[id].w_done());
    w_macs += deliveries.size() * active[id];
    writes += pes[id].write_back().size();
  }
  // PE 0 maps rows {0, 4} of the 6-row layer.
  EXPECT_EQ(pes[0].predictor_bits().size(), 2u);
  ASSERT_EQ(deliveries.size(), 6u);  // x has 6 nonzeros
  EXPECT_EQ(v_steps, deliveries.size() * rank);

  const EventCounts e =
      take_census(f.params, {layer.out_dim(), rank, nnz, active}, 0).events;
  EXPECT_EQ(e.v_mem_reads, v_steps);
  EXPECT_EQ(e.u_mem_reads, u_steps);
  EXPECT_EQ(e.w_mem_reads, w_macs);
  EXPECT_EQ(e.macs, v_steps + u_steps + w_macs);
  EXPECT_EQ(e.pe_active_cycles, v_steps + partials + u_steps + busy);
  EXPECT_EQ(e.queue_ops, results_queued + 2 * deliveries.size() * num_pes);
  EXPECT_EQ(e.act_reg_reads, inputs_read + deliveries.size());
  EXPECT_EQ(e.act_reg_writes, writes);
  EXPECT_EQ(e.lnzd_scans, inputs_read + deliveries.size());
  EXPECT_EQ(e.predictor_bits, 2 * bank_rows);
}

}  // namespace
}  // namespace sparsenn
