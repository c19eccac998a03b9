// Tests for the Section 3.2/3.3 architecture features: operand-storage
// models, ILP co-execution (functional units), and hashed module placement
// coupled into the machine's step costs.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "machine/machine.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::machine {
namespace {

MachineConfig cfg1() {
  MachineConfig cfg;
  cfg.groups = 1;
  cfg.slots_per_group = 16;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  return cfg;
}

Cycle spin_cycles(MachineConfig cfg, Word thickness, Word instrs) {
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(thickness, instrs));
  m.boot(1);
  const auto r = m.run();
  TCFPN_CHECK(r.completed, "spin did not halt");
  return r.cycles;
}

TEST(OperandStorage, CachedIsFreeWithinCache) {
  auto cfg = cfg1();
  cfg.operand_storage = OperandStorage::kCachedRegisterFile;
  cfg.register_cache_words = 1024;  // 64 lanes at R=16
  cfg.register_spill_penalty = 3;
  // Thickness 32 fits the cache entirely: cost equals the zero-penalty run.
  auto zero = cfg;
  zero.register_spill_penalty = 0;
  EXPECT_EQ(spin_cycles(cfg, 32, 16), spin_cycles(zero, 32, 16));
}

TEST(OperandStorage, SpillPenaltyAppearsBeyondCache) {
  auto cfg = cfg1();
  cfg.register_cache_words = 256;  // 16 cached lanes
  cfg.register_spill_penalty = 2;
  auto roomy = cfg;
  roomy.register_cache_words = 4096;
  const Cycle tight = spin_cycles(cfg, 64, 16);
  const Cycle loose = spin_cycles(roomy, 64, 16);
  // 48 uncached lanes × penalty 2 × 16 instructions extra.
  EXPECT_EQ(tight - loose, 48u * 2u * 16u);
}

TEST(OperandStorage, MemoryToMemoryFlatCost) {
  auto cfg = cfg1();
  cfg.operand_storage = OperandStorage::kMemoryToMemory;
  auto cached = cfg1();
  cached.register_spill_penalty = 0;
  // Every lane op pays +2: exactly 3x the op cost on ALU payloads.
  const Cycle m2m = spin_cycles(cfg, 32, 8);
  const Cycle reg = spin_cycles(cached, 32, 8);
  EXPECT_GT(m2m, 2 * reg);
  EXPECT_LT(m2m, 4 * reg);
}

TEST(OperandStorage, LocalMemoryTracksLatency) {
  auto a = cfg1();
  a.operand_storage = OperandStorage::kLocalMemory;
  a.local_latency = 1;
  auto b = a;
  b.local_latency = 4;
  EXPECT_LT(spin_cycles(a, 32, 8), spin_cycles(b, 32, 8));
}

TEST(OperandStorage, NamesRoundTrip) {
  EXPECT_STREQ(to_string(OperandStorage::kCachedRegisterFile),
               "cached-register-file");
  EXPECT_STREQ(to_string(OperandStorage::kMemoryToMemory),
               "memory-to-memory");
  EXPECT_STREQ(to_string(OperandStorage::kLocalMemory), "local-memory");
}

class IlpSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IlpSweep, ThickWorkScalesWithFunctionalUnits) {
  const std::uint32_t fu = GetParam();
  auto base = cfg1();
  base.register_spill_penalty = 0;
  auto wide = base;
  wide.functional_units = fu;
  const Cycle c1 = spin_cycles(base, 256, 8);
  const Cycle cw = spin_cycles(wide, 256, 8);
  const double speedup = static_cast<double>(c1) / static_cast<double>(cw);
  EXPECT_GT(speedup, 0.85 * fu);
  EXPECT_LE(speedup, static_cast<double>(fu) + 0.01);
}

TEST_P(IlpSweep, ThinWorkDoesNotScale) {
  const std::uint32_t fu = GetParam();
  auto base = cfg1();
  auto wide = base;
  wide.functional_units = fu;
  EXPECT_EQ(spin_cycles(base, 1, 8), spin_cycles(wide, 1, 8));
}

INSTANTIATE_TEST_SUITE_P(Units, IlpSweep, ::testing::Values(2u, 4u, 8u),
                         [](const auto& inf) {
                           return "fu" + std::to_string(inf.param);
                         });

TEST(IlpSweep, ResultsUnchangedByIssueWidth) {
  for (std::uint32_t fu : {1u, 4u}) {
    auto cfg = cfg1();
    cfg.functional_units = fu;
    Machine m(cfg);
    m.load(tcf::kernels::scan_doubling_tcf(16, 16));
    for (Word i = 0; i < 16; ++i) m.shared().poke(16 + i, 1);
    m.boot(1);
    ASSERT_TRUE(m.run().completed);
    for (Word i = 0; i < 16; ++i) {
      EXPECT_EQ(m.shared().peek(16 + i), i + 1) << "fu=" << fu;
    }
  }
}

TEST(Placement, AddressHashPlumbsThroughMachine) {
  // The full behavioural sweep is `tcfpaper AB3`; here we
  // verify the SharedMemory hook is used by machine execution and results
  // are placement-independent.
  MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 16;
  cfg.shared_words = 1 << 16;
  Machine m(cfg);
  bool hash_used = false;
  m.shared().set_address_hash([&](Addr a) {
    hash_used = true;
    return static_cast<std::uint32_t>((a / 7) % 4);
  });
  m.load(tcf::kernels::vecadd_tcf(16, 100, 200, 300));
  m.boot(1);
  ASSERT_TRUE(m.run().completed);
  EXPECT_TRUE(hash_used);
  for (Word i = 0; i < 16; ++i) {
    EXPECT_EQ(m.shared().peek(300 + i), m.shared().peek(100 + i) +
                                            m.shared().peek(200 + i));
  }
}

}  // namespace
}  // namespace tcfpn::machine
