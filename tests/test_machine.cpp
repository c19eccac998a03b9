// Core machine-simulator tests: instruction semantics, thickness control,
// lockstep memory visibility, spawning/joining, NUMA blocks, counters.
#include <gtest/gtest.h>

#include "baseline/frontends.hpp"
#include "common/check.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "machine/shapes.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::machine {
namespace {

MachineConfig small_cfg() {
  MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 8;
  cfg.shared_words = 1 << 14;
  cfg.local_words = 1 << 10;
  cfg.topology = net::TopologyKind::kMesh2D;
  return cfg;
}

TEST(MachineBasic, VecAddTcfComputesCorrectly) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 10;
  const Addr a = 100, b = 200, c = 300;
  m.load(tcf::kernels::vecadd_tcf(n, a, b, c));
  for (Word i = 0; i < n; ++i) {
    m.shared().poke(a + i, i);
    m.shared().poke(b + i, 100 + i);
  }
  m.boot(1);
  const auto run = m.run();
  EXPECT_TRUE(run.completed);
  for (Word i = 0; i < n; ++i) {
    EXPECT_EQ(m.shared().peek(c + i), 100 + 2 * i) << "element " << i;
  }
  // SETTHICK + LD + LD + ADD + ST + HALT: one fetch per TCF instruction
  // regardless of thickness — the headline economy of the model.
  EXPECT_EQ(m.stats().instruction_fetches, 6u);
  EXPECT_EQ(m.stats().tcf_instructions, 6u);
  EXPECT_EQ(m.stats().operations, 2u + 4u * n);
  EXPECT_EQ(m.stats().steps, 6u);
}

TEST(MachineBasic, DeterministicCycleCounts) {
  auto run_once = [] {
    auto cfg = small_cfg();
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(64, 100, 200, 300));
    m.boot(1);
    m.run();
    return m.stats().cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MachineBasic, ThicknessQueryAndTid) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const auto p = isa::assemble(R"(
      SETTHICK 5
      TID r1
      THICK r2
      ST r1, [r0+50+@]
      ST r2, [r0+60+@]
      HALT
  )");
  m.load(p);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 5; ++i) {
    EXPECT_EQ(m.shared().peek(50 + i), i);
    EXPECT_EQ(m.shared().peek(60 + i), 5);
  }
}

TEST(MachineBasic, SetThickZeroHaltsFlow) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("SETTHICK 0\nST r1, [r0+5]\nHALT"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(5), 0);  // store never executed
}

TEST(MachineBasic, GrowingThicknessBroadcastsLaneZeroRegs) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 77
      SETTHICK 4
      ST r1, [r0+10+@]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 4; ++i) EXPECT_EQ(m.shared().peek(10 + i), 77);
}

TEST(MachineBasic, LockstepVisibilityAcrossSteps) {
  // Writes of step s are visible at step s+1, not within s.
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 1
      ST r1, [r0+20]
      LD r2, [r0+20]   ; same flow: forwarding gives 1
      ST r2, [r0+21]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(20), 1);
  EXPECT_EQ(m.shared().peek(21), 1);
}

TEST(MachineBasic, DependentScanIsCorrect) {
  // The Section 4 dependent loop: log-time inclusive scan with no explicit
  // synchronisation — lockstep PRAM semantics carry the dependence.
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 16;
  const Addr data = 64;  // guard zeros live at 48..63
  m.load(tcf::kernels::scan_doubling_tcf(n, data));
  for (Word i = 0; i < n; ++i) m.shared().poke(data + i, i + 1);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  Word expect = 0;
  for (Word i = 0; i < n; ++i) {
    expect += i + 1;
    EXPECT_EQ(m.shared().peek(data + i), expect) << "element " << i;
  }
}

TEST(MachineBasic, DivergentBranchFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      SETTHICK 4
      TID r1
      BNEZ r1, 0     ; lane 0 disagrees with lanes 1..3
      HALT
  )"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, UniformBranchLoops) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      SETTHICK 4
      LDI r1, 3
  loop: SUB r1, r1, 1
      BNEZ r1, loop
      ST r1, [r0+9+@]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 4; ++i) EXPECT_EQ(m.shared().peek(9 + i), 0);
}

TEST(MachineBasic, CallReturnAtFlowLevel) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      helper: ADD r1, r1, 10
              RET
      main:   SETTHICK 3
              LDI r1, 5
              CALL helper
              CALL helper
              ST r1, [r0+30+@]
              HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 3; ++i) EXPECT_EQ(m.shared().peek(30 + i), 25);
}

TEST(MachineBasic, RetWithoutCallFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("RET"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, RunningOffProgramEndFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("NOP"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, DivisionByZeroFaults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("LDI r1, 4\nDIV r2, r1, r0\nHALT"));
  m.boot(1);
  EXPECT_THROW(m.run(), SimError);
}

TEST(MachineBasic, PrintCollectsDebugOutput) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("LDI r1, 42\nPRINT r1\nPRINT 7\nHALT"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{42, 7}));
}

TEST(MachineSpawn, ParallelSplitJoin) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 12;
  const Addr a = 100, b = 200, c = 300;
  m.load(tcf::kernels::cond_split_tcf(n, a, b, c));
  for (Word i = 0; i < n; ++i) {
    m.shared().poke(a + i, 2 * i);
    m.shared().poke(b + i, 3 * i);
    m.shared().poke(c + i, -1);
  }
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < n / 2; ++i) EXPECT_EQ(m.shared().peek(c + i), 5 * i);
  for (Word i = n / 2; i < n; ++i) EXPECT_EQ(m.shared().peek(c + i), 0);
  EXPECT_EQ(m.stats().spawns, 2u);
  EXPECT_GE(m.stats().joins, 1u);
  EXPECT_GT(m.stats().branch_cost_cycles, 0u);
}

TEST(MachineSpawn, NestedSpawns) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      main:  LDI r1, 2
             SPAWN r1, mid
             JOINALL
             PRINT 1
             HALT
      mid:   LDI r2, 3
             SPAWN r2, leaf
             JOINALL
             HALT
      leaf:  MPADD r3, [r0+40]   ; r3 == 0 contributes nothing
             LDI r4, 1
             MPADD r4, [r0+41]
             HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  // SPAWN is flow-level: main creates ONE mid flow (thickness 2), which
  // creates ONE leaf flow (thickness 3) whose 3 lanes add 1 to cell 41.
  EXPECT_EQ(m.shared().peek(41), 3);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{1}));
  EXPECT_EQ(m.stats().spawns, 2u);
}

TEST(MachineSpawn, SpawnThicknessZeroIsNoChild) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      main: SPAWN r1, child    ; r1 == 0
            JOINALL
            HALT
      child: HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.live_flows(), 0u);
}

TEST(MachineSpawn, JoinWithoutChildrenContinues) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("JOINALL\nPRINT 5\nHALT"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.debug_output(), (std::vector<Word>{5}));
}

TEST(MachineMultiprefix, PrefixTcfOrderedResults) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word n = 5;
  const Addr src = 100, dst = 200, sum = 50;
  m.load(tcf::kernels::prefix_tcf(n, src, dst, sum));
  for (Word i = 0; i < n; ++i) m.shared().poke(src + i, i + 1);
  m.shared().poke(sum, 1000);
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  // dst[i] = 1000 + (1 + ... + i); sum = 1000 + 15.
  Word run = 1000;
  for (Word i = 0; i < n; ++i) {
    EXPECT_EQ(m.shared().peek(dst + i), run);
    run += i + 1;
  }
  EXPECT_EQ(m.shared().peek(sum), 1015);
}

TEST(MachineMultiprefix, MultiopCombines) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      SETTHICK 8
      TID r1
      ADD r2, r1, 1
      MPADD r2, [r0+70]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(70), 36);  // 1+2+...+8
}

TEST(MachineNuma, NumaBlockRunsSequentially) {
  auto cfg = small_cfg();
  Machine m(cfg);
  const Word len = 10;
  m.load(tcf::kernels::low_tlp_numa(4, len));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.local(0).read(0), len);  // counter incremented len times
  // NUMA fetches one instruction per executed instruction.
  EXPECT_EQ(m.stats().instruction_fetches, m.stats().tcf_instructions);
  // Block length 4 packs ~4 instructions per step: far fewer steps than
  // instructions.
  EXPECT_LT(m.stats().steps, m.stats().tcf_instructions);
}

TEST(MachineNuma, NumaSetZeroReturnsToPram) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      NUMASET 4
      LST r1, [r0+3]
      NUMASET 0
      SETTHICK 3
      ST r1, [r0+80+@]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  for (Word i = 0; i < 3; ++i) EXPECT_EQ(m.shared().peek(80 + i), 0);
}

TEST(MachineNuma, SharedAccessFromNumaIsSequentiallyConsistent) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble(R"(
      NUMASET 8
      LDI r1, 5
      ST r1, [r0+90]
      LD r2, [r0+90]    ; forwarding: sees its own write
      ADD r2, r2, 1
      ST r2, [r0+91]
      HALT
  )"));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(91), 6);
}

TEST(MachineCounters, UtilizationBetweenZeroAndOne) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(32, 20));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_GT(m.stats().utilization(), 0.0);
  EXPECT_LE(m.stats().utilization(), 1.0);
}

TEST(MachineCounters, PokePeekRegisters) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("ST r5, [r0+11]\nHALT"));
  const FlowId id = m.boot(1);
  m.poke_reg(id, 0, 5, 123);
  EXPECT_EQ(m.peek_reg(id, 0, 5), 123);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(11), 123);
}

TEST(MachineCounters, TraceRecordsWhenEnabled) {
  auto cfg = small_cfg();
  cfg.record_trace = true;
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(8, 5));
  m.boot(1);
  EXPECT_TRUE(m.run().completed);
  EXPECT_FALSE(m.trace().spans().empty());
  EXPECT_NE(m.trace().render().find("flow 0"), std::string::npos);
}

TEST(MachineBuffer, OverflowFlowsEventuallyRun) {
  auto cfg = small_cfg();
  cfg.groups = 1;
  cfg.slots_per_group = 2;  // tiny TCF buffer
  Machine m(cfg);
  m.load(isa::assemble(R"(
      LDI r1, 1
      MPADD r1, [r0+33]
      HALT
  )"));
  for (int i = 0; i < 5; ++i) m.boot_at(0, 1, 0);
  EXPECT_EQ(m.resident_flows(0), 2u);
  EXPECT_TRUE(m.run().completed);
  EXPECT_EQ(m.shared().peek(33), 5);
}

TEST(MachineBuffer, DetailedNetworkModeMatchesResults) {
  for (bool detailed : {false, true}) {
    auto cfg = small_cfg();
    cfg.detailed_network = detailed;
    Machine m(cfg);
    m.load(tcf::kernels::vecadd_tcf(16, 100, 200, 300));
    for (Word i = 0; i < 16; ++i) {
      m.shared().poke(100 + i, i);
      m.shared().poke(200 + i, i);
    }
    m.boot(1);
    EXPECT_TRUE(m.run().completed);
    for (Word i = 0; i < 16; ++i) {
      EXPECT_EQ(m.shared().peek(300 + i), 2 * i);
    }
  }
}

TEST(MachineConfigChecks, FixedThicknessNeedsOneGroup) {
  auto cfg = small_cfg();
  cfg.variant = Variant::kFixedThickness;
  EXPECT_THROW(Machine m(cfg), SimError);
}

TEST(MachineConfigChecks, BootValidation) {
  auto cfg = small_cfg();
  Machine m(cfg);
  m.load(isa::assemble("HALT"));
  EXPECT_THROW(m.boot(0), SimError);
  EXPECT_THROW(m.boot_at(5, 1, 0), SimError);
  EXPECT_THROW(m.boot_at(0, 1, 99), SimError);
}

TEST(Shapes, RejectsMalformedSpecs) {
  const char* bad[] = {
      "4*fill=4294967295",  // the inherit-fill sentinel, not a fill depth
      "4*fill=257",         // one past the deepest pipeline
      "0*slots=1",          // zero groups
      "4294967296*slots=1", // group count overflows 32 bits
      "4097*slots=1",       // more groups than --groups accepts
      "4000*slots=1+97*slots=2",  // ... summed over the terms
      "4*clock=1/0",        // zero clock denominator
      "4*slots=",           // empty value
      "4*speed=2",          // unknown key
      "4*dist=1:2:3",       // NUMA row shorter than the group count
  };
  for (const char* spec : bad) {
    MachineConfig cfg = small_cfg();
    EXPECT_THROW(apply_shape(cfg, spec), SimError) << spec;
  }
  MachineConfig cfg = small_cfg();
  apply_shape(cfg, "4*fill=256");  // the deepest legal fill is accepted
  EXPECT_EQ(cfg.group_specs.at(0).pipeline_fill, 256u);
}

}  // namespace
}  // namespace tcfpn::machine
