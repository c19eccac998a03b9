// Quickstart: the extended PRAM-NUMA model in five minutes.
//
// Shows the two ways to program tcfpn, both run cycle-by-cycle by the one
// machine simulator (machine::Machine) on any of the paper's six execution
// variants:
//   1. the TCF language (lang::compile_source) — Section 4's notation,
//      `#n; c. = a. + b.;`, compiled to the machine's ISA;
//   2. assembly (isa::assemble, or tcf::AsmBuilder from C++) — the ISA
//      the compiler targets, written by hand.
//
// Build & run:  ./example_quickstart
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "isa/assembler.hpp"
#include "lang/codegen.hpp"
#include "machine/machine.hpp"

using namespace tcfpn;

int main() {
  machine::MachineConfig cfg;
  cfg.groups = 4;           // P processor groups
  cfg.slots_per_group = 16; // T_p TCF buffer slots per group

  // ---------------------------------------------------------------- 1 ----
  std::printf("== 1. TCF language: #n; c. = a. + b.; ==\n");
  const std::size_t n = 1000;
  const std::string ns = std::to_string(n);
  const lang::Compiled vecadd = lang::compile_source(
      "array a[" + ns + "]; array b[" + ns + "]; array c[" + ns + "];\n"
      "#" + ns + ";     // the thickness statement: n implicit threads\n"
      "c. = a. + b.;    // ONE thick instruction, no loop\n");

  std::vector<Word> av(n), bv(n);
  std::iota(av.begin(), av.end(), 0);
  std::iota(bv.begin(), bv.end(), 1);
  machine::Machine lm(cfg);
  lm.load(vecadd.program);
  for (std::size_t i = 0; i < n; ++i) {
    lm.shared().poke(vecadd.buffer("a").at(i), av[i]);
    lm.shared().poke(vecadd.buffer("b").at(i), bv[i]);
  }
  lm.boot(1);
  const auto lrun = lm.run();

  // Self-check against the sequential loop the thick statement replaces.
  bool vec_ok = lrun.completed;
  for (std::size_t i = 0; i < n; ++i) {
    if (lm.shared().peek(vecadd.buffer("c").at(i)) != av[i] + bv[i]) {
      vec_ok = false;
    }
  }
  std::printf("c[0]=%lld  c[999]=%lld  (expect 1 and 1999)\n",
              static_cast<long long>(lm.shared().peek(vecadd.buffer("c").at(0))),
              static_cast<long long>(
                  lm.shared().peek(vecadd.buffer("c").at(n - 1))));
  std::printf("steps=%llu  lane-ops=%llu  cycles=%llu  fetches=%llu\n\n",
              static_cast<unsigned long long>(lrun.steps),
              static_cast<unsigned long long>(lm.stats().operations),
              static_cast<unsigned long long>(lrun.cycles),
              static_cast<unsigned long long>(lm.stats().instruction_fetches));

  // ---------------------------------------------------------------- 2 ----
  std::printf("== 2. assembly on the TCF machine ==\n");
  const auto program = isa::assemble(R"(
      ; sum the squares of 0..15 into shared cell 0 with one thick
      ; multioperation — no loop, no reduction tree.
      main:  SETTHICK 16
             TID r1            ; r1 = lane index (0..15)
             MUL r2, r1, r1    ; r2 = lane^2
             MPADD r2, [r0+0]  ; cell 0 += r2, combined in one step
             HALT
  )");
  machine::Machine m(cfg);
  m.load(program);
  m.boot(1);
  const auto run = m.run();
  std::printf("sum of squares = %lld (expect 1240)\n",
              static_cast<long long>(m.shared().peek(0)));
  std::printf("completed=%d steps=%llu cycles=%llu fetches=%llu\n",
              run.completed,
              static_cast<unsigned long long>(run.steps),
              static_cast<unsigned long long>(run.cycles),
              static_cast<unsigned long long>(m.stats().instruction_fetches));
  std::printf("(note: 5 fetches for 16-wide execution — one per thick "
              "instruction)\n");
  return vec_ok && run.completed && m.shared().peek(0) == 1240 ? 0 : 1;
}
