#include "paper.hpp"

#include <array>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "conformance/gen.hpp"
#include "conformance/oracle.hpp"
#include "conformance/scenario.hpp"
#include "machine/cost_model.hpp"
#include "machine/shapes.hpp"
#include "net/network.hpp"
#include "sched/allocation.hpp"
#include "sched/multitask.hpp"
#include "tcf/builder.hpp"
#include "tcf/kernels.hpp"

namespace tcfpn::paper {

// ---------------------------------------------------------------------------
// Cells, sections, artefacts.

double Ratio::value() const {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

namespace {

std::string render_cell(const Cell& c) {
  struct Visitor {
    std::string operator()(std::int64_t v) const { return std::to_string(v); }
    std::string operator()(const Ratio& r) const {
      return detail::cell_to_string(r.value());
    }
    std::string operator()(double v) const {
      return detail::cell_to_string(v);
    }
    std::string operator()(bool v) const { return detail::cell_to_string(v); }
    std::string operator()(const std::string& s) const { return s; }
  };
  return std::visit(Visitor{}, c);
}

bool row_matches(const std::vector<Cell>& cells, std::string_view key) {
  std::size_t i = 0;
  while (true) {
    const std::size_t bar = key.find('|');
    if (i >= cells.size() || render_cell(cells[i]) != key.substr(0, bar)) {
      return false;
    }
    if (bar == std::string_view::npos) return true;
    key.remove_prefix(bar + 1);
    ++i;
  }
}

template <typename T>
const T& cell_as(const Section& s, std::string_view row,
                 std::string_view column) {
  const T* v = std::get_if<T>(&s.at(row, column));
  if (v == nullptr) {
    throw SimError("cell (" + std::string(row) + ", " + std::string(column) +
                   ") has another kind");
  }
  return *v;
}

}  // namespace

const std::vector<Cell>& Section::row(std::string_view key) const {
  for (const auto& cells : rows) {
    if (row_matches(cells, key)) return cells;
  }
  throw SimError("no row '" + std::string(key) + "'");
}

const Cell& Section::at(std::string_view row_key,
                        std::string_view column) const {
  std::size_t col = 0;
  while (col < header.size() && header[col] != column) ++col;
  if (col == header.size()) {
    throw SimError("no column '" + std::string(column) + "'");
  }
  return row(row_key)[col];
}

std::int64_t Section::count(std::string_view row,
                            std::string_view column) const {
  return cell_as<std::int64_t>(*this, row, column);
}
Ratio Section::ratio(std::string_view row, std::string_view column) const {
  return cell_as<Ratio>(*this, row, column);
}
double Section::real(std::string_view row, std::string_view column) const {
  return cell_as<double>(*this, row, column);
}
std::string Section::text(std::string_view row,
                          std::string_view column) const {
  return cell_as<std::string>(*this, row, column);
}

bool Artefact::passed() const {
  if (!failure.empty()) return false;
  for (const Section& s : sections) {
    for (const auto& cells : s.rows) {
      for (const Cell& c : cells) {
        if (const bool* b = std::get_if<bool>(&c); b != nullptr && !*b) {
          return false;
        }
      }
    }
  }
  return true;
}

std::string Artefact::render() const {
  const std::string rule(64, '=');
  std::string out = rule + "\n" + id + " — " + title + "\npaper claim: " +
                    claim + "\n" + rule + "\n";
  for (const Section& s : sections) {
    if (!s.caption.empty()) out += "\n" + s.caption + "\n";
    Table t(s.header);
    for (const auto& cells : s.rows) {
      std::vector<std::string> row;
      for (const Cell& c : cells) row.push_back(render_cell(c));
      t.add_row(std::move(row));
    }
    out += t.render() + s.footer;
  }
  if (!failure.empty()) out += "\nSELF-CHECK FAILED: " + failure + "\n";
  return out;
}

machine::MachineConfig default_cfg(std::uint32_t groups,
                                   std::uint32_t slots) {
  machine::MachineConfig cfg;
  cfg.groups = groups;
  cfg.slots_per_group = slots;
  cfg.shared_words = 1u << 20;
  cfg.local_words = 1u << 14;
  cfg.topology = net::TopologyKind::kMesh2D;
  return cfg;
}

namespace {

using machine::Machine;
using machine::MachineConfig;
using machine::Variant;

Ratio utilization(const machine::MachineStats& st) {
  return {static_cast<std::int64_t>(st.busy_slots),
          static_cast<std::int64_t>(st.busy_slots + st.idle_slots)};
}

Ratio ratio(std::uint64_t num, std::uint64_t den) {
  return {static_cast<std::int64_t>(num), static_cast<std::int64_t>(den)};
}

Ratio cycles_per_instr(const machine::MachineStats& st) {
  return ratio(st.cycles, st.tcf_instructions);
}

// ---------------------------------------------------------------------------
// T1 — Table 1: key properties and cost of primitives per variant.
//
// The paper gives symbolic estimates (b = bound, m = small constant,
// P = cores, R = registers, T_p = threads/processor, u = unbounded
// variable). T1 prints those rows next to values measured on the simulator
// for a concrete configuration.

constexpr Word kT1Thickness = 64;  // the "u" of the measurement
constexpr Word kT1Payload = 16;    // thick ALU instructions measured

constexpr std::array<Variant, 6> kVariants = {
    Variant::kSingleInstruction,     Variant::kBalanced,
    Variant::kMultiInstruction,      Variant::kSingleOperation,
    Variant::kConfigSingleOperation, Variant::kFixedThickness,
};

bool is_thread_machine(Variant v) {
  return v == Variant::kSingleOperation ||
         v == Variant::kConfigSingleOperation;
}

MachineConfig t1_cfg(Variant v) {
  auto cfg = default_cfg(v == Variant::kFixedThickness ? 1 : 4, 64);
  cfg.variant = v;
  cfg.balanced_bound = 16;  // the "b"
  cfg.registers_per_context = 16;
  return cfg;
}

// kT1Payload thick ALU instructions, no SETTHICK (so the same program runs
// on every variant; thickness comes from boot).
isa::Program t1_payload() {
  tcf::AsmBuilder s;
  using namespace tcf;
  for (Word i = 0; i < kT1Payload; ++i) s.add(r1, r1, Word{1});
  s.halt();
  return s.build();
}

// Fetches per logical thick instruction of thickness u: total fetches
// include the HALT epilogue, so normalise by the payload plus one.
Ratio t1_fetches(Variant v) {
  Machine m(t1_cfg(v));
  m.load(t1_payload());
  if (is_thread_machine(v)) {
    // Thread machines express a thick instruction as u threads.
    tcf::kernels::boot_esm_threads(m, 0, kT1Thickness);
  } else {
    m.boot(kT1Thickness);
  }
  m.run();
  return ratio(m.stats().instruction_fetches, kT1Payload + 1);
}

// Cost of switching a resident task, and of a spilled one.
std::pair<Cycle, Cycle> t1_task_switch(Variant v) {
  Machine m(t1_cfg(v));
  m.load(t1_payload());
  const FlowId t0 = is_thread_machine(v)
                        ? tcf::kernels::boot_esm_threads(m, 0, 2)[0]
                        : m.boot(kT1Thickness);
  const Cycle resident = m.suspend_flow(t0);
  const Cycle evicted = m.evict_flow(t0);
  return {resident, evicted + m.resume_flow(t0)};
}

// Flow-branch (split) cost of one SPAWN; thread machines spawn
// thickness-1 children.
std::string t1_flow_branch(Variant v) {
  if (v == Variant::kFixedThickness) return "n/a (no control par.)";
  Machine m(t1_cfg(v));
  tcf::AsmBuilder s;
  using namespace tcf;
  auto child = s.make_label("child");
  s.ldi(r1, is_thread_machine(v) ? 1 : 4);
  s.spawn(r1, child);
  s.joinall();
  s.halt();
  s.bind(child);
  s.halt();
  m.load(s.build());
  m.boot(1);
  m.run();
  return std::to_string(m.stats().branch_cost_cycles) + " cycles";
}

Artefact t1() {
  Artefact a;
  a.title = "Table 1: key properties & cost of primitives per variant";
  a.claim =
      "fetches/TCF: 1 | u/b | Tp | Tp | Tp | Tp; task switch: 0 | 0 | O(1) "
      "| O(Tp) | O(Tp) | O(Tp); flow branch: O(R) | O(R) | O(1) | O(1) | "
      "O(1) | O(1)";
  const std::vector<std::string> variants = {
      "single-instr", "balanced",         "multi-instr",
      "single-op",    "config-single-op", "fixed-thick"};
  auto header = [&](const char* first) {
    std::vector<std::string> h{first};
    h.insert(h.end(), variants.begin(), variants.end());
    return h;
  };

  Section sym{"[symbolic rows, as printed in the paper]", header("property")};
  auto row = [&](const char* name, auto getter) {
    std::vector<Cell> cells{std::string(name)};
    for (Variant v : kVariants) {
      cells.push_back(std::string(getter(machine::variant_traits(v))));
    }
    sym.rows.push_back(std::move(cells));
  };
  auto yes_no = [](bool b) { return b ? "yes" : "no"; };
  row("Number of TCFs", [](const auto& t) { return t.num_tcfs; });
  row("Number of threads", [](const auto& t) { return t.num_threads; });
  row("Registers per thread",
      [](const auto& t) { return t.regs_per_thread; });
  row("Fetches per TCF", [](const auto& t) { return t.fetches_per_tcf; });
  row("PRAM operation",
      [&](const auto& t) { return yes_no(t.pram_operation); });
  row("NUMA operation",
      [&](const auto& t) { return yes_no(t.numa_operation); });
  row("Sequential operation",
      [](const auto& t) { return t.sequential_via; });
  row("MIMD", [&](const auto& t) { return yes_no(t.mimd); });

  Section measured{"[measured on the simulator: P=4 (1 for SIMD), Tp=64, "
                   "R=16, b=16, u=64]",
                   header("measured property")};
  std::vector<Cell> fetches{std::string("fetches per thick instr (u=64)")};
  std::vector<Cell> resident{std::string("task switch, resident (cycles)")};
  std::vector<Cell> displaced{std::string("task switch, displaced (cycles)")};
  std::vector<Cell> branch{std::string("flow branch (cycles per split)")};
  std::vector<Cell> regs{std::string("registers per thread (analytic)")};
  for (Variant v : kVariants) {
    fetches.push_back(t1_fetches(v));
    const auto [r, d] = t1_task_switch(v);
    resident.push_back(to_cell(r));
    displaced.push_back(to_cell(d));
    branch.push_back(t1_flow_branch(v));
    regs.push_back(machine::registers_per_thread(t1_cfg(v), kT1Thickness));
  }
  measured.rows = {fetches, resident, displaced, branch, regs};
  a.sections = {sym, measured};
  return a;
}

// ---------------------------------------------------------------------------
// F3 — Fig. 3: a block of thickness 23, a block of thickness 15 that
// branches into parallel blocks of thicknesses 12 and 3, then a block of
// thickness 8 with 8 consecutive instructions.

Artefact f3() {
  Artefact a;
  a.title = "Fig. 3: block-structured TCF execution";
  a.claim =
      "blocks execute synchronously inside, sequential thick arrows between "
      "blocks, parallel branches split/join";
  auto cfg = default_cfg(2, 16);
  cfg.record_trace = true;
  Machine m(cfg);
  m.load(tcf::kernels::fig3_blocks());
  m.boot(1);
  const auto run = m.run();

  Section blocks{"[A] the blocks of Fig. 3 (payload instructions only)",
                 {"block", "thickness", "instructions", "lane operations"}};
  blocks.add("A (after boot)", 23, 2, 2 * 23);
  blocks.add("B (branch head)", 15, 3, 3 * 15);
  blocks.add("C (parallel branch)", 12, 3, 3 * 12);
  blocks.add("D (parallel branch)", 3, 3, 3 * 3);
  blocks.add("E (after join)", 8, 8, 8 * 8);

  const auto& st = m.stats();
  Section s{"[B] the measured run, control instructions included",
            {"measured", "value"}};
  s.add("completed", run.completed);
  s.add("machine steps", st.steps);
  s.add("cycles", st.cycles);
  s.add("TCF instructions", st.tcf_instructions);
  s.add("lane operations", st.operations);
  s.add("splits (spawns)", st.spawns);
  s.add("joins", st.joins);
  s.add("instruction fetches", st.instruction_fetches);
  s.footer = "\nmeasured schedule (rows = processor groups):\n" +
             m.trace().render();
  a.sections = {blocks, s};
  return a;
}

// ---------------------------------------------------------------------------
// F4 — Fig. 4: as `#t;` statements change the flow's thickness, the
// per-step operation count follows it.

Artefact f4() {
  Artefact a;
  a.title = "Fig. 4: a TCF changing thickness";
  a.claim =
      "instruction height (operations per step) tracks the thickness "
      "statement exactly; no looping, no thread arithmetic";
  const std::vector<Word> script{1, 8, 2, 5, 3};
  auto cfg = default_cfg(1, 16);
  cfg.record_trace = true;
  Machine m(cfg);
  m.load(tcf::kernels::thickness_script(script, /*instrs_per_block=*/2));
  m.boot(1);

  std::vector<std::uint64_t> per_step;
  std::uint64_t prev_ops = 0;
  while (m.step()) {
    per_step.push_back(m.stats().operations - prev_ops);
    prev_ops = m.stats().operations;
  }
  // Per block, one SETTHICK step (1 op) then 2 steps of t ops; then HALT.
  std::vector<std::uint64_t> expected;
  for (Word thick : script) {
    expected.push_back(1);
    expected.push_back(static_cast<std::uint64_t>(thick));
    expected.push_back(static_cast<std::uint64_t>(thick));
  }
  expected.push_back(1);

  Section t{"", {"step", "ops executed", "expected (thickness)"}};
  for (std::size_t i = 0; i < per_step.size(); ++i) {
    t.add(i + 1, per_step[i], i < expected.size() ? expected[i] : 0);
  }
  const bool match = per_step == expected;
  t.footer = "\nmeasured schedule:\n" + m.trace().render() +
             "\nstep profile matches the thickness script: " +
             (match ? "YES" : "NO") + "\n";
  if (!match) a.failure = "the step profile differs from the script";
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// F6 — Fig. 6: PRAM-mode latency hiding versus NUMA-mode bunches.
//
// [A] an ESM processor with T_p thread slots runs a shared-memory workload
// with a varying number of active threads. The step is T_p slots long
// whatever the activity, so memory latency is hidden exactly when enough
// threads are live. [B] the same sequential section as a NUMA block of
// length L against local memory: cost per instruction approaches 1.

Artefact f6() {
  Artefact a;
  a.title = "Fig. 6: PRAM-mode latency hiding vs NUMA bunches";
  a.claim =
      "multithreading hides shared-memory latency when enough threads are "
      "active; NUMA bunches repair the sequential case";
  constexpr std::uint32_t kTp = 16;
  constexpr Word kIters = 64;
  auto finish = [&](Machine& m) {
    if (!m.run().completed) a.failure = "a run did not complete";
  };

  Section pram{"[A] PRAM mode: active threads vs utilization (Tp=16)",
               {"active threads", "cycles", "cycles/op", "utilization"}};
  for (std::uint64_t active : {1u, 2u, 4u, 8u, 16u}) {
    auto cfg = default_cfg(1, kTp);
    cfg.variant = Variant::kSingleOperation;
    cfg.net.wire_latency = 4;  // memory is far away; threads must hide it
    Machine m(cfg);
    // Every thread accumulates into cell 0; under Arbitrary CRCW they race
    // benignly — the cost shape, not the value, is the experiment.
    m.load(tcf::kernels::low_tlp_pram(kIters));
    tcf::kernels::boot_esm_threads(m, 0, active);
    finish(m);
    const auto& st = m.stats();
    pram.add(active, st.cycles, ratio(st.cycles, st.operations / active),
             utilization(st));
  }

  Section numa{"[B] the same sequential section as a NUMA bunch",
               {"mode", "cycles", "cycles/instruction"}};
  {
    auto cfg = default_cfg(1, kTp);
    cfg.variant = Variant::kSingleOperation;
    Machine m(cfg);
    m.load(tcf::kernels::low_tlp_pram(kIters));
    tcf::kernels::boot_esm_threads(m, 0, 1);
    finish(m);
    numa.add("PRAM, 1 thread of Tp=16", m.stats().cycles,
             cycles_per_instr(m.stats()));
  }
  for (Word block : {2, 4, 8, 16}) {
    auto cfg = default_cfg(1, kTp);
    cfg.variant = Variant::kConfigSingleOperation;
    Machine m(cfg);
    m.load(tcf::kernels::low_tlp_numa(block, kIters));
    m.boot(1);
    finish(m);
    numa.add("NUMA bunch, L=" + std::to_string(block), m.stats().cycles,
             cycles_per_instr(m.stats()));
  }
  a.sections = {pram, numa};
  return a;
}

// ---------------------------------------------------------------------------
// F7/F8 — Figs. 7 and 8: a thin flow (thickness 8) on group 0 next to a
// thick flow on group 1, 40 ALU instructions each.

isa::Program two_entry_payload() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto thick = s.make_label("thick");
  for (int i = 0; i < 40; ++i) s.add(r1, r1, Word{1});
  s.halt();
  s.bind(thick);
  for (int i = 0; i < 40; ++i) s.add(r1, r1, Word{1});
  s.halt();
  return s.build();
}

struct ThinThick {
  Cycle thin_done;
  machine::MachineStats stats;
};

ThinThick run_thin_thick(const MachineConfig& cfg, Word thick_t) {
  Machine m(cfg);
  const auto prog = two_entry_payload();
  m.load(prog);
  const FlowId thin_id = m.boot_at(0, 8, 0);
  m.boot_at(prog.label("thick"), thick_t, 1);
  Cycle thin_done = 0;
  while (m.step()) {
    if (thin_done == 0 &&
        m.find_flow(thin_id)->status == machine::FlowStatus::kHalted) {
      thin_done = m.stats().cycles;
    }
  }
  if (thin_done == 0) thin_done = m.stats().cycles;
  return {thin_done, m.stats()};
}

// Every processor executes exactly one TCF instruction per step, so a thick
// flow stretches the machine step and starves thin flows on other groups.
Artefact f7() {
  Artefact a;
  a.title = "Fig. 7: single-instruction variant, unbalanced flows";
  a.claim =
      "step length = max over groups of thickness: a thick flow starves "
      "thin flows; efficiency of the thin flow decays as thin/thick";
  Cycle solo_thin = 0;
  {
    Machine m(default_cfg(2, 16));
    m.load(two_entry_payload());
    m.boot_at(0, 8, 0);  // thin flow alone
    m.run();
    solo_thin = m.stats().cycles;
  }
  Section t{"",
            {"thick flow", "thin flow", "thin done (cycles)",
             "makespan (cycles)", "machine utilization",
             "thin efficiency vs solo"}};
  for (Word thick_t : {8, 16, 64, 256, 1024}) {
    const auto o = run_thin_thick(default_cfg(2, 16), thick_t);
    t.add(thick_t, 8, o.thin_done, o.stats.cycles, utilization(o.stats),
          ratio(solo_thin, o.thin_done));
  }
  a.sections = {t};
  return a;
}

// Every processor executes at most B operations per step; interrupted TCF
// instructions resume where they stopped.
Artefact f8() {
  Artefact a;
  a.title = "Fig. 8: balanced variant, bounded ops per step";
  a.claim =
      "the bound decouples thin flows from thick neighbours; scheduling "
      "changes, programmability does not; penalty: more frequent "
      "synchronisation";
  constexpr Word kThick = 1024;
  Section t{"thin flow (thickness 8) next to a thickness-1024 flow:",
            {"variant", "B", "thin done (cycles)", "makespan", "steps",
             "fetches"}};
  {
    auto cfg = default_cfg(2, 16);
    cfg.variant = Variant::kSingleInstruction;
    cfg.balanced_bound = 16;  // unused by this variant
    const auto o = run_thin_thick(cfg, kThick);
    t.add("single-instruction", "-", o.thin_done, o.stats.cycles,
          o.stats.steps, o.stats.instruction_fetches);
  }
  for (std::uint32_t bound : {8u, 16u, 64u, 256u}) {
    auto cfg = default_cfg(2, 16);
    cfg.variant = Variant::kBalanced;
    cfg.balanced_bound = bound;
    const auto o = run_thin_thick(cfg, kThick);
    t.add("balanced", bound, o.thin_done, o.stats.cycles, o.stats.steps,
          o.stats.instruction_fetches);
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// F9 — Fig. 9: the multi-instruction (XMT) variant. Flows run from creation
// to termination asynchronously; dependent work must be cut into fork/join
// rounds. Both machines are normalised to one processor.

Cycle run_vecadd(Variant v, Word n) {
  auto cfg = default_cfg(1);
  cfg.variant = v;
  Machine m(cfg);
  m.load(v == Variant::kMultiInstruction
             ? tcf::kernels::vecadd_fork(n, 1024, 8192, 16384)
             : tcf::kernels::vecadd_tcf(n, 1024, 8192, 16384));
  m.boot(1);
  m.run();
  return m.stats().cycles;
}

// The doubling scan over data[n..2n) on the extended model (lock-step) or
// XMT (fork/join per round at `join_cost` cycles a barrier, ping-pong
// buffers, final base in cell 8).
struct Scan {
  machine::MachineStats stats;
  std::vector<Word> result;
};

Scan run_scan(Variant v, Word n, Word (*input)(Word),
              Cycle join_cost = MachineConfig{}.join_cost) {
  auto cfg = default_cfg(1);
  cfg.variant = v;
  cfg.join_cost = join_cost;
  const bool xmt = v == Variant::kMultiInstruction;
  Machine m(cfg);
  m.load(xmt ? tcf::kernels::scan_doubling_fork(n, static_cast<Addr>(n),
                                                static_cast<Addr>(3 * n), 8)
             : tcf::kernels::scan_doubling_tcf(n, static_cast<Addr>(n)));
  for (Word i = 0; i < n; ++i) m.shared().poke(n + i, input(i));
  m.boot(1);
  m.run();
  const Addr base = xmt ? static_cast<Addr>(m.shared().peek(8))
                        : static_cast<Addr>(n);
  Scan out{m.stats(), {}};
  for (Word i = 0; i < n; ++i) out.result.push_back(m.shared().peek(base + i));
  return out;
}

Artefact f9() {
  Artefact a;
  a.title = "Fig. 9: multi-instruction (XMT) variant";
  a.claim =
      "simple and flexible for independent work; loses lock-step "
      "synchronicity, so dependent code pays per-round fork/join barriers "
      "(both machines normalised to one processor)";
  Section indep{
      "[A] independent work (vector add): XMT pays per-thread index "
      "arithmetic and fetches",
      {"n", "extended TCF (cycles)", "XMT fork (cycles)", "XMT / TCF"}};
  for (Word n : {64, 256, 1024}) {
    const Cycle t = run_vecadd(Variant::kSingleInstruction, n);
    const Cycle x = run_vecadd(Variant::kMultiInstruction, n);
    indep.add(n, t, x, ratio(x, t));
  }
  Section dep{"[B] dependent work (doubling scan, log2(n) dependent rounds)",
              {"n", "TCF (cycles)", "TCF joins", "XMT (cycles)", "XMT joins",
               "XMT / TCF"}};
  auto ones = [](Word) -> Word { return 1; };
  for (Word n : {64, 256, 1024}) {
    const auto t = run_scan(Variant::kSingleInstruction, n, ones);
    const auto x = run_scan(Variant::kMultiInstruction, n, ones);
    dep.add(n, t.stats.cycles, t.stats.joins, x.stats.cycles, x.stats.joins,
            ratio(x.stats.cycles, t.stats.cycles));
  }
  a.sections = {indep, dep};
  return a;
}

// ---------------------------------------------------------------------------
// F10 — Fig. 10: the single-operation variant, the plain interleaved ESM.

Artefact f10() {
  Artefact a;
  a.title = "Fig. 10: single-operation variant (plain ESM)";
  a.claim =
      "utilization = active threads / Tp; sequential sections run Tp times "
      "slower than necessary";
  Section t{"",
            {"active threads", "steps", "cycles", "utilization",
             "slowdown vs full"}};
  Cycle full = 0;
  for (std::uint64_t active : {16u, 8u, 4u, 2u, 1u}) {
    auto cfg = default_cfg(1, 16);
    cfg.variant = Variant::kSingleOperation;
    Machine m(cfg);
    // Each thread runs the same 64-iteration private loop.
    tcf::AsmBuilder s;
    using namespace tcf;
    auto loop = s.make_label("loop");
    s.ldi(r3, 0);
    s.bind(loop);
    s.add(r3, r3, Word{1});
    s.slt(r4, r3, Word{64});
    s.bnez(r4, loop);
    s.halt();
    m.load(s.build());
    tcf::kernels::boot_esm_threads(m, 0, active);
    m.run();
    if (active == 16) full = m.stats().cycles;
    t.add(active, m.stats().steps, m.stats().cycles, utilization(m.stats()),
          ratio(m.stats().cycles, full));
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// F11 — Fig. 11: the configurable single-operation variant (the original
// PRAM-NUMA). A sequential section executes L consecutive instructions per
// step inside a NUMA bunch.

Artefact f11() {
  Artefact a;
  a.title = "Fig. 11: configurable single-operation (PRAM-NUMA)";
  a.claim =
      "bunching k processors makes the sequential section run ~k times "
      "faster than unbunched ESM execution";
  constexpr Word kLen = 256;  // sequential instructions to execute
  Section t{"",
            {"execution", "steps", "cycles", "speedup vs ESM 1-thread"}};
  Cycle esm = 0;
  {
    auto cfg = default_cfg(1, 16);
    cfg.variant = Variant::kSingleOperation;
    Machine m(cfg);
    m.load(tcf::kernels::low_tlp_pram(kLen));
    tcf::kernels::boot_esm_threads(m, 0, 1);
    m.run();
    esm = m.stats().cycles;
    t.add("ESM, 1 thread (Fig. 10 case)", m.stats().steps, esm,
          ratio(esm, esm));
  }
  for (Word bunch : {2, 4, 8, 16}) {
    auto cfg = default_cfg(1, 16);
    cfg.variant = Variant::kConfigSingleOperation;
    Machine m(cfg);
    m.load(tcf::kernels::low_tlp_numa(bunch, kLen));
    m.boot(1);
    m.run();
    t.add("NUMA bunch of " + std::to_string(bunch), m.stats().steps,
          m.stats().cycles, ratio(esm, m.stats().cycles));
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// F12 — Fig. 12: the fixed-thickness (vector/SIMD) variant. A two-way
// conditional executes both paths as masked passes over the full width;
// the extended model splits into two parallel TCFs.

void seed_ab(Machine& m, Word n, Addr a, Addr b) {
  for (Word i = 0; i < n; ++i) {
    m.shared().poke(a + i, i);
    m.shared().poke(b + i, 2 * i);
  }
}

Artefact f12() {
  Artefact a;
  a.title = "Fig. 12: fixed-thickness (vector/SIMD) variant";
  a.claim =
      "no control parallelism: if/else compiles to two masked passes (cost "
      "= sum of paths); the TCF parallel statement costs only max(paths)";
  const Addr ka = 1024, kb = 8192, kc = 16384;
  Section t{"",
            {"n", "TCF parallel split (cycles)", "SIMD masked (cycles)",
             "SIMD ops", "TCF ops", "SIMD / TCF cycles"}};
  for (Word n : {64, 256, 1024}) {
    Machine tcf_m(default_cfg(4, 16));
    tcf_m.load(tcf::kernels::cond_split_tcf(n, ka, kb, kc));
    seed_ab(tcf_m, n, ka, kb);
    tcf_m.boot(1);
    tcf_m.run();

    auto simd_cfg = default_cfg(1, 16);
    simd_cfg.variant = Variant::kFixedThickness;
    Machine simd_m(simd_cfg);
    simd_m.load(tcf::kernels::cond_masked_simd(n, 16, ka, kb, kc));
    seed_ab(simd_m, n, ka, kb);
    simd_m.boot(16);
    simd_m.run();

    t.add(n, tcf_m.stats().cycles, simd_m.stats().cycles,
          simd_m.stats().operations, tcf_m.stats().operations,
          ratio(simd_m.stats().cycles, tcf_m.stats().cycles));
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// F13 — Fig. 13 / Sec. 3.3: the TCF storage buffer and pipeline. [A] PRAM
// mode fetches each instruction once per TCF; [B] NUMA streams fetch per
// instruction; [C] switching among resident TCFs is free until the buffer
// overflows.

Artefact f13() {
  Artefact a;
  a.title = "Fig. 13 / Sec. 3.3: TCF storage buffer & pipeline";
  a.claim =
      "one fetch per TCF instruction in PRAM mode (bandwidth / thickness); "
      "per-instruction fetches in NUMA mode; free switching while TCFs fit "
      "the buffer";
  Section fetch{"[A] instruction fetches vs thickness (32 payload instrs)",
                {"thickness", "operations", "fetches", "fetches per op"}};
  for (Word t : {1, 4, 16, 64, 256}) {
    Machine m(default_cfg(1, 16));
    m.load(tcf::kernels::spin_ops(t, 32));
    m.boot(1);
    m.run();
    fetch.add(t, m.stats().operations, m.stats().instruction_fetches,
              ratio(m.stats().instruction_fetches, m.stats().operations));
  }

  Section numa{"[B] NUMA mode fetches per instruction",
               {"mode", "instructions", "fetches"}};
  auto count_fetches = [&](const char* mode, const isa::Program& p) {
    Machine m(default_cfg(1, 16));
    m.load(p);
    m.boot(1);
    m.run();
    numa.add(mode, m.stats().tcf_instructions, m.stats().instruction_fetches);
  };
  count_fetches("NUMA block L=8", tcf::kernels::low_tlp_numa(8, 64));
  count_fetches("PRAM thickness 8", tcf::kernels::spin_ops(8, 64));

  Section buffer{"[C] TCF buffer capacity: preemptive switching of 8 tasks",
                 {"tasks", "buffer slots", "switches", "task-switch cycles",
                  "completed"}};
  for (std::uint32_t slots : {16u, 4u, 2u}) {
    Machine m(default_cfg(1, slots));
    m.load(tcf::kernels::spin_ops(4, 32));
    std::vector<FlowId> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back(m.boot_at(0, 1, 0));
    sched::TaskManager mgr(m, tasks);
    const auto res = mgr.run_round_robin(/*quantum_steps=*/4);
    buffer.add(8, slots, res.switches, res.switch_cycles, res.completed);
  }
  a.sections = {fetch, numa, buffer};
  return a;
}

// ---------------------------------------------------------------------------
// S4a — Section 4's lead example: element-wise vector add when the problem
// size does not match the hardware thread count.
//
//   PRAM-NUMA / ESM:  for (i = tid; i < size; i += nthreads) c[i]=a[i]+b[i]
//   extended model:   #size;  c. = a. + b.;
//   XMT:              fork (tid = 0; tid < size) c[tid] = a[tid] + b[tid]
//   vector/SIMD:      strip-mined masked chunks

constexpr Addr kA = 1 << 12, kB = 1 << 14, kC = 1 << 16;

Artefact s4a() {
  Artefact a;
  a.title = "Section 4: vector add across programming models";
  a.claim =
      "`#size; c.=a.+b.;` needs no loop and no thread arithmetic; the "
      "program length is size-independent, unlike the ESM loop idiom";
  Section t{"",
            {"model", "n", "static instrs", "dyn instrs", "fetches", "cycles",
             "correct"}};
  struct Model {
    const char* name;
    Variant variant;
    std::uint32_t groups;
  };
  const Model models[] = {
      {"TCF  #size; c.=a.+b.", Variant::kSingleInstruction, 4},
      {"ESM  for(i=tid;...)", Variant::kSingleOperation, 4},
      {"XMT  fork(tid<size)", Variant::kMultiInstruction, 4},
      {"SIMD strip-mined", Variant::kFixedThickness, 1},
  };
  for (Word n : {24, 64, 100, 256, 1000}) {
    for (const Model& md : models) {
      auto cfg = default_cfg(md.groups);
      cfg.variant = md.variant;
      Machine m(cfg);
      isa::Program p;
      switch (md.variant) {
        case Variant::kSingleOperation:
          p = tcf::kernels::vecadd_esm_loop(n, kA, kB, kC);
          break;
        case Variant::kMultiInstruction:
          p = tcf::kernels::vecadd_fork(n, kA, kB, kC);
          break;
        case Variant::kFixedThickness:
          p = tcf::kernels::vecadd_simd(n, 16, kA, kB, kC);
          break;
        default:
          p = tcf::kernels::vecadd_tcf(n, kA, kB, kC);
      }
      m.load(p);
      for (Word i = 0; i < n; ++i) {
        m.shared().poke(kA + i, i);
        m.shared().poke(kB + i, i);
      }
      if (md.variant == Variant::kSingleOperation) {
        tcf::kernels::boot_esm_threads(m, 0, cfg.total_slots());
      } else {
        m.boot(md.variant == Variant::kFixedThickness ? 16 : 1);
      }
      m.run();
      bool correct = true;
      for (Word i = 0; i < n; ++i) {
        correct = correct && m.shared().peek(kC + i) == 2 * i;
      }
      // The multi-instruction variant counts no TCF instructions; its
      // threads' dynamic instructions are its lane operations.
      const auto& st = m.stats();
      t.add(md.name, n, p.size(),
            md.variant == Variant::kMultiInstruction ? st.operations
                                                     : st.tcf_instructions,
            st.instruction_fetches, st.cycles, correct);
    }
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// S4b — Section 4's low-parallelism comparison: PRAM-NUMA writes
// `numa if (_processor_id < size) ...`, the extended model `#1/T;`, and the
// single-operation variant drops to 1/T_p utilization.

Artefact s4b() {
  Artefact a;
  a.title = "Section 4: low-parallelism (NUMA) sections";
  a.claim =
      "`#1/T;` (extended) and `numa` bunching (PRAM-NUMA) keep sequential "
      "sections fast; plain ESM drops to 1/Tp utilization";
  constexpr Word kLen = 128;  // sequential instructions in the section
  Section t{"",
            {"model / statement", "cycles", "cycles per instr",
             "utilization"}};
  auto add = [&](const std::string& name, Machine& m) {
    m.run();
    t.add(name, m.stats().cycles, cycles_per_instr(m.stats()),
          utilization(m.stats()));
  };
  {  // ESM: sequential section on 1 of Tp threads
    auto cfg = default_cfg(1, 16);
    cfg.variant = Variant::kSingleOperation;
    Machine m(cfg);
    m.load(tcf::kernels::low_tlp_pram(kLen));
    tcf::kernels::boot_esm_threads(m, 0, 1);
    add("ESM single thread (no NUMA)", m);
  }
  {  // original PRAM-NUMA: numa bunch of Tp processors
    auto cfg = default_cfg(1, 16);
    cfg.variant = Variant::kConfigSingleOperation;
    Machine m(cfg);
    m.load(tcf::kernels::low_tlp_numa(16, kLen));
    m.boot(1);
    add("PRAM-NUMA `numa` bunch (16)", m);
  }
  for (Word l : {4, 16}) {  // extended model: `#1/L;`
    Machine m(default_cfg(1, 16));
    m.load(tcf::kernels::low_tlp_numa(l, kLen));
    m.boot(1);
    add("extended `#1/" + std::to_string(l) + ";`", m);
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// S4c — Section 4's conditionals:
//
//   thread model:   if (tid < size/2) c[tid]=a[tid]+b[tid]; else c[tid]=0;
//   extended model: parallel { #size/2: c.=a.+b.;  #size/2: c.=0; }
//   SIMD:           two sequential masked passes
//
// plus the one-way conditional `if (tid < size/2) ...` vs `#size/2: ...`.

void seed_cond(Machine& m, Word n) {
  for (Word i = 0; i < n; ++i) {
    m.shared().poke(kA + i, 5 * i);
    m.shared().poke(kB + i, i);
    m.shared().poke(kC + i, -7);
  }
}

bool two_way_correct(Machine& m, Word n) {
  for (Word i = 0; i < n; ++i) {
    if (m.shared().peek(kC + i) != (i < n / 2 ? 6 * i : 0)) return false;
  }
  return true;
}

isa::Program one_way_tcf(Word n) {
  tcf::AsmBuilder s;
  using namespace tcf;
  s.setthick(n / 2);  // #size/2:
  s.ld(r1, r0, static_cast<Word>(kA), true);
  s.ld(r2, r0, static_cast<Word>(kB), true);
  s.add(r3, r1, r2);
  s.st(r3, r0, static_cast<Word>(kC), true);
  s.halt();
  return s.build();
}

// Thread model: all n threads evaluate the guard; half do the work.
isa::Program one_way_esm(Word n) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto done = s.make_label("done");
  s.slt(r3, r1, n / 2);
  s.beqz(r3, done);
  s.add(r5, r1, static_cast<Word>(kA));
  s.ld(r6, r5);
  s.add(r7, r1, static_cast<Word>(kB));
  s.ld(r8, r7);
  s.add(r9, r6, r8);
  s.add(r10, r1, static_cast<Word>(kC));
  s.st(r9, r10);
  s.bind(done);
  s.halt();
  return s.build();
}

Artefact s4c() {
  Artefact a;
  a.title = "Section 4: conditional constructs";
  a.claim =
      "two-way if/else becomes parallel{} with two TCFs (cost = max path); "
      "SIMD executes both paths; one-way if becomes a thinner flow";
  // Boots the machine the way its model expects: ESM as n threads, SIMD
  // at its vector width, the TCF machine as one flow.
  auto boot = [](Machine& m, Variant v, Word n) {
    if (v == Variant::kSingleOperation) {
      tcf::kernels::boot_esm_threads(m, 0, n);
    } else {
      m.boot(v == Variant::kFixedThickness ? 16 : 1);
    }
  };
  Section two{"[A] two-way conditional (if/else over n elements)",
              {"model", "n", "cycles", "lane ops", "correct"}};
  Section one{"[B] one-way conditional: `#size/2:` vs thread-model if",
              {"model", "n", "cycles", "lane ops"}};
  for (Word n : {64, 256}) {
    const std::tuple<const char*, Variant, isa::Program> models[] = {
        {"TCF parallel{ }", Variant::kSingleInstruction,
         tcf::kernels::cond_split_tcf(n, kA, kB, kC)},
        {"ESM per-thread if", Variant::kSingleOperation,
         tcf::kernels::cond_esm(n, kA, kB, kC)},
        {"SIMD both paths", Variant::kFixedThickness,
         tcf::kernels::cond_masked_simd(n, 16, kA, kB, kC)},
    };
    for (const auto& [name, v, prog] : models) {
      auto cfg = default_cfg(v == Variant::kFixedThickness ? 1 : 4);
      cfg.variant = v;
      Machine m(cfg);
      m.load(prog);
      seed_cond(m, n);
      boot(m, v, n);
      m.run();
      two.add(name, n, m.stats().cycles, m.stats().operations,
              two_way_correct(m, n));
    }
  }
  for (Word n : {64, 256}) {
    for (Variant v : {Variant::kSingleInstruction, Variant::kSingleOperation}) {
      auto cfg = default_cfg();
      cfg.variant = v;
      Machine m(cfg);
      const bool esm = v == Variant::kSingleOperation;
      m.load(esm ? one_way_esm(n) : one_way_tcf(n));
      seed_cond(m, n);
      boot(m, v, n);
      m.run();
      one.add(esm ? "ESM if(tid<n/2)" : "TCF #size/2:", n, m.stats().cycles,
              m.stats().operations);
    }
  }
  a.sections = {two, one};
  return a;
}

// ---------------------------------------------------------------------------
// S4d — Section 4's multioperation example:
//
//   PRAM-NUMA (looping):  for (i=tid; i<size; i+=nthreads)
//                             prefix(source[i], MPADD, &sum, source[i]);
//   extended model:       prefix(source, MPADD, &sum, source);

Artefact s4d() {
  Artefact a;
  a.title = "Section 4: multiprefix, one thick instruction vs the thread loop";
  a.claim =
      "`prefix(source, MPADD, &sum, source);` subsumes the whole loop "
      "(both machines normalised to one processor)";
  constexpr Addr kSrc = 1 << 12, kDst = 1 << 14, kSum = 64;
  Section t{"", {"model", "n", "cycles", "fetches", "sum ok"}};
  for (Word n : {64, 256, 1024, 4096}) {
    for (Variant v :
         {Variant::kSingleInstruction, Variant::kConfigSingleOperation}) {
      auto cfg = default_cfg(1);
      cfg.variant = v;
      Machine m(cfg);
      const bool loop = v == Variant::kConfigSingleOperation;
      m.load(loop ? tcf::kernels::prefix_esm_loop(n, kSrc, kDst, kSum)
                  : tcf::kernels::prefix_tcf(n, kSrc, kDst, kSum));
      for (Word i = 0; i < n; ++i) m.shared().poke(kSrc + i, i + 1);
      if (loop) {
        tcf::kernels::boot_esm_threads(m, 0, cfg.total_slots());
      } else {
        m.boot(1);
      }
      m.run();
      t.add(loop ? "PRAM-NUMA loop" : "TCF thick multiprefix", n,
            m.stats().cycles, m.stats().instruction_fetches,
            m.shared().peek(kSum) == n * (n + 1) / 2);
    }
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// S4e — Section 4's dependent loop:
//
//   for (i = 1; i < size; i <<= 1)
//       source[tid] += source[tid - i];   // guard dropped via zero region
//
// The extended model needs no explicit synchronisation; XMT needs a
// fork/join barrier per round and double buffering.

Artefact s4e() {
  Artefact a;
  a.title = "Section 4: dependent loop (doubling scan) without synchronisation";
  a.claim =
      "extended model: 0 explicit syncs (lock-step does it); XMT: one "
      "fork/join per round with 'remarkable overhead'";
  constexpr Cycle kJoinCost = 64;  // the barrier price
  Section t{"",
            {"n", "rounds", "TCF cycles", "TCF syncs", "XMT cycles",
             "XMT joins", "XMT/TCF", "results match"}};
  auto input = [](Word i) -> Word { return i % 7 + 1; };
  for (Word n : {64, 256, 1024}) {
    const auto tcf_scan = run_scan(Variant::kSingleInstruction, n, input);
    const auto xmt = run_scan(Variant::kMultiInstruction, n, input, kJoinCost);
    Word rounds = 0;
    for (Word i = 1; i < n; i <<= 1) ++rounds;
    t.add(n, rounds, tcf_scan.stats.cycles, 0, xmt.stats.cycles,
          xmt.stats.joins, ratio(xmt.stats.cycles, tcf_scan.stats.cycles),
          tcf_scan.result == xmt.result);
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// S4f — Section 4's multitasking discussion: switching resident TCFs takes
// no time while they fit the TCF buffer (threads cost T_p times more), and
// horizontal T/P-wide allocation beats one vertical T-wide TCF.

isa::Program counting_task(Word iters) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, 0);
  s.bind(loop);
  s.add(r1, r1, Word{1});
  s.slt(r2, r1, iters);
  s.bnez(r2, loop);
  s.halt();
  return s.build();
}

// c[i] = 3 * a[i] over the flow's lanes, offset by r15 (the fragment
// convention of sched/allocation).
isa::Program fragment_work(Addr a, Addr c) {
  tcf::AsmBuilder s;
  using namespace tcf;
  s.tid(r1);
  s.add(r1, r1, r15);
  s.add(r2, r1, static_cast<Word>(a));
  s.ld(r3, r2);
  s.mul(r3, r3, Word{3});
  s.add(r4, r1, static_cast<Word>(c));
  s.st(r3, r4);
  s.halt();
  return s.build();
}

Artefact s4f() {
  Artefact a;
  a.title = "Section 4: multitasking, TCFs as tasks; horizontal allocation";
  a.claim =
      "task switch: 0 (resident TCFs) vs O(Tp) thread contexts; horizontal "
      "T/P-wide allocation beats vertical single-flow allocation ~P-fold";
  Section rr{"[A] preemptive round-robin of 6 tasks, quantum = 4 steps",
             {"machine", "switches", "switch cycles", "switch cycles/switch",
              "total cycles"}};
  auto round_robin = [&](const char* name, MachineConfig cfg, bool threads) {
    Machine m(cfg);
    m.load(counting_task(64));
    std::vector<FlowId> tasks;
    for (int i = 0; i < 6; ++i) {
      const FlowId id = m.boot_at(0, 1, 0);
      if (threads) {
        m.poke_reg(id, 0, 1, i);
        m.poke_reg(id, 0, 2, 6);
      }
      tasks.push_back(id);
    }
    sched::TaskManager mgr(m, tasks);
    const auto r = mgr.run_round_robin(4);
    rr.add(name, r.switches, r.switch_cycles,
           ratio(r.switch_cycles, r.switches), r.total_cycles);
  };
  round_robin("extended TCF (resident)", default_cfg(1, 16), false);
  // A 4-slot buffer is too small for 6 tasks: they spill.
  round_robin("extended TCF (overflowing)", default_cfg(1, 4), false);
  auto esm = default_cfg(1, 16);
  esm.variant = Variant::kSingleOperation;
  round_robin("threaded ESM (O(Tp) switch)", esm, true);

  Section alloc{"[B] horizontal vs vertical allocation of a T=1024 flow",
                {"allocation", "flows", "cycles", "speedup"}};
  constexpr Word kTotal = 1024;
  constexpr Addr ka = 1 << 12, kc = 1 << 15;
  auto run_alloc = [&](std::uint32_t frags) {
    Machine m(default_cfg(4, 16));
    m.load(fragment_work(ka, kc));
    for (Word i = 0; i < kTotal; ++i) m.shared().poke(ka + i, i);
    if (frags == 1) {
      sched::boot_vertical(m, 0, kTotal);
    } else {
      sched::boot_horizontal(m, 0, kTotal, frags);
    }
    m.run();
    return m.stats().cycles;
  };
  const Cycle vertical = run_alloc(1);
  alloc.add("vertical (one T-wide TCF)", 1, vertical,
            ratio(vertical, vertical));
  for (std::uint32_t frags : {2u, 4u, 8u}) {
    const Cycle c = run_alloc(frags);
    alloc.add("horizontal, " + std::to_string(frags) + " fragments", frags, c,
              ratio(vertical, c));
  }
  a.sections = {rr, alloc};
  return a;
}

// ---------------------------------------------------------------------------
// NET — the Figs. 1/2/5 substrate: routing latency proportional to the
// distance between source group and destination module, and enough
// bandwidth for random traffic.

Artefact net_substrate() {
  Artefact a;
  a.title = "network substrate: distance-aware latency & congestion "
            "(Figs. 1/2/5)";
  a.claim =
      "latency of routing is proportional to the distance between the "
      "source processor and destination memory block";
  constexpr std::uint32_t kNodes = 16;

  Section lat{"[A] uncongested latency ∝ distance (per topology)",
              {"topology", "diameter", "lat d=1", "lat d=2", "lat d=max"}};
  for (auto kind : {net::TopologyKind::kCrossbar, net::TopologyKind::kRing,
                    net::TopologyKind::kMesh2D, net::TopologyKind::kTorus2D,
                    net::TopologyKind::kHypercube}) {
    auto measure = [&](std::uint32_t want_dist) -> std::string {
      net::Network netw(net::make_topology(kind, kNodes));
      const auto& topo = netw.topology();
      for (net::NodeId dst = 0; dst < topo.nodes(); ++dst) {
        if (topo.distance(0, dst) == want_dist) {
          netw.inject(0, dst);
          netw.drain();
          return std::to_string(netw.latency_samples().max());
        }
      }
      return "-";
    };
    net::Network probe(net::make_topology(kind, kNodes));
    const auto diam = probe.topology().diameter();
    lat.add(net::to_string(kind), diam, measure(1), measure(2),
            measure(diam));
  }

  Section load{"[B] random vs hot-spot traffic, 256 packets, 16 nodes",
               {"topology", "pattern", "drain cycles", "mean lat", "p95 lat",
                "peak queue"}};
  for (auto kind : {net::TopologyKind::kRing, net::TopologyKind::kMesh2D,
                    net::TopologyKind::kTorus2D,
                    net::TopologyKind::kHypercube}) {
    for (bool hotspot : {false, true}) {
      net::Network netw(net::make_topology(kind, kNodes));
      Rng rng(2026);
      for (int i = 0; i < 256; ++i) {
        const auto src = static_cast<net::NodeId>(rng.below(kNodes));
        const auto dst =
            hotspot ? 0 : static_cast<net::NodeId>(rng.below(kNodes));
        netw.inject(src, dst);
      }
      const Cycle took = netw.drain();
      load.add(net::to_string(kind),
               hotspot ? "hot-spot (all->0)" : "uniform random", took,
               netw.latency_samples().mean(),
               netw.latency_samples().percentile(95),
               netw.peak_queue_length());
    }
  }

  Section sat{"[C] throughput saturation: offered load vs drain time",
              {"packets", "ring drain", "mesh drain", "hypercube drain",
               "crossbar drain"}};
  for (int packets : {32, 128, 512, 2048}) {
    std::vector<Cell> row{to_cell(packets)};
    for (auto kind :
         {net::TopologyKind::kRing, net::TopologyKind::kMesh2D,
          net::TopologyKind::kHypercube, net::TopologyKind::kCrossbar}) {
      net::Network netw(net::make_topology(kind, kNodes));
      Rng rng(7);
      for (int i = 0; i < packets; ++i) {
        netw.inject(static_cast<net::NodeId>(rng.below(kNodes)),
                    static_cast<net::NodeId>(rng.below(kNodes)));
      }
      row.push_back(to_cell(netw.drain()));
    }
    sat.rows.push_back(std::move(row));
  }
  a.sections = {lat, load, sat};
  return a;
}

// ---------------------------------------------------------------------------
// AB1 — Section 3.3's open choice of where a thick instruction's
// lane-private intermediate results live: "memory-to-memory instructions,
// cached register file, and usage of a number of fast local memories".

Cycle run_spin(machine::OperandStorage storage, Word thickness,
               std::uint32_t cache_words) {
  auto cfg = default_cfg(1, 16);
  cfg.operand_storage = storage;
  cfg.register_cache_words = cache_words;
  cfg.register_spill_penalty = 1;
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(thickness, 32));
  m.boot(1);
  m.run();
  return m.stats().cycles;
}

Artefact ab1() {
  Artefact a;
  a.title = "ablation: operand storage for thick instructions (Sec. 3.3)";
  a.claim = "cached register file vs memory-to-memory vs local-memory operands";
  using machine::OperandStorage;
  constexpr std::uint32_t kCache = 1024;  // 64 lanes' worth at R=16
  Section t{"",
            {"thickness", "cached-reg-file", "memory-to-memory",
             "local-memory", "cached / mem2mem"}};
  for (Word thick : {16, 64, 128, 512, 2048}) {
    const Cycle c1 =
        run_spin(OperandStorage::kCachedRegisterFile, thick, kCache);
    const Cycle c2 = run_spin(OperandStorage::kMemoryToMemory, thick, kCache);
    const Cycle c3 = run_spin(OperandStorage::kLocalMemory, thick, kCache);
    t.add(thick, c1, c2, c3, ratio(c1, c2));
  }
  Section sweep{"register-cache size sweep at thickness 512:",
                {"cache words", "cached lanes (R=16)", "cycles"}};
  for (std::uint32_t cw : {128u, 512u, 2048u, 8192u}) {
    sweep.add(cw, cw / 16,
              run_spin(OperandStorage::kCachedRegisterFile, 512, cw));
  }
  a.sections = {t, sweep};
  return a;
}

// ---------------------------------------------------------------------------
// AB2 — Section 3.2's ILP-TLP co-execution remark: thick data-parallel
// operations scale with the issue width, thin sections do not.

Cycle run_with_fu(std::uint32_t fu, Word thickness) {
  auto cfg = default_cfg(1, 16);
  cfg.functional_units = fu;
  Machine m(cfg);
  m.load(tcf::kernels::spin_ops(thickness, 32));
  m.boot(1);
  m.run();
  return m.stats().cycles;
}

Artefact ab2() {
  Artefact a;
  a.title = "ablation: ILP-TLP co-execution (functional units per processor)";
  a.claim = "thick flows feed any number of functional units; thin flows "
            "cannot";
  Section t{"",
            {"functional units", "thick flow (T=512)", "speedup",
             "thin flow (T=1)", "speedup"}};
  const Cycle thick1 = run_with_fu(1, 512);
  const Cycle thin1 = run_with_fu(1, 1);
  for (std::uint32_t fu : {1u, 2u, 4u, 8u}) {
    const Cycle thick = run_with_fu(fu, 512);
    const Cycle thin = run_with_fu(fu, 1);
    t.add(fu, thick, ratio(thick1, thick), thin, ratio(thin1, thin));
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// AB3 — address-to-module placement: plain modulo interleaving collapses
// when the access stride matches the module count; hashing repairs it.

std::pair<Cycle, Cycle> run_placement(bool hashed, Word stride) {
  constexpr Word kN = 256;
  Machine m(default_cfg(4, 16));
  // Element index = (r15 + tid) * stride. The flow is split into 4
  // fragments over the 4 groups, so each group's compute term is n/4 —
  // small enough that a hot module dominates the step.
  tcf::AsmBuilder s;
  using namespace tcf;
  s.tid(r1);
  s.add(r1, r1, r15);            // global element index
  s.mul(r1, r1, stride);
  s.add(r2, r1, Word{4096});     // &a[i*stride]
  s.ld(r3, r2);
  s.add(r3, r3, Word{1});
  s.add(r4, r1, Word{1 << 16});  // &c[i*stride]
  s.st(r3, r4);
  s.halt();
  m.load(s.build());
  if (hashed) {
    const std::uint32_t mods = m.shared().modules();
    m.shared().set_address_hash([mods](Addr a) {
      return static_cast<std::uint32_t>(((a * 0x9E3779B97F4A7C15ull) >> 33) %
                                        mods);
    });
  }
  const Word frag = kN / 4;
  for (GroupId g = 0; g < 4; ++g) {
    const FlowId id = m.boot_at(0, frag, g);
    for (Word lane = 0; lane < frag; ++lane) {
      m.poke_reg(id, static_cast<LaneId>(lane), 15,
                 static_cast<Word>(g) * frag);
    }
  }
  m.run();
  return {m.stats().cycles, m.stats().memory_wait_cycles};
}

Artefact ab3() {
  Artefact a;
  a.title = "ablation: memory module placement, modulo vs hashed";
  a.claim =
      "randomised placement keeps module load balanced under strided "
      "access; naive interleaving creates hot modules and serialisation";
  Section t{"", {"stride", "placement", "cycles", "memory-wait cycles"}};
  for (Word stride : {1, 3, 4, 8}) {  // 4 = module count: the bad case
    for (bool hashed : {false, true}) {
      const auto [cycles, wait] = run_placement(hashed, stride);
      t.add(stride, hashed ? "hashed" : "modulo", cycles, wait);
    }
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// AB4 — automatic splitting of overly thick flows (Sec. 3.3: "the OS can
// split such flows automatically"): one SPAWN of thickness 1024 on a P=4
// machine with the OS splitter bound swept.

isa::Program spawn_work(Word n, Addr a, Addr c) {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto worker = s.make_label("worker");
  s.ldi(r1, n);
  s.spawn(r1, worker);
  s.joinall();
  s.halt();
  s.bind(worker);  // fragment convention: r15 = base lane offset
  s.tid(r2);
  s.add(r2, r2, r15);
  s.add(r3, r2, static_cast<Word>(a));
  s.ld(r4, r3);
  s.mul(r4, r4, Word{3});
  s.add(r5, r2, static_cast<Word>(c));
  s.st(r4, r5);
  s.halt();
  return s.build();
}

Artefact ab4() {
  Artefact a;
  a.title = "ablation: automatic splitting of overly thick flows (Sec. 3.3)";
  a.claim =
      "split bound sweep: unsplit = 1 busy processor; >= P fragments = full "
      "machine; tiny fragments = spawn overhead";
  constexpr Word kN = 1024;
  constexpr Addr ka = 4096, kc = 1 << 16;
  Section t{"",
            {"split bound", "fragments", "cycles", "speedup", "utilization"}};
  Cycle unsplit = 0;
  for (Word bound : {0, 512, 256, 128, 32, 8}) {
    Machine m(default_cfg(4, 16));
    if (bound > 0) sched::install_auto_splitter(m, bound);
    m.load(spawn_work(kN, ka, kc));
    for (Word i = 0; i < kN; ++i) m.shared().poke(ka + i, i);
    m.boot(1);
    if (!m.run().completed) {
      a.failure = "bound " + std::to_string(bound) + " did not complete";
    }
    for (Word i = 0; i < kN && a.failure.empty(); ++i) {
      if (m.shared().peek(kc + i) != 3 * i) {
        a.failure = "bound " + std::to_string(bound) +
                    ": wrong result at " + std::to_string(i);
      }
    }
    if (bound == 0) unsplit = m.stats().cycles;
    t.add(bound == 0 ? "none" : std::to_string(bound),
          bound == 0 ? 1 : (kN + bound - 1) / bound, m.stats().cycles,
          ratio(unsplit, m.stats().cycles), utilization(m.stats()));
  }
  a.sections = {t};
  return a;
}

// ---------------------------------------------------------------------------
// T1S — Table 1 per machine shape (DESIGN.md §12): every scenarios/*.tcf
// workload on the uniform, fat-thin and gpu shapes under single-instruction
// and balanced:16, with the placement-aware throughput-LPT hook installed.

#ifndef TCFPN_SCENARIOS_DIR
#error "TCFPN_SCENARIOS_DIR must point at the scenarios/ suite"
#endif

const char* const kShapes[] = {"uniform", "fat-thin", "gpu"};

struct Lane {
  Variant variant;
  const char* name;
};
const Lane kLanes[] = {
    {Variant::kSingleInstruction, "single-instruction"},
    {Variant::kBalanced, "balanced:16"},
};

MachineConfig shaped_cfg(const Lane& lane, const std::string& shape,
                         std::uint32_t host_threads) {
  MachineConfig cfg;
  cfg.variant = lane.variant;
  cfg.groups = 4;
  cfg.slots_per_group = 32;
  cfg.shared_words = conformance::kSharedWords;
  cfg.local_words = conformance::kLocalWords;
  cfg.balanced_bound = 16;
  cfg.host_threads = host_threads;
  machine::apply_shape(cfg, shape);
  return cfg;
}

struct RunSnap {
  bool completed = false;
  machine::MachineStats stats;
  metrics::MetricsSnapshot metrics;
  std::vector<Word> prints;
  std::vector<Word> shared;
};

RunSnap run_shaped(const conformance::Scenario& sc, const MachineConfig& cfg) {
  Machine m(cfg);
  m.load(sc.program);
  sched::install_throughput_lpt_hook(m);
  m.boot(sc.boot_thickness);
  RunSnap o;
  o.completed = m.run(1u << 22).completed;
  o.stats = m.stats();
  o.metrics = m.metrics_snapshot();
  o.prints = m.debug_output();
  o.shared.resize(conformance::kSharedWords);
  for (Addr a = 0; a < conformance::kSharedWords; ++a) {
    o.shared[a] = m.shared().peek(a);
  }
  return o;
}

std::uint64_t counter_of(const metrics::MetricsSnapshot& s,
                         const std::string& path) {
  const auto it = s.entries.find(path);
  return it == s.entries.end() ? 0 : it->second.count;
}

Artefact t1s() {
  const std::vector<ScenarioRow> rows = scenario_rows();
  Artefact a;
  a.title = "scenario suite x machine shapes: Table 1 per heterogeneous shape";
  a.claim =
      "real TCF workloads (sort/BFS/histogram/spmv/compact) on uniform, "
      "fat-NUMA+thin-PRAM and GPU-like machines; every row oracle-checked "
      "and host-thread bit-identical before its cycles count";
  for (const char* shape : kShapes) {
    Section t{"",
              {"scenario", "variant", "cycles", "steps", "fill", "slot",
               "mem", "util%", "oracle", "identical"}};
    for (const ScenarioRow& r : rows) {
      if (r.shape != shape) continue;
      t.caption = "-- shape = " + r.shape + " (" + r.machine_shape + "), " +
                  std::to_string(r.total_slots) + " slots";
      t.add(r.scenario, r.variant, r.stats.cycles, r.stats.steps,
            r.fill_cycles, r.slot_cycles, r.mem_cycles,
            static_cast<int>(100 * r.stats.utilization()), r.oracle_match,
            r.bit_identical);
    }
    a.sections.push_back(std::move(t));
  }
  return a;
}

// ---------------------------------------------------------------------------
// The registry.

struct Entry {
  const char* id;
  Artefact (*fn)();
};

const Entry kArtefacts[] = {
    {"T1", t1},    {"F3", f3},    {"F4", f4},   {"F6", f6},
    {"F7", f7},    {"F8", f8},    {"F9", f9},   {"F10", f10},
    {"F11", f11},  {"F12", f12},  {"F13", f13}, {"S4a", s4a},
    {"S4b", s4b},  {"S4c", s4c},  {"S4d", s4d}, {"S4e", s4e},
    {"S4f", s4f},  {"NET", net_substrate},      {"AB1", ab1},
    {"AB2", ab2},  {"AB3", ab3},  {"AB4", ab4}, {"T1S", t1s},
};

}  // namespace

std::vector<ScenarioRow> scenario_rows() {
  const std::vector<conformance::Scenario> suite =
      conformance::scenario_suite(TCFPN_SCENARIOS_DIR);
  std::vector<ScenarioRow> rows;
  for (const char* shape : kShapes) {
    for (const conformance::Scenario& sc : suite) {
      // One oracle run per scenario: the yardstick for every lane.
      conformance::OracleOptions oo;
      oo.shared_words = conformance::kSharedWords;
      oo.local_words = conformance::kLocalWords;
      oo.max_steps = 1u << 22;
      const conformance::OracleResult want = conformance::run_oracle(
          sc.program, sc.boot_thickness, /*boot_flows=*/0,
          /*esm_boot=*/false, oo);
      for (const Lane& lane : kLanes) {
        const MachineConfig cfg = shaped_cfg(lane, shape, 1);
        const RunSnap one = run_shaped(sc, cfg);
        const RunSnap two = run_shaped(sc, shaped_cfg(lane, shape, 2));
        ScenarioRow r;
        r.scenario = sc.name;
        r.shape = shape;
        r.machine_shape = machine::shape_summary(cfg);
        r.variant = lane.name;
        r.total_slots = cfg.total_slots();
        r.stats = one.stats;
        r.fill_cycles = counter_of(one.metrics, "machine/pipeline_fill_cycles");
        r.slot_cycles = counter_of(one.metrics, "machine/slot_term_cycles");
        r.mem_cycles = counter_of(one.metrics, "machine/memory_term_cycles");
        r.oracle_match = want.completed && one.completed &&
                         one.shared == want.shared && one.prints == want.debug;
        r.bit_identical = two.completed && one.stats == two.stats &&
                          one.shared == two.shared &&
                          one.metrics == two.metrics;
        rows.push_back(std::move(r));
      }
    }
  }
  return rows;
}

const std::vector<std::string>& ids() {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> v;
    for (const Entry& e : kArtefacts) v.emplace_back(e.id);
    return v;
  }();
  return all;
}

std::optional<Artefact> run(std::string_view id) {
  for (const Entry& e : kArtefacts) {
    if (id == e.id) {
      Artefact a = e.fn();
      a.id = e.id;
      return a;
    }
  }
  return std::nullopt;
}

}  // namespace tcfpn::paper
