// The paper's numbers, pinned. Every artefact that tcfpaper prints runs
// here and is asserted exactly: counts as integers and every ratio cell as
// the pair of integers it divides. The last test checks each table line of
// EXPERIMENTS.md against the printer, so the document cannot drift from the
// simulator either.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "paper.hpp"

namespace tcfpn::paper {

// Prints a failing ratio as its pair (gtest finds it by argument lookup).
void PrintTo(const Ratio& r, std::ostream* os) {
  *os << r.num << "/" << r.den;
}

namespace {

const Artefact& artefact(const std::string& id) {
  static std::map<std::string, Artefact> cache;
  auto it = cache.find(id);
  if (it == cache.end()) it = cache.emplace(id, *run(id)).first;
  return it->second;
}

const Section& section(const std::string& id, std::size_t i) {
  return artefact(id).sections.at(i);
}

// Index of the column headed `name`; `nth` picks a repeated heading.
std::size_t column(const Section& s, const std::string& name, int nth = 0) {
  for (std::size_t c = 0; c < s.header.size(); ++c) {
    if (s.header[c] == name && nth-- == 0) return c;
  }
  throw SimError("no column " + name);
}

// Asserts the ratio cells of column `col`, row by row, as exact pairs, and
// that no ratio cell of the column goes unchecked.
void expect_ratios(const Section& s, std::size_t col,
                   const std::vector<std::pair<std::string, Ratio>>& want) {
  std::size_t ratios = 0;
  for (const auto& cells : s.rows) {
    ratios += std::holds_alternative<Ratio>(cells.at(col)) ? 1 : 0;
  }
  EXPECT_EQ(ratios, want.size()) << s.header.at(col);
  for (const auto& [key, r] : want) {
    EXPECT_EQ(std::get<Ratio>(s.row(key).at(col)), r)
        << s.header.at(col) << " @ " << key;
  }
}

void expect_ratios(const Section& s, const std::string& name,
                   const std::vector<std::pair<std::string, Ratio>>& want) {
  expect_ratios(s, column(s, name), want);
}

// Asserts one count column, row by row.
void expect_counts(const Section& s, const std::string& name,
                   const std::vector<std::pair<std::string, std::int64_t>>&
                       want) {
  for (const auto& [key, v] : want) {
    EXPECT_EQ(s.count(key, name), v) << name << " @ " << key;
  }
}

TEST(Paper, RegistryListsEveryArtefact) {
  const std::vector<std::string> want = {
      "T1",  "F3",  "F4",  "F6",  "F7",  "F8",  "F9",  "F10",
      "F11", "F12", "F13", "S4a", "S4b", "S4c", "S4d", "S4e",
      "S4f", "NET", "AB1", "AB2", "AB3", "AB4", "T1S"};
  EXPECT_EQ(ids(), want);
  EXPECT_FALSE(run("F5").has_value());
  EXPECT_FALSE(run("t1").has_value());
}

// The former self-checks (F4's step profile, F6's runs, AB4's results) and
// every yes/no column: correctness against sequential references, T1S's
// oracle match and host-thread bit-identity.
TEST(Paper, EveryArtefactPassesItsOwnChecks) {
  for (const std::string& id : ids()) {
    EXPECT_TRUE(artefact(id).passed()) << id << ": " << artefact(id).failure;
  }
}

TEST(Paper, T1CostOfPrimitives) {
  const Section& m = section("T1", 1);
  const char* const variants[] = {"single-instr", "balanced",
                                  "multi-instr",  "single-op",
                                  "config-single-op", "fixed-thick"};
  const Ratio fetches[] = {{17, 17},   {65, 17},   {1088, 17},
                           {1088, 17}, {1088, 17}, {17, 17}};
  const std::int64_t resident[] = {0, 0, 1, 1024, 1024, 1024};
  const std::int64_t displaced[] = {2080, 2080, 2, 2048, 2048, 2048};
  const char* const branch[] = {"16 cycles", "16 cycles", "1 cycles",
                                "1 cycles",  "1 cycles",
                                "n/a (no control par.)"};
  const double regs[] = {20, 20, 16, 16, 16, 16};
  for (int v = 0; v < 6; ++v) {
    const char* col = variants[v];
    EXPECT_EQ(m.ratio("fetches per thick instr (u=64)", col), fetches[v])
        << col;
    EXPECT_EQ(m.count("task switch, resident (cycles)", col), resident[v])
        << col;
    EXPECT_EQ(m.count("task switch, displaced (cycles)", col), displaced[v])
        << col;
    EXPECT_EQ(m.text("flow branch (cycles per split)", col), branch[v])
        << col;
    EXPECT_EQ(m.real("registers per thread (analytic)", col), regs[v]) << col;
  }
  EXPECT_EQ(section("T1", 0).text("Fetches per TCF", "balanced"), "u/b");
}

TEST(Paper, F3BlockStructure) {
  const Section& blocks = section("F3", 0);
  std::int64_t instrs = 0, ops = 0;
  for (const auto& cells : blocks.rows) {
    instrs += std::get<std::int64_t>(cells.at(2));
    ops += std::get<std::int64_t>(cells.at(3));
  }
  EXPECT_EQ(instrs, 19);
  EXPECT_EQ(ops, 200);
  expect_counts(section("F3", 1), "value",
                {{"machine steps", 25},
                 {"cycles", 350},
                 {"TCF instructions", 30},
                 {"lane operations", 239},
                 {"splits (spawns)", 2},
                 {"joins", 1},
                 {"instruction fetches", 30}});
}

TEST(Paper, F4StepProfileFollowsTheThicknessScript) {
  const Section& t = section("F4", 0);
  ASSERT_EQ(t.rows.size(), 16u);
  const std::int64_t want[] = {1, 1, 1, 1, 8, 8, 1, 2, 2, 1, 5, 5, 1, 3, 3, 1};
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string step = std::to_string(i + 1);
    EXPECT_EQ(t.count(step, "ops executed"), want[i]) << step;
    EXPECT_EQ(t.count(step, "expected (thickness)"), want[i]) << step;
  }
}

TEST(Paper, F6LatencyHiding) {
  const Section& pram = section("F6", 0);
  expect_counts(pram, "cycles",
                {{"1", 7720}, {"2", 7720}, {"4", 7720}, {"8", 7720},
                 {"16", 7720}});
  expect_ratios(pram, "cycles/op",
                {{"1", {7720, 386}}, {"2", {7720, 386}}, {"4", {7720, 386}},
                 {"8", {7720, 386}}, {"16", {7720, 386}}});
  expect_ratios(pram, "utilization",
                {{"1", {386, 6176}}, {"2", {772, 6176}}, {"4", {1544, 6176}},
                 {"8", {3088, 6176}}, {"16", {6176, 6176}}});
  expect_ratios(section("F6", 1), "cycles/instruction",
                {{"PRAM, 1 thread of Tp=16", {7720, 386}},
                 {"NUMA bunch, L=2", {3880, 387}},
                 {"NUMA bunch, L=4", {1960, 387}},
                 {"NUMA bunch, L=8", {1000, 387}},
                 {"NUMA bunch, L=16", {520, 387}}});
}

TEST(Paper, F7ThickNeighbourStarvesTheThinFlow) {
  const Section& t = section("F7", 0);
  expect_counts(t, "thin done (cycles)",
                {{"8", 485}, {"16", 805}, {"64", 2725}, {"256", 18085},
                 {"1024", 79525}});
  expect_counts(t, "makespan (cycles)",
                {{"8", 485}, {"16", 805}, {"64", 2725}, {"256", 18085},
                 {"1024", 79525}});
  expect_ratios(t, "machine utilization",
                {{"8", {642, 642}}, {"16", {962, 1282}}, {"64", {2882, 5122}},
                 {"256", {18242, 35842}}, {"1024", {79682, 158722}}});
  expect_ratios(t, "thin efficiency vs solo",
                {{"8", {485, 485}}, {"16", {485, 805}}, {"64", {485, 2725}},
                 {"256", {485, 18085}}, {"1024", {485, 79525}}});
}

TEST(Paper, F8BalancedBoundFreesTheThinFlow) {
  const Section& t = section("F8", 0);
  struct Row {
    const char* key;
    std::int64_t thin, makespan, steps, fetches;
  };
  const Row want[] = {{"single-instruction", 79525, 79525, 41, 82},
                      {"balanced|8", 492, 61452, 5121, 5162},
                      {"balanced|16", 420, 51220, 2561, 2602},
                      {"balanced|64", 408, 43588, 641, 682},
                      {"balanced|256", 520, 41860, 161, 202}};
  for (const Row& r : want) {
    EXPECT_EQ(t.count(r.key, "thin done (cycles)"), r.thin) << r.key;
    EXPECT_EQ(t.count(r.key, "makespan"), r.makespan) << r.key;
    EXPECT_EQ(t.count(r.key, "steps"), r.steps) << r.key;
    EXPECT_EQ(t.count(r.key, "fetches"), r.fetches) << r.key;
  }
}

TEST(Paper, F9XmtAgainstTheExtendedModel) {
  const Section& indep = section("F9", 0);
  expect_counts(indep, "extended TCF (cycles)",
                {{"64", 282}, {"256", 1818}, {"1024", 7962}});
  expect_counts(indep, "XMT fork (cycles)",
                {{"64", 602}, {"256", 2330}, {"1024", 9242}});
  expect_ratios(indep, "XMT / TCF",
                {{"64", {602, 282}}, {"256", {2330, 1818}},
                 {"1024", {9242, 7962}}});
  // The dependent scan: XMT wins from n=256 on (EXPERIMENTS.md
  // Deviations).
  const Section& dep = section("F9", 1);
  expect_counts(dep, "TCF (cycles)",
                {{"64", 3780}, {"256", 33046}, {"1024", 180968}});
  expect_counts(dep, "TCF joins", {{"64", 0}, {"256", 0}, {"1024", 0}});
  expect_counts(dep, "XMT (cycles)",
                {{"64", 4022}, {"256", 20720}, {"1024", 102698}});
  expect_counts(dep, "XMT joins", {{"64", 6}, {"256", 8}, {"1024", 10}});
  expect_ratios(dep, "XMT / TCF",
                {{"64", {4022, 3780}}, {"256", {20720, 33046}},
                 {"1024", {102698, 180968}}});
}

TEST(Paper, F10PlainEsmWastesIdleSlots) {
  const Section& t = section("F10", 0);
  const std::vector<std::pair<std::string, std::int64_t>> steps = {
      {"16", 194}, {"8", 194}, {"4", 194}, {"2", 194}, {"1", 194}};
  expect_counts(t, "steps", steps);
  expect_counts(t, "cycles",
                {{"16", 3880}, {"8", 3880}, {"4", 3880}, {"2", 3880},
                 {"1", 3880}});
  expect_ratios(t, "utilization",
                {{"16", {3104, 3104}}, {"8", {1552, 3104}},
                 {"4", {776, 3104}}, {"2", {388, 3104}},
                 {"1", {194, 3104}}});
  expect_ratios(t, "slowdown vs full",
                {{"16", {3880, 3880}}, {"8", {3880, 3880}},
                 {"4", {3880, 3880}}, {"2", {3880, 3880}},
                 {"1", {3880, 3880}}});
}

TEST(Paper, F11NumaBunchesSpeedUpSequentialCode) {
  const Section& t = section("F11", 0);
  expect_counts(t, "steps",
                {{"ESM, 1 thread (Fig. 10 case)", 1538},
                 {"NUMA bunch of 2", 770},
                 {"NUMA bunch of 4", 386},
                 {"NUMA bunch of 8", 194},
                 {"NUMA bunch of 16", 98}});
  expect_ratios(t, "speedup vs ESM 1-thread",
                {{"ESM, 1 thread (Fig. 10 case)", {30760, 30760}},
                 {"NUMA bunch of 2", {30760, 15400}},
                 {"NUMA bunch of 4", {30760, 7720}},
                 {"NUMA bunch of 8", {30760, 3880}},
                 {"NUMA bunch of 16", {30760, 1960}}});
}

TEST(Paper, F12SimdPaysBothPaths) {
  const Section& t = section("F12", 0);
  expect_counts(t, "SIMD ops", {{"64", 1514}, {"256", 5954}, {"1024", 23714}});
  expect_counts(t, "TCF ops", {{"64", 168}, {"256", 648}, {"1024", 2568}});
  expect_ratios(t, "SIMD / TCF cycles",
                {{"64", {1930, 182}}, {"256", {7570, 822}},
                 {"1024", {30130, 3894}}});
}

TEST(Paper, F13TcfBuffer) {
  const Section& fetch = section("F13", 0);
  expect_counts(fetch, "operations",
                {{"1", 34}, {"4", 130}, {"16", 514}, {"64", 2050},
                 {"256", 8194}});
  expect_counts(fetch, "fetches",
                {{"1", 34}, {"4", 34}, {"16", 34}, {"64", 34}, {"256", 34}});
  expect_ratios(fetch, "fetches per op",
                {{"1", {34, 34}}, {"4", {34, 130}}, {"16", {34, 514}},
                 {"64", {34, 2050}}, {"256", {34, 8194}}});
  const Section& numa = section("F13", 1);
  expect_counts(numa, "instructions",
                {{"NUMA block L=8", 387}, {"PRAM thickness 8", 66}});
  expect_counts(numa, "fetches",
                {{"NUMA block L=8", 387}, {"PRAM thickness 8", 66}});
  const Section& buffer = section("F13", 2);
  expect_counts(buffer, "switches",
                {{"8|16", 71}, {"8|4", 71}, {"8|2", 71}});
  expect_counts(buffer, "task-switch cycles",
                {{"8|16", 0}, {"8|4", 10016}, {"8|2", 10464}});
}

TEST(Paper, S4aVectorAddAcrossModels) {
  const Section& t = section("S4a", 0);
  for (const char* n : {"24", "64", "100", "256", "1000"}) {
    const std::string tcf = std::string("TCF  #size; c.=a.+b.|") + n;
    EXPECT_EQ(t.count(tcf, "static instrs"), 6) << n;
    EXPECT_EQ(t.count(tcf, "dyn instrs"), 6) << n;
    EXPECT_EQ(t.count(tcf, "fetches"), 6) << n;
    EXPECT_EQ(t.count(std::string("ESM  for(i=tid;...)|") + n,
                      "static instrs"),
              13);
    EXPECT_EQ(t.count(std::string("XMT  fork(tid<size)|") + n,
                      "static instrs"),
              13);
    EXPECT_EQ(t.count(std::string("SIMD strip-mined|") + n, "static instrs"),
              19);
  }
  expect_counts(t, "dyn instrs",
                {{"ESM  for(i=tid;...)|24", 520},
                 {"ESM  for(i=tid;...)|1000", 11256},
                 {"XMT  fork(tid<size)|24", 220},
                 {"XMT  fork(tid<size)|1000", 9004},
                 {"SIMD strip-mined|24", 38},
                 {"SIMD strip-mined|1000", 1075}});
}

TEST(Paper, S4bNumaStatement) {
  const Section& t = section("S4b", 0);
  expect_ratios(t, "cycles per instr",
                {{"ESM single thread (no NUMA)", {15400, 770}},
                 {"PRAM-NUMA `numa` bunch (16)", {1000, 771}},
                 {"extended `#1/4;`", {1547, 771}},
                 {"extended `#1/16;`", {971, 771}}});
  expect_ratios(t, "utilization",
                {{"ESM single thread (no NUMA)", {770, 12320}},
                 {"PRAM-NUMA `numa` bunch (16)", {771, 800}},
                 {"extended `#1/4;`", {771, 771}},
                 {"extended `#1/16;`", {771, 771}}});
}

TEST(Paper, S4cConditionals) {
  const Section& two = section("S4c", 0);
  expect_counts(two, "cycles",
                {{"TCF parallel{ }|64", 182},
                 {"ESM per-thread if|64", 260},
                 {"SIMD both paths|64", 1930},
                 {"TCF parallel{ }|256", 822},
                 {"ESM per-thread if|256", 800}});
  expect_counts(two, "lane ops",
                {{"TCF parallel{ }|256", 648}, {"ESM per-thread if|256", 2560}});
  const Section& one = section("S4c", 1);
  expect_counts(one, "cycles",
                {{"TCF #size/2:|256", 794}, {"ESM if(tid<n/2)|256", 520}});
  expect_counts(one, "lane ops",
                {{"TCF #size/2:|64", 130},
                 {"ESM if(tid<n/2)|64", 416},
                 {"TCF #size/2:|256", 514},
                 {"ESM if(tid<n/2)|256", 1664}});
}

TEST(Paper, S4dMultiprefix) {
  const Section& t = section("S4d", 0);
  for (const char* n : {"64", "256", "1024", "4096"}) {
    EXPECT_EQ(t.count(std::string("TCF thick multiprefix|") + n, "fetches"),
              5)
        << n;
  }
  expect_counts(t, "cycles",
                {{"TCF thick multiprefix|64", 214},
                 {"PRAM-NUMA loop|64", 800},
                 {"TCF thick multiprefix|4096", 24406},
                 {"PRAM-NUMA loop|4096", 46160}});
  EXPECT_EQ(t.count("PRAM-NUMA loop|4096", "fetches"), 36928);
}

TEST(Paper, S4eDependentLoop) {
  const Section& t = section("S4e", 0);
  expect_counts(t, "rounds", {{"64", 6}, {"256", 8}, {"1024", 10}});
  expect_counts(t, "TCF syncs", {{"64", 0}, {"256", 0}, {"1024", 0}});
  expect_counts(t, "TCF cycles",
                {{"64", 3780}, {"256", 33046}, {"1024", 180968}});
  expect_counts(t, "XMT cycles",
                {{"64", 4310}, {"256", 21104}, {"1024", 103178}});
  expect_counts(t, "XMT joins", {{"64", 6}, {"256", 8}, {"1024", 10}});
  expect_ratios(t, "XMT/TCF",
                {{"64", {4310, 3780}}, {"256", {21104, 33046}},
                 {"1024", {103178, 180968}}});
}

TEST(Paper, S4fMultitaskingAndAllocation) {
  const Section& rr = section("S4f", 0);
  const char* const resident = "extended TCF (resident)";
  const char* const overflowing = "extended TCF (overflowing)";
  const char* const esm = "threaded ESM (O(Tp) switch)";
  expect_counts(rr, "switches",
                {{resident, 293}, {overflowing, 293}, {esm, 293}});
  expect_counts(rr, "switch cycles",
                {{resident, 0}, {overflowing, 18368}, {esm, 150016}});
  expect_counts(rr, "total cycles",
                {{resident, 5820}, {overflowing, 24188}, {esm, 173296}});
  expect_ratios(rr, "switch cycles/switch",
                {{resident, {0, 293}},
                 {overflowing, {18368, 293}},
                 {esm, {150016, 293}}});
  const Section& alloc = section("S4f", 1);
  expect_ratios(alloc, "speedup",
                {{"vertical (one T-wide TCF)", {13921, 13921}},
                 {"horizontal, 2 fragments", {13921, 6753}},
                 {"horizontal, 4 fragments", {13921, 3169}},
                 {"horizontal, 8 fragments", {13921, 2722}}});
}

TEST(Paper, NetLatencyFollowsDistance) {
  const Section& lat = section("NET", 0);
  struct Row {
    const char* topology;
    std::int64_t diameter;
  };
  for (const Row& r : {Row{"crossbar", 1}, Row{"ring", 8}, Row{"mesh2d", 6},
                       Row{"torus2d", 4}, Row{"hypercube", 4}}) {
    // Latency = hops + 1 (the ejection cycle).
    EXPECT_EQ(lat.count(r.topology, "diameter"), r.diameter);
    EXPECT_EQ(lat.text(r.topology, "lat d=1"), std::to_string(2.0));
    EXPECT_EQ(lat.text(r.topology, "lat d=2"),
              r.diameter < 2 ? "-" : std::to_string(3.0));
    EXPECT_EQ(lat.text(r.topology, "lat d=max"),
              std::to_string(r.diameter + 1.0));
  }
  const Section& load = section("NET", 1);
  for (const char* topo : {"ring", "mesh2d", "torus2d", "hypercube"}) {
    const std::string hot = std::string(topo) + "|hot-spot (all->0)";
    EXPECT_EQ(load.count(hot, "drain cycles"), 256) << topo;
    EXPECT_EQ(load.real(hot, "mean lat"), 128.5) << topo;
  }
  expect_counts(load, "drain cycles",
                {{"ring|uniform random", 43},
                 {"mesh2d|uniform random", 29},
                 {"torus2d|uniform random", 23},
                 {"hypercube|uniform random", 22}});
  const Section& sat = section("NET", 2);
  EXPECT_EQ(sat.count("2048", "ring drain"), 315);
  EXPECT_EQ(sat.count("2048", "mesh drain"), 145);
  EXPECT_EQ(sat.count("2048", "hypercube drain"), 139);
}

TEST(Paper, Ab1OperandStorage) {
  const Section& t = section("AB1", 0);
  expect_ratios(t, "cached / mem2mem",
                {{"16", {650, 1674}}, {"64", {2186, 6282}},
                 {"128", {6282, 12426}}, {"512", {30858, 49290}},
                 {"2048", {129162, 196746}}});
  EXPECT_EQ(t.count("2048", "local-memory"), 131210);
  expect_counts(section("AB1", 1), "cycles",
                {{"128", 32650}, {"512", 31882}, {"2048", 28810},
                 {"8192", 16522}});
}

TEST(Paper, Ab2IlpNeedsThickness) {
  const Section& t = section("AB2", 0);
  expect_ratios(t, column(t, "speedup", 0),
                {{"1", {30858, 30858}}, {"2", {30858, 15498}},
                 {"4", {30858, 7818}}, {"8", {30858, 3978}}});
  expect_ratios(t, column(t, "speedup", 1),
                {{"1", {170, 170}}, {"2", {170, 170}}, {"4", {170, 170}},
                 {"8", {170, 170}}});
}

TEST(Paper, Ab3HashedPlacement) {
  expect_counts(section("AB3", 0), "memory-wait cycles",
                {{"1|modulo", 0}, {"1|hashed", 1}, {"3|modulo", 0},
                 {"3|hashed", 3}, {"4|modulo", 384}, {"4|hashed", 1},
                 {"8|modulo", 384}, {"8|hashed", 13}});
}

TEST(Paper, Ab4AutomaticSplitting) {
  const Section& t = section("AB4", 0);
  expect_counts(t, "fragments",
                {{"none", 1}, {"512", 2}, {"256", 4}, {"128", 8}, {"32", 32},
                 {"8", 128}});
  expect_ratios(t, "speedup",
                {{"none", {13954, 13954}}, {"512", {13954, 6786}},
                 {"256", {13954, 3203}}, {"128", {13954, 2756}},
                 {"32", {13954, 1866}}, {"8", {13954, 2067}}});
  expect_ratios(t, "utilization",
                {{"none", {13911, 55640}}, {"512", {13464, 26968}},
                 {"256", {12570, 12636}}, {"128", {10782, 10848}},
                 {"32", {7222, 7288}}, {"8", {7318, 7836}}});
}

// The 30 rows of the per-shape Table 1, every column that used to be
// judged exactly against a committed baseline.
TEST(Paper, T1sScenarioSuitePerShape) {
  struct Want {
    const char* scenario;
    const char* shape;
    const char* variant;
    std::uint64_t total_slots, cycles, steps, fill, slot, mem, switches;
  };
  const Want want[] = {
      {"sort", "uniform", "single-instruction", 128, 583506, 3247, 12988, 570517, 49444, 0},
      {"sort", "uniform", "balanced:16", 128, 477820, 23891, 95564, 382256, 49451, 0},
      {"bfs", "uniform", "single-instruction", 128, 34601, 557, 2228, 32372, 2405, 0},
      {"bfs", "uniform", "balanced:16", 128, 40680, 2034, 8136, 32544, 2429, 0},
      {"histogram", "uniform", "single-instruction", 128, 8059, 80, 320, 7739, 221, 0},
      {"histogram", "uniform", "balanced:16", 128, 5640, 282, 1128, 4512, 221, 0},
      {"spmv", "uniform", "single-instruction", 128, 18626, 169, 676, 17949, 436, 0},
      {"spmv", "uniform", "balanced:16", 128, 16940, 847, 3388, 13552, 435, 0},
      {"compact", "uniform", "single-instruction", 128, 11000, 58, 232, 10768, 964, 0},
      {"compact", "uniform", "balanced:16", 128, 8440, 422, 1688, 6752, 963, 0},
      {"sort", "fat-thin", "single-instruction", 152, 226290, 3247, 19482, 190357, 41174, 0},
      {"sort", "fat-thin", "balanced:16", 152, 525602, 23891, 143346, 382256, 49449, 0},
      {"bfs", "fat-thin", "single-instruction", 152, 14552, 557, 3342, 11162, 1242, 0},
      {"bfs", "fat-thin", "balanced:16", 152, 44748, 2034, 12204, 32544, 2125, 0},
      {"histogram", "fat-thin", "single-instruction", 152, 3129, 80, 480, 2633, 131, 0},
      {"histogram", "fat-thin", "balanced:16", 152, 6204, 282, 1692, 4512, 226, 0},
      {"spmv", "fat-thin", "single-instruction", 152, 7119, 169, 1014, 6049, 270, 0},
      {"spmv", "fat-thin", "balanced:16", 152, 18634, 847, 5082, 13552, 440, 0},
      {"compact", "fat-thin", "single-instruction", 152, 4198, 58, 348, 3628, 724, 0},
      {"compact", "fat-thin", "balanced:16", 152, 9284, 422, 2532, 6752, 962, 0},
      {"sort", "gpu", "single-instruction", 256, 332585, 3247, 38964, 285397, 41171, 0},
      {"sort", "gpu", "balanced:16", 256, 494264, 23891, 286692, 191128, 41183, 0},
      {"bfs", "gpu", "single-instruction", 256, 22928, 557, 6684, 16212, 1236, 0},
      {"bfs", "gpu", "balanced:16", 256, 40710, 2034, 24408, 16272, 1259, 0},
      {"histogram", "gpu", "single-instruction", 256, 4867, 80, 960, 3899, 121, 0},
      {"histogram", "gpu", "balanced:16", 256, 5647, 282, 3384, 2256, 120, 0},
      {"spmv", "gpu", "single-instruction", 256, 11049, 169, 2028, 8989, 267, 0},
      {"spmv", "gpu", "balanced:16", 256, 16988, 847, 10164, 6776, 267, 0},
      {"compact", "gpu", "single-instruction", 256, 6184, 58, 696, 5392, 724, 0},
      {"compact", "gpu", "balanced:16", 256, 8680, 422, 5064, 3376, 725, 0},
  };
  const std::map<std::string, std::string> summaries = {
      {"uniform", "uniform"},
      {"fat-thin", "2*slots=64,clock=3,fill=6,dist+6*slots=4,fill=2,dist"},
      {"gpu", "8*slots=32,clock=2,fill=12,dist"}};
  const std::vector<ScenarioRow> rows = scenario_rows();
  ASSERT_EQ(rows.size(), std::size(want));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioRow& r = rows[i];
    const Want& w = want[i];
    const std::string tag = r.scenario + "/" + r.shape + "/" + r.variant;
    EXPECT_EQ(r.scenario, w.scenario) << i;
    EXPECT_EQ(r.shape, w.shape) << i;
    EXPECT_EQ(r.variant, w.variant) << i;
    EXPECT_EQ(r.machine_shape, summaries.at(w.shape)) << tag;
    EXPECT_EQ(r.total_slots, w.total_slots) << tag;
    EXPECT_EQ(r.stats.cycles, w.cycles) << tag;
    EXPECT_EQ(r.stats.steps, w.steps) << tag;
    EXPECT_EQ(r.fill_cycles, w.fill) << tag;
    EXPECT_EQ(r.slot_cycles, w.slot) << tag;
    EXPECT_EQ(r.mem_cycles, w.mem) << tag;
    EXPECT_EQ(r.stats.task_switch_cycles, w.switches) << tag;
    EXPECT_TRUE(r.oracle_match) << tag;
    EXPECT_TRUE(r.bit_identical) << tag;
  }
}

// Every "## ID — ..." section of EXPERIMENTS.md exists for each artefact,
// and each of its table lines is a line tcfpaper prints for that ID.
TEST(Paper, ExperimentsTablesAreTcfpaperOutput) {
  std::ifstream in(TCFPN_EXPERIMENTS_MD);
  ASSERT_TRUE(in) << TCFPN_EXPERIMENTS_MD;
  std::map<std::string, std::size_t> table_lines;
  std::string id, rendered, line;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      id = line.substr(3, line.find(' ', 3) - 3);
      if (std::find(ids().begin(), ids().end(), id) != ids().end()) {
        rendered = "\n" + artefact(id).render();
        table_lines[id] = 0;
      } else {
        id.clear();
      }
    } else if (!id.empty() && line.rfind("|", 0) == 0) {
      EXPECT_NE(rendered.find("\n" + line + "\n"), std::string::npos)
          << id << ": stale table line\n" << line;
      ++table_lines[id];
    }
  }
  for (const std::string& want : ids()) {
    ASSERT_TRUE(table_lines.count(want)) << "no section for " << want;
    EXPECT_GT(table_lines[want], 0u) << "no table for " << want;
  }
}

}  // namespace
}  // namespace tcfpn::paper
