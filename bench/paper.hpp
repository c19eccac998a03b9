// The paper's artefacts as data: Table 1, Figs. 3-13, the six Section 4
// code comparisons, the network substrate, four ablations and the
// per-shape Table 1 of the scenario suite.
//
// Each artefact runs its experiment on the simulator and returns the
// tables it measured, cell by cell: counts as integers, ratios as the two
// integers they divide. `tcfpaper` prints them and `test_paper` asserts
// them, so the printed tables and the checked numbers cannot disagree.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "machine/machine.hpp"

namespace tcfpn::paper {

/// An exact ratio of two simulated counts, printed as the quotient. 0/0
/// prints as 0, like MachineStats::utilization() of an idle machine.
struct Ratio {
  std::int64_t num = 0;
  std::int64_t den = 0;
  double value() const;
  bool operator==(const Ratio&) const = default;
};

/// One table cell: a count, an exact ratio, a real-valued statistic (the
/// network latency distribution only), a yes/no verdict, or text.
using Cell = std::variant<std::int64_t, Ratio, double, bool, std::string>;

template <typename T>
Cell to_cell(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, Ratio>) {
    return v;
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<std::int64_t>(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<double>(v);
  } else {
    return std::string(v);
  }
}

/// One printed table, with an optional caption above and text below.
struct Section {
  Section(std::string caption_text, std::vector<std::string> columns)
      : caption(std::move(caption_text)), header(std::move(columns)) {}

  std::string caption;
  std::vector<std::string> header;
  std::vector<std::vector<Cell>> rows;
  std::string footer;

  template <typename... Args>
  void add(const Args&... args) {
    rows.push_back({to_cell(args)...});
  }

  /// The first row whose leading cells print as the '|'-separated `key`
  /// ("64", "TCF thick multiprefix|4096"); throws SimError if none does.
  const std::vector<Cell>& row(std::string_view key) const;

  /// The cell in `column` of row(`row`). Throws SimError when the column
  /// does not exist or the cell has another kind.
  const Cell& at(std::string_view row, std::string_view column) const;
  std::int64_t count(std::string_view row, std::string_view column) const;
  Ratio ratio(std::string_view row, std::string_view column) const;
  double real(std::string_view row, std::string_view column) const;
  std::string text(std::string_view row, std::string_view column) const;
};

struct Artefact {
  std::string id;
  std::string title;
  std::string claim;  ///< the paper's claim the artefact reproduces
  std::vector<Section> sections;
  /// Why the artefact's own check failed (F4's step profile, F6's runs,
  /// AB4's results, T1S's oracle and host-thread checks); empty when it
  /// passed.
  std::string failure;

  /// No failure recorded and every yes/no cell says yes.
  bool passed() const;
  std::string render() const;
};

/// Every artefact ID in print order: T1, F3, F4, F6-F13, S4a-S4f, NET,
/// AB1-AB4, T1S.
const std::vector<std::string>& ids();

/// Runs one artefact; nullopt for an unknown ID.
std::optional<Artefact> run(std::string_view id);

/// One row of T1S: a scenarios/*.tcf workload on a machine shape under a
/// variant, with its Table 1 term split and its two checks.
struct ScenarioRow {
  std::string scenario;
  std::string shape;
  std::string machine_shape;  ///< shape_summary of the parsed config
  std::string variant;
  std::uint64_t total_slots = 0;
  machine::MachineStats stats;
  std::uint64_t fill_cycles = 0;
  std::uint64_t slot_cycles = 0;
  std::uint64_t mem_cycles = 0;
  /// Shared memory and PRINT stream equal the sequential oracle's.
  bool oracle_match = false;
  /// A host_threads=2 rerun reproduces the stats, metrics and memory.
  bool bit_identical = false;
};

/// The 30 rows of T1S: five scenarios x three shapes x two variants.
std::vector<ScenarioRow> scenario_rows();

/// The paper's default machine: P groups of T_p slots on a 2-D mesh.
machine::MachineConfig default_cfg(std::uint32_t groups = 4,
                                   std::uint32_t slots = 16);

}  // namespace tcfpn::paper
