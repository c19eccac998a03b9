// Host-parallel stepping engine: wall-clock scaling and determinism.
//
// The simulated machine is bit-identical for every --host-threads value;
// this bench measures how much host wall-clock the worker pool saves on a
// Table-1-scale workload (P groups, one flow per group at thickness 4096,
// single-instruction variant) and verifies the determinism contract along
// the way: every MachineStats field and the shared-memory image must match
// the host_threads=1 run exactly.
//
// Results land in BENCH_parallel_step.json next to the working directory;
// the JSON includes std::thread::hardware_concurrency() so a reader can
// tell real scaling from a core-starved host.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "machine/machine.hpp"
#include "obs/bus.hpp"
#include "obs/stream_observer.hpp"
#include "paper.hpp"
#include "tcf/builder.hpp"

using namespace tcfpn;

namespace {

constexpr Word kThickness = 4096;
constexpr std::uint32_t kGroups = 8;
constexpr Word kIters = 64;  // x 10 thick instructions/iter = 640 per flow
constexpr Addr kBase = 1 << 16;

// Each group's flow sweeps its own 8K-word window: thick loads, an ALU
// chain, thick stores, and a scalar loop counter — the per-step mix the
// engine sees on the Table 1 kernels.
isa::Program workload() {
  tcf::AsmBuilder s;
  using namespace tcf;
  auto loop = s.make_label("loop");
  s.ldi(r1, kIters);
  s.bind(loop);
  s.tid(r2);
  s.gid(r3);
  s.shl(r3, r3, Word{13});
  s.add(r3, r3, static_cast<Word>(kBase));
  s.add(r3, r3, r2);  // per-lane address inside the group window
  s.ld(r4, r3);
  s.add(r4, r4, Word{1});
  s.mul(r5, r4, Word{3});
  s.st(r5, r3);
  s.sub(r1, r1, Word{1});
  s.bnez(r1, loop);
  s.halt();
  return s.build();
}

struct Sample {
  std::uint32_t host_threads;
  double seconds;
  machine::MachineStats stats;
  std::uint64_t mem_fingerprint;
  metrics::MetricsSnapshot metrics;
  /// hardware_concurrency() sampled when THIS run executed (affinity masks
  /// and cgroup quotas can change between runs; a row is only judged
  /// against the parallelism that actually existed when it ran).
  std::uint32_t hardware_concurrency;
  /// host_threads exceeds the cores the run really had: wall-clock numbers
  /// measure scheduler churn, not the engine, so no speedup verdict.
  bool oversubscribed;
};

bool stats_equal(const machine::MachineStats& a,
                 const machine::MachineStats& b) {
  return a.cycles == b.cycles && a.steps == b.steps &&
         a.tcf_instructions == b.tcf_instructions &&
         a.operations == b.operations &&
         a.instruction_fetches == b.instruction_fetches &&
         a.spawns == b.spawns && a.joins == b.joins &&
         a.busy_slots == b.busy_slots && a.idle_slots == b.idle_slots &&
         a.memory_wait_cycles == b.memory_wait_cycles &&
         a.task_switch_cycles == b.task_switch_cycles &&
         a.branch_cost_cycles == b.branch_cost_cycles;
}

// Step cadence of the streaming lane — the tools' --stream-every default.
constexpr StepId kStreamEvery = 64;

Sample run_once(std::uint32_t host_threads, const isa::Program& prog,
                bool streamed = false, obs::BusStats* bus_stats = nullptr) {
  auto cfg = paper::default_cfg(kGroups, 16);
  cfg.shared_words = 1u << 21;
  cfg.host_threads = host_threads;
  machine::Machine m(cfg);
  m.load(prog);
  for (GroupId g = 0; g < kGroups; ++g) {
    m.boot_at(prog.entry(), kThickness, g);
  }
  // The streaming lane measures the full stack — observer windows, ring
  // traffic, sink serialization — minus disk noise (/dev/null destination).
  std::unique_ptr<obs::Bus> bus;
  std::unique_ptr<obs::StreamObserver> observer;
  if (streamed) {
    obs::Bus::Config bcfg;
    bcfg.destination = "/dev/null";
    bcfg.run_meta = {{"tool", "bench_parallel_step"}};
    bcfg.forward_logs = false;
    std::string err;
    bus = obs::Bus::open(bcfg, &err);
    if (!bus) {
      std::fprintf(stderr, "cannot open stream: %s\n", err.c_str());
      std::exit(1);
    }
    observer = std::make_unique<obs::StreamObserver>(*bus, kStreamEvery);
    observer->attach(m);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto run = m.run();
  const auto t1 = std::chrono::steady_clock::now();
  if (streamed) {
    observer->detach();
    bus->finish(m.stats().steps, m.stats().cycles, run.completed, "",
                m.metrics_snapshot(), m.stats());
    if (bus_stats != nullptr) *bus_stats = bus->stats();
  }
  if (!run.completed) {
    std::fprintf(stderr, "workload did not complete\n");
    std::exit(1);
  }
  // FNV-1a over the touched shared-memory windows: a cheap but sensitive
  // commit-order witness.
  std::uint64_t h = 1469598103934665603ull;
  for (GroupId g = 0; g < kGroups; ++g) {
    for (Word i = 0; i < kThickness; ++i) {
      const Addr a = kBase + (static_cast<Addr>(g) << 13) +
                     static_cast<Addr>(i);
      h ^= static_cast<std::uint64_t>(m.shared().peek(a));
      h *= 1099511628211ull;
    }
  }
  const std::uint32_t hc = std::max(std::thread::hardware_concurrency(), 1u);
  return Sample{host_threads, std::chrono::duration<double>(t1 - t0).count(),
                m.stats(), h, m.metrics_snapshot(), hc, host_threads > hc};
}

}  // namespace

int main() {
  std::printf(
      "HOST-PARALLEL STEPPING — wall-clock scaling, bit-identical results\n"
      "per-group phase fans out over a worker pool; effects merge at the\n"
      "step barrier in group order, so results never depend on N\n"
      "-- hardware_concurrency = %u\n",
      std::thread::hardware_concurrency());

  const isa::Program prog = workload();
  std::vector<Sample> samples;
  for (std::uint32_t n : {1u, 2u, 4u, 8u}) {
    samples.push_back(run_once(n, prog));
  }

  const Sample& base = samples.front();
  bool regression = false;
  Table t({"host threads", "wall-clock s", "speedup", "identical", "verdict"});
  for (const Sample& s : samples) {
    // The metrics snapshot (every registered counter/accumulator, including
    // float-valued ones) is part of the determinism contract too.
    const bool same = stats_equal(s.stats, base.stats) &&
                      s.mem_fingerprint == base.mem_fingerprint &&
                      s.metrics == base.metrics;
    if (!same) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION at host_threads=%u\n",
                   s.host_threads);
      return 1;
    }
    const double speedup = base.seconds / s.seconds;
    // Speedup is only a meaningful verdict when the run really had that
    // many cores. Oversubscribed rows (host_threads > hardware_concurrency
    // at run time) measure the host scheduler, not the engine — judging
    // them produced false "regressions" on small CI runners.
    std::string verdict = "-";
    if (s.host_threads > 1) {
      if (s.oversubscribed) {
        verdict = "oversubscribed";
      } else if (speedup < 0.8) {
        verdict = "REGRESSION";
        regression = true;
      } else {
        verdict = "ok";
      }
    }
    t.add_row({std::to_string(s.host_threads),
               std::to_string(s.seconds),
               std::to_string(speedup),
               same ? "yes" : "NO", verdict});
  }
  t.print();

  // ---- Streaming overhead lane (DESIGN.md §13) ----
  //
  // The telemetry bus promises near-zero cost on the stepping thread: a
  // snapshot move and a few integer copies per cadence window; formatting
  // and I/O live on the sink thread. Measure it: best-of-3 wall clock with
  // and without --stream at host_threads=1 (the stepping thread is the
  // bottleneck there, so any producer-side cost shows up undiluted) and
  // verify the simulated results stay bit-identical with streaming on.
  double plain_best = 0, stream_best = 0;
  obs::BusStats bus_stats;
  bool stream_identical = true;
  for (int i = 0; i < 3; ++i) {
    const Sample plain = run_once(1, prog);
    if (i == 0 || plain.seconds < plain_best) plain_best = plain.seconds;
    obs::BusStats bs;
    const Sample streamed = run_once(1, prog, /*streamed=*/true, &bs);
    if (i == 0 || streamed.seconds < stream_best) {
      stream_best = streamed.seconds;
      bus_stats = bs;
    }
    stream_identical = stream_identical &&
                       stats_equal(streamed.stats, base.stats) &&
                       streamed.mem_fingerprint == base.mem_fingerprint &&
                       streamed.metrics == base.metrics;
  }
  if (!stream_identical) {
    std::fprintf(stderr, "DETERMINISM VIOLATION with streaming attached\n");
    return 1;
  }
  const double overhead = stream_best / plain_best - 1.0;
  // The sink thread needs a spare core: on a 1-core host it time-slices
  // against the stepping thread, so wall clock measures the scheduler, not
  // the producer-side cost the ≤5% budget is about. Same policy as the
  // scaling rows above: report the number, flag it, never judge it.
  const bool stream_oversubscribed = std::thread::hardware_concurrency() < 2;
  std::printf("-- streaming overhead (cadence %llu, best of 3): %f%% (%llu "
              "records written, %llu dropped%s)\n",
              static_cast<unsigned long long>(kStreamEvery), overhead * 100.0,
              static_cast<unsigned long long>(bus_stats.written),
              static_cast<unsigned long long>(bus_stats.dropped_records),
              stream_oversubscribed ? ", single-core host: not judged" : "");

  std::FILE* f = std::fopen("BENCH_parallel_step.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_parallel_step.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"workload\": \"P=%u groups, thickness %lld, %lld thick "
               "instructions/flow\",\n"
               "  \"variant\": \"single-instruction\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"simulated_cycles\": %llu,\n"
               "  \"simulated_steps\": %llu,\n"
               "  \"runs\": [\n",
               kGroups, static_cast<long long>(kThickness),
               static_cast<long long>(kIters * 10),
               std::thread::hardware_concurrency(),
               static_cast<unsigned long long>(base.stats.cycles),
               static_cast<unsigned long long>(base.stats.steps));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::fprintf(f,
                 "    {\"host_threads\": %u, \"wall_clock_s\": %.6f, "
                 "\"speedup\": %.3f, \"bit_identical\": true, "
                 "\"hardware_concurrency\": %u, \"oversubscribed\": %s}%s\n",
                 s.host_threads, s.seconds, base.seconds / s.seconds,
                 s.hardware_concurrency, s.oversubscribed ? "true" : "false",
                 i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"streaming\": {\"stream_every\": %llu, "
               "\"baseline_wall_clock_s\": %.6f, \"wall_clock_s\": %.6f, "
               "\"overhead\": %.4f, \"records_pushed\": %llu, "
               "\"records_written\": %llu, \"dropped_records\": %llu, "
               "\"bit_identical\": true, \"oversubscribed\": %s}\n",
               static_cast<unsigned long long>(kStreamEvery), plain_best,
               stream_best, overhead,
               static_cast<unsigned long long>(bus_stats.pushed),
               static_cast<unsigned long long>(bus_stats.written),
               static_cast<unsigned long long>(bus_stats.dropped_records),
               stream_oversubscribed ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("-- wrote BENCH_parallel_step.json\n");
  if (regression) {
    std::fprintf(stderr, "speedup regression on a non-oversubscribed row\n");
    return 1;
  }
  return 0;
}
