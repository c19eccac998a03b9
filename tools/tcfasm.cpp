// tcfasm — assemble a tcfpn ISA source file and run it on the simulator.
//
//   ./tcfasm prog.s --thickness=64 --variant=single-instruction --trace
//
// Exit codes match tcfrun: 0 completed, 1 fault/step-limit, 2 usage or
// exporter failure; faulting runs still export telemetry and --post-mortem.
#include <cstdio>

#include "isa/assembler.hpp"
#include "machine/machine.hpp"
#include "cli_common.hpp"

int main(int argc, char** argv) {
  using namespace tcfpn;
  cli::Options opt;
  if (!cli::parse_args(argc, argv, "tcfasm", "assembly program", &opt)) {
    return opt.help ? 0 : 2;
  }
  try {
    const auto program = isa::assemble(cli::read_file(opt.input));
    if (opt.listing) std::printf("%s", program.listing().c_str());
    machine::Machine m(opt.cfg);
    m.load(program);
    debug::FlightRecorder recorder(
        debug::RecorderConfig{.journal_capacity = 4096, .checkpoint_every = 0});
    if (!opt.post_mortem.empty()) recorder.attach(m);
    cli::StreamSession stream;
    if (!stream.open(opt, "tcfasm", m)) return 2;
    m.boot(opt.boot_thickness);
    const cli::RunOutcome outcome = cli::run_with_fault_capture(m, opt.max_steps);
    stream.finish(m, outcome);
    if (outcome.faulted) {
      obs::error("tcfasm", outcome.fault_message);
    } else {
      cli::print_outcome(m, outcome.run, opt);
    }
    if (!cli::export_telemetry(m, outcome, opt, "tcfasm")) return 2;
    if (!opt.post_mortem.empty() && outcome.faulted &&
        !cli::export_post_mortem(m, recorder, opt, "tcfasm")) {
      return 2;
    }
    return !outcome.faulted && outcome.run.completed ? 0 : 1;
  } catch (const SimError& e) {
    obs::error("tcfasm", e.what());
    return 1;
  }
}
