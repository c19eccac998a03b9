// tcfdbg — interactive time-travel debugger over the flight recorder.
//
//   ./tcfdbg prog.tcf --variant=balanced --bound=8
//   ./tcfdbg tests/corpus/err_crew.s --script=session.dbg
//
// Accepts any input tcfrun/tcfasm accepts, plus tcffuzz corpus entries
// (`; tcffuzz corpus v1` header): a corpus reproducer loads with its
// recorded CRCW policy and boot directives, so a fuzzer divergence replays
// under the debugger with one command.
//
// With --script=FILE the REPL executes the file's lines (echoed, `#`
// comments skipped) and exits — the CI smoke harness. Exit codes: 0 session
// ended normally, 2 usage error or unreadable input/script.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "conformance/corpus.hpp"
#include "debug/debugger.hpp"
#include "isa/assembler.hpp"
#include "lang/codegen.hpp"
#include "tcf/kernels.hpp"
#include "cli_common.hpp"

int main(int argc, char** argv) {
  using namespace tcfpn;

  // --script is tcfdbg-specific; peel it off before the shared parser (which
  // rejects unknown options).
  std::string script;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::parse_flag(argv[i], "script", &v)) {
      script = v;
    } else {
      rest.push_back(argv[i]);
    }
  }
  cli::Options opt;
  if (!cli::parse_args(static_cast<int>(rest.size()), rest.data(), "tcfdbg",
                       "program under the time-travel debugger", &opt)) {
    return opt.help ? 0 : 2;
  }
  if (!opt.stream.empty()) {
    // Time travel rewinds the machine at the user's whim; a live stream's
    // monotone-step contract cannot survive that, so the flag is refused
    // here instead of producing a stream consumers would reject.
    obs::warn("tcfdbg",
              "--stream is not supported under the time-travel debugger; "
              "ignoring it");
    opt.stream.clear();
  }

  try {
    const std::string text = cli::read_file(opt.input);
    isa::Program program;
    debug::DebugSession::BootFn boot;
    machine::MachineConfig cfg = opt.cfg;

    if (text.rfind("; tcffuzz corpus v1", 0) == 0) {
      const conformance::DiffCase c = conformance::parse_case(text);
      program = c.program;
      cfg.crcw = c.policy;  // the reproducer's policy, not the CLI default
      const std::size_t entry = program.entry();
      if (c.esm_boot) {
        const std::uint32_t flows = c.boot_flows;
        boot = [entry, flows](machine::Machine& m) {
          tcf::kernels::boot_esm_threads(m, entry, flows);
        };
      } else {
        const Word t = c.boot_thickness;
        boot = [t](machine::Machine& m) { m.boot(t); };
      }
    } else {
      if (opt.input.size() >= 4 &&
          opt.input.compare(opt.input.size() - 4, 4, ".tcf") == 0) {
        program = lang::compile_source(text).program;
      } else {
        program = isa::assemble(text);
      }
      const Word t = opt.boot_thickness;
      boot = [t](machine::Machine& m) { m.boot(t); };
    }

    debug::DebugSession session(
        cfg, program, boot,
        debug::RecorderConfig{.journal_capacity = 8192,
                              .checkpoint_every = 64},
        {{"tool", "tcfdbg"}, {"input", opt.input}});

    if (!script.empty()) {
      std::ifstream in(script);
      if (!in) {
        std::fprintf(stderr, "tcfdbg: cannot read script '%s'\n",
                     script.c_str());
        return 2;
      }
      std::string line;
      while (std::getline(in, line)) {
        std::cout << "tcfdbg> " << line << "\n";
        if (!session.execute(line, std::cout)) break;
      }
      return 0;
    }

    std::cout << "tcfdbg: " << opt.input << " loaded ("
              << program.code.size() << " instructions); `help` for commands\n";
    std::string line;
    while (true) {
      std::cout << "tcfdbg> " << std::flush;
      if (!std::getline(std::cin, line)) break;
      if (!session.execute(line, std::cout)) break;
    }
    return 0;
  } catch (const SimError& e) {
    std::fprintf(stderr, "tcfdbg: %s\n", e.what());
    return 2;
  }
}
