// tcfpaper: regenerates the paper's tables and figures on the simulator.
//
//   tcfpaper [ID...]
//
// Prints each named artefact (every artefact when none is named) with the
// tables EXPERIMENTS.md records; tests/test_paper asserts the same numbers.
// Exits 1 when an artefact's own check fails, 2 on a usage error.
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "paper.hpp"

using namespace tcfpn;

namespace {

void usage(std::FILE* out) {
  std::fprintf(out, "usage: tcfpaper [ID...]\n\nartefact IDs:");
  for (const std::string& id : paper::ids()) {
    std::fprintf(out, " %s", id.c_str());
  }
  std::fprintf(out,
               "\n\nWith no ID, prints every artefact. Reproduces the rows "
               "of EXPERIMENTS.md.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg.rfind("-", 0) == 0) {
      std::fprintf(stderr, "tcfpaper: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
    bool known = false;
    for (const std::string& id : paper::ids()) known = known || id == arg;
    if (!known) {
      std::fprintf(stderr, "tcfpaper: unknown artefact '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
    wanted.push_back(arg);
  }
  if (wanted.empty()) wanted = paper::ids();

  int rc = 0;
  for (const std::string& id : wanted) {
    try {
      const paper::Artefact a = *paper::run(id);
      std::fputs(a.render().c_str(), stdout);
      std::fputs("\n", stdout);
      if (!a.passed()) {
        std::fprintf(stderr, "tcfpaper: %s failed its check\n", id.c_str());
        rc = 1;
      }
    } catch (const SimError& e) {
      std::fprintf(stderr, "tcfpaper: %s: %s\n", id.c_str(), e.what());
      rc = 1;
    }
  }
  return rc;
}
