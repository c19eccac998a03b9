// LSD radix sort in the TCF language — multiprefix doing the work of every
// loop over the data. Each pass sorts by one key bit with a stable split:
// one thick statement flags the lanes whose bit is 0, one ordered
// multiprefix gives every lane the number of 0-keys before it (and the
// pass's 0-count in a cell), and one scatter of thickness n moves each key
// to its slot — 0-keys first, in lane order, then 1-keys, in lane order.
// Multiprefix ordering is lane ordering, which is what keeps every pass
// stable and so makes the whole sort correct.
//
// Build & run:  ./example_radix_sort [n]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lang/codegen.hpp"
#include "machine/machine.hpp"

using namespace tcfpn;

namespace {

constexpr Word kKeyBits = 16;

// The sort for n keys (array sizes are compile-time constants in the
// language, so the source is generated per n).
std::string radix_sort_source(std::size_t n) {
  const std::string ns = std::to_string(n);
  return "array keys[" + ns + "];\n"
         "array tmp[" + ns + "];\n"
         "array zero[" + ns + "];   // 1 where this pass's bit is 0\n"
         "array zpos[" + ns + "];   // 0-keys before each lane\n"
         "cell  nz;                 // 0-keys in this pass\n"
         "var   b;\n"
         "#" + ns + ";\n"
         "for (b = 0; b < " + std::to_string(kKeyBits) + "; b += 1) {\n"
         "  zero. = 1 - ((keys. >> b) & 1);\n"
         "  #1: nz = 0;\n"
         "  prefix(zero, MPADD, &nz, zpos);\n"
         "  tmp.[zero. * zpos. + (1 - zero.) * (nz + id - zpos.)] = keys.;\n"
         "  keys. = tmp.;\n"
         "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 4000;
  if (n == 0) {
    std::fprintf(stderr, "usage: example_radix_sort [n >= 1]\n");
    return 2;
  }

  Rng rng(99);
  std::vector<Word> keys(n);
  for (auto& k : keys) k = static_cast<Word>(rng.below(1u << kKeyBits));

  const lang::Compiled sort = lang::compile_source(radix_sort_source(n));
  machine::MachineConfig cfg;
  cfg.groups = 4;
  cfg.slots_per_group = 16;
  cfg.shared_words = 1u << 22;
  machine::Machine m(cfg);
  m.load(sort.program);
  const tcf::Buffer& buf = sort.buffer("keys");
  for (std::size_t i = 0; i < n; ++i) m.shared().poke(buf.at(i), keys[i]);
  m.boot(1);
  const auto run = m.run();

  std::vector<Word> got(n);
  for (std::size_t i = 0; i < n; ++i) got[i] = m.shared().peek(buf.at(i));
  auto want = keys;
  std::sort(want.begin(), want.end());
  const bool ok = run.completed && got == want;

  std::printf("radix sort of %zu %lld-bit keys, %lld one-bit passes\n", n,
              static_cast<long long>(kKeyBits),
              static_cast<long long>(kKeyBits));
  std::printf("machine: %llu steps, %llu cycles, %llu instruction fetches, "
              "%llu lane ops\n",
              static_cast<unsigned long long>(run.steps),
              static_cast<unsigned long long>(run.cycles),
              static_cast<unsigned long long>(m.stats().instruction_fetches),
              static_cast<unsigned long long>(m.stats().operations));
  std::printf("sorted correctly: %s\n", ok ? "yes" : "NO");
  std::printf("(a flag, a multiprefix and a scatter per pass replace every "
              "loop of a\n thread-model radix sort)\n");
  return ok ? 0 : 1;
}
