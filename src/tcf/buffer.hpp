// Shared-memory buffer handles: where a compiled TCF program's arrays and
// cells live in the machine's simulated shared memory (lang::Compiled maps
// each declared name to one).
#pragma once

#include <cstddef>

#include "common/check.hpp"
#include "common/types.hpp"

namespace tcfpn::tcf {

/// A contiguous span of simulated shared memory. Plain value handle; the
/// memory itself lives in mem::SharedMemory.
struct Buffer {
  Addr base = kNullAddr;
  std::size_t size = 0;

  Addr at(std::size_t i) const {
    TCFPN_CHECK(i < size, "buffer index ", i, " out of range ", size);
    return base + i;
  }
};

}  // namespace tcfpn::tcf
