// Linked into the untraced binary and the self-tests: the plain allocator,
// so end-to-end timings pay no atomic increment per allocation.
#include "bench.hpp"

namespace perfbench {

std::uint64_t allocation_count() { return 0; }
bool allocations_counted() { return false; }

}  // namespace perfbench
