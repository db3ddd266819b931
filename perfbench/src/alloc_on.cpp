// Linked into the traced binary only: replaces the global operator new with
// the runtime's counting one, for serial.allocations_per_op.
#include "bench.hpp"
#include "common/alloc_counter.hpp"

namespace perfbench {

std::uint64_t allocation_count() { return mage::common::alloc_count(); }
bool allocations_counted() { return true; }

}  // namespace perfbench
