// Benchmark-local heap allocation counter.  alloc_counter.cpp replaces the
// global operator new/delete of the benchmark binary (the library is
// untouched); while counting is on, every operator new call and its byte
// count are tallied.  Counting is switched on for traced runs only, so the
// untraced runs pay one predictable branch per allocation.
#pragma once

#include <cstdint>

namespace gtwbench::alloc {

struct Counts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

void set_counting(bool on);
Counts counts();

// Suspends counting for its lifetime: the ledger's own bookkeeping must not
// be charged to the layer whose event is in flight.
class Pause {
 public:
  Pause();
  ~Pause();
  Pause(const Pause&) = delete;
  Pause& operator=(const Pause&) = delete;

 private:
  bool was_;
};

}  // namespace gtwbench::alloc
