// Deterministic slab pool: fixed-size slots carved from append-only slabs,
// recycled through a LIFO free list.
//
// Why not the global heap: a per-cell WAN simulation allocates and frees an
// event or packet record every few hundred nanoseconds of wall time, and
// malloc churn (plus the cache misses of scattered records) dominates the
// hot path.  Slabs keep records dense, the free list keeps reuse in LIFO
// (cache-warm) order, and — because allocation order is a pure function of
// the simulation — slot assignment is identical run to run, so pooling
// cannot perturb the determinism contract.  Slabs are never returned to the
// OS mid-run: the pool's high-water mark is the workload's, and steady-state
// simulation triggers zero allocations.
//
// Objects are default-constructed once per slot and *reused without
// destruction* on release/acquire (the caller resets state; containers keep
// their capacity — that is the point).  Destruction happens when the pool
// itself dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace gtw::des {

template <typename T, std::size_t kSlabSlots = 1024>
class SlabPool {
 public:
  using Index = std::uint32_t;
  static constexpr Index kInvalid = 0xffffffffU;

  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  // Take a slot (recycled LIFO, or freshly carved from a new slab).
  Index acquire() {
    if (!free_.empty()) {
      const Index idx = free_.back();
      free_.pop_back();
      ++in_use_;
      live_[idx] = true;
      return idx;
    }
    if (next_slot_ == slabs_.size() * kSlabSlots) {
      slabs_.push_back(std::make_unique<T[]>(kSlabSlots));
      live_.resize(slabs_.size() * kSlabSlots);  // grows with the slabs only
    }
    const Index idx = static_cast<Index>(next_slot_++);
    ++in_use_;
    if (in_use_ > high_water_) high_water_ = in_use_;
    live_[idx] = true;
    return idx;
  }

  void release(Index idx) {
    // Double (or wild) release would push a duplicate onto the free list
    // and hand the same slot to two owners — the slab-pool analogue of
    // heap double-free.  Count it and refuse the corrupting push so the
    // run can finish and report.
    if (idx >= next_slot_ || !live_[idx]) {
      ++double_frees_;
      return;
    }
    live_[idx] = false;
    --in_use_;
    free_.push_back(idx);
  }

  T& operator[](Index idx) {
    return slabs_[idx / kSlabSlots][idx % kSlabSlots];
  }
  const T& operator[](Index idx) const {
    return slabs_[idx / kSlabSlots][idx % kSlabSlots];
  }

  std::size_t in_use() const { return in_use_; }
  std::size_t high_water() const { return high_water_; }
  std::size_t slots() const { return slabs_.size() * kSlabSlots; }
  std::size_t slabs() const { return slabs_.size(); }

  // GTW-San accounting (check::attach_pool): releases refused because the
  // slot was already free.  in_use() != 0 at end of run is the matching
  // leak census — every acquire must meet its release before teardown.
  std::uint64_t double_frees() const { return double_frees_; }

 private:
  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<Index> free_;
  std::size_t next_slot_ = 0;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
  std::vector<bool> live_;  // per carved slot: currently acquired?
  std::uint64_t double_frees_ = 0;
};

}  // namespace gtw::des
