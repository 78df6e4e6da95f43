#include "stats/sufficient.h"

#include "common/random.h"

namespace fixy::stats {

void MomentStats::Add(double x) {
  ++n;
  sum += x;
  sum_sq += x * x;
}

void ValueCounts::Add(double x) {
  ++counts[x];
  ++total;
}

void ValueReservoir::Add(double x) {
  const uint64_t k = seen++;
  if (k < capacity) {
    items.push_back(x);
    return;
  }
  const uint64_t j = SplitMix64(seed ^ k).Next() % (k + 1);
  if (j < capacity) {
    items[static_cast<size_t>(j)] = x;
  }
}

}  // namespace fixy::stats
