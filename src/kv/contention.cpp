#include "kv/contention.hpp"

#include <algorithm>
#include <map>

namespace hohtm::kv {

void ContentionMap::note(std::uint32_t shard, std::uint32_t cell,
                         std::uint64_t weight) noexcept {
  Sketch& mine = sketches_.mine();
  const std::uint64_t key =
      (static_cast<std::uint64_t>(shard) << 32) | cell;
  std::size_t min_at = 0;
  std::uint64_t min_count = ~std::uint64_t{0};
  for (std::size_t i = 0; i < kEntries; ++i) {
    const std::uint64_t count = mine.count[i].load(std::memory_order_relaxed);
    if (count != 0 && mine.key[i].load(std::memory_order_relaxed) == key) {
      mine.count[i].store(count + weight, std::memory_order_relaxed);
      return;
    }
    if (count < min_count) {
      min_count = count;
      min_at = i;
    }
  }
  // Space-saving replacement: the newcomer inherits the evicted minimum,
  // keeping every stored count an upper bound on the true weight. Key is
  // published before the count so a concurrent top() pairing the new count
  // with the old key can only overstate an already-evicted cell.
  mine.key[min_at].store(key, std::memory_order_relaxed);
  mine.count[min_at].store(min_count + weight, std::memory_order_release);
}

std::vector<ContentionMap::Hot> ContentionMap::top(std::size_t k) {
  std::map<std::uint64_t, std::uint64_t> merged;
  for (const auto& padded : sketches_.live()) {
    const Sketch& sketch = padded.value;
    for (std::size_t i = 0; i < kEntries; ++i) {
      const std::uint64_t count =
          sketch.count[i].load(std::memory_order_acquire);
      if (count == 0) continue;
      merged[sketch.key[i].load(std::memory_order_relaxed)] += count;
    }
  }
  std::vector<Hot> hot;
  hot.reserve(merged.size());
  for (const auto& [key, weight] : merged)
    hot.push_back(Hot{static_cast<std::uint32_t>(key >> 32),
                      static_cast<std::uint32_t>(key & 0xFFFFFFFFu), weight});
  std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.cell < b.cell;
  });
  if (hot.size() > k) hot.resize(k);
  return hot;
}

void ContentionMap::write_json(std::FILE* out) {
  const std::vector<Hot> hot = top(8);
  std::fputc('[', out);
  for (std::size_t i = 0; i < hot.size(); ++i) {
    std::fprintf(out, "%s{\"shard\":%u,\"cell\":%u,\"weight\":%llu}",
                 i == 0 ? "" : ",", hot[i].shard, hot[i].cell,
                 static_cast<unsigned long long>(hot[i].weight));
  }
  std::fputc(']', out);
}

void ContentionMap::reset() noexcept {
  for (auto& padded : sketches_.live()) {
    for (std::size_t i = 0; i < kEntries; ++i) {
      padded.value.key[i].store(0, std::memory_order_relaxed);
      padded.value.count[i].store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace hohtm::kv
