#include "util/arena.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anow::util {

namespace {
constexpr std::size_t kAlign = 8;
}  // namespace

Arena::Arena(std::size_t chunk_bytes) : chunk_bytes_(chunk_bytes) {
  ANOW_CHECK(chunk_bytes_ > 0);
}

std::uint8_t* Arena::alloc(std::size_t n) {
  if (static_cast<std::size_t>(end_ - cur_) < n) [[unlikely]] {
    add_chunk(n);
  }
  std::uint8_t* out = cur_;
  cur_ += (n + (kAlign - 1)) & ~(kAlign - 1);
  if (cur_ > end_) cur_ = end_;  // padding may overshoot the chunk tail
  bytes_allocated_ += n;
  return out;
}

void Arena::add_chunk(std::size_t n) {
  // Geometric growth keeps the chunk count logarithmic in the generation's
  // footprint: each new chunk doubles the last, which is the largest
  // (floored at the configured chunk size, raised to n for oversized
  // one-off payloads).
  std::size_t want = chunk_bytes_;
  if (!chunks_.empty()) want = std::max(want, chunks_.back().size * 2);
  want = std::max(want, n);
  Chunk& chunk = chunks_.emplace_back();
  chunk.data = std::make_unique_for_overwrite<std::uint8_t[]>(want);
  chunk.size = want;
  bytes_reserved_ += want;
  cur_ = chunk.data.get();
  end_ = cur_ + chunk.size;
}

void Arena::release() {
  chunks_.clear();
  chunks_.shrink_to_fit();
  cur_ = nullptr;
  end_ = nullptr;
  bytes_allocated_ = 0;
  bytes_reserved_ = 0;
}

}  // namespace anow::util
