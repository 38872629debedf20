// Bump allocator with wholesale release (DESIGN.md §10).
//
// The DSM hot paths allocate many small, same-lifetime payloads (the diff
// archive between two GCs is the canonical case): a per-op heap allocation
// each would dominate the op itself.  An Arena hands out pointers into
// geometrically growing chunks; reset() recycles every chunk at once, so a
// whole generation of payloads is freed in O(chunks) without touching the
// allocator per object.  Nothing is destroyed — only trivially destructible
// payloads (raw bytes) belong in an arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace anow::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns n bytes of storage, 8-byte aligned, valid until reset().
  /// n == 0 returns a pointer that must not be dereferenced (may be null).
  /// The bytes are not zeroed: a new chunk is allocated for overwrite and a
  /// recycled one still holds the last generation's bytes, so the caller
  /// writes every byte it hands on.
  std::uint8_t* alloc(std::size_t n);

  /// Recycles every chunk: all outstanding pointers become invalid, the
  /// chunk storage is kept for reuse (steady-state reset allocates nothing).
  void reset();

  /// Drops every chunk back to the heap (reset + free).
  void release();

  /// Bytes handed out since the last reset (excludes alignment padding).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total chunk storage held, allocated or not.
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  /// Makes chunks_[next_chunk_] able to hold n bytes, growing geometrically.
  void add_chunk(std::size_t n);

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t next_chunk_ = 0;  // chunks_[0..next_chunk_) are in use
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace anow::util
