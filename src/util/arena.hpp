// Bump allocator with wholesale release (DESIGN.md §10).
//
// The DSM hot paths allocate many small, same-lifetime payloads (the diff
// archive between two GCs is the canonical case): a per-op heap allocation
// each would dominate the op itself.  An Arena hands out pointers into
// geometrically growing chunks; release() frees every chunk at once, so a
// whole generation of payloads goes back to the allocator in O(chunks)
// without touching it per object, and the next generation grows afresh
// from one chunk.  Nothing is destroyed — only trivially destructible
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

  /// Returns n bytes of storage, 8-byte aligned, valid until release().
  /// n == 0 returns a pointer that must not be dereferenced (may be null).
  /// The bytes are not zeroed (chunks are allocated for overwrite), so the
  /// caller writes every byte it hands on.
  std::uint8_t* alloc(std::size_t n);

  /// Frees every chunk: all outstanding pointers become invalid, and the
  /// arena holds no storage until the next alloc().
  void release();

  /// Bytes handed out since the last release (excludes alignment padding).
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total chunk storage held, allocated or not.
  std::size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  /// Appends a chunk able to hold n bytes, growing geometrically.
  void add_chunk(std::size_t n);

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;  // the last one is being filled
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
  std::size_t bytes_allocated_ = 0;
  std::size_t bytes_reserved_ = 0;
};

}  // namespace anow::util
