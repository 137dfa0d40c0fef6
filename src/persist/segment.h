#ifndef AMICI_PERSIST_SEGMENT_H_
#define AMICI_PERSIST_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "persist/mapped_file.h"
#include "util/status.h"

namespace amici {
namespace persist {

/// What a segment file holds. Stable on-disk values — append only.
enum class SegmentKind : uint16_t {
  kItems = 1,     // ItemStore rows [first_id, first_id + count)
  kPostings = 2,  // per-tag posting-list v2 images + impact arrays
  kSocial = 3,    // per-owner quality-ordered buckets
  kGrid = 4,      // per-cell ascending item-id lists
  kGraph = 5,     // CSR social graph (graph_io image)
};

/// Human-readable kind name ("items", "postings", ...), also the segment
/// file-name stem.
std::string_view SegmentKindName(SegmentKind kind);

/// "<kind>-<6-digit generation>.seg" — the one file-name scheme for
/// segments, shard and root alike.
std::string SegmentFileName(SegmentKind kind, uint64_t generation);

/// Segment file layout:
///
///   [0,  4)  magic "AMSG"
///   [4,  6)  u16 format version (currently 1)
///   [6,  8)  u16 SegmentKind
///   [8, 16)  u64 payload size
///   [16,24)  u64 FNV-1a of the payload
///   [24,32)  u64 FNV-1a of bytes [0,24) (header checksum)
///   [32,..)  payload
///
/// Segments are immutable once written; durability across a save is
/// guaranteed by fsync-before-manifest-commit, integrity by the two
/// checksums.
inline constexpr size_t kSegmentHeaderSize = 32;
inline constexpr uint16_t kSegmentFormatVersion = 1;

/// Writes a complete segment file at `path` (replacing any existing
/// file) and fsyncs it, so a subsequent manifest commit cannot point at
/// bytes still in flight. The second form takes the payload's FNV-1a
/// checksum precomputed (callers that also record it in the manifest
/// hash the payload once, not twice).
Status WriteSegmentFile(const std::string& path, SegmentKind kind,
                        std::string_view payload);
Status WriteSegmentFile(const std::string& path, SegmentKind kind,
                        std::string_view payload, uint64_t payload_checksum);

/// A read-only, memory-mapped segment. Opening validates the header
/// (magic, version, kind, sizes) and — unless `verify_checksum` is false
/// (the lazy page-fault path the cold-start bench measures) — the full
/// payload checksum. Holders of payload() views keep the returned
/// shared_ptr alive.
class MappedSegment {
 public:
  static Result<std::shared_ptr<const MappedSegment>> Open(
      const std::string& path, SegmentKind expected_kind,
      bool verify_checksum = true);

  SegmentKind kind() const { return kind_; }
  uint64_t payload_checksum() const { return payload_checksum_; }
  std::string_view payload() const {
    return file_->view().substr(kSegmentHeaderSize);
  }
  /// The backing mapping — the keepalive for zero-copy views.
  std::shared_ptr<const MappedFile> file() const { return file_; }

 private:
  MappedSegment(std::shared_ptr<const MappedFile> file, SegmentKind kind,
                uint64_t payload_checksum)
      : file_(std::move(file)),
        kind_(kind),
        payload_checksum_(payload_checksum) {}

  std::shared_ptr<const MappedFile> file_;
  SegmentKind kind_;
  uint64_t payload_checksum_;
};

}  // namespace persist
}  // namespace amici

#endif  // AMICI_PERSIST_SEGMENT_H_
