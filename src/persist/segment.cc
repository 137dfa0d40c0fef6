#include "persist/segment.h"

#include <cstdio>
#include <cstring>

#include "persist/codec.h"
#include "persist/fs_util.h"
#include "util/hash.h"

namespace amici {
namespace persist {

namespace {
constexpr char kSegmentMagic[4] = {'A', 'M', 'S', 'G'};
}  // namespace

std::string_view SegmentKindName(SegmentKind kind) {
  switch (kind) {
    case SegmentKind::kItems:
      return "items";
    case SegmentKind::kPostings:
      return "postings";
    case SegmentKind::kSocial:
      return "social";
    case SegmentKind::kGrid:
      return "grid";
    case SegmentKind::kGraph:
      return "graph";
  }
  return "unknown";
}

std::string SegmentFileName(SegmentKind kind, uint64_t generation) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "-%06llu.seg",
                static_cast<unsigned long long>(generation));
  return std::string(SegmentKindName(kind)) + buf;
}

Status WriteSegmentFile(const std::string& path, SegmentKind kind,
                        std::string_view payload) {
  return WriteSegmentFile(path, kind, payload, Fnv1a64(payload));
}

Status WriteSegmentFile(const std::string& path, SegmentKind kind,
                        std::string_view payload, uint64_t payload_checksum) {
  std::string header;
  header.reserve(kSegmentHeaderSize);
  header.append(kSegmentMagic, sizeof(kSegmentMagic));
  PutRaw<uint16_t>(kSegmentFormatVersion, &header);
  PutRaw<uint16_t>(static_cast<uint16_t>(kind), &header);
  PutRaw<uint64_t>(payload.size(), &header);
  PutRaw<uint64_t>(payload_checksum, &header);
  PutRaw<uint64_t>(Fnv1a64(header), &header);

  std::string file;
  file.reserve(kSegmentHeaderSize + payload.size());
  file.append(header);
  file.append(payload);
  return WriteFileDurable(path, file);
}

Result<std::shared_ptr<const MappedSegment>> MappedSegment::Open(
    const std::string& path, SegmentKind expected_kind, bool verify_checksum) {
  AMICI_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> file,
                         MappedFile::Map(path));
  const std::string_view bytes = file->view();
  if (bytes.size() < kSegmentHeaderSize) {
    return Status::Corruption("segment " + path + ": truncated header");
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::Corruption("segment " + path + ": bad magic");
  }
  size_t offset = sizeof(kSegmentMagic);
  uint16_t version = 0;
  uint16_t kind_raw = 0;
  uint64_t payload_size = 0;
  uint64_t payload_checksum = 0;
  uint64_t header_checksum = 0;
  GetRaw(bytes, &offset, &version);
  GetRaw(bytes, &offset, &kind_raw);
  GetRaw(bytes, &offset, &payload_size);
  GetRaw(bytes, &offset, &payload_checksum);
  GetRaw(bytes, &offset, &header_checksum);
  if (Fnv1a64(bytes.substr(0, kSegmentHeaderSize - sizeof(uint64_t))) !=
      header_checksum) {
    return Status::Corruption("segment " + path + ": header checksum mismatch");
  }
  if (version != kSegmentFormatVersion) {
    return Status::Corruption("segment " + path + ": unsupported version " +
                              std::to_string(version));
  }
  if (kind_raw != static_cast<uint16_t>(expected_kind)) {
    return Status::Corruption(
        "segment " + path + ": kind " + std::to_string(kind_raw) +
        ", expected " +
        std::string(SegmentKindName(expected_kind)));
  }
  if (payload_size != bytes.size() - kSegmentHeaderSize) {
    return Status::Corruption("segment " + path + ": payload size " +
                              std::to_string(payload_size) +
                              " does not match file size");
  }
  if (verify_checksum &&
      Fnv1a64(bytes.substr(kSegmentHeaderSize)) != payload_checksum) {
    return Status::Corruption("segment " + path +
                              ": payload checksum mismatch");
  }
  return std::shared_ptr<const MappedSegment>(new MappedSegment(
      std::move(file), expected_kind, payload_checksum));
}

}  // namespace persist
}  // namespace amici
