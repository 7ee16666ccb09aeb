// Durable file I/O under every on-disk document in the repo (the
// support/document.h documents and trace files).
//
// AtomicWriteFile is the one way state reaches disk: write a temp file,
// flush and fsync it, atomically rename it over the destination, then
// fsync the containing directory (POSIX) so the rename itself is durable.
// A crash at any instant leaves either the complete old file or the
// complete new file — never a torn one. The fault-injection layer
// (support/fault.h) threads through both helpers so chaos tests can tear
// exactly the writes they mean to.
//
// Document checksums: AddDocumentChecksum inserts a `"checksum": "<hex>"`
// field (FNV-1a 64 over every other byte of the document) into a JSON
// document right after its version field; VerifyDocumentChecksum excises
// that field and re-hashes. Readers accept documents without the field
// (legacy writers), so the formats stay backward-compatible.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace xcv::support {

/// Atomically replaces `path` with `data`, fsyncing the temp file before
/// the rename and the parent directory after it. When `fault_prefix` is
/// non-null, the fault points "<prefix>.short-write" (persist a torn
/// prefix, then crash) and "<prefix>.crash-before-rename" (crash after
/// fsync, before rename — the old file must survive) are honoured when
/// armed. Throws xcv::InternalError on real I/O failure.
void AtomicWriteFile(const std::string& path, std::string_view data,
                     const char* fault_prefix = nullptr);

/// Reads the whole file into `*out`. Returns false when the file cannot be
/// opened or read — including when the "<prefix>.eio" fault point fires.
bool ReadFileToString(const std::string& path, std::string* out,
                      const char* fault_prefix = nullptr);

/// Creates `path` if absent and bumps its mtime — the heartbeat primitive
/// (`xcv resume --heartbeat`). Best-effort: failures are silent, a missed
/// beat just shortens the lease.
void TouchFile(const std::string& path);

/// Returns `json` with a `  "checksum": "<16 hex>",` line inserted after
/// its `"version"` line. The hash covers every byte of the document except
/// the inserted line, so VerifyDocumentChecksum can re-derive it. Returns
/// the input unchanged when no version line is found.
std::string AddDocumentChecksum(std::string json);

enum class ChecksumStatus {
  kOk,       ///< field present and the document hashes to it
  kAbsent,   ///< no checksum field (legacy document) — accepted
  kMismatch  ///< field present but the bytes disagree: corrupt document
};

ChecksumStatus VerifyDocumentChecksum(const std::string& text);

}  // namespace xcv::support
