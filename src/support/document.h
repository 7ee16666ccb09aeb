// Durable JSON documents: one save/load/salvage/quarantine policy for every
// file xcv keeps across processes (campaign checkpoints, verdict caches,
// the xcvd queue journal, the coordinator's node ledger).
//
// Each is one JSON object: a header (format, version, checksum,
// schema_version, the format's own fields) and one records array, written
// last. A format declares a DocumentKind and two parsers, and
// RecoverDocument loads it under one policy, in one streaming pass of a
// json::Cursor that never builds a tree of the whole file. Unreadable:
// cold. Complete but failing its checksum, or a bad header (format, newer
// schema, a field): cold, quarantined. Torn (the text ends or breaks after
// the header): the header and the records before the break, salvaged and
// quarantined. A refused record ends the load, the records before it
// salvaged and quarantined. Quarantine copies the bytes to
// "<path>.corrupt"; a document without a checksum (a legacy writer) is
// accepted.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "support/json.h"

namespace xcv::support {

struct DocumentKind {
  const char* format;        ///< the "format" token
  int schema;                ///< newest schema major this build reads
  const char* records;       ///< key of the records array
  const char* fault_prefix;  ///< "<prefix>.load.eio", "<prefix>.save.*"
};

/// `header` sees the root's members that come before the records array
/// (may be empty). `record` gets the cursor standing at one element of
/// the records array and must consume exactly that element (Value() it,
/// or read it field by field). Both fill caller-owned state and throw
/// xcv::InternalError on input they refuse.
struct DocumentParsers {
  std::function<void(const json::JsonValue& root)> header;
  std::function<void(json::Cursor& record)> record;
};

/// Exactly one of clean, salvaged, cold is true. A cold load never reached
/// the record parser (the header parser may have run).
struct LoadOutcome {
  bool clean = false;
  bool salvaged = false;
  bool cold = false;
  std::size_t records = 0;      ///< records the parser accepted
  std::size_t bytes = 0;        ///< size of the file read (0: unreadable)
  std::string quarantine_path;  ///< "<path>.corrupt" when quarantined
  std::string detail;           ///< why, when not clean
};

/// Strict parse of a whole document, in the same streaming pass as
/// RecoverDocument. Throws xcv::InternalError; the parsers may have run on
/// the records before the error.
void ParseDocument(const std::string& text, const DocumentKind& kind,
                   const DocumentParsers& parsers);

/// Strict load: read, refuse a checksum mismatch, ParseDocument. Throws
/// xcv::InternalError; never quarantines.
void ReadDocument(const std::string& path, const DocumentKind& kind,
                  const DocumentParsers& parsers);

/// Tolerant load under the policy above; never throws on damaged input.
LoadOutcome RecoverDocument(const std::string& path, const DocumentKind& kind,
                            const DocumentParsers& parsers);

/// Adds the checksum and writes atomically through "<prefix>.save.*".
/// Returns the bytes written.
std::size_t SaveDocument(const std::string& path, const DocumentKind& kind,
                         std::string json);

}  // namespace xcv::support
