#include "support/document.h"

#include <fstream>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/io.h"

namespace xcv::support {

using json::JsonValue;

namespace {

std::string FaultPoint(const DocumentKind& kind, const char* op) {
  return std::string(kind.fault_prefix) + '.' + op;
}

/// Best-effort copy of damaged bytes to "<path>.corrupt", so recovery never
/// destroys the evidence. Returns that path, or "" when the copy failed.
std::string QuarantineFile(const std::string& path, const std::string& bytes) {
  const std::string qpath = path + ".corrupt";
  std::ofstream os(qpath, std::ios::trunc | std::ios::binary);
  if (!os.good()) return "";
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return os.good() ? qpath : "";
}

/// Checks the envelope every document shares, runs the header parser, and
/// returns the records array.
const JsonValue& ParseHeader(const JsonValue& root, const DocumentKind& kind,
                             const DocumentParsers& parsers) {
  XCV_CHECK_MSG(root.At("format").AsString() == kind.format,
                "not an " << kind.format << " document");
  json::RequireSupportedSchema(root, kind.format, kind.schema);
  const JsonValue& records = root.At(kind.records);
  if (parsers.header) parsers.header(root);
  return records;
}

}  // namespace

void ParseDocument(const std::string& text, const DocumentKind& kind,
                   const DocumentParsers& parsers) {
  const JsonValue root = json::ParseJson(text);
  for (const JsonValue& record : ParseHeader(root, kind, parsers).array)
    parsers.record(record);
}

void ReadDocument(const std::string& path, const DocumentKind& kind,
                  const DocumentParsers& parsers) {
  std::string text;
  XCV_CHECK_MSG(
      ReadFileToString(path, &text, FaultPoint(kind, "load").c_str()),
      "cannot read " << kind.format << " '" << path << "'");
  XCV_CHECK_MSG(VerifyDocumentChecksum(text) != ChecksumStatus::kMismatch,
                kind.format << " '" << path
                            << "' failed its checksum (corrupt file)");
  ParseDocument(text, kind, parsers);
}

LoadOutcome RecoverDocument(const std::string& path, const DocumentKind& kind,
                            const DocumentParsers& parsers) {
  LoadOutcome out;
  std::string text;
  if (!ReadFileToString(path, &text, FaultPoint(kind, "load").c_str())) {
    out.cold = true;
    out.detail = "cannot read '" + path + "'";
    return out;
  }
  // Hashed before the parse: the hash's copy of the text is gone by the
  // time the parsed tree exists, which keeps the load's peak memory down.
  const ChecksumStatus checksum = VerifyDocumentChecksum(text);
  JsonValue root;
  bool torn = false;
  try {
    root = json::ParseJson(text);
  } catch (const InternalError&) {
    torn = true;
  }
  // A torn file keeps its header: the records array is written last, so the
  // bytes through its '[', closed off, still parse.
  const std::string marker = std::string("\"") + kind.records + "\": [";
  const std::size_t records_at = torn ? text.find(marker) : 0;
  const JsonValue* records = nullptr;
  try {
    // A file that parses but hashes wrong changed in place (a torn tail
    // cannot parse), so none of its records can be trusted.
    if (!torn && checksum == ChecksumStatus::kMismatch)
      throw InternalError("checksum mismatch (content corruption)");
    if (records_at == std::string::npos)
      throw InternalError(std::string("damaged before its ") + kind.records);
    if (torn)
      root = json::ParseJson(text.substr(0, records_at + marker.size()) + "]}");
    records = &ParseHeader(root, kind, parsers);
  } catch (const InternalError& e) {
    out.cold = true;
    out.quarantine_path = QuarantineFile(path, text);
    out.detail = "starting cold on " + path + ": " + e.what();
    return out;
  }

  // A torn file's records are carved out one by one with the
  // balanced-bracket scanner, up to the torn tail or the first that fails
  // to parse on its own.
  std::vector<JsonValue> carved;
  std::size_t pos = records_at + marker.size();
  while (torn && (pos = text.find_first_not_of(", \t\r\n", pos)) !=
                     std::string::npos && text[pos] == '{') {
    const std::size_t end = json::SkipBalanced(text, pos);
    if (end == std::string::npos) break;
    try {
      carved.push_back(json::ParseJson(text.substr(pos, end - pos)));
    } catch (const InternalError&) {
      break;
    }
    pos = end;
  }
  std::string refused;
  for (const JsonValue& record : torn ? carved : records->array) {
    try {
      parsers.record(record);
    } catch (const InternalError& e) {
      refused = e.what();
      break;
    }
    ++out.records;
  }
  if (!torn && refused.empty()) {
    out.clean = true;
    return out;
  }
  out.salvaged = true;
  out.quarantine_path = QuarantineFile(path, text);
  out.detail = "salvaged " + std::to_string(out.records) + " " +
               kind.records + " from " + (torn ? "torn " : "") + path +
               (refused.empty() ? "" : ", refusing the next: " + refused);
  return out;
}

std::size_t SaveDocument(const std::string& path, const DocumentKind& kind,
                         std::string json) {
  const std::string doc = AddDocumentChecksum(std::move(json));
  AtomicWriteFile(path, doc, FaultPoint(kind, "save").c_str());
  return doc.size();
}

}  // namespace xcv::support
