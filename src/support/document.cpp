#include "support/document.h"

#include <fstream>
#include <utility>

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

/// Reads the members before the records array into a root object, checks
/// the envelope every document shares on it, runs the header parser, and
/// opens the records array.
void ReadHeader(json::Cursor& cursor, const DocumentKind& kind,
                const DocumentParsers& parsers) {
  JsonValue root;
  root.kind = JsonValue::Kind::kObject;
  cursor.BeginObject();
  std::string key;
  bool has_records = false;
  while (!has_records && cursor.NextKey(&key)) {
    has_records = key == kind.records;
    if (!has_records) root.object.emplace_back(std::move(key), cursor.Value());
  }
  XCV_CHECK_MSG(root.At("format").AsString() == kind.format,
                "not an " << kind.format << " document");
  json::RequireSupportedSchema(root, kind.format, kind.schema);
  XCV_CHECK_MSG(has_records, "JSON document missing key '" << kind.records
                                                           << "'");
  if (parsers.header) parsers.header(root);
  cursor.BeginArray();
}

/// Streams the records through the record parser, counting the accepted
/// ones in `*records`, then reads the rest of the document to its end.
void ReadRecords(json::Cursor& cursor, const DocumentParsers& parsers,
                 std::size_t* records) {
  const int depth = cursor.depth();
  while (cursor.NextElement()) {
    parsers.record(cursor);
    XCV_CHECK_MSG(cursor.depth() == depth,
                  "a record parser must consume exactly its record");
    ++*records;
  }
  std::string key;
  while (cursor.NextKey(&key)) cursor.Skip();
  cursor.End();
}

/// True when `text` is one whole JSON value, checked without building it.
bool IsComplete(const std::string& text) {
  try {
    json::Cursor cursor(text);
    cursor.Skip();
    cursor.End();
    return true;
  } catch (const InternalError&) {
    return false;
  }
}

}  // namespace

void ParseDocument(const std::string& text, const DocumentKind& kind,
                   const DocumentParsers& parsers) {
  json::Cursor cursor(text);
  ReadHeader(cursor, kind, parsers);
  std::size_t records = 0;
  ReadRecords(cursor, parsers, &records);
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
  out.bytes = text.size();
  json::Cursor cursor(text);
  try {
    // A complete document that fails its checksum changed in place (a torn
    // tail cannot be complete), so none of its records can be trusted and
    // the parsers never see them. Only such a file pays for the skip pass
    // that tells the two apart; a torn one streams on and is salvaged.
    if (VerifyDocumentChecksum(text) == ChecksumStatus::kMismatch &&
        IsComplete(text))
      throw InternalError("checksum mismatch (content corruption)");
    ReadHeader(cursor, kind, parsers);
  } catch (const InternalError& e) {
    out.cold = true;
    out.quarantine_path = QuarantineFile(path, text);
    out.detail = "starting cold on " + path + ": " + e.what();
    return out;
  }

  // A syntax error or the end of the text after the header is the torn
  // tail, and a refused record ends the load: either way the records
  // before it are salvaged.
  try {
    ReadRecords(cursor, parsers, &out.records);
    out.clean = true;
    return out;
  } catch (const InternalError& e) {
    out.salvaged = true;
    out.quarantine_path = QuarantineFile(path, text);
    out.detail = "salvaged " + std::to_string(out.records) + " " +
                 kind.records + " from " + path + ", stopped by: " + e.what();
    return out;
  }
}

std::size_t SaveDocument(const std::string& path, const DocumentKind& kind,
                         std::string json) {
  const std::string doc = AddDocumentChecksum(std::move(json));
  AtomicWriteFile(path, doc, FaultPoint(kind, "save").c_str());
  return doc.size();
}

}  // namespace xcv::support
