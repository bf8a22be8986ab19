// The on-disk format for the proxy's detection state: one file of
// CRC-framed records, each a key issue, a key consume, a session update or
// a session close. A durable proxy appends one record per mutation, and a
// checkpoint rewrites the file as one record per live key and session.
//
// The file is parsed as untrusted input: every record and every record's
// length carries a CRC32C, every length prefix is validated against a hard
// cap before allocation, and a corrupt record body costs that record, a
// corrupt length or a torn tail the file from there on. Decoders never throw and never read out of bounds (all access
// goes through ByteReader). The file streams: the reader holds one record
// at a time.
//
// Layout (little-endian throughout):
//   magic[8] "RDJRNL1\0" | version u32
//   | records...   each: frame_len u32 | len_crc u32 | frame | crc u32
//   frame: type u8 | payload
// len_crc is the CRC32C of frame_len's four bytes and crc that of the
// frame, so a record's length is trusted before it is used to skip it.
#ifndef ROBODET_SRC_PROXY_PERSISTENCE_FORMAT_H_
#define ROBODET_SRC_PROXY_PERSISTENCE_FORMAT_H_

#include <cstdint>
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/signals.h"
#include "src/http/wire.h"
#include "src/util/binio.h"
#include "src/util/clock.h"

namespace robodet::persistence {

inline constexpr std::string_view kJournalMagic{"RDJRNL1\0", 8};
inline constexpr uint32_t kFormatVersion = 2;

// Hard limits enforced before any allocation; input exceeding them is
// hostile (or corrupt), not merely large.
inline constexpr size_t kMaxFrameBytes = 1u << 20;  // one record
// Every persisted string (a User-Agent, an echoed agent, a page path, a
// key) comes from one request line or one header line, so the wire's line
// limit bounds it; a smaller bound here would drop a session's record for
// one long but legal request.
inline constexpr size_t kMaxStringBytes = kMaxWireLineBytes;
inline constexpr size_t kMaxEventsPerSession = 4096;
inline constexpr size_t kMaxUrlHashesPerSession = 1u << 16;
inline constexpr size_t kMaxPageIndicesPerSession = 4096;

enum class JournalRecordType : uint8_t {
  kKeyIssued = 1,
  kKeyConsumed = 2,
  kSessionUpdate = 3,
  kSessionClosed = 4,
};

// One beacon-key table entry.
struct KeyEntryImage {
  uint32_t ip = 0;
  std::string page_path;
  std::string key;
  TimeMs issued_at = 0;
};

// A decoded session: its scalars and, for each run, the items a record
// holds of it.
struct SessionImage {
  uint64_t id = 0;
  uint32_t ip = 0;
  std::string user_agent;
  TimeMs first_request = 0;
  TimeMs last_request = 0;
  SessionSignals signals;
  int32_t request_count = 0;
  int32_t instrumented_pages = 0;
  bool blocked = false;
  int32_t cgi_requests = 0;
  int32_t get_requests = 0;
  int32_t error_responses = 0;
  std::vector<int32_t> instrumented_page_indices;
  std::vector<RequestEvent> events;
  std::vector<uint64_t> served_links;
  std::vector<uint64_t> served_embeds;
  std::vector<uint64_t> visited_urls;
};

// A length for each of a session's five append-only runs, in encoding
// order: how much of each run the file already holds.
struct RunMarks {
  uint32_t page_indices = 0;
  uint32_t events = 0;
  uint32_t links = 0;
  uint32_t embeds = 0;
  uint32_t visited = 0;
};

// One decoded session update. Scalars (including signals) are the full
// current values — replay overwrites, so applying the same record twice is
// a no-op. The vectors in `delta` hold only each run's items from its mark
// in `before` on, and replay appends a suffix only to a run that is exactly
// at its mark, so it applies each suffix once. A checkpoint writes each
// session as one update from marks 0.
struct SessionUpdateImage {
  SessionImage delta;
  RunMarks before;
};

// One decoded record.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kKeyIssued;
  KeyEntryImage key;          // kKeyIssued (all fields) / kKeyConsumed (ip+key)
  SessionUpdateImage update;  // kSessionUpdate
  uint64_t session_id = 0;    // kSessionClosed
};

// --- Encoder input ----------------------------------------------------

// The encoders read borrowed views of the persisted fields, so a
// checkpoint or an appended record encodes the live tables in place
// instead of first copying them. A view must not outlive what it borrows.
struct KeyEntryFields {
  uint32_t ip;
  std::string_view page_path;
  std::string_view key;
  TimeMs issued_at;
};

struct SessionFields {
  uint64_t id = 0;
  uint32_t ip = 0;
  std::string_view user_agent;
  TimeMs first_request = 0;
  TimeMs last_request = 0;
  const SessionSignals* signals = nullptr;  // Never null once filled in.
  int32_t request_count = 0;
  int32_t instrumented_pages = 0;
  bool blocked = false;
  int32_t cgi_requests = 0;
  int32_t get_requests = 0;
  int32_t error_responses = 0;
  std::span<const int32_t> instrumented_page_indices;
  std::span<const RequestEvent> events;
  std::span<const uint64_t> served_links;
  std::span<const uint64_t> served_embeds;
  std::span<const uint64_t> visited_urls;
};

// The full length of each of the session's runs.
RunMarks RunLengths(const SessionFields& s);

// --- Records ----------------------------------------------------------

// Appends the file header, magic | version, to `w`.
void EncodeJournalHeader(ByteWriter* w);

// Each appends one framed record, frame_len | len_crc | (type | payload) |
// crc, to `w`.
void EncodeKeyIssued(const KeyEntryFields& e, ByteWriter* w);
void EncodeKeyConsumed(uint32_t ip, std::string_view key, ByteWriter* w);
// The session's scalars, then each run's mark and the run from that mark
// on; a mark past its run's end is written with an empty suffix.
void EncodeSessionUpdate(const SessionFields& s, const RunMarks& marks, ByteWriter* w);
void EncodeSessionClosed(uint64_t session_id, ByteWriter* w);

// Decodes one record's frame (type | payload) into `rec`, reusing its
// storage; only the fields of the record's type are written. False for an
// unknown type or a payload that does not decode whole.
bool DecodeJournalFrame(std::string_view frame, JournalRecord* rec);

// Walks the file one record at a time, through one buffer sized by the
// largest frame; both recovery and inspection read it this way.
class JournalReader {
 public:
  // Reads the header from `in`, which must outlive the reader. False when
  // the header is invalid.
  bool Open(std::istream* in);
  // Decodes the next intact record into `rec`, reusing its storage (only
  // the fields of the record's type are written). False at the end of the
  // file or of its framing. A whole frame whose length passes its CRC and
  // bounds but whose frame CRC fails, or whose payload does not decode, is
  // skipped and counted.
  bool Next(JournalRecord* rec);

  // Once Next has returned false: the frames skipped; and the bytes left
  // at a frame whose length fails its CRC, is out of bounds or runs past
  // the end of the file, past which framing can no longer be trusted.
  size_t records_dropped() const { return records_dropped_; }
  size_t bytes_dropped() const { return bytes_dropped_; }

 private:
  StreamReader reader_;
  size_t records_dropped_ = 0;
  size_t bytes_dropped_ = 0;
};

}  // namespace robodet::persistence

#endif  // ROBODET_SRC_PROXY_PERSISTENCE_FORMAT_H_
