// On-disk formats for the proxy's detection state: a versioned,
// checksummed snapshot of the key and session tables, and an append-only
// journal of state mutations between snapshots.
//
// Both files are parsed as untrusted input: every section and journal
// record carries a CRC32C, every length prefix is validated against a hard
// cap before allocation, and a torn or corrupt tail degrades to "keep the
// valid prefix" rather than an error. Decoders never throw and never read
// out of bounds (all access goes through ByteReader). Both files stream:
// the writer sends each section to the file as it is framed, and the
// readers hold one section or one record at a time.
//
// Snapshot layout (little-endian throughout):
//   magic[8] "RDSNAP1\0" | version u32 | epoch u64 | created_at i64
//   | key_sections u32 | session_sections u32
//   | sections...                each: payload_len u32 | payload | crc u32
// Key-section payload:     entry_count u32 | KeyEntry...
// Session-section payload: entry_count u32 | Session...
//
// Journal layout:
//   magic[8] "RDJRNL1\0" | version u32 | epoch u64
//   | records...                 each: frame_len u32 | frame | crc u32
//   frame: type u8 | payload
//
// A journal belongs to the snapshot with the same epoch; an epoch mismatch
// means the journal predates (or outlives) the snapshot and is ignored —
// its effects are already folded in, or it describes a different life.
#ifndef ROBODET_SRC_PROXY_PERSISTENCE_FORMAT_H_
#define ROBODET_SRC_PROXY_PERSISTENCE_FORMAT_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/signals.h"
#include "src/http/wire.h"
#include "src/util/binio.h"
#include "src/util/clock.h"

namespace robodet::persistence {

inline constexpr std::string_view kSnapshotMagic{"RDSNAP1\0", 8};
inline constexpr std::string_view kJournalMagic{"RDJRNL1\0", 8};
inline constexpr uint32_t kFormatVersion = 1;

// Hard limits enforced before any allocation; input exceeding them is
// hostile (or corrupt), not merely large.
inline constexpr size_t kMaxSectionBytes = 16u << 20;     // one shard's payload
inline constexpr size_t kMaxSections = 4096;              // shards per table
inline constexpr size_t kMaxEntriesPerSection = 1u << 20;
inline constexpr size_t kMaxFrameBytes = 1u << 20;        // one journal record
// Every persisted string (a User-Agent, an echoed agent, a page path, a
// key) comes from one request line or one header line, so the wire's line
// limit bounds it; a smaller bound here would drop a whole shard's section
// for one long but legal request.
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

// A full serialized session.
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
// order: how much of each run a snapshot or the journal already holds.
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
// at its mark, so it applies each suffix once no matter how the journal
// overlaps the snapshot.
struct SessionUpdateImage {
  SessionImage delta;
  RunMarks before;
};

// One decoded journal record.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kKeyIssued;
  KeyEntryImage key;          // kKeyIssued (all fields) / kKeyConsumed (ip+key)
  SessionUpdateImage update;  // kSessionUpdate
  uint64_t session_id = 0;    // kSessionClosed
};

// --- Encoder input ----------------------------------------------------

// The encoders read borrowed views of the persisted fields, so a
// checkpoint or a journal record encodes the live tables in place instead
// of first copying them. A view must not outlive what it borrows.
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

// --- Entry codecs -----------------------------------------------------

// The decoders write into an image whose storage they reuse, so one image
// can take every entry of a file in turn.
void EncodeKeyEntry(const KeyEntryFields& e, ByteWriter* w);
bool DecodeKeyEntry(ByteReader* r, KeyEntryImage* e);

void EncodeSession(const SessionFields& s, ByteWriter* w);
bool DecodeSession(ByteReader* r, SessionImage* s);

// --- Snapshot ---------------------------------------------------------

// Writes a snapshot file incrementally, one section per table shard (key
// sections first, then session sections, as declared in the constructor).
// Each section's payload is encoded between BeginSection and EndSection
// into one buffer that every section reuses, and EndSection frames it and
// writes it out.
class SnapshotWriter {
 public:
  // Writes the header to `out`, which must outlive the writer. The
  // sections are encoded in `buffer`'s storage (see ByteWriter).
  SnapshotWriter(std::ostream* out, uint64_t epoch, TimeMs created_at, uint32_t key_sections,
                 uint32_t session_sections, std::string buffer = {});

  // Opens a section and returns the writer its payload goes to; the
  // section is framed (payload_len | payload | crc) by EndSection.
  ByteWriter* BeginSection();
  void EndSection();

 private:
  std::ostream* out_;
  ByteWriter section_;
};

// Reads a snapshot one section at a time: the header, then each section's
// frame through one buffer sized by the largest, checked against its CRC,
// and then its entries through one reused image each.
class SnapshotReader {
 public:
  // Reads the header from `in`, which must outlive the reader. False when
  // the header itself is invalid (wrong magic/version, truncated) — the
  // caller cold-starts.
  bool Open(std::istream* in);

  // Reads every section, handing each decoded key entry to `on_key` and
  // each session to `on_session`; an entry is valid only during its call.
  // A section whose CRC fails, or whose payload does not decode whole, is
  // dropped whole: its framing was CRC-valid, so a decode failure means a
  // format mismatch, and a partial decode is not to be trusted. A
  // truncated frame drops it and every section after it.
  template <typename OnKey, typename OnSession>
  void ForEachEntry(OnKey on_key, OnSession on_session) {
    KeyEntryImage key;
    SessionImage session;
    std::string_view payload;
    bool key_section = false;
    while (Next(&payload, &key_section)) {
      const bool decoded = key_section ? DecodeEntries(payload, DecodeKeyEntry, &key, on_key)
                                       : DecodeEntries(payload, DecodeSession, &session, on_session);
      if (!decoded) {
        ++sections_dropped_;
      }
    }
  }

  uint64_t epoch() const { return epoch_; }
  TimeMs created_at() const { return created_at_; }
  size_t sections_total() const { return key_sections_ + session_sections_; }
  // Sections whose CRC or payload failed validation; their entries are
  // dropped, the rest of the snapshot is salvaged.
  size_t sections_dropped() const { return sections_dropped_; }
  size_t largest_section() const { return largest_section_; }

 private:
  // The next section whose CRC holds: its payload, valid until the next
  // call, and whether it is a key section (else a session section).
  bool Next(std::string_view* payload, bool* key_section);

  // Decodes a payload — an entry count, then that many entries with
  // nothing after them — into `entry` and hands each entry to `fn`, but
  // only once the whole payload decoded, so it decodes the payload twice.
  // False when it does not decode whole.
  template <typename Image, typename Fn>
  static bool DecodeEntries(std::string_view payload, bool (*decode)(ByteReader*, Image*),
                            Image* entry, Fn& fn) {
    for (const bool deliver : {false, true}) {
      ByteReader r(payload);
      uint32_t n = 0;
      if (!r.ReadU32(&n) || n > kMaxEntriesPerSection) {
        return false;
      }
      for (uint32_t i = 0; i < n; ++i) {
        if (!decode(&r, entry)) {
          return false;
        }
        if (deliver) {
          fn(*entry);
        }
      }
      if (r.remaining() != 0) {
        return false;
      }
    }
    return true;
  }

  StreamReader reader_;
  uint64_t epoch_ = 0;
  TimeMs created_at_ = 0;
  size_t key_sections_ = 0;
  size_t session_sections_ = 0;
  size_t next_ = 0;
  size_t sections_dropped_ = 0;
  size_t largest_section_ = 0;
};

// --- Journal ----------------------------------------------------------

std::string EncodeJournalHeader(uint64_t epoch);

// Each appends one framed record, frame_len | (type | payload) | crc, to
// `w`.
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

// Walks a journal one record at a time, through one buffer sized by the
// largest frame; both recovery and inspection read it this way.
class JournalReader {
 public:
  // Reads the header from `in`, which must outlive the reader. False when
  // the header is invalid.
  bool Open(std::istream* in);
  // Decodes the next intact record into `rec`, reusing its storage (only
  // the fields of the record's type are written). False at the end of the
  // valid prefix. Undecodable records are skipped and counted.
  bool Next(JournalRecord* rec);

  uint64_t epoch() const { return epoch_; }
  // Once Next has returned false: records whose frame was intact (CRC
  // valid) but whose payload did not decode, which were skipped; and the
  // bytes abandoned at the first torn or corrupt frame, past which
  // framing can no longer be trusted.
  size_t records_dropped() const { return records_dropped_; }
  size_t bytes_dropped() const { return bytes_dropped_; }

 private:
  StreamReader reader_;
  uint64_t epoch_ = 0;
  size_t records_dropped_ = 0;
  size_t bytes_dropped_ = 0;
};

}  // namespace robodet::persistence

#endif  // ROBODET_SRC_PROXY_PERSISTENCE_FORMAT_H_
