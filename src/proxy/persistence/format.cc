#include "src/proxy/persistence/format.h"

#include <algorithm>

#include "src/http/content_type.h"
#include "src/util/checksum.h"

namespace robodet::persistence {
namespace {

// Flag bits of a packed RequestEvent.
constexpr uint8_t kFlagHead = 1u << 0;
constexpr uint8_t kFlagReferrer = 1u << 1;
constexpr uint8_t kFlagUnseenReferrer = 1u << 2;
constexpr uint8_t kFlagEmbedded = 1u << 3;
constexpr uint8_t kFlagLinkFollow = 1u << 4;
constexpr uint8_t kFlagFavicon = 1u << 5;

// A frame's head: its length, then the CRC of those four length bytes.
constexpr size_t kFrameHeadBytes = 8;

// Frames what the caller writes after BeginFrame as len u32 | len_crc u32 |
// bytes | crc u32, in place: the length and its CRC are patched in once the
// payload is known.
size_t BeginFrame(ByteWriter* w) {
  const size_t at = w->size();
  w->PutU32(0);
  w->PutU32(0);
  return at;
}

void EndFrame(size_t at, ByteWriter* w) {
  const std::string_view payload = std::string_view(w->bytes()).substr(at + kFrameHeadBytes);
  w->PatchU32(at, static_cast<uint32_t>(payload.size()));
  w->PatchU32(at + 4, Crc32c(std::string_view(w->bytes()).substr(at, 4)));
  w->PutU32(Crc32c(payload));
}

// Starts a record of `type`; EndFrame closes it.
size_t BeginRecord(JournalRecordType type, ByteWriter* w) {
  const size_t at = BeginFrame(w);
  w->PutU8(static_cast<uint8_t>(type));
  return at;
}

// The run from `mark` on; empty when the mark is at or past its end.
template <typename T>
std::span<const T> From(std::span<const T> run, uint32_t mark) {
  return run.subspan(std::min<size_t>(mark, run.size()));
}

uint8_t EventFlags(const RequestEvent& e) {
  uint8_t flags = 0;
  flags |= e.is_head ? kFlagHead : 0;
  flags |= e.has_referrer ? kFlagReferrer : 0;
  flags |= e.unseen_referrer ? kFlagUnseenReferrer : 0;
  flags |= e.is_embedded ? kFlagEmbedded : 0;
  flags |= e.is_link_follow ? kFlagLinkFollow : 0;
  flags |= e.is_favicon ? kFlagFavicon : 0;
  return flags;
}

void EncodeSignals(const SessionSignals& s, ByteWriter* w) {
  for (const SignalIndex& index : kSignalIndices) {
    w->PutI32(s.*index.field);
  }
  w->PutString(s.ua_echo_agent);
}

bool DecodeSignals(ByteReader* r, SessionSignals* s) {
  for (const SignalIndex& index : kSignalIndices) {
    if (!r->ReadI32(&(s->*index.field))) {
      return false;
    }
  }
  return r->ReadString(&s->ua_echo_agent, kMaxStringBytes);
}

// Events pack into three bytes each: kind, status class, flag bits.
void EncodeEvents(std::span<const RequestEvent> v, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  char* packed = w->Extend(3 * v.size());
  for (const RequestEvent& e : v) {
    *packed++ = static_cast<char>(e.kind);
    *packed++ = static_cast<char>(e.status_class);
    *packed++ = static_cast<char>(EventFlags(e));
  }
}

bool DecodeEvents(ByteReader* r, size_t max_items, std::vector<RequestEvent>* v) {
  uint32_t n = 0;
  std::string_view packed;
  if (!r->ReadU32(&n) || n > max_items || !r->ReadRaw(3 * static_cast<size_t>(n), &packed)) {
    return false;
  }
  v->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const auto kind = static_cast<uint8_t>(packed[3 * i]);
    const auto flags = static_cast<uint8_t>(packed[3 * i + 2]);
    // An out-of-range kind would forge an enum value (UB downstream).
    if (kind > static_cast<uint8_t>(ResourceKind::kOther)) {
      return false;
    }
    RequestEvent& e = (*v)[i];
    e.kind = static_cast<ResourceKind>(kind);
    e.status_class = static_cast<uint8_t>(packed[3 * i + 1]);
    e.is_head = (flags & kFlagHead) != 0;
    e.has_referrer = (flags & kFlagReferrer) != 0;
    e.unseen_referrer = (flags & kFlagUnseenReferrer) != 0;
    e.is_embedded = (flags & kFlagEmbedded) != 0;
    e.is_link_follow = (flags & kFlagLinkFollow) != 0;
    e.is_favicon = (flags & kFlagFavicon) != 0;
  }
  return true;
}

void EncodeSessionScalars(const SessionFields& s, ByteWriter* w) {
  w->PutU64(s.id);
  w->PutU32(s.ip);
  w->PutString(s.user_agent);
  w->PutI64(s.first_request);
  w->PutI64(s.last_request);
  EncodeSignals(*s.signals, w);
  w->PutI32(s.request_count);
  w->PutI32(s.instrumented_pages);
  w->PutU8(s.blocked ? 1 : 0);
  w->PutI32(s.cgi_requests);
  w->PutI32(s.get_requests);
  w->PutI32(s.error_responses);
}

bool DecodeSessionScalars(ByteReader* r, SessionImage* s) {
  uint8_t blocked = 0;
  bool ok = r->ReadU64(&s->id) && r->ReadU32(&s->ip) &&
            r->ReadString(&s->user_agent, kMaxStringBytes) && r->ReadI64(&s->first_request) &&
            r->ReadI64(&s->last_request) && DecodeSignals(r, &s->signals) &&
            r->ReadI32(&s->request_count) && r->ReadI32(&s->instrumented_pages) &&
            r->ReadU8(&blocked) && r->ReadI32(&s->cgi_requests) && r->ReadI32(&s->get_requests) &&
            r->ReadI32(&s->error_responses);
  if (!ok) {
    return false;
  }
  // Negative counters cannot come from a real table; reject the record.
  if (s->request_count < 0 || s->instrumented_pages < 0 || s->cgi_requests < 0 ||
      s->get_requests < 0 || s->error_responses < 0) {
    return false;
  }
  s->blocked = blocked != 0;
  return true;
}

void EncodeKeyEntry(const KeyEntryFields& e, ByteWriter* w) {
  w->PutU32(e.ip);
  w->PutString(e.page_path);
  w->PutString(e.key);
  w->PutI64(e.issued_at);
}

bool DecodeKeyEntry(ByteReader* r, KeyEntryImage* e) {
  return r->ReadU32(&e->ip) && r->ReadString(&e->page_path, kMaxStringBytes) &&
         r->ReadString(&e->key, kMaxStringBytes) && r->ReadI64(&e->issued_at);
}

}  // namespace

RunMarks RunLengths(const SessionFields& s) {
  return {static_cast<uint32_t>(s.instrumented_page_indices.size()),
          static_cast<uint32_t>(s.events.size()), static_cast<uint32_t>(s.served_links.size()),
          static_cast<uint32_t>(s.served_embeds.size()),
          static_cast<uint32_t>(s.visited_urls.size())};
}

void EncodeJournalHeader(ByteWriter* w) {
  w->PutRaw(kJournalMagic);
  w->PutU32(kFormatVersion);
}

void EncodeKeyIssued(const KeyEntryFields& e, ByteWriter* w) {
  const size_t at = BeginRecord(JournalRecordType::kKeyIssued, w);
  EncodeKeyEntry(e, w);
  EndFrame(at, w);
}

void EncodeKeyConsumed(uint32_t ip, std::string_view key, ByteWriter* w) {
  const size_t at = BeginRecord(JournalRecordType::kKeyConsumed, w);
  w->PutU32(ip);
  w->PutString(key);
  EndFrame(at, w);
}

void EncodeSessionUpdate(const SessionFields& s, const RunMarks& marks, ByteWriter* w) {
  const size_t at = BeginRecord(JournalRecordType::kSessionUpdate, w);
  EncodeSessionScalars(s, w);
  w->PutU32(marks.page_indices);
  w->PutI32Run(From(s.instrumented_page_indices, marks.page_indices));
  w->PutU32(marks.events);
  EncodeEvents(From(s.events, marks.events), w);
  w->PutU32(marks.links);
  w->PutU64Run(From(s.served_links, marks.links));
  w->PutU32(marks.embeds);
  w->PutU64Run(From(s.served_embeds, marks.embeds));
  w->PutU32(marks.visited);
  w->PutU64Run(From(s.visited_urls, marks.visited));
  EndFrame(at, w);
}

void EncodeSessionClosed(uint64_t session_id, ByteWriter* w) {
  const size_t at = BeginRecord(JournalRecordType::kSessionClosed, w);
  w->PutU64(session_id);
  EndFrame(at, w);
}

namespace {

bool DecodeSessionUpdate(ByteReader* r, SessionUpdateImage* u) {
  SessionImage* d = &u->delta;
  RunMarks* m = &u->before;
  return DecodeSessionScalars(r, d) && r->ReadU32(&m->page_indices) &&
         r->ReadI32Run(kMaxPageIndicesPerSession, &d->instrumented_page_indices) &&
         r->ReadU32(&m->events) && DecodeEvents(r, kMaxEventsPerSession, &d->events) &&
         r->ReadU32(&m->links) && r->ReadU64Run(kMaxUrlHashesPerSession, &d->served_links) &&
         r->ReadU32(&m->embeds) && r->ReadU64Run(kMaxUrlHashesPerSession, &d->served_embeds) &&
         r->ReadU32(&m->visited) && r->ReadU64Run(kMaxUrlHashesPerSession, &d->visited_urls);
}

}  // namespace

bool DecodeJournalFrame(std::string_view frame, JournalRecord* rec) {
  ByteReader r(frame);
  uint8_t type = 0;
  if (!r.ReadU8(&type)) {
    return false;
  }
  bool ok = false;
  switch (static_cast<JournalRecordType>(type)) {
    case JournalRecordType::kKeyIssued:
      rec->type = JournalRecordType::kKeyIssued;
      ok = DecodeKeyEntry(&r, &rec->key);
      break;
    case JournalRecordType::kKeyConsumed:
      rec->type = JournalRecordType::kKeyConsumed;
      ok = r.ReadU32(&rec->key.ip) && r.ReadString(&rec->key.key, kMaxStringBytes);
      break;
    case JournalRecordType::kSessionUpdate:
      rec->type = JournalRecordType::kSessionUpdate;
      ok = DecodeSessionUpdate(&r, &rec->update);
      break;
    case JournalRecordType::kSessionClosed:
      rec->type = JournalRecordType::kSessionClosed;
      ok = r.ReadU64(&rec->session_id);
      break;
    default:
      return false;  // Unknown type: skip the frame, framing stays intact.
  }
  return ok && r.remaining() == 0;
}

bool JournalReader::Open(std::istream* in) {
  reader_ = StreamReader(in);
  records_dropped_ = 0;
  bytes_dropped_ = 0;
  std::string_view header;
  if (!reader_.Read(kJournalMagic.size() + 4, &header)) {
    return false;
  }
  ByteReader r(header);
  std::string_view magic;
  uint32_t version = 0;
  return r.ReadRaw(kJournalMagic.size(), &magic) && magic == kJournalMagic &&
         r.ReadU32(&version) && version == kFormatVersion;
}

bool JournalReader::Next(JournalRecord* rec) {
  while (reader_.remaining() > 0) {
    const size_t tail = reader_.remaining();  // Abandoned if this frame is torn.
    // A frame is frame_len | len_crc | frame | crc.
    std::string_view head;
    uint32_t len = 0;
    uint32_t len_crc = 0;
    std::string_view framed;
    if (!reader_.Read(kFrameHeadBytes, &head) || !ByteReader(head).ReadU32(&len) ||
        !ByteReader(head.substr(4)).ReadU32(&len_crc) || len_crc != Crc32c(head.substr(0, 4)) ||
        len == 0 || len > kMaxFrameBytes || !reader_.Read(len + 4, &framed)) {
      // A length that fails its own CRC or is out of bounds, or a short
      // read: the next frame's start can no longer be trusted, so
      // everything from this frame's start on is abandoned. Skipping by an
      // unchecked length could land inside a payload, whose client-chosen
      // bytes might then pass for a record.
      bytes_dropped_ = tail;
      reader_ = StreamReader();
      return false;
    }
    uint32_t crc = 0;
    ByteReader(framed.substr(len)).ReadU32(&crc);
    const std::string_view frame = framed.substr(0, len);
    if (crc == Crc32c(frame) && DecodeJournalFrame(frame, rec)) {
      return true;
    }
    // A frame whose checked length holds but whose CRC fails (a flipped
    // byte) or that does not decode (a record type from a newer writer):
    // skip just this frame, as its length marks where the next one starts.
    ++records_dropped_;
    *rec = JournalRecord{};
  }
  return false;
}

}  // namespace robodet::persistence
