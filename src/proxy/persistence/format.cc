#include "src/proxy/persistence/format.h"

#include "src/http/content_type.h"
#include "src/util/checksum.h"

namespace robodet::persistence {
namespace {

// RequestEvent packs into three bytes: kind, status class, flag bits.
constexpr uint8_t kFlagHead = 1u << 0;
constexpr uint8_t kFlagReferrer = 1u << 1;
constexpr uint8_t kFlagUnseenReferrer = 1u << 2;
constexpr uint8_t kFlagEmbedded = 1u << 3;
constexpr uint8_t kFlagLinkFollow = 1u << 4;
constexpr uint8_t kFlagFavicon = 1u << 5;

void EncodeEvent(const RequestEvent& e, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(e.kind));
  w->PutU8(e.status_class);
  uint8_t flags = 0;
  flags |= e.is_head ? kFlagHead : 0;
  flags |= e.has_referrer ? kFlagReferrer : 0;
  flags |= e.unseen_referrer ? kFlagUnseenReferrer : 0;
  flags |= e.is_embedded ? kFlagEmbedded : 0;
  flags |= e.is_link_follow ? kFlagLinkFollow : 0;
  flags |= e.is_favicon ? kFlagFavicon : 0;
  w->PutU8(flags);
}

bool DecodeEvent(ByteReader* r, RequestEvent* e) {
  uint8_t kind = 0;
  uint8_t status = 0;
  uint8_t flags = 0;
  if (!r->ReadU8(&kind) || !r->ReadU8(&status) || !r->ReadU8(&flags)) {
    return false;
  }
  // An out-of-range kind would forge an enum value (UB downstream).
  if (kind > static_cast<uint8_t>(ResourceKind::kOther)) {
    return false;
  }
  e->kind = static_cast<ResourceKind>(kind);
  e->status_class = status;
  e->is_head = (flags & kFlagHead) != 0;
  e->has_referrer = (flags & kFlagReferrer) != 0;
  e->unseen_referrer = (flags & kFlagUnseenReferrer) != 0;
  e->is_embedded = (flags & kFlagEmbedded) != 0;
  e->is_link_follow = (flags & kFlagLinkFollow) != 0;
  e->is_favicon = (flags & kFlagFavicon) != 0;
  return true;
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

void EncodeI32Vec(const std::vector<int32_t>& v, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (int32_t x : v) {
    w->PutI32(x);
  }
}

bool DecodeI32Vec(ByteReader* r, size_t max_items, std::vector<int32_t>* v) {
  uint32_t n = 0;
  if (!r->ReadU32(&n) || n > max_items || static_cast<size_t>(n) * 4 > r->remaining()) {
    return false;
  }
  v->clear();
  v->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t x = 0;
    if (!r->ReadI32(&x)) {
      return false;
    }
    v->push_back(x);
  }
  return true;
}

void EncodeU64Vec(const std::vector<uint64_t>& v, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (uint64_t x : v) {
    w->PutU64(x);
  }
}

bool DecodeU64Vec(ByteReader* r, size_t max_items, std::vector<uint64_t>* v) {
  uint32_t n = 0;
  if (!r->ReadU32(&n) || n > max_items || static_cast<size_t>(n) * 8 > r->remaining()) {
    return false;
  }
  v->clear();
  v->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t x = 0;
    if (!r->ReadU64(&x)) {
      return false;
    }
    v->push_back(x);
  }
  return true;
}

void EncodeEventVec(const std::vector<RequestEvent>& v, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.size()));
  for (const RequestEvent& e : v) {
    EncodeEvent(e, w);
  }
}

bool DecodeEventVec(ByteReader* r, size_t max_items, std::vector<RequestEvent>* v) {
  uint32_t n = 0;
  if (!r->ReadU32(&n) || n > max_items || static_cast<size_t>(n) * 3 > r->remaining()) {
    return false;
  }
  v->clear();
  v->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RequestEvent e;
    if (!DecodeEvent(r, &e)) {
      return false;
    }
    v->push_back(e);
  }
  return true;
}

void EncodeSessionScalars(const SessionImage& s, ByteWriter* w) {
  w->PutU64(s.id);
  w->PutU32(s.ip);
  w->PutString(s.user_agent);
  w->PutI64(s.first_request);
  w->PutI64(s.last_request);
  EncodeSignals(s.signals, w);
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

bool DecodeSessionVectors(ByteReader* r, SessionImage* s) {
  return DecodeI32Vec(r, kMaxPageIndicesPerSession, &s->instrumented_page_indices) &&
         DecodeEventVec(r, kMaxEventsPerSession, &s->events) &&
         DecodeU64Vec(r, kMaxUrlHashesPerSession, &s->served_links) &&
         DecodeU64Vec(r, kMaxUrlHashesPerSession, &s->served_embeds) &&
         DecodeU64Vec(r, kMaxUrlHashesPerSession, &s->visited_urls);
}

}  // namespace

void EncodeKeyEntry(const KeyEntryImage& e, ByteWriter* w) {
  w->PutU32(e.ip);
  w->PutString(e.page_path);
  w->PutString(e.key);
  w->PutI64(e.issued_at);
}

bool DecodeKeyEntry(ByteReader* r, KeyEntryImage* e) {
  return r->ReadU32(&e->ip) && r->ReadString(&e->page_path, kMaxStringBytes) &&
         r->ReadString(&e->key, kMaxStringBytes) && r->ReadI64(&e->issued_at);
}

void EncodeSession(const SessionImage& s, ByteWriter* w) {
  EncodeSessionScalars(s, w);
  EncodeI32Vec(s.instrumented_page_indices, w);
  EncodeEventVec(s.events, w);
  EncodeU64Vec(s.served_links, w);
  EncodeU64Vec(s.served_embeds, w);
  EncodeU64Vec(s.visited_urls, w);
}

bool DecodeSession(ByteReader* r, SessionImage* s) {
  return DecodeSessionScalars(r, s) && DecodeSessionVectors(r, s);
}

void EncodeSessionUpdate(const SessionUpdateImage& u, ByteWriter* w) {
  EncodeSessionScalars(u.delta, w);
  w->PutU32(u.page_indices_before);
  EncodeI32Vec(u.delta.instrumented_page_indices, w);
  w->PutU32(u.events_before);
  EncodeEventVec(u.delta.events, w);
  w->PutU32(u.links_before);
  EncodeU64Vec(u.delta.served_links, w);
  w->PutU32(u.embeds_before);
  EncodeU64Vec(u.delta.served_embeds, w);
  w->PutU32(u.visited_before);
  EncodeU64Vec(u.delta.visited_urls, w);
}

bool DecodeSessionUpdate(ByteReader* r, SessionUpdateImage* u) {
  return DecodeSessionScalars(r, &u->delta) && r->ReadU32(&u->page_indices_before) &&
         DecodeI32Vec(r, kMaxPageIndicesPerSession, &u->delta.instrumented_page_indices) &&
         r->ReadU32(&u->events_before) &&
         DecodeEventVec(r, kMaxEventsPerSession, &u->delta.events) &&
         r->ReadU32(&u->links_before) &&
         DecodeU64Vec(r, kMaxUrlHashesPerSession, &u->delta.served_links) &&
         r->ReadU32(&u->embeds_before) &&
         DecodeU64Vec(r, kMaxUrlHashesPerSession, &u->delta.served_embeds) &&
         r->ReadU32(&u->visited_before) &&
         DecodeU64Vec(r, kMaxUrlHashesPerSession, &u->delta.visited_urls);
}

// --- Snapshot ---------------------------------------------------------

SnapshotWriter::SnapshotWriter(uint64_t epoch, TimeMs created_at, uint32_t key_sections,
                               uint32_t session_sections) {
  out_.PutRaw(kSnapshotMagic);
  out_.PutU32(kFormatVersion);
  out_.PutU64(epoch);
  out_.PutI64(created_at);
  out_.PutU32(key_sections);
  out_.PutU32(session_sections);
}

void SnapshotWriter::AddSection(std::string_view payload) {
  out_.PutU32(static_cast<uint32_t>(payload.size()));
  out_.PutRaw(payload);
  out_.PutU32(Crc32c(payload));
}

namespace {

// Decodes one section payload into `out`, appending entries. False drops
// the whole section (it is not safe to trust a partial decode: the framing
// was CRC-valid, so a decode failure means a version/format mismatch).
template <typename Image, typename DecodeFn, typename Vec>
bool DecodeSection(std::string_view payload, DecodeFn decode, Vec* out) {
  ByteReader r(payload);
  uint32_t n = 0;
  if (!r.ReadU32(&n) || n > kMaxEntriesPerSection) {
    return false;
  }
  const size_t base = out->size();
  for (uint32_t i = 0; i < n; ++i) {
    Image img;
    if (!decode(&r, &img)) {
      out->resize(base);
      return false;
    }
    out->push_back(std::move(img));
  }
  if (r.remaining() != 0) {
    out->resize(base);
    return false;
  }
  return true;
}

}  // namespace

bool ReadSnapshot(std::string_view bytes, SnapshotContents* out) {
  *out = SnapshotContents{};
  ByteReader r(bytes);
  std::string_view magic;
  uint32_t version = 0;
  uint32_t key_sections = 0;
  uint32_t session_sections = 0;
  if (!r.ReadRaw(kSnapshotMagic.size(), &magic) || magic != kSnapshotMagic ||
      !r.ReadU32(&version) || version != kFormatVersion || !r.ReadU64(&out->epoch) ||
      !r.ReadI64(&out->created_at) || !r.ReadU32(&key_sections) || !r.ReadU32(&session_sections) ||
      key_sections > kMaxSections || session_sections > kMaxSections) {
    return false;
  }
  const size_t total = static_cast<size_t>(key_sections) + session_sections;
  for (size_t i = 0; i < total; ++i) {
    uint32_t len = 0;
    std::string_view payload;
    uint32_t crc = 0;
    if (!r.ReadU32(&len) || len > kMaxSectionBytes || !r.ReadRaw(len, &payload) ||
        !r.ReadU32(&crc)) {
      // Truncated mid-section: everything from here on is untrusted.
      out->sections_dropped += total - i;
      out->sections_total = total;
      return true;
    }
    ++out->sections_total;
    bool good = crc == Crc32c(payload);
    if (good) {
      good = i < key_sections ? DecodeSection<KeyEntryImage>(payload, DecodeKeyEntry, &out->keys)
                              : DecodeSection<SessionImage>(payload, DecodeSession, &out->sessions);
    }
    if (!good) {
      ++out->sections_dropped;
    }
  }
  return true;
}

// --- Journal ----------------------------------------------------------

std::string EncodeJournalHeader(uint64_t epoch) {
  ByteWriter w;
  w.PutRaw(kJournalMagic);
  w.PutU32(kFormatVersion);
  w.PutU64(epoch);
  return w.Take();
}

std::string EncodeJournalRecord(const JournalRecord& rec) {
  ByteWriter frame;
  frame.PutU8(static_cast<uint8_t>(rec.type));
  switch (rec.type) {
    case JournalRecordType::kKeyIssued:
      EncodeKeyEntry(rec.key, &frame);
      break;
    case JournalRecordType::kKeyConsumed:
      frame.PutU32(rec.key.ip);
      frame.PutString(rec.key.key);
      break;
    case JournalRecordType::kSessionUpdate:
      EncodeSessionUpdate(rec.update, &frame);
      break;
    case JournalRecordType::kSessionClosed:
      frame.PutU64(rec.session_id);
      break;
  }
  ByteWriter out;
  out.PutU32(static_cast<uint32_t>(frame.size()));
  out.PutRaw(frame.bytes());
  out.PutU32(Crc32c(frame.bytes()));
  return out.Take();
}

namespace {

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

}  // namespace

bool ReadJournal(std::string_view bytes, JournalContents* out) {
  *out = JournalContents{};
  ByteReader r(bytes);
  std::string_view magic;
  uint32_t version = 0;
  if (!r.ReadRaw(kJournalMagic.size(), &magic) || magic != kJournalMagic ||
      !r.ReadU32(&version) || version != kFormatVersion || !r.ReadU64(&out->epoch)) {
    return false;
  }
  size_t tail = 0;
  while (r.remaining() > 0) {
    tail = r.remaining();  // Bytes abandoned if this frame turns out torn.
    uint32_t len = 0;
    std::string_view frame;
    uint32_t crc = 0;
    if (!r.ReadU32(&len) || len > kMaxFrameBytes || len == 0 || !r.ReadRaw(len, &frame) ||
        !r.ReadU32(&crc) || crc != Crc32c(frame)) {
      // Torn or corrupt tail: the frame boundary can no longer be trusted,
      // so everything from the frame start onward is abandoned.
      out->bytes_dropped = tail;
      return true;
    }
    JournalRecord rec;
    if (DecodeJournalFrame(frame, &rec)) {
      out->records.push_back(std::move(rec));
    } else {
      // CRC-valid but undecodable (e.g. record type from a newer writer):
      // skip just this frame; the framing itself is still sound.
      ++out->records_dropped;
    }
  }
  return true;
}

}  // namespace robodet::persistence
