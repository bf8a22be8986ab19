// Hostile-input hardening for the persistence load path. Snapshot and
// journal files are read back after crashes — exactly when their bytes are
// least trustworthy — so SnapshotReader and JournalReader must survive
// random garbage, bit flips in valid files, and truncation at every offset
// without crashing, and everything they accept must respect the format's
// hard limits. Both read a file one section or record at a time; read
// from files torn at every offset, and with frames larger than a stream's
// own buffer, they must decode exactly what a decode of the whole file
// held in memory does.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <tuple>

#include <unistd.h>

#include "src/proxy/persistence/format.h"
#include "src/proxy/persistence/state_store.h"
#include "src/util/binio.h"
#include "src/util/checksum.h"
#include "src/util/rng.h"
#include "tests/proxy/persistence_test_util.h"

namespace robodet {
namespace {

using persistence::JournalReader;
using persistence::JournalRecord;
using persistence::KeyEntryImage;
using persistence::SessionImage;
using persistence::SnapshotContents;
using persistence::SnapshotWriter;

KeyEntryImage MakeKey(Rng& rng) {
  KeyEntryImage e;
  e.ip = static_cast<uint32_t>(rng.UniformU64(1u << 24));
  e.page_path = "/p" + std::to_string(rng.UniformU64(100)) + ".html";
  e.key = "k" + std::to_string(rng.UniformU64(1u << 30));
  e.issued_at = static_cast<TimeMs>(rng.UniformU64(1u << 30));
  return e;
}

std::unique_ptr<SessionState> MakeSession(Rng& rng, uint64_t id) {
  const IpAddress ip(static_cast<uint32_t>(rng.UniformU64(1u << 24)));
  const SharedUserAgent agent("agent/" + std::to_string(rng.UniformU64(50)));
  const auto first_request = static_cast<TimeMs>(rng.UniformU64(1u << 20));
  auto s = std::make_unique<SessionState>(id, ip, agent, first_request);
  const TimeMs last_request = first_request + static_cast<TimeMs>(rng.UniformU64(1u << 20));
  s->signals().css_probe_at = static_cast<int>(rng.UniformU64(20));
  s->signals().mouse_event_at = static_cast<int>(rng.UniformU64(20));
  s->signals().ua_echo_agent = "echo-" + std::to_string(rng.UniformU64(10));
  const auto request_count = static_cast<int32_t>(rng.UniformU64(500));
  const auto instrumented_pages = static_cast<int32_t>(rng.UniformU64(30));
  s->RestoreScalars(last_request, request_count, instrumented_pages, false, 0, 0, 0);
  std::vector<RequestEvent> events(rng.UniformU64(6));
  for (RequestEvent& e : events) {
    e.kind = static_cast<ResourceKind>(
        rng.UniformU64(static_cast<uint64_t>(ResourceKind::kOther) + 1));
    e.status_class = static_cast<uint8_t>(2 + rng.UniformU64(4));
    e.is_embedded = rng.Bernoulli(0.3);
  }
  s->RestoreEvents(events);
  const size_t hashes = rng.UniformU64(8);
  for (size_t i = 0; i < hashes; ++i) {
    s->served_links().InsertHash(rng.UniformU64(UINT64_MAX));
    s->visited_urls().InsertHash(rng.UniformU64(UINT64_MAX));
  }
  return s;
}

std::string MakeValidSnapshot(Rng& rng) {
  std::ostringstream out;
  SnapshotWriter writer(&out, 3, 1000, 2, 2);
  for (int section = 0; section < 2; ++section) {
    ByteWriter* payload = writer.BeginSection();
    const size_t n = 1 + rng.UniformU64(4);
    payload->PutU32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      const KeyEntryImage k = MakeKey(rng);
      persistence::EncodeKeyEntry({k.ip, k.page_path, k.key, k.issued_at}, payload);
    }
    writer.EndSection();
  }
  for (int section = 0; section < 2; ++section) {
    ByteWriter* payload = writer.BeginSection();
    const size_t n = 1 + rng.UniformU64(3);
    payload->PutU32(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      EncodeSession(FieldsOfLive(*MakeSession(rng, 100 + rng.UniformU64(1000))), payload);
    }
    writer.EndSection();
  }
  return out.str();
}

std::string MakeValidJournal(Rng& rng) {
  ByteWriter w;
  w.PutRaw(persistence::EncodeJournalHeader(3));
  const size_t n = 2 + rng.UniformU64(10);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformU64(4)) {
      case 0: {
        const KeyEntryImage k = MakeKey(rng);
        persistence::EncodeKeyIssued({k.ip, k.page_path, k.key, k.issued_at}, &w);
        break;
      }
      case 1: {
        const KeyEntryImage k = MakeKey(rng);
        persistence::EncodeKeyConsumed(k.ip, k.key, &w);
        break;
      }
      case 2: {
        const std::unique_ptr<SessionState> s = MakeSession(rng, 100 + i);
        const persistence::RunMarks marks{.events = static_cast<uint32_t>(rng.UniformU64(4))};
        persistence::EncodeSessionUpdate(FieldsOfLive(*s), marks, &w);
        break;
      }
      default:
        persistence::EncodeSessionClosed(100 + rng.UniformU64(100), &w);
        break;
    }
  }
  return w.Take();
}

// Walks a whole journal, as recovery and inspection do: the count of its
// intact records, or nullopt when its header is invalid.
std::optional<size_t> WalkJournal(std::string_view bytes, JournalReader* reader) {
  std::istringstream in{std::string(bytes)};
  if (!reader->Open(&in)) {
    return std::nullopt;
  }
  size_t records = 0;
  JournalRecord rec;
  while (reader->Next(&rec)) {
    ++records;
  }
  return records;
}

// Everything an accepting parse hands back must already be clamped.
void CheckSnapshotInvariants(const SnapshotContents& snap) {
  EXPECT_LE(snap.keys.size(),
            persistence::kMaxSections * persistence::kMaxEntriesPerSection);
  for (const KeyEntryImage& k : snap.keys) {
    EXPECT_LE(k.page_path.size(), persistence::kMaxStringBytes);
    EXPECT_LE(k.key.size(), persistence::kMaxStringBytes);
  }
  for (const SessionImage& s : snap.sessions) {
    EXPECT_LE(s.user_agent.size(), persistence::kMaxStringBytes);
    EXPECT_LE(s.events.size(), persistence::kMaxEventsPerSession);
    EXPECT_LE(s.served_links.size(), persistence::kMaxUrlHashesPerSession);
    EXPECT_LE(s.served_embeds.size(), persistence::kMaxUrlHashesPerSession);
    EXPECT_LE(s.visited_urls.size(), persistence::kMaxUrlHashesPerSession);
    EXPECT_LE(s.instrumented_page_indices.size(), persistence::kMaxPageIndicesPerSession);
    EXPECT_GE(s.request_count, 0);
    for (const RequestEvent& e : s.events) {
      EXPECT_LE(static_cast<uint64_t>(e.kind),
                static_cast<uint64_t>(ResourceKind::kOther));
    }
  }
}

class PersistenceFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PersistenceFuzzTest, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int round = 0; round < 48; ++round) {
    std::string bytes;
    const size_t n = rng.UniformU64(4096);
    bytes.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    SnapshotContents snap;
    if (ReadSnapshot(bytes, &snap)) {
      CheckSnapshotInvariants(snap);
    }
    JournalReader jrnl;
    (void)WalkJournal(bytes, &jrnl);
  }
}

TEST_P(PersistenceFuzzTest, RandomBytesWithValidMagicNeverCrash) {
  Rng rng(GetParam() ^ 0x3a61cULL);
  for (int round = 0; round < 48; ++round) {
    std::string bytes(rng.Bernoulli(0.5) ? persistence::kSnapshotMagic
                                         : persistence::kJournalMagic);
    const size_t n = rng.UniformU64(2048);
    for (size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    SnapshotContents snap;
    if (ReadSnapshot(bytes, &snap)) {
      CheckSnapshotInvariants(snap);
    }
    JournalReader jrnl;
    (void)WalkJournal(bytes, &jrnl);
  }
}

TEST_P(PersistenceFuzzTest, MutatedValidFilesNeverCrash) {
  Rng rng(GetParam() ^ 0xf1eaULL);
  const std::string snapshot = MakeValidSnapshot(rng);
  const std::string journal = MakeValidJournal(rng);
  for (int round = 0; round < 48; ++round) {
    std::string snap_bytes = snapshot;
    std::string jrnl_bytes = journal;
    const size_t flips = 1 + rng.UniformU64(8);
    for (size_t i = 0; i < flips; ++i) {
      snap_bytes[rng.UniformU64(snap_bytes.size())] = static_cast<char>(rng.UniformU64(256));
      jrnl_bytes[rng.UniformU64(jrnl_bytes.size())] = static_cast<char>(rng.UniformU64(256));
    }
    SnapshotContents snap;
    if (ReadSnapshot(snap_bytes, &snap)) {
      CheckSnapshotInvariants(snap);
    }
    JournalReader jrnl;
    (void)WalkJournal(jrnl_bytes, &jrnl);
  }
}

TEST_P(PersistenceFuzzTest, EveryTruncationOffsetSurvives) {
  Rng rng(GetParam() ^ 0xc07ULL);
  const std::string snapshot = MakeValidSnapshot(rng);
  const std::string journal = MakeValidJournal(rng);
  for (size_t cut = 0; cut <= snapshot.size(); ++cut) {
    SnapshotContents snap;
    if (ReadSnapshot(std::string_view(snapshot).substr(0, cut), &snap)) {
      CheckSnapshotInvariants(snap);
    }
  }
  for (size_t cut = 0; cut <= journal.size(); ++cut) {
    JournalReader jrnl;
    if (WalkJournal(std::string_view(journal).substr(0, cut), &jrnl)) {
      // A truncated journal yields a valid prefix, never an over-read.
      EXPECT_EQ(jrnl.epoch(), 3u);
    }
  }
}

void ExpectSameImage(const SessionImage& got, const SessionImage& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.ip, want.ip);
  EXPECT_EQ(got.user_agent, want.user_agent);
  EXPECT_EQ(got.first_request, want.first_request);
  EXPECT_EQ(got.last_request, want.last_request);
  for (const SignalIndex& index : kSignalIndices) {
    EXPECT_EQ(got.signals.*index.field, want.signals.*index.field) << index.name;
  }
  EXPECT_EQ(got.signals.ua_echo_agent, want.signals.ua_echo_agent);
  EXPECT_EQ(got.request_count, want.request_count);
  EXPECT_EQ(got.instrumented_pages, want.instrumented_pages);
  EXPECT_EQ(got.blocked, want.blocked);
  EXPECT_EQ(got.cgi_requests, want.cgi_requests);
  EXPECT_EQ(got.get_requests, want.get_requests);
  EXPECT_EQ(got.error_responses, want.error_responses);
  EXPECT_EQ(got.instrumented_page_indices, want.instrumented_page_indices);
  auto packed = [](const std::vector<RequestEvent>& events) {
    std::vector<std::tuple<ResourceKind, uint8_t, bool, bool>> out;
    for (const RequestEvent& e : events) {
      out.emplace_back(e.kind, e.status_class, e.is_embedded, e.is_link_follow);
    }
    return out;
  };
  EXPECT_EQ(packed(got.events), packed(want.events));
  EXPECT_EQ(got.served_links, want.served_links);
  EXPECT_EQ(got.served_embeds, want.served_embeds);
  EXPECT_EQ(got.visited_urls, want.visited_urls);
}

// A journaled session update, written from a live session at random
// marks, decodes and applies to the session's image cut at those marks
// to give its full image, and applying it again changes nothing. Marks
// are drawn up to two past each run's end: a mark at or past the end
// writes an empty suffix, which leaves the uncut run as it is.
TEST_P(PersistenceFuzzTest, SessionUpdateRoundTrip) {
  Rng rng(GetParam() ^ 0x5e55ULL);
  for (int round = 0; round < 32; ++round) {
    const std::unique_ptr<SessionState> live = MakeSession(rng, 1 + round);
    for (uint64_t i = rng.UniformU64(6); i > 0; --i) {
      live->mutable_instrumented_page_indices().push_back(static_cast<int>(rng.UniformU64(99)));
      live->served_embeds().InsertHash(rng.UniformU64(UINT64_MAX));
    }
    live->set_blocked(rng.Bernoulli(0.5));
    const persistence::SessionFields fields = FieldsOfLive(*live);
    ByteWriter snapshot_entry;
    persistence::EncodeSession(fields, &snapshot_entry);
    ByteReader entry_reader(snapshot_entry.bytes());
    SessionImage full;
    ASSERT_TRUE(persistence::DecodeSession(&entry_reader, &full));

    const persistence::RunMarks lengths = persistence::RunLengths(fields);
    auto draw = [&rng](uint32_t length) { return static_cast<uint32_t>(rng.UniformU64(length + 3)); };
    const persistence::RunMarks marks{draw(lengths.page_indices), draw(lengths.events),
                                      draw(lengths.links), draw(lengths.embeds),
                                      draw(lengths.visited)};
    SessionImage cut;  // Its scalars are all stale.
    auto cut_run = [](const auto& run, uint32_t mark, auto* out) {
      out->assign(run.begin(), run.begin() + std::min<size_t>(mark, run.size()));
    };
    cut_run(full.instrumented_page_indices, marks.page_indices, &cut.instrumented_page_indices);
    cut_run(full.events, marks.events, &cut.events);
    cut_run(full.served_links, marks.links, &cut.served_links);
    cut_run(full.served_embeds, marks.embeds, &cut.served_embeds);
    cut_run(full.visited_urls, marks.visited, &cut.visited_urls);

    ByteWriter journal;
    journal.PutRaw(persistence::EncodeJournalHeader(1));
    persistence::EncodeSessionUpdate(fields, marks, &journal);
    JournalReader reader;
    std::istringstream journal_in(journal.bytes());
    ASSERT_TRUE(reader.Open(&journal_in));
    JournalRecord rec;
    ASSERT_TRUE(reader.Next(&rec));
    ASSERT_EQ(rec.type, persistence::JournalRecordType::kSessionUpdate);
    EXPECT_FALSE(reader.Next(&rec));
    EXPECT_EQ(reader.records_dropped() + reader.bytes_dropped(), 0u);

    persistence::ApplySessionUpdate(rec.update, &cut);
    ExpectSameImage(cut, full);
    persistence::ApplySessionUpdate(rec.update, &cut);
    ExpectSameImage(cut, full);
  }
}

// --- Whole-buffer reference decode -----------------------------------

// Decodes a section payload whole into `out`; false (leaving `out` as it
// was) when it does not decode whole.
template <typename Image>
bool DecodeWholeSection(std::string_view payload, bool (*decode)(ByteReader*, Image*),
                        std::vector<Image>* out) {
  ByteReader r(payload);
  uint32_t n = 0;
  if (!r.ReadU32(&n) || n > persistence::kMaxEntriesPerSection) {
    return false;
  }
  std::vector<Image> got;
  for (uint32_t i = 0; i < n; ++i) {
    Image img;
    if (!decode(&r, &img)) {
      return false;
    }
    got.push_back(std::move(img));
  }
  if (r.remaining() != 0) {
    return false;
  }
  out->insert(out->end(), got.begin(), got.end());
  return true;
}

// The snapshot in `bytes` decoded from memory in one pass over it, as
// format.h lays it out.
bool DecodeWholeSnapshot(std::string_view bytes, SnapshotContents* out) {
  *out = SnapshotContents{};
  ByteReader r(bytes);
  std::string_view magic;
  uint32_t version = 0;
  uint32_t key_sections = 0;
  uint32_t session_sections = 0;
  if (!r.ReadRaw(persistence::kSnapshotMagic.size(), &magic) ||
      magic != persistence::kSnapshotMagic || !r.ReadU32(&version) ||
      version != persistence::kFormatVersion || !r.ReadU64(&out->epoch) ||
      !r.ReadI64(&out->created_at) || !r.ReadU32(&key_sections) ||
      !r.ReadU32(&session_sections) || key_sections > persistence::kMaxSections ||
      session_sections > persistence::kMaxSections) {
    return false;
  }
  const size_t total = static_cast<size_t>(key_sections) + session_sections;
  out->sections_total = total;
  for (size_t i = 0; i < total; ++i) {
    uint32_t len = 0;
    std::string_view payload;
    uint32_t crc = 0;
    if (!r.ReadU32(&len) || len > persistence::kMaxSectionBytes || !r.ReadRaw(len, &payload) ||
        !r.ReadU32(&crc)) {
      out->sections_dropped += total - i;
      return true;
    }
    const bool good =
        crc == Crc32c(payload) &&
        (i < key_sections
             ? DecodeWholeSection(payload, persistence::DecodeKeyEntry, &out->keys)
             : DecodeWholeSection(payload, persistence::DecodeSession, &out->sessions));
    if (!good) {
      ++out->sections_dropped;
    }
  }
  return true;
}

struct JournalContents {
  uint64_t epoch = 0;
  std::vector<JournalRecord> records;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;
};

// The journal in `bytes` decoded from memory in one pass over it.
bool DecodeWholeJournal(std::string_view bytes, JournalContents* out) {
  *out = JournalContents{};
  ByteReader r(bytes);
  std::string_view magic;
  uint32_t version = 0;
  if (!r.ReadRaw(persistence::kJournalMagic.size(), &magic) ||
      magic != persistence::kJournalMagic || !r.ReadU32(&version) ||
      version != persistence::kFormatVersion || !r.ReadU64(&out->epoch)) {
    return false;
  }
  while (r.remaining() > 0) {
    const size_t tail = r.remaining();
    uint32_t len = 0;
    std::string_view frame;
    uint32_t crc = 0;
    if (!r.ReadU32(&len) || len > persistence::kMaxFrameBytes || len == 0 ||
        !r.ReadRaw(len, &frame) || !r.ReadU32(&crc) || crc != Crc32c(frame)) {
      out->bytes_dropped = tail;
      break;
    }
    JournalRecord rec;
    if (persistence::DecodeJournalFrame(frame, &rec)) {
      out->records.push_back(std::move(rec));
    } else {
      ++out->records_dropped;
    }
  }
  return true;
}

// The same journal through JournalReader, from `in`.
bool StreamJournal(std::istream* in, JournalContents* out) {
  *out = JournalContents{};
  JournalReader reader;
  if (!reader.Open(in)) {
    return false;
  }
  out->epoch = reader.epoch();
  JournalRecord rec;
  while (reader.Next(&rec)) {
    out->records.push_back(rec);
  }
  out->records_dropped = reader.records_dropped();
  out->bytes_dropped = reader.bytes_dropped();
  return true;
}

void ExpectSameKey(const KeyEntryImage& got, const KeyEntryImage& want) {
  EXPECT_EQ(got.ip, want.ip);
  EXPECT_EQ(got.page_path, want.page_path);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.issued_at, want.issued_at);
}

void ExpectSameSnapshot(const SnapshotContents& got, const SnapshotContents& want) {
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.created_at, want.created_at);
  EXPECT_EQ(got.sections_total, want.sections_total);
  EXPECT_EQ(got.sections_dropped, want.sections_dropped);
  ASSERT_EQ(got.keys.size(), want.keys.size());
  for (size_t i = 0; i < got.keys.size(); ++i) {
    ExpectSameKey(got.keys[i], want.keys[i]);
  }
  ASSERT_EQ(got.sessions.size(), want.sessions.size());
  for (size_t i = 0; i < got.sessions.size(); ++i) {
    ExpectSameImage(got.sessions[i], want.sessions[i]);
  }
}

void ExpectSameJournal(const JournalContents& got, const JournalContents& want) {
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.records_dropped, want.records_dropped);
  EXPECT_EQ(got.bytes_dropped, want.bytes_dropped);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (size_t i = 0; i < got.records.size(); ++i) {
    const JournalRecord& g = got.records[i];
    const JournalRecord& w = want.records[i];
    ASSERT_EQ(g.type, w.type);
    switch (g.type) {
      case persistence::JournalRecordType::kKeyIssued:
        ExpectSameKey(g.key, w.key);
        break;
      case persistence::JournalRecordType::kKeyConsumed:
        EXPECT_EQ(g.key.ip, w.key.ip);
        EXPECT_EQ(g.key.key, w.key.key);
        break;
      case persistence::JournalRecordType::kSessionUpdate:
        ExpectSameImage(g.update.delta, w.update.delta);
        EXPECT_EQ(std::tie(g.update.before.page_indices, g.update.before.events,
                           g.update.before.links, g.update.before.embeds,
                           g.update.before.visited),
                  std::tie(w.update.before.page_indices, w.update.before.events,
                           w.update.before.links, w.update.before.embeds,
                           w.update.before.visited));
        break;
      case persistence::JournalRecordType::kSessionClosed:
        EXPECT_EQ(g.session_id, w.session_id);
        break;
    }
  }
}

// Reads files from disk through std::ifstream, the way recovery and
// inspection do.
class StreamedFileTest : public ::testing::Test {
 protected:
  StreamedFileTest()
      : path_(std::filesystem::temp_directory_path() /
              ("robodet_streamed_" + std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()->current_test_info()->name())) {}
  ~StreamedFileTest() override { std::filesystem::remove(path_); }

  // Writes `bytes` to the file and checks that both readers, streaming it
  // from the file, decode what the whole-buffer decode of `bytes` does.
  void ExpectStreamedMatchesWhole(std::string_view bytes) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc).write(
        bytes.data(), static_cast<std::streamsize>(bytes.size()));
    SnapshotContents whole;
    const bool whole_ok = DecodeWholeSnapshot(bytes, &whole);
    {
      std::ifstream in(path_, std::ios::binary);
      SnapshotContents streamed;
      ASSERT_EQ(ReadSnapshot(&in, &streamed), whole_ok);
      if (whole_ok) {
        ExpectSameSnapshot(streamed, whole);
      }
    }
    JournalContents whole_journal;
    const bool whole_journal_ok = DecodeWholeJournal(bytes, &whole_journal);
    std::ifstream in(path_, std::ios::binary);
    JournalContents streamed_journal;
    ASSERT_EQ(StreamJournal(&in, &streamed_journal), whole_journal_ok);
    if (whole_journal_ok) {
      ExpectSameJournal(streamed_journal, whole_journal);
    }
  }

  std::filesystem::path path_;
};

// A small directory's two files, torn at every offset.
TEST_F(StreamedFileTest, EveryTornFileDecodesAsTheWholeBuffer) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed ^ 0x7e4aULL);
    const std::string snapshot = MakeValidSnapshot(rng);
    const std::string journal = MakeValidJournal(rng);
    for (size_t cut = 0; cut <= snapshot.size(); ++cut) {
      ExpectStreamedMatchesWhole(std::string_view(snapshot).substr(0, cut));
    }
    for (size_t cut = 0; cut <= journal.size(); ++cut) {
      ExpectStreamedMatchesWhole(std::string_view(journal).substr(0, cut));
    }
  }
}

// Sections and records far larger than a file stream's own buffer, some
// smaller and some larger than the one before, so the readers' one buffer
// regrows mid-file; then the same files with a byte of a large frame
// flipped, and torn inside their last frame.
TEST_F(StreamedFileTest, FramesLargerThanTheReadBuffer) {
  Rng rng(41);
  auto big_session = [&rng](uint64_t id, size_t hashes) {
    std::unique_ptr<SessionState> s = MakeSession(rng, id);
    std::vector<uint64_t> links;
    std::vector<uint64_t> visited;
    for (size_t i = 0; i < hashes; ++i) {
      links.push_back(rng.UniformU64(UINT64_MAX));
      visited.push_back(rng.UniformU64(UINT64_MAX));
    }
    s->served_links().Restore(links);
    s->visited_urls().Restore(visited);
    return s;
  };
  std::ostringstream out;
  SnapshotWriter writer(&out, 5, 2000, 1, 4);
  {
    ByteWriter* payload = writer.BeginSection();
    payload->PutU32(3);
    for (int i = 0; i < 3; ++i) {
      const KeyEntryImage k = MakeKey(rng);
      persistence::EncodeKeyEntry({k.ip, k.page_path, k.key, k.issued_at}, payload);
    }
    writer.EndSection();
  }
  for (size_t sessions : {1u, 8u, 2u, 24u}) {
    ByteWriter* payload = writer.BeginSection();
    payload->PutU32(static_cast<uint32_t>(sessions));
    for (size_t i = 0; i < sessions; ++i) {
      EncodeSession(FieldsOfLive(*big_session(1 + i, 1024)), payload);
    }
    writer.EndSection();
  }
  const std::string snapshot = out.str();
  ASSERT_GT(snapshot.size(), 500'000u);
  ExpectStreamedMatchesWhole(snapshot);

  ByteWriter w;
  w.PutRaw(persistence::EncodeJournalHeader(5));
  for (size_t hashes : {16u, 2048u, 4u, 4096u, 1u, 3000u}) {
    const KeyEntryImage k = MakeKey(rng);
    persistence::EncodeKeyIssued({k.ip, k.page_path, k.key, k.issued_at}, &w);
    persistence::EncodeSessionUpdate(FieldsOfLive(*big_session(7, hashes)), persistence::RunMarks{},
                                     &w);
  }
  const std::string journal = w.Take();
  ExpectStreamedMatchesWhole(journal);

  // One large frame's bytes flipped: a dropped section, and a journal cut
  // short at that record.
  std::string bad_snapshot = snapshot;
  bad_snapshot[snapshot.size() / 2] ^= 0x5a;
  ExpectStreamedMatchesWhole(bad_snapshot);
  std::string bad_journal = journal;
  bad_journal[journal.size() / 2] ^= 0x5a;
  ExpectStreamedMatchesWhole(bad_journal);
  // Torn inside the last frame.
  ExpectStreamedMatchesWhole(std::string_view(snapshot).substr(0, snapshot.size() - 1000));
  ExpectStreamedMatchesWhole(std::string_view(journal).substr(0, journal.size() - 1000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

// Oversized length prefixes must be rejected before allocation: a 4-byte
// claim of a 4 GiB section must not reserve 4 GiB.
TEST(PersistenceLimitsTest, HugeSectionLengthIsRejectedNotAllocated) {
  std::ostringstream out;
  SnapshotWriter writer(&out, 1, 0, 1, 0);
  std::string bytes = out.str();
  ByteWriter evil;
  evil.PutU32(0xffffffffu);  // section length far past kMaxSectionBytes
  bytes += evil.Take();
  SnapshotContents snap;
  if (ReadSnapshot(bytes, &snap)) {
    EXPECT_TRUE(snap.keys.empty());
    EXPECT_GE(snap.sections_dropped + snap.sections_total, 0u);
  }
}

TEST(PersistenceLimitsTest, HugeFrameLengthIsRejectedNotAllocated) {
  std::string bytes = persistence::EncodeJournalHeader(1);
  ByteWriter evil;
  evil.PutU32(0xffffffffu);  // frame length far past kMaxFrameBytes
  bytes += evil.Take();
  JournalReader jrnl;
  const std::optional<size_t> records = WalkJournal(bytes, &jrnl);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(*records, 0u);
  EXPECT_GT(jrnl.bytes_dropped(), 0u);
}

}  // namespace
}  // namespace robodet
