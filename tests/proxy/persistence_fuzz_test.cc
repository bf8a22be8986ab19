// Hostile-input hardening for the persistence load path. The state file
// is read back after crashes — exactly when its bytes are least
// trustworthy — so JournalReader must survive random garbage, bit flips in
// valid files, and truncation at every offset without crashing, and
// everything it accepts must respect the format's hard limits. It reads a
// file one record at a time; read from files torn at every offset, and
// with frames larger than a stream's own buffer, it must decode exactly
// what a decode of the whole file held in memory does.
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

KeyEntryImage MakeKey(Rng& rng) {
  KeyEntryImage e;
  e.ip = static_cast<uint32_t>(rng.UniformU64(1u << 24));
  e.page_path = std::string("/p").append(std::to_string(rng.UniformU64(100))).append(".html");
  e.key = std::string("k").append(std::to_string(rng.UniformU64(1u << 30)));
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

std::string MakeValidJournal(Rng& rng) {
  ByteWriter w;
  persistence::EncodeJournalHeader(&w);
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

// Everything an accepting parse hands back must already be clamped.
void CheckRecordInvariants(const JournalRecord& rec) {
  EXPECT_LE(rec.key.page_path.size(), persistence::kMaxStringBytes);
  EXPECT_LE(rec.key.key.size(), persistence::kMaxStringBytes);
  const SessionImage& s = rec.update.delta;
  EXPECT_LE(s.user_agent.size(), persistence::kMaxStringBytes);
  EXPECT_LE(s.events.size(), persistence::kMaxEventsPerSession);
  EXPECT_LE(s.served_links.size(), persistence::kMaxUrlHashesPerSession);
  EXPECT_LE(s.served_embeds.size(), persistence::kMaxUrlHashesPerSession);
  EXPECT_LE(s.visited_urls.size(), persistence::kMaxUrlHashesPerSession);
  EXPECT_LE(s.instrumented_page_indices.size(), persistence::kMaxPageIndicesPerSession);
  EXPECT_GE(s.request_count, 0);
  for (const RequestEvent& e : s.events) {
    EXPECT_LE(static_cast<uint64_t>(e.kind), static_cast<uint64_t>(ResourceKind::kOther));
  }
}

// Walks a whole file, as recovery and inspection do, checking each record
// it accepts: the count of its intact records, or nullopt when its header
// is invalid.
std::optional<size_t> WalkJournal(std::string_view bytes, JournalReader* reader) {
  std::istringstream in{std::string(bytes)};
  if (!reader->Open(&in)) {
    return std::nullopt;
  }
  size_t records = 0;
  JournalRecord rec;
  while (reader->Next(&rec)) {
    CheckRecordInvariants(rec);
    ++records;
  }
  return records;
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
    JournalReader jrnl;
    (void)WalkJournal(bytes, &jrnl);
  }
}

// A valid header, so the walk reaches the random frames, or the magic
// alone.
TEST_P(PersistenceFuzzTest, RandomBytesWithValidMagicNeverCrash) {
  Rng rng(GetParam() ^ 0x3a61cULL);
  for (int round = 0; round < 48; ++round) {
    ByteWriter w;
    persistence::EncodeJournalHeader(&w);
    std::string bytes = w.Take();
    if (rng.Bernoulli(0.5)) {
      bytes.resize(persistence::kJournalMagic.size());
    }
    const size_t n = rng.UniformU64(2048);
    for (size_t i = 0; i < n; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    JournalReader jrnl;
    (void)WalkJournal(bytes, &jrnl);
  }
}

TEST_P(PersistenceFuzzTest, MutatedValidFilesNeverCrash) {
  Rng rng(GetParam() ^ 0xf1eaULL);
  const std::string journal = MakeValidJournal(rng);
  for (int round = 0; round < 48; ++round) {
    std::string jrnl_bytes = journal;
    const size_t flips = 1 + rng.UniformU64(8);
    for (size_t i = 0; i < flips; ++i) {
      jrnl_bytes[rng.UniformU64(jrnl_bytes.size())] = static_cast<char>(rng.UniformU64(256));
    }
    JournalReader jrnl;
    (void)WalkJournal(jrnl_bytes, &jrnl);
  }
}

TEST_P(PersistenceFuzzTest, EveryTruncationOffsetSurvives) {
  Rng rng(GetParam() ^ 0xc07ULL);
  const std::string journal = MakeValidJournal(rng);
  JournalReader whole;
  const std::optional<size_t> all = WalkJournal(journal, &whole);
  ASSERT_TRUE(all.has_value());
  for (size_t cut = 0; cut <= journal.size(); ++cut) {
    JournalReader jrnl;
    if (const std::optional<size_t> records =
            WalkJournal(std::string_view(journal).substr(0, cut), &jrnl)) {
      // A truncated file yields a valid prefix, never an over-read.
      EXPECT_LE(*records, *all);
      EXPECT_EQ(jrnl.records_dropped(), 0u);
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

// A session update, written from a live session at random marks, decodes
// and applies to the session's image cut at those marks to give its full
// image (a checkpoint's update from marks 0), and applying it again
// changes nothing. Marks
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
    ByteWriter compacted;
    persistence::EncodeSessionUpdate(fields, persistence::RunMarks{}, &compacted);
    // frame_len u32 | len_crc u32 | frame | crc u32
    const std::string_view framed = compacted.bytes();
    JournalRecord whole;
    ASSERT_TRUE(persistence::DecodeJournalFrame(framed.substr(8, framed.size() - 12), &whole));
    const SessionImage& full = whole.update.delta;

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
    persistence::EncodeJournalHeader(&journal);
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

struct JournalContents {
  std::vector<JournalRecord> records;
  size_t records_dropped = 0;
  size_t bytes_dropped = 0;
};

// The file in `bytes` decoded from memory in one pass over it, as format.h
// lays it out: a whole frame with a checked, in-bounds length that fails
// its CRC or does not decode is dropped alone; a length that fails its
// CRC or is out of bounds, or a short frame, ends the walk and drops the
// bytes from its start on.
bool DecodeWholeJournal(std::string_view bytes, JournalContents* out) {
  *out = JournalContents{};
  ByteReader r(bytes);
  std::string_view magic;
  uint32_t version = 0;
  if (!r.ReadRaw(persistence::kJournalMagic.size(), &magic) ||
      magic != persistence::kJournalMagic || !r.ReadU32(&version) ||
      version != persistence::kFormatVersion) {
    return false;
  }
  while (r.remaining() > 0) {
    const size_t tail = r.remaining();
    std::string_view len_bytes;
    uint32_t len = 0;
    uint32_t len_crc = 0;
    std::string_view frame;
    uint32_t crc = 0;
    if (!r.ReadRaw(4, &len_bytes) || !ByteReader(len_bytes).ReadU32(&len) ||
        !r.ReadU32(&len_crc) || len_crc != Crc32c(len_bytes) ||
        len > persistence::kMaxFrameBytes || len == 0 || !r.ReadRaw(len, &frame) ||
        !r.ReadU32(&crc)) {
      out->bytes_dropped = tail;
      break;
    }
    JournalRecord rec;
    if (crc == Crc32c(frame) && persistence::DecodeJournalFrame(frame, &rec)) {
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

void ExpectSameJournal(const JournalContents& got, const JournalContents& want) {
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

  // Writes `bytes` to the file and checks that the reader, streaming it
  // from the file, decodes what the whole-buffer decode of `bytes` does.
  void ExpectStreamedMatchesWhole(std::string_view bytes) {
    std::ofstream(path_, std::ios::binary | std::ios::trunc).write(
        bytes.data(), static_cast<std::streamsize>(bytes.size()));
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

// A small directory's file, torn at every offset.
TEST_F(StreamedFileTest, EveryTornFileDecodesAsTheWholeBuffer) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed ^ 0x7e4aULL);
    const std::string journal = MakeValidJournal(rng);
    for (size_t cut = 0; cut <= journal.size(); ++cut) {
      ExpectStreamedMatchesWhole(std::string_view(journal).substr(0, cut));
    }
  }
}

// Records far larger than a file stream's own buffer, some smaller and
// some larger than the one before, so the reader's one buffer regrows
// mid-file: a checkpoint's records of sessions with up to 24 KB of hashes
// each, then appended updates of up to 64 KB; then the same file with a
// byte of a large frame flipped, and torn inside its last frame.
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
  ByteWriter w;
  persistence::EncodeJournalHeader(&w);
  for (int i = 0; i < 3; ++i) {
    const KeyEntryImage k = MakeKey(rng);
    persistence::EncodeKeyIssued({k.ip, k.page_path, k.key, k.issued_at}, &w);
  }
  for (size_t hashes : {1024u, 8u, 1536u, 24u}) {
    persistence::EncodeSessionUpdate(FieldsOfLive(*big_session(1 + hashes, hashes)),
                                     persistence::RunMarks{}, &w);
  }
  for (size_t hashes : {16u, 2048u, 4u, 4096u, 1u, 3000u}) {
    const KeyEntryImage k = MakeKey(rng);
    persistence::EncodeKeyIssued({k.ip, k.page_path, k.key, k.issued_at}, &w);
    persistence::EncodeSessionUpdate(FieldsOfLive(*big_session(7, hashes)), persistence::RunMarks{},
                                     &w);
  }
  const std::string journal = w.Take();
  ASSERT_GT(journal.size(), 150'000u);
  ExpectStreamedMatchesWhole(journal);

  // One large frame's byte flipped: that record dropped.
  std::string bad_journal = journal;
  bad_journal[journal.size() / 2] ^= 0x5a;
  ExpectStreamedMatchesWhole(bad_journal);
  // Torn inside the last frame.
  ExpectStreamedMatchesWhole(std::string_view(journal).substr(0, journal.size() - 1000));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

// Oversized length prefixes must be rejected before allocation: a 4-byte
// claim of a 4 GiB frame must not reserve 4 GiB.
TEST(PersistenceLimitsTest, HugeFrameLengthIsRejectedNotAllocated) {
  ByteWriter evil;
  persistence::EncodeJournalHeader(&evil);
  evil.PutU32(0xffffffffu);  // frame length far past kMaxFrameBytes
  evil.PutU32(Crc32c(std::string_view("\xff\xff\xff\xff", 4)));  // its valid CRC
  evil.PutU32(0);
  const std::string bytes = evil.Take();
  JournalReader jrnl;
  const std::optional<size_t> records = WalkJournal(bytes, &jrnl);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ(*records, 0u);
  EXPECT_GT(jrnl.bytes_dropped(), 0u);
}

}  // namespace
}  // namespace robodet
