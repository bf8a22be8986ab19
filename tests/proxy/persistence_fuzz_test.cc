// Hostile-input hardening for the persistence load path. Snapshot and
// journal files are read back after crashes — exactly when their bytes are
// least trustworthy — so ReadSnapshot and JournalReader must survive random
// garbage, bit flips in valid files, and truncation at every offset
// without crashing, and everything they accept must respect the format's
// hard limits.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>

#include "src/proxy/persistence/format.h"
#include "src/proxy/persistence/state_store.h"
#include "src/util/binio.h"
#include "src/util/rng.h"

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
  SnapshotWriter writer(3, 1000, 2, 2);
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
  return writer.Finish();
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
  if (!reader->Open(bytes)) {
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
    ASSERT_TRUE(reader.Open(journal.bytes()));
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

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

// Oversized length prefixes must be rejected before allocation: a 4-byte
// claim of a 4 GiB section must not reserve 4 GiB.
TEST(PersistenceLimitsTest, HugeSectionLengthIsRejectedNotAllocated) {
  SnapshotWriter writer(1, 0, 1, 0);
  std::string bytes = writer.Finish();
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
