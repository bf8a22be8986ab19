// Parallel-driver determinism: Experiment with num_threads > 1 must produce
// bit-identical SessionRecords to the serial discrete-event loop — same
// session splits, same minted tokens, same signals, same Table-1 counts.
// This is the contract that lets every table/figure bench run on a thread
// pool without changing a single published number.
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/experiment.h"
#include "src/sim/record_io.h"

namespace robodet {
namespace {

ExperimentConfig BaseConfig(size_t threads) {
  ExperimentConfig config;
  config.seed = 11;
  config.num_clients = 150;
  config.arrival_window = kHour;
  config.site.num_pages = 40;
  config.mix.robot.max_requests = 60;
  config.mix.human_max_pages = 8;
  // Determinism across thread counts requires the cross-client paths to
  // stay quiet: faults off, admission off, capacity bounds far away (all
  // default here) — see ExperimentConfig::num_threads.
  config.num_threads = threads;
  return config;
}

std::string FileContents(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Serializes every field the record exporter knows about; two runs are
// "bit-identical" when these bytes match.
std::string Digest(const std::vector<SessionRecord>& records, const std::string& tag) {
  const std::string sessions = testing::TempDir() + "/det_" + tag + "_sessions.csv";
  const std::string events = testing::TempDir() + "/det_" + tag + "_events.csv";
  EXPECT_TRUE(WriteSessionsCsv(sessions, records));
  EXPECT_TRUE(WriteEventsCsv(events, records));
  return FileContents(sessions) + "\n--\n" + FileContents(events);
}

TEST(DeterminismTest, ParallelRecordsAreBitIdenticalToSerial) {
  Experiment serial(BaseConfig(1));
  serial.Run();
  ASSERT_FALSE(serial.records().empty());
  const std::string want = Digest(serial.records(), "serial");

  for (size_t threads : {size_t{2}, size_t{8}}) {
    Experiment parallel(BaseConfig(threads));
    parallel.Run();
    ASSERT_EQ(parallel.records().size(), serial.records().size())
        << "threads=" << threads;
    EXPECT_EQ(Digest(parallel.records(), std::string("t").append(std::to_string(threads))), want)
        << "threads=" << threads;
  }
}

TEST(DeterminismTest, ParallelTableOneCountsMatchSerial) {
  Experiment serial(BaseConfig(1));
  serial.Run();
  Experiment parallel(BaseConfig(8));
  parallel.Run();

  // Table-1 style accounting: clients/requests/blocked per client type.
  ASSERT_EQ(parallel.type_stats().size(), serial.type_stats().size());
  for (const auto& [type, stats] : serial.type_stats()) {
    const auto it = parallel.type_stats().find(type);
    ASSERT_NE(it, parallel.type_stats().end()) << type;
    EXPECT_EQ(it->second.clients, stats.clients) << type;
    EXPECT_EQ(it->second.requests, stats.requests) << type;
    EXPECT_EQ(it->second.blocked, stats.blocked) << type;
  }

  // The paper filters sessions with >10 requests before classification.
  EXPECT_EQ(parallel.RecordsWithMinRequests(10).size(),
            serial.RecordsWithMinRequests(10).size());

  const RegistrySnapshot parallel_counts = parallel.proxy().metrics().Scrape();
  const RegistrySnapshot serial_counts = serial.proxy().metrics().Scrape();
  for (const auto& [name, labels] : std::vector<std::pair<std::string, Labels>>{
           {"robodet_requests_total", {}},
           {"robodet_beacon_hits_total", {{"result", "ok"}}},
           {"robodet_pages_instrumented_total", {}}}) {
    EXPECT_EQ(parallel_counts.CounterValue(name, labels), serial_counts.CounterValue(name, labels))
        << name;
  }
}

TEST(DeterminismTest, ParallelRunIsRepeatable) {
  Experiment a(BaseConfig(4));
  a.Run();
  Experiment b(BaseConfig(4));
  b.Run();
  EXPECT_EQ(Digest(a.records(), "rep_a"), Digest(b.records(), "rep_b"));
}

}  // namespace
}  // namespace robodet
