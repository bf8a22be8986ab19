// Whole-simulation pins: a digest of every SessionRecord field of two
// seeded serial runs. A behaviour change anywhere on the path (population
// draws, browsing models, the proxy's probes and policy, the resilience
// ladder, crash recovery) shows up here as a failed test rather than as a
// moved Table-1 number. The values were recorded once and must not change
// unless the simulated behaviour is meant to.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/signals.h"
#include "src/sim/experiment.h"

namespace robodet {
namespace {

// FNV-1a over fixed-width fields; strings carry their length first.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (const char c : s) {
      Byte(static_cast<uint8_t>(c));
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t RecordsDigest(const std::vector<SessionRecord>& records) {
  Digest d;
  d.Add(static_cast<uint64_t>(records.size()));
  for (const SessionRecord& r : records) {
    d.Add(r.session_id);
    d.Add(r.client_type);
    d.Add(static_cast<uint64_t>(r.truly_human));
    d.Add(static_cast<uint64_t>(r.first_request));
    d.Add(static_cast<uint64_t>(r.last_request));
    const SessionObservation& obs = r.observation;
    d.Add(static_cast<uint64_t>(obs.request_count));
    d.Add(static_cast<uint64_t>(obs.instrumented_pages));
    d.Add(static_cast<uint64_t>(obs.instrumented_page_indices.size()));
    for (const int index : obs.instrumented_page_indices) {
      d.Add(static_cast<uint64_t>(index));
    }
    for (const SignalIndex& signal : kSignalIndices) {
      d.Add(static_cast<uint64_t>(obs.signals.*signal.field));
    }
    d.Add(obs.signals.ua_echo_agent);
    d.Add(static_cast<uint64_t>(r.events.size()));
    for (const RequestEvent& e : r.events) {
      d.Add(static_cast<uint64_t>(e.kind));
      d.Add(e.status_class);
      d.Add(static_cast<uint64_t>(e.is_head) | static_cast<uint64_t>(e.has_referrer) << 1 |
            static_cast<uint64_t>(e.unseen_referrer) << 2 |
            static_cast<uint64_t>(e.is_embedded) << 3 |
            static_cast<uint64_t>(e.is_link_follow) << 4 |
            static_cast<uint64_t>(e.is_favicon) << 5);
    }
  }
  return d.value();
}

// CAPTCHA offered with the benches' uptake, §3.2 policy enforced.
TEST(SimulationDigestTest, CaptchaAndPolicyRun) {
  ExperimentConfig config;
  config.seed = 25;
  config.num_clients = 300;
  config.arrival_window = 2 * kHour;
  config.site.num_pages = 60;
  config.proxy.enable_captcha = true;
  config.proxy.enable_policy = true;
  config.mix.human_captcha_attempt_prob = 0.38;
  Experiment experiment(config);
  experiment.Run();
  ASSERT_GE(experiment.records().size(), 300u);
  const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
  ASSERT_GT(snapshot.CounterValue("robodet_captcha_total", {{"result", "pass"}}), 0u);
  ASSERT_GT(snapshot.CounterValue("robodet_policy_blocked_requests_total"), 0u);
  EXPECT_EQ(RecordsDigest(experiment.records()), 0x328414683e2719ffULL);
}

// Origin faults, proxy crashes and recovery from a state directory.
TEST(SimulationDigestTest, FaultsCrashesAndStateDirRun) {
  const std::string dir = testing::TempDir() + "/simulation_digest_state";
  std::filesystem::remove_all(dir);
  ExperimentConfig config;
  config.seed = 26;
  config.num_clients = 300;
  config.arrival_window = 2 * kHour;
  config.site.num_pages = 60;
  config.proxy.enable_policy = true;
  config.proxy.resilience.max_body_bytes = 128 * 1024;
  config.proxy.persistence.state_dir = dir;
  config.proxy.persistence.snapshot_interval_records = 1024;
  config.faults.error_rate = 0.1;
  config.faults.slow_rate = 0.1;
  config.faults.corrupt_rate = 0.05;
  config.faults.oversize_bytes = 256 * 1024;
  config.faults.seed = 2525;
  config.crashes.crash_rate_per_hour = 3.0;
  config.crashes.seed = 2626;
  Experiment experiment(config);
  experiment.Run();
  ASSERT_GT(experiment.crashes_applied(), 0u);
  ASSERT_GE(experiment.records().size(), 300u);
  const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
  ASSERT_GT(snapshot.CounterValue("robodet_recovery_sessions_restored_total"), 0u);
  ASSERT_GT(snapshot.CounterValue("robodet_degraded_total", {{"level", "pass_through"}}), 0u);
  ASSERT_GT(snapshot.CounterValue("robodet_degraded_total", {{"level", "beacon_only"}}), 0u);
  EXPECT_EQ(RecordsDigest(experiment.records()), 0x599ae6f68fe893ccULL);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace robodet
