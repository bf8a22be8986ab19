#include "src/obs/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace robodet {
namespace {

TEST(MetricsRegistryTest, CounterStartsAtZeroAndCounts) {
  MetricsRegistry registry;
  Counter* c = registry.FindOrCreateCounter("requests_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 0u);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter("hits_total", {{"kind", "css"}});
  Counter* b = registry.FindOrCreateCounter("hits_total", {{"kind", "css"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistryTest, LabelOrderIsCanonicalized) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter("verdicts_total",
                                            {{"class", "robot"}, {"source", "beacon"}});
  Counter* b = registry.FindOrCreateCounter("verdicts_total",
                                            {{"source", "beacon"}, {"class", "robot"}});
  EXPECT_EQ(a, b);
  a->Inc();
  const RegistrySnapshot snapshot = registry.Scrape();
  // Lookup works with either label order too.
  EXPECT_EQ(snapshot.CounterValue("verdicts_total",
                                  {{"source", "beacon"}, {"class", "robot"}}),
            1u);
}

TEST(MetricsRegistryTest, DifferentLabelValuesAreDistinctSeries) {
  MetricsRegistry registry;
  Counter* css = registry.FindOrCreateCounter("probe_hits_total", {{"kind", "css"}});
  Counter* js = registry.FindOrCreateCounter("probe_hits_total", {{"kind", "js_file"}});
  ASSERT_NE(css, js);
  css->Inc(3);
  js->Inc(5);
  const RegistrySnapshot snapshot = registry.Scrape();
  EXPECT_EQ(snapshot.CounterValue("probe_hits_total", {{"kind", "css"}}), 3u);
  EXPECT_EQ(snapshot.CounterValue("probe_hits_total", {{"kind", "js_file"}}), 5u);
}

TEST(MetricsRegistryTest, KindMismatchReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.FindOrCreateCounter("thing"), nullptr);
  EXPECT_EQ(registry.FindOrCreateGauge("thing"), nullptr);
  EXPECT_EQ(registry.FindOrCreateHistogram("thing", {1.0, 2.0, 3.0, 4.0}), nullptr);
  // Histogram re-lookup must present identical bounds.
  ASSERT_NE(registry.FindOrCreateHistogram("lat_us", {1.0, 2.0, 3.0, 4.0}), nullptr);
  EXPECT_EQ(registry.FindOrCreateHistogram("lat_us", {2.0, 4.0, 6.0, 8.0}), nullptr);
  EXPECT_NE(registry.FindOrCreateHistogram("lat_us", {1.0, 2.0, 3.0, 4.0}), nullptr);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  MetricsRegistry registry;
  Gauge* g = registry.FindOrCreateGauge("sessions_active");
  ASSERT_NE(g, nullptr);
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->Value(), 7);
  const RegistrySnapshot snapshot = registry.Scrape();
  const MetricSnapshot* m = snapshot.Find("sessions_active");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  EXPECT_EQ(m->gauge, 7);
}

TEST(MetricsRegistryTest, HistogramBucketing) {
  MetricsRegistry registry;
  // Bounds 1, 2, 4, 8 plus the +Inf slot.
  HistogramMetric* h = registry.FindOrCreateHistogram("lat", ExponentialBuckets(1.0, 2.0, 4));
  ASSERT_NE(h, nullptr);
  h->Observe(0.5);   // <= 1
  h->Observe(1.0);   // <= 1 (bounds are inclusive upper edges)
  h->Observe(1.5);   // <= 2
  h->Observe(4.0);   // <= 4
  h->Observe(100.0); // +Inf
  const HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.bounds.size(), 4u);
  ASSERT_EQ(snap.counts.size(), 5u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 0u);
  EXPECT_EQ(snap.counts[4], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(MetricsRegistryTest, ShardMergeUnderConcurrentWriters) {
  MetricsRegistry registry;
  Counter* counter = registry.FindOrCreateCounter("concurrent_total");
  HistogramMetric* hist = registry.FindOrCreateHistogram(
      "concurrent_lat", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter, hist] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Inc();
        hist->Observe(static_cast<double>(i % 8));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist->Snapshot().count, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, ScrapeIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.FindOrCreateCounter("b_total")->Inc();
  registry.FindOrCreateCounter("a_total", {{"x", "2"}})->Inc();
  registry.FindOrCreateCounter("a_total", {{"x", "1"}})->Inc();
  const RegistrySnapshot snapshot = registry.Scrape();
  ASSERT_EQ(snapshot.metrics.size(), 3u);
  EXPECT_EQ(snapshot.metrics[0].name, "a_total");
  EXPECT_EQ(snapshot.metrics[0].labels[0].value, "1");
  EXPECT_EQ(snapshot.metrics[1].name, "a_total");
  EXPECT_EQ(snapshot.metrics[1].labels[0].value, "2");
  EXPECT_EQ(snapshot.metrics[2].name, "b_total");
}

TEST(MetricsRegistryTest, TwoRegistriesAreIndependent) {
  MetricsRegistry first;
  MetricsRegistry second;
  Counter* a = first.FindOrCreateCounter("x_total");
  Counter* b = second.FindOrCreateCounter("x_total");
  a->Inc(2);
  b->Inc(5);
  EXPECT_EQ(a->Value(), 2u);
  EXPECT_EQ(b->Value(), 5u);
}

}  // namespace
}  // namespace robodet
