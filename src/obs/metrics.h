// Metrics registry for the detection pipeline: named counters, gauges and
// fixed-bucket histograms, each addressable by a label set (e.g.
// probe_hits_total{kind=css}). The write path is lock-free: every thread
// owns a shard of plain relaxed-atomic cells it alone increments, and a
// scrape merges the shards. Creation (FindOrCreate*) takes a mutex and is
// meant to happen once at wiring time; callers keep the returned handle
// and hit only their own shard afterwards.
//
// Layering: obs sits directly above util — everything from core up may
// depend on it, so detectors, tables, the proxy and the sim gateway can
// all report into one registry.
#ifndef ROBODET_SRC_OBS_METRICS_H_
#define ROBODET_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace robodet {

// One label dimension. Label order is irrelevant: the registry
// canonicalizes by sorting on key, so {a=1,b=2} and {b=2,a=1} name the
// same time series.
struct Label {
  std::string key;
  std::string value;

  friend bool operator==(const Label& a, const Label& b) {
    return a.key == b.key && a.value == b.value;
  }
};

using Labels = std::vector<Label>;

enum class MetricKind {
  kCounter,
  kGauge,
  kHistogram,
};

std::string_view MetricKindName(MetricKind kind);

// Point-in-time view of one histogram: `bounds` are the inclusive upper
// edges of the finite buckets; `counts` has one extra slot for +Inf.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t count = 0;
  double sum = 0.0;
};

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;  // Canonical (key-sorted) order.
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot histogram;
};

// The merged view a scrape produces; metrics are sorted by name, then by
// canonical label serialization, so exports are deterministic.
struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;

  const MetricSnapshot* Find(std::string_view name, const Labels& labels = {}) const;
  // 0 when the counter does not exist (never minted = never incremented).
  uint64_t CounterValue(std::string_view name, const Labels& labels = {}) const;
};

class MetricsRegistry;

// Monotonic counter handle. Inc() is safe from any thread and lock-free
// (one relaxed fetch_add on a cell in the calling thread's shard).
class Counter {
 public:
  void Inc(uint64_t n = 1);
  // Merged value across all shards.
  uint64_t Value() const;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* registry, uint32_t cell) : registry_(registry), cell_(cell) {}

  MetricsRegistry* registry_;
  uint32_t cell_;
};

// Gauges are set-dominant (last write wins across threads), so they live
// in a single shared atomic rather than per-thread shards.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<int64_t> value_{0};
};

// Fixed-bucket histogram. Observe() is lock-free: bucket counts are shard
// cells; the running sum is a shared atomic<double> (relaxed fetch_add).
class HistogramMetric {
 public:
  void Observe(double x);
  HistogramSnapshot Snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  HistogramMetric(MetricsRegistry* registry, std::vector<double> bounds, uint32_t first_cell)
      : registry_(registry), bounds_(std::move(bounds)), first_cell_(first_cell) {}

  MetricsRegistry* registry_;
  std::vector<double> bounds_;  // Sorted ascending; cell i counts x <= bounds_[i].
  uint32_t first_cell_;         // bounds_.size() + 1 consecutive cells.
  std::atomic<double> sum_{0.0};
};

// Instrumentation points bind counters lazily (a component without a
// registry keeps working); this keeps the null checks out of the way.
inline void IncIfBound(Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) {
    counter->Inc(n);
  }
}

// Exponential edges: {start, start*factor, ..., start*factor^(n-1)}.
std::vector<double> ExponentialBuckets(double start, double factor, size_t n);

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Interns (name, labels) and returns a stable handle, creating the
  // metric on first use. Returns nullptr if the pair already exists with
  // a different kind (or, for histograms, different bucket bounds).
  Counter* FindOrCreateCounter(std::string_view name, const Labels& labels = {});
  Gauge* FindOrCreateGauge(std::string_view name, const Labels& labels = {});
  HistogramMetric* FindOrCreateHistogram(std::string_view name, std::vector<double> bounds,
                                         const Labels& labels = {});

  // Merges every thread's shard into a sorted snapshot.
  RegistrySnapshot Scrape() const;

 private:
  friend class Counter;
  friend class HistogramMetric;

  // Cells live in fixed-size blocks so a growing registry never moves a
  // cell another thread is writing.
  static constexpr size_t kCellsPerBlock = 256;
  static constexpr size_t kMaxBlocks = 1024;

  struct Shard {
    ~Shard();
    // Owner-thread only; allocates the enclosing block on first touch.
    std::atomic<uint64_t>& Cell(uint32_t id);
    // Any thread; 0 when the block was never allocated.
    uint64_t Peek(uint32_t id) const;

    std::atomic<std::atomic<uint64_t>*> blocks[kMaxBlocks] = {};
  };

  struct Entry {
    std::string name;
    MetricKind kind;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Shard& LocalShard();
  void AddToCell(uint32_t cell, uint64_t n);
  uint64_t CellValue(uint32_t cell) const;
  uint32_t AllocateCells(uint32_t n);  // Caller holds mu_.

  const uint64_t registry_id_;  // Globally unique; keys the thread-local shard cache.
  mutable std::mutex mu_;
  uint32_t next_cell_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, Entry> entries_;  // Keyed by canonical name+labels.
};

}  // namespace robodet

#endif  // ROBODET_SRC_OBS_METRICS_H_
