#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace robodet {
namespace {

std::atomic<uint64_t> g_next_registry_id{1};

// Canonical map key: name \x1f key \x1e value \x1e key \x1e value...
// (control separators cannot appear in sane metric or label names).
std::string CanonicalKey(std::string_view name, const Labels& labels) {
  std::string key(name);
  key.push_back('\x1f');
  for (const Label& label : labels) {
    key += label.key;
    key.push_back('\x1e');
    key += label.value;
    key.push_back('\x1e');
  }
  return key;
}

Labels Canonicalize(Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  return labels;
}

}  // namespace

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "counter";
}

const MetricSnapshot* RegistrySnapshot::Find(std::string_view name, const Labels& labels) const {
  const Labels canonical = Canonicalize(labels);
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == canonical) {
      return &m;
    }
  }
  return nullptr;
}

uint64_t RegistrySnapshot::CounterValue(std::string_view name, const Labels& labels) const {
  const MetricSnapshot* m = Find(name, labels);
  return m != nullptr && m->kind == MetricKind::kCounter ? m->counter : 0;
}

void Counter::Inc(uint64_t n) { registry_->AddToCell(cell_, n); }

uint64_t Counter::Value() const { return registry_->CellValue(cell_); }

void HistogramMetric::Observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const uint32_t bucket = static_cast<uint32_t>(it - bounds_.begin());
  registry_->AddToCell(first_cell_ + bucket, 1);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

HistogramSnapshot HistogramMetric::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i < snap.counts.size(); ++i) {
    snap.counts[i] = registry_->CellValue(first_cell_ + static_cast<uint32_t>(i));
    snap.count += snap.counts[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

std::vector<double> ExponentialBuckets(double start, double factor, size_t n) {
  std::vector<double> out;
  out.reserve(n);
  double edge = start;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(edge);
    edge *= factor;
  }
  return out;
}

MetricsRegistry::Shard::~Shard() {
  for (auto& block : blocks) {
    delete[] block.load(std::memory_order_relaxed);
  }
}

std::atomic<uint64_t>& MetricsRegistry::Shard::Cell(uint32_t id) {
  const size_t block_index = id / kCellsPerBlock;
  std::atomic<uint64_t>* block = blocks[block_index].load(std::memory_order_acquire);
  if (block == nullptr) {
    auto* fresh = new std::atomic<uint64_t>[kCellsPerBlock];
    for (size_t i = 0; i < kCellsPerBlock; ++i) {
      fresh[i].store(0, std::memory_order_relaxed);
    }
    // Only the owner thread writes cells, but scrapers race on the block
    // pointer, so publish with CAS.
    if (blocks[block_index].compare_exchange_strong(block, fresh, std::memory_order_acq_rel)) {
      block = fresh;
    } else {
      delete[] fresh;
    }
  }
  return block[id % kCellsPerBlock];
}

uint64_t MetricsRegistry::Shard::Peek(uint32_t id) const {
  const std::atomic<uint64_t>* block =
      blocks[id / kCellsPerBlock].load(std::memory_order_acquire);
  return block == nullptr ? 0 : block[id % kCellsPerBlock].load(std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry()
    : registry_id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  struct ShardCacheEntry {
    uint64_t registry_id;
    Shard* shard;
  };
  // Registry ids are never reused, so a stale cache entry for a destroyed
  // registry can never alias a live one.
  thread_local std::vector<ShardCacheEntry> cache;
  for (const ShardCacheEntry& entry : cache) {
    if (entry.registry_id == registry_id_) {
      return *entry.shard;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.push_back({registry_id_, shard});
  return *shard;
}

void MetricsRegistry::AddToCell(uint32_t cell, uint64_t n) {
  LocalShard().Cell(cell).fetch_add(n, std::memory_order_relaxed);
}

uint64_t MetricsRegistry::CellValue(uint32_t cell) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->Peek(cell);
  }
  return total;
}

uint32_t MetricsRegistry::AllocateCells(uint32_t n) {
  const uint32_t first = next_cell_;
  next_cell_ += n;
  return first;
}

Counter* MetricsRegistry::FindOrCreateCounter(std::string_view name, const Labels& labels) {
  const Labels canonical = Canonicalize(labels);
  const std::string key = CanonicalKey(name, canonical);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    return it->second.kind == MetricKind::kCounter ? it->second.counter.get() : nullptr;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.kind = MetricKind::kCounter;
  entry.labels = canonical;
  entry.counter.reset(new Counter(this, AllocateCells(1)));
  return entries_.emplace(key, std::move(entry)).first->second.counter.get();
}

Gauge* MetricsRegistry::FindOrCreateGauge(std::string_view name, const Labels& labels) {
  const Labels canonical = Canonicalize(labels);
  const std::string key = CanonicalKey(name, canonical);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    return it->second.kind == MetricKind::kGauge ? it->second.gauge.get() : nullptr;
  }
  Entry entry;
  entry.name = std::string(name);
  entry.kind = MetricKind::kGauge;
  entry.labels = canonical;
  entry.gauge.reset(new Gauge());
  return entries_.emplace(key, std::move(entry)).first->second.gauge.get();
}

HistogramMetric* MetricsRegistry::FindOrCreateHistogram(std::string_view name,
                                                        std::vector<double> bounds,
                                                        const Labels& labels) {
  std::sort(bounds.begin(), bounds.end());
  const Labels canonical = Canonicalize(labels);
  const std::string key = CanonicalKey(name, canonical);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != MetricKind::kHistogram ||
        it->second.histogram->bounds() != bounds) {
      return nullptr;
    }
    return it->second.histogram.get();
  }
  Entry entry;
  entry.name = std::string(name);
  entry.kind = MetricKind::kHistogram;
  entry.labels = canonical;
  const uint32_t cells = static_cast<uint32_t>(bounds.size()) + 1;
  entry.histogram.reset(new HistogramMetric(this, std::move(bounds), AllocateCells(cells)));
  return entries_.emplace(key, std::move(entry)).first->second.histogram.get();
}

RegistrySnapshot MetricsRegistry::Scrape() const {
  RegistrySnapshot snap;
  std::vector<std::pair<std::string, const Entry*>> ordered;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ordered.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      ordered.emplace_back(key, &entry);
    }
  }
  std::sort(ordered.begin(), ordered.end());
  snap.metrics.reserve(ordered.size());
  for (const auto& [key, entry] : ordered) {
    MetricSnapshot m;
    m.name = entry->name;
    m.kind = entry->kind;
    m.labels = entry->labels;
    switch (entry->kind) {
      case MetricKind::kCounter:
        m.counter = entry->counter->Value();
        break;
      case MetricKind::kGauge:
        m.gauge = entry->gauge->Value();
        break;
      case MetricKind::kHistogram:
        m.histogram = entry->histogram->Snapshot();
        break;
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

}  // namespace robodet
