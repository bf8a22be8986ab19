#include "src/proxy/key_table.h"

#include <algorithm>

#include "src/util/hash.h"

namespace robodet {
namespace {

// The table "holds multiple entries per IP address" — bounded here so a
// crawler pulling thousands of pages cannot balloon server memory.
constexpr size_t kMaxEntriesPerIp = 64;
constexpr size_t kMaxTotalEntries = 1 << 20;
constexpr TimeMs kEntryTtl = kHour;

}  // namespace

void KeyTable::EntryFifo::pop_front() {
  slots_[head_] = Entry{};  // Frees the strings now.
  head_ = (head_ + 1) % slots_.size();
  --size_;
}

void KeyTable::EntryFifo::push_back(Entry entry) {
  if (size_ == slots_.size()) {
    // Full: straighten the ring so the vector can grow at its end.
    std::rotate(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(head_), slots_.end());
    head_ = 0;
    slots_.push_back(std::move(entry));
  } else {
    (*this)[size_] = std::move(entry);
  }
  ++size_;
}

void KeyTable::EntryFifo::erase(size_t i) {
  for (; i + 1 < size_; ++i) {
    (*this)[i] = std::move((*this)[i + 1]);
  }
  (*this)[size_ - 1] = Entry{};
  --size_;
}

KeyTable::KeyTable(Config config) {
  const size_t num_shards = std::max<size_t>(1, config.num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void KeyTable::BindMetrics(MetricsRegistry& registry) {
  metrics_.issued = registry.FindOrCreateCounter("robodet_key_table_issued_total");
  metrics_.matched = registry.FindOrCreateCounter("robodet_key_table_matched_total");
  metrics_.mismatched = registry.FindOrCreateCounter("robodet_key_table_mismatched_total");
  metrics_.expired = registry.FindOrCreateCounter("robodet_key_table_expired_total");
  metrics_.evicted = registry.FindOrCreateCounter("robodet_key_table_evicted_total");
  metrics_.entries = registry.FindOrCreateGauge("robodet_key_table_entries");
}

KeyTable::Shard& KeyTable::ShardFor(IpAddress ip) {
  return *shards_[Mix64(ip.value()) % shards_.size()];
}

void KeyTable::UpdateEntriesGauge() {
  if (metrics_.entries != nullptr) {
    metrics_.entries->Set(static_cast<int64_t>(total_entries()));
  }
}

bool KeyTable::Add(IpAddress ip, std::string_view page_path, std::string_view key, TimeMs now,
                   bool counted) {
  // Global bound: sweep everything before refusing. Rare (the bound is
  // sized for memory pressure, not steady state), so the full sweep is
  // acceptable even from a worker thread.
  if (total_entries() >= kMaxTotalEntries) {
    counted ? ExpireOld(now) : ExpireAll(now);
  }
  if (total_entries() >= kMaxTotalEntries) {
    return false;  // Still full: refuse to grow. Detection degrades gracefully.
  }
  Shard& shard = ShardFor(ip);
  size_t expired_here = 0;
  size_t evicted_here = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    EntryFifo& entries = shard.by_ip[ip.value()];
    for (size_t i = 0; !counted && i < entries.size(); ++i) {
      if (entries[i].key == key && entries[i].issued_at == now && entries[i].page_path == page_path) {
        return false;
      }
    }
    // Entries are issued in this client's time order, so expired ones sit
    // at the front. Reaping them here keeps per-IP state bounded even when
    // no global sweep ever runs (concurrent mode).
    while (!entries.empty() && now - entries[0].issued_at > kEntryTtl) {
      entries.pop_front();
      ++expired_here;
    }
    while (entries.size() >= kMaxEntriesPerIp) {
      entries.pop_front();
      ++evicted_here;
    }
    entries.push_back(Entry{std::string(page_path), std::string(key), now});
  }
  total_entries_.fetch_sub(expired_here + evicted_here, std::memory_order_relaxed);
  total_entries_.fetch_add(1, std::memory_order_relaxed);
  if (counted) {
    IncIfBound(metrics_.expired, expired_here);
    IncIfBound(metrics_.evicted, evicted_here);
  }
  UpdateEntriesGauge();
  return true;
}

void KeyTable::Record(IpAddress ip, const std::string& page_path, const std::string& key,
                      TimeMs now) {
  if (!Add(ip, page_path, key, now, /*counted=*/true)) {
    return;
  }
  IncIfBound(metrics_.issued);
  if (observer_ != nullptr) {
    observer_->OnKeyIssued(ip, page_path, key, now);
  }
}

bool KeyTable::Remove(IpAddress ip, std::string_view key, TimeMs* issued_at) {
  Shard& shard = ShardFor(ip);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_ip.find(ip.value());
    if (it == shard.by_ip.end()) {
      return false;
    }
    EntryFifo& entries = it->second;
    size_t i = 0;
    while (i < entries.size() && entries[i].key != key) {
      ++i;
    }
    if (i == entries.size()) {
      return false;
    }
    *issued_at = entries[i].issued_at;
    entries.erase(i);
    if (entries.empty()) {
      shard.by_ip.erase(it);
    }
  }
  total_entries_.fetch_sub(1, std::memory_order_relaxed);
  UpdateEntriesGauge();
  return true;
}

bool KeyTable::MatchAndConsume(IpAddress ip, const std::string& key, TimeMs now) {
  TimeMs issued_at = 0;
  const bool found = Remove(ip, key, &issued_at);
  if (found && observer_ != nullptr) {
    // Journaled for any consumption (matched or stale): the entry is gone
    // from the table either way.
    observer_->OnKeyConsumed(ip, key);
  }
  if (found && now - issued_at <= kEntryTtl) {
    IncIfBound(metrics_.matched);
    return true;
  }
  IncIfBound(metrics_.mismatched);
  return false;
}

size_t KeyTable::ExpireShard(Shard& shard, TimeMs now) {
  size_t reaped = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.by_ip.begin(); it != shard.by_ip.end();) {
      EntryFifo& entries = it->second;
      while (!entries.empty() && now - entries[0].issued_at > kEntryTtl) {
        entries.pop_front();
        ++reaped;
      }
      if (entries.empty()) {
        it = shard.by_ip.erase(it);
      } else {
        ++it;
      }
    }
  }
  total_entries_.fetch_sub(reaped, std::memory_order_relaxed);
  return reaped;
}

size_t KeyTable::ExpireAll(TimeMs now) {
  size_t reaped = 0;
  for (auto& shard : shards_) {
    reaped += ExpireShard(*shard, now);
  }
  UpdateEntriesGauge();
  return reaped;
}

size_t KeyTable::ExpireOld(TimeMs now) {
  const size_t reaped = ExpireAll(now);
  IncIfBound(metrics_.expired, reaped);
  return reaped;
}

std::vector<KeyTable::ExportedEntry> KeyTable::ExportShard(size_t shard_index) {
  std::vector<ExportedEntry> out;
  if (shard_index >= shards_.size()) {
    return out;
  }
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  // Sorts pointers, then copies each entry once into its place.
  size_t count = 0;
  for (const auto& [ip, entries] : shard.by_ip) {
    count += entries.size();
  }
  std::vector<std::pair<uint32_t, const Entry*>> order;
  order.reserve(count);
  for (const auto& [ip, entries] : shard.by_ip) {
    for (size_t i = 0; i < entries.size(); ++i) {
      order.emplace_back(ip, &entries[i]);
    }
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first < b.first;
    }
    if (a.second->issued_at != b.second->issued_at) {
      return a.second->issued_at < b.second->issued_at;
    }
    return a.second->key < b.second->key;
  });
  out.reserve(count);
  for (const auto& [ip, e] : order) {
    out.emplace_back(ip, e->page_path, e->key, e->issued_at);
  }
  return out;
}

void KeyTable::RestoreEntry(IpAddress ip, std::string_view page_path, std::string_view key,
                            TimeMs issued_at) {
  Add(ip, page_path, key, issued_at, /*counted=*/false);
}

void KeyTable::RestoreConsume(IpAddress ip, std::string_view key) {
  TimeMs issued_at = 0;
  Remove(ip, key, &issued_at);
}

void KeyTable::Clear() {
  size_t dropped = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [ip, entries] : shard->by_ip) {
      dropped += entries.size();
    }
    shard->by_ip.clear();
  }
  total_entries_.fetch_sub(dropped, std::memory_order_relaxed);
  UpdateEntriesGauge();
}

size_t KeyTable::ExpireOldIncremental(TimeMs now) {
  const size_t idx = sweep_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  const size_t reaped = ExpireShard(*shards_[idx], now);
  IncIfBound(metrics_.expired, reaped);
  UpdateEntriesGauge();
  return reaped;
}

}  // namespace robodet
