#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace lcert::obs {

namespace {

// Fixed shard capacities: shards never reallocate after construction, so a
// worker indexing its own cells can never race a thread registering a new
// metric. Generous for this library (a few dozen counters, one histogram per
// scheme); intern() fails loudly if a future caller blows past them.
constexpr std::size_t kMaxCounters = 512;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 128;
constexpr std::size_t kMaxQuantiles = 32;

// Per-thread sample buffer size for one quantile metric (64 KiB of u64) and
// the cap on the merged retired pool (1 MiB) — past either, samples drop
// into QuantileSnapshot::dropped instead of growing without bound.
constexpr std::size_t kQuantileShardSamples = 8192;
constexpr std::size_t kQuantileRetiredSamples = 131072;

// Single-writer cells: plain load-then-store beats an RMW (no lock prefix);
// snapshot readers only need atomicity, not ordering.
inline void cell_add(std::atomic<std::uint64_t>& cell, std::uint64_t delta) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace

std::size_t histogram_bucket(std::uint64_t value) noexcept {
  return static_cast<std::size_t>(std::bit_width(value));
}

// Registers the calling thread's shard on first touch and retires its totals
// into the registry when the thread exits (the worker pool joins its threads
// per call, so this runs constantly, not just at process exit).
struct MetricsRegistry::ShardOwner {
  explicit ShardOwner(MetricsRegistry& reg) : registry(&reg), shard(new Shard) {
    shard->counters = std::vector<std::atomic<std::uint64_t>>(kMaxCounters);
    shard->histograms = std::vector<HistCell>(kMaxHistograms);
    shard->quantiles = std::vector<QuantCell>(kMaxQuantiles);
    std::lock_guard<std::mutex> lock(reg.mutex_);
    reg.shards_.push_back(shard.get());
  }
  ~ShardOwner() { registry->retire_shard(shard.get()); }

  MetricsRegistry* registry;
  std::unique_ptr<Shard> shard;
};

MetricsRegistry::Shard::~Shard() {
  for (QuantCell& cell : quantiles) delete[] cell.samples.load(std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry() : gauges_(kMaxGauges) {
  retired_.counters.assign(kMaxCounters, 0);
  retired_.histograms.assign(kMaxHistograms, HistogramSnapshot{});
  retired_.quantiles.assign(kMaxQuantiles, RetiredQuant{});
}

MetricsRegistry& MetricsRegistry::instance() {
  // Function-local static: constructed before any ShardOwner (shards are
  // created through instance()), hence destroyed after every thread-local
  // shard has retired.
  static MetricsRegistry reg;
  return reg;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  thread_local ShardOwner owner(*this);
  return *owner.shard;
}

void MetricsRegistry::retire_shard(Shard* shard) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < kMaxCounters; ++i)
    retired_.counters[i] += shard->counters[i].load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    const HistCell& cell = shard->histograms[i];
    const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    HistogramSnapshot& into = retired_.histograms[i];
    const std::uint64_t min = cell.min.load(std::memory_order_relaxed);
    const std::uint64_t max = cell.max.load(std::memory_order_relaxed);
    if (into.count == 0 || min < into.min) into.min = min;
    if (max > into.max) into.max = max;
    into.count += count;
    into.sum += cell.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      into.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxQuantiles; ++i) {
    QuantCell& cell = shard->quantiles[i];
    const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    RetiredQuant& into = retired_.quantiles[i];
    const std::uint64_t min = cell.min.load(std::memory_order_relaxed);
    const std::uint64_t max = cell.max.load(std::memory_order_relaxed);
    if (into.count == 0 || min < into.min) into.min = min;
    if (max > into.max) into.max = max;
    into.count += count;
    into.sum += cell.sum.load(std::memory_order_relaxed);
    into.dropped += cell.dropped.load(std::memory_order_relaxed);
    const std::uint64_t* samples = cell.samples.load(std::memory_order_acquire);
    const std::size_t size = cell.size.load(std::memory_order_acquire);
    const std::size_t room = into.samples.size() < kQuantileRetiredSamples
                                 ? kQuantileRetiredSamples - into.samples.size()
                                 : 0;
    const std::size_t keep = std::min(size, room);
    if (samples != nullptr && keep > 0)
      into.samples.insert(into.samples.end(), samples, samples + keep);
    into.dropped += size - keep;
  }
  shards_.erase(std::remove(shards_.begin(), shards_.end(), shard), shards_.end());
}

std::uint32_t MetricsRegistry::intern(std::vector<std::string>& names,
                                      std::map<std::string, std::uint32_t, std::less<>>& index,
                                      std::string_view name, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index.find(name);
  if (it != index.end()) return it->second;
  if (names.size() >= capacity)
    throw std::length_error("MetricsRegistry: metric capacity exhausted for '" +
                            std::string(name) + "'");
  const auto id = static_cast<std::uint32_t>(names.size());
  names.emplace_back(name);
  index.emplace(names.back(), id);
  return id;
}

Counter MetricsRegistry::counter(std::string_view name) {
  return Counter(this, intern(counter_names_, counter_index_, name, kMaxCounters));
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  return Gauge(this, intern(gauge_names_, gauge_index_, name, kMaxGauges));
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  return Histogram(this, intern(histogram_names_, histogram_index_, name, kMaxHistograms));
}

Quantile MetricsRegistry::quantile(std::string_view name) {
  return Quantile(this, intern(quantile_names_, quantile_index_, name, kMaxQuantiles));
}

void MetricsRegistry::counter_add(std::uint32_t id, std::uint64_t delta) noexcept {
  cell_add(local_shard().counters[id], delta);
}

void MetricsRegistry::gauge_set(std::uint32_t id, std::int64_t value) noexcept {
  gauges_[id].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::histogram_record(std::uint32_t id, std::uint64_t value) noexcept {
  HistCell& cell = local_shard().histograms[id];
  const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
  if (count == 0 || value < cell.min.load(std::memory_order_relaxed))
    cell.min.store(value, std::memory_order_relaxed);
  if (count == 0 || value > cell.max.load(std::memory_order_relaxed))
    cell.max.store(value, std::memory_order_relaxed);
  cell.count.store(count + 1, std::memory_order_relaxed);
  cell_add(cell.sum, value);
  cell_add(cell.buckets[histogram_bucket(value)], 1);
}

void MetricsRegistry::quantile_record(std::uint32_t id, std::uint64_t value) {
  QuantCell& cell = local_shard().quantiles[id];
  const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
  if (count == 0 || value < cell.min.load(std::memory_order_relaxed))
    cell.min.store(value, std::memory_order_relaxed);
  if (count == 0 || value > cell.max.load(std::memory_order_relaxed))
    cell.max.store(value, std::memory_order_relaxed);
  cell.count.store(count + 1, std::memory_order_relaxed);
  cell_add(cell.sum, value);
  std::uint64_t* samples = cell.samples.load(std::memory_order_relaxed);
  if (samples == nullptr) {
    // Single writer: no CAS needed, just publish the buffer before any size.
    samples = new std::uint64_t[kQuantileShardSamples];
    cell.samples.store(samples, std::memory_order_release);
  }
  const std::size_t size = cell.size.load(std::memory_order_relaxed);
  if (size >= kQuantileShardSamples) {
    cell_add(cell.dropped, 1);
    return;
  }
  samples[size] = value;
  cell.size.store(size + 1, std::memory_order_release);
}

namespace {

// Nearest-rank percentile over pre-gathered samples; sorts in place.
void fill_percentiles(std::vector<std::uint64_t>& samples, QuantileSnapshot& snap) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](std::uint64_t pct) {
    const std::size_t m = samples.size();
    const std::size_t idx = (m * pct + 99) / 100;  // ceil(m*pct/100)
    return samples[idx == 0 ? 0 : std::min(m, idx) - 1];
  };
  snap.p50 = rank(50);
  snap.p90 = rank(90);
  snap.p99 = rank(99);
}

}  // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::uint64_t total = retired_.counters[i];
    for (const Shard* shard : shards_)
      total += shard->counters[i].load(std::memory_order_relaxed);
    out.counters.emplace(counter_names_[i], total);
  }
  for (std::size_t i = 0; i < gauge_names_.size(); ++i)
    out.gauges.emplace(gauge_names_[i], gauges_[i].load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramSnapshot merged = retired_.histograms[i];
    for (const Shard* shard : shards_) {
      const HistCell& cell = shard->histograms[i];
      const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
      if (count == 0) continue;
      const std::uint64_t min = cell.min.load(std::memory_order_relaxed);
      const std::uint64_t max = cell.max.load(std::memory_order_relaxed);
      if (merged.count == 0 || min < merged.min) merged.min = min;
      if (max > merged.max) merged.max = max;
      merged.count += count;
      merged.sum += cell.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        merged.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
    }
    out.histograms.emplace(histogram_names_[i], merged);
  }
  for (std::size_t i = 0; i < quantile_names_.size(); ++i)
    out.quantiles.emplace(quantile_names_[i], merge_quantile_locked(i));
  return out;
}

// Caller holds mutex_. Gathers aggregates and retained samples of metric i
// across the retired pool and every live shard, then computes nearest-rank
// percentiles.
QuantileSnapshot MetricsRegistry::merge_quantile_locked(std::size_t i) const {
  QuantileSnapshot merged;
  const RetiredQuant& retired = retired_.quantiles[i];
  merged.count = retired.count;
  merged.dropped = retired.dropped;
  merged.sum = retired.sum;
  merged.min = retired.min;
  merged.max = retired.max;
  std::vector<std::uint64_t> samples = retired.samples;
  for (const Shard* shard : shards_) {
    const QuantCell& cell = shard->quantiles[i];
    const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    const std::uint64_t min = cell.min.load(std::memory_order_relaxed);
    const std::uint64_t max = cell.max.load(std::memory_order_relaxed);
    if (merged.count == 0 || min < merged.min) merged.min = min;
    if (max > merged.max) merged.max = max;
    merged.count += count;
    merged.sum += cell.sum.load(std::memory_order_relaxed);
    merged.dropped += cell.dropped.load(std::memory_order_relaxed);
    const std::uint64_t* cell_samples = cell.samples.load(std::memory_order_acquire);
    const std::size_t size = cell.size.load(std::memory_order_acquire);
    if (cell_samples != nullptr && size > 0)
      samples.insert(samples.end(), cell_samples, cell_samples + size);
  }
  fill_percentiles(samples, merged);
  return merged;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counter_index_.find(name);
  if (it == counter_index_.end()) return 0;
  std::uint64_t total = retired_.counters[it->second];
  for (const Shard* shard : shards_)
    total += shard->counters[it->second].load(std::memory_order_relaxed);
  return total;
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histogram_index_.find(name);
  if (it == histogram_index_.end()) return HistogramSnapshot{};
  HistogramSnapshot merged = retired_.histograms[it->second];
  for (const Shard* shard : shards_) {
    const HistCell& cell = shard->histograms[it->second];
    const std::uint64_t count = cell.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    const std::uint64_t min = cell.min.load(std::memory_order_relaxed);
    const std::uint64_t max = cell.max.load(std::memory_order_relaxed);
    if (merged.count == 0 || min < merged.min) merged.min = min;
    if (max > merged.max) merged.max = max;
    merged.count += count;
    merged.sum += cell.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b)
      merged.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
  }
  return merged;
}

QuantileSnapshot MetricsRegistry::quantile_snapshot(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = quantile_index_.find(name);
  if (it == quantile_index_.end()) return QuantileSnapshot{};
  return merge_quantile_locked(it->second);
}

void MetricsRegistry::reset() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.counters.assign(kMaxCounters, 0);
  retired_.histograms.assign(kMaxHistograms, HistogramSnapshot{});
  retired_.quantiles.assign(kMaxQuantiles, RetiredQuant{});
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  for (Shard* shard : shards_) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (HistCell& cell : shard->histograms) {
      cell.count.store(0, std::memory_order_relaxed);
      cell.sum.store(0, std::memory_order_relaxed);
      cell.min.store(0, std::memory_order_relaxed);
      cell.max.store(0, std::memory_order_relaxed);
      for (auto& b : cell.buckets) b.store(0, std::memory_order_relaxed);
    }
    for (QuantCell& cell : shard->quantiles) {
      cell.size.store(0, std::memory_order_relaxed);
      cell.count.store(0, std::memory_order_relaxed);
      cell.dropped.store(0, std::memory_order_relaxed);
      cell.sum.store(0, std::memory_order_relaxed);
      cell.min.store(0, std::memory_order_relaxed);
      cell.max.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace lcert::obs
