// Process-wide metrics for the certification pipelines.
//
// The registry holds three metric kinds, all keyed by `subsystem/name`
// strings (DESIGN.md §9): monotonic counters, last-write-wins gauges, and
// log2-bucketed histograms (bucket b >= 1 covers values in [2^(b-1), 2^b),
// bucket 0 holds exact zeros — certificate sizes in bits land in the bucket
// of their bit-width).
//
// Hot-path contract: updates go to a thread-local shard, so concurrent
// workers from the engine's pool never contend on a lock or share a cache
// line; the cells are relaxed atomics only so that snapshot() may read them
// while workers run (each cell has a single writer — its owning thread).
// When the registry is disabled (the default), an update is one relaxed
// load and a branch. Because counters and histogram cells are merged by
// addition, totals are bit-identical for every thread count — the same
// determinism contract the engine itself gives.
//
// Snapshots merge live shards with the totals retired by exited threads
// (the worker pool creates and joins threads per call, so retirement is the
// common path) and return plain name-keyed maps for the exporters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lcert::obs {

/// Log2 bucket count: bucket 0 (zeros) + bit-widths 1..64.
inline constexpr std::size_t kHistogramBuckets = 65;

/// Bucket index of a recorded value: 0 for 0, otherwise its bit width
/// (floor(log2 v) + 1), so bucket b covers [2^(b-1), 2^b).
std::size_t histogram_bucket(std::uint64_t value) noexcept;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Exact order statistics over recorded samples (DESIGN.md §14). count, sum,
/// min and max are exact for every recorded value; the percentiles are
/// nearest-rank over the retained samples — exact until a per-thread sample
/// buffer or the retired pool overflows, after which the overflow is counted
/// in `dropped` (aggregates stay exact; percentiles become a sample).
struct QuantileSnapshot {
  std::uint64_t count = 0;
  std::uint64_t dropped = 0;  ///< samples not retained for percentile math
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;

  double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, QuantileSnapshot> quantiles;

  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  HistogramSnapshot histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? HistogramSnapshot{} : it->second;
  }
  QuantileSnapshot quantile(const std::string& name) const {
    const auto it = quantiles.find(name);
    return it == quantiles.end() ? QuantileSnapshot{} : it->second;
  }
};

class MetricsRegistry;

/// Cheap copyable handle to one counter. A default-constructed handle is
/// inert; handles from MetricsRegistry::counter stay valid forever (metric
/// ids are never reused).
class Counter {
 public:
  Counter() = default;
  inline void add(std::uint64_t delta = 1) const noexcept;

 private:
  friend class MetricsRegistry;
  Counter(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

class Gauge {
 public:
  Gauge() = default;
  inline void set(std::int64_t value) const noexcept;

 private:
  friend class MetricsRegistry;
  Gauge(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

class Histogram {
 public:
  Histogram() = default;
  inline void record(std::uint64_t value) const noexcept;

 private:
  friend class MetricsRegistry;
  Histogram(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Handle to one quantile metric (latency distributions: per-batch and
/// per-vertex verify times, per-edit incr times). Recording appends the raw
/// sample to a lazily-allocated per-thread buffer — heavier than a histogram
/// bump, so call sites gate on trace_enabled() or keep to phase granularity.
class Quantile {
 public:
  Quantile() = default;
  inline void record(std::uint64_t value) const noexcept;

 private:
  friend class MetricsRegistry;
  Quantile(MetricsRegistry* reg, std::uint32_t id) : reg_(reg), id_(id) {}
  MetricsRegistry* reg_ = nullptr;
  std::uint32_t id_ = 0;
};

class MetricsRegistry {
 public:
  /// The process-wide registry (benches, the CLI and the library share it).
  static MetricsRegistry& instance();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// Finds or registers a metric. Registration takes a lock; call sites on
  /// hot paths resolve their handles once (function-local static).
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);
  Quantile quantile(std::string_view name);

  /// Merged view of every shard (live and retired). Safe to call while
  /// workers are updating; in-flight updates may or may not be included.
  MetricsSnapshot snapshot() const;
  /// Convenience lookups (zero / empty when the metric is unknown).
  std::uint64_t counter_value(std::string_view name) const;
  HistogramSnapshot histogram_snapshot(std::string_view name) const;
  QuantileSnapshot quantile_snapshot(std::string_view name) const;

  /// Unconditional gauge write, bypassing the enabled() gate: registration-
  /// time facts (e.g. verify/<scheme>/boxes_per_state) should appear in
  /// every snapshot whether or not a run enabled metrics.
  void gauge_set_always(const Gauge& g, std::int64_t value) noexcept {
    gauge_set(g.id_, value);
  }

  /// Zeroes every cell, keeping registrations and handles valid. Test-only:
  /// callers must ensure no worker is updating concurrently.
  void reset() noexcept;

 private:
  friend class Counter;
  friend class Gauge;
  friend class Histogram;
  friend class Quantile;

  struct HistCell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{0};  ///< valid iff count > 0
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };

  /// Sample buffer of one quantile metric on one thread, allocated lazily on
  /// first record (most threads touch no quantile). Single writer; snapshot
  /// readers synchronize on the release store of `size` — events below a
  /// loaded size are fully written. Past the fixed capacity, samples are
  /// dropped (counted); aggregates keep updating.
  struct QuantCell {
    std::atomic<std::uint64_t*> samples{nullptr};
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{0};  ///< valid iff count > 0
    std::atomic<std::uint64_t> max{0};
  };

  /// One thread's private cells. Only the owning thread writes (relaxed
  /// load-then-store, no RMW needed); snapshot() reads concurrently.
  struct Shard {
    std::vector<std::atomic<std::uint64_t>> counters;
    std::vector<HistCell> histograms;
    std::vector<QuantCell> quantiles;
    ~Shard();  ///< frees the lazily-allocated sample buffers
  };

  /// Merged, capped sample pool of one retired quantile metric.
  struct RetiredQuant {
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::vector<std::uint64_t> samples;
  };

  /// Plain (single-threaded) totals retired from exited threads.
  struct Retired {
    std::vector<std::uint64_t> counters;
    std::vector<HistogramSnapshot> histograms;
    std::vector<RetiredQuant> quantiles;
  };

  MetricsRegistry();
  Shard& local_shard();
  void retire_shard(Shard* shard) noexcept;
  void counter_add(std::uint32_t id, std::uint64_t delta) noexcept;
  void gauge_set(std::uint32_t id, std::int64_t value) noexcept;
  void histogram_record(std::uint32_t id, std::uint64_t value) noexcept;
  void quantile_record(std::uint32_t id, std::uint64_t value);
  QuantileSnapshot merge_quantile_locked(std::size_t i) const;
  std::uint32_t intern(std::vector<std::string>& names,
                       std::map<std::string, std::uint32_t, std::less<>>& index,
                       std::string_view name, std::size_t capacity);

  std::atomic<bool> enabled_{false};

  mutable std::mutex mutex_;  ///< guards names, shard list, retired totals
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  std::vector<std::string> quantile_names_;
  std::map<std::string, std::uint32_t, std::less<>> counter_index_;
  std::map<std::string, std::uint32_t, std::less<>> gauge_index_;
  std::map<std::string, std::uint32_t, std::less<>> histogram_index_;
  std::map<std::string, std::uint32_t, std::less<>> quantile_index_;
  std::vector<std::atomic<std::int64_t>> gauges_;  ///< fixed capacity, see .cpp
  std::vector<Shard*> shards_;
  Retired retired_;

  struct ShardOwner;  ///< thread_local registrar; retires on thread exit
};

/// The process-wide registry.
inline MetricsRegistry& registry() { return MetricsRegistry::instance(); }

inline void Counter::add(std::uint64_t delta) const noexcept {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->counter_add(id_, delta);
}

inline void Gauge::set(std::int64_t value) const noexcept {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->gauge_set(id_, value);
}

inline void Histogram::record(std::uint64_t value) const noexcept {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->histogram_record(id_, value);
}

inline void Quantile::record(std::uint64_t value) const noexcept {
  if (reg_ == nullptr || !reg_->enabled()) return;
  reg_->quantile_record(id_, value);
}

}  // namespace lcert::obs
