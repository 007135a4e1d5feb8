#include "src/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>

namespace lcert::obs {

std::uint64_t trace_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One thread's event buffer. Only the owning thread writes; take() reads
// concurrently-published prefixes: events[i] for i < size are ordered before
// the release store of size, so an acquire load of size makes them visible.
struct TraceSink::Buffer {
  Buffer(std::size_t cap, std::uint32_t tid_) : events(cap), tid(tid_) {}
  std::vector<TraceEvent> events;
  std::atomic<std::size_t> size{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid;
};

// Registers the calling thread's buffer on first emit and retires its events
// into the sink when the thread exits (worker-pool threads join per call, so
// retirement is the common path — mirrors MetricsRegistry::ShardOwner).
struct TraceSink::BufferOwner {
  explicit BufferOwner(TraceSink& sink_) : sink(&sink_) {
    std::lock_guard<std::mutex> lock(sink->mutex_);
    buffer = std::make_unique<Buffer>(sink->capacity_, sink->next_tid_++);
    sink->buffers_.push_back(buffer.get());
  }
  ~BufferOwner() { sink->retire_buffer(buffer.get()); }

  TraceSink* sink;
  std::unique_ptr<Buffer> buffer;
};

TraceSink& TraceSink::instance() {
  // Function-local static: constructed before any BufferOwner (buffers are
  // created through instance()), hence destroyed after every thread-local
  // buffer has retired.
  static TraceSink sink;
  return sink;
}

void TraceSink::set_capacity(std::size_t events_per_thread) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = events_per_thread;
}

std::size_t TraceSink::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

std::uint32_t TraceSink::name_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

TraceSink::Buffer& TraceSink::local_buffer() {
  thread_local BufferOwner owner(*this);
  return *owner.buffer;
}

void TraceSink::retire_buffer(Buffer* buffer) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = buffer->size.load(std::memory_order_acquire);
  retired_events_.insert(retired_events_.end(), buffer->events.begin(),
                         buffer->events.begin() + static_cast<std::ptrdiff_t>(n));
  retired_dropped_ += buffer->dropped.load(std::memory_order_relaxed);
  buffers_.erase(std::remove(buffers_.begin(), buffers_.end(), buffer), buffers_.end());
}

void TraceSink::emit(std::uint32_t name_id, TraceEventKind kind, std::uint64_t logical,
                     std::int64_t arg) noexcept {
  if (!enabled()) return;
  Buffer& buf = local_buffer();
  const std::size_t idx = buf.size.load(std::memory_order_relaxed);
  if (idx >= buf.events.size()) {
    // Full: stop recording, never overwrite — the loss is visible in dropped().
    buf.dropped.store(buf.dropped.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    return;
  }
  TraceEvent& e = buf.events[idx];
  e.ts_ns = trace_now_ns();
  e.logical = logical;
  e.arg = arg;
  e.name_id = name_id;
  e.tid = buf.tid;
  e.kind = kind;
  buf.size.store(idx + 1, std::memory_order_release);
}

TraceSnapshot TraceSink::take() {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceSnapshot snap;
  snap.names = names_;
  snap.events = std::move(retired_events_);
  retired_events_.clear();
  snap.dropped = retired_dropped_;
  retired_dropped_ = 0;
  for (Buffer* buf : buffers_) {
    const std::size_t n = buf->size.load(std::memory_order_acquire);
    snap.events.insert(snap.events.end(), buf->events.begin(),
                       buf->events.begin() + static_cast<std::ptrdiff_t>(n));
    snap.dropped += buf->dropped.load(std::memory_order_relaxed);
    buf->size.store(0, std::memory_order_relaxed);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
  return snap;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = retired_dropped_;
  for (const Buffer* buf : buffers_)
    total += buf->dropped.load(std::memory_order_relaxed);
  return total;
}

void TraceSink::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_events_.clear();
  retired_dropped_ = 0;
  for (Buffer* buf : buffers_) {
    buf->size.store(0, std::memory_order_relaxed);
    buf->dropped.store(0, std::memory_order_relaxed);
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

const char* kind_tag(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSpanBegin: return "B";
    case TraceEventKind::kSpanEnd: return "E";
    case TraceEventKind::kInstant: return "i";
    case TraceEventKind::kCounter: return "C";
  }
  return "?";
}

}  // namespace

std::vector<TraceRollupRow> trace_rollup(const TraceSnapshot& snap) {
  struct Frame {
    std::uint32_t name_id;
    std::uint64_t ts_ns;
    std::uint64_t child_ns;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t max_ns = 0;
  };
  // Events of one tid are contiguous and in emission order (snapshot
  // contract), so a single pass with per-tid stacks pairs begins with ends.
  std::map<std::uint32_t, std::vector<Frame>> stacks;
  std::map<std::uint32_t, Agg> aggs;  // by name_id
  for (const TraceEvent& e : snap.events) {
    if (e.kind == TraceEventKind::kSpanBegin) {
      stacks[e.tid].push_back({e.name_id, e.ts_ns, 0});
    } else if (e.kind == TraceEventKind::kSpanEnd) {
      auto& stack = stacks[e.tid];
      if (stack.empty() || stack.back().name_id != e.name_id) continue;  // unmatched
      const Frame frame = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts_ns >= frame.ts_ns ? e.ts_ns - frame.ts_ns : 0;
      Agg& agg = aggs[e.name_id];
      ++agg.count;
      agg.total_ns += dur;
      agg.self_ns += dur >= frame.child_ns ? dur - frame.child_ns : 0;
      agg.max_ns = std::max(agg.max_ns, dur);
      if (!stack.empty()) stack.back().child_ns += dur;
    }
  }
  std::vector<TraceRollupRow> rows;
  rows.reserve(aggs.size());
  for (const auto& [name_id, agg] : aggs) {
    TraceRollupRow row;
    row.name = name_id < snap.names.size() ? snap.names[name_id] : "?";
    row.count = agg.count;
    row.total_ms = static_cast<double>(agg.total_ns) / 1e6;
    row.self_ms = static_cast<double>(agg.self_ns) / 1e6;
    row.max_ms = static_cast<double>(agg.max_ns) / 1e6;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const TraceRollupRow& a, const TraceRollupRow& b) {
              return a.total_ms != b.total_ms ? a.total_ms > b.total_ms : a.name < b.name;
            });
  return rows;
}

std::string trace_rollup_json(const std::vector<TraceRollupRow>& rows) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) os << ',';
    char num[32];
    os << "{\"name\":\"" << json_escape(rows[i].name)
       << "\",\"count\":" << rows[i].count;
    std::snprintf(num, sizeof num, "%.6f", rows[i].total_ms);
    os << ",\"total_ms\":" << num;
    std::snprintf(num, sizeof num, "%.6f", rows[i].self_ms);
    os << ",\"self_ms\":" << num;
    std::snprintf(num, sizeof num, "%.6f", rows[i].max_ms);
    os << ",\"max_ms\":" << num << '}';
  }
  os << ']';
  return os.str();
}

std::string chrome_trace_json(const TraceSnapshot& snap) {
  // Rebase timestamps so the viewer opens at t=0 instead of steady-clock
  // epoch; sort by time (Perfetto tolerates disorder, chrome://tracing is
  // happier sorted). Kind breaks ts ties so an E never precedes its B.
  std::vector<const TraceEvent*> order;
  order.reserve(snap.events.size());
  std::uint64_t t0 = UINT64_MAX;
  for (const TraceEvent& e : snap.events) {
    order.push_back(&e);
    t0 = std::min(t0, e.ts_ns);
  }
  if (order.empty()) t0 = 0;
  std::stable_sort(order.begin(), order.end(), [](const TraceEvent* a, const TraceEvent* b) {
    return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns
                                : static_cast<int>(a->kind) < static_cast<int>(b->kind);
  });

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char ts_buf[32];
  for (const TraceEvent* e : order) {
    if (!first) os << ',';
    first = false;
    const std::string& name =
        e->name_id < snap.names.size() ? snap.names[e->name_id] : "?";
    std::snprintf(ts_buf, sizeof ts_buf, "%.3f",
                  static_cast<double>(e->ts_ns - t0) / 1e3);
    os << "{\"name\":\"" << json_escape(name) << "\",\"cat\":\"lcert\",\"ph\":\""
       << kind_tag(e->kind) << "\",\"ts\":" << ts_buf << ",\"pid\":0,\"tid\":" << e->tid;
    if (e->kind == TraceEventKind::kInstant) os << ",\"s\":\"t\"";
    if (e->kind == TraceEventKind::kCounter)
      os << ",\"args\":{\"value\":" << e->arg << '}';
    else
      os << ",\"args\":{\"logical\":" << e->logical << ",\"arg\":" << e->arg << '}';
    os << '}';
  }
  os << "],\"rollup\":" << trace_rollup_json(trace_rollup(snap))
     << ",\"dropped\":" << snap.dropped << '}';
  return os.str();
}

std::string logical_stream(const TraceSnapshot& snap) {
  std::vector<std::string> lines;
  lines.reserve(snap.events.size());
  for (const TraceEvent& e : snap.events) {
    const std::string& name =
        e.name_id < snap.names.size() ? snap.names[e.name_id] : "?";
    std::string line;
    line.reserve(name.size() + 48);
    line += name;
    line += ' ';
    line += kind_tag(e.kind);
    line += ' ';
    line += std::to_string(e.logical);
    line += ' ';
    line += std::to_string(e.arg);
    line += '\n';
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

OutlierSampler& OutlierSampler::instance() {
  static OutlierSampler sampler;
  return sampler;
}

namespace {
inline bool slower(const OutlierRecord& a, const OutlierRecord& b) { return a.ns > b.ns; }
}  // namespace

void OutlierSampler::set_capacity(std::size_t k) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = k;
  while (heap_.size() > capacity_) {
    std::pop_heap(heap_.begin(), heap_.end(), slower);  // min-heap: pop smallest
    heap_.pop_back();
  }
  floor_ns_.store(heap_.size() >= capacity_ && !heap_.empty() ? heap_.front().ns : 0,
                  std::memory_order_relaxed);
}

void OutlierSampler::record(OutlierRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0) return;
  if (heap_.size() < capacity_) {
    heap_.push_back(std::move(rec));
    std::push_heap(heap_.begin(), heap_.end(), slower);
  } else {
    if (rec.ns <= heap_.front().ns) return;  // floor moved since would_admit
    std::pop_heap(heap_.begin(), heap_.end(), slower);
    heap_.back() = std::move(rec);
    std::push_heap(heap_.begin(), heap_.end(), slower);
  }
  floor_ns_.store(heap_.size() >= capacity_ ? heap_.front().ns : 0,
                  std::memory_order_relaxed);
}

std::vector<OutlierRecord> OutlierSampler::top() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<OutlierRecord> out = heap_;
  std::sort(out.begin(), out.end(),
            [](const OutlierRecord& a, const OutlierRecord& b) { return a.ns > b.ns; });
  return out;
}

void OutlierSampler::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  heap_.clear();
  floor_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace lcert::obs
