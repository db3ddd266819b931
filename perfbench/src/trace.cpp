#include "trace.hpp"

#include <atomic>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_sample_budget{Tracer::kSampleSpans};

const auto g_epoch = std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

// Tracers outlive their threads: the sharded engine starts fresh workers
// on every run, and their totals are read after the workers have joined.
std::mutex g_registry_mutex;
std::deque<std::unique_ptr<Tracer>> g_registry;

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::StormCall: return "storm.call";
    case SpanKind::StormService: return "storm.service";
    case SpanKind::StormCallback: return "storm.callback";
    case SpanKind::GlbExpand: return "glb.expand";
    case SpanKind::GlbCallback: return "glb.callback";
    case SpanKind::MixInvoke: return "mix.invoke";
    case SpanKind::MixMove: return "mix.move";
    case SpanKind::CoreRpc: return "core.rpc";
    case SpanKind::CoreCod: return "core.cod";
    case SpanKind::CoreRev: return "core.rev";
    case SpanKind::CoreGrev: return "core.grev";
    case SpanKind::CoreCle: return "core.cle";
    case SpanKind::CoreMagent: return "core.magent";
    case SpanKind::kCount: break;
  }
  return "?";
}

void Tracer::open(SpanKind kind, std::uint64_t op) {
  std::int64_t index = -1;
  const std::int64_t start = now_ns();
  // Once the budget is spent, only the (uncontended) load runs.
  if (g_sample_budget.load(std::memory_order_relaxed) > 0 &&
      g_sample_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
    const std::int64_t parent =
        stack_.empty() ? -1 : stack_.back().sample_index;
    index = static_cast<std::int64_t>(sample.size());
    sample.push_back(SpanRecord{kind, start, start, parent, op});
  }
  stack_.push_back(Frame{kind, start, 0, index, op});
}

void Tracer::close() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now_ns() - frame.start_ns;
  SpanTotals& t = totals[static_cast<std::size_t>(frame.kind)];
  ++t.count;
  t.total_ns += duration;
  t.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.sample_index >= 0) {
    sample[static_cast<std::size_t>(frame.sample_index)].end_ns =
        frame.start_ns + duration;
  }
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Tracer& thread_tracer() {
  thread_local Tracer* tracer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry.push_back(std::make_unique<Tracer>());
    return g_registry.back().get();
  }();
  return *tracer;
}

std::array<SpanTotals, kSpanKinds> take_span_totals() {
  std::array<SpanTotals, kSpanKinds> sum{};
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& tracer : g_registry) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      sum[k].count += tracer->totals[k].count;
      sum[k].total_ns += tracer->totals[k].total_ns;
      sum[k].self_ns += tracer->totals[k].self_ns;
    }
    tracer->totals = {};
  }
  return sum;
}

bool write_span_sample(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tkind\tstart_ns\tend_ns\tparent\top\n";
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::size_t thread = 0;
  for (auto& tracer : g_registry) {
    for (std::size_t i = 0; i < tracer->sample.size(); ++i) {
      const SpanRecord& s = tracer->sample[i];
      out << thread << '\t' << i << '\t' << span_name(s.kind) << '\t'
          << s.start_ns << '\t' << s.end_ns << '\t' << s.parent << '\t'
          << s.op << '\n';
    }
    tracer->sample.clear();
    ++thread;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
