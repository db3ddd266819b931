// Spans recorded from the benchmark's own files, around the calls it makes
// into the runtime's public functions.  The runtime itself carries no
// instrumentation; a span here measures one call into a layer from outside.
//
// Each thread records into its own Tracer (worker threads of the sharded
// engine included); threads share only the sample budget.  A span keeps (kind,
// start, end, parent, op id); its self time is its duration minus the part
// covered by child spans opened on the same thread while it was open.
// Totals are aggregated as spans close; the first kSampleSpans spans of
// the process are also kept verbatim and can be written out at the end.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : std::uint8_t {
  StormCall,      // rmi::Transport::call issued by the storm driver
  StormService,   // the storm's echo service handler (incl. replier.ok)
  StormCallback,  // the storm's completion callback (incl. the next call)
  GlbExpand,      // DistMap::expand issue through the AsyncClient
  GlbCallback,    // the GLB driver's completion/error continuation
  MixInvoke,      // RemoteHandle::invoke -> MageClient chase + invoke
  MixMove,        // explicit MageClient::move
  CoreRpc,        // one whole mobility op: attribute bind() + invoke()
  CoreCod,
  CoreRev,
  CoreGrev,
  CoreCle,
  CoreMagent,
  kCount,
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::kCount);

const char* span_name(SpanKind kind);

struct SpanTotals {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct SpanRecord {
  SpanKind kind;
  std::int64_t start_ns;  // steady clock, relative to the trace epoch
  std::int64_t end_ns;
  std::int64_t parent;    // index into the same thread's sample, -1 = root
  std::uint64_t op;
};

class Tracer {
 public:
  // Process-wide: the sharded engine starts new workers on every run, so
  // a per-thread bound would grow with the number of runs.
  static constexpr std::int64_t kSampleSpans = 65'536;

  // Open/close one span; calls nest strictly per thread.
  void open(SpanKind kind, std::uint64_t op);
  void close();

  std::array<SpanTotals, kSpanKinds> totals{};
  std::vector<SpanRecord> sample;

 private:
  struct Frame {
    SpanKind kind;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int64_t sample_index;  // -1 when past the sample bound
    std::uint64_t op;
  };
  std::vector<Frame> stack_;
};

// Process-wide switch, flipped by the driver thread only while no worker
// runs.  Off: a Span costs one predictable branch.
void set_tracing(bool on);
bool tracing();

Tracer& thread_tracer();

// RAII span; a no-op when tracing is off.
class Span {
 public:
  Span(SpanKind kind, std::uint64_t op) : on_(tracing()) {
    if (on_) thread_tracer().open(kind, op);
  }
  ~Span() {
    if (on_) thread_tracer().close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// Sums every thread's totals and clears them (driver thread, workers
// stopped).  Samples are kept for write_span_sample().
std::array<SpanTotals, kSpanKinds> take_span_totals();

// Writes the kept span samples as TSV (thread, index, kind, start, end,
// parent, op) and clears them.  Returns false when the file cannot be
// written.
bool write_span_sample(const std::string& path);

}  // namespace perfbench
