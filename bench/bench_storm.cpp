// N-node all-to-all RMI storm: the scale-out stressor for the messaging
// spine (ROADMAP: "scale benches past 2 nodes", then "use real cores").
//
// Topology: N fully meshed nodes, every ordered pair (src, dst) a live
// link.  Each link issues kCallsPerLink echo calls with a windowed pipeline
// (kWindow outstanding per link, the completion callback launches the next
// call), so all N*(N-1) links stay saturated while pending tables and the
// event queue stay bounded.
//
// What the storm exercises that the 2-node hotpath bench cannot:
//
//   * reply-cache ring eviction — transports run with a deliberately small
//     cache (kCacheCapacity), so each node's at-most-once ring wraps many
//     times under (N-1)*kCallsPerLink inbound requests; the run fails if
//     no evictions occurred, and at-most-once must still hold (every call
//     completes exactly once);
//   * per-link ordering floors — each payload carries a per-link sequence
//     number and every service asserts FIFO delivery per (src, dst) link
//     (the simulated network's TCP in-order contract under interleaving
//     from N-1 concurrent senders);
//   * completion-wakeup scaling — one driver predicate ("all done") over a
//     storm of hundreds of thousands of events; predicate checks are
//     recorded so docs/PERF.md can track checks-per-event.
//
// Three pieces carry every mode.  One StormMesh, built from a MeshShape
// (nodes, sites, calls per link): the all-to-all storm is one site, the
// WAN mesh is `sites` all-to-all clusters whose leaders talk across WAN
// hops.  One timed region, run_mesh(), shared by every run below.  One
// run_pair() for the 1-vs-T-worker comparison (digest check, then speedup)
// and one writer for its JSON block.
//
//   bench_storm [N]                the classic single-queue driver ladder
//                                  (default 4/8/16; one N = CI smoke);
//   bench_storm N --threads T      the sharded engine (sim::ShardedSim,
//                                  one event-queue shard per node, per-link
//                                  mailboxes, conservative lookahead) run
//                                  at 1 worker and again at T workers on
//                                  the same seed ("threaded" block), then
//                                  the same pair batched ("batch" block:
//                                  per-link invoke coalescing plus an
//                                  adaptive reply cache, pipelines four
//                                  windows deep).  FAILS unless both runs
//                                  of each pair produce an identical per-
//                                  node delivery order (FNV digest per
//                                  receiving node) — the determinism
//                                  contract at any thread count.
//   ... --chaos                    additionally re-runs the sharded storm
//                                  under a fixed net::FaultSchedule (loss
//                                  bursts, a partition/heal, rolling node
//                                  crashes/restarts, applied at window
//                                  boundaries) at 1 and T workers: the
//                                  degraded-mode scaling curve.  The chaos
//                                  mesh also hosts the HA control plane —
//                                  a 3-member director quorum (rts::
//                                  Director + deterministic election) on
//                                  nodes 0-2, every one of which crashes
//                                  at some point, plus a resolver client
//                                  on node 3 probing the quorum throughout
//                                  — so the JSON records election and
//                                  directory-failover latency in sim time
//                                  under the same schedule.  FAILS unless
//                                  the chaos runs are digest-identical
//                                  across worker counts, every call
//                                  completed (nothing lost after heal),
//                                  every request executed exactly once
//                                  (execution counters, adequately sized
//                                  reply cache => zero eviction-caused
//                                  re-executions), the wire-FIFO self-
//                                  check saw zero violations, and the
//                                  control plane demonstrably failed over
//                                  (elections held, client failovers).
//   ... --glb                      additionally runs the lifeline GLB
//                                  workload (bench/support/glb_harness.hpp:
//                                  unbalanced tree expansion over an
//                                  rts::DistMap whose partitions all start
//                                  on two nodes, per-node lifeline
//                                  rebalancers stealing them apart, loss +
//                                  partition chaos racing the migrations)
//                                  per seed at 1 and 8 workers.  The JSON
//                                  gains a "glb" block; FAILS unless every
//                                  run drains exactly-once (per-key exec
//                                  counters), digests are identical across
//                                  worker counts, and at least one load-
//                                  driven partition migration happened.
//   ... --wan                      additionally runs the WAN scaling curves
//                                  (64- and 128-node site-clustered meshes
//                                  over CostModel::wan_site(), affinity
//                                  node:shard mapping, per-pair lookahead
//                                  matrix) across a worker ladder plus an
//                                  identity-mapped control.  The JSON gains
//                                  a "scaling" block; FAILS unless digests
//                                  are identical across worker counts AND
//                                  across mappings.
//
// Results are written to BENCH_storm.json; ci/check_storm_scaling.py gates
// them and tests/golden/storm_record.json pins the seed-determined fields.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/affinity.hpp"
#include "net/cost_model.hpp"
#include "net/network.hpp"
#include "rmi/transport.hpp"
#include "rts/director.hpp"
#include "serial/writer.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "support/glb_harness.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kCallsPerLink = 500;
constexpr int kWindow = 8;
// Small on purpose: (N-1)*kCallsPerLink inbound requests per node must
// overflow the ring so eviction runs continuously.
constexpr std::size_t kCacheCapacity = 512;
// Extra latency on every cross-site pair of the WAN mesh.
constexpr mage::common::SimDuration kWanHopUs = 20'000;

// Cost model for the sharded runs: a fast LAN whose cross-node floor
// (propagation + receive CPU = 550 simulated us) is the conservative
// lookahead.  RMI CPU overheads are zeroed so the windowed pipelines pack
// each lookahead window with hundreds of events per shard — the regime
// where barrier cost amortizes and real cores pay off.
mage::net::CostModel storm_model() {
  mage::net::CostModel m = mage::net::CostModel::zero();
  m.propagation_us = 500;
  m.per_message_cpu_us = 50;
  m.bytes_per_usec = 1250.0;  // 10 Gb/s
  m.connection_setup_us = 500;
  m.local_invoke_us = 1;
  return m;
}

template <typename... Parts>
[[noreturn]] void fail(const Parts&... parts) {
  std::cerr << "FAIL: ";
  (std::cerr << ... << parts) << "\n";
  std::exit(1);
}

// One run of any mode.  Every run snapshots the SAME registry counters
// through the same keys, so a field a mode does not exercise reads 0.
struct StormRun {
  int nodes = 0;
  int threads = 0;  // 0 = single-queue driver engine
  std::int64_t calls = 0;
  double wall_sec = 0;
  double calls_per_sec = 0;
  std::int64_t evictions = 0;
  std::int64_t retransmissions = 0;
  std::int64_t duplicates_suppressed = 0;
  std::int64_t predicate_checks = 0;  // driver engine only
  std::int64_t windows = 0;           // sharded engine only
  std::int64_t order_violations = 0;
  std::vector<std::uint64_t> node_digests;
  // Chaos mode only:
  std::int64_t faults_applied = 0;
  std::int64_t messages_dropped_by_schedule = 0;
  std::int64_t evicted_reexecutions = 0;
  std::int64_t fifo_violations = 0;
  bool exactly_once = true;
  // Chaos mode HA control plane (directors on nodes 0-2):
  std::int64_t elections_held = 0;
  std::int64_t leader_changes = 0;
  std::int64_t directory_failovers = 0;
  std::int64_t directory_resolves = 0;
  std::int64_t election_time_us = 0;  // summed candidacy->majority, sim us
  std::int64_t failover_time_us = 0;  // summed failed-over call latency
  // Batch mode only (zeros elsewhere):
  std::int64_t messages_sent = 0;
  std::int64_t batches_sent = 0;
  std::int64_t batched_invokes = 0;
  std::int64_t batch_singletons = 0;
  std::int64_t reply_cache_grows = 0;
  std::int64_t reply_cache_shrinks = 0;
  std::int64_t reply_cache_capacity_highwater = 0;  // summed across nodes
};

template <typename Counter>
void snapshot_counters(StormRun& r, Counter&& counter) {
  r.evictions = counter("rmi.reply_cache_evictions");
  r.retransmissions = counter("rmi.retransmissions");
  r.duplicates_suppressed = counter("rmi.duplicates_suppressed");
  r.evicted_reexecutions = counter("rmi.evicted_reexecutions");
  r.fifo_violations = counter("net.fifo_violations");
  r.faults_applied = counter("net.faults_applied");
  r.messages_dropped_by_schedule = counter("net.messages_dropped_by_schedule");
  r.elections_held = counter("rts.elections_held");
  r.leader_changes = counter("rts.leader_changes");
  r.directory_failovers = counter("rmi.directory_failovers");
  r.directory_resolves = counter("rts.dir_resolves");
  r.election_time_us = counter("rts.election_time_us");
  r.failover_time_us = counter("rmi.directory_failover_time_us");
  r.messages_sent = counter("net.messages_sent");
  r.batches_sent = counter("rmi.batches_sent");
  r.batched_invokes = counter("rmi.batched_invokes");
  r.batch_singletons = counter("rmi.batch_singletons");
  r.reply_cache_grows = counter("rmi.reply_cache_grows");
  r.reply_cache_shrinks = counter("rmi.reply_cache_shrinks");
  r.reply_cache_capacity_highwater =
      counter("rmi.reply_cache_capacity_highwater");
}

// FNV-1a fold of one (caller, seq) delivery into a node's order digest.
std::uint64_t fold_digest(std::uint64_t digest, std::uint64_t caller,
                          std::uint64_t seq) {
  constexpr std::uint64_t kPrime = 0x100000001B3ull;
  digest = (digest ^ caller) * kPrime;
  digest = (digest ^ seq) * kPrime;
  return digest;
}

// One windowed pipeline per directed link; the callback chains the next
// call so each link keeps its window of requests in flight until drained.
struct Link {
  mage::rmi::Transport* transport;
  mage::common::NodeId dst;
  std::int64_t next_seq = 0;
  std::int64_t total_calls = kCallsPerLink;
  // Sharded mode: completions are counted per SOURCE node so each slot has
  // exactly one writing shard; the driver predicate sums them at window
  // barriers (all workers parked — no torn reads possible).
  std::int64_t* completed = nullptr;
  mage::rmi::CallOptions options{};
};

// Request bodies depend only on seq, so every link shares one immutable
// table built before the timed region: launch() bumps a refcount per call
// instead of running a Writer — the bench measures the RMI spine, not
// payload construction.
const mage::serial::Buffer& storm_body(std::int64_t seq) {
  static const std::vector<mage::serial::Buffer> bodies = [] {
    std::vector<mage::serial::Buffer> v;
    v.reserve(kCallsPerLink);
    for (int s = 0; s < kCallsPerLink; ++s) {
      mage::serial::Writer w(8);
      w.write_u64(static_cast<std::uint64_t>(s));
      v.push_back(w.take());
    }
    return v;
  }();
  return bodies[static_cast<std::size_t>(seq)];
}

void launch(Link& link) {
  if (link.next_seq >= link.total_calls) return;
  // Interned once (thread-safe local-static init, first hit is driver-side
  // setup): re-interning per call would contend the registry mutex across
  // every worker and pollute the threaded measurement.
  static const mage::common::VerbId echo =
      mage::common::intern_verb("storm.echo");
  link.transport->call(link.dst, echo,
                       storm_body(link.next_seq++),
                       [&link](mage::rmi::CallResult r) {
                         if (!r.ok) {
                           std::cerr << "storm call failed: " << r.error
                                     << "\n";
                           std::exit(1);
                         }
                         ++*link.completed;
                         launch(link);
                       },
                       link.options);
}

// Per-receiver state, owned by that node's shard (or the driver).
struct NodeWatch {
  std::vector<std::int64_t> last_seq;  // per sender; FIFO check
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::int64_t order_violations = 0;
  // Chaos mode: executions per (caller, seq) — the at-most-once witness.
  std::vector<std::int8_t> exec_counts;
};

// Which links exist and how many calls each carries.  Nodes are split into
// `sites` equal clusters: all-to-all links inside each site, plus links
// between the sites' first nodes (their leaders) across kWanHopUs of extra
// latency.  The all-to-all storm is one site.
struct MeshShape {
  int nodes = 0;
  int sites = 1;
  int calls_per_link = kCallsPerLink;  // links inside a site
  int cross_calls_per_link = 0;        // leader <-> leader links
};

struct MeshOptions {
  std::size_t cache_capacity = kCacheCapacity;
  // Chaos mode: loss makes first arrivals overtake retransmitted
  // predecessors, so app-level execution order is legitimately non-
  // monotonic per link — the service-level seq check is replaced by the
  // network's wire-FIFO self-check plus per-request execution counters.
  bool chaos = false;
  mage::rmi::CallOptions call_options{};
  // Batch mode: coalesce each node's per-link invokes into one batch
  // frame per flush quantum (0 = batching off), and let the at-most-once
  // ring grow from `cache_capacity` under eviction pressure instead of
  // churning — ROADMAP item 1's two levers, measured together.
  mage::common::SimDuration flush_quantum_us = 0;
  bool adaptive_cache = false;
};

// Wires up nodes/transports/services/links on `net`; shared by both
// engines so the workload is byte-identical.
struct StormMesh {
  std::vector<mage::common::NodeId> ids;
  std::vector<std::unique_ptr<mage::rmi::Transport>> transports;
  std::vector<NodeWatch> watch;          // indexed by node value
  std::vector<std::int64_t> completed;   // per source node
  std::vector<Link> links;
  std::int64_t total_calls = 0;
  std::size_t stride = 0;  // exec_counts slots per caller

  StormMesh(mage::net::Network& net, const MeshShape& shape,
            const MeshOptions& options = {}) {
    using namespace mage;
    const int n = shape.nodes;
    const int per_site = n / shape.sites;
    for (int i = 0; i < n; ++i) {
      std::string label = "n";  // not "n" + ...: gcc 12 -Wrestrict noise
      label += std::to_string(i);
      ids.push_back(net.add_node(std::move(label)));
    }
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        if (a / per_site != b / per_site) {
          net.set_extra_latency(ids[a], ids[b], kWanHopUs);
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      transports.push_back(std::make_unique<rmi::Transport>(
          net, ids[i], options.cache_capacity));
      if (options.flush_quantum_us > 0) {
        rmi::BatchOptions batch;
        batch.enabled = true;
        batch.flush_quantum_us = options.flush_quantum_us;
        transports.back()->set_batching(batch);
      }
      if (options.adaptive_cache) {
        rmi::AdaptiveCacheOptions adaptive;
        adaptive.enabled = true;
        adaptive.floor = options.cache_capacity;
        adaptive.ceiling = rmi::Transport::kReplyCacheCapacity;
        transports.back()->set_adaptive_reply_cache(adaptive);
      }
    }
    stride = static_cast<std::size_t>(
        std::max(shape.calls_per_link, shape.cross_calls_per_link));
    watch.resize(static_cast<std::size_t>(n) + 1);
    for (auto& w : watch) {
      w.last_seq.assign(static_cast<std::size_t>(n) + 1, -1);
      if (options.chaos) {
        w.exec_counts.assign((static_cast<std::size_t>(n) + 1) * stride, 0);
      }
    }
    completed.assign(static_cast<std::size_t>(n) + 1, 0);

    const bool chaos = options.chaos;
    const common::VerbId echo = common::intern_verb("storm.echo");
    for (int i = 0; i < n; ++i) {
      NodeWatch* w = &watch[ids[i].value()];
      transports[i]->register_service(
          echo, [w, chaos, stride = stride](common::NodeId caller,
                                            const serial::BufferChain& body,
                                            rmi::Replier replier) {
            serial::ChainReader r(body);
            const auto seq = static_cast<std::int64_t>(r.read_u64());
            if (chaos) {
              ++w->exec_counts[caller.value() * stride +
                               static_cast<std::size_t>(seq)];
            } else {
              auto& last = w->last_seq[caller.value()];
              if (seq <= last) ++w->order_violations;
              last = seq;
            }
            w->digest = fold_digest(w->digest, caller.value(),
                                    static_cast<std::uint64_t>(seq));
            replier.ok(body);
          });
    }

    auto add_link = [&](int src, int dst, int calls) {
      links.push_back(Link{transports[src].get(), ids[dst], 0, calls,
                           &completed[ids[src].value()],
                           options.call_options});
      total_calls += calls;
    };
    for (int base = 0; base < n; base += per_site) {
      for (int i = base; i < base + per_site; ++i) {
        for (int j = base; j < base + per_site; ++j) {
          if (i != j) add_link(i, j, shape.calls_per_link);
        }
      }
    }
    for (int a = 0; a < n; a += per_site) {
      for (int b = 0; b < n; b += per_site) {
        if (a != b) add_link(a, b, shape.cross_calls_per_link);
      }
    }
  }

  // True when every link's (caller, seq) executed exactly once.
  [[nodiscard]] bool exactly_once() const {
    for (const Link& link : links) {
      const auto& counts = watch[link.dst.value()].exec_counts;
      const std::size_t base = link.transport->self().value() * stride;
      for (std::int64_t seq = 0; seq < link.total_calls; ++seq) {
        if (counts[base + static_cast<std::size_t>(seq)] != 1) return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::int64_t total_completed() const {
    std::int64_t sum = 0;
    for (std::int64_t c : completed) sum += c;
    return sum;
  }
};

// The one timed region: launch every link `window` calls deep, run the
// engine until every call completed and `also` (if set) holds, then
// snapshot the counters and per-node digests.  `run_until(done)` is the
// engine's blocking run; `counter(key)` reads its stats registry.
template <typename RunUntil, typename Counter>
StormRun run_mesh(StormMesh& mesh, int window, RunUntil&& run_until,
                  Counter&& counter, const std::function<bool()>& also = {}) {
  StormRun r;
  r.nodes = static_cast<int>(mesh.ids.size());
  r.calls = mesh.total_calls;
  const auto start = Clock::now();
  for (auto& link : mesh.links) {
    for (int w = 0; w < window; ++w) launch(link);
  }
  const std::int64_t checks_before = counter("sim.predicate_checks");
  const bool done = run_until(std::function<bool()>([&] {
    return mesh.total_completed() == r.calls && (!also || also());
  }));
  r.wall_sec = std::chrono::duration<double>(Clock::now() - start).count();
  if (!done) {
    std::cerr << "storm drained with " << mesh.total_completed() << "/"
              << r.calls << " calls completed\n";
    std::exit(1);
  }
  r.calls_per_sec = static_cast<double>(r.calls) / r.wall_sec;
  r.predicate_checks = counter("sim.predicate_checks") - checks_before;
  snapshot_counters(r, counter);
  for (std::size_t i = 1; i < mesh.watch.size(); ++i) {
    r.order_violations += mesh.watch[i].order_violations;
    r.node_digests.push_back(mesh.watch[i].digest);
  }
  if (r.order_violations != 0) {
    fail(r.order_violations, " per-link ordering violations");
  }
  return r;
}

// A sharded engine and its network: `mapping` places node i on a shard
// (empty = one node per shard).
struct ShardedNet {
  mage::sim::ShardedSim ssim;
  mage::net::Network net;

  ShardedNet(const mage::net::CostModel& model, std::size_t shards,
             std::vector<std::size_t> mapping = {})
      : ssim(shards, 2026, mage::net::Network::min_link_latency(model)),
        net(ssim, model, std::move(mapping)) {}

  StormRun run(StormMesh& mesh, int window, int threads,
               const std::function<bool()>& also = {}) {
    StormRun r = run_mesh(
        mesh, window,
        [&](const std::function<bool()>& done) {
          return ssim.run_until(done, threads);
        },
        [&](const char* key) { return ssim.counter(key); }, also);
    // Record the parallelism that actually existed: the engine clamps the
    // worker pool to the shard count, and the scaling gate keys off this.
    r.threads = std::min(threads, static_cast<int>(ssim.shard_count()));
    r.windows = ssim.windows();
    return r;
  }
};

// The clean storms' fixed-capacity ring must wrap, or the storm is too
// small to exercise eviction.
void require_evictions(const StormRun& r) {
  if (r.evictions == 0) {
    fail("reply-cache ring never evicted — storm too small for cache "
         "capacity");
  }
}

StormRun run_storm(int n) {
  using namespace mage;
  sim::Simulation sim(2026);
  net::Network net(sim, net::CostModel::zero());
  StormMesh mesh(net, MeshShape{n});
  StormRun r = run_mesh(
      mesh, kWindow,
      [&](const std::function<bool()>& done) { return sim.run_until(done); },
      [&](const char* key) { return sim.stats().counter(key); });
  require_evictions(r);
  return r;
}

// The all-to-all storm on the sharded engine, one node per shard.
// `batched` is ROADMAP item 1's acceptance run: (a) every node's per-link
// invokes coalesced into one batch frame per lookahead window (flush
// quantum == the conservative lookahead, so request batches and their
// reply batches pipeline one window apart) and (b) the reply cache growing
// adaptively from the deliberately small 512-entry floor instead of
// churning 111k evictions.  Everything the clean storm asserts (per-link
// FIFO, determinism across worker counts) must still hold.
StormRun run_storm_sharded(int n, int threads, bool batched) {
  using namespace mage;
  ShardedNet engine(storm_model(), static_cast<std::size_t>(n));
  MeshOptions options;
  if (batched) {
    options.flush_quantum_us = net::Network::min_link_latency(storm_model());
    options.adaptive_cache = true;
  }
  StormMesh mesh(engine.net, MeshShape{n}, options);
  // Batching is what makes deep pipelines affordable: kWindow outstanding
  // invokes per link cost one envelope each unbatched, but a whole window's
  // worth rides a single frame here — so the acceptance run drives the
  // pipeline four windows deep and lets the coalescer amortize them.
  StormRun r = engine.run(mesh, batched ? 4 * kWindow : kWindow, threads);
  if (!batched) {
    require_evictions(r);
    return r;
  }
  if (r.batches_sent == 0 || r.batched_invokes < 2 * r.batches_sent) {
    fail("batching never coalesced (batches=", r.batches_sent,
         ", batched invokes=", r.batched_invokes, ")");
  }
  if (r.reply_cache_grows == 0) {
    fail("adaptive reply cache never grew from the ", kCacheCapacity,
         "-entry floor");
  }
  // The headline: the workload that churned 111k evictions at a fixed
  // 512-entry ring now stays under 1% of calls.
  if (r.evictions * 100 >= r.calls) {
    fail(r.evictions, " evictions on ", r.calls,
         " calls (>= 1%) despite adaptive sizing");
  }
  return r;
}

// The fixed degraded-mode program: two loss bursts, a partition/heal of
// the (n1, n2) link, and rolling crashes that take down EVERY director
// (nodes 0-2) at some point — at most one at a time, so the quorum can
// always re-form and the sitting leader is guaranteed to die at least
// once.  Absolute times — the storm runs ~70-90 simulated ms at any mesh
// size, and the generous retry budget below rides out every outage.
mage::net::FaultSchedule chaos_schedule(
    const std::vector<mage::common::NodeId>& ids) {
  mage::net::FaultSchedule s;
  s.crash_for(5'000, ids[0], 6'000);
  s.loss_burst(5'000, 0.10, 10'000);
  s.partition_for(8'000, ids[0], ids[1], 20'000);
  s.crash_for(20'000, ids[2], 15'000);
  s.crash_for(37'000, ids[1], 6'000);
  s.loss_burst(40'000, 0.20, 10'000);
  return s;
}

constexpr mage::common::SimTime kChaosHorizonUs = 55'000;

StormRun run_storm_chaos(int n, int threads) {
  using namespace mage;
  ShardedNet engine(storm_model(), static_cast<std::size_t>(n));
  net::Network& net = engine.net;
  MeshOptions options;
  options.chaos = true;
  // Adequately sized: every in-flight retransmission finds its entry, so
  // at-most-once must hold exactly (asserted via execution counters).
  options.cache_capacity = rmi::Transport::kReplyCacheCapacity;
  options.call_options = rmi::CallOptions{/*retry_timeout_us=*/30'000,
                                          /*max_attempts=*/64};
  StormMesh mesh(net, MeshShape{n}, options);

  net.set_fifo_checks(true);
  net.set_fault_schedule(chaos_schedule(mesh.ids));

  // HA control plane under the same schedule: a 3-member director quorum
  // on nodes 0-2 (each of which the schedule crashes once), pre-seeded
  // with one placement record, and a resolver on node 3 probing it every
  // 2 simulated ms for the whole chaos window.  The resolver's preferred
  // member starts at node 0 — dead at 5ms — so the failover path is
  // exercised deterministically.
  const std::vector<mage::common::NodeId> directors_ids{
      mesh.ids[0], mesh.ids[1], mesh.ids[2]};
  std::vector<std::unique_ptr<rts::Director>> directors;
  for (int i = 0; i < 3; ++i) {
    directors.push_back(std::make_unique<rts::Director>(
        *mesh.transports[static_cast<std::size_t>(i)], directors_ids));
  }
  for (auto& d : directors) {
    d->seed(rts::proto::PlacementRecord{"storm.obj", "Echo", mesh.ids[3],
                                        /*is_public=*/true, /*epoch=*/1});
  }
  for (auto& d : directors) d->start();

  rts::DirectoryClient resolver(*mesh.transports[3], directors_ids);
  auto& resolver_sim = net.node_sim(mesh.ids[3]);
  bool resolver_done = false;
  std::int64_t resolver_ok = 0;
  std::function<void()> probe = [&] {
    resolver.resolve(
        "storm.obj",
        [&](std::optional<rts::DirectoryClient::Resolution> r) {
          if (r.has_value()) ++resolver_ok;
          if (resolver_sim.now() >= kChaosHorizonUs) {
            resolver_done = true;  // set inside a waking callback
            return;
          }
          resolver_sim.schedule_after(2'000, probe, sim::Wake::No);
        });
  };
  resolver_sim.schedule_at(1'000, [&probe] { probe(); }, sim::Wake::No);

  // Horizon ticks keep virtual time advancing past the last schedule entry
  // even if the storm drains early, so the whole program always applies.
  for (common::SimTime t = 1'000; t <= kChaosHorizonUs; t += 1'000) {
    net.node_sim(mesh.ids[0]).schedule_at(t, [] {}, sim::Wake::No);
  }

  StormRun r = engine.run(mesh, kWindow, threads, [&] {
    return resolver_done && net.pending_fault_events() == 0;
  });
  if (resolver_ok == 0) fail("no directory resolve ever succeeded under chaos");
  r.exactly_once = mesh.exactly_once();
  if (!r.exactly_once) fail("some chaos request did not execute exactly once");
  if (r.fifo_violations != 0) {
    fail(r.fifo_violations, " wire-FIFO violations under chaos");
  }
  if (r.evicted_reexecutions != 0) {
    fail(r.evicted_reexecutions,
         " eviction-caused re-executions despite an adequately sized reply "
         "cache");
  }
  if (r.faults_applied < 8 || r.messages_dropped_by_schedule == 0 ||
      r.retransmissions == 0) {
    fail("chaos run was not chaotic (faults_applied=", r.faults_applied,
         ", scheduled drops=", r.messages_dropped_by_schedule,
         ", retransmissions=", r.retransmissions, ")");
  }
  // HA control plane: rolling director crashes guarantee the sitting
  // leader died at least once (>= 2 elections) and that the resolver's
  // preferred member was dead for at least one probe (>= 1 failover).
  if (r.elections_held < 2 || r.directory_failovers < 1 ||
      r.directory_resolves < 1) {
    fail("chaos control plane did not fail over (elections_held=",
         r.elections_held, ", directory_failovers=", r.directory_failovers,
         ", directory_resolves=", r.directory_resolves, ")");
  }
  return r;
}

// --- WAN scaling curves (--wan) ---------------------------------------------
//
// The all-to-all storm is the sharded engine's WORST case: every link is
// cross-shard, so the slowest link's lookahead throttles every window and
// the speedup on few cores hovers near 1.  The WAN mesh is the geometry
// the engine is FOR: `sites` clusters of LAN-co-located nodes (all-to-all
// chatter inside each site), joined by ~20ms WAN hops that only the site
// leaders cross.  An affinity mapping puts each site on one shard, so the
// chatter becomes intra-shard direct schedules and the only cross-shard
// traffic rides links whose per-pair lookahead is the WAN hop — windows
// tens of milliseconds of virtual time wide, one barrier each.  The curve
// records throughput at 1/2/4/8 workers plus an identity-mapped (one node
// per shard) control run, whose per-node digests must match the clustered
// runs bit for bit — the mapping-independence contract on real hardware.

// The communication graph the workload above implies, for the affinity
// clusterer: what the mapping layer would learn from traffic counters in a
// real deployment, the bench simply knows.
std::vector<mage::net::AffinityEdge> wan_affinity_edges(const MeshShape& s) {
  std::vector<mage::net::AffinityEdge> edges;
  const int per_site = s.nodes / s.sites;
  for (int base = 0; base < s.nodes; base += per_site) {
    for (int i = base; i < base + per_site; ++i) {
      for (int j = i + 1; j < base + per_site; ++j) {
        edges.push_back({static_cast<std::size_t>(i),
                         static_cast<std::size_t>(j),
                         2.0 * s.calls_per_link});
      }
    }
  }
  for (int a = 0; a < s.nodes; a += per_site) {
    for (int b = a + per_site; b < s.nodes; b += per_site) {
      edges.push_back({static_cast<std::size_t>(a),
                       static_cast<std::size_t>(b),
                       2.0 * s.cross_calls_per_link});
    }
  }
  return edges;
}

// One point of a curve: one shard per site on the affinity mapping, or
// one shard per node (`identity`, the control run).
StormRun run_storm_wan(const MeshShape& shape, int workers, bool identity) {
  using namespace mage;
  const net::CostModel model = net::CostModel::wan_site();
  const auto shards = static_cast<std::size_t>(identity ? shape.nodes
                                                        : shape.sites);
  std::vector<std::size_t> mapping;
  if (!identity) {
    mapping = net::affinity_mapping(static_cast<std::size_t>(shape.nodes),
                                    shards, wan_affinity_edges(shape));
  }
  ShardedNet engine(model, shards, std::move(mapping));
  MeshOptions options;
  options.cache_capacity = rmi::Transport::kReplyCacheCapacity;
  StormMesh mesh(engine.net, shape, options);
  // Derive the per-pair lookahead matrix from the topology: cross-site
  // shard pairs get base + kWanHopUs, giving every shard a ~20ms window.
  engine.net.refresh_pair_lookaheads();
  return engine.run(mesh, kWindow, workers);
}

// Annotation, not data-laundering: a worker count above the machine's
// hardware threads CANNOT speed up (the workers time-share one core and
// pay the barriers), so the gate reads this flag and the hardware_threads
// field instead of treating an oversubscribed ~1.0x as a regression.
bool oversubscribed(int workers) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 && static_cast<unsigned>(workers) > hw;
}

// One scaling curve: the worker ladder on the affinity mapping, plus (for
// the headline mesh) the identity-mapped control whose digests prove
// mapping independence.
struct WanCurve {
  MeshShape shape;
  std::vector<StormRun> points;
  std::optional<StormRun> identity;
  double speedup = 0.0;       // best non-oversubscribed point vs 1 worker
  bool deterministic = true;
  bool mapping_independent = true;
};

WanCurve run_wan_curve(const MeshShape& shape, const std::vector<int>& ladder,
                       bool run_identity) {
  WanCurve curve;
  curve.shape = shape;
  for (const int w : ladder) {
    curve.points.push_back(run_storm_wan(shape, w, /*identity=*/false));
    const StormRun& r = curve.points.back();
    std::cout << "wan " << shape.nodes << " nodes / " << shape.sites
              << " sites, " << r.threads << " workers"
              << (oversubscribed(r.threads) ? " (oversubscribed)" : "")
              << ": " << static_cast<std::int64_t>(r.calls_per_sec)
              << " calls/sec, " << r.windows << " windows\n";
    if (r.node_digests != curve.points.front().node_digests) {
      curve.deterministic = false;
    }
  }
  const double base = curve.points.front().calls_per_sec;
  for (const StormRun& r : curve.points) {
    if (!oversubscribed(r.threads)) {
      curve.speedup = std::max(curve.speedup, r.calls_per_sec / base);
    }
  }
  if (run_identity) {
    curve.identity = run_storm_wan(
        shape,
        std::min(8, static_cast<int>(
                        std::max(1u, std::thread::hardware_concurrency()))),
        /*identity=*/true);
    curve.mapping_independent =
        curve.identity->node_digests == curve.points.front().node_digests;
    std::cout << "wan identity control: " << curve.identity->windows
              << " windows (vs " << curve.points.front().windows
              << " clustered); per-node digests "
              << (curve.mapping_independent ? "identical" : "DIVERGED")
              << "\n";
    if (!curve.mapping_independent) {
      fail("per-node delivery order depends on the node:shard mapping");
    }
  }
  if (!curve.deterministic) {
    fail("wan per-node digests differ across worker counts");
  }
  return curve;
}

void print_run(const StormRun& r) {
  const bool chaos = r.faults_applied > 0;
  std::cout << r.nodes << " nodes";
  if (r.threads > 0) std::cout << " x " << r.threads << " threads";
  if (chaos) std::cout << " [chaos]";
  std::cout << ": " << static_cast<std::int64_t>(r.calls_per_sec)
            << " calls/sec (" << r.calls << " calls, " << r.wall_sec
            << " s), " << r.evictions << " evictions, " << r.retransmissions
            << " retransmissions, ";
  if (r.threads > 0) {
    std::cout << r.windows << " windows, ";
  } else {
    std::cout << r.predicate_checks << " predicate checks, ";
  }
  if (chaos) {
    std::cout << r.faults_applied << " faults applied, "
              << r.messages_dropped_by_schedule << " scheduled drops, "
              << r.elections_held << " elections ("
              << r.election_time_us << " us), " << r.directory_failovers
              << " directory failovers (" << r.failover_time_us << " us), "
              << r.directory_resolves << " resolves\n";
  } else {
    std::cout << r.order_violations << " order violations\n";
  }
}

// The same storm at 1 and at T workers: FAILS unless both runs delivered
// in the same per-node order, then records the speedup.
struct Pair {
  StormRun single;
  StormRun multi;
  bool deterministic = false;
  double speedup = 0.0;
};

template <typename Run>
Pair run_pair(const char* mode, int threads, Run&& run) {
  Pair p;
  p.single = run(1);
  print_run(p.single);
  p.multi = run(threads);
  print_run(p.multi);
  p.deterministic = p.single.node_digests == p.multi.node_digests;
  if (!p.deterministic) {
    fail(mode, " per-node delivery order differs between 1 and ", threads,
         " worker threads — sharded determinism contract broken");
  }
  p.speedup = p.multi.calls_per_sec / p.single.calls_per_sec;
  return p;
}

void write_json_run(std::ofstream& json, const StormRun& r,
                    const char* indent) {
  json << indent << "{\n"
       << indent << "  \"nodes\": " << r.nodes << ",\n"
       << indent << "  \"threads\": " << r.threads << ",\n"
       << indent << "  \"calls\": " << r.calls << ",\n"
       << indent << "  \"wall_sec\": " << r.wall_sec << ",\n"
       << indent << "  \"calls_per_sec\": " << r.calls_per_sec << ",\n"
       << indent << "  \"reply_cache_evictions\": " << r.evictions << ",\n"
       << indent << "  \"retransmissions\": " << r.retransmissions << ",\n"
       << indent << "  \"duplicates_suppressed\": " << r.duplicates_suppressed
       << ",\n"
       << indent << "  \"predicate_checks\": " << r.predicate_checks << ",\n"
       << indent << "  \"windows\": " << r.windows << ",\n"
       << indent << "  \"order_violations\": " << r.order_violations << ",\n"
       << indent << "  \"faults_applied\": " << r.faults_applied << ",\n"
       << indent << "  \"messages_dropped_by_schedule\": "
       << r.messages_dropped_by_schedule << ",\n"
       << indent << "  \"evicted_reexecutions\": " << r.evicted_reexecutions
       << ",\n"
       << indent << "  \"fifo_violations\": " << r.fifo_violations << ",\n"
       << indent << "  \"messages_sent\": " << r.messages_sent << ",\n"
       << indent << "  \"batches_sent\": " << r.batches_sent << ",\n"
       << indent << "  \"batched_invokes\": " << r.batched_invokes << ",\n"
       << indent << "  \"batch_singletons\": " << r.batch_singletons << ",\n"
       << indent << "  \"reply_cache_grows\": " << r.reply_cache_grows
       << ",\n"
       << indent << "  \"reply_cache_shrinks\": " << r.reply_cache_shrinks
       << ",\n"
       << indent << "  \"reply_cache_capacity_highwater\": "
       << r.reply_cache_capacity_highwater << ",\n"
       << indent << "  \"failover\": {\n"
       << indent << "    \"elections_held\": " << r.elections_held << ",\n"
       << indent << "    \"leader_changes\": " << r.leader_changes << ",\n"
       << indent << "    \"directory_failovers\": " << r.directory_failovers
       << ",\n"
       << indent << "    \"directory_resolves\": " << r.directory_resolves
       << ",\n"
       << indent << "    \"election_time_us\": " << r.election_time_us
       << ",\n"
       << indent << "    \"failover_time_us\": " << r.failover_time_us << "\n"
       << indent << "  }\n"
       << indent << "}";
}

// `extra` holds the block's own fields, each a `"key": value,\n` line.
void write_json_pair(std::ofstream& json, const char* name, const Pair& p,
                     const std::string& extra = "") {
  json << ",\n  \"" << name << "\": {\n"
       << "    \"threads\": " << p.multi.threads << ",\n"
       << "    \"oversubscribed\": " << oversubscribed(p.multi.threads)
       << ",\n"
       << "    \"deterministic\": " << p.deterministic << ",\n"
       << "    \"speedup\": " << p.speedup << ",\n"
       << extra << "    \"single\":\n";
  write_json_run(json, p.single, "      ");
  json << ",\n    \"multi\":\n";
  write_json_run(json, p.multi, "      ");
  json << "\n  }";
}

template <typename T>
std::string json_field(const char* key, const T& value) {
  std::ostringstream os;
  os << std::boolalpha << "    \"" << key << "\": " << value << ",\n";
  return os.str();
}

// Strict positive-integer parse; exits with usage on anything else so a
// CI typo cannot silently skip the threaded determinism/scaling check.
int parse_positive(const char* what, const char* arg) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || v < 1 || v > 1'000'000) {
    std::cerr << "bench_storm: bad " << what << " '" << arg
              << "'\nusage: bench_storm [N] [--threads T]\n";
    std::exit(2);
  }
  return static_cast<int>(v);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes{4, 8, 16};
  int threads = 0;
  bool chaos = false;
  bool glb = false;
  bool wan = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "bench_storm: --threads needs a value\n";
        return 2;
      }
      threads = parse_positive("thread count", argv[++i]);
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else if (std::strcmp(argv[i], "--glb") == 0) {
      glb = true;
    } else if (std::strcmp(argv[i], "--wan") == 0) {
      wan = true;
    } else {
      sizes = {parse_positive("node count", argv[i])};
    }
  }
  if (chaos && threads == 0) {
    std::cerr << "bench_storm: --chaos needs --threads (it measures the "
                 "sharded engine's degraded mode)\n";
    return 2;
  }
  if (chaos && sizes.back() < 4) {
    std::cerr << "bench_storm: --chaos needs >= 4 nodes (the schedule "
                 "partitions one link and crashes a third node)\n";
    return 2;
  }

  std::vector<StormRun> runs;
  std::optional<Pair> clean;
  std::optional<Pair> batch;
  std::optional<Pair> degraded;
  if (threads > 0) {
    const int n = sizes.back();
    // Driver-engine run first, so the JSON records driver vs sharded-1 vs
    // sharded-T on the same machine state.
    runs.push_back(run_storm(n));
    print_run(runs.back());
    clean = run_pair("sharded", threads,
                     [n](int t) { return run_storm_sharded(n, t, false); });
    std::cout << "speedup: " << clean->speedup << "x with "
              << clean->multi.threads << " threads ("
              << std::thread::hardware_concurrency()
              << " hardware cores); per-node order digests identical\n";
    batch = run_pair("batched", threads,
                     [n](int t) { return run_storm_sharded(n, t, true); });
    std::cout << "batch: "
              << batch->multi.calls_per_sec / clean->multi.calls_per_sec
              << "x of unbatched throughput ("
              << static_cast<std::int64_t>(batch->multi.calls_per_sec)
              << " calls/sec, "
              << (batch->multi.batched_invokes /
                  std::max<std::int64_t>(batch->multi.batches_sent, 1))
              << " invokes/batch, " << batch->multi.evictions
              << " evictions); digests identical\n";
    if (chaos) {
      degraded = run_pair("chaos", threads,
                          [n](int t) { return run_storm_chaos(n, t); });
      std::cout << "chaos: " << degraded->speedup
                << "x degraded-mode speedup; "
                << degraded->multi.calls_per_sec / clean->multi.calls_per_sec
                << "x of clean throughput under faults; digests identical; "
                   "every request executed exactly once\n";
    }
  } else {
    for (int n : sizes) {
      runs.push_back(run_storm(n));
      print_run(runs.back());
    }
  }

  // --- WAN scaling curves (see the block comment above wan_affinity_edges)
  std::vector<WanCurve> wan_curves;
  if (wan) {
    // 8 sites x 8 nodes, the headline mesh.
    wan_curves.push_back(run_wan_curve(MeshShape{64, 8, 200, 100},
                                       {1, 2, 4, 8}, /*run_identity=*/true));
    // 8 sites x 16 nodes: double the per-shard work.
    wan_curves.push_back(run_wan_curve(MeshShape{128, 8, 50, 50}, {1, 8},
                                       /*run_identity=*/false));
  }

  // --- lifeline GLB over DistMap (chaos schedule always on) -----------------
  struct GlbSeed {
    std::uint64_t seed = 0;
    mage::glb::GlbRun single;
    mage::glb::GlbRun multi;
    double single_sec = 0.0;
    double multi_sec = 0.0;
  };
  std::vector<GlbSeed> glb_seeds;
  bool glb_ok = true;
  bool glb_deterministic = true;
  bool glb_exactly_once = true;
  bool glb_migrated = true;
  if (glb) {
    for (const std::uint64_t seed : {11ull, 23ull, 47ull}) {
      mage::glb::GlbParams params;
      params.seed = seed;
      params.chaos = true;
      GlbSeed result;
      result.seed = seed;
      auto t0 = Clock::now();
      result.single = mage::glb::run_glb(params, 1);
      auto t1 = Clock::now();
      result.multi = mage::glb::run_glb(params, 8);
      auto t2 = Clock::now();
      result.single_sec = std::chrono::duration<double>(t1 - t0).count();
      result.multi_sec = std::chrono::duration<double>(t2 - t1).count();

      const bool completed = result.single.completed && result.multi.completed;
      const bool deterministic =
          result.single.digest == result.multi.digest &&
          result.single.processed == result.multi.processed &&
          result.single.migrations == result.multi.migrations &&
          result.single.lifeline_steals == result.multi.lifeline_steals;
      const bool exactly_once =
          result.single.exactly_once() && result.multi.exactly_once();
      const bool migrated =
          result.single.migrations >= 1 && result.multi.migrations >= 1;
      glb_deterministic = glb_deterministic && deterministic;
      glb_exactly_once = glb_exactly_once && exactly_once;
      glb_migrated = glb_migrated && migrated;
      glb_ok = glb_ok && completed && deterministic && exactly_once && migrated;

      std::cout << "glb seed " << seed << ": tree=" << result.single.tree_size
                << ", " << result.single.migrations << " migrations, "
                << result.single.lifeline_steals << " lifeline steals, "
                << result.single.faults_applied << " faults, "
                << result.single.requeues << " requeues; 1w "
                << result.single_sec << "s, 8w " << result.multi_sec << "s; "
                << (deterministic ? "digests identical" : "DIGESTS DIVERGED")
                << ", "
                << (exactly_once ? "exactly-once" : "EXACTLY-ONCE VIOLATED")
                << "\n";
      if (!completed) {
        std::cerr << "FAIL: glb seed " << seed
                  << " did not drain within the virtual-time deadline\n";
      }
      glb_seeds.push_back(std::move(result));
    }
  }

  // Every FAIL above exits before this point, so the flags below can only
  // record true in a file that exists — but the ACTUAL comparison results
  // are written anyway, so ci/check_storm_scaling.py gates on real data
  // rather than a constant if those paths are ever reordered.
  std::ofstream json("BENCH_storm.json");
  json << std::boolalpha << "{\n"
       << "  \"bench\": \"storm\",\n"
       << "  \"calls_per_link\": " << kCallsPerLink << ",\n"
       << "  \"window\": " << kWindow << ",\n"
       << "  \"reply_cache_capacity\": " << kCacheCapacity << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n";
  json << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    write_json_run(json, runs[i], "    ");
    json << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]";
  if (clean) {
    write_json_pair(json, "threaded", *clean);
    write_json_pair(
        json, "batch", *batch,
        json_field("vs_unbatched",
                   batch->multi.calls_per_sec / clean->multi.calls_per_sec) +
            json_field("flush_quantum_us",
                       mage::net::Network::min_link_latency(storm_model())));
  }
  if (degraded) {
    write_json_pair(
        json, "chaos", *degraded,
        json_field("exactly_once", degraded->single.exactly_once &&
                                       degraded->multi.exactly_once) +
            json_field("degraded_vs_clean", degraded->multi.calls_per_sec /
                                                clean->multi.calls_per_sec));
  }
  if (glb) {
    mage::glb::GlbParams defaults;
    json << ",\n  \"glb\": {\n"
         << "    \"nodes\": " << defaults.nodes << ",\n"
         << "    \"partitions\": " << defaults.partitions << ",\n"
         << "    \"threads\": 8,\n"
         << "    \"deterministic\": " << glb_deterministic << ",\n"
         << "    \"exactly_once\": " << glb_exactly_once << ",\n"
         << "    \"migrated\": " << glb_migrated << ",\n"
         << "    \"runs\": [\n";
    for (std::size_t i = 0; i < glb_seeds.size(); ++i) {
      const GlbSeed& s = glb_seeds[i];
      json << "      {\n"
           << "        \"seed\": " << s.seed << ",\n"
           << "        \"tree_size\": " << s.single.tree_size << ",\n"
           << "        \"digest\": " << s.single.digest << ",\n"
           << "        \"processed\": " << s.single.processed << ",\n"
           << "        \"migrations\": " << s.single.migrations << ",\n"
           << "        \"lifeline_steals\": " << s.single.lifeline_steals
           << ",\n"
           << "        \"rebalance_moves\": " << s.single.rebalance_moves
           << ",\n"
           << "        \"table_repairs\": " << s.single.table_repairs << ",\n"
           << "        \"dup_hits\": " << s.single.dup_hits << ",\n"
           << "        \"requeues\": " << s.single.requeues << ",\n"
           << "        \"exec_violations\": " << s.single.exec_violations
           << ",\n"
           << "        \"faults_applied\": " << s.single.faults_applied
           << ",\n"
           << "        \"wall_sec_single\": " << s.single_sec << ",\n"
           << "        \"wall_sec_multi\": " << s.multi_sec << "\n"
           << "      }" << (i + 1 < glb_seeds.size() ? "," : "") << "\n";
    }
    json << "    ]\n  }";
  }
  if (wan) {
    json << ",\n  \"scaling\": [\n";
    for (std::size_t c = 0; c < wan_curves.size(); ++c) {
      const WanCurve& curve = wan_curves[c];
      json << "    {\n"
           << "      \"nodes\": " << curve.shape.nodes << ",\n"
           << "      \"sites\": " << curve.shape.sites << ",\n"
           << "      \"wan_hop_us\": " << kWanHopUs << ",\n"
           << "      \"mapping\": \"affinity\",\n"
           << "      \"calls\": " << curve.points.front().calls << ",\n"
           << "      \"deterministic\": " << curve.deterministic << ",\n"
           << "      \"mapping_independent\": " << curve.mapping_independent
           << ",\n"
           << "      \"speedup\": " << curve.speedup << ",\n"
           << "      \"points\": [\n";
      for (std::size_t i = 0; i < curve.points.size(); ++i) {
        const StormRun& r = curve.points[i];
        json << "        {\n"
             << "          \"workers\": " << r.threads << ",\n"
             << "          \"oversubscribed\": " << oversubscribed(r.threads)
             << ",\n"
             << "          \"wall_sec\": " << r.wall_sec << ",\n"
             << "          \"calls_per_sec\": " << r.calls_per_sec << ",\n"
             << "          \"windows\": " << r.windows << ",\n"
             << "          \"messages_sent\": " << r.messages_sent << "\n"
             << "        }" << (i + 1 < curve.points.size() ? "," : "")
             << "\n";
      }
      json << "      ]";
      if (curve.identity) {
        json << ",\n      \"identity\": {\n"
             << "        \"workers\": " << curve.identity->threads << ",\n"
             << "        \"windows\": " << curve.identity->windows << ",\n"
             << "        \"calls_per_sec\": " << curve.identity->calls_per_sec
             << "\n      }";
      }
      json << "\n    }" << (c + 1 < wan_curves.size() ? "," : "") << "\n";
    }
    json << "  ]";
  }
  json << "\n}\n";
  std::cout << "wrote BENCH_storm.json\n";
  if (glb && !glb_ok) {
    std::cerr << "FAIL: glb workload violated its contract (see above); "
                 "BENCH_storm.json records the actual flags\n";
    return 1;
  }
  return 0;
}
