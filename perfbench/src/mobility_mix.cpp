// mobility_mix: the paper's own layer.  An 8-node MageSystem on the driver
// engine with the JDK 1.2.2-calibrated cost model; one caller runs a
// seeded mix of mobility operations over the paper's TestObject
// components: bind().invoke() through each core attribute (RPC, COD, REV,
// GREV, CLE, MA), reads beside writes, and explicit MageClient::moves that
// leave forwarding chains behind.  One call is in flight at a time, so
// core and rts (chase, class cache, migration, object serialization) carry
// the host time.
//
// The caller is a pure client, as in the paper's Table 3 testbed: the
// shared components live and move among the other seven namespaces, and
// COD takes its traditional factory form (TCOD: pull the class, make a
// fresh object, invoke it).  A shared component never lands in the
// caller's namespace, because pushing it out again from there breaks
// later lookups (README.md, "Known runtime defects").
#include <algorithm>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/mage.hpp"
#include "counters.hpp"
#include "rts/protocol.hpp"
#include "serial/writer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mage;

// The paper's test object: "a single integer attribute, which it
// increments, so its marshalling overhead is minimal".
class TestObject : public rts::MageObject {
 public:
  std::string class_name() const override { return "TestObject"; }
  void serialize(serial::Writer& w) const override { w.write_i64(value_); }
  void deserialize(serial::Reader& r) override { value_ = r.read_i64(); }

  std::int64_t increment() { return ++value_; }
  std::int64_t get() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

// Op weights (percent): every attribute appears often enough for a
// per-attribute median; moves are frequent enough to keep chains alive.
constexpr struct {
  MixOp op;
  int weight;
} kMix[] = {{MixOp::Rpc, 20},  {MixOp::Cod, 12},    {MixOp::Rev, 12},
            {MixOp::Grev, 12}, {MixOp::Cle, 20},    {MixOp::MAgent, 12},
            {MixOp::Move, 12}};

SpanKind span_of(MixOp op) {
  switch (op) {
    case MixOp::Rpc: return SpanKind::CoreRpc;
    case MixOp::Cod: return SpanKind::CoreCod;
    case MixOp::Rev: return SpanKind::CoreRev;
    case MixOp::Grev: return SpanKind::CoreGrev;
    case MixOp::Cle: return SpanKind::CoreCle;
    case MixOp::MAgent: return SpanKind::CoreMagent;
    case MixOp::Move: return SpanKind::MixMove;
  }
  return SpanKind::MixMove;
}

struct PlannedOp {
  MixOp op;
  std::size_t object;
  std::uint32_t target;  // node value (2..nodes); RPC/COD/CLE ignore it
  bool write;            // increment, else get
};

std::vector<PlannedOp> plan(std::uint64_t seed, const MixShape& shape) {
  common::Rng rng(seed ^ 0x313Cull);
  std::vector<PlannedOp> ops(static_cast<std::size_t>(shape.ops));
  for (auto& p : ops) {
    std::uint64_t r = rng.next_below(100);
    p.op = MixOp::Move;
    for (const auto& m : kMix) {
      if (r < static_cast<std::uint64_t>(m.weight)) {
        p.op = m.op;
        break;
      }
      r -= static_cast<std::uint64_t>(m.weight);
    }
    p.object = rng.next_below(static_cast<std::uint64_t>(shape.objects));
    p.target = static_cast<std::uint32_t>(
        rng.next_below(static_cast<std::uint64_t>(shape.nodes - 1)) + 2);
    p.write = rng.next_below(100) < 60;
  }
  return ops;
}

}  // namespace

const char* mix_op_name(MixOp op) {
  switch (op) {
    case MixOp::Rpc: return "rpc";
    case MixOp::Cod: return "cod";
    case MixOp::Rev: return "rev";
    case MixOp::Grev: return "grev";
    case MixOp::Cle: return "cle";
    case MixOp::MAgent: return "magent";
    case MixOp::Move: return "move";
  }
  return "?";
}

MixShape mix_shape(const RunConfig& cfg) {
  MixShape shape;
  shape.ops = std::max(200, 12'000 * cfg.scale_pct / 100);
  return shape;
}

std::vector<std::string> check_mix(const MixEvidence& e) {
  std::vector<std::string> failures;
  std::int64_t wrong = 0;
  for (std::size_t i = 0; i < e.expected.size(); ++i) {
    if (i >= e.returned.size() || e.returned[i] != e.expected[i]) ++wrong;
  }
  if (wrong != 0) {
    failures.push_back("mix: " + std::to_string(wrong) +
                       " ops returned a value the reference model rejects");
  }
  std::int64_t bad_counts = 0, bad_hosts = 0;
  for (std::size_t o = 0; o < e.model_counts.size(); ++o) {
    if (o >= e.final_counts.size() || e.final_counts[o] != e.model_counts[o]) ++bad_counts;
    if (o >= e.final_hosts.size() || e.final_hosts[o] != e.model_hosts[o]) ++bad_hosts;
  }
  if (bad_counts != 0) {
    failures.push_back("mix: " + std::to_string(bad_counts) +
                       " objects end with a wrong counter");
  }
  if (bad_hosts != 0) {
    failures.push_back("mix: " + std::to_string(bad_hosts) +
                       " objects end on the wrong node");
  }
  if (e.op_errors != 0) {
    failures.push_back("mix: " + std::to_string(e.op_errors) + " ops threw, first: " +
                       e.first_error);
  }
  return failures;
}

Round run_mobility_mix(const RunConfig& cfg, MixEvidence* evidence_out) {
  Round round;
  MixEvidence ev;
  const MixShape shape = mix_shape(cfg);
  const auto uobjects = static_cast<std::size_t>(shape.objects);

  const double setup_start = wall_now();
  rts::MageSystem system(net::CostModel::jdk122_classic(), cfg.seed);
  std::vector<common::NodeId> ids;
  for (int i = 0; i < shape.nodes; ++i) {
    ids.push_back(system.add_node("m" + std::to_string(i + 1)));
  }
  spread_link_latencies(system.network(), cfg.seed, 1'000);
  rts::ClassBuilder<TestObject>(system.world(), "TestObject", /*code_size=*/2048)
      .method("increment", &TestObject::increment)
      .method("get", &TestObject::get);

  // Every namespace but the caller's has the class deployed (the caller
  // pulls it on its first COD); objects start on seeded homes.
  for (std::size_t i = 1; i < ids.size(); ++i) system.install_class(ids[i], "TestObject");
  common::Rng rng(cfg.seed ^ 0x0B1Eull);
  std::vector<std::string> names(uobjects);
  ev.model_counts.assign(uobjects, 0);
  ev.model_hosts.assign(uobjects, 0);
  for (std::size_t o = 0; o < uobjects; ++o) {
    const common::NodeId home =
        ids[1 + rng.next_below(static_cast<std::uint64_t>(shape.nodes - 1))];
    names[o] = "obj" + std::to_string(o);
    system.client(home).create_component(names[o], "TestObject",
                                          /*is_public=*/true);
    ev.model_hosts[o] = home.value();
  }
  system.warm_all();
  rts::MageClient& caller = system.client(ids[0]);
  for (const auto& id : ids) {
    if (id != ids[0]) caller.ping(id);  // connection warm-up
  }
  const std::vector<PlannedOp> ops = plan(cfg.seed, shape);
  sim::Simulation& sim = system.simulation();
  round.setup_s = wall_now() - setup_start;

  const CounterSnapshot before = snapshot(sim);
  const common::SimTime start_us = sim.now();
  ev.returned.reserve(ops.size());
  ev.expected.reserve(ops.size());
  round.latencies_us.reserve(ops.size());

  const double cpu0 = cpu_now();
  const double wall0 = wall_now();
  std::uint64_t op_id = 0;
  for (const PlannedOp& p : ops) {
    const std::string& name = names[p.object];
    const common::NodeId target{p.target};
    const common::NodeId host{ev.model_hosts[p.object]};
    const common::SimTime issued = sim.now();
    std::int64_t value = -1;
    std::uint32_t new_host = host.value();
    try {
      Span span(span_of(p.op), op_id);
      auto invoke = [&](core::MobilityAttribute& attribute) {
        core::RemoteHandle handle = attribute.bind();
        Span inner(SpanKind::MixInvoke, op_id);
        return handle.invoke<std::int64_t>(p.write ? "increment" : "get");
      };
      switch (p.op) {
        case MixOp::Rpc: {
          core::Rpc a(caller, name, host);
          value = invoke(a);
          break;
        }
        case MixOp::Cod: {
          // TCOD: a fresh object from the class shipped by `target`.
          core::Cod a(caller, "TestObject", "codObject", target, core::FactoryMode::Factory);
          value = invoke(a);
          break;
        }
        case MixOp::Rev: {
          core::Rev a(caller, name, target);
          value = invoke(a);
          new_host = p.target;
          break;
        }
        case MixOp::Grev: {
          core::Grev a(caller, name, target);
          value = invoke(a);
          new_host = p.target;
          break;
        }
        case MixOp::Cle: {
          core::Cle a(caller, name);
          value = invoke(a);
          break;
        }
        case MixOp::MAgent: {
          core::MAgent a(caller, name, target);
          value = invoke(a);
          new_host = p.target;
          break;
        }
        case MixOp::Move:
          value = caller.move(name, target).value();
          new_host = p.target;
          break;
      }
    } catch (const std::exception& e) {
      if (ev.op_errors++ == 0) ev.first_error = std::string(mix_op_name(p.op)) + ": " + e.what();
    }
    const std::int64_t latency = sim.now() - issued;
    // The reference model: a write returns the new count, a read the
    // current one; a move returns the node it reached.
    std::int64_t expected = 0;
    if (p.op == MixOp::Move) {
      expected = p.target;
    } else if (p.op == MixOp::Cod) {
      expected = p.write ? 1 : 0;
    } else {
      if (p.write) ++ev.model_counts[p.object];
      expected = ev.model_counts[p.object];
    }
    ev.model_hosts[p.object] = new_host;
    ev.returned.push_back(value);
    ev.expected.push_back(expected);
    round.latencies_us.push_back(latency);
    round.latencies_by_kind[mix_op_name(p.op)].push_back(latency);
    ++op_id;
  }
  round.wall_s = wall_now() - wall0;
  round.cpu_s = cpu_now() - cpu0;
  round.counters = delta(before, snapshot(sim));
  round.sim_span_us = sim.now() - start_us;

  // Final state, read in place: each object must be bound on exactly the
  // node the model says, with the model's count.
  ev.final_counts.assign(uobjects, -1);
  ev.final_hosts.assign(uobjects, 0);
  for (std::size_t o = 0; o < uobjects; ++o) {
    for (const auto& id : ids) {
      if (!system.server(id).registry().has_local(names[o])) continue;
      auto& object = dynamic_cast<TestObject&>(system.server(id).registry().local(names[o]));
      ev.final_counts[o] = object.get();
      ev.final_hosts[o] = ev.final_hosts[o] == 0 ? id.value() : ~0u;
    }
  }

  round.attempted = static_cast<std::int64_t>(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ev.returned[i] == ev.expected[i]) ++round.completed;
  }
  round.failed = round.attempted - round.completed;
  for (std::size_t o = 0; o < uobjects; ++o) {
    round.digest = fnv_fold(round.digest, static_cast<std::uint64_t>(ev.final_counts[o]));
    round.digest = fnv_fold(round.digest, ev.final_hosts[o]);
  }
  round.digest = fnv_fold(round.digest, static_cast<std::uint64_t>(round.sim_span_us));
  fold_latencies(round);

  for (auto& f : check_mix(ev)) round.failures.push_back(std::move(f));
  if (evidence_out != nullptr) *evidence_out = std::move(ev);
  return round;
}

ReplayShapes mix_replay_shapes(const RunConfig& cfg) {
  (void)cfg;
  ReplayShapes shapes;
  shapes.model = net::CostModel::jdk122_classic();
  shapes.component = "obj12";
  shapes.method = "increment";
  shapes.args = serial::Writer(8).take();
  const rts::proto::InvokeRequest req{shapes.component, shapes.method, shapes.args};
  serial::Writer state;
  TestObject().serialize(state);
  // Invoke requests, their replies, and object transfers.
  shapes.body_sizes = {req.encode().size(), 24, state.size() + 48};
  // One call in flight: its delivery or CPU step, plus a retry timer.
  shapes.queue_depth = 4;
  shapes.state = std::make_unique<TestObject>();
  shapes.blank = std::make_unique<TestObject>();
  return shapes;
}

}  // namespace perfbench

