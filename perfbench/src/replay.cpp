#include "replay.hpp"

#include <algorithm>

#include "bench.hpp"
#include "common/ids.hpp"
#include "common/verb.hpp"
#include "net/message.hpp"
#include "net/network.hpp"
#include "rmi/envelope.hpp"
#include "rts/protocol.hpp"
#include "serial/chain.hpp"
#include "serial/reader.hpp"
#include "serial/writer.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using namespace mage;

// Decoded values land here so the decode loops stay observable.
volatile std::uint64_t g_sink = 0;

// Median over `reps` timed batches of `per_batch` operations, in ns per
// operation.  `body` runs one whole batch.
template <typename Body>
double time_per_op(int per_batch, Body&& body, int reps = 7) {
  std::vector<double> ns;
  body();  // warm caches and pools
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_now();
    body();
    ns.push_back((wall_now() - t0) * 1e9 / per_batch);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

std::vector<serial::Buffer> make_bodies(const std::vector<std::size_t>& sizes) {
  std::vector<serial::Buffer> bodies;
  for (std::size_t s : sizes) {
    serial::Writer w(s + 8);
    w.write_u64(s);
    for (std::size_t b = 0; b < s; ++b) w.write_u8(static_cast<std::uint8_t>(b));
    bodies.push_back(w.take());
  }
  if (bodies.empty()) bodies.push_back(serial::Writer(8).take());
  return bodies;
}

double replay_queue(std::size_t depth) {
  // Steady state at `depth` pending events: each event re-arms itself
  // with a pseudo-random delay, so every step is one pop and one push.
  sim::Simulation sim(7);
  std::vector<common::SimDuration> delays(1024);
  std::uint64_t x = 0x9E37;
  for (auto& d : delays) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    d = 1 + static_cast<common::SimDuration>((x >> 33) % 1000);
  }
  std::size_t next = 0;
  struct Rearm {
    sim::Simulation* sim;
    const std::vector<common::SimDuration>* delays;
    std::size_t* next;
    void operator()() const {
      const auto d = (*delays)[(*next)++ & 1023];
      sim->schedule_after(d, Rearm{*this}, sim::Wake::No);
    }
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i) {
    sim.schedule_after(delays[i & 1023], Rearm{&sim, &delays, &next}, sim::Wake::No);
  }
  constexpr int kSteps = 20'000;
  return time_per_op(kSteps, [&] {
    for (int i = 0; i < kSteps; ++i) sim.step();
  });
}

double replay_network(const net::CostModel& model,
                      const std::vector<serial::Buffer>& bodies) {
  sim::Simulation sim(7);
  net::Network net(sim, model);
  const common::NodeId a = net.add_node("a");
  const common::NodeId b = net.add_node("b");
  std::int64_t delivered = 0;
  net.set_handler(b, [&delivered](net::Message) { ++delivered; });
  const common::VerbId verb = common::intern_verb("perfbench.replay");
  rmi::Envelope env;
  env.verb = verb;
  const serial::Buffer header = env.encode_header();
  constexpr int kMessages = 2'000;
  std::size_t k = 0;
  return time_per_op(kMessages, [&] {
    for (int i = 0; i < kMessages; ++i) {
      net::Message m;
      m.from = a;
      m.to = b;
      m.verb = verb;
      m.header = header;
      m.body = serial::BufferChain(bodies[k++ % bodies.size()]);
      net.send(std::move(m));
    }
    sim.run_until_idle();
  });
}

}  // namespace

ReplayCosts run_replays(const ReplayShapes& shapes) {
  ReplayCosts c;
  const std::vector<serial::Buffer> bodies = make_bodies(shapes.body_sizes);
  c.push_pop_ns = replay_queue(shapes.queue_depth);
  c.post_deliver_ns = replay_network(shapes.model, bodies);

  // Envelope framing: request envelopes over the body mix, header encode
  // and scatter-gather decode, as the transport does per message.
  {
    const common::VerbId verb = common::intern_verb("perfbench.replay");
    std::vector<rmi::Envelope> envs;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      rmi::Envelope env;
      env.request_id = common::RequestId{i + 1};
      env.verb = verb;
      env.body = serial::BufferChain(bodies[i]);
      envs.push_back(std::move(env));
    }
    std::vector<serial::Buffer> headers(envs.size());
    const int n = static_cast<int>(envs.size());
    const int batch = std::max(1, 4'000 / n) * n;
    c.envelope_encode_ns = time_per_op(batch, [&] {
      for (int i = 0; i < batch; ++i) {
        headers[static_cast<std::size_t>(i % n)] =
            envs[static_cast<std::size_t>(i % n)].encode_header();
      }
    });
    std::uint64_t sink = 0;
    c.envelope_decode_ns = time_per_op(batch, [&] {
      for (int i = 0; i < batch; ++i) {
        const auto k = static_cast<std::size_t>(i % n);
        sink += rmi::Envelope::decode(headers[k], envs[k].body).request_id.value();
      }
    });
    g_sink = sink;
  }

  if (!shapes.component.empty()) {
    rts::proto::InvokeRequest req{shapes.component, shapes.method, shapes.args};
    constexpr int kRequests = 4'000;
    serial::BufferChain encoded = req.encode();
    c.request_encode_ns = time_per_op(kRequests, [&] {
      for (int i = 0; i < kRequests; ++i) encoded = req.encode();
    });
    std::size_t sink = 0;
    c.request_decode_ns = time_per_op(kRequests, [&] {
      for (int i = 0; i < kRequests; ++i) {
        sink += rts::proto::InvokeRequest::decode(encoded).method.size();
      }
    });
    g_sink = sink;
  }

  if (shapes.state && shapes.blank) {
    constexpr int kRoundtrips = 200;
    c.state_roundtrip_ns = time_per_op(kRoundtrips, [&] {
      for (int i = 0; i < kRoundtrips; ++i) {
        serial::Writer w;
        shapes.state->serialize(w);
        const serial::Buffer bytes = w.take();
        serial::Reader r(bytes);
        shapes.blank->deserialize(r);
      }
    });
  }
  return c;
}

}  // namespace perfbench
