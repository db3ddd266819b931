// Layer replays: the traced run times one layer's public functions in
// isolation on the shapes a workload produces (body sizes, queue depth,
// request shapes, component types), giving a host cost per call that the
// per-op counters turn into ns per op.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/cost_model.hpp"
#include "rts/component.hpp"
#include "serial/buffer.hpp"

namespace perfbench {

struct ReplayShapes {
  mage::net::CostModel model;
  std::vector<std::size_t> body_sizes;  // message/envelope body bytes
  std::size_t queue_depth = 1;          // pending events per queue
  // rts invoke requests; empty component name: the workload sends none.
  std::string component;
  std::string method;
  mage::serial::Buffer args;
  // A component of the workload's type in a typical state, and a blank one
  // to deserialize into; null when no component state moves.
  std::unique_ptr<mage::rts::MageObject> state;
  std::unique_ptr<mage::rts::MageObject> blank;
};

struct ReplayCosts {
  double push_pop_ns = 0;       // Simulation::schedule_after + step
  double post_deliver_ns = 0;   // Network::send -> handler
  double envelope_encode_ns = 0;
  double envelope_decode_ns = 0;
  double request_encode_ns = 0;  // proto::InvokeRequest
  double request_decode_ns = 0;
  double state_roundtrip_ns = 0;  // serialize + deserialize
};

ReplayCosts run_replays(const ReplayShapes& shapes);

}  // namespace perfbench
