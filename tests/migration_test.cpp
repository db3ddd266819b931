// Placement epochs across the two migration senders: a mage.move handled
// by the object's host, and MageClient::transfer_out shipping an object the
// caller hosts (REV/GREV/MA on a local object).  Both go through
// MageServer::migrate, so both bind at the next placement epoch and leave a
// forwarding address fenced at it.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/attributes.hpp"
#include "support/test_objects.hpp"

namespace mage::rts {
namespace {

using testing::make_logic_system;

TEST(MigrationEpoch, TransferOutBindsAtTheNextEpoch) {
  auto system = make_logic_system(2);
  const common::NodeId n1{1}, n2{2};
  auto& client = system->client(n1);
  client.create_component("obj", "Counter", /*is_public=*/true);
  ASSERT_EQ(system->server(n1).registry().epoch_of("obj"), 1u);

  client.transfer_out("obj", n2);
  EXPECT_TRUE(system->server(n2).registry().has_local("obj"));
  EXPECT_EQ(system->server(n2).registry().epoch_of("obj"), 2u);
  EXPECT_EQ(system->server(n1).registry().epoch_of("obj"), 2u);
  EXPECT_EQ(system->server(n1).registry().forward("obj"), n2);
  EXPECT_EQ(client.known_epoch("obj"), 2u);
  EXPECT_FALSE(system->server(n1).in_transit("obj"));
}

// A shared object pulled into the caller's namespace (COD) and pushed out
// again (GREV) must keep its placement history rising: the caller's later
// epoch-fenced lookups then follow the chain instead of rejecting it.
TEST(MigrationEpoch, ShippingALocalSharedObjectKeepsFencedLookupsWorking) {
  auto system = make_logic_system(8);
  const common::NodeId n1{1}, n2{2}, n4{4}, n5{5}, n8{8};
  system->client(n2).create_component("obj", "Counter", /*is_public=*/true);
  auto& caller = system->client(n1);

  core::Rev to_n5(caller, "obj", n5);
  EXPECT_EQ(to_n5.bind().invoke<std::int64_t>("increment"), 1);
  core::Cod pull(caller, "obj");
  EXPECT_EQ(pull.bind().invoke<std::int64_t>("increment"), 2);
  ASSERT_TRUE(caller.has_local("obj"));
  const std::uint64_t pulled_at = caller.known_epoch("obj");

  core::Grev to_n4(caller, "obj", n4);  // ships the caller-hosted object
  EXPECT_EQ(to_n4.bind().invoke<std::int64_t>("increment"), 3);
  EXPECT_EQ(system->server(n4).registry().epoch_of("obj"), pulled_at + 1);
  EXPECT_EQ(caller.known_epoch("obj"), pulled_at + 1);

  core::Rev to_n8(caller, "obj", n8);
  EXPECT_EQ(to_n8.bind().invoke<std::int64_t>("increment"), 4);
  core::Cle follow(caller, "obj");
  auto handle = follow.bind();
  EXPECT_EQ(handle.location(), n8);
  EXPECT_EQ(handle.invoke<std::int64_t>("get"), 4);
  // The fenced walk found it: no fallback walk was needed.
  EXPECT_EQ(system->stats().counter("rts.unfenced_walks"), 0);
}

}  // namespace
}  // namespace mage::rts
