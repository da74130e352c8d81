// The name-service registry shared by the central name server and the
// shard replicas (src/xemem/registry.hpp): records and the name index stay
// in step, owners retire with their lease, and leases renew but never
// revive.
#include <gtest/gtest.h>

#include <algorithm>

#include "xemem/registry.hpp"

namespace xemem {
namespace {

TEST(Registry, NameFreedByEraseCanBeRegisteredAgain) {
  Registry reg;
  reg.add(Segid{11}, EnclaveId{1}, 4096, "ring");
  EXPECT_TRUE(reg.has_name("ring"));
  EXPECT_TRUE(reg.erase(Segid{11}));
  EXPECT_FALSE(reg.has_name("ring"));
  EXPECT_EQ(reg.find(Segid{11}), nullptr);
  EXPECT_FALSE(reg.erase(Segid{11}));  // already gone

  reg.add(Segid{12}, EnclaveId{2}, 8192, "ring");
  Message resp;
  reg.lookup("ring", &resp);
  EXPECT_EQ(resp.status, Errc::ok);
  EXPECT_EQ(resp.segid, Segid{12});
  EXPECT_EQ(resp.size, 8192u);
  EXPECT_EQ(reg.segid_count(), 1u);
  EXPECT_EQ(reg.name_count(), 1u);
}

TEST(Registry, EraseOwnerDropsOnlyThatOwner) {
  Registry reg;
  reg.add(Segid{1}, EnclaveId{1}, 4096, "a");
  reg.add(Segid{2}, EnclaveId{1}, 4096, "");
  reg.add(Segid{3}, EnclaveId{2}, 4096, "b");
  reg.add(Segid{4}, EnclaveId{2}, 4096, "");
  reg.grant(EnclaveId{1}, 100);
  reg.grant(EnclaveId{2}, 100);

  reg.erase_owner(EnclaveId{1});
  EXPECT_FALSE(reg.has_lease(EnclaveId{1}));
  EXPECT_EQ(reg.find(Segid{1}), nullptr);
  EXPECT_EQ(reg.find(Segid{2}), nullptr);
  EXPECT_FALSE(reg.has_name("a"));

  EXPECT_TRUE(reg.has_lease(EnclaveId{2}));
  ASSERT_NE(reg.find(Segid{3}), nullptr);
  EXPECT_EQ(reg.find(Segid{3})->owner, EnclaveId{2});
  ASSERT_NE(reg.find(Segid{4}), nullptr);
  EXPECT_TRUE(reg.has_name("b"));
  EXPECT_EQ(reg.segid_count(), 2u);
  EXPECT_EQ(reg.name_count(), 1u);
}

TEST(Registry, RenewExtendsLiveLeaseAndNeverRecreatesCollectedOne) {
  Registry reg;
  reg.grant(EnclaveId{1}, 100);
  reg.renew(EnclaveId{1}, 300);
  EXPECT_TRUE(reg.expired(200).empty());
  EXPECT_FALSE(reg.lease_expired(EnclaveId{1}, 200));
  EXPECT_TRUE(reg.lease_expired(EnclaveId{1}, 300));

  // Collected owners stay collected: a late renewal is not a grant.
  reg.erase_owner(EnclaveId{1});
  reg.renew(EnclaveId{1}, 500);
  EXPECT_FALSE(reg.has_lease(EnclaveId{1}));
  EXPECT_TRUE(reg.expired(1000).empty());
  // Nor does a renewal create a lease that was never granted.
  reg.renew(EnclaveId{7}, 500);
  EXPECT_FALSE(reg.has_lease(EnclaveId{7}));
}

TEST(Registry, ExpiredListsExactlyTheLeasesDueByT) {
  Registry reg;
  reg.grant(EnclaveId{1}, 100);
  reg.grant(EnclaveId{2}, 200);
  reg.grant(EnclaveId{3}, 201);
  reg.grant(EnclaveId{4}, 50);

  EXPECT_TRUE(reg.expired(49).empty());
  std::vector<EnclaveId> due = reg.expired(200);  // expiry <= t, inclusive
  std::sort(due.begin(), due.end());
  EXPECT_EQ(due,
            (std::vector<EnclaveId>{EnclaveId{1}, EnclaveId{2}, EnclaveId{4}}));
  EXPECT_EQ(reg.expired(201).size(), 4u);
  // Listing is read-only: the leases are still held until erase_owner.
  EXPECT_TRUE(reg.has_lease(EnclaveId{1}));
}

}  // namespace
}  // namespace xemem
