#include "common/alloc_fault.hpp"

#include <gtest/gtest.h>

namespace gcp {
namespace {

TEST(AllocFaultTest, NoInjectorMeansNothingFires) {
  ASSERT_EQ(CurrentAllocationFaultInjector(), nullptr);
  EXPECT_FALSE(AllocationFaultFires(AllocSite::kAdmission, 128));
}

TEST(AllocFaultTest, ScriptedIndexAndSiteRules) {
  ScriptedAllocationFaultInjector injector;
  ScopedAllocationFaultInjector scope(&injector);
  injector.FailAt(1);
  EXPECT_FALSE(AllocationFaultFires(AllocSite::kArenaBlock, 8));
  EXPECT_TRUE(AllocationFaultFires(AllocSite::kAdmission, 8));
  EXPECT_FALSE(AllocationFaultFires(AllocSite::kAdmission, 8));
  EXPECT_EQ(injector.ops_seen(), 3u);
  EXPECT_EQ(injector.ops_seen(AllocSite::kAdmission), 2u);
  EXPECT_EQ(injector.fired(), 1u);
  EXPECT_EQ(injector.fired_site(), AllocSite::kAdmission);

  injector.FailSite(AllocSite::kSnapshotExport, true);
  EXPECT_TRUE(AllocationFaultFires(AllocSite::kSnapshotExport, 0));
  EXPECT_FALSE(AllocationFaultFires(AllocSite::kFragmentAdmission, 0));
  injector.DisarmScript();
  EXPECT_FALSE(AllocationFaultFires(AllocSite::kSnapshotExport, 0));

  injector.Reset();
  EXPECT_EQ(injector.ops_seen(), 0u);
  EXPECT_EQ(injector.fired(), 0u);
}

TEST(AllocFaultTest, ScopedInstallerRestoresPreviousHook) {
  ScriptedAllocationFaultInjector outer;
  ScopedAllocationFaultInjector outer_scope(&outer);
  {
    ScriptedAllocationFaultInjector inner;
    ScopedAllocationFaultInjector inner_scope(&inner);
    EXPECT_EQ(CurrentAllocationFaultInjector(), &inner);
  }
  EXPECT_EQ(CurrentAllocationFaultInjector(), &outer);
}

TEST(AllocFaultTest, SiteNamesAreStable) {
  EXPECT_STREQ(AllocSiteName(AllocSite::kArenaBlock), "ArenaBlock");
  EXPECT_STREQ(AllocSiteName(AllocSite::kAdmission), "Admission");
  EXPECT_STREQ(AllocSiteName(AllocSite::kFragmentAdmission),
               "FragmentAdmission");
  EXPECT_STREQ(AllocSiteName(AllocSite::kSnapshotExport), "SnapshotExport");
}

}  // namespace
}  // namespace gcp
