// The structural validators of base/invariants.h: clean runs return "",
// corrupted state (reached through the test peers the classes befriend)
// returns the exact first-violation message, and — in builds configured
// with -DTGMINER_CHECK_INVARIANTS=ON — TGM_VALIDATE_INVARIANTS aborts
// with that message. Pinning the exact strings keeps the validators
// honest: a validator that stops looking (or a message that drifts) fails
// here, not in a debugging session.

#include "base/invariants.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "query/stream/engine.h"
#include "query/stream/partial_table.h"
#include "test_util.h"

namespace tgm {

// Corruption hooks. Declared as friends in the production headers,
// defined only here: production code cannot reach private state through
// them, and every mutation a test performs is spelled out below.
struct PartialTableTestPeer {
  static std::size_t& live(PartialTable& t) { return t.live_; }
  static std::vector<std::int64_t>& bindings(PartialTable& t) {
    return t.bindings_;
  }
  static std::uint32_t& bucket_pos(PartialTable& t, std::uint32_t slot) {
    return t.meta_[slot].bucket_pos;
  }
  static std::vector<std::uint32_t>& free_slots(PartialTable& t) {
    return t.free_slots_;
  }
};

namespace {

using ::tgm::testing::MakePattern;

constexpr std::int64_t kBinding[] = {7, 8};

// --- PartialTable ------------------------------------------------------

PartialTable MakeTable() {
  PartialTable t(/*node_count=*/2);
  t.Insert(kBinding, /*next_edge=*/1, /*first_ts=*/10, /*last_ts=*/10,
           /*expiry=*/110, /*key=*/8);
  t.Insert(kBinding, 1, 20, 20, 120, /*key=*/7);
  return t;
}

TEST(PartialTableInvariantsTest, CleanTableReportsNothing) {
  PartialTable t(2);
  EXPECT_EQ(t.CheckInvariants(), "");

  t = MakeTable();
  EXPECT_EQ(t.CheckInvariants(), "");

  // Removal paths keep the representation consistent too.
  t.ExpireAt(115);  // expires the first partial
  EXPECT_EQ(t.live(), 1u);
  EXPECT_EQ(t.CheckInvariants(), "");
  t.EvictOldest();
  EXPECT_EQ(t.live(), 0u);
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(PartialTableInvariantsTest, DetectsLiveCountDrift) {
  PartialTable t = MakeTable();
  PartialTableTestPeer::live(t) = 3;
  EXPECT_EQ(t.CheckInvariants(), "live count 3 != allocated 2 - free 0");
}

TEST(PartialTableInvariantsTest, DetectsBindingArenaSizeMismatch) {
  PartialTable t = MakeTable();
  PartialTableTestPeer::bindings(t).push_back(0);
  EXPECT_EQ(t.CheckInvariants(),
            "binding arena holds 5 entries, want 4 (2 slots x 2 nodes)");
}

TEST(PartialTableInvariantsTest, DetectsBucketPositionDrift) {
  // Two partials in one entity bucket occupy positions 0 and 1; pointing
  // the second one's back-reference at position 0 breaks the
  // swap-removal contract (Remove would patch the wrong slot).
  PartialTable t(2);
  t.Insert(kBinding, 1, 10, 10, 110, /*key=*/8);
  t.Insert(kBinding, 1, 20, 20, 120, /*key=*/8);
  ASSERT_EQ(t.CheckInvariants(), "");
  PartialTableTestPeer::bucket_pos(t, 1) = 0;
  EXPECT_EQ(t.CheckInvariants(), "slot 1 bucket_pos 0 != actual position 1");
}

TEST(PartialTableInvariantsTest, DetectsFreeListCorruption) {
  PartialTable t = MakeTable();
  // Claiming a live slot is free makes it dead and filed at once.
  PartialTableTestPeer::free_slots(t).push_back(0);
  EXPECT_EQ(t.CheckInvariants(), "live count 2 != allocated 2 - free 1");
}

TEST(PartialTableInvariantsTest, DetectsDuplicateIdentityOnCollapsingEdge) {
  // Next edge 1 collapses. Two partials that differ only in their bound
  // destination are both stored; rewriting the second binding to match
  // the first leaves two live partials with one identity, which Insert
  // never stores.
  PartialTable t(2, /*collapsing=*/{false, true});
  const std::int64_t other[] = {7, 9};
  t.Insert(kBinding, 1, 10, 10, 110, /*key=*/7);
  t.Insert(other, 1, 10, 12, 110, /*key=*/7);
  ASSERT_EQ(t.live(), 2u);
  ASSERT_EQ(t.CheckInvariants(), "");
  PartialTableTestPeer::bindings(t)[3] = 8;
  EXPECT_EQ(t.CheckInvariants(),
            "slot 0 and slot 1 share an identity on collapsing edge 1");
}

// --- StreamEngine ------------------------------------------------------

std::vector<StreamEvent> TwoEdgeWorkload() {
  // Query A(0)->B(1)->C(2): completions, live partials at Flush time, and
  // some non-matching noise.
  std::vector<StreamEvent> events;
  events.push_back(StreamEvent{1, 2, 0, 1, kNoEdgeLabel, 10});   // seed
  events.push_back(StreamEvent{2, 3, 1, 2, kNoEdgeLabel, 12});   // complete
  events.push_back(StreamEvent{4, 5, 0, 1, kNoEdgeLabel, 14});   // seed, dangles
  events.push_back(StreamEvent{9, 9, 3, 3, kNoEdgeLabel, 16});   // noise
  events.push_back(StreamEvent{6, 7, 0, 1, kNoEdgeLabel, 18});   // seed, dangles
  return events;
}

TEST(StreamEngineInvariantsTest, RoundRobinEngineIsConsistent) {
  StreamEngine::Options opts;
  opts.window = 100;
  opts.num_shards = 2;
  opts.batch_size = 2;
  StreamEngine engine(opts);
  engine.AddQuery(MakePattern({0, 1, 2}, {{0, 1}, {1, 2}}));
  std::vector<StreamAlert> alerts;
  auto sink = [&alerts](const StreamAlert& a) { alerts.push_back(a); };
  for (const StreamEvent& e : TwoEdgeWorkload()) engine.OnEvent(e, sink);
  engine.Flush(sink);
  EXPECT_EQ(alerts.size(), 1u);
  EXPECT_GT(engine.PartialCount(), 0u);  // the validator audits live state
  EXPECT_EQ(engine.CheckInvariants(), "");
}

// --- TGM_VALIDATE_INVARIANTS wiring ------------------------------------

#if defined(TGMINER_CHECK_INVARIANTS)
TEST(CheckInvariantsDeathTest, ValidateAbortsWithViolationMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  PartialTable t = MakeTable();
  PartialTableTestPeer::live(t) = 3;
  EXPECT_DEATH(
      TGM_VALIDATE_INVARIANTS("CheckInvariantsDeathTest", t.CheckInvariants()),
      "Invariant violation in CheckInvariantsDeathTest: "
      "live count 3 != allocated 2 - free 0");
}
#else
TEST(CheckInvariantsTest, ValidateCompilesOutWhenDisabled) {
  static_assert(!kInvariantChecksEnabled);
  PartialTable t = MakeTable();
  PartialTableTestPeer::live(t) = 3;  // would abort if the macro ran
  TGM_VALIDATE_INVARIANTS("disabled", t.CheckInvariants());
}
#endif

}  // namespace
}  // namespace tgm
