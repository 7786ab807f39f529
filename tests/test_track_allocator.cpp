#include <gtest/gtest.h>

#include <algorithm>

#include "audit/check.hpp"
#include "core/format_tool.hpp"
#include "core/track_allocator.hpp"
#include "disk/profile.hpp"

namespace trail::core {
namespace {

class TrackAllocatorTest : public ::testing::Test {
 protected:
  disk::DiskProfile profile = disk::small_test_disk();  // 80 tracks
  std::vector<disk::TrackId> reserved{0, 40, 79};
  TrackAllocator alloc{profile.geometry, reserved};
};

TEST_F(TrackAllocatorTest, StartsAtFirstUsableTrack) {
  EXPECT_EQ(alloc.current(), 1u);
  EXPECT_EQ(alloc.usable_track_count(), 77u);
  EXPECT_TRUE(alloc.is_reserved(0));
  EXPECT_TRUE(alloc.is_reserved(40));
  EXPECT_FALSE(alloc.is_reserved(1));
}

TEST_F(TrackAllocatorTest, FreeRunAndOccupy) {
  const std::uint32_t spt = alloc.current_spt();
  auto run = alloc.free_run_from(0);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, 0u);
  EXPECT_EQ(run->length, spt);

  alloc.occupy(3, 4, 1);
  EXPECT_NEAR(alloc.current_utilization(), 4.0 / spt, 1e-9);

  run = alloc.free_run_from(0);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, 0u);
  EXPECT_EQ(run->length, 3u);

  run = alloc.free_run_from(3);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, 7u);
  EXPECT_EQ(run->length, spt - 7);

  run = alloc.free_run_from(spt - 1);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(run->first_sector, spt - 1);
  EXPECT_EQ(run->length, 1u);
}

TEST_F(TrackAllocatorTest, FreeRunNoneWhenFullFromPosition) {
  const std::uint32_t spt = alloc.current_spt();
  alloc.occupy(spt - 2, 2, 1);
  EXPECT_FALSE(alloc.free_run_from(spt - 2).has_value());
  EXPECT_TRUE(alloc.free_run_from(0).has_value());
}

TEST_F(TrackAllocatorTest, DoubleOccupyThrows) {
  alloc.occupy(0, 2, 1);
  EXPECT_THROW(alloc.occupy(1, 1, 1), std::logic_error);
  EXPECT_THROW(alloc.occupy(alloc.current_spt(), 1, 1), std::out_of_range);
}

TEST_F(TrackAllocatorTest, AdvanceSkipsReservedTracks) {
  // Starting at 1, advancing should hit 2..39, skip 40, hit 41...
  for (disk::TrackId expect = 2; expect < 40; ++expect) {
    auto next = alloc.advance();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(*next, expect);
  }
  auto next = alloc.advance();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 41u);  // skipped reserved 40
}

TEST_F(TrackAllocatorTest, WrapsAroundRing) {
  // Advance through all usable tracks; the ring should wrap to track 1.
  // (No live records anywhere, so every advance succeeds.)
  for (std::size_t i = 0; i < alloc.usable_track_count() - 1; ++i)
    ASSERT_TRUE(alloc.advance().has_value());
  auto wrapped = alloc.advance();
  ASSERT_TRUE(wrapped.has_value());
  EXPECT_EQ(*wrapped, 1u);
}

TEST_F(TrackAllocatorTest, LogFullWhenNextTrackLive) {
  alloc.occupy(0, 2, 1);  // one live record on track 1
  // March the tail all the way around; the final advance back onto track 1
  // must fail because its record is still live.
  for (std::size_t i = 0; i < alloc.usable_track_count() - 1; ++i)
    ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_FALSE(alloc.advance().has_value()) << "ring must be exhausted";
  // Release the record: the ring opens up again.
  alloc.release_record(1);
  EXPECT_TRUE(alloc.advance().has_value());
}

TEST_F(TrackAllocatorTest, ReleaseFreesTrackOnlyWhenAllRecordsGone) {
  alloc.occupy(0, 4, 2);  // two records on track 1
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.live_track_count(), 2u);  // track 1 + new tail
  alloc.release_record(1);
  EXPECT_EQ(alloc.live_track_count(), 2u);  // still one live record
  alloc.release_record(1);
  EXPECT_EQ(alloc.live_track_count(), 1u);  // freed
  EXPECT_THROW(alloc.release_record(1), std::logic_error);
}

TEST_F(TrackAllocatorTest, CurrentTrackNotFreedWhileTail) {
  alloc.occupy(0, 2, 1);
  alloc.release_record(1);  // record done, but track 1 is the tail
  EXPECT_EQ(alloc.live_track_count(), 1u);
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.live_track_count(), 1u);  // old tail dropped on advance
}

TEST_F(TrackAllocatorTest, UtilizationStatistics) {
  const std::uint32_t spt = alloc.current_spt();
  alloc.occupy(0, spt / 2, 1);
  alloc.release_record(1);
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.finished_track_count(), 1u);
  EXPECT_NEAR(alloc.mean_finished_track_utilization(), 0.5, 0.05);
  // An untouched track does not count as finished.
  ASSERT_TRUE(alloc.advance().has_value());
  EXPECT_EQ(alloc.finished_track_count(), 1u);
  EXPECT_EQ(alloc.total_track_advances(), 2u);
}

TEST_F(TrackAllocatorTest, AdoptLiveTrackAndResume) {
  alloc.adopt_live_track(10, 6, 2);
  alloc.adopt_live_track(11, 3, 1);
  EXPECT_EQ(alloc.live_track_count(), 3u);  // 10, 11 + initial tail (track 1)
  alloc.set_tail_after(11);
  EXPECT_EQ(alloc.current(), 12u);
  // Ring is blocked at track 10/11 until those records release.
  alloc.release_record(10);
  alloc.release_record(10);
  alloc.release_record(11);
  EXPECT_EQ(alloc.live_track_count(), 1u);
  EXPECT_THROW(alloc.adopt_live_track(0, 1, 1), std::invalid_argument);  // reserved
}

TEST_F(TrackAllocatorTest, SetTailReclaimsASettledAdoptedTail) {
  // Recovery adopts records on the initial tail track (1) and writes them
  // back before the mount positions the tail: the old tail has occupied
  // sectors but no live records, so moving the tail must reclaim it.
  alloc.adopt_live_track(1, 5, 2);
  alloc.release_record(1);
  alloc.release_record(1);
  EXPECT_EQ(alloc.live_track_count(), 1u);  // still the tail
  alloc.set_tail_after(1);
  EXPECT_EQ(alloc.current(), 2u);
  EXPECT_EQ(alloc.live_track_count(), 1u);  // only the new tail
  audit::Report report;
  alloc.audit(report);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(TrackAllocatorTest, SetTailAfterSkipsReserved) {
  alloc.set_tail_after(39);  // next physical is 40 (reserved)
  EXPECT_EQ(alloc.current(), 41u);
  alloc.set_tail_after(78);  // 79 reserved, wraps past 0 (reserved)
  EXPECT_EQ(alloc.current(), 1u);
}

TEST(TrackAllocator, RequiresUsableTracks) {
  const disk::DiskProfile p = disk::small_test_disk();
  std::vector<disk::TrackId> all;
  for (disk::TrackId t = 0; t < p.geometry.track_count(); ++t) all.push_back(t);
  EXPECT_THROW((TrackAllocator{p.geometry, all}), std::invalid_argument);
  all.erase(all.begin() + 7);
  EXPECT_THROW((TrackAllocator{p.geometry, all}), std::invalid_argument) << "one usable track";
  all.erase(all.begin() + 30);
  TrackAllocator two{p.geometry, all};
  EXPECT_EQ(two.usable_track_count(), 2u);
  EXPECT_EQ(two.current(), 7u);
  EXPECT_EQ(two.advance(), 31u);
  EXPECT_EQ(two.advance(), 7u);
}

/// The ring as a materialized list: every track of the disk not in
/// `reserved`, in physical order.
std::vector<disk::TrackId> materialized_ring(const disk::Geometry& geometry,
                                             const std::vector<disk::TrackId>& reserved) {
  std::vector<disk::TrackId> usable;
  for (disk::TrackId t = 0; t < geometry.track_count(); ++t)
    if (std::find(reserved.begin(), reserved.end(), t) == reserved.end()) usable.push_back(t);
  return usable;
}

/// Start at the initial tail and advance once per usable track; the walk
/// must visit `want` in order and then wrap to its first track.
void expect_ring(const disk::Geometry& geometry, const std::vector<disk::TrackId>& reserved) {
  const std::vector<disk::TrackId> want = materialized_ring(geometry, reserved);
  TrackAllocator alloc{geometry, reserved};
  ASSERT_EQ(alloc.usable_track_count(), want.size());
  std::vector<disk::TrackId> walked{alloc.current()};
  for (std::size_t i = 1; i < want.size(); ++i) walked.push_back(alloc.advance().value());
  EXPECT_EQ(walked, want);
  EXPECT_EQ(alloc.advance(), want.front()) << "the ring wraps to its first usable track";
  // The index <-> track mapping recovery's binary search uses.
  const TrackRing& ring = alloc.ring();
  ASSERT_EQ(ring.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(ring.track_at(i), want[i]) << i;
    EXPECT_EQ(ring.index_of(want[i]), i) << want[i];
  }
  for (disk::TrackId t = 0; t < geometry.track_count() + 3; ++t) {
    const bool usable = std::binary_search(want.begin(), want.end(), t);
    EXPECT_EQ(alloc.is_reserved(t),
              std::find(reserved.begin(), reserved.end(), t) != reserved.end()) << t;
    EXPECT_EQ(ring.contains(t), usable) << t;
    if (!usable) {
      EXPECT_THROW(alloc.set_tail(t), std::invalid_argument) << t;
      EXPECT_THROW((void)ring.index_of(t), std::out_of_range) << t;
    }
  }
}

TEST(TrackAllocator, RingWalkMatchesMaterializedOrderForDefaultLayout) {
  for (const disk::DiskProfile& p : {disk::small_test_disk(), disk::wd_caviar_10g()}) {
    SCOPED_TRACE(p.name);
    expect_ring(p.geometry, LogDiskLayout(p.geometry).reserved_tracks());
  }
}

TEST(TrackAllocator, RingWalkMatchesMaterializedOrderForCustomReservedSet) {
  const disk::DiskProfile p = disk::small_test_disk();  // 80 tracks
  // Unsorted, with a duplicate, a run at the start, a run in the middle,
  // the last track and one track past the end of the disk.
  expect_ring(p.geometry, {7, 0, 5, 79, 1, 6, 5, 200});
  expect_ring(p.geometry, {78, 79, 0});
  expect_ring(p.geometry, {});
}

}  // namespace
}  // namespace trail::core
