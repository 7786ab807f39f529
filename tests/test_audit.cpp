// trail::audit tests: the Check/Report substrate, the offline log
// verifier (fsck.trail) against clean and deliberately corrupted images,
// the hardened log_format bounds checks, and the runtime quiesce-point
// audits on the driver and the database engine.
//
// The corruption table bit-flips every §3.2 header field class — magic
// byte, signature, epoch, prev_sect, log_head, entry array, payload — and
// asserts both that verify_log attributes the damage to the right check
// (and still returns the image's census without throwing) and that
// recovery rejects the image cleanly (a thrown std::runtime_error or a
// reduced record count; never silent adoption).
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <stdexcept>

#include "audit/check.hpp"
#include "audit/log_verifier.hpp"
#include "core/log_format.hpp"
#include "db/database.hpp"
#include "io/standard_driver.hpp"
#include "trail_fixture.hpp"

namespace trail::testing {
namespace {

using audit::Finding;
using audit::Report;
using audit::Severity;
using audit::VerifyOptions;

// ---------------------------------------------------------------- Check

TEST(AuditCheck, CountsAndFindings) {
  Report report;
  audit::Check& c = report.check("demo");
  c.pass(3);
  c.fail("broken", 17);
  c.fail("iffy", Finding::kNoLba, Severity::kWarning);
  EXPECT_TRUE(c.require(true, "holds"));
  EXPECT_FALSE(c.require(false, "does not hold", 4));

  EXPECT_EQ(c.passes(), 4u);
  EXPECT_EQ(c.errors(), 2u);
  EXPECT_EQ(c.warnings(), 1u);
  EXPECT_FALSE(c.ok());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.total_errors(), 2u);
  EXPECT_EQ(report.total_warnings(), 1u);
  ASSERT_EQ(c.findings().size(), 3u);
  EXPECT_EQ(c.findings()[0].lba, 17u);

  const std::string dump = report.to_string();
  EXPECT_NE(dump.find("demo: FAIL"), std::string::npos);
  EXPECT_NE(dump.find("@lba 17"), std::string::npos);
  // Same-named check resolves to the same instance.
  EXPECT_EQ(&report.check("demo"), &c);
}

TEST(AuditCheck, FindingStorageIsBounded) {
  Report report;
  audit::Check& c = report.check("flood");
  for (int i = 0; i < 100; ++i) c.fail("finding", static_cast<std::uint64_t>(i));
  EXPECT_EQ(c.errors(), 100u);
  EXPECT_EQ(c.findings().size(), audit::Check::kMaxStoredFindings);
  EXPECT_NE(report.to_string().find("further findings not stored"), std::string::npos);
}

TEST(AuditCheck, RecordsToMetrics) {
  Report report;
  report.check("x").pass(5);
  report.check("x").fail("bad");
  obs::MetricsRegistry metrics;
  report.record_to(metrics);
  const std::string json = metrics.to_json();
  EXPECT_NE(json.find("audit.x.pass"), std::string::npos);
  EXPECT_NE(json.find("audit.x.fail"), std::string::npos);
}

// ------------------------------------------- log_format bounds hardening

TEST(LogFormatBounds, SerializersRejectShortSectors) {
  std::vector<std::byte> shorty(disk::kSectorSize - 1);
  EXPECT_THROW(core::serialize_disk_header({1, 1, 0}, shorty), std::invalid_argument);

  const disk::DiskProfile p = disk::small_test_disk();
  EXPECT_THROW(core::serialize_geometry(p.geometry, p.rpm, shorty), std::invalid_argument);

  core::RecordHeader hdr;
  hdr.batch_size = 1;
  hdr.entries.resize(1);
  hdr.entries[0].log_lba = 10;
  EXPECT_THROW(core::serialize_record_header(hdr, shorty), std::invalid_argument);

  EXPECT_THROW((void)core::escape_payload_sector(shorty), std::invalid_argument);
  EXPECT_THROW(core::unescape_payload_sector(shorty, 0x42), std::invalid_argument);
}

TEST(LogFormatBounds, ParsersRejectShortSectors) {
  // A truncated buffer must yield nullopt, not an out-of-bounds read of
  // the CRC window (the regression this guards: sector_crc_excluding
  // copied a full sector unconditionally).
  disk::SectorBuf full{};
  core::serialize_disk_header({3, 0, 7}, full);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, disk::kSectorSize - 1}) {
    const std::span<const std::byte> shorty(full.data(), n);
    EXPECT_FALSE(core::parse_disk_header(shorty).has_value()) << n;
    EXPECT_FALSE(core::parse_record_header(shorty).has_value()) << n;
    EXPECT_FALSE(core::parse_geometry(shorty).has_value()) << n;
  }
}

// ---------------------------------------------------- offline verifier

class AuditVerifierTest : public TrailFixture {
 protected:
  static constexpr int kRecords = 5;

  explicit AuditVerifierTest(disk::DiskProfile log_profile = disk::small_test_disk())
      : TrailFixture(2, std::move(log_profile)) {}

  /// Run kRecords writes in epoch 1, crash with them pending, and return
  /// the image's records sorted oldest -> youngest.
  std::vector<audit::ParsedRecord> prepare_crashed_log() {
    start();
    for (auto& d : data_disks) d->crash_halt();
    for (int i = 0; i < kRecords; ++i)
      write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
    driver->crash();
    driver.reset();
    audit::LogImage image;
    (void)audit::verify_log(*log_disk, {}, &image);
    EXPECT_EQ(image.records.size(), static_cast<std::size_t>(kRecords));
    return image.records;
  }

  /// Raw bit-flip inside the sector at `lba`.
  void flip(disk::Lba lba, std::size_t offset, std::byte mask) {
    disk::SectorBuf sector{};
    log_disk->store().read(lba, 1, sector);
    sector[offset] ^= mask;
    log_disk->store().write(lba, 1, sector);
  }

  /// Parse the record header at `lba`, mutate a field, and write it back
  /// re-serialized (header CRC valid again: the corruption is semantic).
  void reserialize(disk::Lba lba, const std::function<void(core::RecordHeader&)>& fn) {
    disk::SectorBuf sector{};
    log_disk->store().read(lba, 1, sector);
    auto hdr = core::parse_record_header(sector);
    ASSERT_TRUE(hdr.has_value());
    fn(*hdr);
    core::serialize_record_header(*hdr, sector);
    log_disk->store().write(lba, 1, sector);
  }

  /// The census must come back without throwing, whatever state the
  /// image is in.
  void expect_census_survives() {
    audit::LogImage image;
    EXPECT_NO_THROW((void)audit::verify_log(*log_disk, {}, &image));
  }

  /// Reboot + mount. Returns the recovered record count, or nullopt if
  /// recovery rejected the image with std::runtime_error.
  std::optional<std::uint32_t> remount_records() {
    log_disk->restart();
    for (auto& d : data_disks) d->restart();
    auto fresh = std::make_unique<core::TrailDriver>(sim, *log_disk);
    for (auto& d : data_disks) (void)fresh->add_data_disk(*d);
    try {
      fresh->mount();
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
    const std::uint32_t found = fresh->last_recovery().records_found;
    fresh->unmount();
    return found;
  }
};

TEST_F(AuditVerifierTest, FreshFormatIsClean) {
  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.total_warnings(), 0u) << report.to_string();
}

TEST_F(AuditVerifierTest, CrashedImageHasNoErrors) {
  prepare_crashed_log();
  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditVerifierTest, ThresholdZeroImagePutsEachWriteOnItsOwnTrack) {
  core::TrailConfig cfg;
  cfg.track_utilization_threshold = 0.0;  // one batch per track
  start(cfg);
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 6; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 8)}, make_pattern(4, i));
  driver->crash();
  driver.reset();

  audit::LogImage image;
  const Report report = audit::verify_log(*log_disk, {}, &image);
  EXPECT_TRUE(report.ok()) << report.to_string();
  std::set<disk::TrackId> tracks;
  for (const audit::ParsedRecord& rec : image.records)
    tracks.insert(log_disk->geometry().track_of_lba(rec.header_lba));
  EXPECT_EQ(image.records.size(), 6u);
  EXPECT_EQ(tracks.size(), 6u) << "one record per track at threshold 0";
}

TEST_F(AuditVerifierTest, CleanUnmountedImageIsClean) {
  start();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[1], static_cast<disk::Lba>(i * 8)}, make_pattern(2, 40 + i));
  settle();
  driver->unmount();
  driver.reset();
  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditVerifierTest, UnformattedImageFailsHeaderCheck) {
  disk::DiskDevice raw(sim, disk::small_test_disk());
  Report report = audit::verify_log(raw);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.check("log.disk_header").errors(), 0u);
}

// ---- the census: what verify_log reads back into a LogImage ----
// (Suite name kept from the offline scanner the census replaced, so these
// tests keep their names.)

using LogScannerTest = AuditVerifierTest;

TEST_F(LogScannerTest, FreshFormatScansClean) {
  audit::LogImage image;
  Report report = audit::verify_log(*log_disk, {}, &image);
  ASSERT_EQ(image.headers.size(), 3u);
  EXPECT_EQ(image.headers[0].epoch, 0u);
  EXPECT_EQ(image.headers[0].crash_var, 1u);
  EXPECT_TRUE(image.records.empty());
  EXPECT_EQ(report.check("log.chain").errors(), 0u) << report.to_string();
}

TEST_F(LogScannerTest, UnformattedDiskReported) {
  disk::DiskDevice raw(sim, disk::small_test_disk());
  audit::LogImage image;
  (void)audit::verify_log(raw, {}, &image);
  EXPECT_TRUE(image.headers.empty());
}

TEST_F(LogScannerTest, CensusCountsRecordsAndPayloads) {
  prepare_crashed_log();
  audit::LogImage image;
  Report report = audit::verify_log(*log_disk, {}, &image);
  ASSERT_FALSE(image.headers.empty());
  EXPECT_EQ(image.headers[0].crash_var, 0u) << "crashed mount: dirty flag";
  ASSERT_EQ(image.records.size(), static_cast<std::size_t>(kRecords));
  std::uint64_t payload_sectors = 0;
  for (const audit::ParsedRecord& rec : image.records) {
    EXPECT_EQ(rec.header.epoch, 1u);
    payload_sectors += rec.header.batch_size;
  }
  EXPECT_GE(payload_sectors, 2u * kRecords);
  EXPECT_EQ(report.check("log.chain").errors(), 0u) << report.to_string();
  EXPECT_EQ(report.check("log.chain").passes(), static_cast<std::uint64_t>(kRecords));
  EXPECT_EQ(image.records.back().header.sequence_id, static_cast<std::uint32_t>(kRecords));
  EXPECT_TRUE(image.records.back().payload_intact);
}

TEST_F(LogScannerTest, RecordsOfEpochAscending) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[1], static_cast<disk::Lba>(i * 2)}, make_pattern(1, 10 + i));
  driver->crash();
  driver.reset();

  audit::LogImage image;
  (void)audit::verify_log(*log_disk, {}, &image);
  ASSERT_EQ(image.records.size(), 4u);
  for (std::size_t i = 1; i < image.records.size(); ++i) {
    EXPECT_LT(core::record_key(image.records[i - 1].header),
              core::record_key(image.records[i].header));
  }
  // Each record's entries point at device (3,1).
  for (const audit::ParsedRecord& rec : image.records) {
    EXPECT_EQ(rec.header.epoch, 1u);
    EXPECT_EQ(rec.header.entries[0].data_major, 3);
    EXPECT_EQ(rec.header.entries[0].data_minor, 1);
  }
}

TEST_F(LogScannerTest, DetectsTornYoungestPayload) {
  const auto records = prepare_crashed_log();
  flip(records.back().header_lba + 1, 50, std::byte{0xFF});  // youngest payload

  audit::LogImage image;
  Report report = audit::verify_log(*log_disk, {}, &image);
  // The torn record is the youngest (an unacknowledged tear is legal), so
  // the report stays ok; the image flags the tear.
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(image.records.size(), static_cast<std::size_t>(kRecords));
  EXPECT_EQ(image.records.back().header_lba, records.back().header_lba);
  EXPECT_FALSE(image.records.back().payload_intact);
  for (std::size_t i = 0; i + 1 < image.records.size(); ++i)
    EXPECT_TRUE(image.records[i].payload_intact);
}

// ---- the corruption table: one §3.2 header field class per test ----

TEST_F(AuditVerifierTest, CorruptMagicByteDetected) {
  const auto records = prepare_crashed_log();
  flip(records[2].header_lba, 0, std::byte{0xA5});  // 0xFF -> 0x5A

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.sector_classes").errors(), 0u) << report.to_string();
  expect_census_survives();
  // The chain from the youngest runs into the destroyed header.
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptSignatureDetected) {
  const auto records = prepare_crashed_log();
  flip(records[2].header_lba, 3, std::byte{0xFF});  // signature byte

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.sector_classes").errors(), 0u) << report.to_string();
  expect_census_survives();
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptEpochDetected) {
  const auto records = prepare_crashed_log();
  reserialize(records[2].header_lba,
              [](core::RecordHeader& h) { h.epoch += 7; });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.chain").errors(), 0u) << report.to_string();
  expect_census_survives();
  // The walk from the youngest epoch-1 record meets an epoch-8 header.
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptPrevSectDetected) {
  const auto records = prepare_crashed_log();
  const auto unwritten =
      static_cast<std::uint32_t>(log_disk->geometry().total_sectors() - 5);
  reserialize(records.back().header_lba,
              [&](core::RecordHeader& h) { h.prev_sect = core::encode_log_ptr(0, unwritten); });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.chain").errors(), 0u) << report.to_string();
  expect_census_survives();
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, CorruptLogHeadDetected) {
  const auto records = prepare_crashed_log();
  const auto unwritten =
      static_cast<std::uint32_t>(log_disk->geometry().total_sectors() - 5);
  reserialize(records.back().header_lba,
              [&](core::RecordHeader& h) { h.log_head = core::encode_log_ptr(0, unwritten); });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.chain").errors(), 0u) << report.to_string();
  expect_census_survives();
  // Recovery walks to the prev_sect sentinel and stops: it still finds
  // every record, it just could not use the bound. Legal, if untidy.
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, static_cast<std::uint32_t>(kRecords));
}

TEST_F(AuditVerifierTest, CorruptEntryArrayDetected) {
  const auto records = prepare_crashed_log();
  reserialize(records[2].header_lba,
              [](core::RecordHeader& h) { h.entries[1].log_lba += 1; });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.record_entries").errors(), 0u) << report.to_string();
  expect_census_survives();
  // Replay applies payload bytes it already read contiguously, so the
  // poisoned pointer array does not break recovery itself.
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, static_cast<std::uint32_t>(kRecords));
}

TEST_F(AuditVerifierTest, PayloadCrossingItsTrackDetected) {
  const auto records = prepare_crashed_log();
  // Stamp a newer record on the youngest record's track, in its last
  // sector, so the payload runs onto the next track. The writer never
  // places a record that way.
  const audit::ParsedRecord& youngest = records.back();
  const disk::Geometry& geom = log_disk->geometry();
  const disk::TrackId track = geom.track_of_lba(youngest.header_lba);
  const disk::Lba lba = geom.first_lba_of_track(track) + geom.spt_of_track(track) - 1;
  ASSERT_FALSE(log_disk->store().is_written(lba));
  core::RecordHeader crossing = youngest.header;
  crossing.sequence_id += 1;
  crossing.prev_sect = core::encode_log_ptr(0, static_cast<std::uint32_t>(youngest.header_lba));
  for (std::uint32_t i = 0; i < crossing.batch_size; ++i)
    crossing.entries[i].log_lba = static_cast<std::uint32_t>(lba + 1 + i);
  disk::SectorBuf sector{};
  core::serialize_record_header(crossing, sector);
  log_disk->store().write(lba, 1, sector);

  Report report = audit::verify_log(*log_disk);
  const audit::Check& entries = report.check("log.record_entries");
  EXPECT_GT(entries.errors(), 0u) << report.to_string();
  bool reported = false;
  for (const Finding& f : entries.findings())
    reported |= f.lba == lba && f.message == "record payload crosses its track";
  EXPECT_TRUE(reported) << report.to_string();
  expect_census_survives();

  log_disk->restart();
  for (auto& d : data_disks) d->restart();
  core::TrailDriver fresh(sim, *log_disk);
  for (auto& d : data_disks) (void)fresh.add_data_disk(*d);
  try {
    fresh.mount();
    ADD_FAILURE() << "mount adopted a record that crosses its track";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "recovery: record payload crosses its track");
  }
}

/// A log disk whose tracks are wider than recovery's read window.
class WideTrackVerifierTest : public AuditVerifierTest {
 protected:
  WideTrackVerifierTest() : AuditVerifierTest(disk::st41601n()) {}
};

TEST_F(WideTrackVerifierTest, RecordStraddlingReadWindowRecovers) {
  const auto records = prepare_crashed_log();
  // Stamp a legal newer record kMaxTrailBatch sectors before the
  // youngest one on the same track (the head wrapped around the track
  // between the two writes). Recovery's read window anchored at the
  // newer record, 1 + kMaxTrailBatch sectors, then ends just after the
  // older record's header, before its payload.
  const audit::ParsedRecord& youngest = records.back();
  const disk::Geometry& geom = log_disk->geometry();
  const disk::Lba lba = youngest.header_lba - core::kMaxTrailBatch;
  ASSERT_EQ(geom.track_of_lba(lba), geom.track_of_lba(youngest.header_lba));
  ASSERT_FALSE(log_disk->store().is_written(lba));
  ASSERT_FALSE(log_disk->store().is_written(lba + 1));
  core::RecordHeader newer = youngest.header;
  newer.sequence_id += 1;
  newer.prev_sect = core::encode_log_ptr(0, static_cast<std::uint32_t>(youngest.header_lba));
  newer.batch_size = 1;
  newer.entries.resize(1);
  newer.entries[0].log_lba = static_cast<std::uint32_t>(lba + 1);
  newer.entries[0].data_lba = 900;
  disk::SectorBuf payload{};  // zero fill: already escaped
  newer.entries[0].first_data_byte = core::escape_payload_sector(payload);
  newer.payload_crc = core::payload_image_crc(payload);
  disk::SectorBuf sector{};
  core::serialize_record_header(newer, sector);
  log_disk->store().write(lba, 1, sector);
  log_disk->store().write(lba + 1, 1, payload);

  const Report report = audit::verify_log(*log_disk);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(remount_records(), static_cast<std::uint32_t>(kRecords + 1));
}

TEST_F(AuditVerifierTest, CorruptChainPayloadDetected) {
  const auto records = prepare_crashed_log();
  flip(records[2].header_lba + 1, 100, std::byte{0x01});  // on-chain payload

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.payload_crc").errors(), 0u) << report.to_string();
  expect_census_survives();
  // A torn record below an intact one is impossible in a legal crash.
  EXPECT_EQ(remount_records(), std::nullopt);
}

TEST_F(AuditVerifierTest, TornTailIsLegalButReportable) {
  const auto records = prepare_crashed_log();
  flip(records.back().header_lba + 1, 64, std::byte{0x80});  // youngest payload

  Report lenient = audit::verify_log(*log_disk);
  EXPECT_TRUE(lenient.ok()) << lenient.to_string();
  EXPECT_GT(lenient.check("log.payload_crc").warnings(), 0u);

  VerifyOptions strict;
  strict.allow_torn_tail = false;
  Report hard = audit::verify_log(*log_disk, strict);
  EXPECT_GT(hard.check("log.payload_crc").errors(), 0u);

  // Recovery drops the torn youngest and keeps the rest.
  const auto found = remount_records();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, static_cast<std::uint32_t>(kRecords - 1));
}

TEST_F(AuditVerifierTest, DuplicateRecordKeyDetected) {
  const auto records = prepare_crashed_log();
  const std::uint32_t newest_seq = records.back().header.sequence_id;
  reserialize(records[2].header_lba,
              [&](core::RecordHeader& h) { h.sequence_id = newest_seq; });

  Report report = audit::verify_log(*log_disk);
  EXPECT_GT(report.check("log.record_keys").errors(), 0u) << report.to_string();
  expect_census_survives();
  // Depending on which duplicate the locator anchors on, recovery either
  // trips the key-monotonicity guard or truncates the chain early; it
  // must never adopt all records as if the image were healthy.
  const auto found = remount_records();
  if (found.has_value()) {
    EXPECT_LT(*found, static_cast<std::uint32_t>(kRecords));
  }
}

// ------------------------------------------------------ runtime audits

class AuditRuntimeTest : public TrailFixture {
 protected:
  AuditRuntimeTest() : TrailFixture(2) {}
};

TEST_F(AuditRuntimeTest, DriverAuditCleanAfterMount) {
  start();
  Report report;
  driver->run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST_F(AuditRuntimeTest, DriverAuditCleanDuringAndAfterTraffic) {
  start();
  for (int i = 0; i < 8; ++i)
    write_sync({devices[i % 2], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  Report busy;
  driver->run_audit(busy, /*quiescent=*/false);
  EXPECT_TRUE(busy.ok()) << busy.to_string();

  settle();
  Report quiet;
  driver->run_audit(quiet, /*quiescent=*/true);
  EXPECT_TRUE(quiet.ok()) << quiet.to_string();
  EXPECT_GT(quiet.check("store.chunks").passes(), 0u);
  EXPECT_GT(quiet.check("buffer.state").passes(), 0u);
}

TEST_F(AuditRuntimeTest, DriverAuditCleanAfterRecovery) {
  start();
  for (auto& d : data_disks) d->crash_halt();
  for (int i = 0; i < 4; ++i)
    write_sync({devices[0], static_cast<disk::Lba>(i * 4)}, make_pattern(2, i));
  crash_and_remount();
  Report report;
  driver->run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  verify_all_acknowledged_durable();
}

TEST(AuditDatabase, EngineAuditCleanAroundCheckpoint) {
  sim::Simulator sim;
  io::StandardDriver driver;
  disk::DiskDevice log_dev(sim, disk::small_test_disk());
  disk::DiskDevice data_dev(sim, disk::small_test_disk());
  const io::DeviceId log_id = driver.add_device(log_dev);
  const io::DeviceId data_id = driver.add_device(data_dev);

  db::DbConfig cfg;
  cfg.buffer_pool_pages = 8;
  cfg.log_region_sectors = 512;
  cfg.checkpoint_every_bytes = 0;
  db::Database db(sim, driver, log_id, cfg);
  db.attach_device(log_id, log_dev);
  db.attach_device(data_id, data_dev);
  const db::TableId items = db.create_table("items", 64, 200, data_id);

  auto pump = [&](const bool& flag) {
    while (!flag) ASSERT_TRUE(sim.step()) << "simulation stalled";
  };
  for (int i = 0; i < 10; ++i) {
    db::Txn& txn = db.begin();
    db::RowBuf row(64, std::byte(static_cast<std::uint8_t>(i)));
    bool put = false;
    txn.update(items, static_cast<db::Key>(i), row, [&](bool ok) {
      ASSERT_TRUE(ok);
      put = true;
    });
    pump(put);
    bool committed = false;
    db.commit(txn, [&](bool ok) {
      ASSERT_TRUE(ok);
      committed = true;
    });
    pump(committed);

    Report mid;
    db.run_audit(mid, /*quiescent=*/false);
    EXPECT_TRUE(mid.ok()) << mid.to_string();
  }

  bool checked = false;
  db.checkpoint([&] { checked = true; });
  pump(checked);
  Report report;
  db.run_audit(report, /*quiescent=*/true);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.check("wal.sequence").passes(), 0u);
  EXPECT_GT(report.check("pool.frames").passes(), 0u);
}

}  // namespace
}  // namespace trail::testing
