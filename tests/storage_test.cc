// Unit tests for the durability layer's building blocks: CRC32C, WAL record
// encoding, writer/reader framing, torn-tail handling at every byte offset,
// fault injection, and checkpoint file framing + CURRENT fallback.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/logging.h"
#include "common/strings.h"
#include "db/database.h"
#include "rules/engine.h"
#include "storage/checkpoint.h"
#include "storage/durability.h"
#include "storage/file.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "testutil.h"

namespace ptldb::storage {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test.
class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           StrCat("ptldb_storage_",
                  ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(StorageTest, Crc32cKnownVector) {
  // The Castagnoli check value: CRC-32C("123456789") = 0xE3069283.
  EXPECT_EQ(codec::Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(codec::Crc32c("", 0), 0u);
  EXPECT_NE(codec::Crc32c("a", 1), codec::Crc32c("b", 1));
}

WalRecord SampleStateRecord() {
  WalRecord rec;
  rec.type = WalRecordType::kState;
  rec.state.seq = 41;
  rec.state.time = 1000;
  rec.state.clock_now = 1001;
  rec.state.events = {event::TransactionCommit(7),
                      event::Event{"tick", {Value::Str("IBM"), Value::Real(2.5)}}};
  db::RedoDelta ins{db::RedoDelta::Kind::kInsert, "stock",
                    {Value::Str("IBM"), Value::Real(40)}, {}};
  db::RedoDelta upd{db::RedoDelta::Kind::kUpdate, "stock",
                    {Value::Str("IBM"), Value::Real(40)},
                    {Value::Str("IBM"), Value::Real(55)}};
  db::RedoDelta del{db::RedoDelta::Kind::kDelete, "stock",
                    {Value::Str("HP"), Value::Real(20)}, {}};
  rec.state.deltas = {ins, upd, del};
  return rec;
}

TEST_F(StorageTest, WalRecordRoundTripAllTypes) {
  WalRecord state = SampleStateRecord();
  ASSERT_OK_AND_ASSIGN(WalRecord got, DecodeWalRecord(EncodeWalRecord(state)));
  EXPECT_EQ(got.type, WalRecordType::kState);
  EXPECT_EQ(got.state.seq, 41u);
  EXPECT_EQ(got.state.time, 1000);
  EXPECT_EQ(got.state.clock_now, 1001);
  ASSERT_EQ(got.state.events.size(), 2u);
  EXPECT_EQ(got.state.events[0], state.state.events[0]);
  EXPECT_EQ(got.state.events[1], state.state.events[1]);
  ASSERT_EQ(got.state.deltas.size(), 3u);
  EXPECT_EQ(got.state.deltas[1].kind, db::RedoDelta::Kind::kUpdate);
  EXPECT_EQ(got.state.deltas[1].new_row[1], Value::Real(55));
  EXPECT_EQ(got.state.deltas[2].kind, db::RedoDelta::Kind::kDelete);

  WalRecord firing;
  firing.type = WalRecordType::kFiring;
  firing.firing = {"sharp_increase", "sym=IBM", 1002};
  ASSERT_OK_AND_ASSIGN(got, DecodeWalRecord(EncodeWalRecord(firing)));
  EXPECT_EQ(got.firing.rule, "sharp_increase");
  EXPECT_EQ(got.firing.params, "sym=IBM");
  EXPECT_EQ(got.firing.time, 1002);

  WalRecord veto;
  veto.type = WalRecordType::kIcVeto;
  veto.veto = {9, 55, 1003, {"cap", "no_crash"}};
  ASSERT_OK_AND_ASSIGN(got, DecodeWalRecord(EncodeWalRecord(veto)));
  EXPECT_EQ(got.veto.txn, 9);
  EXPECT_EQ(got.veto.seq, 55u);
  EXPECT_EQ(got.veto.violated, (std::vector<std::string>{"cap", "no_crash"}));

  WalRecord ckpt;
  ckpt.type = WalRecordType::kCheckpoint;
  ckpt.checkpoint = {3, 120};
  ASSERT_OK_AND_ASSIGN(got, DecodeWalRecord(EncodeWalRecord(ckpt)));
  EXPECT_EQ(got.checkpoint.checkpoint_id, 3u);
  EXPECT_EQ(got.checkpoint.history_size, 120u);
}

TEST_F(StorageTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeWalRecord("").ok());
  EXPECT_FALSE(DecodeWalRecord(std::string(1, '\x09')).ok());  // bad type
  // Trailing junk after a valid payload must be rejected (ExpectEnd).
  WalRecord ckpt;
  ckpt.type = WalRecordType::kCheckpoint;
  std::string payload = EncodeWalRecord(ckpt) + "x";
  EXPECT_FALSE(DecodeWalRecord(payload).ok());
}

// Writes a three-record WAL and returns its on-disk image.
std::string WriteSampleWal(const std::string& path, FsyncPolicy policy) {
  PosixFileFactory factory;
  auto file = factory.OpenWritable(path, /*truncate=*/true);
  PTLDB_CHECK_OK(file.status());
  WalStats stats;
  auto writer = WalWriter::Create(std::move(file).value(), policy, &stats);
  PTLDB_CHECK_OK(writer.status());
  WalRecord state = SampleStateRecord();
  PTLDB_CHECK_OK(writer->AppendState(state.state));
  PTLDB_CHECK_OK(writer->AppendFiring({"r1", "", 1000}));
  PTLDB_CHECK_OK(writer->AppendIcVeto({1, 42, 1001, {"cap"}}));
  PTLDB_CHECK_OK(writer->Sync());
  std::string image;
  PTLDB_CHECK_OK(ReadFileToString(path, &image));
  return image;
}

TEST_F(StorageTest, WalWriterReaderRoundTrip) {
  std::string image = WriteSampleWal(Path("wal.log"), FsyncPolicy::kSync);
  ASSERT_OK_AND_ASSIGN(WalReader reader, WalReader::Open(image));
  std::vector<WalRecordType> types;
  while (true) {
    ASSERT_OK_AND_ASSIGN(auto rec, reader.Next());
    if (!rec.has_value()) break;
    types.push_back(rec->type);
  }
  EXPECT_EQ(types, (std::vector<WalRecordType>{WalRecordType::kState,
                                               WalRecordType::kFiring,
                                               WalRecordType::kIcVeto}));
  EXPECT_EQ(reader.records_read(), 3u);
  EXPECT_EQ(reader.valid_prefix_bytes(), image.size());
  EXPECT_EQ(reader.torn_bytes(), 0u);
}

TEST_F(StorageTest, WalReaderRejectsBadMagic) {
  EXPECT_FALSE(WalReader::Open("").ok());
  EXPECT_FALSE(WalReader::Open("short").ok());
  EXPECT_FALSE(WalReader::Open("NOTAWAL0trailing").ok());
}

TEST_F(StorageTest, TornTailAtEveryByteStopsAtLastRecordBoundary) {
  std::string image = WriteSampleWal(Path("wal.log"), FsyncPolicy::kNone);
  // Record boundaries: offsets after magic and after each complete record.
  std::vector<size_t> boundaries;
  {
    ASSERT_OK_AND_ASSIGN(WalReader reader, WalReader::Open(image));
    boundaries.push_back(kWalMagicLen);
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto rec, reader.Next());
      if (!rec.has_value()) break;
      boundaries.push_back(reader.valid_prefix_bytes());
    }
  }
  ASSERT_EQ(boundaries.size(), 4u);  // magic + 3 records
  for (size_t cut = kWalMagicLen; cut <= image.size(); ++cut) {
    ASSERT_OK_AND_ASSIGN(WalReader reader,
                         WalReader::Open(image.substr(0, cut)));
    uint64_t read = 0;
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto rec, reader.Next());
      if (!rec.has_value()) break;
      ++read;
    }
    // The reader must stop exactly at the last boundary <= cut.
    size_t expect_prefix = kWalMagicLen;
    size_t expect_records = 0;
    for (size_t i = 0; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) {
        expect_prefix = boundaries[i];
        expect_records = i;
      }
    }
    EXPECT_EQ(reader.valid_prefix_bytes(), expect_prefix) << "cut=" << cut;
    EXPECT_EQ(read, expect_records) << "cut=" << cut;
    EXPECT_EQ(reader.torn_bytes(), cut - expect_prefix) << "cut=" << cut;
  }
}

TEST_F(StorageTest, CorruptMiddleRecordStopsReader) {
  std::string image = WriteSampleWal(Path("wal.log"), FsyncPolicy::kNone);
  // Flip one byte inside the second record's payload.
  ASSERT_OK_AND_ASSIGN(WalReader probe, WalReader::Open(image));
  ASSERT_OK_AND_ASSIGN(auto r1, probe.Next());
  ASSERT_TRUE(r1.has_value());
  size_t second_at = probe.valid_prefix_bytes();
  image[second_at + kWalFrameHeaderLen + 2] ^= 0xFF;
  ASSERT_OK_AND_ASSIGN(WalReader reader, WalReader::Open(image));
  ASSERT_OK_AND_ASSIGN(auto got, reader.Next());
  EXPECT_TRUE(got.has_value());
  ASSERT_OK_AND_ASSIGN(got, reader.Next());
  EXPECT_FALSE(got.has_value());  // CRC mismatch: stop
  EXPECT_EQ(reader.valid_prefix_bytes(), second_at);
  EXPECT_GT(reader.torn_bytes(), 0u);
}

TEST_F(StorageTest, FaultInjectingFileWritesExactPrefix) {
  for (uint64_t k : {0u, 1u, 5u, 17u}) {
    std::string path = Path(StrCat("fault_", k));
    FaultInjectingFileFactory factory(StrCat("fault_", k), k);
    ASSERT_OK_AND_ASSIGN(auto file, factory.OpenWritable(path, true));
    std::string payload = "0123456789ABCDEFGHIJ";  // 20 bytes > all k
    Status s = file->Append(payload);
    EXPECT_FALSE(s.ok()) << "k=" << k;
    (void)file->Close();
    std::string on_disk;
    ASSERT_OK(ReadFileToString(path, &on_disk));
    EXPECT_EQ(on_disk, payload.substr(0, k)) << "k=" << k;
  }
  // Non-matching paths open normal files.
  FaultInjectingFileFactory factory("wal.log", 3);
  ASSERT_OK_AND_ASSIGN(auto file, factory.OpenWritable(Path("other"), true));
  EXPECT_TRUE(file->Append("longer than three bytes").ok());
  ASSERT_OK(file->Close());
}

TEST_F(StorageTest, AtomicWriteAndReadBack) {
  PosixFileFactory factory;
  ASSERT_OK(WriteStringToFileAtomic(Path("CURRENT"), "checkpoint-7", &factory));
  std::string got;
  ASSERT_OK(ReadFileToString(Path("CURRENT"), &got));
  EXPECT_EQ(got, "checkpoint-7");
  ASSERT_OK(WriteStringToFileAtomic(Path("CURRENT"), "checkpoint-8", &factory));
  ASSERT_OK(ReadFileToString(Path("CURRENT"), &got));
  EXPECT_EQ(got, "checkpoint-8");
  EXPECT_EQ(ReadFileToString(Path("missing"), &got).code(),
            StatusCode::kNotFound);
}

TEST_F(StorageTest, CheckpointBodyFraming) {
  PosixFileFactory factory;
  std::string body = "retained state bytes \x00\x01\x02";
  ASSERT_OK(CommitCheckpointFile(dir_.string(), 4, body, &factory));
  std::string current;
  ASSERT_OK(ReadFileToString(Path("CURRENT"), &current));
  EXPECT_EQ(current, "checkpoint-4");
  std::string image;
  ASSERT_OK(ReadFileToString(Path("checkpoint-4"), &image));
  ASSERT_OK_AND_ASSIGN(std::string got, ExtractCheckpointBody(image));
  EXPECT_EQ(got, body);
  // Corruptions are rejected.
  EXPECT_FALSE(ExtractCheckpointBody("").ok());
  EXPECT_FALSE(ExtractCheckpointBody(image.substr(0, image.size() - 1)).ok());
  std::string flipped = image;
  flipped.back() ^= 0xFF;
  EXPECT_FALSE(ExtractCheckpointBody(flipped).ok());
  std::string bad_magic = image;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ExtractCheckpointBody(bad_magic).ok());
}

TEST_F(StorageTest, RetiredValidTimeSectionIsRejected) {
  SimClock clock;
  db::Database db(&clock);
  rules::RuleEngine engine(&db);
  CheckpointTargets targets{.db = &db, .engine = &engine, .clock = &clock};
  std::string body;
  ASSERT_OK(EncodeCheckpoint(1, targets, &body));
  // Tail without metrics or a version store: [vt byte][u32 0 = ""][0].
  const size_t vt_byte = body.size() - 6;
  ASSERT_EQ(body[vt_byte], 0);
  ASSERT_OK(RestoreCheckpoint(body, targets).status());
  body[vt_byte] = 1;
  Status s = RestoreCheckpoint(body, targets).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("valid-time"), std::string::npos)
      << s.ToString();
}

// Minimal body whose header fields decode (id, clock, history size).
std::string MiniBody(uint64_t id) {
  std::string body;
  codec::Writer w(&body);
  w.U64(id);
  w.I64(static_cast<Timestamp>(100 + id));
  w.U64(10 * id);
  return body;
}

TEST_F(StorageTest, LatestCheckpointFallsBackWhenCurrentIsCorrupt) {
  PosixFileFactory factory;
  ASSERT_OK(CommitCheckpointFile(dir_.string(), 1, MiniBody(1), &factory));
  ASSERT_OK(CommitCheckpointFile(dir_.string(), 2, MiniBody(2), &factory));

  std::string body;
  ASSERT_OK_AND_ASSIGN(CheckpointInfo info,
                       ReadLatestValidCheckpoint(dir_.string(), &body));
  EXPECT_EQ(info.id, 2u);
  EXPECT_EQ(body, MiniBody(2));

  // Corrupt the live checkpoint: the loader must fall back to id 1.
  std::string image;
  ASSERT_OK(ReadFileToString(Path("checkpoint-2"), &image));
  image[image.size() / 2] ^= 0xFF;
  ASSERT_OK(WriteStringToFileAtomic(Path("checkpoint-2"), image, &factory));
  ASSERT_OK(ReadLatestValidCheckpoint(dir_.string(), &body).status());
  EXPECT_EQ(body, MiniBody(1));

  // A garbage CURRENT name also falls back to the scan.
  ASSERT_OK(WriteStringToFileAtomic(Path("CURRENT"), "checkpoint-99", &factory));
  ASSERT_OK(ReadLatestValidCheckpoint(dir_.string(), &body).status());
  EXPECT_EQ(body, MiniBody(1));

  // Nothing valid at all: NotFound.
  fs::remove(Path("checkpoint-1"));
  EXPECT_EQ(ReadLatestValidCheckpoint(dir_.string(), &body).status().code(),
            StatusCode::kNotFound);
}

TEST_F(StorageTest, AsyncPolicySyncsEveryInterval) {
  PosixFileFactory factory;
  ASSERT_OK_AND_ASSIGN(auto file, factory.OpenWritable(Path("wal.log"), true));
  WalStats wal_stats;
  ASSERT_OK_AND_ASSIGN(WalWriter writer,
                       WalWriter::Create(std::move(file), FsyncPolicy::kAsync,
                                         &wal_stats));
  for (uint64_t i = 0; i < kAsyncSyncInterval + 1; ++i) {
    ASSERT_OK(writer.AppendFiring({"r", "", static_cast<Timestamp>(i)}));
  }
  EXPECT_EQ(wal_stats.syncs, 1u);
  EXPECT_EQ(wal_stats.records_appended, kAsyncSyncInterval + 1);
  EXPECT_EQ(wal_stats.firing_records, kAsyncSyncInterval + 1);
}

// ---- Group commit ----------------------------------------------------------

TEST_F(StorageTest, GroupPolicyNeverSyncsAtAppend) {
  PosixFileFactory factory;
  ASSERT_OK_AND_ASSIGN(auto file, factory.OpenWritable(Path("wal.log"), true));
  WalStats wal_stats;
  ASSERT_OK_AND_ASSIGN(WalWriter writer,
                       WalWriter::Create(std::move(file), FsyncPolicy::kGroup,
                                         &wal_stats));
  for (uint64_t i = 0; i < kAsyncSyncInterval * 2; ++i) {
    ASSERT_OK(writer.AppendFiring({"r", "", static_cast<Timestamp>(i)}));
  }
  EXPECT_EQ(wal_stats.syncs, 0u);
}

TEST_F(StorageTest, GroupCommitBatchBoundariesDeterministic) {
  PosixFileFactory factory;
  ASSERT_OK_AND_ASSIGN(auto file, factory.OpenWritable(Path("wal.log"), true));
  WalStats wal_stats;
  ASSERT_OK_AND_ASSIGN(WalWriter writer,
                       WalWriter::Create(std::move(file), FsyncPolicy::kGroup,
                                         &wal_stats));
  GroupCommitter group(&writer);
  auto append_one = [&]() {
    auto lsn = group.Append([](WalWriter* w) {
      return w->AppendFiring({"r", "", 0});
    });
    PTLDB_CHECK(lsn.ok());
    return lsn.value();
  };

  // Five appends, then one waiter on the tail: exactly one fsync covers all
  // five, and a late waiter on an older LSN rides it for free.
  uint64_t lsns[5];
  for (auto& lsn : lsns) lsn = append_one();
  EXPECT_EQ(lsns[4], 5u);
  EXPECT_EQ(group.durable_lsn(), 0u);
  ASSERT_OK(group.WaitDurable(lsns[4]));
  EXPECT_EQ(group.durable_lsn(), 5u);
  EXPECT_EQ(wal_stats.syncs, 1u);
  ASSERT_OK(group.WaitDurable(lsns[1]));  // already durable: no new sync
  EXPECT_EQ(wal_stats.syncs, 1u);

  GroupCommitStats stats = group.stats();
  EXPECT_EQ(stats.appends, 5u);
  EXPECT_EQ(stats.sync_batches, 1u);
  EXPECT_EQ(stats.commits_acked, 2u);
  EXPECT_EQ(stats.commits_coalesced, 1u);

  // A sixth append starts the next batch; waiting past the appended tail is
  // a caller bug, not a silent success.
  uint64_t lsn6 = append_one();
  EXPECT_EQ(group.WaitDurable(lsn6 + 1).code(), StatusCode::kInvalidArgument);
  ASSERT_OK(group.WaitDurable(lsn6));
  EXPECT_EQ(wal_stats.syncs, 2u);
  ASSERT_OK(group.SyncAll());  // tail already durable: no-op
  EXPECT_EQ(wal_stats.syncs, 2u);
}

TEST_F(StorageTest, GroupCommitSyncAllAcksEveryRecordItCovers) {
  // The server acks a batch through one SyncAll barrier: the N records that
  // barrier makes durable are N acked commits, N-1 of them coalesced.
  PosixFileFactory factory;
  ASSERT_OK_AND_ASSIGN(auto file,
                       factory.OpenWritable(Path("syncall.log"), true));
  WalStats wal_stats;
  ASSERT_OK_AND_ASSIGN(WalWriter writer,
                       WalWriter::Create(std::move(file), FsyncPolicy::kGroup,
                                         &wal_stats));
  GroupCommitter group(&writer);
  constexpr uint64_t kAppends = 7;
  for (uint64_t i = 0; i < kAppends; ++i) {
    ASSERT_OK(group.Append([](WalWriter* w) {
                     return w->AppendFiring({"r", "", 0});
                   }).status());
  }
  ASSERT_OK(group.SyncAll());
  GroupCommitStats stats = group.stats();
  EXPECT_EQ(stats.sync_batches, 1u);
  EXPECT_EQ(stats.commits_acked, kAppends);
  EXPECT_EQ(stats.commits_coalesced, kAppends - 1);
  EXPECT_EQ(stats.max_batch, kAppends);
  // A barrier over an already durable tail syncs and acks nothing.
  ASSERT_OK(group.SyncAll());
  stats = group.stats();
  EXPECT_EQ(wal_stats.syncs, 1u);
  EXPECT_EQ(stats.commits_acked, kAppends);
  // The next batch starts a new group.
  ASSERT_OK(group.Append([](WalWriter* w) {
                   return w->AppendFiring({"r", "", 0});
                 }).status());
  ASSERT_OK(group.SyncAll());
  stats = group.stats();
  EXPECT_EQ(stats.sync_batches, 2u);
  EXPECT_EQ(stats.commits_acked, kAppends + 1);
  EXPECT_EQ(stats.commits_coalesced, kAppends - 1);
  EXPECT_EQ(stats.max_batch, kAppends);
}

TEST_F(StorageTest, GroupCommitConcurrentWaitersCoalesce) {
  // A sync slow enough that waiters pile up behind the leader's latch: the
  // fsync count must come out well below the commit count (that gap IS the
  // group-commit win), and every acked commit must be covered.
  class SlowSyncFile : public WritableFile {
   public:
    explicit SlowSyncFile(std::unique_ptr<WritableFile> base)
        : base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
  };

  // Coalescing requires the waiter threads to actually overlap the leader's
  // fsync; on a loaded machine the scheduler can serialize them so every
  // commit gets its own sync. The accounting invariants must hold on every
  // attempt; the coalescing property only has to show up on one.
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  constexpr uint64_t kTotal = kThreads * kCommitsPerThread;
  constexpr int kAttempts = 5;
  GroupCommitStats stats;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    PosixFileFactory factory;
    ASSERT_OK_AND_ASSIGN(
        auto base,
        factory.OpenWritable(Path("wal" + std::to_string(attempt) + ".log"),
                             true));
    WalStats wal_stats;
    ASSERT_OK_AND_ASSIGN(
        WalWriter writer,
        WalWriter::Create(std::make_unique<SlowSyncFile>(std::move(base)),
                          FsyncPolicy::kGroup, &wal_stats));
    GroupCommitter group(&writer);

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&group] {
        for (int i = 0; i < kCommitsPerThread; ++i) {
          auto lsn = group.Append([](WalWriter* w) {
            return w->AppendFiring({"r", "", 0});
          });
          PTLDB_CHECK(lsn.ok());
          PTLDB_CHECK_OK(group.WaitDurable(lsn.value()));
        }
      });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(group.appended_lsn(), kTotal);
    EXPECT_EQ(group.durable_lsn(), kTotal);
    stats = group.stats();
    EXPECT_EQ(stats.appends, kTotal);
    EXPECT_EQ(stats.commits_acked, kTotal);
    EXPECT_EQ(stats.sync_batches + stats.commits_coalesced, kTotal);
    EXPECT_EQ(wal_stats.syncs, stats.sync_batches);
    if (stats.max_batch > 1u) break;
  }
  EXPECT_LT(stats.sync_batches, kTotal);  // some fsyncs retired >1 commit
  EXPECT_GT(stats.max_batch, 1u);
}

TEST_F(StorageTest, GroupCommitSyncFailureIsStickyForAllWaiters) {
  // Sync fails from the N-th call on: the leader that hits it gets the
  // error, and so does every later waiter and appender — after a failed
  // fsync the tail's coverage is unknown and nothing may be acked.
  class FailingSyncFile : public WritableFile {
   public:
    FailingSyncFile(std::unique_ptr<WritableFile> base, int ok_syncs)
        : base_(std::move(base)), ok_syncs_(ok_syncs) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Sync() override {
      if (ok_syncs_-- <= 0) return Status::Internal("disk gone");
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    int ok_syncs_;
  };

  PosixFileFactory factory;
  ASSERT_OK_AND_ASSIGN(auto base, factory.OpenWritable(Path("wal.log"), true));
  WalStats wal_stats;
  ASSERT_OK_AND_ASSIGN(
      WalWriter writer,
      WalWriter::Create(std::make_unique<FailingSyncFile>(std::move(base), 1),
                        FsyncPolicy::kGroup, &wal_stats));
  GroupCommitter group(&writer);

  auto append_one = [&]() {
    return group.Append(
        [](WalWriter* w) { return w->AppendFiring({"r", "", 0}); });
  };
  ASSERT_OK_AND_ASSIGN(uint64_t lsn1, append_one());
  ASSERT_OK(group.WaitDurable(lsn1));  // the one good sync

  ASSERT_OK_AND_ASSIGN(uint64_t lsn2, append_one());
  Status failed = group.WaitDurable(lsn2);
  EXPECT_EQ(failed.code(), StatusCode::kInternal);

  // Sticky: the same first error comes back everywhere, including for LSNs
  // that were durable before the failure (the committer is dead, not the
  // history) and from further appends.
  EXPECT_EQ(group.status().code(), StatusCode::kInternal);
  EXPECT_EQ(group.WaitDurable(lsn1).code(), StatusCode::kInternal);
  EXPECT_EQ(group.SyncAll().code(), StatusCode::kInternal);
  EXPECT_EQ(append_one().status().code(), StatusCode::kInternal);
  EXPECT_EQ(group.stats().appends, 2u);  // the failed append did not count
}

TEST_F(StorageTest, GroupCommitCrashAtBoundaryPreservesAckedCommits) {
  // Kill the WAL byte stream at assorted offsets while a kGroup manager is
  // acking commits with WaitWalDurable. Every commit acked before the fault
  // must survive recovery of the torn directory — acked means durable, at
  // whatever byte the crash lands.
  for (uint64_t fail_at : {400u, 733u, 1101u, 1850u}) {
    fs::path dir = dir_ / StrCat("crash_", fail_at);
    FaultInjectingFileFactory factory("wal.log", fail_at);

    SimClock clock;
    db::Database db(&clock);
    rules::RuleEngine engine(&db);
    ASSERT_OK(db.CreateTable(
        "kv",
        db::Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        {"k"}));
    CheckpointTargets targets;
    targets.db = &db;
    targets.engine = &engine;
    targets.clock = &clock;
    DurabilityOptions opts;
    opts.dir = dir.string();
    opts.fsync = FsyncPolicy::kGroup;
    opts.file_factory = &factory;
    ASSERT_OK_AND_ASSIGN(auto mgr, DurabilityManager::Attach(opts, targets));

    int64_t last_acked = 0;
    for (int64_t i = 1; i <= 200; ++i) {
      clock.Advance(1);
      Status s = db.InsertRow("kv", {Value::Int(i), Value::Int(i * 10)});
      if (s.ok()) s = mgr->WaitWalDurable();
      if (!s.ok()) break;
      last_acked = i;
    }
    // 200 inserts always overrun every fault offset above.
    EXPECT_FALSE(mgr->status().ok()) << "fault at " << fail_at << " not hit";
    EXPECT_GT(last_acked, 0) << "fault at " << fail_at;
    mgr.reset();  // crash: the manager dies with the torn file on disk

    SimClock clock2;
    db::Database db2(&clock2);
    rules::RuleEngine engine2(&db2);
    ASSERT_OK(db2.CreateTable(
        "kv",
        db::Schema({{"k", ValueType::kInt64}, {"v", ValueType::kInt64}}),
        {"k"}));
    CheckpointTargets targets2;
    targets2.db = &db2;
    targets2.engine = &engine2;
    targets2.clock = &clock2;
    ASSERT_OK_AND_ASSIGN(RecoveryReport report,
                         Recover(dir.string(), targets2));
    EXPECT_TRUE(report.clean()) << report.ToString();
    for (int64_t i = 1; i <= last_acked; ++i) {
      db::ParamMap params{{"k", Value::Int(i)}};
      ASSERT_OK_AND_ASSIGN(
          db::Relation rel,
          db2.QuerySql("SELECT v FROM kv WHERE k = $k", &params));
      ASSERT_EQ(rel.size(), 1u)
          << "acked row " << i << " lost after crash at byte " << fail_at;
      EXPECT_EQ(rel.row(0)[0], Value::Int(i * 10));
    }
  }
}

TEST_F(StorageTest, WalStatsOnlyGrowAcrossCheckpoints) {
  SimClock clock;
  db::Database db(&clock);
  rules::RuleEngine engine(&db);
  ASSERT_OK(db.CreateTable("t", db::Schema({{"v", ValueType::kInt64}})));
  DurabilityOptions opts;
  opts.dir = dir_.string();
  opts.fsync = FsyncPolicy::kNone;
  ASSERT_OK_AND_ASSIGN(
      auto mgr, DurabilityManager::Attach(
                    opts, {.db = &db, .engine = &engine, .clock = &clock}));
  WalStats last = mgr->wal_stats();
  for (int round = 0; round < 3; ++round) {
    clock.Advance(1);
    ASSERT_OK(db.InsertRow("t", {Value::Int(round)}));
    WalStats written = mgr->wal_stats();
    EXPECT_GT(written.bytes_appended, last.bytes_appended);
    EXPECT_GT(written.records_appended, last.records_appended);
    EXPECT_GT(written.state_records, last.state_records);
    // The reset starts a fresh log; the totals carry the retired one over
    // and add the new log's checkpoint marker.
    ASSERT_OK(mgr->Checkpoint());
    last = mgr->wal_stats();
    EXPECT_GT(last.bytes_appended, written.bytes_appended);
    EXPECT_EQ(last.records_appended, written.records_appended + 1);
    EXPECT_EQ(last.state_records, written.state_records);
  }
}

TEST_F(StorageTest, BatchedFlushRecoversClean) {
  // A batched drain must log its firings in state order, as WAL replay (one
  // state at a time) decides them. Two priority-0 rules fire at consecutive
  // states in the reverse of their registration order: a drain sorted only
  // by (priority, registration order) logs a_first before b_second, replay
  // logs b_second first, and recovery reports both as mismatches.
  auto register_rules = [](rules::RuleEngine* engine) {
    auto noop = [](rules::ActionContext&) { return Status::OK(); };
    rules::RuleOptions opts{.record_execution = false};
    PTLDB_CHECK_OK(engine->AddTrigger("a_first", "@ea()", noop, opts));
    PTLDB_CHECK_OK(engine->AddTrigger("b_second", "@eb()", noop, opts));
  };
  fs::path dir = dir_ / "batched";
  {
    SimClock clock;
    db::Database db(&clock);
    rules::RuleEngine engine(&db);
    register_rules(&engine);
    engine.SetBatching(4);
    CheckpointTargets targets;
    targets.db = &db;
    targets.engine = &engine;
    targets.clock = &clock;
    DurabilityOptions opts;
    opts.dir = dir.string();
    ASSERT_OK_AND_ASSIGN(auto mgr, DurabilityManager::Attach(opts, targets));
    clock.Advance(1);
    ASSERT_OK(db.RaiseEvent(event::Event{"eb", {}}));
    clock.Advance(1);
    ASSERT_OK(db.RaiseEvent(event::Event{"ea", {}}));
    ASSERT_OK(engine.Flush());
    ASSERT_EQ(engine.TakeErrors().size(), 0u);
    ASSERT_EQ(engine.stats().actions_executed, 2u);
  }

  SimClock clock;
  db::Database db(&clock);
  rules::RuleEngine engine(&db);
  register_rules(&engine);
  CheckpointTargets targets;
  targets.db = &db;
  targets.engine = &engine;
  targets.clock = &clock;
  ASSERT_OK_AND_ASSIGN(RecoveryReport report, Recover(dir.string(), targets));
  EXPECT_EQ(report.firings_replayed, 2u);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

TEST_F(StorageTest, CascadingActionRecoversClean) {
  // Two rules fire at one state; the higher-priority action writes a row,
  // and a third rule fires on the nested state that write appends. The log
  // must hold both outer decisions before the nested one — the order replay
  // (which runs no actions) decides them in, state by state.
  auto setup = [](db::Database* db, rules::RuleEngine* engine) {
    PTLDB_CHECK_OK(
        db->CreateTable("log", db::Schema({{"v", ValueType::kInt64}})));
    PTLDB_CHECK_OK(
        engine->queries().Register("n", "SELECT COUNT(*) FROM log", {}));
    auto noop = [](rules::ActionContext&) { return Status::OK(); };
    auto write = [](rules::ActionContext& ctx) {
      return ctx.database().InsertRow("log", {Value::Int(1)});
    };
    rules::RuleOptions first{.priority = 0, .record_execution = false};
    rules::RuleOptions second{.priority = 1, .record_execution = false};
    PTLDB_CHECK_OK(engine->AddTrigger("writer", "@go()", write, first));
    PTLDB_CHECK_OK(engine->AddTrigger("bystander", "@go()", noop, second));
    PTLDB_CHECK_OK(engine->AddTrigger("nested", "n() >= 1", noop, second));
  };
  fs::path dir = dir_ / "cascade";
  {
    SimClock clock;
    db::Database db(&clock);
    rules::RuleEngine engine(&db);
    setup(&db, &engine);
    CheckpointTargets targets{.db = &db, .engine = &engine, .clock = &clock};
    DurabilityOptions opts;
    opts.dir = dir.string();
    ASSERT_OK_AND_ASSIGN(auto mgr, DurabilityManager::Attach(opts, targets));
    clock.Advance(1);
    ASSERT_OK(db.RaiseEvent(event::Event{"go", {}}));
    ASSERT_EQ(engine.TakeErrors().size(), 0u);
    ASSERT_EQ(engine.stats().actions_executed, 3u);
  }

  SimClock clock;
  db::Database db(&clock);
  rules::RuleEngine engine(&db);
  setup(&db, &engine);
  CheckpointTargets targets{.db = &db, .engine = &engine, .clock = &clock};
  ASSERT_OK_AND_ASSIGN(RecoveryReport report, Recover(dir.string(), targets));
  EXPECT_EQ(report.firings_replayed, 3u);
  EXPECT_TRUE(report.clean()) << report.ToString();
}

}  // namespace
}  // namespace ptldb::storage
