// Crash-safe measurement campaigns: write-ahead journal and exact resume.
//
// The dataset-generation stage is the expensive part of ESM — hours of
// on-device measurement under reference-model QC (paper §II-C.3) — and a
// crashed or killed process (OOM, device-host reboot, CI timeout) must not
// throw the collected measurements away. DatasetGenerator therefore writes
// every accepted batch through a CampaignJournal: an append-only,
// line-framed write-ahead log that is fsync'd on batch boundaries, so at
// any kill point the journal holds every batch that completed.
//
// File format (text, one record per line):
//
//   esm-journal v1
//   <seq> <crc32> <body>
//
// `seq` is a contiguous sequence number starting at 0, `crc32` is the CRC32
// (common/checksum.hpp) of exactly the body bytes, and `body` is a stream
// of whitespace-free token groups `key count v0 v1 ...` on one line,
// encoded and decoded by the one token-group codec of `.esm` archives
// (ArchiveWriter::to_line / ArchiveReader::from_line, common/archive.hpp).
// Record 0 describes the campaign (config digest, seed, reference
// baselines, baseline-session count, accumulated simulated cost, RNG
// fingerprint); every later record is one measure_batch() call: the
// surviving samples (todo-index + latency), the QcReport, the
// DatasetReport, the newly quarantined architecture keys, and the RNG
// fingerprint after the batch.
//
// Torn-tail rule: a record is durable once its terminating newline reaches
// stable storage. On resume, a final line that is unterminated, fails its
// CRC, or does not parse is a *torn tail* — it is truncated from the file
// and noted on stderr, and that batch is simply re-measured. The same
// damage anywhere BEFORE the last record is corruption and is rejected
// with a precise error naming the record and byte offset.
//
// Resume invariant: because every stochastic decision of a campaign is
// drawn from seeded streams, and measurements never advance the device's
// sequential stream (they ride non-advancing substreams), a journaled
// batch can be replayed by (a) fast-forwarding the device through the
// recorded number of session begins, (b) consuming one generator-RNG split
// per session, and (c) restoring the journaled cost/quarantine/QC state —
// no measurement runs, and the campaign continues bit-identically to an
// uninterrupted run. The RNG fingerprints pin that
// invariant: replay refuses to continue if the restored stream diverges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "esm/dataset_gen.hpp"

namespace esm {

struct EsmConfig;

/// Campaign-start record: everything needed to restore DatasetGenerator
/// construction state without re-measuring the reference baselines.
struct CampaignHeader {
  std::uint32_t config_crc = 0;   ///< campaign_config_crc() of the config
  std::uint64_t seed = 0;         ///< EsmConfig::seed
  int baseline_sessions = 0;      ///< device sessions to replay on resume
  std::vector<double> baselines;  ///< per-reference baseline latencies (ms)
  double cost_seconds = 0.0;      ///< device cumulative cost after baselines
  std::uint64_t rng_digest = 0;   ///< generator stream fingerprint
};

/// One surviving sample of a journaled batch, addressed by its index into
/// the batch's measurable (non-quarantined) architecture list.
struct JournalSample {
  std::size_t todo_index = 0;
  double latency_ms = 0.0;
};

/// One measure_batch() call as written to / replayed from the journal.
struct BatchRecord {
  std::size_t requested = 0;      ///< architectures asked for
  std::uint32_t request_crc = 0;  ///< CRC32 over the requested arch keys
  int sessions = 0;               ///< device sessions to replay on resume
  bool has_qc = false;            ///< false for fully quarantined/empty calls
  QcReport qc;
  DatasetReport report;
  std::vector<JournalSample> samples;
  std::vector<std::string> quarantined;  ///< arch keys newly quarantined
  double cost_total = 0.0;        ///< device cumulative cost after the batch
  std::uint64_t rng_digest = 0;   ///< generator stream fingerprint after
};

/// Digest of the campaign-identity fields of a config (space, seed, QC,
/// fault and retry knobs). Deliberately excludes the journal options: a
/// campaign may be resumed with different ones and must still produce
/// bit-identical results.
std::uint32_t campaign_config_crc(const EsmConfig& config);

/// CRC32 over the stable keys of a requested batch, used to verify that a
/// replayed journal record answers the same request it was written for.
std::uint32_t batch_request_crc(const std::vector<ArchConfig>& archs);

/// Where journal bytes go. Throwing from append() models a mid-record
/// crash: whatever was written so far stays on disk as a torn tail.
class JournalSink {
 public:
  virtual ~JournalSink() = default;

  /// Appends raw bytes at the journal's end.
  virtual void append(std::string_view data) = 0;

  /// Durability barrier: returns only once appended bytes are on stable
  /// storage (fsync for the file sink).
  virtual void sync() = 0;
};

/// Appends to a file, fsync'ing on sync() (unless durability is disabled,
/// which tests use to keep tight loops fast).
class FileJournalSink final : public JournalSink {
 public:
  /// Opens `path` (truncating when `truncate`); throws esm::ConfigError on
  /// failure. `durable` gates the fsync in sync().
  FileJournalSink(const std::string& path, bool truncate, bool durable);
  ~FileJournalSink() override;

  FileJournalSink(const FileJournalSink&) = delete;
  FileJournalSink& operator=(const FileJournalSink&) = delete;

  void append(std::string_view data) override;
  void sync() override;

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool durable_ = true;
};

/// Replays a journal file into records, tolerating a torn final record.
struct CampaignResume {
  std::optional<CampaignHeader> header;
  std::vector<BatchRecord> batches;
  std::size_t valid_bytes = 0;  ///< durable prefix (header + intact records)
  bool torn_tail = false;       ///< a trailing partial record was dropped
  std::string torn_detail;      ///< why the tail was considered torn

  /// Parses `path`. A missing or empty file yields an empty resume; damage
  /// on the final record is reported as a torn tail; damage anywhere else
  /// throws esm::ConfigError naming the record and byte offset.
  static CampaignResume load(const std::string& path);

  /// load() over in-memory bytes (used by tests and load(path)).
  static CampaignResume from_string(const std::string& content);
};

/// The write-ahead journal of one measurement campaign: pending records
/// loaded for replay (resume) plus the append sink for new batches.
class CampaignJournal {
 public:
  /// Opens `path`. With `resume` set, an existing journal's records become
  /// available for replay and appends continue after them (a torn tail is
  /// truncated from the file and noted on stderr); otherwise the file is
  /// truncated and a fresh campaign begins. `durable` gates per-record
  /// fsync. Throws esm::ConfigError on I/O failure or mid-file corruption.
  CampaignJournal(const std::string& path, bool resume, bool durable = true);

  /// Fresh journal over an injectable sink (torn-write tests).
  explicit CampaignJournal(std::unique_ptr<JournalSink> sink);

  /// The campaign header loaded on resume, if any.
  const std::optional<CampaignHeader>& header() const { return header_; }

  /// Next journaled batch awaiting replay, or nullptr once live again.
  const BatchRecord* peek_batch() const;
  void pop_batch();

  /// True if open() dropped a torn trailing record.
  bool torn_tail_dropped() const { return torn_; }

  /// Appends record 0; only valid on a fresh (header-less) journal.
  void write_header(const CampaignHeader& header);

  /// Appends one batch record and syncs it to stable storage.
  void append_batch(const BatchRecord& record);

 private:
  void append_record(const std::string& body);

  std::optional<CampaignHeader> header_;
  std::deque<BatchRecord> pending_;
  std::unique_ptr<JournalSink> sink_;
  std::uint64_t next_seq_ = 0;
  bool torn_ = false;
};

}  // namespace esm
