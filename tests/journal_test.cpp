// Tests for the crash-safe campaign journal (esm/journal.hpp): CRC32
// known answers, record round-trips, the torn-tail rule (damage on the
// final record is truncated and re-measured; damage anywhere earlier is
// hard corruption), torn writes injected through a failing JournalSink,
// a seeded fuzz of the record bodies, and the headline determinism pin —
// killing a journaled campaign after any batch and resuming produces
// results bit-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "esm/dataset_gen.hpp"
#include "esm/framework.hpp"
#include "esm/journal.hpp"
#include "hwsim/device.hpp"
#include "hwsim/faults.hpp"
#include "hwsim/measurement.hpp"
#include "nets/builder.hpp"
#include "nets/sampler.hpp"
#include "fuzz_mutator.hpp"

namespace esm {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

std::string full_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ------------------------------------------------------------------ crc32

TEST(ChecksumTest, KnownAnswers) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(ChecksumTest, HexRoundTrip) {
  const std::uint32_t value = 0x0badf00du;
  std::uint32_t parsed = 0;
  ASSERT_TRUE(parse_crc32_hex(crc32_hex(value), parsed));
  EXPECT_EQ(parsed, value);
  EXPECT_FALSE(parse_crc32_hex("xyz", parsed));
  EXPECT_FALSE(parse_crc32_hex("12345", parsed));
  EXPECT_FALSE(parse_crc32_hex("123456789", parsed));
}

// ------------------------------------------------- record round-tripping

CampaignHeader sample_header() {
  CampaignHeader h;
  h.config_crc = 0x1234abcdu;
  h.seed = 77;
  h.baseline_sessions = 3;
  h.baselines = {1.25, 2.5, 0.0078125};
  h.cost_seconds = 123.456789012345678;
  h.rng_digest = 0xdeadbeefcafef00dull;
  return h;
}

BatchRecord sample_record() {
  BatchRecord b;
  b.requested = 6;
  b.request_crc = 0x0badf00du;
  b.sessions = 2;
  b.has_qc = true;
  b.qc.attempts = 2;
  b.qc.passed = true;
  b.qc.reference_cv = 0.0123456789;
  b.qc.reference_deviation = {0.01, 0.02};
  b.qc.outliers = 1;
  b.qc.failed_measurements = 3;
  b.report.requested = 6;
  b.report.measured = 5;
  b.report.quarantined = 1;
  b.report.skipped_quarantined = 2;
  b.report.sessions = 2;
  b.report.retries = 4;
  b.report.timeouts = 1;
  b.report.device_losses = 2;
  b.report.read_errors = 1;
  b.report.qc_passed = true;
  b.report.cost_seconds = 42.125;
  b.report.backoff_seconds = 1.0 / 3.0;
  b.samples = {{0, 1.5}, {2, 2.25}, {3, 0.875}};
  b.quarantined = {"ResNet[d=2:k3e1,k3e1|d=2:k3e1,k3e1]"};
  b.report.quarantined_archs = b.quarantined;
  b.cost_total = 1000.000000000000227;
  b.rng_digest = 0x123456789abcdef0ull;
  return b;
}

void expect_header_eq(const CampaignHeader& a, const CampaignHeader& b) {
  EXPECT_EQ(a.config_crc, b.config_crc);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.baseline_sessions, b.baseline_sessions);
  EXPECT_EQ(a.baselines, b.baselines);
  EXPECT_EQ(a.cost_seconds, b.cost_seconds);  // exact: %.17g round-trips
  EXPECT_EQ(a.rng_digest, b.rng_digest);
}

void expect_record_eq(const BatchRecord& a, const BatchRecord& b) {
  EXPECT_EQ(a.requested, b.requested);
  EXPECT_EQ(a.request_crc, b.request_crc);
  EXPECT_EQ(a.sessions, b.sessions);
  EXPECT_EQ(a.has_qc, b.has_qc);
  EXPECT_EQ(a.qc.attempts, b.qc.attempts);
  EXPECT_EQ(a.qc.passed, b.qc.passed);
  EXPECT_EQ(a.qc.reference_cv, b.qc.reference_cv);
  EXPECT_EQ(a.qc.reference_deviation, b.qc.reference_deviation);
  EXPECT_EQ(a.qc.outliers, b.qc.outliers);
  EXPECT_EQ(a.qc.failed_measurements, b.qc.failed_measurements);
  EXPECT_EQ(a.report.requested, b.report.requested);
  EXPECT_EQ(a.report.measured, b.report.measured);
  EXPECT_EQ(a.report.quarantined, b.report.quarantined);
  EXPECT_EQ(a.report.skipped_quarantined, b.report.skipped_quarantined);
  EXPECT_EQ(a.report.sessions, b.report.sessions);
  EXPECT_EQ(a.report.retries, b.report.retries);
  EXPECT_EQ(a.report.timeouts, b.report.timeouts);
  EXPECT_EQ(a.report.device_losses, b.report.device_losses);
  EXPECT_EQ(a.report.read_errors, b.report.read_errors);
  EXPECT_EQ(a.report.qc_passed, b.report.qc_passed);
  EXPECT_EQ(a.report.cost_seconds, b.report.cost_seconds);
  EXPECT_EQ(a.report.backoff_seconds, b.report.backoff_seconds);
  EXPECT_EQ(a.report.quarantined_archs, b.report.quarantined_archs);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].todo_index, b.samples[i].todo_index);
    EXPECT_EQ(a.samples[i].latency_ms, b.samples[i].latency_ms);
  }
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.cost_total, b.cost_total);
  EXPECT_EQ(a.rng_digest, b.rng_digest);
}

TEST(JournalTest, FileRoundTripPreservesEveryField) {
  const std::string path = temp_path("journal_roundtrip.journal");
  {
    CampaignJournal journal(path, /*resume=*/false, /*durable=*/false);
    journal.write_header(sample_header());
    journal.append_batch(sample_record());
    BatchRecord second = sample_record();
    second.requested = 4;
    second.has_qc = false;
    second.samples.clear();
    second.quarantined.clear();
    second.report.quarantined_archs.clear();
    journal.append_batch(second);
  }
  const CampaignResume resume = CampaignResume::load(path);
  EXPECT_FALSE(resume.torn_tail);
  ASSERT_TRUE(resume.header.has_value());
  expect_header_eq(*resume.header, sample_header());
  ASSERT_EQ(resume.batches.size(), 2u);
  expect_record_eq(resume.batches[0], sample_record());
  EXPECT_EQ(resume.batches[1].requested, 4u);
  EXPECT_FALSE(resume.batches[1].has_qc);
  EXPECT_EQ(resume.valid_bytes, read_file(path).size());
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileYieldsEmptyResume) {
  const CampaignResume resume =
      CampaignResume::load(temp_path("does_not_exist.journal"));
  EXPECT_FALSE(resume.header.has_value());
  EXPECT_TRUE(resume.batches.empty());
  EXPECT_FALSE(resume.torn_tail);
}

TEST(JournalTest, RejectsForeignFile) {
  EXPECT_THROW(CampaignResume::from_string("totally not a journal\n"),
               ConfigError);
}

// ------------------------------------------------------- torn-tail rule

/// A complete two-record journal rendered to a string.
std::string journal_bytes() {
  const std::string path = temp_path("journal_bytes.journal");
  {
    CampaignJournal journal(path, /*resume=*/false, /*durable=*/false);
    journal.write_header(sample_header());
    journal.append_batch(sample_record());
    journal.append_batch(sample_record());
  }
  const std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(JournalTest, TruncationAtEveryOffsetInsideFinalRecordIsTornTail) {
  const std::string bytes = journal_bytes();
  const std::size_t last_line_start = bytes.rfind('\n', bytes.size() - 2) + 1;
  for (std::size_t cut = last_line_start + 1; cut < bytes.size(); ++cut) {
    const CampaignResume resume =
        CampaignResume::from_string(bytes.substr(0, cut));
    EXPECT_TRUE(resume.torn_tail) << "cut at byte " << cut;
    EXPECT_FALSE(resume.torn_detail.empty());
    ASSERT_TRUE(resume.header.has_value());
    EXPECT_EQ(resume.batches.size(), 1u) << "cut at byte " << cut;
    // The durable prefix excludes the torn line entirely.
    EXPECT_EQ(resume.valid_bytes, last_line_start);
  }
  // Cutting exactly at a record boundary is not torn: just fewer records.
  const CampaignResume at_boundary =
      CampaignResume::from_string(bytes.substr(0, last_line_start));
  EXPECT_FALSE(at_boundary.torn_tail);
  EXPECT_EQ(at_boundary.batches.size(), 1u);
}

TEST(JournalTest, BitFlipInFinalRecordIsTornTail) {
  std::string bytes = journal_bytes();
  const std::size_t last_line_start = bytes.rfind('\n', bytes.size() - 2) + 1;
  bytes[last_line_start + 20] ^= 0x04;
  const CampaignResume resume = CampaignResume::from_string(bytes);
  EXPECT_TRUE(resume.torn_tail);
  ASSERT_TRUE(resume.header.has_value());
  EXPECT_EQ(resume.batches.size(), 1u);
}

TEST(JournalTest, MidFileDamageIsHardCorruption) {
  const std::string bytes = journal_bytes();
  // Flip a byte inside record 1 (not the final record): resume must refuse
  // with an error naming the record and offset, never silently re-measure.
  const std::size_t second_line_start = bytes.find('\n') + 1;
  const std::size_t third_line_start = bytes.find('\n', second_line_start) + 1;
  std::string flipped = bytes;
  flipped[third_line_start + 30] ^= 0x10;
  try {
    CampaignResume::from_string(flipped);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("journal corrupted at record"),
              std::string::npos)
        << e.what();
  }
}

TEST(JournalTest, OutOfOrderSequenceNumberIsCorruption) {
  const std::string bytes = journal_bytes();
  // Drop the middle record; the final record's sequence number (2) no
  // longer follows the header's (0), which must be detected.
  std::istringstream in(bytes);
  std::string magic, header, skipped, last;
  std::getline(in, magic);
  std::getline(in, header);
  std::getline(in, skipped);
  std::getline(in, last);
  EXPECT_THROW(
      CampaignResume::from_string(magic + "\n" + header + "\n" + last + "\n"),
      ConfigError);
}

// --------------------------------------------- torn writes via the sink

/// Forwards to a string until `fail_after` total bytes, then throws with
/// only a prefix of the final write applied — an in-process model of a
/// process dying mid-write().
class FailAfterSink final : public JournalSink {
 public:
  FailAfterSink(std::string* out, std::size_t fail_after)
      : out_(out), budget_(fail_after) {}

  void append(std::string_view data) override {
    if (data.size() > budget_) {
      out_->append(data.substr(0, budget_));
      budget_ = 0;
      throw std::runtime_error("sink died mid-record");
    }
    out_->append(data);
    budget_ -= data.size();
  }

  void sync() override {}

 private:
  std::string* out_;
  std::size_t budget_;
};

TEST(JournalTest, SinkFailureAtAnyOffsetLeavesRecoverableJournal) {
  const std::string golden = journal_bytes();
  const CampaignResume golden_resume = CampaignResume::from_string(golden);
  for (std::size_t fail_after = 0; fail_after < golden.size(); ++fail_after) {
    std::string written;
    bool died = false;
    try {
      CampaignJournal journal(
          std::make_unique<FailAfterSink>(&written, fail_after));
      journal.write_header(sample_header());
      journal.append_batch(sample_record());
      journal.append_batch(sample_record());
    } catch (const std::runtime_error&) {
      died = true;
    }
    ASSERT_TRUE(died) << "fail_after " << fail_after;
    ASSERT_LE(written.size(), fail_after);
    // Whatever hit "disk" must resume cleanly: intact records all survive,
    // at most the in-flight record is dropped as a torn tail.
    const CampaignResume resume = CampaignResume::from_string(written);
    EXPECT_LE(resume.batches.size(), golden_resume.batches.size());
    for (std::size_t i = 0; i < resume.batches.size(); ++i) {
      expect_record_eq(resume.batches[i], golden_resume.batches[i]);
    }
    if (resume.header.has_value()) {
      expect_header_eq(*resume.header, *golden_resume.header);
    } else {
      EXPECT_TRUE(resume.batches.empty());
    }
  }
}

// ------------------------------------------- generated record bodies

/// `resume`'s header and batches written to a fresh journal.
std::string reencode(const CampaignResume& resume) {
  std::string out;
  CampaignJournal journal(
      std::make_unique<FailAfterSink>(&out, std::string::npos));
  journal.write_header(*resume.header);
  for (const BatchRecord& batch : resume.batches) journal.append_batch(batch);
  return out;
}

TEST(JournalFuzzTest, MutatedRecordBodiesRejectOrRoundTrip) {
  // Seeded generated input for the record bodies: the header or the first
  // batch body of a real journal is mutated, re-framed with a recomputed
  // CRC so parsing reaches the body, and followed by an intact record, so
  // damage is corruption rather than a torn tail. Each case must throw
  // ConfigError or decode to records whose re-encoding is a fixed point.
  std::vector<std::string> lines;  // magic, header, batch, batch
  std::istringstream in(journal_bytes());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  std::vector<std::string> bodies;
  for (std::size_t i = 1; i <= 2; ++i) {  // past "<seq> <crc32> "
    const std::size_t body = lines[i].find(' ', lines[i].find(' ') + 1) + 1;
    bodies.push_back(lines[i].substr(body));
  }

  Rng rng(0x10A7);
  constexpr int kCases = 20000;
  int decoded = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::size_t seq = rng.uniform_u64(bodies.size());
    std::string body = bodies[seq];
    const int mutations = rng.uniform_int(1, 2);
    for (int m = 0; m < mutations; ++m) {
      fuzz::mutate_groups(body, bodies, ' ', rng);
    }
    std::string bytes = lines[0] + "\n";
    if (seq == 1) bytes += lines[1] + "\n";
    bytes += std::to_string(seq) + " " + crc32_hex(crc32(body)) + " " + body +
             "\n" + lines[seq + 2] + "\n";
    std::optional<CampaignResume> resume;
    try {
      resume = CampaignResume::from_string(bytes);
    } catch (const ConfigError&) {
      continue;
    }
    ++decoded;
    ASSERT_TRUE(resume->header.has_value()) << "case " << c;
    ASSERT_EQ(resume->batches.size(), seq + 1) << "case " << c;
    const std::string once = reencode(*resume);
    ASSERT_EQ(reencode(CampaignResume::from_string(once)), once)
        << "case " << c;
  }
  // The mutator must reach both sides of the grammar (a typed record
  // survives few edits, so fewer cases decode here than in the codec's).
  EXPECT_GT(decoded, kCases / 50);
  EXPECT_LT(decoded, kCases * 9 / 10);
}

// ------------------------------------- the headline determinism pin

EsmConfig campaign_config() {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.n_reference_models = 3;
  cfg.qc_baseline_sessions = 2;
  cfg.seed = 21;
  // A harsh profile with few attempts exercises retries, QC re-measures,
  // AND quarantine on the replay path.
  cfg.faults = parse_fault_profile("harsh");
  cfg.retry.max_attempts = 2;
  cfg.journal.durable = false;  // keep the fsync out of tight test loops
  return cfg;
}

std::vector<std::vector<ArchConfig>> campaign_batches(const SupernetSpec& spec,
                                                      std::size_t n_batches,
                                                      std::size_t batch_size) {
  RandomSampler sampler(spec);
  Rng rng(909);
  std::vector<std::vector<ArchConfig>> batches;
  for (std::size_t b = 0; b < n_batches; ++b) {
    batches.push_back(sampler.sample_n(batch_size, rng));
  }
  return batches;
}

struct CampaignRun {
  std::string fingerprint;     ///< full-precision dump of everything observable
  std::size_t replayed = 0;    ///< batches answered from the journal
};

/// Runs (a prefix of) a campaign and fingerprints every observable output
/// at full precision: samples, per-batch reports and QC, the quarantine
/// set, and the device's accumulated simulated cost.
CampaignRun run_campaign(EsmConfig cfg,
                         const std::vector<std::vector<ArchConfig>>& batches,
                         std::size_t stop_after =
                             std::numeric_limits<std::size_t>::max()) {
  SimulatedDevice device(device_by_name("rpi4"), cfg.seed);
  Rng rng(cfg.seed);
  DatasetGenerator generator(cfg, device, rng.split());
  std::ostringstream os;
  const std::size_t limit = std::min(stop_after, batches.size());
  for (std::size_t b = 0; b < limit; ++b) {
    const BatchResult result = generator.measure_batch(batches[b]);
    for (const MeasuredSample& s : result.samples) {
      os << s.arch.to_string() << ',' << full_double(s.latency_ms) << '\n';
    }
    const DatasetReport& r = result.report;
    os << "report " << r.requested << ' ' << r.measured << ' '
       << r.quarantined << ' ' << r.skipped_quarantined << ' ' << r.sessions
       << ' ' << r.retries << ' ' << r.timeouts << ' ' << r.device_losses
       << ' ' << r.read_errors << ' ' << r.qc_passed << ' '
       << full_double(r.cost_seconds) << ' '
       << full_double(r.backoff_seconds);
    for (const std::string& key : r.quarantined_archs) os << ' ' << key;
    os << "\nqc " << result.qc.attempts << ' ' << result.qc.passed << ' '
       << full_double(result.qc.reference_cv) << ' ' << result.qc.outliers
       << ' ' << result.qc.failed_measurements << '\n';
  }
  os << "quarantine";
  for (const std::string& key : generator.quarantined()) os << ' ' << key;
  os << "\nqc_history " << generator.qc_history().size() << "\ncost "
     << full_double(device.measurement_cost_seconds()) << '\n';
  CampaignRun run;
  run.fingerprint = os.str();
  run.replayed = generator.replayed_batches();
  return run;
}

/// First `lines` lines of `text` (used to cut a journal after record k).
std::string line_prefix(const std::string& text, std::size_t lines) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < lines && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return pos == std::string::npos ? text : text.substr(0, pos);
}

TEST(JournalDeterminismTest, KillAtAnyBatchThenResumeIsIdentical) {
  const EsmConfig base = campaign_config();
  const std::vector<std::vector<ArchConfig>> batches =
      campaign_batches(base.spec, 4, 5);

  // Golden: uninterrupted, no journal.
  const CampaignRun golden = run_campaign(base, batches);
  ASSERT_EQ(golden.replayed, 0u);

  // A complete journaled run must be output-identical and leave a journal
  // with one header and one record per batch.
  const std::string journal = temp_path("determinism.journal");
  std::remove(journal.c_str());
  EsmConfig journaled = base;
  journaled.journal.path = journal;
  const CampaignRun with_journal = run_campaign(journaled, batches);
  EXPECT_EQ(with_journal.fingerprint, golden.fingerprint);
  const std::string full = read_file(journal);

  // Kill after batch k for every k (0 = killed before the header was
  // written), then resume and run the whole campaign: bit-identical.
  EsmConfig resumed = journaled;
  resumed.journal.resume = true;
  for (std::size_t k = 0; k <= batches.size(); ++k) {
    const std::size_t lines = k == 0 ? 0 : 2 + k;  // magic + header + k
    write_file(journal, line_prefix(full, lines));
    const CampaignRun rerun = run_campaign(resumed, batches);
    EXPECT_EQ(rerun.fingerprint, golden.fingerprint)
        << "killed after batch " << k;
    EXPECT_EQ(rerun.replayed, k);
    // The resumed run must have rebuilt the journal to the full campaign.
    EXPECT_EQ(read_file(journal), full);
  }

  // Kill MID-record: cut the full journal a few bytes into its final line;
  // resume drops the torn tail, re-measures that batch, same bytes out.
  const std::size_t last_line_start = full.rfind('\n', full.size() - 2) + 1;
  write_file(journal, full.substr(0, last_line_start + 17));
  const CampaignRun torn = run_campaign(resumed, batches);
  EXPECT_EQ(torn.fingerprint, golden.fingerprint);
  EXPECT_EQ(torn.replayed, batches.size() - 1);
  EXPECT_EQ(read_file(journal), full);
  std::remove(journal.c_str());
}

TEST(JournalDeterminismTest, ResumeRejectsDifferentCampaign) {
  const std::vector<std::vector<ArchConfig>> batches =
      campaign_batches(resnet_spec(), 2, 4);
  const std::string journal = temp_path("mismatch.journal");
  std::remove(journal.c_str());
  EsmConfig cfg = campaign_config();
  cfg.journal.path = journal;
  run_campaign(cfg, batches, /*stop_after=*/1);

  // Same journal, different seed: a different campaign entirely.
  EsmConfig other = cfg;
  other.seed = cfg.seed + 1;
  other.journal.resume = true;
  EXPECT_THROW(run_campaign(other, batches), ConfigError);

  // Same campaign, but a different batch at the replay position.
  EsmConfig resumed = cfg;
  resumed.journal.resume = true;
  std::vector<std::vector<ArchConfig>> reordered = {batches[1], batches[0]};
  EXPECT_THROW(run_campaign(resumed, reordered), ConfigError);
  std::remove(journal.c_str());
}

TEST(JournalDeterminismTest, FrameworkRunWithJournalMatchesPlainRun) {
  EsmConfig cfg;
  cfg.spec = resnet_spec();
  cfg.n_initial = 30;
  cfg.n_step = 15;
  cfg.n_bins = 5;
  cfg.n_test = 30;
  cfg.acc_threshold = 0.9;
  cfg.max_iterations = 1;
  cfg.n_reference_models = 3;
  cfg.qc_baseline_sessions = 2;
  cfg.train.epochs = 10;
  cfg.train.batch_size = 32;
  cfg.seed = 33;
  cfg.journal.durable = false;

  const auto fingerprint = [&](const EsmConfig& run_cfg) {
    SimulatedDevice device(rtx4090_spec(), run_cfg.seed);
    const EsmResult result = EsmFramework(run_cfg, device).run();
    std::ostringstream os;
    os << result.converged << ' ' << result.iterations.size() << ' '
       << result.final_train_set_size;
    for (const IterationReport& it : result.iterations) {
      os << ' ' << full_double(it.eval.overall_accuracy) << ' '
         << full_double(it.eval.min_bin_accuracy);
    }
    return os.str();
  };

  const std::string golden = fingerprint(cfg);

  const std::string journal = temp_path("framework.journal");
  std::remove(journal.c_str());
  EsmConfig journaled = cfg;
  journaled.journal.path = journal;
  EXPECT_EQ(fingerprint(journaled), golden);

  // Re-running with --resume answers every batch from the journal and must
  // reproduce the exact same result.
  EsmConfig resumed = journaled;
  resumed.journal.resume = true;
  EXPECT_EQ(fingerprint(resumed), golden);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace esm
