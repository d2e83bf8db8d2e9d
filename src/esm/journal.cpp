#include "esm/journal.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <utility>

#include "common/archive.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/strings.hpp"
#include "esm/config.hpp"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace esm {
namespace {

constexpr const char* kMagicLine = "esm-journal v1";
constexpr const char* kTypeCampaign = "campaign";
constexpr const char* kTypeBatch = "batch";

std::string encode_header(const CampaignHeader& h) {
  ArchiveWriter w;
  w.put_string("type", kTypeCampaign);
  w.put_string("config_crc", crc32_hex(h.config_crc));
  w.put_u64("seed", h.seed);
  w.put_int("baseline_sessions", h.baseline_sessions);
  w.put_doubles("baselines", h.baselines);
  w.put_double("cost_seconds", h.cost_seconds);
  w.put_u64("rng_digest", h.rng_digest);
  return w.to_line();
}

CampaignHeader decode_header(const ArchiveReader& r) {
  CampaignHeader h;
  ESM_REQUIRE(parse_crc32_hex(r.get_string("config_crc"), h.config_crc),
              "journal campaign record has a malformed config_crc");
  h.seed = r.get_u64("seed");
  h.baseline_sessions = static_cast<int>(r.get_int("baseline_sessions"));
  h.baselines = r.get_doubles("baselines");
  h.cost_seconds = r.get_double("cost_seconds");
  h.rng_digest = r.get_u64("rng_digest");
  return h;
}

std::string encode_batch(const BatchRecord& b) {
  ArchiveWriter w;
  w.put_string("type", kTypeBatch);
  w.put_u64("requested", b.requested);
  w.put_string("request_crc", crc32_hex(b.request_crc));
  w.put_int("sessions", b.sessions);
  w.put_bool("has_qc", b.has_qc);
  w.put_int("qc_attempts", b.qc.attempts);
  w.put_bool("qc_passed", b.qc.passed);
  w.put_double("qc_cv", b.qc.reference_cv);
  w.put_doubles("qc_deviation", b.qc.reference_deviation);
  w.put_int("qc_outliers", b.qc.outliers);
  w.put_int("qc_failed", b.qc.failed_measurements);
  w.put_u64("r_requested", b.report.requested);
  w.put_u64("r_measured", b.report.measured);
  w.put_u64("r_quarantined", b.report.quarantined);
  w.put_u64("r_skipped", b.report.skipped_quarantined);
  w.put_int("r_sessions", b.report.sessions);
  w.put_int("r_retries", b.report.retries);
  w.put_int("r_timeouts", b.report.timeouts);
  w.put_int("r_device_losses", b.report.device_losses);
  w.put_int("r_read_errors", b.report.read_errors);
  w.put_bool("r_qc_passed", b.report.qc_passed);
  w.put_double("r_cost_seconds", b.report.cost_seconds);
  w.put_double("r_backoff_seconds", b.report.backoff_seconds);
  std::vector<std::string> indices;
  std::vector<double> values;
  indices.reserve(b.samples.size());
  values.reserve(b.samples.size());
  for (const JournalSample& s : b.samples) {
    indices.push_back(std::to_string(s.todo_index));
    values.push_back(s.latency_ms);
  }
  w.put_strings("sample_index", indices);
  w.put_doubles("sample_ms", values);
  w.put_strings("quarantine_keys", b.quarantined);
  w.put_double("cost_total", b.cost_total);
  w.put_u64("rng_digest", b.rng_digest);
  return w.to_line();
}

BatchRecord decode_batch(const ArchiveReader& r) {
  BatchRecord b;
  b.requested = static_cast<std::size_t>(r.get_u64("requested"));
  ESM_REQUIRE(parse_crc32_hex(r.get_string("request_crc"), b.request_crc),
              "journal batch record has a malformed request_crc");
  b.sessions = static_cast<int>(r.get_int("sessions"));
  b.has_qc = r.get_bool("has_qc");
  b.qc.attempts = static_cast<int>(r.get_int("qc_attempts"));
  b.qc.passed = r.get_bool("qc_passed");
  b.qc.reference_cv = r.get_double("qc_cv");
  b.qc.reference_deviation = r.get_doubles("qc_deviation");
  b.qc.outliers = static_cast<int>(r.get_int("qc_outliers"));
  b.qc.failed_measurements = static_cast<int>(r.get_int("qc_failed"));
  b.report.requested = static_cast<std::size_t>(r.get_u64("r_requested"));
  b.report.measured = static_cast<std::size_t>(r.get_u64("r_measured"));
  b.report.quarantined =
      static_cast<std::size_t>(r.get_u64("r_quarantined"));
  b.report.skipped_quarantined =
      static_cast<std::size_t>(r.get_u64("r_skipped"));
  b.report.sessions = static_cast<int>(r.get_int("r_sessions"));
  b.report.retries = static_cast<int>(r.get_int("r_retries"));
  b.report.timeouts = static_cast<int>(r.get_int("r_timeouts"));
  b.report.device_losses = static_cast<int>(r.get_int("r_device_losses"));
  b.report.read_errors = static_cast<int>(r.get_int("r_read_errors"));
  b.report.qc_passed = r.get_bool("r_qc_passed");
  b.report.cost_seconds = r.get_double("r_cost_seconds");
  b.report.backoff_seconds = r.get_double("r_backoff_seconds");
  const std::vector<std::string> indices = r.get_strings("sample_index");
  const std::vector<double> values = r.get_doubles("sample_ms");
  ESM_REQUIRE(indices.size() == values.size(),
              "journal batch record sample_index/sample_ms length mismatch ("
                  << indices.size() << " vs " << values.size() << ")");
  b.samples.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    b.samples.push_back(
        {static_cast<std::size_t>(parse_u64("sample_index", indices[i])),
         values[i]});
  }
  b.quarantined = r.get_strings("quarantine_keys");
  b.report.quarantined_archs = b.quarantined;
  b.cost_total = r.get_double("cost_total");
  b.rng_digest = r.get_u64("rng_digest");
  return b;
}

}  // namespace

std::uint32_t campaign_config_crc(const EsmConfig& c) {
  // Canonical identity string over every knob that shapes the measurement
  // stream. Sampling/training knobs are excluded on purpose: the journal
  // pins the *measurement* campaign, and the caller decides which batches
  // to request; the journal options must never matter.
  std::ostringstream os;
  os << c.spec.name << '|' << supernet_kind_name(c.spec.kind) << '|'
     << c.spec.num_units << '|' << c.spec.min_blocks_per_unit << '|'
     << c.spec.max_blocks_per_unit << '|' << c.seed << '|'
     << c.n_reference_models << '|' << format_g17(c.qc_variance_limit)
     << '|' << c.qc_max_attempts << '|' << c.qc_baseline_sessions << '|'
     << format_g17(c.faults.timeout_prob) << '|'
     << format_g17(c.faults.timeout_cost_s) << '|'
     << format_g17(c.faults.read_error_prob) << '|'
     << format_g17(c.faults.dropout_prob) << '|'
     << format_g17(c.faults.stuck_clock_prob) << '|'
     << format_g17(c.faults.stuck_clock_slowdown) << '|'
     << c.retry.max_attempts << '|' << format_g17(c.retry.backoff_base_s)
     << '|' << format_g17(c.retry.backoff_multiplier) << '|'
     << format_g17(c.retry.backoff_jitter) << '|'
     << c.retry.batch_retry_budget;
  return crc32(os.str());
}

std::uint32_t batch_request_crc(const std::vector<ArchConfig>& archs) {
  std::uint32_t crc = 0;
  for (const ArchConfig& arch : archs) {
    crc = crc32(arch.to_string(), crc);
    crc = crc32("\n", crc);
  }
  return crc;
}

// ------------------------------------------------------- FileJournalSink

FileJournalSink::FileJournalSink(const std::string& path, bool truncate,
                                 bool durable)
    : path_(path), durable_(durable) {
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  ESM_REQUIRE(file_ != nullptr,
              "cannot open journal for writing: " << path << " ("
                                                  << std::strerror(errno)
                                                  << ")");
}

FileJournalSink::~FileJournalSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void FileJournalSink::append(std::string_view data) {
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), file_);
  ESM_REQUIRE(written == data.size(), "failed writing journal: " << path_);
}

void FileJournalSink::sync() {
  ESM_REQUIRE(std::fflush(file_) == 0, "failed flushing journal: " << path_);
  if (!durable_) return;
#if defined(_WIN32)
  _commit(_fileno(file_));
#else
  ESM_REQUIRE(::fsync(fileno(file_)) == 0,
              "fsync failed on journal: " << path_);
#endif
}

// -------------------------------------------------------- CampaignResume

CampaignResume CampaignResume::from_string(const std::string& content) {
  CampaignResume out;
  if (content.empty()) return out;

  // The magic line itself obeys the torn-tail rule: an unterminated first
  // line is a torn write of a brand-new journal, not corruption.
  const std::size_t magic_end = content.find('\n');
  if (magic_end == std::string::npos) {
    out.torn_tail = true;
    out.torn_detail = "unterminated journal header line";
    return out;
  }
  ESM_REQUIRE(content.substr(0, magic_end) == kMagicLine,
              "not an ESM journal (bad header: '"
                  << content.substr(0, magic_end) << "')");
  out.valid_bytes = magic_end + 1;

  std::uint64_t expected_seq = 0;
  std::size_t pos = out.valid_bytes;
  while (pos < content.size()) {
    const std::size_t line_end = content.find('\n', pos);
    const bool terminated = line_end != std::string::npos;
    const std::string line = content.substr(
        pos, (terminated ? line_end : content.size()) - pos);
    const bool is_last =
        !terminated || line_end + 1 >= content.size();

    // Frame: "<seq> <crc32hex> <body>". Any framing, CRC, or body-shape
    // failure on the LAST line is a torn tail; earlier it is corruption.
    std::string failure;
    std::optional<CampaignHeader> header;
    std::optional<BatchRecord> batch;
    bool seq_gap = false;
    try {
      if (!terminated) {
        failure = "unterminated record";
      } else {
        std::size_t sp1 = line.find(' ');
        std::size_t sp2 =
            sp1 == std::string::npos ? std::string::npos
                                     : line.find(' ', sp1 + 1);
        ESM_REQUIRE(sp2 != std::string::npos,
                    "journal record frame is too short");
        const std::string seq_field = line.substr(0, sp1);
        char* end = nullptr;
        errno = 0;
        const std::uint64_t seq = std::strtoull(seq_field.c_str(), &end, 10);
        ESM_REQUIRE(end != nullptr && *end == '\0' && errno == 0,
                    "journal record has a malformed sequence number");
        // Flagged, not thrown: a complete, CRC-valid record with the wrong
        // sequence number cannot result from a torn append — a record
        // disappeared. That is hard corruption even on the final line, so
        // it must not fall into the torn-tail recovery below.
        seq_gap = seq != expected_seq;
        std::uint32_t stored_crc = 0;
        ESM_REQUIRE(
            parse_crc32_hex(line.substr(sp1 + 1, sp2 - sp1 - 1), stored_crc),
            "journal record has a malformed CRC field");
        const std::string body = line.substr(sp2 + 1);
        const std::uint32_t actual_crc = crc32(body);
        ESM_REQUIRE(actual_crc == stored_crc,
                    "journal record CRC mismatch (stored "
                        << crc32_hex(stored_crc) << ", computed "
                        << crc32_hex(actual_crc) << ")");
        if (!seq_gap) {
          const ArchiveReader reader = ArchiveReader::from_line(body);
          const std::string type = reader.get_string("type");
          if (seq == 0) {
            ESM_REQUIRE(type == kTypeCampaign,
                        "journal record 0 must be the campaign header, found "
                        "type '" << type << "'");
            header = decode_header(reader);
          } else {
            ESM_REQUIRE(type == kTypeBatch,
                        "journal record " << seq << " has unknown type '"
                                          << type << "'");
            batch = decode_batch(reader);
          }
        }
      }
    } catch (const ConfigError& e) {
      failure = e.what();
    }

    ESM_REQUIRE(!(failure.empty() && seq_gap),
                "journal corrupted at record " << expected_seq
                    << " (byte offset " << pos
                    << "): sequence gap — an intact record is out of order, "
                       "so at least one record was lost");
    if (!failure.empty()) {
      ESM_REQUIRE(is_last, "journal corrupted at record "
                               << expected_seq << " (byte offset " << pos
                               << "): " << failure);
      out.torn_tail = true;
      out.torn_detail = failure;
      return out;
    }
    if (header.has_value()) out.header = std::move(header);
    if (batch.has_value()) out.batches.push_back(std::move(*batch));
    ++expected_seq;
    pos = line_end + 1;
    out.valid_bytes = pos;
  }
  return out;
}

CampaignResume CampaignResume::load(const std::string& path) {
  if (!path_exists(path)) return CampaignResume{};  // fresh campaign
  return from_string(read_file(path, "journal"));
}

// ------------------------------------------------------- CampaignJournal

CampaignJournal::CampaignJournal(const std::string& path, bool resume,
                                 bool durable) {
  if (resume) {
    CampaignResume loaded = CampaignResume::load(path);
    if (loaded.torn_tail) {
      // Drop the torn tail from the file itself so the append stream
      // continues cleanly after the last durable record.
      std::error_code ec;
      std::filesystem::resize_file(path, loaded.valid_bytes, ec);
      ESM_REQUIRE(!ec, "cannot truncate torn journal tail in " << path
                                                               << ": "
                                                               << ec.message());
      std::cerr << "journal " << path << ": dropped torn trailing record ("
                << loaded.torn_detail << "); the batch will be re-measured\n";
      torn_ = true;
    }
    header_ = std::move(loaded.header);
    pending_.assign(std::make_move_iterator(loaded.batches.begin()),
                    std::make_move_iterator(loaded.batches.end()));
    next_seq_ = (header_.has_value() ? 1 : 0) + pending_.size();
    sink_ = std::make_unique<FileJournalSink>(path, /*truncate=*/false,
                                              durable);
    if (!header_.has_value()) {
      // Nothing durable yet (missing, empty, or fully torn file): behave
      // like a fresh campaign, writing the magic line from scratch.
      sink_ = std::make_unique<FileJournalSink>(path, /*truncate=*/true,
                                                durable);
      sink_->append(std::string(kMagicLine) + "\n");
      sink_->sync();
    }
    return;
  }
  sink_ = std::make_unique<FileJournalSink>(path, /*truncate=*/true, durable);
  sink_->append(std::string(kMagicLine) + "\n");
  sink_->sync();
}

CampaignJournal::CampaignJournal(std::unique_ptr<JournalSink> sink)
    : sink_(std::move(sink)) {
  sink_->append(std::string(kMagicLine) + "\n");
  sink_->sync();
}

const BatchRecord* CampaignJournal::peek_batch() const {
  return pending_.empty() ? nullptr : &pending_.front();
}

void CampaignJournal::pop_batch() {
  ESM_CHECK(!pending_.empty(), "pop_batch() with no pending journal record");
  pending_.pop_front();
}

void CampaignJournal::write_header(const CampaignHeader& header) {
  ESM_CHECK(!header_.has_value() && next_seq_ == 0,
            "campaign header may only start a fresh journal");
  append_record(encode_header(header));
  header_ = header;
}

void CampaignJournal::append_batch(const BatchRecord& record) {
  ESM_CHECK(next_seq_ > 0, "batch records must follow the campaign header");
  ESM_CHECK(pending_.empty(),
            "cannot append while journaled batches await replay");
  append_record(encode_batch(record));
}

void CampaignJournal::append_record(const std::string& body) {
  std::ostringstream line;
  line << next_seq_ << ' ' << crc32_hex(crc32(body)) << ' ' << body << '\n';
  sink_->append(line.str());
  sink_->sync();  // the record is durable once this returns
  ++next_seq_;
}

}  // namespace esm
