#include "core/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/error.hpp"
#include "support/format.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {
namespace {

constexpr int kJournalVersion = 1;

/// Minimal scanner for the flat one-line JSON objects the journal writes.
/// Values come back as raw text for numbers and unescaped text for
/// strings. Throws ConfigError on anything malformed.
std::map<std::string, std::string> parse_flat_object(const std::string& line) {
  const auto fail = [&]() -> std::map<std::string, std::string> {
    throw ConfigError("journal: malformed line: " + line);
  };
  std::map<std::string, std::string> out;
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
  };
  const auto parse_string = [&]() -> std::string {
    if (i >= line.size() || line[i] != '"') fail();
    ++i;
    std::string s;
    while (i < line.size() && line[i] != '"') {
      char c = line[i++];
      if (c == '\\') {
        if (i >= line.size()) fail();
        const char esc = line[i++];
        switch (esc) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case 'n': s += '\n'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (i + 4 > line.size()) fail();
            s += static_cast<char>(
                std::strtoul(line.substr(i, 4).c_str(), nullptr, 16));
            i += 4;
            break;
          }
          default: fail();
        }
      } else {
        s += c;
      }
    }
    if (i >= line.size()) fail();
    ++i;  // closing quote
    return s;
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') fail();
  ++i;
  skip_ws();
  if (i < line.size() && line[i] == '}') return out;
  while (true) {
    skip_ws();
    const std::string key = parse_string();
    skip_ws();
    if (i >= line.size() || line[i] != ':') fail();
    ++i;
    skip_ws();
    std::string value;
    if (i < line.size() && line[i] == '"') {
      value = parse_string();
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}') {
        value += line[i++];
      }
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
        value.pop_back();
      }
      if (value.empty()) fail();
    }
    out[key] = value;
    skip_ws();
    if (i >= line.size()) fail();
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') break;
    fail();
  }
  return out;
}

std::uint64_t parse_u64_field(const std::map<std::string, std::string>& kv,
                              const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    throw ConfigError("journal: missing field '" + key + "'");
  }
  const std::string& value = it->second;
  if (value.empty()) throw ConfigError("journal: empty field '" + key + "'");
  std::uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      throw ConfigError("journal: field '" + key +
                        "' is not a non-negative integer: " + value);
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (out > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw ConfigError("journal: field '" + key + "' overflows: " + value);
    }
    out = out * 10 + digit;
  }
  return out;
}

std::string require_field(const std::map<std::string, std::string>& kv,
                          const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    throw ConfigError("journal: missing field '" + key + "'");
  }
  return it->second;
}

std::string header_line(const JournalHeader& header) {
  std::ostringstream out;
  out << "{\"fastfit_journal\":" << kJournalVersion << ",\"workload\":\""
      << json_escape(header.workload) << "\",\"seed\":" << header.seed
      << ",\"nranks\":" << header.nranks
      << ",\"trials_per_point\":" << header.trials_per_point
      << ",\"fault_model\":\"" << json_escape(header.fault_model)
      << "\",\"algorithms\":\"" << json_escape(header.algorithms)
      << "\",\"golden_digest\":" << header.golden_digest
      << ",\"shard_index\":" << header.shard_index
      << ",\"shard_count\":" << header.shard_count << '}';
  return out.str();
}

/// Shard fields default to 1 (unsharded) when absent so pre-shard
/// journals keep resuming.
std::uint64_t parse_shard_field(const std::map<std::string, std::string>& kv,
                                const std::string& key) {
  return kv.count(key) ? parse_u64_field(kv, key) : 1;
}

template <typename T>
void check_header_field(const std::string& name, const T& journaled,
                        const T& live) {
  if (journaled == live) return;
  std::ostringstream out;
  out << "journal: cannot resume, " << name << " differs (journal: "
      << journaled << ", campaign: " << live << ")";
  throw ConfigError(out.str());
}

int open_for_append(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    throw ConfigError("journal: cannot open for append: " + path + ": " +
                      std::strerror(errno));
  }
  return fd;
}

}  // namespace

std::string point_key(const InjectionPoint& point) {
  std::string key = std::to_string(point.site_id) + ':' +
                    std::to_string(point.rank) + ':' +
                    std::to_string(point.invocation) + ':' +
                    std::to_string(inject::param_ordinal(
                        point.family, point.param, point.p2p_param));
  // The fault-model axis joins the key only for non-default specs, so
  // pre-v2 journals (implicitly exact-point single-bit-flip throughout)
  // keep resuming byte for byte.
  if (!point.fault.is_default()) key += ':' + point.fault.canonical();
  return key;
}

TrialJournal::TrialJournal(std::string path, int fd)
    : path_(std::move(path)), fd_(fd) {}

TrialJournal::~TrialJournal() {
  try {
    flush();
  } catch (...) {
    // Destructor flush is best-effort; the synced prefix is still valid.
  }
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TrialJournal> TrialJournal::create(
    const std::string& path, const JournalHeader& header) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      throw ConfigError("journal: " + path +
                        " already exists; resume it or remove it");
    }
    throw ConfigError("journal: cannot create " + path + ": " +
                      std::strerror(errno));
  }
  auto journal = std::unique_ptr<TrialJournal>(new TrialJournal(path, fd));
  {
    std::lock_guard lock(journal->mutex_);
    journal->append_line(header_line(header));
    journal->flush_locked();  // the identity header must survive any crash
  }
  return journal;
}

std::unique_ptr<TrialJournal> TrialJournal::resume(
    const std::string& path, const JournalHeader& expected) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return create(path, expected);  // died before the first write

  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string content = raw.str();

  // Split on '\n' by hand so a torn final line (a partial write cut by
  // SIGKILL) is recognizable: every intact record ends with a newline.
  std::vector<std::string> lines;
  std::vector<std::size_t> line_ends;  // byte offset just past each '\n'
  std::size_t start = 0;
  std::string tail;
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') {
      lines.push_back(content.substr(start, i - start));
      line_ends.push_back(i + 1);
      start = i + 1;
    }
  }
  if (start < content.size()) tail = content.substr(start);

  if (lines.empty()) {
    // Only a torn fragment (or empty file): nothing usable — start over.
    if (::truncate(path.c_str(), 0) != 0) {
      throw ConfigError("journal: cannot truncate " + path + ": " +
                        std::strerror(errno));
    }
    ::unlink(path.c_str());
    return create(path, expected);
  }

  const auto header = parse_flat_object(lines[0]);
  if (parse_u64_field(header, "fastfit_journal") !=
      static_cast<std::uint64_t>(kJournalVersion)) {
    throw ConfigError("journal: unsupported version in " + path);
  }
  check_header_field("workload", require_field(header, "workload"),
                     expected.workload);
  check_header_field("seed", parse_u64_field(header, "seed"), expected.seed);
  check_header_field("nranks", parse_u64_field(header, "nranks"),
                     static_cast<std::uint64_t>(expected.nranks));
  check_header_field("trials_per_point",
                     parse_u64_field(header, "trials_per_point"),
                     static_cast<std::uint64_t>(expected.trials_per_point));
  check_header_field("fault_model", require_field(header, "fault_model"),
                     expected.fault_model);
  check_header_field("algorithms", require_field(header, "algorithms"),
                     expected.algorithms);
  check_header_field("golden_digest", parse_u64_field(header, "golden_digest"),
                     expected.golden_digest);
  check_header_field("shard_index", parse_shard_field(header, "shard_index"),
                     static_cast<std::uint64_t>(expected.shard_index));
  check_header_field("shard_count", parse_shard_field(header, "shard_count"),
                     static_cast<std::uint64_t>(expected.shard_count));

  auto journal = std::unique_ptr<TrialJournal>(new TrialJournal(path, -1));
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const auto kv = parse_flat_object(lines[i]);  // corrupt body is fatal
    const auto type = require_field(kv, "t");
    const auto key = require_field(kv, "p");
    if (type == "trial") {
      const auto trial = parse_u64_field(kv, "i");
      const auto outcome = parse_u64_field(kv, "o");
      if (outcome >= inject::kNumOutcomes) {
        throw ConfigError("journal: outcome out of range: " + lines[i]);
      }
      auto& slots = journal->trials_[key];
      if (trial >= slots.size()) slots.resize(trial + 1, -1);
      if (slots[trial] < 0) ++journal->loaded_;
      slots[trial] = static_cast<std::int16_t>(outcome);
    } else if (type == "label") {
      journal->labels_[key] =
          static_cast<std::size_t>(parse_u64_field(kv, "l"));
    } else if (type == "quar") {
      QuarantineRecord record;
      record.retries =
          static_cast<std::uint32_t>(parse_u64_field(kv, "retries"));
      record.error = require_field(kv, "err");
      journal->quarantines_[key] = std::move(record);
    } else {
      throw ConfigError("journal: unknown record type '" + type + "'");
    }
  }

  if (!tail.empty()) {
    // Torn final line: drop it. The trials it named simply re-run.
    if (::truncate(path.c_str(), static_cast<off_t>(line_ends.back())) != 0) {
      throw ConfigError("journal: cannot truncate torn line in " + path +
                        ": " + std::strerror(errno));
    }
  }
  journal->fd_ = open_for_append(path);
  return journal;
}

std::optional<inject::Outcome> TrialJournal::lookup(
    const std::string& key, std::uint64_t trial) const {
  std::lock_guard lock(mutex_);
  const auto it = trials_.find(key);
  if (it == trials_.end()) return std::nullopt;
  if (trial >= it->second.size() || it->second[trial] < 0) return std::nullopt;
  return static_cast<inject::Outcome>(it->second[trial]);
}

void TrialJournal::record_trial(const std::string& key, std::uint64_t trial,
                                inject::Outcome outcome, bool deterministic,
                                const std::string& autopsy,
                                const std::string& model) {
  std::lock_guard lock(mutex_);
  auto& slots = trials_[key];
  if (trial >= slots.size()) slots.resize(trial + 1, -1);
  if (slots[trial] >= 0) return;  // already journaled
  slots[trial] = static_cast<std::int16_t>(outcome);
  std::ostringstream line;
  line << "{\"t\":\"trial\",\"p\":\"" << json_escape(key) << "\",\"i\":"
       << trial << ",\"o\":" << static_cast<int>(outcome);
  // Forensic fields ("d", "a", "m"): audit-trail only. Replay reads just
  // (p, i, o), and parse_flat_object tolerates unknown keys, so older
  // and newer journals interleave freely. "m" names the fault model the
  // trial ran under (canonical spec string).
  if (deterministic) line << ",\"d\":1";
  if (!autopsy.empty()) line << ",\"a\":\"" << json_escape(autopsy) << '"';
  if (!model.empty()) line << ",\"m\":\"" << json_escape(model) << '"';
  line << '}';
  append_line(line.str());
}

void TrialJournal::record_quarantine(const std::string& key,
                                     std::uint32_t retries,
                                     const std::string& error) {
  std::lock_guard lock(mutex_);
  quarantines_[key] = QuarantineRecord{retries, error};
  std::ostringstream line;
  line << "{\"t\":\"quar\",\"p\":\"" << json_escape(key) << "\",\"retries\":"
       << retries << ",\"err\":\"" << json_escape(error) << "\"}";
  append_line(line.str());
}

std::optional<QuarantineRecord> TrialJournal::quarantine(
    const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = quarantines_.find(key);
  if (it == quarantines_.end()) return std::nullopt;
  return it->second;
}

void TrialJournal::check_or_record_label(const std::string& key,
                                         std::size_t label) {
  std::lock_guard lock(mutex_);
  const auto it = labels_.find(key);
  if (it != labels_.end()) {
    if (it->second != label) {
      throw ConfigError("journal: training label for point " + key +
                        " diverged (journal: " + std::to_string(it->second) +
                        ", campaign: " + std::to_string(label) +
                        ") — resumed with a different label mode or "
                        "thresholds?");
    }
    return;
  }
  labels_[key] = label;
  std::ostringstream line;
  line << "{\"t\":\"label\",\"p\":\"" << json_escape(key) << "\",\"l\":"
       << label << '}';
  append_line(line.str());
}

std::optional<std::size_t> TrialJournal::label(const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto it = labels_.find(key);
  if (it == labels_.end()) return std::nullopt;
  return it->second;
}

void TrialJournal::append_line(const std::string& line) {
  buffer_ += line;
  buffer_ += '\n';
  if (auto& rec = telemetry::Recorder::instance(); rec.enabled()) {
    static auto& lines = rec.counter("fastfit_journal_lines_total",
                                     "JSONL records appended to the journal");
    lines.add();
  }
  if (++buffered_lines_ >= kFlushBatch) flush_locked();
}

void TrialJournal::flush_locked() {
  if (buffer_.empty()) return;
  telemetry::ScopedSpan span("journal-fsync", telemetry::Track::Journal, 0);
  span.arg("lines", std::to_string(buffered_lines_));
  span.arg("bytes", std::to_string(buffer_.size()));
  if (auto& rec = telemetry::Recorder::instance(); rec.enabled()) {
    static auto& flushes = rec.counter(
        "fastfit_journal_flushes_total", "Write+fsync batches of the journal");
    flushes.add();
  }
  const char* data = buffer_.data();
  std::size_t left = buffer_.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ConfigError("journal: write failed: " + path_ + ": " +
                        std::strerror(errno));
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  buffer_.clear();
  buffered_lines_ = 0;
  if (::fsync(fd_) != 0) {
    throw ConfigError("journal: fsync failed: " + path_ + ": " +
                      std::strerror(errno));
  }
}

void TrialJournal::flush() {
  std::lock_guard lock(mutex_);
  flush_locked();
}

}  // namespace fastfit::core
