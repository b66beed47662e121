#pragma once

// Result serialization: campaigns are expensive; their results should
// outlive the process. CSV for spreadsheet/pandas post-processing of
// per-point responses, JSON for the full study (pruning statistics,
// measured points, predictions).

#include <string>
#include <vector>

#include "core/study.hpp"

namespace fastfit::core {

/// One row per measured injection point: identification, features, trial
/// counts per outcome, and the error rate. RFC-4180-style quoting.
/// `extended_outcomes` selects whether the RANK_DEAD / REPAIRED columns
/// appear (StudyResult::extended_outcomes).
std::string to_csv(const std::vector<PointResult>& results,
                   bool extended_outcomes = false);

/// The full study as a JSON document: options-independent content only
/// (stats, measured points, predicted labels, accuracy).
std::string to_json(const StudyResult& result);

/// Writes content to a file, throwing ConfigError on I/O failure.
void write_file(const std::string& path, const std::string& content);

/// Serializes an enumeration (pruning stats + equivalence classes +
/// surviving injection points) to a versioned text format. The paper
/// notes the profiling phase "is a one time cost as the collected
/// information can be used for any number of fault injection campaigns" —
/// this is that reuse path: profile once, persist, drive later campaigns
/// from the file.
std::string to_text(const Enumeration& enumeration);

/// Parses to_text() output. Throws ConfigError on malformed or
/// version-mismatched input.
Enumeration enumeration_from_text(const std::string& text);

/// Serializes one shard's study result to a versioned text fragment:
/// shard coordinates, campaign identity (pruning stats + golden digest),
/// resilience health, and one line per measured point carrying its
/// ordinal within the full post-pruning point set. Fragments are the
/// unit `fastfit merge` consumes. Also valid for an unsharded result
/// (shard 1/1, ordinals 0..n-1).
std::string to_shard_fragment(const StudyResult& result);

/// Merges the text fragments of a complete sharded study back into one
/// StudyResult, bit-identical to the unsharded run: validates that the
/// fragments agree on identity (pruning stats and golden digest),
/// that their shard indices tile 1..N exactly, and that their point
/// ordinals partition the full post-pruning point set; then reassembles
/// `measured` in ordinal order and sums the health counters. Throws
/// ConfigError on any gap, overlap, or identity mismatch.
StudyResult merge_fragments(const std::vector<std::string>& fragments);

}  // namespace fastfit::core
