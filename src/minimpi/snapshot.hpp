#pragma once

// Copy-on-write world snapshots: record once, replay the prefix.
//
// A World's rank fiber stacks and heap buffers are never copied; the
// snapshot subsystem captures the *observable* state instead: one
// fault-free recording run logs, per rank, the ordered sequence of MPI
// operations together with every byte the transport wrote into
// application buffers (collective outputs and received messages), as
// ref-counted deduplicated chunks. A WorldSnapshot for an injection
// point (site, invocation) is then just a per-rank cut index into that
// log plus the set of messages that were in flight across the cut.
//
// A trial "clones" the snapshot by sharing the chunks (nothing is
// copied — that is the copy-on-write: replaying ranks memcpy shared
// immutable chunks into their own freshly allocated buffers and all
// subsequent writes land in trial-private memory). Each rank replays
// its prefix with zero rendezvous: collective outputs and received
// payloads are served from the recording, sends are dropped (their
// receipts are part of the same recording), and the per-site invocation
// and per-communicator sequence counters advance through the normal
// code paths, so the rank arrives at the cut in a state bit-identical
// to live execution. The op at the cut — the injected collective — and
// everything after it run live through the unmodified transport.
//
// Replay is verified op-by-op against the recording; any divergence
// raises ReplayError, which the campaign layer catches to fall back to
// a from-scratch run. Workloads that use nonblocking receives or
// communicator construction mark the recording non-replayable (none of
// the bundled workloads do), which makes the whole subsystem fall back
// campaign-wide.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "minimpi/hooks.hpp"
#include "minimpi/mailbox.hpp"
#include "minimpi/memory.hpp"
#include "minimpi/types.hpp"
#include "support/error.hpp"

namespace fastfit::mpi {

/// Replay observed the application diverging from the recording (or the
/// recording ran out). Not a FaultEvent: it must never be classified as
/// a trial outcome — World::run re-throws it to the caller, which falls
/// back to from-scratch execution.
class ReplayError : public FastFitError {
 public:
  explicit ReplayError(const std::string& what)
      : FastFitError("snapshot replay diverged: " + what) {}
};

/// The buffer regions `call` writes on the calling rank, recomputed from
/// the live call's arguments on both the record and the replay side, so
/// the two are symmetric by construction (a superset is unsafe:
/// unregistered gaps would trip the bounds registry; a subset is unsafe:
/// replay would miss output). Root-only collectives report
/// nothing on non-roots; vector collectives report one span per
/// displacement block. Replaces the contents of `spans`, so one vector
/// can serve every call without allocating again.
void collect_write_spans(const CollectiveCall& call, int comm_size,
                         std::vector<WriteSpan>& spans);

/// One operation of a rank's recorded op stream.
struct RecordedOp {
  enum class Kind : std::uint8_t { Collective, Send, Recv };
  Kind kind = Kind::Collective;
  CollectiveKind coll{};          ///< valid for Kind::Collective
  std::uint32_t site_id = 0;
  int site_line = 0;
  std::uint64_t invocation = 0;   ///< per-(rank, site) invocation number
  RawHandle comm = 0;
  int self_comm = -1;             ///< caller's rank in `comm` (p2p)
  int peer = -1;                  ///< p2p: dest (send) / source (recv), comm-relative
  int peer_world = -1;            ///< send: destination world rank
  std::uint64_t transport_tag = 0;  ///< p2p: fully formed mailbox tag
  /// Collective: one chunk per write span, in collect_write_spans order.
  /// Recv: the payload. Send: the payload (for in-flight pre-seeding).
  std::vector<ChunkStore::Chunk> writes;
};

/// Whether `op` is the recording of the live collective `call`: same
/// kind, site, invocation, communicator and caller rank.
bool records(const RecordedOp& op, const CollectiveCall& call) noexcept;

/// Whether `spans` has the shape `op` recorded: one chunk per span, each
/// exactly the span's size.
bool same_shape(const RecordedOp& op,
                std::span<const WriteSpan> spans) noexcept;

/// The complete op log of one fault-free run: per-rank op streams over a
/// shared chunk store. Immutable once built; shared by every snapshot
/// and every replaying world of the campaign.
struct WorldRecording {
  int nranks = 0;
  std::vector<std::vector<RecordedOp>> ops;  ///< [world rank] -> op stream
  bool replayable = true;
  std::string unsupported_reason;
  std::size_t payload_bytes = 0;  ///< unique chunk bytes (post-dedup)
  std::size_t total_ops = 0;
};

/// Attached to a recording run via WorldOptions::recorder: each rank
/// appends to its own op vector, all on the recording world's one
/// thread, so nothing here is synchronized.
class PrefixRecorder {
 public:
  explicit PrefixRecorder(int nranks);

  void record_collective(int world_rank, const CollectiveCall& call,
                         std::span<const WriteSpan> spans);
  void record_send(int world_rank, const P2pCall& call, int dest_world,
                   std::uint64_t transport_tag,
                   std::span<const std::byte> payload);
  void record_recv(int world_rank, const P2pCall& call,
                   std::uint64_t transport_tag,
                   std::span<const std::byte> payload);

  /// Marks the run non-replayable (nonblocking receive, comm_split, ...).
  /// The recording still completes; snapshots built from it are refused.
  void mark_unsupported(const std::string& why);

  /// Freezes the recording. Call once, after the world fully joined.
  std::shared_ptr<const WorldRecording> finish();

 private:
  std::vector<std::vector<RecordedOp>> ops_;
  ChunkStore chunks_;
  bool unsupported_ = false;
  std::string why_;
};

/// A message that was in flight across the cut: sent during the prefix,
/// received during the suffix. Delivered into the destination mailbox
/// before the ranks start.
struct PreseedMessage {
  int dest_world = -1;
  int source_comm = -1;           ///< sender's rank in the message's comm
  std::uint64_t transport_tag = 0;
  ChunkStore::Chunk payload;
};

/// One (site, invocation) snapshot: the recording, the per-rank cut
/// indices, and the in-flight message set. Cheap to share — cloning a
/// snapshot into a trial world copies nothing.
struct WorldSnapshot {
  std::shared_ptr<const WorldRecording> recording;
  std::vector<std::size_t> cut;  ///< [world rank] -> ops to replay
  std::vector<PreseedMessage> preseed;
  std::size_t approx_bytes = 0;  ///< snapshot-private bytes (cut + preseed)

  /// Derives the snapshot for the collective at (site_id, invocation).
  /// Returns nullptr when the cut is invalid: the op is missing from some
  /// rank's log (e.g. a sub-communicator collective), the recording is
  /// non-replayable, or a prefix receive matches a suffix send (the
  /// message does not exist yet at the cut, so the prefix cannot replay).
  static std::shared_ptr<const WorldSnapshot> build(
      std::shared_ptr<const WorldRecording> recording, std::uint32_t site_id,
      std::uint64_t invocation);
};

}  // namespace fastfit::mpi
