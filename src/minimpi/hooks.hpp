#pragma once

// Tool-interposition interface (MiniMPI's equivalent of PMPI).
//
// Every collective call flows through a CollectiveCall record and the
// world's ToolHooks (World::set_tools) before reaching the algorithm. Profilers read the record;
// the fault injector mutates it (flips a bit of a scalar parameter or of
// the data buffer) — without the application or the collective
// implementation knowing a tool exists, exactly like a PMPI shim.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "minimpi/types.hpp"

namespace fastfit::mpi {

class Mpi;

/// Whether a call site is a collective or a point-to-point call.
enum class SiteFamily : std::uint32_t { Collective = 0, P2p = 1 };

/// Injectable parameters of a collective call (paper Fig 9 uses the first
/// six for MPI_Allreduce; rooted and vector collectives add the rest).
enum class Param : std::uint8_t {
  SendBuf = 0,   ///< one random bit of the send-buffer *contents*
  RecvBuf = 1,   ///< one random bit of the receive-buffer *contents*
  Count = 2,
  Datatype = 3,
  Op = 4,
  Comm = 5,
  Root = 6,
  RecvCount = 7,
  RecvDatatype = 8,
};

inline constexpr std::uint8_t kNumParams = 9;

/// Name used in reports, e.g. "sendbuf".
const char* to_string(Param param) noexcept;

/// The parameters that exist (and are injectable) for a collective kind.
std::vector<Param> injectable_params(CollectiveKind kind);

/// The mutable record of one collective invocation, as seen by tools.
///
/// Vector-collective count arrays are referenced, not copied; hooks may
/// mutate them in place. `sendbuf` is non-const here although the MPI-level
/// API takes it const: the fault model deliberately corrupts application
/// data, which is the entire point of the tool.
struct CollectiveCall {
  CollectiveKind kind{};
  int rank = -1;                      ///< caller's rank in `comm`, pre-corruption
  void* sendbuf = nullptr;
  void* recvbuf = nullptr;
  std::int32_t count = 0;             ///< send count / the single count
  std::int32_t recvcount = 0;         ///< recv count where the kind has one
  Datatype datatype{};
  Datatype recvdatatype{};
  Op op{};
  std::int32_t root = 0;
  Comm comm{};
  std::vector<std::int32_t>* sendcounts = nullptr;   ///< alltoallv/scatterv
  std::vector<std::int32_t>* sdispls = nullptr;
  std::vector<std::int32_t>* recvcounts = nullptr;   ///< alltoallv/gatherv
  std::vector<std::int32_t>* rdispls = nullptr;

  // --- identification (filled by the interposition layer) ---
  std::uint32_t site_id = 0;     ///< stable hash of (file, line, kind)
  std::uint64_t invocation = 0;  ///< per-(rank, site) invocation number
  const char* site_file = "";
  int site_line = 0;
};

/// One byte range of application memory on one rank: a region a
/// collective writes (minimpi/snapshot.hpp) or a region a tool mutated.
struct WriteSpan {
  void* ptr = nullptr;
  std::size_t bytes = 0;
};

// --- point-to-point interposition (the paper's future-work extension to
// "other programming elements of an HPC application") -----------------------

enum class P2pKind : std::uint8_t { Send = 0, Recv = 1 };

const char* to_string(P2pKind kind) noexcept;

/// Injectable parameters of a point-to-point call.
enum class P2pParam : std::uint8_t {
  Buffer = 0,   ///< one random bit of the message buffer contents
  Count = 1,
  Datatype = 2,
  Peer = 3,     ///< destination (send) or source (recv) rank
  Tag = 4,
};

inline constexpr std::uint8_t kNumP2pParams = 5;

const char* to_string(P2pParam param) noexcept;

/// The mutable record of one point-to-point call, as seen by tools.
struct P2pCall {
  P2pKind kind{};
  int rank = -1;            ///< caller's rank in `comm`
  void* buffer = nullptr;
  std::int32_t count = 0;
  Datatype datatype{};
  int peer = -1;            ///< dest (send) / source (recv)
  std::int32_t tag = 0;
  Comm comm{};

  std::uint32_t site_id = 0;
  std::uint64_t invocation = 0;
  const char* site_file = "";
  int site_line = 0;
};

/// What a transport-layer tool decides about one outgoing message.
enum class SendAction : std::uint8_t {
  Deliver = 0,  ///< hand the message to the destination mailbox (default)
  Drop = 1,     ///< silently discard it (the receiver hangs or adapts)
  Hold = 2,     ///< park it; the transport re-offers it for late delivery
};

/// A tool attached to the interposition layer. Hooks run on the calling
/// rank's fiber, and hooks run on the world's one thread, so an
/// implementation needs no lock for state that only its world touches.
class ToolHooks {
 public:
  virtual ~ToolHooks() = default;

  /// Runs before validation and the algorithm; may mutate `call`.
  virtual void on_enter(CollectiveCall& call, Mpi& mpi) = 0;

  /// Runs after the algorithm completes without a fault event.
  virtual void on_exit(const CollectiveCall& call, Mpi& mpi) = 0;

  /// Runs before a point-to-point send/recv; may mutate `call`. Default
  /// no-op keeps collective-only tools source-compatible.
  virtual void on_p2p(P2pCall& call, Mpi& mpi) {
    (void)call;
    (void)mpi;
  }

  /// Runs on the sender's fiber for every transport-level message —
  /// collective phase traffic and p2p alike — just before mailbox
  /// delivery. Message-fault models corrupt `payload` in place, drop the
  /// message, or hold it for delayed delivery. Default passes through.
  virtual SendAction on_transport_send(int source_world, int dest_world,
                                       std::uint64_t tag,
                                       std::vector<std::byte>& payload) {
    (void)source_world;
    (void)dest_world;
    (void)tag;
    (void)payload;
    return SendAction::Deliver;
  }

  /// Reconvergence at the cut (docs/snapshot.md): asked once per rank of a
  /// replay world, right after its first live collective, with the byte
  /// ranges that collective wrote on `world_rank`. True vouches that every
  /// mutation this tool made on that rank lies inside `spans` and that it
  /// will make no more, so the rank equals the recording wherever the
  /// spans hold recorded bytes. Default: cannot vouch.
  virtual bool vouches_at_cut(int world_rank,
                              std::span<const WriteSpan> spans) const {
    (void)world_rank;
    (void)spans;
    return false;
  }
};

}  // namespace fastfit::mpi
