#include "core/procpool.hpp"

#include <csignal>
#include <cstring>
#include <optional>

#include <errno.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/error.hpp"
#include "telemetry/recorder.hpp"

namespace fastfit::core {

namespace tel = fastfit::telemetry;

IsolationMode parse_isolation_mode(const std::string& text) {
  if (text == "thread") return IsolationMode::Thread;
  if (text == "process") return IsolationMode::Process;
  throw ConfigError("isolation: must be one of thread|process, got '" + text +
                    "'");
}

const char* to_string(IsolationMode mode) noexcept {
  switch (mode) {
    case IsolationMode::Thread: return "thread";
    case IsolationMode::Process: return "process";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// Wire format: length-prefixed frames of little-endian scalars + strings.
// ---------------------------------------------------------------------------

// A frame larger than this is protocol corruption, not a big autopsy.
constexpr std::uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > buf_.size()) return false;
    v = static_cast<std::uint8_t>(buf_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    v = 0;
    for (int i = 0; i < 4; ++i) {
      std::uint8_t b = 0;
      if (!u8(b)) return false;
      v |= static_cast<std::uint32_t>(b) << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    v = 0;
    for (int i = 0; i < 8; ++i) {
      std::uint8_t b = 0;
      if (!u8(b)) return false;
      v |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (pos_ + n > buf_.size()) return false;
    s.assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }
  bool done() const { return pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_frame(int fd, const std::string& payload) {
  std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char hdr[4];
  for (int i = 0; i < 4; ++i) hdr[i] = static_cast<unsigned char>(len >> (8 * i));
  return write_full(fd, hdr, sizeof(hdr)) &&
         write_full(fd, payload.data(), payload.size());
}

enum class ReadStatus { Ok, Timeout, Closed };

/// Reads one frame. The supervisor passes its lease deadline and polls
/// between chunks (a frame is written in one burst, so the polling only
/// bridges scheduler hiccups); the lane's processes block with none.
ReadStatus read_frame(
    int fd, std::string& payload,
    std::optional<std::chrono::steady_clock::time_point> deadline = {}) {
  const auto read_exact = [&](char* p, std::size_t n) {
    while (n > 0) {
      if (deadline) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= *deadline) return ReadStatus::Timeout;
        const auto remaining =
            std::chrono::ceil<std::chrono::milliseconds>(*deadline - now);
        struct pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1,
                              static_cast<int>(std::min<std::int64_t>(
                                  remaining.count(), 60'000)));
        if (pr < 0 && errno != EINTR) return ReadStatus::Closed;
        if (pr <= 0) continue;  // re-check the deadline
      }
      const ssize_t r = ::read(fd, p, n);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return ReadStatus::Closed;  // error, or EOF mid-frame
      p += r;
      n -= static_cast<std::size_t>(r);
    }
    return ReadStatus::Ok;
  };
  char hdr[4];
  if (const auto status = read_exact(hdr, sizeof(hdr));
      status != ReadStatus::Ok) {
    return status;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) return ReadStatus::Closed;
  payload.resize(len);
  return read_exact(payload.data(), len);
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

std::string encode_work(const procpool::WorkItem& item, std::uint64_t seq) {
  ByteWriter w;
  const inject::FaultSpec& spec = item.spec;
  w.u64(seq);
  w.u32(spec.site_id);
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(spec.rank)));
  w.u64(spec.invocation);
  w.u8(static_cast<std::uint8_t>(spec.family));
  w.u8(static_cast<std::uint8_t>(spec.param));
  w.u8(static_cast<std::uint8_t>(spec.p2p_param));
  w.u8(static_cast<std::uint8_t>(spec.fault.model));
  w.u8(static_cast<std::uint8_t>(spec.fault.trigger));
  w.f64(spec.fault.probability);
  w.u64(spec.fault.window);
  w.u64(spec.fault.duty_k);
  w.u64(spec.trial);
  w.u64(item.watchdog_ms);
  return w.bytes();
}

bool decode_work(const std::string& payload, procpool::WorkItem& item,
                 std::uint64_t& seq) {
  ByteReader r(payload);
  inject::FaultSpec& spec = item.spec;
  std::uint64_t rank = 0;
  std::uint8_t family = 0;
  std::uint8_t param = 0;
  std::uint8_t p2p_param = 0;
  std::uint8_t model = 0;
  std::uint8_t trigger = 0;
  if (!r.u64(seq) || !r.u32(spec.site_id) || !r.u64(rank) ||
      !r.u64(spec.invocation) || !r.u8(family) || !r.u8(param) ||
      !r.u8(p2p_param) || !r.u8(model) || !r.u8(trigger) ||
      !r.f64(spec.fault.probability) || !r.u64(spec.fault.window) ||
      !r.u64(spec.fault.duty_k) || !r.u64(spec.trial) ||
      !r.u64(item.watchdog_ms) || !r.done()) {
    return false;
  }
  spec.rank = static_cast<int>(static_cast<std::int64_t>(rank));
  spec.family = static_cast<mpi::SiteFamily>(family);
  spec.param = static_cast<mpi::Param>(param);
  spec.p2p_param = static_cast<mpi::P2pParam>(p2p_param);
  spec.fault.model = static_cast<inject::FaultModel>(model);
  spec.fault.trigger = static_cast<inject::FaultTrigger>(trigger);
  return true;
}

std::string encode_reply(const procpool::TrialReply& reply) {
  ByteWriter w;
  w.u8(reply.ok ? 1 : 0);
  if (reply.ok) {
    w.u8(static_cast<std::uint8_t>(reply.forensics.outcome));
    w.u8(reply.forensics.deterministic_hang ? 1 : 0);
    w.str(reply.forensics.autopsy);
  } else {
    w.str(reply.error);
  }
  return w.bytes();
}

bool decode_reply(ByteReader& r, procpool::TrialReply& reply) {
  std::uint8_t ok = 0;
  if (!r.u8(ok)) return false;
  reply.ok = ok != 0;
  if (reply.ok) {
    std::uint8_t outcome = 0;
    std::uint8_t det = 0;
    if (!r.u8(outcome) || !r.u8(det) || !r.str(reply.forensics.autopsy)) {
      return false;
    }
    if (outcome >= inject::kNumOutcomes) return false;
    reply.forensics.outcome = static_cast<inject::Outcome>(outcome);
    reply.forensics.deterministic_hang = det != 0;
  } else {
    if (!r.str(reply.error)) return false;
  }
  return true;
}

/// Consolidated point server → supervisor frame kinds.
enum class ReplyKind : std::uint8_t {
  Completed = 0,    ///< child exited 0 with a TrialReply
  SignalDeath = 1,  ///< child killed by a signal
  BadExit = 2,      ///< child exited (possibly nonzero) without a reply
  ServeError = 3,   ///< server-side failure (fork/pipe), trial not run
};

/// Where a consolidated frame's trial child was forked (the byte after
/// the sequence number).
enum class Route : std::uint8_t {
  Scratch = 0,  ///< the trial ran from scratch
  Cut = 1,      ///< at the cut, by a point server parked there
  NewCut = 2,   ///< as Cut, and the first trial of its point server
};

bool same_point(const procpool::WorkItem& a, const procpool::WorkItem& b) {
  inject::FaultSpec other = b.spec;
  other.trial = a.spec.trial;
  return a.spec == other;
}

/// Items forked at the cut: exact-trigger faults that cannot replay an op
/// log (message, fail-stop and signal models). A replayable parameter
/// fault runs in a from-scratch child instead, where the campaign's
/// TrialFn replays the prefix from the recording the supervisor made
/// before forking; on whole LU and miniMD studies that beats forking them
/// at the cut (EXPERIMENTS.md, "Which trials fork at the cut").
bool forks_at_cut(const procpool::WorkItem& item) {
  return item.spec.fault.trigger == inject::FaultTrigger::ExactPoint &&
         !inject::is_replayable(item.spec.fault);
}

// ---------------------------------------------------------------------------
// The lane: a zygote and its point server, single-threaded after fork.
// ---------------------------------------------------------------------------

/// A point server's pipe ends, all closed in its trial children.
struct ServerFds {
  int cmd = -1;      ///< supervisor → lane work frames
  int result = -1;   ///< lane → supervisor consolidated frames
  int handoff = -1;  ///< point server → zygote: the item it must not serve
};

/// Forks the trial child of work item `seq`. In the child it returns the
/// write end of the child's reply pipe: the child writes one encode_reply
/// frame there and _exits without flushing inherited stdio buffers or
/// running static destructors (the supervisor's journal fd and buffers
/// are duplicated in it and must never see a write from it). In the
/// point server it waits for the child, writes the consolidated frame to
/// the supervisor and returns -1.
int fork_trial(std::uint64_t seq, Route route, const ServerFds& fds) {
  ByteWriter out;
  out.u64(seq);
  out.u8(static_cast<std::uint8_t>(route));

  int trial_pipe[2] = {-1, -1};
  if (::pipe(trial_pipe) != 0) {
    out.u8(static_cast<std::uint8_t>(ReplyKind::ServeError));
    out.str(std::string("point server: pipe failed: ") + std::strerror(errno));
    if (!write_frame(fds.result, out.bytes())) std::_Exit(0);
    return -1;
  }

  const pid_t child = ::fork();
  if (child == 0) {
    for (const int fd : {fds.cmd, fds.result, fds.handoff}) ::close(fd);
    ::close(trial_pipe[0]);
    return trial_pipe[1];
  }
  if (child < 0) {
    ::close(trial_pipe[0]);
    ::close(trial_pipe[1]);
    out.u8(static_cast<std::uint8_t>(ReplyKind::ServeError));
    out.str(std::string("point server: fork failed: ") + std::strerror(errno));
    if (!write_frame(fds.result, out.bytes())) std::_Exit(0);
    return -1;
  }
  ::close(trial_pipe[1]);

  // A wedged child never writes and never exits; this read then blocks
  // until the supervisor's lease expires and SIGKILLs the whole lane
  // process group.
  std::string child_frame;
  const bool got_reply =
      read_frame(trial_pipe[0], child_frame) == ReadStatus::Ok;
  ::close(trial_pipe[0]);

  int status = 0;
  struct rusage ru{};
  while (::wait4(child, &status, 0, &ru) < 0 && errno == EINTR) {}

  if (WIFSIGNALED(status)) {
    out.u8(static_cast<std::uint8_t>(ReplyKind::SignalDeath));
    out.u32(static_cast<std::uint32_t>(WTERMSIG(status)));
    out.u64(static_cast<std::uint64_t>(ru.ru_utime.tv_sec) * 1'000'000 +
            static_cast<std::uint64_t>(ru.ru_utime.tv_usec));
    out.u64(static_cast<std::uint64_t>(ru.ru_stime.tv_sec) * 1'000'000 +
            static_cast<std::uint64_t>(ru.ru_stime.tv_usec));
    out.u64(static_cast<std::uint64_t>(ru.ru_maxrss));
  } else if (got_reply && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    // Forward the child's reply verbatim inside the consolidated frame.
    out.u8(static_cast<std::uint8_t>(ReplyKind::Completed));
    std::string merged = out.bytes();
    merged += child_frame;
    if (!write_frame(fds.result, merged)) std::_Exit(0);
    return -1;
  } else {
    out.u8(static_cast<std::uint8_t>(ReplyKind::BadExit));
    out.u32(static_cast<std::uint32_t>(
        WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  }
  if (!write_frame(fds.result, out.bytes())) std::_Exit(0);
  return -1;
}

/// Reads the next work item from the supervisor; _exits on EOF (the
/// supervisor closed the lane) or on a frame that does not decode.
void next_item(const ServerFds& fds, std::string& frame,
               procpool::WorkItem& item, std::uint64_t& seq) {
  if (read_frame(fds.cmd, frame) != ReadStatus::Ok) std::_Exit(0);
  if (!decode_work(frame, item, seq)) std::_Exit(3);
}

/// Gives `frame` back to the zygote, which forks the next point server
/// with it.
[[noreturn]] void hand_off(const ServerFds& fds, const std::string& frame) {
  write_frame(fds.handoff, frame);
  std::_Exit(0);
}

/// The point server's main. Its first item (`frame`, or the next one on
/// the command pipe when that is empty) is its point. A point that forks
/// at the cut runs its template world to the cut and forks each of the
/// point's items there, from inside a rank fiber, so it can serve no
/// other item. Any other point, and one whose template ended before its
/// cut, is served from scratch together with every other from-scratch
/// item. An item the server must not serve goes back to the zygote
/// through the handoff pipe, and the server exits.
[[noreturn]] void run_point_server(const ServerFds& fds, std::string frame,
                                   const procpool::TrialFn& fn,
                                   const procpool::TemplateFn& cut_template) {
  procpool::WorkItem item;
  std::uint64_t seq = 0;
  if (frame.empty()) {
    next_item(fds, frame, item, seq);
  } else if (!decode_work(frame, item, seq)) {
    std::_Exit(3);
  }
  const procpool::WorkItem point = item;
  const auto needs_template = [&](const procpool::WorkItem& w) {
    return cut_template && forks_at_cut(w);
  };

  if (needs_template(point)) {
    int reply_fd = -1;
    const procpool::Park park = [&]() -> const procpool::WorkItem& {
      for (Route route = Route::NewCut;; route = Route::Cut) {
        reply_fd = fork_trial(seq, route, fds);
        if (reply_fd >= 0) return item;  // the trial child resumes the world
        next_item(fds, frame, item, seq);
        if (!needs_template(item) || !same_point(point, item)) {
          hand_off(fds, frame);
        }
      }
    };
    const procpool::TrialReply reply = cut_template(point, park);
    if (reply_fd >= 0) {
      // The trial child, back from its suffix.
      write_frame(reply_fd, encode_reply(reply));
      std::_Exit(0);
    }
    // The template never parked: its world ended before the cut, so the
    // point's items run from scratch here.
  }
  for (;;) {
    const int reply_fd = fork_trial(seq, Route::Scratch, fds);
    if (reply_fd >= 0) {
      write_frame(reply_fd, encode_reply(fn(item)));
      std::_Exit(0);
    }
    next_item(fds, frame, item, seq);
    if (needs_template(item) && !same_point(point, item)) hand_off(fds, frame);
  }
}

/// The lane's fork-server: a zygote that never reads a work item. It
/// forks one point server at a time and waits for it; a server that
/// hands an item back is replaced by a fresh one that starts with that
/// item. When a server ends any other way (supervisor EOF, a crash) the
/// zygote exits too, so the supervisor reads EOF on the result pipe and
/// reports a LaneFailure.
[[noreturn]] void run_zygote(int cmd_fd, int result_fd,
                             const procpool::TrialFn& fn,
                             const procpool::TemplateFn& cut_template) {
  const pid_t zygote = ::getpid();
  std::string frame;  // a handed-off item; empty: read the next one
  for (;;) {
    int handoff[2] = {-1, -1};
    if (::pipe(handoff) != 0) std::_Exit(4);
    const pid_t server = ::fork();
    if (server == 0) {
      ::close(handoff[0]);
      // A killed zygote takes its server with it; the re-check covers a
      // zygote that died before the prctl.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != zygote) std::_Exit(0);
      run_point_server({cmd_fd, result_fd, handoff[1]}, std::move(frame), fn,
                       cut_template);
    }
    if (server < 0) std::_Exit(4);
    ::close(handoff[1]);
    const bool handed_off = read_frame(handoff[0], frame) == ReadStatus::Ok;
    ::close(handoff[0]);
    while (::waitpid(server, nullptr, 0) < 0 && errno == EINTR) {}
    if (!handed_off) std::_Exit(0);
  }
}

void init_supervisor_once() {
  static const bool done = [] {
    // A write to a lane whose server just died must surface as EPIPE (a
    // LaneFailure the campaign retries), not kill the supervisor.
    std::signal(SIGPIPE, SIG_IGN);
    // A lane process whose parent dies re-parents to the supervisor, so
    // kill_lane_locked can reap every process of a killed lane.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    return true;
  }();
  (void)done;
}

std::string signal_name(int signo) {
  switch (signo) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGABRT: return "SIGABRT";
    case SIGILL: return "SIGILL";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    default: return "signal " + std::to_string(signo);
  }
}

}  // namespace

ProcPool::ProcPool(Options options, procpool::TrialFn fn)
    : options_(options), fn_(std::move(fn)) {
  if (options_.lanes < 1) {
    throw ConfigError("ProcPool: lanes must be >= 1");
  }
  if (!fn_) throw InternalError("ProcPool: trial function must be set");
  init_supervisor_once();
  lanes_.resize(options_.lanes);
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t alive = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (spawn_locked(lanes_[i], /*is_respawn=*/false)) ++alive;
  }
  if (alive == 0) {
    throw InternalError("ProcPool: could not spawn any fork-server lane");
  }
}

ProcPool::~ProcPool() {
  // No trial is outstanding here (the scheduler joins its lanes before
  // the campaign tears the pool down), and the lanes hold no state worth
  // a graceful exit.
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& lane : lanes_) kill_lane_locked(lane);
}

bool ProcPool::spawn_locked(Lane& lane, bool is_respawn) {
  if (is_respawn) {
    if (respawns_used_ >= options_.respawn_budget) {
      degraded_ = true;
      return false;
    }
    ++respawns_used_;
    ++stats_.respawns;
  }
  int cmd[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(cmd) != 0 || ::pipe(res) != 0) {
    for (int fd : {cmd[0], cmd[1], res[0], res[1]}) {
      if (fd >= 0) ::close(fd);
    }
    return false;
  }
  // Every parent-side fd of every other lane, so the fresh lane can drop
  // them: a sibling holding a dead lane's pipe ends would keep that
  // lane's EOF from ever arriving.
  std::vector<int> parent_fds;
  for (const auto& other : lanes_) {
    if (other.cmd_fd >= 0) parent_fds.push_back(other.cmd_fd);
    if (other.result_fd >= 0) parent_fds.push_back(other.result_fd);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The zygote: own process group (so one killpg reaches every process
    // of the lane), no foreign fds, and the caller's child_init (e.g.
    // telemetry disable) before it forks its first point server.
    ::setpgid(0, 0);
    ::close(cmd[1]);
    ::close(res[0]);
    for (int fd : parent_fds) ::close(fd);
    try {
      if (options_.child_init) options_.child_init();
    } catch (...) {
      // Serving with a failed init is better than losing the lane.
    }
    run_zygote(cmd[0], res[1], fn_, options_.cut_template);
  }
  ::close(cmd[0]);
  ::close(res[1]);
  if (pid < 0) {
    ::close(cmd[1]);
    ::close(res[0]);
    return false;
  }
  ::setpgid(pid, pid);  // also from the parent: closes the killpg race
  lane.pid = static_cast<int>(pid);
  lane.cmd_fd = cmd[1];
  lane.result_fd = res[0];
  lane.seq = 0;
  ++stats_.servers_spawned;
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& spawns = rec.counter(
        "fastfit_worker_spawns_total",
        "Fork-server lane spawns (initial + respawns after a lane loss)");
    spawns.add();
  }
  return true;
}

void ProcPool::kill_lane_locked(Lane& lane) {
  if (lane.pid > 0) {
    // The lane's processes all share its process group. Each one whose
    // parent dies re-parents to this subreaper before that parent can be
    // reaped, so the loop ends (ECHILD) only once the whole group is.
    ::killpg(lane.pid, SIGKILL);
    while (::waitpid(-lane.pid, nullptr, 0) >= 0 || errno == EINTR) {}
  }
  for (int fd : {lane.cmd_fd, lane.result_fd}) {
    if (fd >= 0) ::close(fd);
  }
  lane.pid = 0;
  lane.cmd_fd = lane.result_fd = -1;
}

bool ProcPool::degraded() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

ProcPool::Stats ProcPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<int> ProcPool::server_pids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> pids;
  pids.reserve(lanes_.size());
  for (const auto& lane : lanes_) pids.push_back(lane.pid);
  return pids;
}

ProcPool::Result ProcPool::run(const procpool::WorkItem& item,
                               std::chrono::milliseconds lease,
                               std::size_t index) {
  tel::ScopedSpan span("worker-dispatch");
  Result result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (index >= lanes_.size()) {
      throw InternalError("ProcPool: no lane " + std::to_string(index) +
                          " in a pool of " + std::to_string(lanes_.size()));
    }
    if (lanes_[index].busy) {
      throw InternalError("ProcPool: two callers on lane " +
                          std::to_string(index));
    }
    lanes_[index].busy = true;
  }
  struct Release {
    ProcPool& pool;
    std::size_t index;
    ~Release() {
      std::lock_guard<std::mutex> lock(pool.mutex_);
      pool.lanes_[index].busy = false;
    }
  } release{*this, index};

  std::uint64_t seq = 0;
  int cmd_fd = -1;
  int result_fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Lane& lane = lanes_[index];
    if (lane.pid <= 0 && !spawn_locked(lane, /*is_respawn=*/true)) {
      ++stats_.lane_failures;
      result.kind = Result::Kind::LaneFailure;
      result.error = degraded_
                         ? "worker respawn budget exhausted; pool degraded"
                         : "fork-server respawn failed";
      return result;
    }
    ++stats_.trials_dispatched;
    seq = ++lane.seq;
    cmd_fd = lane.cmd_fd;
    result_fd = lane.result_fd;
  }
  if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
    static auto& dispatched = rec.counter(
        "fastfit_worker_trials_total",
        "Trials dispatched to fork-server worker processes");
    dispatched.add();
  }

  // Holding no lock across the blocking I/O: the lane is this call's
  // until it returns, so the fds cannot be closed under it.
  if (!write_frame(cmd_fd, encode_work(item, seq))) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
    result.kind = Result::Kind::LaneFailure;
    result.error = "fork-server command pipe closed (server died)";
    return result;
  }

  std::string frame;
  const auto deadline = std::chrono::steady_clock::now() + lease;
  const auto read_status = read_frame(result_fd, frame, deadline);
  if (read_status == ReadStatus::Timeout) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lease_kills;
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& kills = rec.counter(
          "fastfit_worker_lease_kills_total",
          "Worker lanes SIGKILLed for exceeding the trial lease deadline");
      kills.add();
    }
    result.kind = Result::Kind::LeaseExpired;
    result.error = "trial worker exceeded its " +
                   std::to_string(lease.count()) +
                   " ms lease; lane SIGKILLed";
    return result;
  }
  if (read_status == ReadStatus::Closed) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
    result.kind = Result::Kind::LaneFailure;
    result.error = "fork-server result pipe closed (server died)";
    return result;
  }

  ByteReader reader(frame);
  std::uint64_t got_seq = 0;
  std::uint8_t route = 0;
  std::uint8_t kind_raw = 0;
  bool parsed =
      reader.u64(got_seq) && reader.u8(route) && reader.u8(kind_raw);
  if (!parsed || got_seq != seq ||
      route > static_cast<std::uint8_t>(Route::NewCut)) {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
    result.kind = Result::Kind::LaneFailure;
    result.error = "fork-server protocol error (bad frame); lane killed";
    return result;
  }
  result.at_cut = route != static_cast<std::uint8_t>(Route::Scratch);
  if (result.at_cut) {
    const bool new_server = route == static_cast<std::uint8_t>(Route::NewCut);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cut_trials;
      if (new_server) ++stats_.cut_servers;
    }
    if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
      static auto& cut_trials = rec.counter(
          "fastfit_worker_cut_trials_total",
          "Process-isolated trials forked at the cut by a point server");
      static auto& cut_servers = rec.counter(
          "fastfit_worker_cut_servers_total",
          "Point servers parked at a cut: fault-free templates run to a "
          "point's cut");
      cut_trials.add();
      if (new_server) cut_servers.add();
    }
  }
  switch (static_cast<ReplyKind>(kind_raw)) {
    case ReplyKind::Completed: {
      procpool::TrialReply reply;
      if (!decode_reply(reader, reply)) break;
      result.kind = Result::Kind::Completed;
      result.reply = std::move(reply);
      return result;
    }
    case ReplyKind::SignalDeath: {
      std::uint32_t signo = 0;
      if (!reader.u32(signo) || !reader.u64(result.user_us) ||
          !reader.u64(result.sys_us) || !reader.u64(result.maxrss_kb)) {
        break;
      }
      result.kind = Result::Kind::SignalDeath;
      result.signal = static_cast<int>(signo);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.signal_deaths;
      }
      if (auto& rec = tel::Recorder::instance(); rec.enabled()) {
        static auto& deaths = rec.counter(
            "fastfit_worker_deaths_total",
            "Trial worker children killed by a genuine signal");
        deaths.add();
      }
      return result;
    }
    case ReplyKind::BadExit: {
      std::uint32_t code = 0;
      if (!reader.u32(code)) break;
      result.kind = Result::Kind::Completed;
      result.reply.ok = false;
      result.reply.error = "trial worker exited with status " +
                           std::to_string(static_cast<std::int32_t>(code)) +
                           " before reporting a result";
      return result;
    }
    case ReplyKind::ServeError: {
      std::string message;
      if (!reader.str(message)) break;
      result.kind = Result::Kind::Completed;
      result.reply.ok = false;
      result.reply.error = std::move(message);
      return result;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    kill_lane_locked(lanes_[index]);
    ++stats_.lane_failures;
  }
  result.kind = Result::Kind::LaneFailure;
  result.error = "fork-server protocol error (bad payload); lane killed";
  return result;
}

std::string describe_worker_death(int signo, std::uint64_t user_us,
                                  std::uint64_t sys_us,
                                  std::uint64_t maxrss_kb) {
  return "worker killed by " + signal_name(signo) + " (signal " +
         std::to_string(signo) + "); rusage: user=" +
         std::to_string(user_us / 1000) + "ms sys=" +
         std::to_string(sys_us / 1000) + "ms maxrss=" +
         std::to_string(maxrss_kb) + "KiB";
}

}  // namespace fastfit::core
