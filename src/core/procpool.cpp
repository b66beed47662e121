#include "core/procpool.hpp"

#include <csignal>
#include <cstring>
#include <initializer_list>
#include <optional>

#include <errno.h>
#include <poll.h>
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

bool read_full(int fd, void* data, std::size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF mid-frame
    p += r;
    n -= static_cast<std::size_t>(r);
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

bool read_frame(int fd, std::string& payload) {
  unsigned char hdr[4];
  if (!read_full(fd, hdr, sizeof(hdr))) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
  if (len > kMaxFrameBytes) return false;
  payload.resize(len);
  return len == 0 || read_full(fd, payload.data(), len);
}

enum class DeadlineRead { Ok, Timeout, Closed };

/// read_frame with a deadline: the server writes a reply frame in one
/// burst, so per-chunk polling only has to bridge scheduler hiccups.
DeadlineRead read_frame_deadline(int fd, std::string& payload,
                                 std::chrono::steady_clock::time_point deadline) {
  std::size_t want = 4;  // header first, then the payload
  std::string raw;
  bool header_done = false;
  std::uint32_t len = 0;
  std::size_t got = 0;
  raw.resize(want);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return DeadlineRead::Timeout;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    struct pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1,
                          static_cast<int>(std::min<std::int64_t>(
                              remaining.count(), 60'000)));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return DeadlineRead::Closed;
    }
    if (pr == 0) continue;  // re-check the deadline
    const ssize_t r = ::read(fd, raw.data() + got, want - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return DeadlineRead::Closed;
    }
    if (r == 0) return DeadlineRead::Closed;
    got += static_cast<std::size_t>(r);
    if (got < want) continue;
    if (!header_done) {
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(raw[i]))
               << (8 * i);
      }
      if (len > kMaxFrameBytes) return DeadlineRead::Closed;
      header_done = true;
      raw.clear();
      raw.resize(len);
      want = len;
      got = 0;
      if (len == 0) break;
      continue;
    }
    break;
  }
  payload = std::move(raw);
  return DeadlineRead::Ok;
}

// ---------------------------------------------------------------------------
// Payload encodings
// ---------------------------------------------------------------------------

std::string encode_work(const procpool::WorkItem& item, std::uint64_t seq) {
  ByteWriter w;
  w.u64(seq);
  w.u32(item.site_id);
  w.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(item.rank)));
  w.u64(item.invocation);
  w.u8(item.param);
  w.u8(static_cast<std::uint8_t>(item.fault.model));
  w.u8(static_cast<std::uint8_t>(item.fault.trigger));
  w.f64(item.fault.probability);
  w.u64(item.fault.window);
  w.u64(item.fault.duty_k);
  w.u64(item.trial);
  w.u64(item.watchdog_ms);
  return w.bytes();
}

bool decode_work(const std::string& payload, procpool::WorkItem& item,
                 std::uint64_t& seq) {
  ByteReader r(payload);
  std::uint64_t rank = 0;
  std::uint8_t model = 0;
  std::uint8_t trigger = 0;
  if (!r.u64(seq) || !r.u32(item.site_id) || !r.u64(rank) ||
      !r.u64(item.invocation) || !r.u8(item.param) || !r.u8(model) ||
      !r.u8(trigger) || !r.f64(item.fault.probability) ||
      !r.u64(item.fault.window) || !r.u64(item.fault.duty_k) ||
      !r.u64(item.trial) ||
      !r.u64(item.watchdog_ms) || !r.done()) {
    return false;
  }
  item.rank = static_cast<int>(static_cast<std::int64_t>(rank));
  item.fault.model = static_cast<inject::FaultModel>(model);
  item.fault.trigger = static_cast<inject::FaultTrigger>(trigger);
  return true;
}

std::string encode_reply(const procpool::TrialReply& reply) {
  ByteWriter w;
  w.u8(reply.ok ? 1 : 0);
  if (reply.ok) {
    w.u8(static_cast<std::uint8_t>(reply.outcome));
    w.u8(reply.deterministic_hang ? 1 : 0);
    w.str(reply.autopsy);
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
    if (!r.u8(outcome) || !r.u8(det) || !r.str(reply.autopsy)) {
      return false;
    }
    if (outcome >= inject::kNumOutcomes) return false;
    reply.outcome = static_cast<inject::Outcome>(outcome);
    reply.deterministic_hang = det != 0;
  } else {
    if (!r.str(reply.error)) return false;
  }
  return true;
}

/// Consolidated server → supervisor frame kinds.
enum class ReplyKind : std::uint8_t {
  Completed = 0,    ///< child exited 0 with a TrialReply
  SignalDeath = 1,  ///< child killed by a signal
  BadExit = 2,      ///< child exited (possibly nonzero) without a reply
  ServeError = 3,   ///< server-side failure (fork/pipe), trial not run
  NoCut = 4,        ///< cut server → fork-server only: the template's
                    ///< world ended before its cut, trial not run
};

/// Which process forked a consolidated frame's trial child (the byte
/// after the sequence number).
enum class Route : std::uint8_t {
  Scratch = 0,  ///< the fork-server: the trial ran from scratch
  Cut = 1,      ///< a cut server, at the cut
  NewCut = 2,   ///< as Cut, and the first trial of a new cut server
};

bool same_point(const procpool::WorkItem& a, const procpool::WorkItem& b) {
  return a.site_id == b.site_id && a.rank == b.rank &&
         a.invocation == b.invocation && a.param == b.param &&
         a.fault == b.fault;
}

/// Items a cut server serves: exact-trigger faults that cannot replay an
/// op log (message, fail-stop and signal models). A replayable parameter
/// fault goes to the from-scratch child instead, where the campaign's
/// TrialFn replays the prefix from the recording the supervisor made
/// before forking; on whole LU and miniMD studies that beats forking them
/// at the cut (EXPERIMENTS.md, "Which trials fork at the cut").
bool forks_at_cut(const procpool::WorkItem& item) {
  return item.fault.trigger == inject::FaultTrigger::ExactPoint &&
         !inject::is_replayable(item.fault);
}

// ---------------------------------------------------------------------------
// The servers: single-threaded after fork, one fresh child per trial.
// ---------------------------------------------------------------------------

/// The fork / wait4 / consolidate step both server levels share. Forks
/// the trial child of work item `seq`. In the child it returns the write
/// end of the child's reply pipe: the child writes one encode_reply frame
/// there and _exits without flushing inherited stdio buffers or running
/// static destructors (the supervisor's journal fd and buffers are
/// duplicated in it and must never see a write from it). In the server
/// it waits for the child, writes the consolidated frame to `result_fd`
/// and returns -1. `own_fds` are the server's pipe ends, closed in the
/// child.
int fork_trial(std::uint64_t seq, Route route, int result_fd,
               std::initializer_list<int> own_fds) {
  ByteWriter out;
  out.u64(seq);
  out.u8(static_cast<std::uint8_t>(route));

  int trial_pipe[2] = {-1, -1};
  if (::pipe(trial_pipe) != 0) {
    out.u8(static_cast<std::uint8_t>(ReplyKind::ServeError));
    out.str(std::string("fork-server: pipe failed: ") + std::strerror(errno));
    if (!write_frame(result_fd, out.bytes())) std::_Exit(0);
    return -1;
  }

  const pid_t child = ::fork();
  if (child == 0) {
    for (const int fd : own_fds) ::close(fd);
    ::close(trial_pipe[0]);
    return trial_pipe[1];
  }
  if (child < 0) {
    ::close(trial_pipe[0]);
    ::close(trial_pipe[1]);
    out.u8(static_cast<std::uint8_t>(ReplyKind::ServeError));
    out.str(std::string("fork-server: fork failed: ") + std::strerror(errno));
    if (!write_frame(result_fd, out.bytes())) std::_Exit(0);
    return -1;
  }
  ::close(trial_pipe[1]);

  // A wedged child never writes and never exits; this read then blocks
  // until the supervisor's lease expires and SIGKILLs the whole lane
  // process group (servers + child).
  std::string child_frame;
  const bool got_reply = read_frame(trial_pipe[0], child_frame);
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
    if (!write_frame(result_fd, merged)) std::_Exit(0);
    return -1;
  } else {
    out.u8(static_cast<std::uint8_t>(ReplyKind::BadExit));
    out.u32(static_cast<std::uint32_t>(
        WIFEXITED(status) ? WEXITSTATUS(status) : -1));
  }
  if (!write_frame(result_fd, out.bytes())) std::_Exit(0);
  return -1;
}

/// The cut server's main: runs the template world, parks at its cut,
/// and forks one trial child there per work item until the fork-server
/// closes the command pipe.
[[noreturn]] void run_cut_server(int cmd_fd, int res_fd,
                                 const procpool::WorkItem& point,
                                 const procpool::TemplateFn& cut_template) {
  procpool::WorkItem item;
  int reply_fd = -1;
  Route route = Route::NewCut;
  const procpool::Park park = [&]() -> const procpool::WorkItem& {
    for (;;) {
      std::string frame;
      std::uint64_t seq = 0;
      if (!read_frame(cmd_fd, frame)) std::_Exit(0);
      if (!decode_work(frame, item, seq)) std::_Exit(3);
      reply_fd = fork_trial(seq, route, res_fd, {cmd_fd, res_fd});
      if (reply_fd >= 0) return item;  // the trial child resumes the world
      route = Route::Cut;
    }
  };
  const procpool::TrialReply reply = cut_template(point, park);
  if (reply_fd >= 0) {
    // The trial child, back from its suffix.
    write_frame(reply_fd, encode_reply(reply));
    std::_Exit(0);
  }
  // The template never parked: tell the fork-server, which serves the
  // waiting item from scratch.
  std::string frame;
  std::uint64_t seq = 0;
  procpool::WorkItem unserved;
  if (!read_frame(cmd_fd, frame) || !decode_work(frame, unserved, seq)) {
    std::_Exit(0);
  }
  ByteWriter out;
  out.u64(seq);
  out.u8(static_cast<std::uint8_t>(Route::Scratch));
  out.u8(static_cast<std::uint8_t>(ReplyKind::NoCut));
  write_frame(res_fd, out.bytes());
  std::_Exit(0);
}

/// The fork-server's handle on its cut server.
struct CutServer {
  pid_t pid = 0;
  int cmd_fd = -1;  ///< fork-server → cut server work frames
  int res_fd = -1;  ///< cut server → fork-server consolidated frames
  procpool::WorkItem point;
};

void stop_cut_server(CutServer& cut) {
  if (cut.pid <= 0) return;
  // Between items the cut server has no trial child, so this leaves no
  // orphan behind.
  ::kill(cut.pid, SIGKILL);
  while (::waitpid(cut.pid, nullptr, 0) < 0 && errno == EINTR) {}
  ::close(cut.cmd_fd);
  ::close(cut.res_fd);
  cut = CutServer{};
}

void start_cut_server(CutServer& cut, const procpool::WorkItem& point,
                      int lane_cmd_fd, int lane_result_fd,
                      const procpool::TemplateFn& cut_template) {
  int cmd[2] = {-1, -1};
  int res[2] = {-1, -1};
  if (::pipe(cmd) != 0) return;
  if (::pipe(res) != 0) {
    ::close(cmd[0]);
    ::close(cmd[1]);
    return;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(lane_cmd_fd);
    ::close(lane_result_fd);
    ::close(cmd[1]);
    ::close(res[0]);
    run_cut_server(cmd[0], res[1], point, cut_template);
  }
  ::close(cmd[0]);
  ::close(res[1]);
  if (pid < 0) {
    ::close(cmd[1]);
    ::close(res[0]);
    return;
  }
  cut = CutServer{pid, cmd[1], res[0], point};
}

/// The fork-server loop. Items that fork at the cut go to the cut server
/// of their point (started on demand, replacing the previous one); every
/// other item, and any the cut server cannot serve, runs in a fresh
/// child.
[[noreturn]] void serve(int cmd_fd, int result_fd, const procpool::TrialFn& fn,
                        const procpool::TemplateFn& cut_template) {
  CutServer cut;
  // The last point whose template ended before its cut: its later items
  // go straight to the from-scratch path.
  std::optional<procpool::WorkItem> uncut;
  for (;;) {
    std::string frame;
    procpool::WorkItem item;
    std::uint64_t seq = 0;
    if (!read_frame(cmd_fd, frame)) {  // supervisor closed
      stop_cut_server(cut);
      std::_Exit(0);
    }
    if (!decode_work(frame, item, seq)) {
      stop_cut_server(cut);
      std::_Exit(3);
    }

    const bool at_cut = cut_template && forks_at_cut(item) &&
                        !(uncut && same_point(*uncut, item));
    if (cut.pid > 0 && !(at_cut && same_point(cut.point, item))) {
      stop_cut_server(cut);
    }
    if (at_cut && cut.pid == 0) {
      start_cut_server(cut, item, cmd_fd, result_fd, cut_template);
    }
    if (cut.pid > 0) {
      std::string reply;
      if (write_frame(cut.cmd_fd, frame) && read_frame(cut.res_fd, reply)) {
        ByteReader reader(reply);
        std::uint64_t got_seq = 0;
        std::uint8_t route = 0;
        std::uint8_t kind = 0;
        if (!(reader.u64(got_seq) && reader.u8(route) && reader.u8(kind) &&
              static_cast<ReplyKind>(kind) == ReplyKind::NoCut)) {
          if (!write_frame(result_fd, reply)) {
            stop_cut_server(cut);
            std::_Exit(0);
          }
          continue;
        }
        uncut = item;
      }
      // The template never reached its cut, or the cut server was lost.
      stop_cut_server(cut);
    }

    const int reply_fd =
        fork_trial(seq, Route::Scratch, result_fd, {cmd_fd, result_fd});
    if (reply_fd >= 0) {
      write_frame(reply_fd, encode_reply(fn(item)));
      std::_Exit(0);
    }
  }
}

void ignore_sigpipe_once() {
  // A write to a lane whose server just died must surface as EPIPE (a
  // LaneFailure the campaign retries), not kill the supervisor.
  static const bool done = [] {
    std::signal(SIGPIPE, SIG_IGN);
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
  ignore_sigpipe_once();
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
  std::lock_guard<std::mutex> lock(mutex_);
  // Closing the command pipe is the shutdown signal: the server's next
  // read sees EOF and _exits. No trial is outstanding here — the
  // scheduler joins its workers before the campaign tears the pool down.
  for (auto& lane : lanes_) {
    for (int fd : {lane.cmd_fd, lane.result_fd, lane.alive_fd}) {
      if (fd >= 0) ::close(fd);
    }
    lane.cmd_fd = lane.result_fd = lane.alive_fd = -1;
  }
  for (auto& lane : lanes_) {
    if (lane.pid <= 0) continue;
    // Grace period, then escalate: a server mid-teardown exits on EOF in
    // microseconds; anything still alive after the grace is wedged.
    int status = 0;
    bool reaped = false;
    for (int spin = 0; spin < 200; ++spin) {
      const pid_t r = ::waitpid(lane.pid, &status, WNOHANG);
      if (r == lane.pid || (r < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::usleep(10'000);
    }
    if (!reaped) {
      ::killpg(lane.pid, SIGKILL);
      while (::waitpid(lane.pid, &status, 0) < 0 && errno == EINTR) {}
    }
    lane.pid = 0;
  }
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
  int alive[2] = {-1, -1};
  const auto close_all = [&] {
    for (int fd : {cmd[0], cmd[1], res[0], res[1], alive[0], alive[1]}) {
      if (fd >= 0) ::close(fd);
    }
  };
  if (::pipe(cmd) != 0 || ::pipe(res) != 0 || ::pipe(alive) != 0) {
    close_all();
    return false;
  }
  // Every parent-side fd of every other lane, so the fresh server can
  // drop them: a sibling holding a dead lane's pipe ends would keep that
  // lane's EOF from ever arriving.
  std::vector<int> parent_fds;
  for (const auto& other : lanes_) {
    if (other.cmd_fd >= 0) parent_fds.push_back(other.cmd_fd);
    if (other.result_fd >= 0) parent_fds.push_back(other.result_fd);
    if (other.alive_fd >= 0) parent_fds.push_back(other.alive_fd);
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Fork-server child: own process group (so one killpg reaps the
    // server and its current trial child together), no foreign fds, and
    // the caller's child_init (e.g. telemetry disable) before serving.
    ::setpgid(0, 0);
    ::close(cmd[1]);
    ::close(res[0]);
    ::close(alive[0]);  // alive[1] stays open here and in every descendant
    for (int fd : parent_fds) ::close(fd);
    try {
      if (options_.child_init) options_.child_init();
    } catch (...) {
      // Serving with a failed init is better than losing the lane.
    }
    serve(cmd[0], res[1], fn_, options_.cut_template);
  }
  if (pid < 0) {
    close_all();
    return false;
  }
  ::setpgid(pid, pid);  // also from the parent: closes the killpg race
  ::close(cmd[0]);
  ::close(res[1]);
  ::close(alive[1]);
  lane.pid = static_cast<int>(pid);
  lane.cmd_fd = cmd[1];
  lane.result_fd = res[0];
  lane.alive_fd = alive[0];
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
    ::killpg(lane.pid, SIGKILL);
    int status = 0;
    while (::waitpid(lane.pid, &status, 0) < 0 && errno == EINTR) {}
    // The server's cut server and trial child got the same SIGKILL, but
    // they are not our children, so waitpid cannot tell when they are
    // gone. The alive pipe's EOF does: wait for it (at most 1 s), so no
    // process of a killed lane is still running when the kill returns.
    pollfd alive{lane.alive_fd, POLLIN, 0};
    while (::poll(&alive, 1, 1000) < 0 && errno == EINTR) {}
  }
  for (int fd : {lane.cmd_fd, lane.result_fd, lane.alive_fd}) {
    if (fd >= 0) ::close(fd);
  }
  lane.pid = 0;
  lane.cmd_fd = lane.result_fd = lane.alive_fd = -1;
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
  const auto read_status = read_frame_deadline(result_fd, frame, deadline);
  if (read_status == DeadlineRead::Timeout) {
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
  if (read_status == DeadlineRead::Closed) {
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
          "Process-isolated trials forked at the cut by a cut server");
      static auto& cut_servers = rec.counter(
          "fastfit_worker_cut_servers_total",
          "Cut servers started: fault-free templates run to a point's cut");
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
    case ReplyKind::NoCut:
      break;  // never leaves the fork-server
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
