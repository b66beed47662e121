#include "minimpi/progress.hpp"

#include <set>
#include <sstream>

#include "support/error.hpp"

namespace fastfit::mpi {

const char* to_string(RankPhase phase) noexcept {
  switch (phase) {
    case RankPhase::Computing: return "computing";
    case RankPhase::Blocked: return "blocked";
    case RankPhase::Exited: return "exited";
    case RankPhase::Dead: return "dead";
  }
  return "unknown";
}

std::string PendingSig::describe() const {
  std::ostringstream out;
  out << (op[0] != '\0' ? op : "transport") << "(comm=0x" << std::hex << comm
      << std::dec << ", seq=" << seq;
  if (root >= 0) out << ", root=" << root;
  out << ')';
  if (wait_source_world >= 0) {
    out << " awaiting world rank " << wait_source_world << " (tag 0x"
        << std::hex << wait_tag << std::dec << ')';
  }
  if (!frame.empty()) out << " in " << frame;
  return out.str();
}

ProgressTable::ProgressTable(int nranks)
    : slots_(static_cast<std::size_t>(nranks)) {}

void ProgressTable::publish_exited(int rank) {
  auto& slot = slots_.at(static_cast<std::size_t>(rank));
  ++slot.heartbeat;
  if (slot.phase != RankPhase::Dead) slot.phase = RankPhase::Exited;
}

void ProgressTable::publish_dead(int rank) {
  auto& slot = slots_.at(static_cast<std::size_t>(rank));
  ++slot.heartbeat;
  slot.phase = RankPhase::Dead;
}

WorldAutopsy build_autopsy(const ProgressTable& table, bool deterministic,
                           std::string verdict) {
  return WorldAutopsy{deterministic, std::move(verdict), table.snapshot_all()};
}

std::string WorldAutopsy::summary() const {
  std::ostringstream out;
  out << (deterministic ? "deterministic deadlock" : "autopsy") << ": "
      << verdict;
  int blocked = 0;
  int exited = 0;
  int dead = 0;
  for (const auto& r : ranks) {
    if (r.phase == RankPhase::Blocked) ++blocked;
    if (r.phase == RankPhase::Exited) ++exited;
    if (r.phase == RankPhase::Dead) ++dead;
  }
  out << " [" << blocked << " blocked, " << exited << " exited, ";
  if (dead > 0) out << dead << " dead, ";
  out << (ranks.size() - static_cast<std::size_t>(blocked) -
          static_cast<std::size_t>(exited) - static_cast<std::size_t>(dead))
      << " computing of " << ranks.size() << " ranks]";
  return out.str();
}

std::string WorldAutopsy::render() const {
  std::ostringstream out;
  out << summary() << '\n';
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto& r = ranks[i];
    out << "  rank " << i << ": " << to_string(r.phase) << " (heartbeat "
        << r.heartbeat << ')';
    if (r.has_op) out << ' ' << r.sig.describe();
    out << '\n';
  }
  return out.str();
}

std::string analyze_deadlock(const std::vector<RankSnapshot>& snaps) {
  // Collect the blocked ranks' signatures; the analysis compares them for
  // the classic divergence patterns a corrupted collective parameter
  // produces. Ties are reported most-specific-first.
  std::vector<int> blocked;
  for (int r = 0; r < static_cast<int>(snaps.size()); ++r) {
    if (snaps[static_cast<std::size_t>(r)].phase == RankPhase::Blocked) {
      blocked.push_back(r);
    }
  }
  if (blocked.empty()) return "no blocked ranks (analysis bug)";

  std::set<std::string> ops;
  std::set<std::uint64_t> comms;
  std::set<std::uint32_t> seqs;
  std::set<int> roots;
  std::vector<int> awaiting_exited;
  std::vector<int> awaiting_dead;
  for (int r : blocked) {
    const auto& s = snaps[static_cast<std::size_t>(r)];
    if (!s.has_op) continue;
    ops.insert(s.sig.op);
    comms.insert(s.sig.comm);
    seqs.insert(s.sig.seq);
    if (s.sig.root >= 0) roots.insert(s.sig.root);
    const int peer = s.sig.wait_source_world;
    if (peer >= 0 && peer < static_cast<int>(snaps.size())) {
      const auto peer_phase = snaps[static_cast<std::size_t>(peer)].phase;
      if (peer_phase == RankPhase::Exited) awaiting_exited.push_back(r);
      if (peer_phase == RankPhase::Dead) awaiting_dead.push_back(r);
    }
  }

  std::ostringstream out;
  if (!awaiting_dead.empty()) {
    out << "rank";
    if (awaiting_dead.size() > 1) out << 's';
    for (std::size_t i = 0; i < awaiting_dead.size(); ++i) {
      out << (i ? "," : "") << ' ' << awaiting_dead[i];
    }
    out << " blocked on dead peer";
    if (awaiting_dead.size() > 1) out << 's';
    return out.str();
  }
  if (!awaiting_exited.empty()) {
    out << "rank";
    if (awaiting_exited.size() > 1) out << 's';
    for (std::size_t i = 0; i < awaiting_exited.size(); ++i) {
      out << (i ? "," : "") << ' ' << awaiting_exited[i];
    }
    out << " blocked on already-exited peer";
    if (awaiting_exited.size() > 1) out << 's';
    return out.str();
  }
  if (comms.size() > 1) {
    out << "divergent communicators across blocked ranks (" << comms.size()
        << " distinct)";
    return out.str();
  }
  if (seqs.size() > 1) {
    out << "mismatched collective sequence numbers (seq "
        << *seqs.begin() << ".." << *seqs.rbegin() << ')';
    return out.str();
  }
  if (roots.size() > 1) {
    out << "divergent roots (";
    bool first = true;
    for (int root : roots) {
      out << (first ? "" : ", ") << root;
      first = false;
    }
    out << ')';
    if (ops.size() == 1) out << " in " << *ops.begin();
    return out.str();
  }
  if (ops.size() > 1) {
    out << "mismatched operations (";
    bool first = true;
    for (const auto& op : ops) {
      out << (first ? "" : " vs ") << op;
      first = false;
    }
    out << ')';
    return out.str();
  }
  out << "unmatched rendezvous";
  if (ops.size() == 1) out << " in " << *ops.begin();
  out << " (no awaited message can ever arrive)";
  return out.str();
}

}  // namespace fastfit::mpi
