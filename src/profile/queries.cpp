#include "profile/queries.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>

#include "support/format.hpp"

namespace fastfit::profile {

std::uint64_t n_invocations(
    std::span<const InvocationRecord> invocations) noexcept {
  return invocations.size();
}

std::size_t n_distinct_stacks(std::span<const InvocationRecord> invocations) {
  std::set<trace::StackId> stacks;
  for (const auto& inv : invocations) stacks.insert(inv.stack);
  return stacks.size();
}

double mean_stack_depth(
    std::span<const InvocationRecord> invocations) noexcept {
  if (invocations.empty()) return 0.0;
  double total = 0.0;
  for (const auto& inv : invocations) total += inv.depth;
  return total / static_cast<double>(invocations.size());
}

std::vector<InvocationRecord> stack_representatives(
    std::span<const InvocationRecord> invocations) {
  std::set<trace::StackId> seen;
  std::vector<InvocationRecord> out;
  for (const auto& inv : invocations) {
    if (seen.insert(inv.stack).second) out.push_back(inv);
  }
  return out;
}

namespace {

struct Aggregate {
  mpi::CollectiveKind kind{};
  std::string file;
  int line = 0;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

std::map<std::uint32_t, Aggregate> aggregate_sites(const Profiler& profiler) {
  std::map<std::uint32_t, Aggregate> out;
  for (int r = 0; r < profiler.nranks(); ++r) {
    for (const auto& [site_id, site] : profiler.rank(r).sites) {
      auto& agg = out[site_id];
      agg.kind = site.kind;
      agg.file = site.file;
      agg.line = site.line;
      agg.calls += site.invocations.size();
      for (const auto& inv : site.invocations) agg.bytes += inv.bytes;
    }
  }
  return out;
}

}  // namespace

double collective_fraction(const Profiler& profiler,
                           mpi::CollectiveKind kind) {
  std::uint64_t total = 0;
  std::uint64_t matching = 0;
  for (int r = 0; r < profiler.nranks(); ++r) {
    for (const auto& [site_id, site] : profiler.rank(r).sites) {
      total += site.invocations.size();
      if (site.kind == kind) matching += site.invocations.size();
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(matching) / static_cast<double>(total);
}

double errhal_fraction(const Profiler& profiler, mpi::CollectiveKind kind) {
  std::uint64_t total = 0;
  std::uint64_t errhal = 0;
  for (int r = 0; r < profiler.nranks(); ++r) {
    for (const auto& [site_id, site] : profiler.rank(r).sites) {
      if (site.kind != kind) continue;
      for (const auto& inv : site.invocations) {
        ++total;
        if (inv.errhal) ++errhal;
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(errhal) / static_cast<double>(total);
}

std::string mpip_report(const Profiler& profiler) {
  const auto sites = aggregate_sites(profiler);
  std::uint64_t total_calls = 0;
  for (const auto& [id, agg] : sites) total_calls += agg.calls;

  // Sort rows by call volume, mpiP-style.
  std::vector<std::pair<std::uint32_t, Aggregate>> rows(sites.begin(),
                                                        sites.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.calls > b.second.calls;
  });

  std::ostringstream out;
  out << "--- Communication profile (" << profiler.nranks() << " ranks, "
      << total_calls << " collective calls) ---\n";
  out << pad("collective", 26) << pad("site", 34) << pad("calls", 10)
      << pad("bytes", 12) << "share\n";
  for (const auto& [site_id, agg] : rows) {
    std::ostringstream site_name;
    site_name << agg.file << ':' << agg.line;
    // Only the basename keeps rows readable.
    std::string name = site_name.str();
    if (const auto slash = name.rfind('/'); slash != std::string::npos) {
      name = name.substr(slash + 1);
    }
    out << pad(mpi::to_string(agg.kind), 26) << pad(name, 34)
        << pad(std::to_string(agg.calls), 10)
        << pad(std::to_string(agg.bytes), 12)
        << percent(total_calls
                       ? static_cast<double>(agg.calls) /
                             static_cast<double>(total_calls)
                       : 0.0)
        << '\n';
  }
  return out.str();
}

}  // namespace fastfit::profile
