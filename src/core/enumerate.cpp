#include "core/enumerate.hpp"

#include <array>
#include <map>
#include <unordered_set>
#include <utility>

#include "profile/queries.hpp"
#include "support/error.hpp"

namespace fastfit::core {
namespace {

std::string short_location(const std::string& file, int line) {
  std::string name = file;
  if (const auto slash = name.rfind('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  return name + ":" + std::to_string(line);
}

constexpr std::array<mpi::P2pParam, mpi::kNumP2pParams> kP2pParams{
    mpi::P2pParam::Buffer, mpi::P2pParam::Count, mpi::P2pParam::Datatype,
    mpi::P2pParam::Peer, mpi::P2pParam::Tag};

/// Appends one point per (invocation, parameter) of one site on one rank,
/// in invocation then parameter order. `site` holds the site-level fields
/// and features; `set_param` fills in one of `params`.
template <typename Param, typename SetParam>
void add_site_points(std::vector<InjectionPoint>& points,
                     InjectionPoint site,
                     std::span<const profile::InvocationRecord> invocations,
                     std::span<const Param> params, SetParam set_param) {
  site.n_inv = profile::n_invocations(invocations);
  site.stack_depth = profile::mean_stack_depth(invocations);
  site.n_diff_stack = profile::n_distinct_stacks(invocations);
  for (const auto& inv : invocations) {
    site.invocation = inv.invocation;
    site.stack = inv.stack;
    site.phase = inv.phase;
    site.errhal = inv.errhal;
    for (const Param param : params) {
      set_param(site, param);
      points.push_back(site);
    }
  }
}

/// The full exploration space of one site family — every invocation of
/// every site on every rank, one point per injectable parameter — in
/// canonical order (rank ascending, site id, invocation, parameter), with
/// the ML features attached.
Enumeration profiled_space(const profile::Profiler& profiler,
                           mpi::SiteFamily family) {
  Enumeration out;
  out.stats.nranks = profiler.nranks();
  for (int r = 0; r < profiler.nranks(); ++r) {
    InjectionPoint site;
    site.rank = r;
    site.family = family;
    if (family == mpi::SiteFamily::Collective) {
      for (const auto& [site_id, profiled] : profiler.rank(r).sites) {
        site.site_id = site_id;
        site.kind = profiled.kind;
        site.site_location = short_location(profiled.file, profiled.line);
        const auto params = mpi::injectable_params(profiled.kind);
        add_site_points<mpi::Param>(
            out.points, site, profiled.invocations, params,
            [](InjectionPoint& point, mpi::Param p) { point.param = p; });
      }
    } else {
      for (const auto& [site_id, profiled] : profiler.rank(r).p2p_sites) {
        site.site_id = site_id;
        site.p2p_kind = profiled.kind;
        site.site_location = short_location(profiled.file, profiled.line);
        add_site_points<mpi::P2pParam>(
            out.points, site, profiled.invocations, kP2pParams,
            [](InjectionPoint& point, mpi::P2pParam p) {
              point.p2p_param = p;
            });
      }
    }
  }
  out.stats.total_points = out.points.size();
  return out;
}

/// The profiled invocations of `point`'s site on its rank.
const std::vector<profile::InvocationRecord>& site_invocations(
    const profile::Profiler& profiler, const InjectionPoint& point) {
  const auto& rank = profiler.rank(point.rank);
  return point.family == mpi::SiteFamily::Collective
             ? rank.sites.at(point.site_id).invocations
             : rank.p2p_sites.at(point.site_id).invocations;
}

/// Semantic-driven pruning: computes the process equivalence classes and
/// keeps only the points on each class's lowest-rank representative.
void prune_semantic(const profile::Profiler& profiler, Enumeration& e) {
  e.classes = trace::equivalence_classes(profiler.contexts());
  e.stats.equivalence_classes = e.classes.size();
  std::vector<char> representative(
      static_cast<std::size_t>(profiler.nranks()), 0);
  for (const auto& cls : e.classes) {
    representative[static_cast<std::size_t>(cls.representative())] = 1;
  }
  std::erase_if(e.points, [&](const InjectionPoint& point) {
    return !representative[static_cast<std::size_t>(point.rank)];
  });
  e.stats.after_semantic = e.points.size();
}

/// Application-context-driven pruning: per (rank, site), keeps one
/// invocation per distinct call stack (the first, in invocation order).
void prune_context(const profile::Profiler& profiler, Enumeration& e) {
  // Representative invocations per (rank, site), computed once per group.
  std::map<std::pair<int, std::uint32_t>, std::unordered_set<std::uint64_t>>
      keep;
  std::erase_if(e.points, [&](const InjectionPoint& point) {
    const auto group = std::make_pair(point.rank, point.site_id);
    auto it = keep.find(group);
    if (it == keep.end()) {
      std::unordered_set<std::uint64_t> invocations;
      for (const auto& inv : profile::stack_representatives(
               site_invocations(profiler, point))) {
        invocations.insert(inv.invocation);
      }
      it = keep.emplace(group, std::move(invocations)).first;
    }
    return !it->second.count(point.invocation);
  });
}

}  // namespace

PassChain parse_pass_list(std::span<const std::string> names) {
  for (const auto& name : names) {
    if (name != "semantic" && name != "context" && name != "ml") {
      throw ConfigError("unknown pruning pass '" + name +
                        "' (available: semantic, context, ml)");
    }
  }
  PassChain chain;
  for (const auto& name : names) {
    if (chain.ml) {
      throw ConfigError(
          "pass list: 'ml' runs trials and must be the last pass in the "
          "chain");
    }
    if (name == "ml") {
      chain.ml = true;
    } else {
      chain.structural.push_back(name);
    }
  }
  return chain;
}

PassChain parse_pass_list(const std::string& text) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (true) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    std::string name = text.substr(start, end - start);
    if (name.empty()) {
      throw ConfigError("pass list: empty entry in '" + text + "'");
    }
    names.push_back(std::move(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parse_pass_list(names);
}

Enumeration enumerate_with_passes(const profile::Profiler& profiler,
                                  std::span<const std::string> pass_names,
                                  mpi::SiteFamily family) {
  if (parse_pass_list(pass_names).ml) {
    throw ConfigError(
        "enumerate: pass 'ml' runs trials and cannot run at enumeration "
        "time; select it through the study driver");
  }
  auto out = profiled_space(profiler, family);
  out.stats.after_context = out.points.size();
  for (const auto& name : pass_names) {
    if (name == "semantic") {
      prune_semantic(profiler, out);
    } else {
      prune_context(profiler, out);
    }
    out.stats.after_context = out.points.size();
  }
  // The passes erase in place: without this, the campaign would keep the
  // whole unpruned space's memory resident for the study.
  out.points.shrink_to_fit();
  return out;
}

Enumeration enumerate_points(const profile::Profiler& profiler) {
  static const std::array<std::string, 2> kDefault{"semantic", "context"};
  return enumerate_with_passes(profiler, kDefault);
}

Enumeration enumerate_points_semantic_only(
    const profile::Profiler& profiler) {
  static const std::array<std::string, 1> kSemanticOnly{"semantic"};
  return enumerate_with_passes(profiler, kSemanticOnly);
}

}  // namespace fastfit::core
