#include "core/shard.hpp"

#include "inject/fault_spec.hpp"
#include "support/error.hpp"

namespace fastfit::core {

std::string ShardSpec::str() const {
  return std::to_string(index) + '/' + std::to_string(count);
}

ShardSpec parse_shard(const std::string& text) {
  const auto fail = [&]() -> ShardSpec {
    throw ConfigError("shard: expected \"i/N\" with 1 <= i <= N, got '" +
                      text + "'");
  };
  const auto slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= text.size()) {
    fail();
  }
  const auto parse_part = [&](const std::string& part) -> std::size_t {
    if (part.empty() || part.size() > 9) fail();
    std::size_t out = 0;
    for (char c : part) {
      if (c < '0' || c > '9') fail();
      out = out * 10 + static_cast<std::size_t>(c - '0');
    }
    return out;
  };
  ShardSpec spec;
  spec.index = parse_part(text.substr(0, slash));
  spec.count = parse_part(text.substr(slash + 1));
  if (spec.index < 1 || spec.count < 1 || spec.index > spec.count) fail();
  return spec;
}

bool shard_owns(const ShardSpec& spec, const InjectionPoint& point) {
  if (!spec.sharded()) return true;
  const auto hash = inject::point_identity_hash(
      point.site_id, static_cast<std::uint64_t>(point.rank), point.invocation,
      inject::param_ordinal(point.family, point.param, point.p2p_param));
  return hash % spec.count == spec.index - 1;
}

}  // namespace fastfit::core
