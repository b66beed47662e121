#include "support/format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>

namespace fastfit {

std::string percent(double fraction, int decimals) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(decimals) << fraction * 100.0 << '%';
  return out.str();
}

std::string pad(const std::string& text, std::size_t width) {
  if (text.size() >= width) return text;
  return text + std::string(width - text.size(), ' ');
}

std::string ascii_bar(double fraction, std::size_t max_width) {
  const double clamped = std::clamp(fraction, 0.0, 1.0);
  const auto width = static_cast<std::size_t>(
      std::lround(clamped * static_cast<double>(max_width)));
  return std::string(width, '#');
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace fastfit
