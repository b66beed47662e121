#pragma once

// Small text-formatting helpers shared by reports and benches.

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fastfit {

/// Joins items with a separator using operator<<.
template <typename T>
std::string join(const std::vector<T>& items, const std::string& sep) {
  std::ostringstream out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out << sep;
    out << items[i];
  }
  return out.str();
}

/// Formats a fraction as a fixed-precision percentage, e.g. 0.9724 -> "97.24%".
std::string percent(double fraction, int decimals = 2);

/// Left-pads text to a column width (for plain-text tables).
std::string pad(const std::string& text, std::size_t width);

/// Renders a simple horizontal ASCII bar of proportional length.
std::string ascii_bar(double fraction, std::size_t max_width = 40);

/// Escapes `text` for a JSON string literal (no quotes): `"`, `\\`, `\n`
/// and `\t` get their short escapes, every other control character
/// `\u00XX`. The journal, shard fragments, reports and telemetry exports
/// all write through it; the journal and fragment readers decode each of
/// these escapes.
std::string json_escape(std::string_view text);

}  // namespace fastfit
