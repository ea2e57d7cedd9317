// Small string utilities shared by parsers and the simulator.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace eid::util {

/// Split on a single-character delimiter; empty fields are preserved.
std::vector<std::string_view> split(std::string_view text, char delim);

/// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// ASCII lower-casing (domain names and UA comparisons are case-insensitive).
std::string to_lower(std::string_view text);

/// Join pieces with a separator.
std::string join(const std::vector<std::string>& pieces, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);

}  // namespace eid::util
