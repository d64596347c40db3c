#include "util/strings.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace edgstr::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string replace_all(std::string_view text, std::string_view from, std::string_view to) {
  if (from.empty()) return std::string(text);
  std::string out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(from, start);
    if (pos == std::string_view::npos) {
      out += text.substr(start);
      return out;
    }
    out += text.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  // from_chars on an unsigned type takes digits only: no sign, no spaces.
  if (text.empty()) return false;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

std::string format_bytes(double bytes) {
  static constexpr std::array<const char*, 5> kUnits = {"B", "KB", "MB", "GB", "TB"};
  std::size_t unit = 0;
  while (bytes >= 1024.0 && unit + 1 < kUnits.size()) {
    bytes /= 1024.0;
    ++unit;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, kUnits[unit]);
  return buf;
}

std::string format_double(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  std::string out = buf;
  if (out.find('.') != std::string::npos) {
    while (!out.empty() && out.back() == '0') out.pop_back();
    if (!out.empty() && out.back() == '.') out.pop_back();
  }
  return out;
}

}  // namespace edgstr::util
