// Tiny command-line option parser for benches and examples.
//
// Supports --key=value, --key value, and boolean --flag forms.  Unknown
// options are an error so typos in sweeps don't silently run defaults.
#pragma once

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace anow::util {

[[noreturn]] void bad_int(std::string_view what, std::string_view text);

/// Parses all of `text` as a decimal T: no leading blanks, no trailing
/// junk, no overflow.  Throws CheckError naming `what` otherwise.
template <typename T>
T parse_int(std::string_view text, std::string_view what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) bad_int(what, text);
  return value;
}

class Options {
 public:
  /// Parses argv; throws CheckError on malformed input.
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& default_value) const;
  /// get_string restricted to an allowed set (e.g. --engine {lrc,home});
  /// throws with the valid choices listed when the value is not one of them.
  std::string get_choice(const std::string& key,
                         const std::vector<std::string>& allowed,
                         const std::string& default_value) const;
  std::int64_t get_int(const std::string& key,
                       std::int64_t default_value) const;
  double get_double(const std::string& key, double default_value) const;
  bool get_bool(const std::string& key, bool default_value) const;

  /// Keys seen on the command line (for validation by the caller).
  const std::map<std::string, std::string>& raw() const { return values_; }

  /// Checks that every provided key is in the allowed set; throws otherwise.
  void allow_only(const std::vector<std::string>& keys) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace anow::util
