#include "util/options.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anow::util {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    ANOW_CHECK_MSG(arg.rfind("--", 0) == 0,
                   "expected --option, got '" << arg << "'");
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool Options::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Options::get_string(const std::string& key,
                                const std::string& default_value) const {
  auto it = values_.find(key);
  return it == values_.end() ? default_value : it->second;
}

std::string Options::get_choice(const std::string& key,
                                const std::vector<std::string>& allowed,
                                const std::string& default_value) const {
  const std::string value = get_string(key, default_value);
  if (std::find(allowed.begin(), allowed.end(), value) != allowed.end()) {
    return value;
  }
  std::string choices;
  for (const auto& a : allowed) {
    if (!choices.empty()) choices += ",";
    choices += a;
  }
  ANOW_CHECK_MSG(false, "option --" << key << " expects one of {" << choices
                                    << "}, got '" << value << "'");
}

void bad_int(std::string_view what, std::string_view text) {
  ANOW_CHECK_MSG(false, what << " expects an integer, got '" << text << "'");
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  return parse_int<std::int64_t>(it->second, "option --" + key);
}

double Options::get_double(const std::string& key, double default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    ANOW_CHECK_MSG(false, "option --" << key << " expects a number, got '"
                                      << it->second << "'");
  }
}

bool Options::get_bool(const std::string& key, bool default_value) const {
  auto it = values_.find(key);
  if (it == values_.end()) return default_value;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  ANOW_CHECK_MSG(false, "option --" << key << " expects a boolean, got '" << v
                                    << "'");
}

void Options::allow_only(const std::vector<std::string>& keys) const {
  for (const auto& [key, value] : values_) {
    (void)value;
    ANOW_CHECK_MSG(std::find(keys.begin(), keys.end(), key) != keys.end(),
                   "unknown option --" << key);
  }
}

}  // namespace anow::util
