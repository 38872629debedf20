#include "dsm/config.hpp"

#include <algorithm>
#include <cstdlib>
#include <type_traits>

#include "util/check.hpp"
#include "util/options.hpp"

namespace anow::dsm {

namespace {

/// Parses `value` into the knob `Member` according to its type.
template <auto Member>
void assign(Knobs& knobs, std::string_view value, std::string_view what) {
  auto& field = knobs.*Member;
  using T = std::remove_cvref_t<decltype(field)>;
  if constexpr (std::is_enum_v<T>) {
    field = parse_enum<T>(value, what);
  } else if constexpr (std::is_same_v<T, int>) {
    field = util::parse_int<int>(value, what);
  } else {
    field = std::string(value);
  }
}

/// Every knob once: its option name, its environment variable (null for a
/// knob only the command line sets), and how to parse it.
struct KnobRow {
  std::string_view key;
  const char* env;
  void (*assign)(Knobs&, std::string_view, std::string_view);
};

constexpr KnobRow kKnobs[] = {
    // No environment variable: tests and benches assert virtual time and
    // other simulator-only behaviour, so a suite-wide backend switch could
    // only break them.
    {"backend", nullptr, &assign<&Knobs::backend>},
    {"engine", "ANOW_ENGINE", &assign<&Knobs::engine>},
    {"dir-shards", "ANOW_DIR_SHARDS", &assign<&Knobs::dir_shards>},
    {"placement", "ANOW_PLACEMENT", &assign<&Knobs::placement>},
    {"fanout", "ANOW_FANOUT", &assign<&Knobs::fanout>},
    {"race-check", "ANOW_RACE_CHECK", &assign<&Knobs::race_check>},
    {"trace", "ANOW_TRACE", &assign<&Knobs::trace_file>},
};

const Knobs& env_knobs() {
  static const Knobs knobs = [] {
    Knobs k = Knobs::builtin();
    for (const KnobRow& row : kKnobs) {
      if (row.env == nullptr) continue;
      const char* env = std::getenv(row.env);
      if (env != nullptr && *env != '\0') row.assign(k, env, row.env);
    }
    return k;
  }();
  return knobs;
}

}  // namespace

void bad_choice(std::string_view what, std::string_view text,
                std::span<const char* const> choices) {
  std::string list;
  for (const char* c : choices) {
    if (!list.empty()) list += ",";
    list += c;
  }
  ANOW_CHECK_MSG(false, what << " expects one of {" << list << "}, got '"
                             << text << "'");
}

std::string fanout_name(int fanout) {
  return fanout == kUnboundedFanout ? "unbounded" : std::to_string(fanout);
}

Knobs::Knobs() : Knobs(env_knobs()) {}

Knobs Knobs::builtin() { return Knobs(Builtin{}); }

void read_knobs(const util::Options& opts, Knobs& knobs,
                std::initializer_list<std::string_view> only) {
  for (const KnobRow& row : kKnobs) {
    if (only.size() != 0 &&
        std::find(only.begin(), only.end(), row.key) == only.end()) {
      continue;
    }
    const std::string key(row.key);
    if (opts.has(key)) {
      row.assign(knobs, opts.get_string(key, ""), "option --" + key);
    }
  }
}

}  // namespace anow::dsm
