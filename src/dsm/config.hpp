// DSM system configuration.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "dsm/types.hpp"

namespace anow::util {
class Options;
}  // namespace anow::util

namespace anow::dsm {

/// Which consistency engine runs the protocol (DESIGN.md §5/§6).
enum class EngineKind : std::uint8_t {
  /// TreadMarks-style lazy release consistency: writers archive diffs,
  /// faulting readers pull one diff per concurrent writer.
  kLrc,
  /// Home-based LRC: diffs are eagerly flushed to a per-page home at
  /// release points; writers keep no archives and faulting readers fetch
  /// one full page from the home.
  kHomeLrc,
};

/// Which execution backend drives the protocol (DESIGN.md §14).
enum class BackendKind : std::uint8_t {
  /// Discrete-event simulator: fibers, virtual time, modelled network.
  kSim,
  /// Real hardware: one pthread per DSM process, each with its own mmap'd
  /// heap (checked builds map invalid pages PROT_NONE), writes detected by
  /// their write_range declaration as under kSim, SPSC-ring transport,
  /// wall-clock time.  The consistency engines run unchanged; virtual cost modelling
  /// evaporates.
  kReal,
};

/// Adaptive placement (DESIGN.md §9): whether the runtime monitors writes
/// and migrates page homes at GC rounds.
enum class PlacementMode : std::uint8_t {
  /// Homes stay wherever first touch put them — byte-identical to the
  /// pre-placement protocol (no placement segment is ever sent, no
  /// monitoring work is done).
  kStatic,
  /// Under the home-based engine, the AccessMonitor aggregates per-page
  /// write records each epoch and the PlacementPolicy re-homes pages to
  /// their dominant writer; the moves ride the existing atomic GC commit
  /// round.  Under lrc, whose GC already hands pages to their last
  /// writers, it runs exactly the static path.
  kAdaptive,
};

/// LRC data-race detection (DESIGN.md §13).  The detector is a pure
/// observer riding the interval/vector-timestamp machinery: it never sends
/// a message, charges virtual time, or touches page data, so kWord is
/// byte-identical to kOff on the wire.
enum class RaceCheckMode : std::uint8_t {
  /// No detector is constructed; zero work on any path.
  kOff,
  /// Word-granularity (8-byte) happens-before checking: a DRF program with
  /// word-disjoint concurrent accesses reports nothing.
  kWord,
};

/// How pids are reassigned when processes leave (paper §5.4 lists "the
/// process id reassignment algorithm" among the cost factors; Figure 3 shows
/// why it matters).
enum class PidStrategy : std::uint8_t {
  /// Surviving processes keep their relative order; pids compact downwards.
  /// A middle leave therefore shifts every higher block by one slot
  /// (Figure 3(b): up to ~30% of the data space moves).
  kShift,
  /// The highest-pid process takes over the leaver's pid; all other pids are
  /// untouched.  A middle leave then moves only the leaver's block plus the
  /// relabelled last block.
  kSwapLast,
};

/// Control-plane fanout (DESIGN.md §12) under which every slave is a leaf
/// child of the master: the degenerate tree, whose collectives are exactly
/// the master-centric star.  Any fanout K below the team size minus one
/// gives the tree interior nodes that combine and multicast.
inline constexpr int kUnboundedFanout = std::numeric_limits<int>::max();

/// Spellings of an enum knob, indexed by enumerator value.
template <typename E>
struct EnumNames;
template <>
struct EnumNames<BackendKind> {
  static constexpr std::array<const char*, 2> kNames{"sim", "real"};
};
template <>
struct EnumNames<EngineKind> {
  static constexpr std::array<const char*, 2> kNames{"lrc", "home"};
};
template <>
struct EnumNames<PlacementMode> {
  static constexpr std::array<const char*, 2> kNames{"static", "adaptive"};
};
template <>
struct EnumNames<RaceCheckMode> {
  static constexpr std::array<const char*, 2> kNames{"off", "word"};
};

template <typename E>
const char* enum_name(E value) {
  return EnumNames<E>::kNames[static_cast<std::size_t>(value)];
}

[[noreturn]] void bad_choice(std::string_view what, std::string_view text,
                             std::span<const char* const> choices);

/// Parses one of EnumNames<E>; throws CheckError listing the choices.
/// `what` names the source of the text in the message (an option or an
/// environment variable).
template <typename E>
E parse_enum(std::string_view text, std::string_view what) {
  const auto& names = EnumNames<E>::kNames;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (text == names[i]) return static_cast<E>(i);
  }
  bad_choice(what, text, names);
}

/// Parses "sim" / "real"; throws on anything else.
inline BackendKind parse_backend_kind(const std::string& name) {
  return parse_enum<BackendKind>(name, "backend");
}

/// "unbounded" for kUnboundedFanout, else the number.
std::string fanout_name(int fanout);

/// The seven run-time knobs, declared once: DsmConfig and
/// harness::RunConfig both derive from this.  A default-constructed Knobs
/// holds the ANOW_* environment defaults (read once per process), so CI can
/// rerun the whole suite under any setting without touching a construction
/// site; a variable no knob names is ignored.  Every knob is also a
/// command-line option of the same name (read_knobs); `backend` is only
/// that.
struct Knobs {
  Knobs();

  /// --backend (DESIGN.md §14); no environment variable sets it, so the
  /// suite always runs on the simulator unless a test picks `real` itself.
  /// Under kReal, tracing, race checking and adaptation events are
  /// rejected at start (they ride simulator-only machinery).
  BackendKind backend = BackendKind::kSim;
  /// --engine / ANOW_ENGINE.
  EngineKind engine = EngineKind::kLrc;
  /// --dir-shards / ANOW_DIR_SHARDS (DESIGN.md §8): the heap's pages are
  /// dealt block-cyclically to the first `dir_shards` processes (uid ==
  /// shard index), each seeded with the initial valid copy of its pages,
  /// their default owner and home, and the target of every initial owner
  /// hint for them.  The master keeps the whole owner map either way.  1
  /// seeds the whole heap at the master.  Must be >= 1; clamped to nprocs
  /// at start().
  int dir_shards = 1;
  /// --placement / ANOW_PLACEMENT (DESIGN.md §9).
  PlacementMode placement = PlacementMode::kStatic;
  /// --fanout / ANOW_FANOUT (DESIGN.md §12): the control plane's K-ary
  /// tree, recomputed on every join/leave.  Must be >= 1; the unbounded
  /// default is flat routing.
  int fanout = kUnboundedFanout;
  /// --race-check / ANOW_RACE_CHECK (DESIGN.md §13).  Reports surface as
  /// obs.race.* stats and a "races" section of the trace JSON.
  RaceCheckMode race_check = RaceCheckMode::kOff;
  /// --trace / ANOW_TRACE: when non-empty, full event recording
  /// (DESIGN.md §11) and a Chrome trace-event JSON file written here after
  /// the run.
  std::string trace_file;

  /// The defaults written above, ignoring the environment.
  static Knobs builtin();

 private:
  struct Builtin {};
  explicit Knobs(Builtin /*unused*/) {}
};

/// Overrides `knobs` with every knob option present on the command line
/// (--backend, --engine, --dir-shards, --placement, --fanout, --race-check,
/// --trace), or only with those named in `only` when it is
/// non-empty (for a program that gives some of these names another
/// meaning); absent options keep their current value.  The values parse
/// exactly like their ANOW_* variables: an enum must be one of its
/// EnumNames and an integer must parse whole (its range is DsmSystem's to
/// check).  Throws CheckError otherwise.
void read_knobs(const util::Options& opts, Knobs& knobs,
                std::initializer_list<std::string_view> only = {});

struct DsmConfig : Knobs {
  /// Size of the global shared region; fixed for the lifetime of the system
  /// (TreadMarks pre-maps the shared heap).
  std::int64_t heap_bytes = 16ll << 20;

  /// Protocol for pages not covered by a protocol_override.
  Protocol default_protocol = Protocol::kMultiWriter;

  /// Run a garbage collection at the next barrier once any process's
  /// reported footprint exceeds this: its consistency data (twins + diffs
  /// + notices) plus, under lrc, one page per repeat write declaration on
  /// a page no one was served in between (DESIGN.md §5).
  std::int64_t gc_threshold_bytes = 8ll << 20;

  /// Size of the non-shared part of a process image (code, private heap,
  /// stack); enters migration and checkpoint costs.
  std::int64_t private_image_bytes = 4ll << 20;

  PidStrategy pid_strategy = PidStrategy::kShift;
};

}  // namespace anow::dsm
