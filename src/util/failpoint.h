// librock — util/failpoint.h
//
// Deterministic fault injection for the disk pipeline. Named failpoint
// *sites* are compiled into I/O code paths (e.g. "store.read",
// "store.append", "model.save", "pipeline.checkpoint"); a *schedule*
// configured from the ROCK_FAILPOINTS environment variable or
// RockOptions::failpoints decides which hit of which site misbehaves, and
// how:
//
//   schedule   := entry (';' entry)*
//   entry      := site '=' trigger ':' action
//   trigger    := 'fire_on_hit_' N        — fire on the Nth hit (1-based),
//                                           exactly once
//               | 'fire_every_' N         — fire on every Nth hit
//   action     := 'error'                 — transient Status::IOError
//               | 'short_read'            — Status::Corruption, as a
//                                           truncated file would produce
//               | 'torn_write'            — write a prefix of the payload,
//                                           then fail with IOError
//               | 'crash'                 — non-retryable Status::Internal
//                                           simulating process death
//
//   e.g. ROCK_FAILPOINTS="store.read=fire_on_hit_100:error;
//                         pipeline.checkpoint=fire_on_hit_2:torn_write"
//
// Hit counting is per-site and global to the process, guarded by a mutex,
// so schedules are deterministic for serial scans and per-site-total
// deterministic for parallel ones. When the build compiles failpoints out
// (-DROCK_FAILPOINTS=OFF), Consult() is a constexpr no-op and every site
// check folds away; Configure() then rejects non-empty schedules so a user
// asking for faults in a release binary gets an error, not silence.

#ifndef ROCK_UTIL_FAILPOINT_H_
#define ROCK_UTIL_FAILPOINT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rock::fail {

/// What an armed failpoint site does when its trigger fires.
enum class Action : uint8_t {
  kNone = 0,    ///< site not armed / trigger did not fire
  kError,       ///< inject a transient IOError (retry-eligible)
  kShortRead,   ///< inject Corruption, as a short read would surface
  kTornWrite,   ///< persist a torn prefix of the write, then IOError
  kCrash,       ///< inject a non-retryable Internal "process died" error
};

/// The transient error Consult()-ing code injects for kError / kTornWrite.
Status InjectedError(std::string_view site);

/// The fatal error injected for kCrash. Carries kCrashMarker so callers
/// (and tests) can tell a simulated crash from a real Internal error.
Status InjectedCrash(std::string_view site);

/// Message marker present in every InjectedCrash status.
inline constexpr std::string_view kCrashMarker = "injected crash";

/// True if `status` came from InjectedCrash (a simulated process death).
bool IsInjectedCrash(const Status& status);

#ifdef ROCK_FAILPOINTS_ENABLED

/// Replaces the process-wide schedule with `spec` (the grammar above).
/// An empty spec disarms everything. Hit counters reset.
Status Configure(std::string_view spec);

/// Disarms all sites and resets hit counters.
void Clear();

/// Counts one hit of `site` and returns the action to take (kNone almost
/// always). Unconfigured processes pay one relaxed atomic load.
Action Consult(std::string_view site);

/// Times `site` fired so far (for fault.* metrics and tests).
uint64_t FiredCount(std::string_view site);

/// Times `site` was hit so far.
uint64_t HitCount(std::string_view site);

/// Snapshot of fired counts for every site that fired at least once,
/// keyed by site name — exported as fault.fired.<site> metrics.
std::map<std::string, uint64_t> FiredSnapshot();

/// True when this build can inject faults.
inline constexpr bool BuildEnabled() { return true; }

#else  // !ROCK_FAILPOINTS_ENABLED — everything folds to nothing.

inline Status Configure(std::string_view spec) {
  if (!spec.empty()) {
    return Status::FailedPrecondition(
        "failpoints are compiled out of this build (ROCK_FAILPOINTS=OFF)");
  }
  return Status::OK();
}
inline void Clear() {}
inline constexpr Action Consult(std::string_view) { return Action::kNone; }
inline constexpr uint64_t FiredCount(std::string_view) { return 0; }
inline constexpr uint64_t HitCount(std::string_view) { return 0; }
inline std::map<std::string, uint64_t> FiredSnapshot() { return {}; }
inline constexpr bool BuildEnabled() { return false; }

#endif  // ROCK_FAILPOINTS_ENABLED

/// Applies the ROCK_FAILPOINTS environment variable (if set and non-empty)
/// to the process-wide schedule. Called once by the CLI entry point; tests
/// call Configure() directly.
Status ConfigureFromEnv();

/// Read-path site check: returns OK when idle, the injected status when the
/// site fires. short_read surfaces as Corruption — exactly what a truncated
/// file produces — while error stays a transient IOError. Folds to an OK
/// constant when failpoints are compiled out.
inline Status ConsultRead(std::string_view site) {
  switch (Consult(site)) {
    case Action::kNone:
      return Status::OK();
    case Action::kShortRead:
      return Status::Corruption("injected short read at '" +
                                std::string(site) + "'");
    case Action::kCrash:
      return InjectedCrash(site);
    case Action::kError:
    case Action::kTornWrite:
      return InjectedError(site);
  }
  return Status::OK();
}

/// Write-path site check for an `n`-byte write of `data` to `f`: returns OK
/// when idle; on torn_write it persists a prefix of the payload (the torn
/// bytes a crashed writer would leave behind) and reports IOError; crash
/// writes nothing and reports the non-retryable injected crash. Folds to an
/// OK constant when failpoints are compiled out.
inline Status ConsultWrite(std::string_view site, std::FILE* f,
                           const void* data, size_t n) {
  switch (Consult(site)) {
    case Action::kNone:
      return Status::OK();
    case Action::kTornWrite:
      if (n > 0) {
        std::fwrite(data, 1, n / 2, f);
        std::fflush(f);
      }
      return InjectedError(site);
    case Action::kCrash:
      return InjectedCrash(site);
    case Action::kError:
    case Action::kShortRead:
      return InjectedError(site);
  }
  return Status::OK();
}

}  // namespace rock::fail

#endif  // ROCK_UTIL_FAILPOINT_H_
