//===- Config.h - Per-request solver configuration ---------------*- C++ -*-===//
//
// Part of the xsa project (PLDI 2007 XPath/type analysis reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three user-settable knobs a decision request runs under, as one
/// value, with the one JSON reader, echo and CLI flag parser shared by
/// `xsolve batch`, `xsolved` (config lines and namespaces), the slowlog
/// `config` object and `xsolve replay`. Cache-key roles: Strategy is in
/// solverOptionsKey (as configured) and fixpointOptionsKey (as
/// resolved); Optimize and ShareFixpoints are in neither — the pre-pass
/// only changes which formula reaches the cache, and fixpoint replay is
/// output-invisible.
///
//===----------------------------------------------------------------------===//

#ifndef XSA_SERVICE_CONFIG_H
#define XSA_SERVICE_CONFIG_H

#include "service/Json.h"
#include "solver/BddSolver.h"

#include <array>
#include <initializer_list>
#include <string>

namespace xsa {

/// Mirrors SessionOptions::Optimize, SessionOptions::ShareFixpoints and
/// SolverOptions::Strategy (see SessionOptions::config()).
struct RequestConfig {
  bool Optimize = false;
  bool ShareFixpoints = false;
  FixpointStrategy Strategy = FixpointStrategy::Bfs;

  bool operator==(const RequestConfig &) const = default;
};

/// The JSON keys of a RequestConfig, in echo order: what a config line
/// may set, what the slowlog records and what replay copies.
inline constexpr std::array<const char *, 3> RequestConfigKeys = {
    "optimize", "share_fixpoints", "fixpoint_strategy"};

/// Why a config line was refused.
struct ConfigRejection {
  std::string Code; ///< "unknown_config_key" or "invalid_config_value"
  std::string Key;
  std::string Value; ///< the offending value as text ("" = none)
  std::string Message;

  /// As a response line; \p Line (when nonzero) is the batch input line.
  JsonRef toJson(const std::string &Id, size_t Line = 0) const;
};

/// Reads the RequestConfigKeys of a {"op":"config"} object into
/// \p Config. \p FrontEndKeys lists the further keys the calling front
/// end handles itself ("op" and "id" are always allowed). Every member
/// is checked before anything changes: on an unknown key or a bad value
/// it returns false with \p Rej set and \p Config untouched; otherwise
/// it overwrites exactly the keys present (a JSON null counts as absent).
bool readRequestConfig(const JsonValue &Obj,
                       std::initializer_list<const char *> FrontEndKeys,
                       RequestConfig &Config, ConfigRejection &Rej);

/// Sets the RequestConfigKeys of \p Out to the values of \p C.
void echoRequestConfig(const RequestConfig &C, JsonValue &Out);

/// Usage lines for the flags parseRequestConfigFlag takes.
inline constexpr const char *RequestConfigFlagsUsage =
    "  --optimize      solver-verified query rewriting before analysis\n"
    "  --share-fixpoints  replay fixpoint iterates across requests\n"
    "  --fixpoint-strategy S  bfs (default), chaining, saturation, auto\n";

/// The CLI form: when argv[I] is --optimize, --share-fixpoints or
/// --fixpoint-strategy S, applies it to \p Config (advancing \p I past
/// S) and returns true, with \p Error set if S is not a strategy name.
/// Returns false for any other argument.
bool parseRequestConfigFlag(int Argc, char **Argv, int &I,
                            RequestConfig &Config, std::string &Error);

/// Parses \p Text as a whole decimal integer in [Min, Max] — the
/// check behind every integer-valued CLI flag.
bool parseIntegerFlag(const char *Text, long Min, long Max, long &Out);

} // namespace xsa

#endif // XSA_SERVICE_CONFIG_H
