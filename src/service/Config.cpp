//===- Config.cpp - Per-request solver configuration -----------------------===//

#include "service/Config.h"

#include "service/Batch.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

using namespace xsa;

JsonRef ConfigRejection::toJson(const std::string &Id, size_t Line) const {
  JsonRef O = JsonValue::object();
  if (!Id.empty())
    O->set("id", JsonValue::string(Id));
  O->set("ok", JsonValue::boolean(false));
  JsonRef E = errorObjectJson(Code, Message, Line);
  E->set("key", JsonValue::string(Key));
  if (!Value.empty())
    E->set("value", JsonValue::string(Value));
  O->set("error", E);
  return O;
}

bool xsa::readRequestConfig(const JsonValue &Obj,
                            std::initializer_list<const char *> FrontEndKeys,
                            RequestConfig &Config, ConfigRejection &Rej) {
  // Unknown keys are rejected rather than ignored: a misspelled switch
  // ("share_fixpoint") must not read as an applied one.
  for (const auto &[K, V] : Obj.members()) {
    auto Listed = [&K](const auto &Keys) {
      return std::find(Keys.begin(), Keys.end(), K) != Keys.end();
    };
    if (K != "op" && K != "id" && !Listed(FrontEndKeys) &&
        !Listed(RequestConfigKeys)) {
      Rej = {"unknown_config_key", K, "", "unknown config key '" + K + "'"};
      return false;
    }
  }

  RequestConfig Next = Config;
  for (auto [Key, Field] : {std::pair{"optimize", &RequestConfig::Optimize},
                            std::pair{"share_fixpoints",
                                      &RequestConfig::ShareFixpoints}}) {
    JsonRef V = Obj.get(Key);
    if (V->isNull())
      continue;
    if (V->type() != JsonValue::Type::Bool) {
      Rej = {"invalid_config_value", Key, V->dump(),
             std::string(Key) + " must be a boolean"};
      return false;
    }
    Next.*Field = V->asBool();
  }
  // A typo ("chainning") must not silently leave the previous strategy
  // in force.
  JsonRef Strat = Obj.get("fixpoint_strategy");
  if (!Strat->isNull()) {
    bool IsString = Strat->type() == JsonValue::Type::String;
    if (!IsString || !parseFixpointStrategy(Strat->asString(), Next.Strategy)) {
      std::string Given = IsString ? Strat->asString() : Strat->dump();
      Rej = {"invalid_config_value", "fixpoint_strategy", Given,
             "invalid fixpoint_strategy '" + Given +
                 "' (expected bfs, chaining, saturation or auto)"};
      return false;
    }
  }
  Config = Next;
  return true;
}

void xsa::echoRequestConfig(const RequestConfig &C, JsonValue &Out) {
  Out.set("optimize", JsonValue::boolean(C.Optimize));
  Out.set("share_fixpoints", JsonValue::boolean(C.ShareFixpoints));
  Out.set("fixpoint_strategy",
          JsonValue::string(fixpointStrategyName(C.Strategy)));
}

bool xsa::parseRequestConfigFlag(int Argc, char **Argv, int &I,
                                 RequestConfig &Config, std::string &Error) {
  std::string Arg = Argv[I];
  if (Arg == "--optimize") {
    Config.Optimize = true;
  } else if (Arg == "--share-fixpoints") {
    Config.ShareFixpoints = true;
  } else if (Arg == "--fixpoint-strategy" && I + 1 < Argc) {
    if (!parseFixpointStrategy(Argv[++I], Config.Strategy))
      Error = std::string("--fixpoint-strategy needs one of bfs, chaining, "
                          "saturation, auto (got ") +
              Argv[I] + ")";
  } else {
    return false;
  }
  return true;
}

bool xsa::parseIntegerFlag(const char *Text, long Min, long Max, long &Out) {
  char *End = nullptr;
  errno = 0;
  long N = std::strtol(Text, &End, 10);
  if (End == Text || *End != '\0' || errno == ERANGE || N < Min || N > Max)
    return false;
  Out = N;
  return true;
}
