//===- SlowQuery.cpp - Tail-sampled slow-query recorder --------------------===//

#include "obs/SlowQuery.h"

#include "obs/Metrics.h"

#include <chrono>
#include <sstream>

using namespace xsa;

SlowQueryLog &SlowQueryLog::global() {
  static SlowQueryLog L;
  return L;
}

void SlowQueryLog::configure(const Options &O) {
  std::lock_guard<std::mutex> Lock(Mu);
  Opts = O;
  ThresholdMsA.store(O.ThresholdMs, std::memory_order_relaxed);
  while (Ring.size() > Opts.Capacity)
    Ring.pop_front();
}

size_t SlowQueryLog::capacity() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Opts.Capacity;
}

void SlowQueryLog::record(SlowQueryRecord R) {
  static Counter &Total = MetricRegistry::global().counter(
      "xsa_server_slow_queries_total",
      "Requests captured by the tail-sampled slow-query recorder",
      /*Volatile=*/true);
  Total.add();
  Recorded.fetch_add(1, std::memory_order_relaxed);
  R.UnixMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::lock_guard<std::mutex> Lock(Mu);
  R.Seq = NextSeq++;
  Ring.push_back(std::move(R));
  while (Ring.size() > Opts.Capacity)
    Ring.pop_front();
}

std::vector<SlowQueryRecord> SlowQueryLog::snapshot(size_t MaxRecords) const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = Ring.size();
  if (MaxRecords && MaxRecords < N)
    N = MaxRecords;
  std::vector<SlowQueryRecord> Out;
  Out.reserve(N);
  for (size_t I = Ring.size() - N; I < Ring.size(); ++I)
    Out.push_back(Ring[I]);
  return Out;
}

void SlowQueryLog::clearForTest() {
  std::lock_guard<std::mutex> Lock(Mu);
  Ring.clear();
  NextSeq = 1;
  Recorded.store(0, std::memory_order_relaxed);
}

JsonRef SlowQueryLog::toJson(const SlowQueryRecord &R) {
  JsonRef O = JsonValue::object();
  O->set("seq", JsonValue::number(static_cast<double>(R.Seq)));
  O->set("unix_ms", JsonValue::number(static_cast<double>(R.UnixMs)));
  O->set("rid", JsonValue::string(R.RequestId));
  if (!R.ClientId.empty())
    O->set("id", JsonValue::string(R.ClientId));
  O->set("ns", JsonValue::string(R.Ns));
  O->set("op", JsonValue::string(R.Op));
  O->set("ok", JsonValue::boolean(R.Ok));
  if (!R.Code.empty())
    O->set("code", JsonValue::string(R.Code));
  O->set("priority", JsonValue::number(R.Priority));
  O->set("conn", JsonValue::number(static_cast<double>(R.ConnId)));
  O->set("cache", JsonValue::string(R.FromCache ? "hit" : "miss"));
  O->set("queue_wait_ms", JsonValue::number(R.QueueWaitMs));
  O->set("total_ms", JsonValue::number(R.TotalMs));
  JsonRef Stages = JsonValue::object();
  for (const auto &[Name, Ms] : R.StageMs)
    Stages->set(Name, JsonValue::number(Ms));
  O->set("stages", Stages);
  // Reproduction payload: the admitted request (re-parsed so it embeds
  // as an object, not a quoted string) and the effective config it ran
  // under. `xsolve replay` consumes exactly these two fields.
  std::string Err;
  if (JsonRef Req = parseJson(R.RequestJson, Err)) {
    O->set("request", Req);
    JsonRef Cfg = JsonValue::object();
    echoRequestConfig(R.Config, *Cfg);
    O->set("config", Cfg);
  }
  return O;
}

namespace {

/// Collects slowlog record objects from any of the shapes `xsolve
/// replay` accepts: one record object, a /slowlog dump object (its
/// "entries" array, or "records" for hand-built input), or a bare array
/// of either.
void collectSlowlogRecords(const JsonRef &V, std::vector<JsonRef> &Out) {
  if (V->type() == JsonValue::Type::Array) {
    for (const JsonRef &E : V->items())
      collectSlowlogRecords(E, Out);
    return;
  }
  if (V->type() != JsonValue::Type::Object)
    return;
  for (const char *Key : {"entries", "records"}) {
    JsonRef Recs = V->get(Key);
    if (Recs->type() == JsonValue::Type::Array) {
      collectSlowlogRecords(Recs, Out);
      return;
    }
  }
  Out.push_back(V);
}

} // namespace

bool xsa::slowlogToBatch(const std::string &Text, std::string &BatchText,
                         size_t &Skipped, std::string &Error) {
  Skipped = 0;
  std::vector<JsonRef> Parsed;
  std::string ParseError;
  if (JsonRef Root = parseJson(Text, ParseError)) {
    Parsed.push_back(Root);
  } else {
    // Not one document — try JSON-lines (e.g. concatenated records).
    std::istringstream In(Text);
    std::string Line;
    size_t LineNo = 0;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.find_first_not_of(" \t\r") == std::string::npos)
        continue;
      std::string LineError;
      JsonRef V = parseJson(Line, LineError);
      if (!V) {
        Error = "line " + std::to_string(LineNo) + ": " + LineError;
        return false;
      }
      Parsed.push_back(V);
    }
    if (Parsed.empty()) {
      Error = ParseError;
      return false;
    }
  }

  std::vector<JsonRef> Records;
  for (const JsonRef &V : Parsed)
    collectSlowlogRecords(V, Records);
  if (Records.empty()) {
    Error = "no slowlog records in input";
    return false;
  }

  std::string LastConfig;
  for (const JsonRef &R : Records) {
    JsonRef Req = R->get("request");
    if (Req->type() != JsonValue::Type::Object) {
      // Records captured before request payloads were recorded (or
      // hand-trimmed dumps) cannot be replayed; the caller says so
      // rather than silently shrinking the batch.
      ++Skipped;
      continue;
    }
    JsonRef Cfg = R->get("config");
    if (Cfg->type() == JsonValue::Type::Object) {
      JsonRef Known = JsonValue::object();
      for (const char *Key : RequestConfigKeys)
        Known->set(Key, Cfg->get(Key));
      RequestConfig Config;
      ConfigRejection Rej;
      if (!readRequestConfig(*Known, {}, Config, Rej)) {
        Error = "recorded config: " + Rej.Message;
        return false;
      }
      JsonRef Line = JsonValue::object();
      Line->set("op", JsonValue::string("config"));
      echoRequestConfig(Config, *Line);
      std::string Dumped = Line->dump();
      if (Dumped != LastConfig) {
        BatchText += Dumped;
        BatchText += '\n';
        LastConfig = Dumped;
      }
    }
    // The admitted request verbatim, minus fields only the server's
    // admission queue interprets.
    JsonRef Clean = JsonValue::object();
    for (const auto &[Key, Val] : Req->members())
      if (Key != "priority" && Key != "deadline_ms")
        Clean->set(Key, Val);
    BatchText += Clean->dump();
    BatchText += '\n';
  }
  if (BatchText.empty()) {
    Error = "no replayable records (none carry a request payload)";
    return false;
  }
  return true;
}
