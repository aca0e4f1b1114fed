//===- loadgen.cpp - Closed-loop load generator for xsolved ---------------===//
//
//   perfbench_loadgen --xsolved PATH --workdir DIR --workload W
//                     --seed N --seconds S --trace 0|1
//
// Starts the real xsolved binary (--tcp 0 --port-file), drives it from
// closed-loop clients over LineClient connections (one thread and one
// connection per client, at most nproc of each), checks every response
// (check.h) and prints, as its last stdout line, one JSON object:
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// With --trace 0 the metrics are the end-to-end ones: client-timed
// latencies, wall time, and the daemon's CPU and VmHWM read from
// /proc/<pid>. With --trace 1 the same inputs are run again and the
// metrics are per layer: the response "stages" breakdown, the daemon's
// {"op":"metrics"} and {"op":"stats"} counters (read only after the last
// response has arrived — a stats op pipelined behind analysis requests
// reports the session before they ran), and client-side request spans,
// which are kept in memory and written to DIR/trace-<workload>-<seed>.json
// when the run ends.
//
// A run is a fixed number of requests derived from --seconds, never a
// fixed duration, so memory and per-request costs are compared like for
// like between runs. See README.md for the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "check.h"
#include "inputs.h"

#include "server/Client.h"
#include "service/Json.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

struct Options {
  std::string Xsolved, WorkDir, Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
};

// --- Measurements taken from outside the daemon ---------------------------

/// User+system CPU seconds of process \p Pid, all threads.
double procCpuSeconds(pid_t Pid) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(F, Line);
  size_t Paren = Line.rfind(')');
  if (Paren == std::string::npos)
    return 0;
  std::istringstream In(Line.substr(Paren + 1));
  std::string Tok;
  unsigned long long Ticks = 0;
  // Fields after the command name start at 3; utime is 14, stime 15.
  for (int Field = 3; Field <= 15 && In >> Tok; ++Field)
    if (Field >= 14)
      Ticks += std::stoull(Tok);
  return static_cast<double>(Ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A kB line ("VmHWM", "VmRSS") of /proc/<pid>/status.
double procStatusKb(pid_t Pid, const std::string &Key) {
  std::ifstream F("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.compare(0, Key.size() + 1, Key + ":") == 0)
      return std::atof(Line.c_str() + Key.size() + 1);
  return 0;
}

/// Host-wide steal ticks: the eighth value of /proc/stat's "cpu" line.
long long stealTicks() {
  std::ifstream F("/proc/stat");
  std::string Cpu;
  long long V[8] = {};
  F >> Cpu;
  for (long long &X : V)
    F >> X;
  return V[7];
}

double selfCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

// --- The daemon under test ------------------------------------------------

bool roundTrip(xsa::LineClient &C, const std::string &Line, std::string &Resp) {
  return C.sendLine(Line) && C.recvLine(Resp);
}

class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Launches xsolved with \p Flags and waits until it answers a ping.
  bool start(const Options &O, const std::vector<std::string> &Flags,
             std::string &Error) {
    std::string PortFile = O.WorkDir + "/xsolved.port";
    std::string LogFile = O.WorkDir + "/xsolved.log";
    unlink(PortFile.c_str());
    std::vector<std::string> Args = {O.Xsolved,     "--tcp",
                                     "0",           "--port-file",
                                     PortFile,      "--log-level",
                                     "error"};
    Args.insert(Args.end(), Flags.begin(), Flags.end());
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);

    Launched = Clock::now();
    Pid = fork();
    if (Pid < 0) {
      Error = "fork failed";
      return false;
    }
    if (Pid == 0) {
      // The daemon must not outlive the generator, however it ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      int Null = open("/dev/null", O_RDWR);
      int Log = open(LogFile.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      dup2(Null, 0);
      dup2(Null, 1);
      dup2(Log >= 0 ? Log : Null, 2);
      execv(Argv[0], Argv.data());
      _exit(127);
    }
    for (;;) {
      int Status = 0;
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Error = "xsolved exited during start-up (see " + LogFile + ")";
        return false;
      }
      std::ifstream PF(PortFile);
      std::string Text;
      if (std::getline(PF, Text) && !PF.eof() && !Text.empty()) {
        Port = std::atoi(Text.c_str());
        break;
      }
      if (secondsBetween(Launched, Clock::now()) > 60) {
        Error = "xsolved did not report its port";
        return false;
      }
      usleep(200);
    }
    xsa::LineClient C;
    std::string Resp;
    if (!C.connectTcp("127.0.0.1", Port, Error) ||
        !roundTrip(C, "{\"op\":\"ping\"}", Resp)) {
      Error = "xsolved does not answer a ping: " + Error;
      return false;
    }
    ReadyS = secondsBetween(Launched, Clock::now());
    return true;
  }

  /// SIGTERM (graceful drain), then SIGKILL after 20 s; always reaps.
  void stop() {
    if (Pid <= 0)
      return;
    kill(Pid, SIGTERM);
    auto T0 = Clock::now();
    int Status = 0;
    while (waitpid(Pid, &Status, WNOHANG) != Pid) {
      if (secondsBetween(T0, Clock::now()) > 20) {
        kill(Pid, SIGKILL);
        waitpid(Pid, &Status, 0);
        break;
      }
      usleep(1000);
    }
    Pid = -1;
  }

  pid_t pid() const { return Pid; }
  int port() const { return Port; }
  Clock::time_point launched() const { return Launched; }
  double ReadyS = 0; ///< launch until the first ping was answered

private:
  pid_t Pid = -1;
  int Port = 0;
  Clock::time_point Launched;
};

/// One introspection op on a connection of its own.
xsa::JsonRef controlOp(const Daemon &D, const std::string &Line) {
  xsa::LineClient C;
  std::string Error, Resp;
  if (!C.connectTcp("127.0.0.1", D.port(), Error) || !roundTrip(C, Line, Resp))
    return xsa::JsonValue::null();
  xsa::JsonRef J = xsa::parseJson(Resp, Error);
  return J ? J : xsa::JsonValue::null();
}

/// The daemon's counters the per-layer metrics are deltas of, by name.
using Counters = std::map<std::string, double>;

Counters readCounters(const Daemon &D) {
  Counters C;
  xsa::JsonRef M = controlOp(D, "{\"op\":\"metrics\"}");
  // Labelled series ({backend="serial"}, ...) are summed per family.
  for (const char *Section : {"counters", "gauges"})
    for (const auto &[Name, Val] : M->get(Section)->members())
      C[Name.substr(0, Name.find('{'))] += Val->asNumber();
  xsa::JsonRef QW = M->get("histograms")->get("xsa_server_queue_wait_ms");
  C["queue_wait_sum"] = QW->get("sum")->asNumber();
  C["queue_wait_count"] = QW->get("count")->asNumber();
  xsa::JsonRef S = controlOp(D, "{\"op\":\"stats\"}")->get("stats");
  C["cache_hits"] = S->get("cache")->get("hits")->asNumber();
  C["cache_misses"] = S->get("cache")->get("misses")->asNumber();
  C["solves"] = S->get("solves")->asNumber();
  C["rss_kb"] = procStatusKb(D.pid(), "VmRSS");
  return C;
}

/// \p Into += \p A - \p B, counter by counter.
void addDelta(Counters &Into, const Counters &A, const Counters &B) {
  for (const auto &[Name, V] : A) {
    auto It = B.find(Name);
    Into[Name] += V - (It == B.end() ? 0 : It->second);
  }
}

double counter(const Counters &C, const std::string &Name) {
  auto It = C.find(Name);
  return It == C.end() ? 0 : It->second;
}

// --- Closed-loop clients ----------------------------------------------------

struct Sample {
  uint32_t Index = 0; ///< position in the phase's request list
  uint32_t Client = 0;
  double SendS = 0, RecvS = 0; ///< since the phase started
  std::string Resp;
};

struct Phase {
  std::vector<Sample> Samples;
  double WallS = 0, DaemonCpuS = 0, ClientCpuS = 0;
  long long Steal = 0;
  std::string Error;
};

/// Sends \p Lines from \p Clients closed-loop clients (client k sends
/// lines k, k+Clients, ...; one request outstanding per client), client 0
/// on the calling thread. \p After, when set, runs on the client's thread
/// after each response, outside the timed span.
Phase runClosedLoop(const Daemon &D, const std::vector<std::string> &Lines,
                    unsigned Clients,
                    const std::function<void(size_t)> &After = nullptr) {
  Phase Ph;
  std::vector<xsa::LineClient> Conns(Clients);
  for (xsa::LineClient &C : Conns)
    if (!C.connectTcp("127.0.0.1", D.port(), Ph.Error))
      return Ph;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Go = false;
  Clock::time_point T0;
  std::vector<std::vector<Sample>> PerClient(Clients);

  auto Client = [&](unsigned K) {
    {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait(L, [&] { return Go; });
    }
    std::vector<Sample> &Out = PerClient[K];
    Out.reserve(Lines.size() / Clients + 1);
    for (size_t I = K; I < Lines.size(); I += Clients) {
      Sample S;
      S.Index = static_cast<uint32_t>(I);
      S.Client = K;
      S.SendS = secondsBetween(T0, Clock::now());
      if (!roundTrip(Conns[K], Lines[I], S.Resp)) {
        std::lock_guard<std::mutex> L(Mu);
        Ph.Error = "connection closed by xsolved";
        return;
      }
      S.RecvS = secondsBetween(T0, Clock::now());
      Out.push_back(std::move(S));
      if (After)
        After(I);
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned K = 1; K < Clients; ++K)
    Threads.emplace_back(Client, K);
  double Cpu0, Self0;
  long long Steal0;
  {
    std::lock_guard<std::mutex> L(Mu);
    Cpu0 = procCpuSeconds(D.pid());
    Self0 = selfCpuSeconds();
    Steal0 = stealTicks();
    T0 = Clock::now();
    Go = true;
  }
  Cv.notify_all();
  Client(0);
  for (std::thread &T : Threads)
    T.join();
  Ph.WallS = secondsBetween(T0, Clock::now());
  Ph.DaemonCpuS = procCpuSeconds(D.pid()) - Cpu0;
  Ph.ClientCpuS = selfCpuSeconds() - Self0;
  Ph.Steal = stealTicks() - Steal0;
  for (auto &V : PerClient)
    for (Sample &S : V)
      Ph.Samples.push_back(std::move(S));
  return Ph;
}

// --- Response accounting ----------------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Per-layer figures gathered from responses.
struct Replies {
  size_t N = 0, Misses = 0;
  std::map<std::string, double> StageSum; ///< stage name → total ms
  std::vector<double> RequestMs, OverheadMs;
  double LeanSum = 0, RoundsSum = 0, ReplayedSum = 0, SolveSelfSum = 0;

  void add(const xsa::JsonValue &R, double LatencyMs) {
    ++N;
    xsa::JsonRef St = R.get("stages");
    auto Stage = [&](const char *Name) { return St->get(Name)->asNumber(); };
    for (const auto &[Name, Ms] : St->members())
      StageSum[Name] += Ms->asNumber();
    if (St->has("request")) {
      RequestMs.push_back(Stage("request"));
      OverheadMs.push_back(LatencyMs - Stage("request"));
    }
    if (St->has("solver.solve"))
      // The direct children of solver.solve; what is left is manager
      // teardown and the glue between stages.
      SolveSelfSum += Stage("solver.solve") - Stage("solver.lean") -
                      Stage("solver.chi") - Stage("fixstore.probe") -
                      Stage("solver.fixpoint") - Stage("solver.publish") -
                      Stage("solver.extract");
    if (R.str("cache") == "miss") {
      ++Misses;
      LeanSum += R.get("lean")->asNumber();
      RoundsSum += R.get("iterations")->asNumber();
      ReplayedSum += R.get("iterations_replayed")->asNumber();
    }
  }
  double total(const char *Stage) const {
    auto It = StageSum.find(Stage);
    return It == StageSum.end() ? 0 : It->second;
  }
  double mean(const char *Stage) const {
    return N ? total(Stage) / static_cast<double>(N) : 0;
  }
};

struct Result {
  uint64_t Attempted = 0, Failed = 0, Mismatches = 0;
  std::vector<std::string> Notes; ///< the first mismatches and failures
  using Metric = std::tuple<std::string, double, std::string>;
  std::vector<Metric> Metrics; ///< what the run reports
  std::vector<Metric> Figures; ///< printed only
  long long Steal = 0;
  double ClientCpuS = 0;
  std::string Error; ///< the run could not be carried out

  void metric(const std::string &Name, double V, const std::string &Unit) {
    Metrics.emplace_back(Name, V, Unit);
  }
  void note(const std::string &S) {
    if (Notes.size() < 10)
      Notes.push_back(S);
  }
};

/// Checks every sample of \p Ph against \p Problems (indexed like the
/// phase's lines), adds it to \p Into when given, and drops the response
/// text.
void account(Checker &Chk, const std::vector<const Problem *> &Problems,
             const std::string &IdPrefix, Phase &Ph, Result &R,
             Replies *Into) {
  R.Attempted += Problems.size();
  R.Failed += Problems.size() - Ph.Samples.size(); // never answered
  R.Steal += Ph.Steal;
  R.ClientCpuS += Ph.ClientCpuS;
  if (!Ph.Error.empty())
    R.note(Ph.Error);
  for (Sample &S : Ph.Samples) {
    std::string Error;
    xsa::JsonRef J = xsa::parseJson(S.Resp, Error);
    const Problem &P = *Problems[S.Index];
    std::string Id = IdPrefix + std::to_string(S.Index);
    if (!J || !J->get("ok")->asBool() || J->str("id") != Id) {
      ++R.Failed;
      R.note(Id + ": " + S.Resp.substr(0, 300));
    } else if (std::string Why = Chk.check(P, *J); !Why.empty()) {
      ++R.Mismatches;
      R.note(Id + " " + P.requestLine(Id) + ": " + Why);
    } else if (Into) {
      Into->add(*J, (S.RecvS - S.SendS) * 1e3);
    }
    std::string().swap(S.Resp);
  }
}

std::vector<std::string> requestLines(const std::vector<const Problem *> &Ps,
                                      const std::string &IdPrefix) {
  std::vector<std::string> Lines;
  Lines.reserve(Ps.size());
  for (size_t I = 0; I < Ps.size(); ++I)
    Lines.push_back(Ps[I]->requestLine(IdPrefix + std::to_string(I)));
  return Lines;
}

std::vector<double> latenciesMs(const Phase &Ph) {
  std::vector<double> V;
  for (const Sample &S : Ph.Samples)
    V.push_back((S.RecvS - S.SendS) * 1e3);
  return V;
}

double geomean(const std::vector<double> &V) {
  double L = 0;
  for (double X : V)
    L += std::log(std::max(X, 1e-9));
  return V.empty() ? 0 : std::exp(L / static_cast<double>(V.size()));
}

/// Client spans of the traced run, written when the run ends.
class SpanLog {
public:
  void add(const Phase &Ph, const std::string &PhaseName,
           const std::string &IdPrefix, double OffsetS) {
    for (const Sample &S : Ph.Samples) {
      char Buf[256];
      std::snprintf(Buf, sizeof Buf,
                    "{\"name\":\"request\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rid\":\"%s%u\","
                    "\"phase\":\"%s\"}}",
                    S.Client, (OffsetS + S.SendS) * 1e6,
                    (S.RecvS - S.SendS) * 1e6, IdPrefix.c_str(), S.Index,
                    PhaseName.c_str());
      Events.push_back(Buf);
    }
  }
  void write(const std::string &Path) const {
    std::ofstream F(Path);
    F << "{\"traceEvents\":[\n";
    for (size_t I = 0; I < Events.size(); ++I)
      F << Events[I] << (I + 1 < Events.size() ? ",\n" : "\n");
    F << "]}\n";
  }

private:
  std::vector<std::string> Events;
};

/// The per-layer metrics every workload reports (see README.md). \p Delta
/// holds the daemon's counter increments over the timed requests.
void layerMetrics(Result &R, const Replies &Rep, const Counters &Delta,
                  double PeakNodes, double DtdMs, double WallS,
                  double DaemonCpuS, double ClientCpuS, unsigned Jobs) {
  // The end-to-end figures of a traced run are printed, not reported:
  // set against an untraced run's, they give the tracing overhead.
  R.Figures = std::move(R.Metrics);
  R.Metrics.clear();
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
  auto D = [&](const char *Name) { return counter(Delta, Name); };
  double N = static_cast<double>(Rep.N);
  double Misses = static_cast<double>(Rep.Misses);
  R.metric("server.queue_wait_ms",
           Ratio(D("queue_wait_sum"), D("queue_wait_count")), "ms");
  R.metric("server.overhead_ms", median(Rep.OverheadMs), "ms");
  R.metric("server.worker_cpu_share", Ratio(DaemonCpuS, WallS * Jobs), "ratio");
  R.metric("service.request_ms", median(Rep.RequestMs), "ms");
  R.metric("service.cache_hit_rate",
           Ratio(D("cache_hits"), D("cache_hits") + D("cache_misses")),
           "ratio");
  R.metric("service.cache_probe_us", Rep.mean("cache.probe") * 1e3, "us");
  R.metric("service.fixpoint_replay_share",
           Ratio(Rep.ReplayedSum, Rep.RoundsSum), "ratio");
  R.metric("service.rss_growth_kb_per_req", Ratio(D("rss_kb"), N), "KB");
  R.metric("xpath.parse_us", Rep.mean("parse.query") * 1e3, "us");
  R.metric("xtype.dtd_compile_ms", DtdMs, "ms");
  R.metric("logic.lean_ms", Rep.mean("solver.lean"), "ms");
  R.metric("logic.lean_size", Ratio(Rep.LeanSum, Misses), "count");
  R.metric("solver.chi_ms", Rep.mean("solver.chi"), "ms");
  R.metric("solver.delta_ms", Rep.mean("solver.delta"), "ms");
  R.metric("solver.extract_ms", Rep.mean("solver.extract"), "ms");
  R.metric("solver.fixpoint_ms", Rep.mean("solver.fixpoint"), "ms");
  R.metric("solver.rounds", Ratio(Rep.RoundsSum, Misses), "count");
  R.metric("solver.solve_self_ms", Ratio(Rep.SolveSelfSum, N), "ms");
  R.metric("bdd.peak_nodes", PeakNodes, "count");
  R.metric("bdd.nodes_created",
           Ratio(D("xsa_bdd_unique_lookups_total") -
                     D("xsa_bdd_unique_hits_total"),
                 N),
           "count");
  R.metric("bdd.opcache_hit_rate",
           Ratio(D("xsa_bdd_opcache_hits_total"),
                 D("xsa_bdd_opcache_lookups_total")),
           "ratio");
  R.metric("analysis.solves_per_request", Ratio(D("solves"), N), "count");
  R.metric("client.cpu_share", Ratio(ClientCpuS, WallS), "ratio");
}

unsigned hostCpus() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

// --- Workloads ------------------------------------------------------------

/// paper-table2: the eight Table 2 requests in order from one client,
/// each pass against a fresh daemon so every problem is solved cold.
Result runTable2(const Options &O, SpanLog &Spans) {
  Result R;
  std::vector<Problem> Rows = table2Problems();
  std::vector<const Problem *> Ps;
  for (const Problem &P : Rows)
    Ps.push_back(&P);
  const std::string Prefix = "t2-";
  std::vector<std::string> Lines = requestLines(Ps, Prefix);
  const unsigned Passes = std::max(3u, O.Seconds / 5);
  const unsigned Jobs = 1;

  Checker Chk;
  Replies Rep;
  Counters Delta;
  std::vector<double> Setup, Walls, Hwm;
  std::vector<std::vector<double>> PerRow(Rows.size());
  double CpuS = 0, WallS = 0, ClientCpuS = 0, PeakNodes = 0;
  for (unsigned Pass = 0; Pass < Passes; ++Pass) {
    Daemon D;
    if (!D.start(O, {"--jobs", std::to_string(Jobs)}, R.Error))
      return R;
    Setup.push_back(D.ReadyS);
    Counters Before;
    std::function<void(size_t)> AfterEach;
    if (O.Trace) {
      Before = readCounters(D);
      // The BDD peak gauge describes the last solver run, so read it
      // after every request (one client: nothing runs in between).
      AfterEach = [&](size_t) {
        PeakNodes = std::max(PeakNodes,
                             counter(readCounters(D), "xsa_bdd_peak_nodes"));
      };
    }
    Phase Ph = runClosedLoop(D, Lines, 1, AfterEach);
    Hwm.push_back(procStatusKb(D.pid(), "VmHWM"));
    if (O.Trace) {
      addDelta(Delta, readCounters(D), Before);
      Spans.add(Ph, "pass" + std::to_string(Pass), Prefix, WallS);
    }
    D.stop();
    Walls.push_back(Ph.WallS);
    WallS += Ph.WallS;
    CpuS += Ph.DaemonCpuS;
    ClientCpuS += Ph.ClientCpuS;
    for (const Sample &S : Ph.Samples)
      PerRow[S.Index].push_back((S.RecvS - S.SendS) * 1e3);
    account(Chk, Ps, Prefix, Ph, R, &Rep);
  }
  // Launch-to-ping of a fresh daemon is a few milliseconds; more
  // launches than passes keep its median steady.
  while (Setup.size() < 9) {
    Daemon D;
    if (!D.start(O, {"--jobs", std::to_string(Jobs)}, R.Error))
      return R;
    Setup.push_back(D.ReadyS);
  }
  double Requests = static_cast<double>(Passes * Rows.size());
  std::vector<double> All, RowMedians;
  for (const auto &V : PerRow) {
    All.insert(All.end(), V.begin(), V.end());
    RowMedians.push_back(median(V));
  }
  for (size_t I = 0; I < Rows.size(); ++I)
    std::printf("# %-24s median %10.3f ms over %zu passes\n",
                Rows[I].Name.c_str(), RowMedians[I], PerRow[I].size());
  R.metric("setup_s", median(Setup), "s");
  R.metric("suite_s", median(Walls), "s");
  R.metric("verdict_ms_geomean", geomean(RowMedians), "ms");
  R.metric("throughput_rps", Requests / WallS, "1/s");
  R.metric("latency_p50_ms", quantile(All, 0.5), "ms");
  R.metric("latency_p99_ms", quantile(All, 0.99), "ms");
  R.metric("cpu_ms_per_req", CpuS * 1e3 / Requests, "ms");
  R.metric("peak_rss_mb", *std::max_element(Hwm.begin(), Hwm.end()) / 1024,
           "MB");
  if (O.Trace)
    layerMetrics(R, Rep, Delta, PeakNodes, Rep.total("parse.dtd") / Passes,
                 WallS, CpuS, ClientCpuS, Jobs);
  return R;
}

/// cold-distinct and hot-recurring: set up a daemon with a warm-up
/// (three times, reporting the median set-up time; the last daemon runs
/// the timed phase), then send the timed requests closed-loop in up to
/// nine consecutive rounds. Every rate and latency is the median of its
/// per-round figures, so a burst of load from elsewhere on the host
/// moves a round, not the result.
Result runTraffic(const Options &O, const std::vector<std::string> &Flags,
                  const std::vector<const Problem *> &Warm,
                  const std::vector<const Problem *> &Timed, SpanLog &Spans) {
  Result R;
  const unsigned Clients = std::min(4u, hostCpus());
  const unsigned Jobs = std::max(2u, Clients);
  // Rounds of at least 1000 requests, so each has a p99 with ten samples
  // beyond it.
  const size_t Rounds = std::clamp<size_t>(Timed.size() / 1000, 1, 9);
  std::vector<std::string> Args = Flags;
  Args.insert(Args.end(), {"--jobs", std::to_string(Jobs)});
  const std::string WarmPrefix = "w-";
  std::vector<std::string> WarmLines = requestLines(Warm, WarmPrefix);

  Checker Chk;
  Replies WarmRep;
  std::vector<double> Setup;
  Daemon D;
  for (int K = 0; K < 3; ++K) {
    D.stop();
    if (!D.start(O, Args, R.Error))
      return R;
    Phase Ph = runClosedLoop(D, WarmLines, Clients);
    Setup.push_back(secondsBetween(D.launched(), Clock::now()));
    WarmRep = Replies();
    account(Chk, Warm, WarmPrefix, Ph, R, &WarmRep);
  }
  Counters Before;
  if (O.Trace)
    Before = readCounters(D);
  Replies Rep;
  std::vector<double> RoundWall, RoundRps, RoundCpuMs, RoundP50, RoundP99,
      RoundGeo;
  double WallS = 0, CpuS = 0, ClientCpuS = 0;
  for (size_t K = 0, Per = (Timed.size() + Rounds - 1) / Rounds; K < Rounds;
       ++K) {
    std::vector<const Problem *> Slice(
        Timed.begin() + std::min(K * Per, Timed.size()),
        Timed.begin() + std::min((K + 1) * Per, Timed.size()));
    std::string Prefix = "t" + std::to_string(K) + "-";
    Phase Ph = runClosedLoop(D, requestLines(Slice, Prefix), Clients);
    if (O.Trace)
      Spans.add(Ph, "round" + std::to_string(K), Prefix, WallS);
    double N = static_cast<double>(Slice.size());
    RoundWall.push_back(Ph.WallS);
    RoundRps.push_back(N / Ph.WallS);
    RoundCpuMs.push_back(Ph.DaemonCpuS * 1e3 / N);
    WallS += Ph.WallS;
    CpuS += Ph.DaemonCpuS;
    ClientCpuS += Ph.ClientCpuS;
    std::vector<double> L = latenciesMs(Ph);
    RoundP50.push_back(quantile(L, 0.5));
    RoundP99.push_back(quantile(L, 0.99));
    RoundGeo.push_back(geomean(L));
    std::printf("# round %zu: %zu requests %8.3f s %10.2f req/s %8.4f cpu "
                "ms/req p50 %8.4f p99 %8.3f ms steal %lld\n",
                K, Slice.size(), Ph.WallS, RoundRps.back(), RoundCpuMs.back(),
                RoundP50.back(), RoundP99.back(), Ph.Steal);
    account(Chk, Slice, Prefix, Ph, R, &Rep);
  }
  Counters After;
  if (O.Trace)
    After = readCounters(D);
  double HwmKb = procStatusKb(D.pid(), "VmHWM");
  D.stop();
  std::printf("# %u clients, --jobs %u, %zu warm-up requests, %zu timed "
              "requests in %zu rounds\n",
              Clients, Jobs, Warm.size(), Timed.size(), Rounds);
  R.metric("setup_s", median(Setup), "s");
  R.metric("suite_s", median(RoundWall), "s");
  R.metric("verdict_ms_geomean", median(RoundGeo), "ms");
  R.metric("throughput_rps", median(RoundRps), "1/s");
  R.metric("latency_p50_ms", median(RoundP50), "ms");
  R.metric("latency_p99_ms", median(RoundP99), "ms");
  R.metric("cpu_ms_per_req", median(RoundCpuMs), "ms");
  R.metric("peak_rss_mb", HwmKb / 1024, "MB");
  if (O.Trace) {
    Counters Delta;
    addDelta(Delta, After, Before);
    layerMetrics(R, Rep, Delta, counter(After, "xsa_bdd_peak_nodes"),
                 WarmRep.total("parse.dtd") + Rep.total("parse.dtd"), WallS,
                 CpuS, ClientCpuS, Jobs);
  }
  return R;
}

/// cold-distinct: a disjoint slice of the stream warms the daemon up;
/// every timed request is a problem no cache has seen.
Result runCold(const Options &O, SpanLog &Spans) {
  const size_t WarmN = 400, TimedN = 280 * static_cast<size_t>(O.Seconds);
  ProblemStream Stream(O.Seed, "c");
  std::vector<Problem> Pool;
  Pool.reserve(WarmN + TimedN);
  for (size_t I = 0; I < WarmN + TimedN; ++I)
    Pool.push_back(Stream.next());
  std::vector<const Problem *> Warm, Timed;
  for (size_t I = 0; I < Pool.size(); ++I)
    (I < WarmN ? Warm : Timed).push_back(&Pool[I]);
  return runTraffic(O, {}, Warm, Timed, Spans);
}

/// hot-recurring: a Zipf draw over a working set answered once during
/// set-up; every tenth request is an unseen label-renamed copy of a
/// working-set problem, answered by fixpoint replay.
Result runHot(const Options &O, SpanLog &Spans) {
  const size_t WorkingSet = 160, TimedN = 2000 * static_cast<size_t>(O.Seconds);
  ProblemStream Stream(O.Seed, "h");
  std::vector<Problem> Pool;
  Pool.reserve(WorkingSet + TimedN / 10 + 1);
  for (size_t I = 0; I < WorkingSet; ++I)
    Pool.push_back(Stream.next());
  std::vector<const Problem *> Warm;
  for (const Problem &P : Pool)
    Warm.push_back(&P);
  ZipfTable Zipf(WorkingSet);
  SplitMix Rng{O.Seed * 0x2545F4914F6CDD1Dull + 7};
  std::vector<size_t> Picks; // index into Pool: working set or unseen copy
  for (size_t I = 0; I < TimedN; ++I) {
    size_t W = Zipf.draw(Rng.unit());
    if (I % 10 != 9) {
      Picks.push_back(W);
      continue;
    }
    while (!Pool[W].Renamable)
      W = (W + 1) % WorkingSet;
    Pool.push_back(renamed(Pool[W], "u" + std::to_string(I)));
    Picks.push_back(Pool.size() - 1);
  }
  std::vector<const Problem *> Timed;
  for (size_t Pick : Picks)
    Timed.push_back(&Pool[Pick]);
  return runTraffic(O, {"--share-fixpoints"}, Warm, Timed, Spans);
}

std::string jsonNumber(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.10g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --xsolved PATH --workdir DIR "
               "--workload paper-table2|cold-distinct|hot-recurring "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I], Val = argv[I + 1];
    if (Flag == "--xsolved")
      O.Xsolved = Val;
    else if (Flag == "--workdir")
      O.WorkDir = Val;
    else if (Flag == "--workload")
      O.Workload = Val;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = static_cast<unsigned>(std::max(1l, std::atol(Val.c_str())));
    else if (Flag == "--trace")
      O.Trace = Val == "1";
    else
      return usage();
  }
  if (O.Xsolved.empty() || O.WorkDir.empty())
    return usage();
  // A client whose daemon went away must see an error, not a signal.
  signal(SIGPIPE, SIG_IGN);

  SpanLog Spans;
  auto T0 = Clock::now();
  Result R;
  if (O.Workload == "paper-table2")
    R = runTable2(O, Spans);
  else if (O.Workload == "cold-distinct")
    R = runCold(O, Spans);
  else if (O.Workload == "hot-recurring")
    R = runHot(O, Spans);
  else
    return usage();
  if (!R.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  if (O.Trace) {
    std::string Path = O.WorkDir + "/trace-" + O.Workload + "-" +
                       std::to_string(O.Seed) + ".json";
    Spans.write(Path);
    std::printf("# client spans written to %s\n", Path.c_str());
  }
  for (const std::string &N : R.Notes)
    std::printf("# MISMATCH/FAILURE %s\n", N.c_str());
  std::printf("# %s seed %llu: attempted %llu failed %llu mismatched %llu\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Mismatches));
  std::printf("# steal_ticks %lld client_cpu_s %.3f run_s %.3f\n", R.Steal,
              R.ClientCpuS, secondsBetween(T0, Clock::now()));
  for (const auto &[Name, V, Unit] : R.Figures)
    std::printf("# traced %-25s %14.6f %s\n", Name.c_str(), V, Unit.c_str());
  std::string Metrics;
  for (const auto &[Name, V, Unit] : R.Metrics) {
    std::printf("# %-32s %14.6f %s\n", Name.c_str(), V, Unit.c_str());
    Metrics += (Metrics.empty() ? "" : ",") + xsa::jsonQuote(Name) +
               ":{\"value\":" + jsonNumber(V) + ",\"unit\":\"" + Unit + "\"}";
  }
  bool Correct = R.Mismatches == 0;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return Correct && R.Failed == 0 ? 0 : 1;
}
