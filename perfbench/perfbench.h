// perfbench_drive, the benchmark's load generator: seeded visitor
// scripts, an epoll load engine that runs them against a robodet_serve
// daemon over loopback, and an in-process traced replay of the same
// scripts through the daemon's serve chain. perfbench/run.py launches
// the daemon and this program; see perfbench/README.md for the workloads
// and metrics.
#ifndef ROBODET_PERFBENCH_PERFBENCH_H_
#define ROBODET_PERFBENCH_PERFBENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Host every generated URL is minted under: robodet_serve's site host.
inline constexpr std::string_view kSiteHost = "www.example.com";
inline constexpr std::string_view kInstrPrefix = "/__rd/";
// The site's page count: run.py starts robodet_serve with --site-pages=200.
inline constexpr int kSitePages = 200;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The daemon counter a fetch is expected to move by exactly one.
enum class Signal : int {
  kNone,
  kPage,         // robodet_pages_instrumented_total
  kCss,          // robodet_probe_hits_total{kind="css"}
  kJsFile,       // robodet_probe_hits_total{kind="js_file"}
  kUaEcho,       // robodet_probe_hits_total{kind="ua_echo"}
  kHiddenLink,   // robodet_probe_hits_total{kind="hidden_link"}
  kBeaconOk,     // robodet_beacon_hits_total{result="ok"}
  kBeaconWrong,  // robodet_beacon_hits_total{result="wrong_key"}
  kCount,
};
const char* SignalName(Signal signal);
using SignalCounts = std::array<uint64_t, static_cast<size_t>(Signal::kCount)>;

struct Fetch {
  std::string target;  // Origin-form request target.
  std::string client_ip;  // Sent as X-Forwarded-For (the daemon runs --trust-xff).
  std::string user_agent;
  std::string referer;  // Empty: no Referer header.
  Signal signal = Signal::kNone;
  int expect_status = 200;
  // The visitor's final fetch: sent with "Connection: close", so the
  // daemon closes first and the client leaves no TIME_WAIT port behind.
  bool last = false;
  // Opens a view: what one visitor waits for as a unit. A browse visitor's
  // view is a page and the objects and beacon fetched for it; every flood
  // request is a view of its own.
  bool starts_view = true;
};

std::string RenderRequest(const Fetch& fetch);

// One visitor's script. Each visitor owns one connection; a batch is
// pipelined on it and the next batch is asked for once every response of
// the previous one has arrived.
class Visitor {
 public:
  virtual ~Visitor() = default;
  // Empty when the visitor is done.
  virtual std::vector<Fetch> NextBatch() = 0;
  virtual void OnResponse(const Fetch& fetch, int status, std::string_view body) = 0;
};

// The host-speed yardstick: one fixed unit of client work, a scan of a
// fixed page the benchmark generates itself, so nothing the daemon serves
// or does changes the work. Returns the calling thread's CPU seconds for
// it. The closed loop runs one unit after every response, in the same
// seconds and on the same threads as the load.
double RunReferenceUnit();

enum class Mix { kBrowse, kFlood };
bool ParseMix(std::string_view name, Mix* mix);

// The first `count` visitors of a seeded population. Visitor i is a pure
// function of (mix, seed, i); addresses are distinct per visitor and per
// flood request, and `address_space` (0..255) keeps populations disjoint,
// e.g. a priming phase from the measured one.
std::vector<std::unique_ptr<Visitor>> MakeVisitors(Mix mix, uint64_t seed, uint64_t count,
                                                   int address_space);

// ---- Load engine (load.cc) ----

struct LoadOptions {
  uint16_t port = 0;
  // Closed loop: 4 visitors run at once over two client threads, each
  // followed by the next as soon as it finishes. Open loop: visitors arrive
  // every 1/arrivals_per_s seconds whatever the daemon's state, driven by
  // one client thread that polls without blocking while idle-priority
  // spinners hold every other CPU. No CPU then halts, so a daemon worker's
  // wake-up is a context switch rather than a virtual CPU wake-up, whose
  // cost depends on the host's other tenants.
  bool open_loop = false;
  double arrivals_per_s = 0.0;
};

struct LoadReport {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // Unexpected status, bad framing, refused or cut off.
  SignalCounts sent{};
  double elapsed_s = 0.0;
  // Closed loop: reference units run and their CPU; see RunReferenceUnit.
  uint64_t ref_units = 0;
  double ref_cpu_s = 0.0;
  // Per response, from when its batch was due (open loop: the visitor's
  // arrival for its first batch, the previous batch's completion after)
  // to when the kernel received it.
  std::vector<double> latency_ms;
  // Per view (see Fetch::starts_view): the sum of its responses'
  // latencies, so the client's own work between fetches is left out.
  std::vector<double> view_ms;
  // Open loop: how late each visitor's arrival was handled.
  std::vector<double> late_ms;
  std::vector<std::string> errors;  // The first few failures, for the log.
};

LoadReport RunLoad(const LoadOptions& options, std::vector<std::unique_ptr<Visitor>> visitors);

// ---- In-process traced replay (replay.cc) ----

struct ReplayOptions {
  Mix mix = Mix::kBrowse;
  uint64_t seed = 1;
  uint64_t visitors = 300;
  int address_space = 0;
  // The daemon's flags this replay mirrors.
  long origin_rtt_us = 0;
  // The primed state directory the daemon starts from (copied first, and
  // timed recovering); empty: no persistence.
  std::string state_dir;
  std::string scratch_dir;  // For copies of state directories.
  std::string spans_out;    // JSON-lines span file; empty skips.
  double seconds = 5.0;     // Budget for repeating the stage timings.
};

// Per-layer figures keyed by metric name, plus the replay's own counts.
struct ReplayReport {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> errors;
};

ReplayReport RunReplay(const ReplayOptions& options);

}  // namespace perfbench

#endif  // ROBODET_PERFBENCH_PERFBENCH_H_
