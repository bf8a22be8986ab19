// perfbench_drive: the benchmark's client process. Two modes, each printing
// one JSON object on stdout:
//
//   perfbench_drive load --port=P --mix=browse|flood --seed=N --count=N
//       [--space=10] [--open --rate=ARRIVALS_PER_S]
//     drives a running robodet_serve over loopback and reports what it sent
//     (per expected detection signal), what failed, throughput, and latency
//     per request and per view (see Fetch::starts_view).
//
//   perfbench_drive replay --mix=... --seed=N --visitors=N [--space=10]
//       [--origin-rtt-us=0] [--state-dir=D] --scratch=D [--spans=FILE]
//       [--seconds=S]
//     replays the same visitors in-process with spans and reports per-layer
//     timings (see replay.cc).
#include <algorithm>
#include <cstdio>
#include <string>

#include "perfbench/perfbench.h"
#include "tools/flags.h"

namespace perfbench {
namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonErrors(const std::vector<std::string>& errors) {
  std::string out = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += i > 0 ? "," : "";
    out += JsonString(errors[i]);
  }
  return out + "]";
}

// Quantile by rank over a sorted sample; the sample count goes with it.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const size_t at = std::min(sorted.size() - 1, static_cast<size_t>(q * sorted.size()));
  return sorted[at];
}

std::string Quantiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"n\":%zu,\"p50\":%.6f,\"p90\":%.6f,\"p99\":%.6f,\"p999\":%.6f,\"max\":%.6f}",
                v.size(), Quantile(v, 0.5), Quantile(v, 0.9), Quantile(v, 0.99),
                Quantile(v, 0.999), v.empty() ? 0.0 : v.back());
  return buf;
}

int Load(const robodet::Flags& flags, Mix mix) {
  LoadOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  options.open_loop = flags.GetBool("open");
  options.arrivals_per_s = flags.GetDouble("rate", 0.0);
  if (options.port == 0 || (options.open_loop && options.arrivals_per_s <= 0.0)) {
    std::fputs("perfbench_drive load: need --port, and --rate with --open\n", stderr);
    return 2;
  }
  const LoadReport r = RunLoad(
      options, MakeVisitors(mix, static_cast<uint64_t>(flags.GetInt("seed", 1)),
                            static_cast<uint64_t>(flags.GetInt("count", 100)),
                            static_cast<int>(flags.GetInt("space", 10))));
  std::string sent = "{";
  for (int s = 0; s < static_cast<int>(Signal::kCount); ++s) {
    sent += s > 0 ? "," : "";
    sent += JsonString(SignalName(static_cast<Signal>(s))) + ":" +
            std::to_string(r.sent[static_cast<size_t>(s)]);
  }
  sent += "}";
  std::printf(
      "{\"attempted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"elapsed_s\":%.6f,\"ref_units\":%llu,\"ref_cpu_s\":%.6f,\"sent\":%s,\"latency_ms\":%s,"
      "\"view_ms\":%s,\"late_ms\":%s,\"errors\":%s}\n",
      static_cast<unsigned long long>(r.attempted), static_cast<unsigned long long>(r.completed),
      static_cast<unsigned long long>(r.failed), r.elapsed_s,
      static_cast<unsigned long long>(r.ref_units), r.ref_cpu_s, sent.c_str(),
      Quantiles(r.latency_ms).c_str(), Quantiles(r.view_ms).c_str(),
      Quantiles(r.late_ms).c_str(), JsonErrors(r.errors).c_str());
  return 0;
}

int Replay(const robodet::Flags& flags, Mix mix) {
  ReplayOptions options;
  options.mix = mix;
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.visitors = static_cast<uint64_t>(flags.GetInt("visitors", 300));
  options.address_space = static_cast<int>(flags.GetInt("space", 10));
  options.origin_rtt_us = flags.GetInt("origin-rtt-us", 0);
  options.state_dir = flags.GetString("state-dir", "");
  options.scratch_dir = flags.GetString("scratch", "");
  options.spans_out = flags.GetString("spans", "");
  options.seconds = flags.GetDouble("seconds", 5.0);
  if (options.scratch_dir.empty()) {
    std::fputs("perfbench_drive replay: need --scratch\n", stderr);
    return 2;
  }
  const ReplayReport r = RunReplay(options);
  std::string values = "{";
  for (size_t i = 0; i < r.values.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.6f", r.values[i].second);
    values += i > 0 ? "," : "";
    values += JsonString(r.values[i].first) + ":" + num;
  }
  values += "}";
  std::printf("{\"values\":%s,\"errors\":%s}\n", values.c_str(), JsonErrors(r.errors).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const robodet::Flags flags(argc, argv);
  perfbench::Mix mix;
  if (flags.positional().size() != 1 || !perfbench::ParseMix(flags.GetString("mix", ""), &mix)) {
    std::fputs("usage: perfbench_drive load|replay --mix=browse|flood [flags]\n", stderr);
    return 2;
  }
  const std::string& mode = flags.positional()[0];
  if (mode == "load") {
    return perfbench::Load(flags, mix);
  }
  if (mode == "replay") {
    return perfbench::Replay(flags, mix);
  }
  std::fputs("perfbench_drive: unknown mode\n", stderr);
  return 2;
}
