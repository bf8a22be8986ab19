// robodet_analyze: offline analysis of a captured session log (the CSV
// pair robodet_capture writes, or one exported from a live deployment).
// Prints the Table-1-style signal breakdown, runs the combined and staged
// classifiers against the recorded signals, and — with --ml — trains and
// evaluates the §4.2 AdaBoost pipeline on the log's labels.
//
// Usage:
//   robodet_analyze --sessions=sessions.csv --events=events.csv
//       [--min-requests=10] [--ml] [--rounds=200] [--json-logs]
//   robodet_analyze --clf=access.log           # replay a real access log
//   robodet_analyze --chaos --fault-rate=0.2   # analyze a live faulted run
//
// --chaos skips the CSV input and instead drives a fresh simulation through
// the resilient serving path (same knobs as robodet_metrics: --fault-rate,
// --breaker-threshold, --fail-closed, ...), then analyzes the sessions it
// produced and reports how many servings the degradation ladder stepped down.
//
// --json-logs mirrors the analysis milestones to stderr as JSON Lines
// (machine-readable; the human report on stdout is unchanged).
#include <cstdio>

#include "src/robodet.h"
#include "tools/chaos_flags.h"
#include "tools/flags.h"

using namespace robodet;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    std::fprintf(stderr,
                 "usage: robodet_analyze --sessions=F --events=F "
                 "[--min-requests=10] [--ml] [--rounds=200] [--json-logs]\n"
                 "       robodet_analyze --chaos [--clients=500] [--seed=1] [--policy]\n%s",
                 kChaosUsage);
    return 0;
  }

  const bool json_logs = flags.GetBool("json-logs");
  if (json_logs) {
    SetStructuredLogSink(JsonLinesSink(stderr));
    SetLogLevel(LogLevel::kInfo);
  }

  std::vector<SessionRecord> log;
  if (flags.GetBool("clf")) {
    // Passive replay of a real access log: only the §4.2 ML features and
    // passive heuristics are available (no probes without a live proxy).
    const auto replay = ReplayClfFile(flags.GetString("clf", "access.log"));
    if (!replay.has_value()) {
      std::fprintf(stderr, "error: cannot read %s\n",
                   flags.GetString("clf", "access.log").c_str());
      return 1;
    }
    std::printf("replayed %zu log lines (%zu malformed)\n", replay->lines_total,
                replay->lines_malformed);
    log = replay->records;
  } else if (flags.GetBool("chaos")) {
    ExperimentConfig config;
    config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    config.num_clients = static_cast<size_t>(flags.GetInt("clients", 500));
    config.proxy.enable_policy = flags.GetBool("policy");
    ApplyChaosFlags(flags, &config);
    Experiment experiment(config);
    experiment.Run();
    const RegistrySnapshot snapshot = experiment.proxy().metrics().Scrape();
    uint64_t stepped_down = 0;
    for (const char* level : {"beacon_only", "pass_through", "fail_closed", "shed"}) {
      stepped_down += snapshot.CounterValue("robodet_degraded_total", {{"level", level}});
    }
    std::printf("chaos run: %llu requests, %llu injected origin faults, "
                "%llu servings below full instrumentation, %llu breaker trips\n",
                static_cast<unsigned long long>(
                    snapshot.CounterValue("robodet_requests_total")),
                static_cast<unsigned long long>(experiment.faults().counts().errors),
                static_cast<unsigned long long>(stepped_down),
                static_cast<unsigned long long>(snapshot.CounterValue(
                    "robodet_breaker_transitions_total", {{"to", "open"}})));
    if (json_logs) {
      ROBODET_LOG(kInfo)
          .With("requests", snapshot.CounterValue("robodet_requests_total"))
          .With("injected_faults", experiment.faults().counts().errors)
          .With("degraded_servings", stepped_down)
          .With("breaker_opens", snapshot.CounterValue("robodet_breaker_transitions_total",
                                                       {{"to", "open"}}))
          << "chaos_run";
    }
    log = experiment.records();
  } else {
    const std::string sessions_path = flags.GetString("sessions", "sessions.csv");
    const std::string events_path = flags.GetString("events", "events.csv");
    if (!ReadRecordsCsv(sessions_path, events_path, &log)) {
      std::fprintf(stderr, "error: failed to load %s / %s\n", sessions_path.c_str(),
                   events_path.c_str());
      return 1;
    }
  }
  const int min_requests = static_cast<int>(flags.GetInt("min-requests", kTable1MinRequests));
  std::vector<const SessionRecord*> sessions;
  for (const SessionRecord& r : log) {
    if (r.request_count() > min_requests) {
      sessions.push_back(&r);
    }
  }
  std::printf("loaded %zu sessions (%zu with >%d requests)\n\n", log.size(), sessions.size(),
              min_requests);
  if (json_logs) {
    ROBODET_LOG(kInfo)
        .With("sessions_total", log.size())
        .With("sessions_analyzed", sessions.size())
        .With("min_requests", min_requests)
        << "loaded";
  }
  if (sessions.empty()) {
    return 0;
  }
  const double n = static_cast<double>(sessions.size());

  // Signal breakdown (Table 1 shape).
  size_t css = 0;
  size_t js = 0;
  size_t mouse = 0;
  size_t hidden = 0;
  size_t mismatch = 0;
  size_t captcha = 0;
  for (const SessionRecord* r : sessions) {
    const SessionSignals& sig = r->signals();
    css += sig.DownloadedCssProbe() ? 1 : 0;
    js += sig.ExecutedJs() ? 1 : 0;
    mouse += sig.MouseActivity() ? 1 : 0;
    hidden += sig.FollowedHiddenLink() ? 1 : 0;
    mismatch += sig.UaMismatch() ? 1 : 0;
    captcha += sig.PassedCaptcha() ? 1 : 0;
  }
  std::printf("signal breakdown:\n");
  std::printf("  downloaded CSS probe     %s\n", FormatPercent(css / n).c_str());
  std::printf("  executed JavaScript      %s\n", FormatPercent(js / n).c_str());
  std::printf("  mouse movement detected  %s\n", FormatPercent(mouse / n).c_str());
  std::printf("  passed CAPTCHA           %s\n", FormatPercent(captcha / n).c_str());
  std::printf("  followed hidden links    %s\n", FormatPercent(hidden / n).c_str());
  std::printf("  browser type mismatch    %s\n", FormatPercent(mismatch / n).c_str());
  if (json_logs) {
    ROBODET_LOG(kInfo)
        .With("css_probe", css / n)
        .With("executed_js", js / n)
        .With("mouse", mouse / n)
        .With("captcha", captcha / n)
        .With("hidden_link", hidden / n)
        .With("ua_mismatch", mismatch / n)
        << "signal_breakdown";
  }

  // Classifier outcomes vs. the log's ground-truth labels.
  ConfusionMatrix combined_cm;
  for (const SessionRecord* r : sessions) {
    const Verdict v = CombinedClassifier::SetAlgebraVerdict(r->signals());
    combined_cm.Add(r->truly_human ? kLabelHuman : kLabelRobot,
                    v == Verdict::kRobot ? kLabelRobot : kLabelHuman);
  }
  std::printf("\ncombined classifier (set algebra) vs. labels:\n");
  std::printf("  accuracy %s, humans misjudged %s, robots missed %s\n",
              FormatPercent(combined_cm.Accuracy()).c_str(),
              FormatPercent(combined_cm.HumanMisclassificationRate()).c_str(),
              FormatPercent(combined_cm.RobotMissRate()).c_str());
  if (json_logs) {
    ROBODET_LOG(kInfo)
        .With("accuracy", combined_cm.Accuracy())
        .With("human_misjudged", combined_cm.HumanMisclassificationRate())
        .With("robot_missed", combined_cm.RobotMissRate())
        << "combined_classifier";
  }

  if (flags.GetBool("ml")) {
    Dataset corpus;
    for (const SessionRecord* r : sessions) {
      Example e;
      e.x = ExtractFeatures(r->events);
      e.label = r->truly_human ? kLabelHuman : kLabelRobot;
      corpus.examples.push_back(e);
    }
    Rng rng(42);
    const TrainTestSplit split = StratifiedSplit(corpus, 0.5, rng);
    AdaBoost model(
        AdaBoost::Config{static_cast<int>(flags.GetInt("rounds", 200))});
    model.Train(split.train);
    const ConfusionMatrix test_cm = Evaluate(
        split.test, [&model](const FeatureVector& x) { return model.Predict(x); });
    const RocCurve roc =
        ComputeRoc(split.test, [&model](const FeatureVector& x) { return model.Score(x); });
    std::printf("\nAdaBoost (%ld rounds): test accuracy %s, AUC %.4f\n",
                flags.GetInt("rounds", 200), FormatPercent(test_cm.Accuracy(), 2).c_str(),
                roc.auc);
    if (json_logs) {
      ROBODET_LOG(kInfo)
          .With("rounds", flags.GetInt("rounds", 200))
          .With("test_accuracy", test_cm.Accuracy())
          .With("auc", roc.auc)
          << "adaboost";
    }
    auto importance = model.FeatureImportance();
    std::printf("top attributes:");
    for (int pick = 0; pick < 3; ++pick) {
      size_t best = 0;
      for (size_t f = 1; f < kNumFeatures; ++f) {
        if (importance[f] > importance[best]) {
          best = f;
        }
      }
      std::printf(" %s (%s)", std::string(FeatureName(best)).c_str(),
                  FormatPercent(importance[best]).c_str());
      importance[best] = -1.0;
    }
    std::printf("\n");
  }
  return 0;
}
