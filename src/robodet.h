// Umbrella header for the robodet library: behavioural robot detection for
// web services, after Park, Pai, Lee & Calo, "Securing Web Service by
// Automatic Robot Detection" (USENIX ATC 2006).
//
// Layering (each layer only depends on those above it):
//   util  — rng, clock, stats, strings, hashing, logging
//   obs   — metrics registry, request tracing, Prometheus/JSON exporters
//   http  — methods, status codes, headers, URLs, request/response records
//   html  — tokenizer, document model, instrumentation injector
//   js    — beacon generator, obfuscator, lexer/parser/interpreter
//   site  — synthetic website model + origin server
//   core  — signals, verdicts, detectors, combined & staged classifiers
//   proxy — session/key tables, token minter, policy, CAPTCHA, ProxyServer
//   ml    — Table-2 features, AdaBoost, naive Bayes, metrics
//   sim   — client models (humans + robot bestiary), population, Experiment
#ifndef ROBODET_SRC_ROBODET_H_
#define ROBODET_SRC_ROBODET_H_

#include "src/core/attestation.h"
#include "src/core/browser_test_detector.h"
#include "src/core/combined_classifier.h"
#include "src/core/human_activity_detector.h"
#include "src/core/signals.h"
#include "src/core/staged_pipeline.h"
#include "src/core/verdict.h"
#include "src/html/document.h"
#include "src/html/injector.h"
#include "src/html/tokenizer.h"
#include "src/http/cache_control.h"
#include "src/http/content_type.h"
#include "src/http/headers.h"
#include "src/http/method.h"
#include "src/http/origin_result.h"
#include "src/http/request.h"
#include "src/http/status.h"
#include "src/http/url.h"
#include "src/http/wire.h"
#include "src/js/generator.h"
#include "src/js/interpreter.h"
#include "src/js/obfuscator.h"
#include "src/ml/adaboost.h"
#include "src/ml/dataset.h"
#include "src/ml/decision_tree.h"
#include "src/ml/evaluation.h"
#include "src/ml/features.h"
#include "src/ml/metrics.h"
#include "src/ml/naive_bayes.h"
#include "src/net/connection.h"
#include "src/net/event_loop.h"
#include "src/net/framer.h"
#include "src/net/loadgen.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/obs/exporters.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/proxy/captcha.h"
#include "src/proxy/key_table.h"
#include "src/proxy/persistence/format.h"
#include "src/proxy/persistence/state_store.h"
#include "src/proxy/policy.h"
#include "src/proxy/proxy_server.h"
#include "src/proxy/resilience.h"
#include "src/proxy/session.h"
#include "src/proxy/session_table.h"
#include "src/proxy/token_minter.h"
#include "src/sim/clf_import.h"
#include "src/sim/cluster.h"
#include "src/sim/experiment.h"
#include "src/sim/fault_injector.h"
#include "src/sim/human_browser.h"
#include "src/sim/population.h"
#include "src/sim/record_io.h"
#include "src/sim/robots.h"
#include "src/site/origin_server.h"
#include "src/site/site_model.h"
#include "src/util/clock.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

#endif  // ROBODET_SRC_ROBODET_H_
