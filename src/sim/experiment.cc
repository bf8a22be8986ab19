#include "src/sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <thread>
#include <tuple>

#include "src/sim/gateway.h"
#include "src/util/logging.h"

namespace robodet {

Experiment::Experiment(ExperimentConfig config) : config_(std::move(config)) {
  Rng site_rng(config_.seed ^ 0x5174e5eedULL);
  site_ = SiteModel::Generate(config_.site, site_rng);
  origin_ = std::make_unique<OriginServer>(&site_);
  config_.proxy.host = site_.host();
  const bool parallel = config_.num_threads > 1;
  config_.proxy.concurrent = parallel;
  faults_ = std::make_unique<FaultInjector>(
      config_.faults, [this](const Request& r) { return origin_->HandleOrigin(r); });
  proxy_ = std::make_unique<ProxyServer>(
      config_.proxy, &clock_,
      FallibleOriginHandler([this, parallel](const Request& r) {
        if (parallel) {
          std::lock_guard<std::mutex> lock(origin_mu_);
          return (*faults_)(r);
        }
        return (*faults_)(r);
      }),
      config_.seed ^ 0x9042ULL);
}

void Experiment::Run() {
  if (ran_) {
    return;
  }
  ran_ = true;

  proxy_->sessions().set_on_closed([this](std::unique_ptr<SessionState> session) {
    SessionRecord record;
    record.session_id = session->id();
    record.observation = session->observation();
    record.events.assign(session->events().begin(), session->events().end());
    record.first_request = session->first_request_time();
    record.last_request = session->last_request_time();
    const auto it = identity_by_ip_.find(session->key().ip.value());
    if (it != identity_by_ip_.end()) {
      record.client_type = it->second.first;
      record.truly_human = it->second.second;
    }
    std::lock_guard<std::mutex> lock(records_mu_);
    records_.push_back(std::move(record));
  });

  // Clients and arrival times are always drawn serially, in index order, so
  // the population (and every client's private rng stream) is identical no
  // matter how many workers run them afterwards.
  PopulationFactory factory(&site_, config_.mix, config_.seed ^ 0x70f0ULL);
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<TimeMs> arrivals;
  clients.reserve(config_.num_clients);
  arrivals.reserve(config_.num_clients);
  Rng arrival_rng(config_.seed ^ 0xa881ULL);
  for (size_t i = 0; i < config_.num_clients; ++i) {
    clients.push_back(factory.CreateClient(static_cast<uint32_t>(i)));
    const ClientIdentity& id = clients.back()->identity();
    identity_by_ip_[id.ip.value()] = {id.type_name, id.is_human};
    arrivals.push_back(static_cast<TimeMs>(arrival_rng.UniformU64(
        static_cast<uint64_t>(std::max<TimeMs>(config_.arrival_window, 1)))));
  }

  const size_t threads = std::max<size_t>(config_.num_threads, 1);
  if (threads > 1) {
    RunClientsParallel(clients, arrivals, threads);
  } else {
    // Classic serial discrete-event loop: min-heap of (next step time,
    // client index). Note each client's step times depend only on its own
    // arrival and think delays — the heap orders clients but never moves
    // one client's clock for another — which is the invariant the parallel
    // path exploits.
    using QueueItem = std::pair<TimeMs, size_t>;
    std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> queue;
    for (size_t i = 0; i < clients.size(); ++i) {
      queue.emplace(arrivals[i], i);
    }
    // Crash schedule: events land between client steps in timestamp order,
    // so a crash at t wipes exactly the state built before t.
    const std::vector<TimeMs> crash_schedule =
        GenerateCrashSchedule(config_.crashes, config_.arrival_window + kDay);
    size_t next_crash = 0;
    Gateway gateway(proxy_.get(), &clock_);
    uint64_t steps = 0;
    while (!queue.empty()) {
      const auto [when, idx] = queue.top();
      queue.pop();
      clock_.AdvanceTo(when);
      while (next_crash < crash_schedule.size() && crash_schedule[next_crash] <= clock_.Now()) {
        proxy_->SimulateCrashRestart(crash_schedule[next_crash] + config_.crashes.restart_delay);
        ++next_crash;
        ++crashes_applied_;
      }
      const auto next_delay = clients[idx]->Step(clock_.Now(), gateway);
      if (next_delay.has_value()) {
        queue.emplace(clock_.Now() + std::max<TimeMs>(*next_delay, 1), idx);
      }
      if (++steps % (1u << 18) == 0) {
        ROBODET_LOG(kInfo) << "experiment steps=" << steps
                           << " t=" << FormatDuration(clock_.Now())
                           << " active_sessions=" << proxy_->sessions().active_count();
      }
    }
  }

  // Let the idle timeout elapse so every session closes "naturally".
  clock_.Advance(2 * kHour);
  proxy_->sessions().CloseAll();

  // Canonical order: close-callback order is shard order serially and
  // worker-completion order in parallel runs; (first_request, session_id)
  // is a total order on real sessions, making records() comparable across
  // modes and runs.
  std::sort(records_.begin(), records_.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return std::tie(a.first_request, a.session_id) <
                     std::tie(b.first_request, b.session_id);
            });

  for (const auto& client : clients) {
    TypeStats& ts = type_stats_[client->identity().type_name];
    ++ts.clients;
    ts.requests += client->stats().requests;
    ts.blocked += client->stats().blocked;
  }
}

void Experiment::RunClientsParallel(std::vector<std::unique_ptr<Client>>& clients,
                                    const std::vector<TimeMs>& arrivals, size_t threads) {
  std::atomic<size_t> next{0};
  std::atomic<TimeMs> end_time{0};
  auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= clients.size()) {
        break;
      }
      // The whole client runs here, on a private clock seeded from its
      // arrival time: its request timestamps are arrival + its own think
      // delays, exactly what the serial heap would have given it.
      SimClock client_clock;
      Gateway gateway(proxy_.get(), &client_clock);
      TimeMs when = arrivals[i];
      for (;;) {
        client_clock.AdvanceTo(when);
        const auto next_delay = clients[i]->Step(client_clock.Now(), gateway);
        if (!next_delay.has_value()) {
          break;
        }
        when = client_clock.Now() + std::max<TimeMs>(*next_delay, 1);
      }
      TimeMs seen = end_time.load(std::memory_order_relaxed);
      while (client_clock.Now() > seen &&
             !end_time.compare_exchange_weak(seen, client_clock.Now(),
                                             std::memory_order_relaxed)) {
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& th : pool) {
    th.join();
  }
  // Land the shared clock on the latest client timeline so the post-run
  // idle advance and CloseAll see the same "end of experiment" as a serial
  // run would.
  clock_.AdvanceTo(end_time.load(std::memory_order_relaxed));
}

std::vector<const SessionRecord*> Experiment::RecordsWithMinRequests(int min_requests) const {
  std::vector<const SessionRecord*> out;
  for (const SessionRecord& r : records_) {
    if (r.request_count() > min_requests) {
      out.push_back(&r);
    }
  }
  return out;
}

}  // namespace robodet
