#include "harness/driver.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/barrier.hpp"

namespace hohtm::harness {

TimedRun run_timed(int threads, int footprint_ms,
                   const std::function<void(int)>& body) {
  using Clock = std::chrono::steady_clock;
  const bool sampling = footprint_ms > 0;
  const auto workers = static_cast<std::size_t>(threads);
  util::SpinBarrier barrier(workers + (sampling ? 1 : 0));
  std::vector<Clock::time_point> starts(workers);
  std::vector<Clock::time_point> ends(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const auto slot = static_cast<std::size_t>(t);
      barrier.arrive_and_wait();  // line up the start
      starts[slot] = Clock::now();
      body(t);
      ends[slot] = Clock::now();
    });
  }

  TimedRun run;
  std::mutex sampler_mu;
  std::condition_variable sampler_cv;
  bool stop_sampler = false;  // guarded by sampler_mu
  std::thread sampler;
  if (sampling) {
    sampler = std::thread([&] {
      barrier.arrive_and_wait();
      const auto t0 = Clock::now();
      const auto period = std::chrono::milliseconds(footprint_ms);
      auto deadline = t0 + period;
      std::unique_lock<std::mutex> lock(sampler_mu);
      for (;;) {
        const double t_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        run.footprint.push_back(FootprintSample{t_ms, reclaim::Gauge::live()});
        if (sampler_cv.wait_until(lock, deadline, [&] { return stop_sampler; }))
          return;
        deadline += period;
      }
    });
  }
  for (auto& th : pool) th.join();
  if (sampler.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mu);
      stop_sampler = true;
    }
    sampler_cv.notify_one();
    sampler.join();
  }
  if (threads > 0)
    run.seconds = std::chrono::duration<double>(
                      *std::max_element(ends.begin(), ends.end()) -
                      *std::min_element(starts.begin(), starts.end()))
                      .count();
  return run;
}

void CellResult::add(const std::string& name, std::uint64_t value) {
  for (auto& [column_name, total] : columns)
    if (column_name == name) {
      total += value;
      return;
    }
  columns.emplace_back(name, value);
}

std::uint64_t CellResult::column(const std::string& name) const {
  for (const auto& [column_name, total] : columns)
    if (column_name == name) return total;
  return 0;
}

void CellResult::add_trial(const TimedRun& run, std::uint64_t trial_ops,
                           long long live_baseline) {
  ops += trial_ops;
  trial_mops_.push_back(
      run.seconds > 0.0 ? static_cast<double>(trial_ops) / run.seconds / 1e6
                        : 0.0);
  mops = util::summarize(trial_mops_);
  counters.accumulate(tm::Stats::total());
  latency.merge(util::Metrics::total());

  const long long end_live =
      static_cast<long long>(reclaim::Gauge::live()) - live_baseline;
  live_peak = std::max(live_peak, end_live);
  if (run.footprint.empty()) return;
  footprint.clear();
  for (const FootprintSample& s : run.footprint) {
    footprint.push_back(FootprintSample{s.t_ms, s.live - live_baseline});
    live_peak = std::max(live_peak, s.live - live_baseline);
  }
}

}  // namespace hohtm::harness
