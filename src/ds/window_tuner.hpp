#pragma once

#include <cstdint>

#include "ds/window_policy.hpp"
#include "tm/config.hpp"
#include "util/per_thread.hpp"

namespace hohtm::ds {

/// Dynamic window-size tuning — the future work the paper could not
/// build: "Doing so will entail hand-crafting the transactions, instead
/// of using GCC TM support: GCC TM does not expose the fact of an abort,
/// or its cause, to the programmer" (Section 5.2). This library owns its
/// TM, so the per-cause telemetry in tm::Stats is one read away, and the
/// paper's suggested contention-driven policy becomes implementable.
///
/// The signal is StatCounters::contention_signal(), NOT raw `aborts`:
/// in hand-over-hand operations contention also surfaces as revoked
/// reservations and operation restarts in which every transaction
/// *commits* — an abort-only tuner is blind to exactly the window-shaped
/// contention it is supposed to damp. See docs/ALGORITHMS.md ("Abort
/// taxonomy and adaptive window").
///
/// Policy (multiplicative decrease / streak-based increase, per thread):
///  - an operation that suffered any contention event (TM abort, observed
///    revocation of its reservation, or a restart) halves the window
///    (floor min_window): contention favours smaller windows (Figure 4);
///  - `kGrowStreak` consecutive contention-free operations double it
///    (ceiling max_window): quiet periods favour fewer transaction
///    boundaries.
///
/// With a nonzero `fusion_cap` the tuner additionally governs window
/// fusion (ds::FusionState): a thread whose clean streak has reached
/// `kFuseStreak` gets a per-operation budget of boundary elisions, and
/// any contention event revokes it along with halving the window. The
/// gate rides the same clean streak because fusion is a strictly more
/// aggressive bet than a bigger window — it enlarges a single
/// transaction's read set — so it should only be granted on evidence
/// quieter than "has not aborted just now".
class WindowTuner {
 public:
  explicit WindowTuner(int min_window, int max_window,
                       int fusion_cap = 0) noexcept
      : min_window_(min_window),
        max_window_(max_window),
        fusion_cap_(fusion_cap) {}

  /// Call at operation start; returns the window to use plus the fusion
  /// budget this thread has earned, and remembers the contention
  /// counters to diff against in `observe`.
  WindowPlan plan_op() noexcept {
    State& s = mine();
    if (s.window == 0) s.window = initial_window();
    s.signal_at_start = tm::Stats::mine().contention_signal();
    WindowPlan plan;
    plan.window = s.window;
    plan.fusion_budget =
        (fusion_cap_ > 0 && s.clean_streak >= kFuseStreak) ? fusion_cap_ : 0;
    return plan;
  }

  /// Window-only variant of plan_op (pre-fusion callers, diagnostics).
  int begin_op() noexcept { return plan_op().window; }

  /// Grant fusion budgets once a thread's clean streak reaches
  /// kFuseStreak (0 disables). Install before sharing across threads.
  void set_fusion_cap(int cap) noexcept { fusion_cap_ = cap; }

  /// Call when the operation completes; adapts the thread's window.
  void observe() noexcept {
    State& s = mine();
    const std::uint64_t signal = tm::Stats::mine().contention_signal();
    if (signal < s.signal_at_start) {
      // The counters moved *backwards*: they were reset mid-stream (the
      // harness calls tm::Stats::reset() between trials), not contended.
      // Re-arm the baseline; halving here would spuriously shrink every
      // thread's window on the first post-reset operation.
      s.signal_at_start = signal;
      return;
    }
    if (signal > s.signal_at_start) {
      s.window = s.window / 2 < min_window_ ? min_window_ : s.window / 2;
      s.clean_streak = 0;
      return;
    }
    if (++s.clean_streak >= kGrowStreak) {
      if (s.window * 2 <= max_window_) {
        s.window *= 2;
        s.clean_streak = 0;
      } else {
        // At the ceiling: saturate instead of wrapping, so the fusion
        // gate (clean_streak >= kFuseStreak) stays open at steady state.
        s.clean_streak = kGrowStreak;
      }
    }
  }

  /// Current per-thread window (diagnostics).
  int current() noexcept {
    State& s = mine();
    return s.window == 0 ? initial_window() : s.window;
  }

  static constexpr int kGrowStreak = 32;
  static constexpr int kFuseStreak = 8;

 private:

  struct State {
    std::uint64_t generation = 0;  // owning thread's lifetime stamp
    int window = 0;                // 0 = uninitialized for this thread
    int clean_streak = 0;
    std::uint64_t signal_at_start = 0;
  };

  int initial_window() const noexcept {
    // Geometric midpoint of the range, rounded to a power of two.
    int w = min_window_;
    while (w < max_window_ && w * w < min_window_ * max_window_) w *= 2;
    return w;
  }

  /// Thread slots are recycled (util::ThreadRegistry), so a new thread
  /// may land on a departed thread's slot. Its State must not be
  /// inherited — a stale shrunken window or half-built clean streak would
  /// mistune the newcomer — so the state is scrubbed whenever the slot's
  /// recorded generation differs from the calling thread's.
  State& mine() noexcept {
    State& s = states_.mine();
    const std::uint64_t gen = util::ThreadRegistry::generation();
    if (s.generation != gen) {
      s = State{};
      s.generation = gen;
    }
    return s;
  }

  const int min_window_;
  const int max_window_;
  int fusion_cap_;
  util::PerThread<State> states_;
};

}  // namespace hohtm::ds
