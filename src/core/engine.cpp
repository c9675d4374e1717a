#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>
#include <vector>

#include "core/dispq.hpp"
#include "core/objects.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/error.hpp"

namespace vppb::core {
namespace {

using trace::Op;


constexpr int kInitialTsLevel = 29;  // the Solaris TS default user level

/// Simulated thread control block.
struct Th {
  ThreadId tid = 0;
  /// Flat step cursor into the FlatProgram's arena-backed stream: the
  /// hot path advances one pointer instead of a (map node, index) pair.
  const Step* sp = nullptr;
  const Step* sp_end = nullptr;
  const FlatThread* ft = nullptr;

  enum class St { kUnborn, kReady, kRunning, kBlocked, kSleeping, kDone };
  St st = St::kUnborn;

  /// kCompute runs Step::cpu then applies the op; kOpCost runs the
  /// (possibly scaled) Step::op_cost then advances to the next step.
  enum class Phase { kCompute, kOpCost };
  Phase phase = Phase::kCompute;
  SimTime remaining;

  SimTime ready_at;  ///< dispatch eligibility when kReady (comm delay)
  SimTime wake_at;   ///< timer when kSleeping

  int prio = 0;
  bool prio_overridden = false;
  bool suspended = false;      ///< thr_suspend replay: ineligible to run
  bool pending_suspend = false;
  bool bound = false;
  int bound_cpu = -1;
  int lwp = -1;
  int last_cpu = -1;
  std::uint64_t lib_seq = 0;

  /// What a blocked/sleeping thread is waiting for, so the waker can
  /// finish the operation on its behalf (direct handoff).
  enum class Wait {
    kNone,
    kMutex,
    kSema,
    kCond,            ///< in cond queue; then must acquire wait_mutex
    kSleepThenMutex,  ///< timed-out cond_timedwait: delay, then mutex
    kRwRead,
    kRwWrite,
    kJoin,
    kJoinAny,
    kBarrier,         ///< broadcaster blocked by the barrier rule
    kMutexReacquire,  ///< re-taking mutexes released at a barrier block
    kIoSleep,         ///< extension: waiting out a recorded I/O latency
  };
  Wait wait = Wait::kNone;
  std::uint32_t wait_obj = 0;
  std::uint32_t wait_mutex = 0;
  ThreadId join_target = 0;

  bool reaped = false;
  bool exited = false;

  // Library-level dispatch-queue bookkeeping.
  std::int32_t idx = -1;        ///< position in the dense thread table
  bool in_rq = false;           ///< queued waiting for an LWP
  std::int32_t rq_bucket = -1;  ///< bucket it was queued into
  std::uint32_t rq_epoch = 0;   ///< stamp for lazy queue deletion

  // Timeline bookkeeping.
  SimTime state_since;
  SegState seg_state = SegState::kBlocked;
  int seg_cpu = -1;
  std::ptrdiff_t open_event = -1;

  /// On the phase-completion due list (see Engine::note_phase_due).
  bool in_phase_due = false;

  const Step& current_step() const { return *sp; }
  bool has_steps_left() const { return sp < sp_end; }
};

/// Simulated LWP (kernel thread).
struct Lwp {
  int id = -1;
  int ts_level = kInitialTsLevel;
  SimTime quantum_left;
  std::uint64_t disp_seq = 0;
  SimTime running_total;     ///< accumulated on-CPU time (stats)
  std::uint64_t dispatches = 0;
  SimTime enqueued_at;       ///< when it last became dispatchable-not-running
  ThreadId thread = ult::kNoThread;
  struct Th* th = nullptr;   ///< cached pointer to the attached thread
  SimTime seg_since;         ///< LWP-gantt bookkeeping
  ThreadId seg_thread = 0;
  int seg_cpu = -1;
  int cpu = -1;
  bool dedicated = false;    ///< owned by a bound thread
  int bound_cpu = -1;
  bool slept = false;        ///< pending sleep-return boost
  bool in_free_heap = false; ///< queued in the free-LWP heap
  bool in_unplaced = false;  ///< on the attached-but-unplaced list
  bool in_quantum_due = false;  ///< on the quantum-expiry due list
};

class Engine {
 public:
  Engine() = default;

  /// One full simulation against this engine's workspace.  Every
  /// container is reset — not reallocated — at entry, so repeat runs
  /// (the batched sweep path) are allocation-free in steady state.
  /// The reset also recovers from a previous run that threw (guard
  /// budget trips leave the workspace dirty).
  SimResult run(const CompiledTrace& compiled, const SimConfig& cfg,
                const RunGuard* guard);

 private:
  SimResult run_body();
  void reset_workspace();

  /// Any mutation that can change a scheduling decision (thread state,
  /// queue membership, placement, priority, eligibility) bumps this
  /// clock; assign() and the contention probe memoize on it.
  void note_sched_change() { ++sched_clock_; }

  /// Called wherever a thread can end up running with zero remaining
  /// demand — the phase-completion condition process_due_now() used to
  /// rediscover by scanning every CPU.
  void note_phase_due(Th& t) {
    if (!t.in_phase_due && t.st == Th::St::kRunning && t.remaining.is_zero()) {
      t.in_phase_due = true;
      phase_due_.push_back(t.idx);
    }
  }

  /// Same for the quantum-expiry condition (placed LWP, quantum spent).
  void note_quantum_due(Lwp& lwp) {
    if (!lwp.in_quantum_due && lwp.cpu >= 0 && lwp.quantum_left.is_zero()) {
      lwp.in_quantum_due = true;
      quantum_due_.push_back(lwp.id);
    }
  }

  // ---- resource governance ----
  // Per-step checkpoint: cancellation + step budget every step; the
  // wall clock and result footprint only every 1024 steps (a clock
  // read per step would be measurable).
  void guard_step_check() {
    guard_->check_cancel();
    guard_->check_steps(ec_.steps);
    if ((ec_.steps & 1023u) == 0) {
      guard_->check_wall();
      guard_->check_result_bytes(approx_result_bytes());
    }
  }

  std::size_t approx_result_bytes() const {
    return result_.segments.capacity() * sizeof(Segment) +
           result_.events.capacity() * sizeof(SimEvent) +
           result_.lwp_segments.capacity() * sizeof(LwpSegment);
  }

  // ---- setup ----
  void init_threads();
  Lwp& new_lwp(bool dedicated, int bound_cpu);

  // ---- scheduling ----
  void assign();
  void attach_unbound_threads();
  void dispatch_lwps();
  void dispatch_linear();
  void place(Lwp& lwp, int cpu);
  void unplace(Lwp& lwp);
  void emit_lwp_segment(Lwp& lwp);
  bool dispatchable(const Lwp& lwp) const;
  bool lwp_waiting_for_cpu() const;

  // ---- dispatch-queue bookkeeping ----
  int rank_of(int prio) const;
  void rq_put(Th& t);       ///< sync a thread's library-queue membership
  void rq_take_out(Th& t);  ///< invalidate its queue entry, if any
  Lwp* acquire_free_lwp();
  void mark_free(Lwp& lwp);
  void mark_unplaced(Lwp& lwp);
  void defer_ready(const Th& t);  ///< arm a timer for a future ready_at
  void push_timer(SimTime when, const Th& t, bool sleep);

  // ---- execution ----
  bool process_due_now();
  /// O(1) probe: can process_due_now() possibly do anything at now_?
  /// Every due condition it handles is fed by the due lists or the
  /// timer heap, so empty lists + no ripe timer means a guaranteed
  /// no-op call, which the fixpoint loop skips.
  bool any_due() const {
    return !phase_due_.empty() || !quantum_due_.empty() ||
           (!timers_.empty() && timers_.front().when <= now_);
  }
  void apply_op(Th& t);
  void enter_op_cost(Th& t);
  void advance_step(Th& t);
  void finish_thread(Th& t);

  // ---- blocking / waking ----
  void block(Th& t, Th::Wait wait, std::uint32_t obj);
  void unblock(Th& t);
  void complete_op_for(Th& t);
  bool try_take_mutex(Th& t, std::uint32_t mutex_id);
  void do_unlock_mutex(Th& t, std::uint32_t mutex_id);
  void continue_reacquire(Th& t);
  void acquire_mutex_or_block(Th& t, std::uint32_t mutex_id);
  void wake_from_cond(Th& t);
  void spawn_thread(ThreadId tid, SimTime at);
  void thread_exited(Th& t);
  SimTime wake_delay(const Th& woken) const;

  // ---- op handlers ----
  void op_create(Th& t, const Step& s);
  void op_join(Th& t, const Step& s);
  void op_mutex(Th& t, const Step& s);
  void op_sema(Th& t, const Step& s);
  void op_cond(Th& t, const Step& s);
  void op_rwlock(Th& t, const Step& s);

  // ---- time & bookkeeping ----
  double rate_factor() const;
  SimTime next_event_time();
  void advance_to(SimTime when);
  void set_state(Th& t, Th::St st);
  void emit_segment(Th& t, SimTime upto);
  SegState seg_state_of(Th::St st) const;
  [[noreturn]] void replay_deadlock();

  Th& th(ThreadId tid);
  int idx_of(ThreadId tid) const;
  bool exists(ThreadId tid) const { return idx_of(tid) >= 0; }

  const CompiledTrace* compiled_ = nullptr;
  const SimConfig* cfg_ = nullptr;
  const RunGuard* guard_ = nullptr;  ///< null = no governance, zero cost
  /// The flat program being replayed.  The shared_ptr keeps the arena
  /// alive (and pins its address) for the whole run even if the caller
  /// drops the CompiledTrace: every Th::sp points into it.
  std::shared_ptr<const FlatProgram> prog_hold_;
  const FlatProgram* prog_ = nullptr;

  SimTime now_;
  // Dense thread table in ascending-tid order (Th::idx indexes it; the
  // table never grows after init, so Th* stay stable).
  std::vector<Th> threads_;
  std::vector<ThreadId> tids_;        ///< idx -> tid (sorted)
  std::vector<std::int32_t> tid_to_idx_;  ///< tid -> idx when tids are small
  std::vector<Lwp> lwps_;
  std::vector<ThreadId> cpu_running_;  // per CPU: running thread (by LWP)
  std::vector<int> cpu_lwp_;           // per CPU: placed LWP id (-1 idle)
  int idle_cpus_ = 0;                  // CPUs with no placed LWP
  ObjectTable objects_;
  std::vector<ThreadId> zombies_;      // exited, unreaped, in exit order
  WaitQueue any_joiners_;
  std::vector<WaitQueue> joiners_;     // by thread idx
  std::uint64_t next_lib_seq_ = 1;
  std::uint64_t next_disp_seq_ = 1;
  int unbound_pool_size_ = 0;
  int unbound_lwps_made_ = 0;
  int running_count_ = 0;

  // Library level: ready, unbound, unattached threads bucketed by user
  // priority (rank into prios_), ordered by lib_seq within a bucket.
  std::vector<int> prios_;  ///< sorted distinct user priorities
  DispQueue<Th*> rq_;

  /// Idle non-dedicated LWPs, one bit per LWP id.  Attach reuses the
  /// lowest-numbered free LWP first (like the heap it replaces), found
  /// by a countr_zero scan from free_hint_, the lowest word that can be
  /// non-zero.  free_count_ gives O(1) emptiness.
  std::vector<std::uint64_t> free_bits_;
  int free_hint_ = 0;
  std::size_t free_count_ = 0;
  /// LWPs with a thread but no CPU (stale entries dropped lazily).
  std::vector<int> unplaced_;
  /// Entries of unplaced_ that are still attached and still CPU-less —
  /// i.e. not stale.  Zero lets dispatch_lwps() skip the scan outright
  /// (stale husks then wait for the next live scan to be compacted).
  std::size_t unplaced_live_ = 0;

  /// Incremental due lists, replacing the per-iteration CPU scans of
  /// process_due_now(): every site that can make a running thread's
  /// remaining demand zero (or zero an LWP's quantum) enrolls it here,
  /// and the consumer revalidates — exactly the candidate-collection +
  /// revalidation the scans performed, without touching the CPUs that
  /// cannot be due.  The in_* flags keep entries unique.
  std::vector<std::int32_t> phase_due_;   ///< thread idx, unordered
  std::vector<int> quantum_due_;          ///< lwp id, unordered

  /// Pending wakeups: sleeper timers (wake_at) and future dispatch
  /// eligibility (ready_at), validated lazily against the thread.
  struct Timer {
    SimTime when;
    std::int32_t idx;
    bool sleep;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.when > b.when;
    }
  };
  std::vector<Timer> timers_;  ///< min-heap on `when`

  // Reusable scratch (hoisted out of the per-event hot paths).
  std::vector<int> due_scratch_;
  std::vector<Lwp*> disp_scratch_;
  std::vector<std::uint32_t> mutex_scratch_;

  // Per-thread cold data, indexed by Th::idx.  Out-of-line so Th stays
  // trivially copyable and the per-run thread-table rebuild is a plain
  // copy; the inner vectors keep their capacity across runs.
  std::vector<ThreadStats> stats_;
  std::vector<std::vector<std::uint32_t>> held_of_;   ///< mutexes held
  std::vector<std::vector<std::uint32_t>> reacq_of_;  ///< barrier re-take list
  std::size_t done_count_ = 0;  ///< threads in St::kDone

  // Scheduling memo.  assign() is a pure function of the scheduling
  // state; sched_clock_ (bumped by note_sched_change) plus now_
  // fingerprint that state.  After a pass that verifiably changed
  // nothing, identical fingerprints skip the pass outright — which is
  // exactly the re-run the old code performed after every event whose
  // op touched no scheduling state (uncontended locks, step advances).
  std::uint64_t sched_clock_ = 0;
  std::uint64_t last_assign_clock_ = 0;
  SimTime last_assign_now_;
  bool assign_memo_valid_ = false;
  /// Same fingerprint scheme for the is-any-LWP-waiting probe, which
  /// next_event_time and the quantum-expiry scan both issue per event.
  mutable std::uint64_t contended_clock_ = 0;
  mutable SimTime contended_now_;
  mutable bool contended_valid_ = false;
  mutable bool contended_val_ = false;

  /// Self-observation: plain (non-atomic) increments on the hot paths,
  /// published into result_.engine once at the end of run().  Keeping
  /// them out of the registry until then is what keeps the
  /// instrumented engine within the < 3% overhead budget.
  EngineCounters ec_;

  SimResult result_;
};

int Engine::idx_of(ThreadId tid) const {
  if (!tid_to_idx_.empty()) {
    return tid >= 0 && tid < static_cast<ThreadId>(tid_to_idx_.size())
               ? tid_to_idx_[static_cast<std::size_t>(tid)]
               : -1;
  }
  const auto it = std::lower_bound(tids_.begin(), tids_.end(), tid);
  return it != tids_.end() && *it == tid
             ? static_cast<int>(it - tids_.begin())
             : -1;
}

Th& Engine::th(ThreadId tid) {
  const int idx = idx_of(tid);
  VPPB_CHECK_MSG(idx >= 0, "simulated thread T" << tid << " does not exist");
  return threads_[static_cast<std::size_t>(idx)];
}

int Engine::rank_of(int prio) const {
  // prios_ holds every priority a thread can ever have in this run
  // (collected at init), so the lookup always hits.
  return static_cast<int>(
      std::lower_bound(prios_.begin(), prios_.end(), prio) - prios_.begin());
}

void Engine::rq_take_out(Th& t) {
  if (!t.in_rq) return;
  t.in_rq = false;
  ++t.rq_epoch;
  rq_.invalidate(t.rq_bucket);
}

/// Brings the library dispatch queue in line with the thread's state:
/// requeued (fresh bucket/seq) when it is ready, unbound, unattached
/// and not suspended; dequeued otherwise.  Idempotent.
void Engine::rq_put(Th& t) {
  note_sched_change();
  rq_take_out(t);
  if (t.bound || t.suspended || t.lwp != -1 || t.st != Th::St::kReady) return;
  t.rq_bucket = rank_of(t.prio);
  t.in_rq = true;
  rq_.insert(t.rq_bucket, &t, t.lib_seq, t.rq_epoch);
}

void Engine::mark_free(Lwp& lwp) {
  if (lwp.dedicated || lwp.in_free_heap) return;
  note_sched_change();
  lwp.in_free_heap = true;
  const std::size_t w = static_cast<std::size_t>(lwp.id) >> 6;
  if (free_bits_.size() <= w) free_bits_.resize(w + 1, 0);
  free_bits_[w] |= 1ull << (lwp.id & 63);
  if (static_cast<int>(w) < free_hint_) free_hint_ = static_cast<int>(w);
  ++free_count_;
}

void Engine::mark_unplaced(Lwp& lwp) {
  // Only ever called on an attached, CPU-less LWP that is not already
  // counted (placement and detachment both decrement), so the live
  // count moves in lock-step with the "attached and unplaced" set even
  // when the vector still holds the physical husk of an earlier stint.
  note_sched_change();
  ++unplaced_live_;
  if (lwp.in_unplaced) return;
  lwp.in_unplaced = true;
  unplaced_.push_back(lwp.id);
}

void Engine::push_timer(SimTime when, const Th& t, bool sleep) {
  timers_.push_back(Timer{when, t.idx, sleep});
  std::push_heap(timers_.begin(), timers_.end(), TimerLater{});
}

void Engine::defer_ready(const Th& t) {
  if (t.ready_at > now_) push_timer(t.ready_at, t, /*sleep=*/false);
}

SegState Engine::seg_state_of(Th::St st) const {
  switch (st) {
    case Th::St::kRunning: return SegState::kRunning;
    case Th::St::kReady: return SegState::kRunnable;
    case Th::St::kSleeping: return SegState::kSleeping;
    default: return SegState::kBlocked;
  }
}

void Engine::emit_segment(Th& t, SimTime upto) {
  if (upto > t.state_since) {
    if (cfg_->build_timeline) {
      result_.segments.push_back(
          Segment{t.tid, t.state_since, upto, t.seg_state, t.seg_cpu});
    }
    const SimTime d = upto - t.state_since;
    ThreadStats& stats = stats_[static_cast<std::size_t>(t.idx)];
    switch (t.seg_state) {
      case SegState::kRunning: stats.cpu_time += d; break;
      case SegState::kRunnable: stats.runnable_time += d; break;
      case SegState::kBlocked: stats.blocked_time += d; break;
      case SegState::kSleeping: stats.sleeping_time += d; break;
    }
  }
  t.state_since = upto;
}

void Engine::set_state(Th& t, Th::St st) {
  note_sched_change();
  if (t.st == Th::St::kRunning && st != Th::St::kRunning) --running_count_;
  if (t.st != Th::St::kRunning && st == Th::St::kRunning) ++running_count_;
  if (st == Th::St::kDone && t.st != Th::St::kDone) ++done_count_;
  emit_segment(t, now_);
  t.st = st;
  t.seg_state = seg_state_of(st);
  if (st != Th::St::kRunning) t.seg_cpu = -1;
}

// ---------------------------------------------------------------------------
// Setup

/// Flushes the LWP's current (thread, cpu) interval to the gantt and
/// restarts it with the current attachment/placement.
void Engine::emit_lwp_segment(Lwp& lwp) {
  // The seg_* fields exist only to feed the gantt; skip the bookkeeping
  // entirely when no timeline is wanted.
  if (!cfg_->build_timeline) return;
  if (now_ > lwp.seg_since && (lwp.seg_thread != 0 || lwp.seg_cpu >= 0)) {
    result_.lwp_segments.push_back(LwpSegment{
        lwp.id, lwp.seg_since, now_, lwp.seg_thread, lwp.seg_cpu});
  }
  lwp.seg_since = now_;
  lwp.seg_thread = lwp.thread == ult::kNoThread ? 0 : lwp.thread;
  lwp.seg_cpu = lwp.cpu;
}

Lwp& Engine::new_lwp(bool dedicated, int bound_cpu) {
  Lwp lwp;
  lwp.id = static_cast<int>(lwps_.size());
  lwp.quantum_left = cfg_->sched.ts_table.entry(lwp.ts_level).quantum;
  lwp.dedicated = dedicated;
  lwp.bound_cpu = bound_cpu;
  lwp.enqueued_at = now_;
  lwps_.push_back(lwp);
  return lwps_.back();
}

void Engine::init_threads() {
  // One-pass remap of the trace's thread ids onto dense indices (the
  // flat table is in ascending tid order).  Rebuilt per run — Th is a
  // plain copyable record now, so this is a bulk copy into storage the
  // previous run already sized.
  const std::size_t count = prog_->n_threads;
  threads_.clear();
  threads_.reserve(count);
  tids_.clear();
  tids_.reserve(count);
  tid_to_idx_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const FlatThread& ft = prog_->threads[i];
    Th t;
    t.tid = ft.tid;
    t.idx = static_cast<std::int32_t>(i);
    t.sp = ft.steps;
    t.sp_end = ft.steps + ft.n_steps;
    t.ft = &ft;
    const ThreadPolicy& pol = cfg_->sched.policy_of(ft.tid);
    t.prio_overridden = pol.override_priority;
    t.prio = pol.override_priority ? pol.priority : ft.initial_priority;
    if (pol.override_binding) {
      t.bound = pol.binding != Binding::kUnbound;
      t.bound_cpu = pol.binding == Binding::kBoundCpu ? pol.cpu : -1;
    } else {
      t.bound = ft.bound;
    }
    if (t.bound_cpu >= cfg_->hw.cpus) t.bound_cpu = cfg_->hw.cpus - 1;
    tids_.push_back(ft.tid);
    threads_.push_back(t);
  }
  // Direct tid -> idx table when the ids are reasonably dense;
  // hand-written traces with wild ids fall back to binary search.
  const ThreadId max_tid = tids_.empty() ? 0 : tids_.back();
  if (!tids_.empty() && tids_.front() >= 0 &&
      static_cast<std::size_t>(max_tid) <= 4 * count + 1024) {
    tid_to_idx_.assign(static_cast<std::size_t>(max_tid) + 1, -1);
    for (const Th& t : threads_)
      tid_to_idx_[static_cast<std::size_t>(t.tid)] = t.idx;
  }
  joiners_.resize(count);
  for (WaitQueue& q : joiners_) q.clear();
  stats_.assign(count, ThreadStats{});
  if (held_of_.size() < count) {
    held_of_.resize(count);
    reacq_of_.resize(count);
  }
  for (std::size_t i = 0; i < count; ++i) {
    held_of_[i].clear();
    reacq_of_[i].clear();
  }
  lwps_.clear();
  lwps_.reserve(count + static_cast<std::size_t>(cfg_->hw.cpus) + 4);

  // Every user priority a thread can ever hold: the initial/policy
  // priorities plus every thr_setprio argument in the trace.  The
  // dispatch-queue buckets are ranks into this table.
  prios_.clear();
  prios_.push_back(0);
  for (const Th& t : threads_) prios_.push_back(t.prio);
  prios_.insert(prios_.end(), compiled_->setprio_values.begin(),
                compiled_->setprio_values.end());
  std::sort(prios_.begin(), prios_.end());
  prios_.erase(std::unique(prios_.begin(), prios_.end()), prios_.end());
  rq_.configure(static_cast<int>(prios_.size()));

  // Per-kind object tables presized from the program's id bounds and
  // reset in place (wait-queue buffers survive).
  objects_.configure(*prog_);

  // Main starts at time zero; threads never created by a logged
  // thr_create (hand-written traces) appear at their first record.
  for (Th& t : threads_) {
    if (t.tid == 1) {
      spawn_thread(t.tid, SimTime::zero());
    } else if (!t.ft->created_in_log) {
      spawn_thread(t.tid, t.ft->first_record_at);
    }
  }
}

void Engine::spawn_thread(ThreadId tid, SimTime at) {
  Th& t = th(tid);
  VPPB_CHECK_MSG(t.st == Th::St::kUnborn, "T" << tid << " spawned twice");
  ThreadStats& stats = stats_[static_cast<std::size_t>(t.idx)];
  stats.tid = tid;
  stats.created_at = at;
  t.state_since = at;
  if (!t.has_steps_left()) {
    t.st = Th::St::kDone;  // metadata-only thread
    t.exited = true;
    ++done_count_;
    return;
  }
  t.remaining = t.current_step().cpu;
  t.phase = Th::Phase::kCompute;
  t.st = Th::St::kReady;
  t.seg_state = SegState::kRunnable;
  t.ready_at = at;
  t.lib_seq = next_lib_seq_++;
  if (t.bound) {
    Lwp& lwp = new_lwp(/*dedicated=*/true, t.bound_cpu);
    lwp.thread = tid;
    lwp.th = &t;
    t.lwp = lwp.id;
    mark_unplaced(lwp);
  } else {
    rq_put(t);
  }
  defer_ready(t);
}

// ---------------------------------------------------------------------------
// Scheduling: library level (threads -> LWPs) and kernel level (LWPs -> CPUs)

bool Engine::dispatchable(const Lwp& lwp) const {
  if (lwp.th == nullptr) return false;
  const Th& t = *lwp.th;
  if (t.suspended) return false;
  if (t.st == Th::St::kRunning) return true;
  return t.st == Th::St::kReady && t.ready_at <= now_;
}

/// Lowest-numbered free non-dedicated LWP, growing the unbound pool
/// lazily (up to its configured size) once the existing ones are busy.
Lwp* Engine::acquire_free_lwp() {
  while (free_count_ > 0) {
    std::size_t w = static_cast<std::size_t>(free_hint_);
    while (free_bits_[w] == 0) ++w;
    const std::uint64_t word = free_bits_[w];
    const int id = static_cast<int>((w << 6) +
                   static_cast<std::size_t>(std::countr_zero(word)));
    free_bits_[w] = word & (word - 1);
    free_hint_ = static_cast<int>(w);  // words below were seen empty
    --free_count_;
    Lwp& lwp = lwps_[static_cast<std::size_t>(id)];
    lwp.in_free_heap = false;
    if (!lwp.dedicated && lwp.thread == ult::kNoThread) return &lwp;
  }
  if (unbound_lwps_made_ < unbound_pool_size_) {
    ++unbound_lwps_made_;
    return &new_lwp(/*dedicated=*/false, -1);
  }
  return nullptr;
}

void Engine::attach_unbound_threads() {
  // When no LWP could possibly be acquired, the scan below would only
  // take the best eligible thread and put it straight back at the same
  // seq — a telescope this gate collapses.  (Stale free-heap entries
  // cannot exist: an entry is popped the moment it is consumed, so a
  // queued id is always genuinely free.)
  if (free_count_ == 0 && unbound_lwps_made_ >= unbound_pool_size_) return;
  // Nothing queued for an LWP: the scan below would walk an empty
  // bitmap.  (Live count, not emptiness: lazily-deleted husks do not
  // make a scan productive.)
  if (rq_.live() == 0) return;
  // Pop eligible threads off the library dispatch queue in (priority,
  // FIFO) order and pair each with the lowest free LWP — the same
  // pairing the sort-then-scan produced, without building either list.
  for (;;) {
    Th* t = rq_.scan([this](Th* cand, std::uint32_t epoch) {
      if (epoch != cand->rq_epoch) return DispQueue<Th*>::Visit::kDrop;
      if (cand->ready_at > now_) return DispQueue<Th*>::Visit::kSkip;
      return DispQueue<Th*>::Visit::kTake;
    });
    if (t == nullptr) return;
    t->in_rq = false;
    ++t->rq_epoch;
    Lwp* lwp = acquire_free_lwp();
    if (lwp == nullptr) {
      // No LWP for it: back to its exact queue position (same seq).
      t->in_rq = true;
      rq_.insert(t->rq_bucket, t, t->lib_seq, t->rq_epoch);
      return;
    }
    emit_lwp_segment(*lwp);
    lwp->thread = t->tid;
    lwp->th = t;
    lwp->seg_thread = t->tid;
    t->lwp = lwp->id;
    if (lwp->slept) {
      // The LWP was idle (asleep in the kernel); returning to the
      // dispatch queue boosts its TS level (ts_slpret).
      if (cfg_->sched.ts_dynamics) {
        lwp->ts_level = cfg_->sched.ts_table.entry(lwp->ts_level).on_sleep_return;
        lwp->quantum_left = cfg_->sched.ts_table.entry(lwp->ts_level).quantum;
      }
      lwp->slept = false;
    }
    lwp->disp_seq = next_disp_seq_++;
    lwp->enqueued_at = now_;
    mark_unplaced(*lwp);
  }
}

void Engine::place(Lwp& lwp, int cpu) {
  emit_lwp_segment(lwp);
  lwp.cpu = cpu;
  lwp.seg_cpu = cpu;
  cpu_lwp_[static_cast<std::size_t>(cpu)] = lwp.id;
  --idle_cpus_;
  Th& t = *lwp.th;
  cpu_running_[static_cast<std::size_t>(cpu)] = t.tid;
  ++result_.cpu_stats[static_cast<std::size_t>(cpu)].dispatches;
  ++lwp.dispatches;

  ++ec_.dispatches;
  const bool migrated = t.last_cpu != -1 && t.last_cpu != cpu;
  if (migrated) ++ec_.migrations;
  set_state(t, Th::St::kRunning);
  t.seg_cpu = cpu;
  if (migrated) t.remaining += cfg_->hw.migration_penalty;
  t.remaining += cfg_->cost.context_switch_cost;
  t.last_cpu = cpu;
  --unplaced_live_;
  note_phase_due(t);
  note_quantum_due(lwp);
}

void Engine::unplace(Lwp& lwp) {
  if (lwp.cpu < 0) return;
  emit_lwp_segment(lwp);
  lwp.seg_cpu = -1;
  cpu_lwp_[static_cast<std::size_t>(lwp.cpu)] = -1;
  cpu_running_[static_cast<std::size_t>(lwp.cpu)] = ult::kNoThread;
  ++idle_cpus_;
  lwp.cpu = -1;
  if (lwp.th != nullptr) {
    Th& t = *lwp.th;
    if (t.st == Th::St::kRunning) set_state(t, Th::St::kReady);
    lwp.enqueued_at = now_;
    mark_unplaced(lwp);
  }
}

void Engine::dispatch_lwps() {
  if (unplaced_live_ == 0) return;
  const auto& table = cfg_->sched.ts_table;

  // One pass over the unplaced list: drop stale entries (placed or
  // detached since), apply starvation relief (ts_lwait) per waiter,
  // and collect the dispatchable ones.
  disp_scratch_.clear();
  std::size_t keep = 0;
  for (std::size_t r = 0; r < unplaced_.size(); ++r) {
    const int lid = unplaced_[r];
    Lwp& lwp = lwps_[static_cast<std::size_t>(lid)];
    if (lwp.cpu >= 0 || lwp.thread == ult::kNoThread) {
      lwp.in_unplaced = false;
      continue;
    }
    unplaced_[keep++] = lid;
    if (!dispatchable(lwp)) continue;
    if (cfg_->sched.ts_dynamics) {
      const TsEntry& e = table.entry(lwp.ts_level);
      if (now_ - lwp.enqueued_at > e.max_wait) {
        lwp.ts_level = e.on_starve;
        lwp.quantum_left = table.entry(lwp.ts_level).quantum;
        lwp.enqueued_at = now_;
      }
    }
    disp_scratch_.push_back(&lwp);
  }
  unplaced_.resize(keep);
  if (disp_scratch_.empty()) return;
  ++ec_.sched_passes;
  ec_.max_runq_depth =
      std::max<std::uint64_t>(ec_.max_runq_depth, disp_scratch_.size());
  dispatch_linear();
}

/// Kernel-level selection by linear scan of disp_scratch_, in the
/// Solaris dispatch order (user prio, TS level, FIFO) — a total order,
/// since disp_seq is unique.  The waiter list is rebuilt every pass, so
/// bucketing it first costs more than it saves, even with ~555 waiters.
void Engine::dispatch_linear() {
  auto better = [](const Lwp& a, const Lwp& b) {
    const int ua = a.th->prio, ub = b.th->prio;
    if (ua != ub) return ua > ub;
    if (a.ts_level != b.ts_level) return a.ts_level > b.ts_level;
    return a.disp_seq < b.disp_seq;
  };
  auto take = [this](std::size_t i) {
    Lwp* out = disp_scratch_[i];
    disp_scratch_[i] = disp_scratch_.back();
    disp_scratch_.pop_back();
    return out;
  };
  const std::size_t npos = static_cast<std::size_t>(-1);

  // Fill idle CPUs in ascending order with the best allowed waiter.
  for (int cpu = 0; idle_cpus_ > 0 && cpu < cfg_->hw.cpus && !disp_scratch_.empty();
       ++cpu) {
    if (cpu_lwp_[static_cast<std::size_t>(cpu)] != -1) continue;
    std::size_t best = npos;
    for (std::size_t i = 0; i < disp_scratch_.size(); ++i) {
      const Lwp& cand = *disp_scratch_[i];
      if (cand.bound_cpu >= 0 && cand.bound_cpu != cpu) continue;
      if (best == npos || better(cand, *disp_scratch_[best])) best = i;
    }
    if (best != npos) place(*take(best), cpu);
  }

  // Preemption: the strongest waiter evicts the weakest running LWP it
  // may run on; stop at the first contender without a strictly weaker
  // (user prio, TS level) victim.
  while (!disp_scratch_.empty()) {
    std::size_t ci = 0;
    for (std::size_t i = 1; i < disp_scratch_.size(); ++i) {
      if (better(*disp_scratch_[i], *disp_scratch_[ci])) ci = i;
    }
    Lwp* contender = disp_scratch_[ci];
    int victim_cpu = -1;
    std::pair<int, int> victim_key(contender->th->prio, contender->ts_level);
    for (int cpu = 0; cpu < cfg_->hw.cpus; ++cpu) {
      const int lid = cpu_lwp_[static_cast<std::size_t>(cpu)];
      if (lid < 0) continue;
      if (contender->bound_cpu >= 0 && contender->bound_cpu != cpu) continue;
      const Lwp& running = lwps_[static_cast<std::size_t>(lid)];
      const std::pair<int, int> running_key(
          running.th == nullptr ? 0 : running.th->prio, running.ts_level);
      if (running_key < victim_key) {
        victim_key = running_key;
        victim_cpu = cpu;
      }
    }
    if (victim_cpu < 0) break;
    Lwp& victim = lwps_[static_cast<std::size_t>(
        cpu_lwp_[static_cast<std::size_t>(victim_cpu)])];
    ++ec_.preemptions;
    unplace(victim);
    place(*take(ci), victim_cpu);
  }
}

void Engine::assign() {
  // Memoized fixpoint: skip the whole pass while the scheduling state
  // still fingerprints identically to a state where a full pass
  // verifiably changed nothing.  Sound because every scheduling input
  // bumps sched_clock_ (see note_sched_change callers) and re-running
  // an assignment pass at an unchanged state reproduces its no-op:
  // starvation relief cannot re-fire at the same now_ (enqueued_at was
  // reset), and stale-entry compaction is semantically invisible.
  if (assign_memo_valid_ && sched_clock_ == last_assign_clock_ &&
      now_ == last_assign_now_) {
    return;
  }
  const std::uint64_t before = sched_clock_;
  attach_unbound_threads();
  dispatch_lwps();
  // Only a pass that changed nothing proves the state is a fixpoint; a
  // pass that placed or preempted may have enabled further moves, and
  // the old always-rerun code would have found them next call.
  assign_memo_valid_ = sched_clock_ == before;
  last_assign_clock_ = sched_clock_;
  last_assign_now_ = now_;
}

// ---------------------------------------------------------------------------
// Execution

bool Engine::lwp_waiting_for_cpu() const {
  // Every attached LWP without a CPU is on unplaced_ (stale entries are
  // compacted by dispatch_lwps; here they are just skipped).  The probe
  // runs several times per event, so memoize it on the same
  // (sched_clock_, now_) fingerprint assign() uses.
  if (contended_valid_ && contended_clock_ == sched_clock_ &&
      contended_now_ == now_) {
    return contended_val_;
  }
  bool waiting = false;
  for (const int lid : unplaced_) {
    const Lwp& lwp = lwps_[static_cast<std::size_t>(lid)];
    if (lwp.cpu < 0 && dispatchable(lwp)) {
      waiting = true;
      break;
    }
  }
  contended_valid_ = true;
  contended_clock_ = sched_clock_;
  contended_now_ = now_;
  contended_val_ = waiting;
  return waiting;
}

double Engine::rate_factor() const {
  const double alpha = cfg_->hw.memory_contention_alpha;
  if (alpha <= 0.0 || running_count_ <= 1) return 1.0;
  return 1.0 + alpha * static_cast<double>(running_count_ - 1);
}

SimTime Engine::next_event_time() {
  SimTime next = SimTime::max();
  const double rate = rate_factor();
  // Quantum expiry only changes anything when an LWP is waiting for a
  // CPU; without contention the expiry (level decay + quantum refresh)
  // is applied lazily at the next natural event, which avoids flooding
  // long uncontended computations with expiry events.
  const bool contended = lwp_waiting_for_cpu();
  // Running threads are exactly the placed LWPs' threads.  rate == 1.0
  // (no memory contention) keeps the arithmetic integral: scaled(1.0)
  // is the identity for any representable duration.
  for (int cpu = 0; cpu < cfg_->hw.cpus; ++cpu) {
    const int lid = cpu_lwp_[static_cast<std::size_t>(cpu)];
    if (lid < 0) continue;
    const Lwp& lwp = lwps_[static_cast<std::size_t>(lid)];
    const SimTime rem = lwp.th->remaining;
    next = std::min(next, now_ + (rate == 1.0 ? rem : rem.scaled(rate)));
    if (contended) next = std::min(next, now_ + lwp.quantum_left);
  }
  // Sleep (wake_at) and deferred-ready (ready_at) timers, validated
  // lazily: a timer whose thread has moved on, or that is already due
  // (every due timer was consumed by process_due_now), is discarded.
  while (!timers_.empty()) {
    const Timer& top = timers_.front();
    if (top.when > now_) {
      const Th& t = threads_[static_cast<std::size_t>(top.idx)];
      const bool armed =
          top.sleep ? t.st == Th::St::kSleeping && t.wake_at == top.when
                    : t.st == Th::St::kReady && t.ready_at == top.when;
      if (armed) {
        next = std::min(next, top.when);
        break;
      }
    }
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    timers_.pop_back();
  }
  return next;
}

void Engine::advance_to(SimTime when) {
  VPPB_CHECK_MSG(when >= now_, "time went backwards in the simulator");
  const SimTime dt = when - now_;
  if (dt.is_zero()) return;
  const double rate = rate_factor();
  for (int cpu = 0; cpu < cfg_->hw.cpus; ++cpu) {
    const int lid = cpu_lwp_[static_cast<std::size_t>(cpu)];
    if (lid < 0) continue;
    Lwp& lwp = lwps_[static_cast<std::size_t>(lid)];
    Th& t = *lwp.th;
    SimTime progress = rate == 1.0 ? dt : dt.scaled(1.0 / rate);
    if (progress > t.remaining) progress = t.remaining;
    t.remaining -= progress;
    lwp.quantum_left =
        lwp.quantum_left > dt ? lwp.quantum_left - dt : SimTime::zero();
    lwp.running_total += dt;
    result_.cpu_stats[static_cast<std::size_t>(cpu)].busy += dt;
    note_phase_due(t);
    note_quantum_due(lwp);
  }
  now_ = when;
}

/// Handles everything due at `now_`: sleepers waking, quantum expiries,
/// and threads whose current phase has no demand left.  Returns true if
/// any state changed (so the caller re-runs assignment).
bool Engine::process_due_now() {
  bool changed = false;

  // Timer wakeups (timed-out cond_timedwait and I/O-latency replays).
  // Pop every due timer, keep the sleeper ones, and process them in
  // ascending thread order (idx order == tid order) with the state
  // revalidated per thread — duplicates and timers whose thread was
  // woken by other means fall out of the revalidation.
  due_scratch_.clear();
  while (!timers_.empty() && timers_.front().when <= now_) {
    const Timer top = timers_.front();
    std::pop_heap(timers_.begin(), timers_.end(), TimerLater{});
    timers_.pop_back();
    if (top.sleep) due_scratch_.push_back(top.idx);
  }
  if (!due_scratch_.empty()) {
    if (due_scratch_.size() > 1)
      std::sort(due_scratch_.begin(), due_scratch_.end());
    for (const int idx : due_scratch_) {
      Th& t = threads_[static_cast<std::size_t>(idx)];
      if (t.st != Th::St::kSleeping || t.wake_at > now_) continue;
      ++ec_.timer_wakeups;
      if (t.wait == Th::Wait::kIoSleep) {
        t.wait = Th::Wait::kNone;
        set_state(t, Th::St::kReady);
        t.ready_at = now_;
        t.lib_seq = next_lib_seq_++;
        complete_op_for(t);
        rq_put(t);
        changed = true;
        continue;
      }
      VPPB_CHECK(t.wait == Th::Wait::kSleepThenMutex);
      t.wait = Th::Wait::kNone;
      const std::uint32_t mutex_id = t.wait_mutex;
      set_state(t, Th::St::kReady);  // placeholder; acquire may re-block
      t.ready_at = now_;
      t.lib_seq = next_lib_seq_++;
      acquire_mutex_or_block(t, mutex_id);
      changed = true;
    }
  }

  // Quantum expiry: the running LWP's level decays and — when another
  // LWP is waiting for a CPU — it goes to the back of the dispatch
  // queue.  Without contention the refresh happens in place.  The due
  // list is exactly the candidate set the old per-CPU scan collected
  // (every site that can zero a placed LWP's quantum enrolls it), with
  // the same revalidation and the same ascending LWP-id order.
  if (!quantum_due_.empty()) {
    due_scratch_.assign(quantum_due_.begin(), quantum_due_.end());
    quantum_due_.clear();
    if (due_scratch_.size() > 1)
      std::sort(due_scratch_.begin(), due_scratch_.end());
    const bool contended = lwp_waiting_for_cpu();
    for (const int lid : due_scratch_) {
      Lwp& lwp = lwps_[static_cast<std::size_t>(lid)];
      lwp.in_quantum_due = false;
      if (lwp.cpu < 0 || !lwp.quantum_left.is_zero()) continue;
      if (cfg_->sched.ts_dynamics)
        lwp.ts_level = cfg_->sched.ts_table.entry(lwp.ts_level).on_expiry;
      lwp.quantum_left = cfg_->sched.ts_table.entry(lwp.ts_level).quantum;
      if (contended) {
        lwp.disp_seq = next_disp_seq_++;
        unplace(lwp);
        changed = true;
      } else {
        // A zero quantum in the TS table would leave it due; keep the
        // candidate set complete, as the rescans did.
        note_quantum_due(lwp);
      }
    }
  }

  // Phase completions for running threads, in deterministic tid order.
  // Snapshot the due list: completions created while processing (a
  // zero-cost op entering its next zero phase) belong to the next
  // round, exactly as they were invisible to the old scan's snapshot.
  if (!phase_due_.empty()) {
    due_scratch_.assign(phase_due_.begin(), phase_due_.end());
    phase_due_.clear();
    if (due_scratch_.size() > 1)
      std::sort(due_scratch_.begin(), due_scratch_.end());
    for (const int idx : due_scratch_) {
      Th& t = threads_[static_cast<std::size_t>(idx)];
      t.in_phase_due = false;
      if (t.st != Th::St::kRunning || !t.remaining.is_zero()) continue;
      if (t.phase == Th::Phase::kCompute) {
        apply_op(t);
      } else {
        advance_step(t);
      }
      changed = true;
    }
  }
  return changed;
}

void Engine::apply_op(Th& t) {
  ++ec_.steps;
  if (guard_ != nullptr) guard_step_check();
  const Step& s = t.current_step();

  // Open the event entry shown by the Visualizer.
  if (cfg_->build_timeline) {
    SimEvent ev;
    ev.at = now_;
    ev.done = now_;
    ev.tid = t.tid;
    ev.op = s.op;
    ev.obj = s.obj;
    ev.outcome = s.outcome;
    ev.loc = s.loc;
    ev.cpu = t.last_cpu;
    t.open_event = static_cast<std::ptrdiff_t>(result_.events.size());
    result_.events.push_back(ev);
  }

  switch (s.op) {
    case Op::kThrCreate: op_create(t, s); break;
    case Op::kThrExit:
      finish_thread(t);
      return;
    case Op::kThrJoin: op_join(t, s); break;
    case Op::kThrYield: {
      // Back of the library queue (and of the kernel queue for bound
      // threads): detach and re-enter as runnable.
      Lwp& lwp = lwps_[static_cast<std::size_t>(t.lwp)];
      unplace(lwp);
      if (!t.bound) {
        lwp.thread = ult::kNoThread;
        lwp.th = nullptr;
        --unplaced_live_;
        t.lwp = -1;
        lwp.slept = true;
        mark_free(lwp);
      } else {
        lwp.disp_seq = next_disp_seq_++;
      }
      t.lib_seq = next_lib_seq_++;
      rq_put(t);
      enter_op_cost(t);
      break;
    }
    case Op::kThrSetPrio: {
      const auto target = static_cast<ThreadId>(s.obj.id);
      if (exists(target)) {
        Th& tgt = th(target);
        // A user-supplied priority override makes the simulator ignore
        // the thr_setprio events for that thread (paper §3.2).
        if (!tgt.prio_overridden) {
          tgt.prio = static_cast<int>(s.arg);
          rq_put(tgt);  // rebucket, keeping its arrival seq
        }
      }
      enter_op_cost(t);
      break;
    }
    case Op::kThrSetConcurrency:
      // The simulator's LWP knob overrides the program (paper §3.2:
      // "in this case the thr_setconcurrency in the program has no
      // effect").
      enter_op_cost(t);
      break;
    case Op::kThrSuspend: {
      const auto target = static_cast<ThreadId>(s.obj.id);
      if (exists(target)) {
        Th& tgt = th(target);
        if (tgt.st == Th::St::kBlocked || tgt.st == Th::St::kSleeping) {
          tgt.pending_suspend = true;
        } else if (tgt.st != Th::St::kDone) {
          tgt.suspended = true;
          if (tgt.st == Th::St::kRunning) {
            Lwp& lwp = lwps_[static_cast<std::size_t>(tgt.lwp)];
            unplace(lwp);
          }
          rq_put(tgt);  // drops it from the library queue, if queued
        }
      }
      enter_op_cost(t);
      break;
    }
    case Op::kThrContinue: {
      const auto target = static_cast<ThreadId>(s.obj.id);
      if (exists(target)) {
        Th& tgt = th(target);
        tgt.pending_suspend = false;
        tgt.suspended = false;
        rq_put(tgt);  // back into the library queue at its old seq
      }
      enter_op_cost(t);
      break;
    }
    case Op::kUserMark:
    case Op::kMutexInit:
    case Op::kMutexDestroy:
    case Op::kSemaDestroy:
    case Op::kCondInit:
    case Op::kCondDestroy:
    case Op::kRwInit:
    case Op::kRwDestroy:
      enter_op_cost(t);
      break;
    case Op::kSemaInit:
      objects_.sema(s.slot).count = s.arg;
      enter_op_cost(t);
      break;
    case Op::kMutexLock:
    case Op::kMutexTrylock:
    case Op::kMutexUnlock:
      op_mutex(t, s);
      break;
    case Op::kSemaWait:
    case Op::kSemaTrywait:
    case Op::kSemaPost:
      op_sema(t, s);
      break;
    case Op::kCondWait:
    case Op::kCondTimedwait:
    case Op::kCondSignal:
    case Op::kCondBroadcast:
      op_cond(t, s);
      break;
    case Op::kRwRdlock:
    case Op::kRwTryRdlock:
    case Op::kRwWrlock:
    case Op::kRwTryWrlock:
    case Op::kRwUnlock:
      op_rwlock(t, s);
      break;
    case Op::kIoWait: {
      // Extension: park the thread for the recorded device latency; the
      // LWP is released meanwhile (an async-I/O-capable library).
      t.wait = Th::Wait::kIoSleep;
      t.wake_at = now_ + s.delay;
      Lwp* lwp = t.lwp >= 0 ? &lwps_[static_cast<std::size_t>(t.lwp)] : nullptr;
      if (lwp != nullptr) {
        unplace(*lwp);
        if (!t.bound) {
          emit_lwp_segment(*lwp);
          lwp->thread = ult::kNoThread;
          lwp->th = nullptr;
          --unplaced_live_;
          lwp->seg_thread = 0;
          t.lwp = -1;
          mark_free(*lwp);
        }
        lwp->slept = true;
      }
      set_state(t, Th::St::kSleeping);
      push_timer(t.wake_at, t, /*sleep=*/true);
      break;
    }
    case Op::kStartCollect:
    case Op::kEndCollect:
      enter_op_cost(t);
      break;
  }
}

void Engine::enter_op_cost(Th& t) {
  const Step& s = t.current_step();
  double factor = 1.0;
  if (s.op == Op::kThrCreate) {
    // Creating a bound thread takes 6.7x longer (paper §3.2).
    const auto child = static_cast<ThreadId>(s.outcome);
    if (exists(child) && th(child).bound)
      factor = cfg_->cost.bound_create_factor;
  } else if (t.bound && trace::op_obj_kind(s.op) != trace::ObjKind::kThread &&
             trace::op_obj_kind(s.op) != trace::ObjKind::kNone &&
             trace::op_obj_kind(s.op) != trace::ObjKind::kMark &&
             trace::op_obj_kind(s.op) != trace::ObjKind::kIo) {
    // Synchronization by bound threads takes 5.9x longer (paper §3.2).
    factor = cfg_->cost.bound_sync_factor;
  }
  t.phase = Th::Phase::kOpCost;
  t.remaining = factor == 1.0 ? s.op_cost : s.op_cost.scaled(factor);
  note_phase_due(t);
}

void Engine::advance_step(Th& t) {
  if (t.open_event >= 0) {
    result_.events[static_cast<std::size_t>(t.open_event)].done = now_;
    t.open_event = -1;
  }
  ++t.sp;
  t.phase = Th::Phase::kCompute;
  if (!t.has_steps_left()) {
    // Trace ended without an explicit thr_exit (hand-written traces):
    // treat it as an exit.
    finish_thread(t);
    return;
  }
  t.remaining = t.current_step().cpu;
  note_phase_due(t);
}

void Engine::finish_thread(Th& t) {
  if (t.open_event >= 0) {
    result_.events[static_cast<std::size_t>(t.open_event)].done = now_;
    t.open_event = -1;
  }
  if (t.lwp >= 0) {
    Lwp& lwp = lwps_[static_cast<std::size_t>(t.lwp)];
    unplace(lwp);
    emit_lwp_segment(lwp);
    lwp.thread = ult::kNoThread;
    lwp.th = nullptr;
    --unplaced_live_;
    lwp.seg_thread = 0;
    lwp.slept = true;
    t.lwp = -1;
    mark_free(lwp);
  }
  set_state(t, Th::St::kDone);
  t.exited = true;
  stats_[static_cast<std::size_t>(t.idx)].exited_at = now_;
  t.sp = t.sp_end;
  thread_exited(t);
}

void Engine::thread_exited(Th& t) {
  // Specific joiners first.
  WaitQueue& jq = joiners_[static_cast<std::size_t>(t.idx)];
  if (!jq.empty()) {
    const ThreadId j = jq.pop();
    Th& joiner = th(j);
    t.reaped = true;
    joiner.wait = Th::Wait::kNone;
    unblock(joiner);
    // Remaining specific joiners lose the race (ESRCH in the real API);
    // release them too so the replay cannot hang.
    while (!jq.empty()) {
      Th& also = th(jq.pop());
      also.wait = Th::Wait::kNone;
      unblock(also);
    }
    return;
  }
  // Otherwise the zombie waits for a wildcard joiner.
  if (!any_joiners_.empty()) {
    const ThreadId j = any_joiners_.pop();
    Th& joiner = th(j);
    t.reaped = true;
    joiner.wait = Th::Wait::kNone;
    unblock(joiner);
    return;
  }
  zombies_.push_back(t.tid);
}

SimTime Engine::wake_delay(const Th& woken) const {
  // An event on one CPU propagates to another after the communication
  // delay (paper §3.2).  Wakeups within one CPU are immediate.
  if (cfg_->hw.cpus <= 1 || cfg_->hw.comm_delay.is_zero()) return SimTime::zero();
  // The waker is the thread currently applying an op; threads_ lookups
  // here would be circular, so use a conservative rule: a thread that
  // last ran on some CPU is assumed to be woken from a different one
  // whenever more than one CPU exists.
  (void)woken;
  return cfg_->hw.comm_delay;
}

void Engine::block(Th& t, Th::Wait wait, std::uint32_t obj) {
  Lwp* lwp = t.lwp >= 0 ? &lwps_[static_cast<std::size_t>(t.lwp)] : nullptr;
  if (lwp != nullptr) {
    unplace(*lwp);
    if (!t.bound) {
      emit_lwp_segment(*lwp);
      lwp->thread = ult::kNoThread;
      lwp->th = nullptr;
      --unplaced_live_;
      lwp->seg_thread = 0;
      t.lwp = -1;
      lwp->slept = true;  // will boost when it picks up new work
      mark_free(*lwp);
    } else {
      lwp->slept = true;  // bound LWP sleeps with its thread
    }
  }
  t.wait = wait;
  t.wait_obj = obj;
  set_state(t, Th::St::kBlocked);
}

void Engine::unblock(Th& t) {
  VPPB_CHECK_MSG(t.st == Th::St::kBlocked || t.st == Th::St::kReady,
                 "unblock of T" << t.tid << " in unexpected state");
  if (t.st == Th::St::kBlocked) set_state(t, Th::St::kReady);
  if (t.pending_suspend) {
    // thr_suspend hit while blocked: stop at the wakeup point.
    t.pending_suspend = false;
    t.suspended = true;
  }
  t.ready_at = now_ + wake_delay(t);
  t.lib_seq = next_lib_seq_++;
  rq_put(t);
  defer_ready(t);
  complete_op_for(t);
}

void Engine::complete_op_for(Th& t) {
  // The blocking operation has succeeded on this thread's behalf; charge
  // the recorded library cost and move on.
  enter_op_cost(t);
}

bool Engine::try_take_mutex(Th& t, std::uint32_t mutex_id) {
  SimMutex& m = objects_.mutex(mutex_id);
  if (m.owner != ult::kNoThread) return false;
  m.owner = t.tid;
  held_of_[static_cast<std::size_t>(t.idx)].push_back(mutex_id);
  return true;
}

void Engine::do_unlock_mutex(Th& t, std::uint32_t mutex_id) {
  SimMutex& m = objects_.mutex(mutex_id);
  VPPB_CHECK_MSG(m.owner == t.tid, "replay: T" << t.tid << " releases mutex#"
                                               << mutex_id
                                               << " it does not hold");
  std::erase(held_of_[static_cast<std::size_t>(t.idx)], mutex_id);
  const ThreadId next = m.waiters.pop();
  m.owner = next;
  if (next == ult::kNoThread) return;
  Th& w = th(next);
  held_of_[static_cast<std::size_t>(w.idx)].push_back(mutex_id);
  if (w.wait == Th::Wait::kMutexReacquire) {
    // Part of a barrier re-acquisition chain: keep going.
    auto& reacq = reacq_of_[static_cast<std::size_t>(w.idx)];
    VPPB_CHECK(!reacq.empty() && reacq.front() == mutex_id);
    reacq.erase(reacq.begin());
    continue_reacquire(w);
    return;
  }
  w.wait = Th::Wait::kNone;
  unblock(w);
}

void Engine::continue_reacquire(Th& t) {
  auto& reacq = reacq_of_[static_cast<std::size_t>(t.idx)];
  while (!reacq.empty()) {
    const std::uint32_t id = reacq.front();
    if (try_take_mutex(t, id)) {
      reacq.erase(reacq.begin());
      continue;
    }
    objects_.mutex(id).waiters.push(t.tid, t.prio);
    t.wait = Th::Wait::kMutexReacquire;
    t.wait_obj = id;
    if (t.st != Th::St::kBlocked) set_state(t, Th::St::kBlocked);
    return;
  }
  t.wait = Th::Wait::kNone;
  unblock(t);
}

void Engine::acquire_mutex_or_block(Th& t, std::uint32_t mutex_id) {
  if (try_take_mutex(t, mutex_id)) {
    if (t.st == Th::St::kBlocked) set_state(t, Th::St::kReady);
    t.ready_at = std::max(t.ready_at, now_);
    t.wait = Th::Wait::kNone;
    rq_put(t);
    defer_ready(t);
    complete_op_for(t);
    return;
  }
  objects_.mutex(mutex_id).waiters.push(t.tid, t.prio);
  t.wait = Th::Wait::kMutex;
  t.wait_obj = mutex_id;
  if (t.st != Th::St::kBlocked) set_state(t, Th::St::kBlocked);
}

void Engine::wake_from_cond(Th& t) {
  // Signalled: now contend for the mutex recorded with the wait.
  t.wait = Th::Wait::kNone;
  acquire_mutex_or_block(t, t.wait_mutex);
}

// ---- op handlers -----------------------------------------------------------

void Engine::op_create(Th& t, const Step& s) {
  const auto child = static_cast<ThreadId>(s.outcome);
  if (exists(child) && th(child).st == Th::St::kUnborn) {
    spawn_thread(child, now_);
    Th& c = th(child);
    c.ready_at = now_ + wake_delay(c);
    constexpr long kThrSuspended = 0x80;  // THR_SUSPENDED
    if ((s.arg & kThrSuspended) != 0) c.suspended = true;
    rq_put(c);  // re-sync: ready_at/suspended changed after the spawn
    defer_ready(c);
  }
  enter_op_cost(t);
}

void Engine::op_join(Th& t, const Step& s) {
  // A join that failed in the recording (ESRCH/EDEADLK — e.g. the final
  // probe of a join-all loop) returns without waiting; its outcome field
  // carries no departed thread.
  if (s.outcome == 0) {
    enter_op_cost(t);
    return;
  }
  const auto target = static_cast<std::int64_t>(s.obj.id);
  if (target == trace::kAnyThread) {
    if (!zombies_.empty()) {
      const ThreadId z = zombies_.front();
      zombies_.erase(zombies_.begin());
      th(z).reaped = true;
      enter_op_cost(t);
      return;
    }
    block(t, Th::Wait::kJoinAny, 0);
    any_joiners_.push(t.tid, t.prio);
    return;
  }
  const auto tgt_id = static_cast<ThreadId>(target);
  if (!exists(tgt_id)) {
    enter_op_cost(t);  // ESRCH in the log too; nothing to wait for
    return;
  }
  Th& target_th = th(tgt_id);
  if (target_th.exited) {
    // Already a zombie (possibly already reaped by a wildcard join —
    // the mismatch the paper's §6 acknowledges); complete immediately.
    target_th.reaped = true;
    std::erase(zombies_, tgt_id);
    enter_op_cost(t);
    return;
  }
  block(t, Th::Wait::kJoin, s.obj.id);
  t.join_target = tgt_id;
  joiners_[static_cast<std::size_t>(target_th.idx)].push(t.tid, t.prio);
}

void Engine::op_mutex(Th& t, const Step& s) {
  SimMutex& m = objects_.mutex(s.slot);
  switch (s.op) {
    case Op::kMutexLock:
      if (try_take_mutex(t, s.slot)) {
        enter_op_cost(t);
      } else {
        block(t, Th::Wait::kMutex, s.slot);
        m.waiters.push(t.tid, t.prio);
      }
      break;
    case Op::kMutexTrylock:
      // Paper §3.2: "if the thread gained access to the lock in the log
      // file, the simulation will do a mutex_lock, otherwise no action
      // is taken".
      if (s.outcome == 1) {
        if (try_take_mutex(t, s.slot)) {
          enter_op_cost(t);
        } else {
          block(t, Th::Wait::kMutex, s.slot);
          m.waiters.push(t.tid, t.prio);
        }
      } else {
        enter_op_cost(t);
      }
      break;
    case Op::kMutexUnlock:
      do_unlock_mutex(t, s.slot);
      enter_op_cost(t);
      break;
    default: VPPB_CHECK(false);
  }
}

void Engine::op_sema(Th& t, const Step& s) {
  SimSema& sem = objects_.sema(s.slot);
  switch (s.op) {
    case Op::kSemaWait:
      if (sem.count > 0) {
        --sem.count;
        enter_op_cost(t);
      } else {
        block(t, Th::Wait::kSema, s.slot);
        sem.waiters.push(t.tid, t.prio);
      }
      break;
    case Op::kSemaTrywait:
      if (s.outcome == 1) {
        if (sem.count > 0) {
          --sem.count;
          enter_op_cost(t);
        } else {
          block(t, Th::Wait::kSema, s.slot);
          sem.waiters.push(t.tid, t.prio);
        }
      } else {
        enter_op_cost(t);
      }
      break;
    case Op::kSemaPost: {
      const ThreadId next = sem.waiters.pop();
      if (next != ult::kNoThread) {
        Th& w = th(next);
        w.wait = Th::Wait::kNone;
        unblock(w);  // the unit is handed to the sleeper
      } else {
        ++sem.count;
      }
      enter_op_cost(t);
      break;
    }
    default: VPPB_CHECK(false);
  }
}

void Engine::op_cond(Th& t, const Step& s) {
  SimCond& c = objects_.cond(s.slot);
  switch (s.op) {
    case Op::kCondWait:
    case Op::kCondTimedwait: {
      const std::uint32_t mutex_id = s.slot2;  // the wait's recorded mutex
      // Release the mutex exactly as the library does internally.
      do_unlock_mutex(t, mutex_id);

      if (s.op == Op::kCondTimedwait && s.outcome == 0) {
        // Timed out in the recording: replay as a delay then re-acquire
        // the mutex (paper §3.2).
        t.wait = Th::Wait::kSleepThenMutex;
        t.wait_mutex = mutex_id;
        t.wake_at = now_ + s.delay;
        Lwp* lwp = t.lwp >= 0 ? &lwps_[static_cast<std::size_t>(t.lwp)] : nullptr;
        if (lwp != nullptr) {
          unplace(*lwp);
          if (!t.bound) {
            lwp->thread = ult::kNoThread;
            lwp->th = nullptr;
            --unplaced_live_;
            t.lwp = -1;
            mark_free(*lwp);
          }
          lwp->slept = true;
        }
        set_state(t, Th::St::kSleeping);
        push_timer(t.wake_at, t, /*sleep=*/true);
        break;
      }

      // A signal recorded for this waiter may already have fired under
      // the simulated schedule; consume it instead of sleeping forever.
      if (c.pending_signals > 0) {
        --c.pending_signals;
        t.wait_mutex = mutex_id;
        Lwp* lwp2 = t.lwp >= 0 ? &lwps_[static_cast<std::size_t>(t.lwp)] : nullptr;
        if (lwp2 != nullptr) {
          unplace(*lwp2);
          if (!t.bound) {
            lwp2->thread = ult::kNoThread;
            lwp2->th = nullptr;
            --unplaced_live_;
            t.lwp = -1;
            mark_free(*lwp2);
          }
          lwp2->slept = true;
        }
        set_state(t, Th::St::kBlocked);
        wake_from_cond(t);
        break;
      }

      block(t, Th::Wait::kCond, s.slot);
      t.wait_mutex = mutex_id;
      c.waiters.push(t.tid, t.prio);

      // A pending barrier broadcast may now have enough arrivals.
      if (c.pending &&
          static_cast<std::int64_t>(c.waiters.size()) >= c.pending->needed) {
        Th& caster = th(c.pending->broadcaster);
        c.pending.reset();
        while (!c.waiters.empty()) {
          Th& w = th(c.waiters.pop());
          wake_from_cond(w);
        }
        continue_reacquire(caster);
      }
      break;
    }
    case Op::kCondSignal: {
      const ThreadId next = c.waiters.pop();
      if (next != ult::kNoThread) {
        wake_from_cond(th(next));
      } else if (s.outcome == 1) {
        // The recording woke a waiter; it has not arrived yet in the
        // simulation — remember the signal for it (see SimCond).
        ++c.pending_signals;
      }
      enter_op_cost(t);
      break;
    }
    case Op::kCondBroadcast: {
      const std::int64_t needed = s.outcome;  // waiters released in the log
      if (static_cast<std::int64_t>(c.waiters.size()) >= needed) {
        while (!c.waiters.empty()) {
          Th& w = th(c.waiters.pop());
          wake_from_cond(w);
        }
        enter_op_cost(t);
      } else {
        // Barrier rule (paper §6): wait until as many threads arrive at
        // the barrier as the log released, then the last arrival
        // triggers the release above.  The broadcaster releases any
        // mutexes it holds (it typically holds the barrier mutex, which
        // the still-arriving threads need) and re-takes them afterwards.
        VPPB_CHECK_MSG(!c.pending, "two pending broadcasts on cond#"
                                       << s.obj.id);
        c.pending = SimCond::PendingBroadcast{t.tid, needed};
        const auto& held = held_of_[static_cast<std::size_t>(t.idx)];
        reacq_of_[static_cast<std::size_t>(t.idx)] = held;
        // do_unlock_mutex edits the held list; iterate a scratch copy.
        mutex_scratch_.assign(held.begin(), held.end());
        for (const std::uint32_t id : mutex_scratch_)
          do_unlock_mutex(t, id);
        block(t, Th::Wait::kBarrier, s.slot);
      }
      break;
    }
    default: VPPB_CHECK(false);
  }
}

void Engine::op_rwlock(Th& t, const Step& s) {
  SimRwlock& rw = objects_.rwlock(s.slot);
  auto rd_acquire = [&]() {
    if (rw.writer == ult::kNoThread && rw.waiting_writers == 0) {
      ++rw.readers;
      enter_op_cost(t);
    } else {
      block(t, Th::Wait::kRwRead, s.slot);
      rw.reader_q.push(t.tid, t.prio);
    }
  };
  auto wr_acquire = [&]() {
    if (rw.writer == ult::kNoThread && rw.readers == 0) {
      rw.writer = t.tid;
      enter_op_cost(t);
    } else {
      ++rw.waiting_writers;
      block(t, Th::Wait::kRwWrite, s.slot);
      rw.writer_q.push(t.tid, t.prio);
    }
  };
  switch (s.op) {
    case Op::kRwRdlock: rd_acquire(); break;
    case Op::kRwTryRdlock:
      if (s.outcome == 1) rd_acquire(); else enter_op_cost(t);
      break;
    case Op::kRwWrlock: wr_acquire(); break;
    case Op::kRwTryWrlock:
      if (s.outcome == 1) wr_acquire(); else enter_op_cost(t);
      break;
    case Op::kRwUnlock: {
      if (rw.writer == t.tid) {
        rw.writer = ult::kNoThread;
      } else {
        VPPB_CHECK_MSG(rw.readers > 0, "replay: rw_unlock of rwlock#"
                                           << s.obj.id << " not held");
        --rw.readers;
      }
      if (rw.writer == ult::kNoThread && rw.readers == 0) {
        const ThreadId w = rw.writer_q.pop();
        if (w != ult::kNoThread) {
          --rw.waiting_writers;
          rw.writer = w;
          Th& wt = th(w);
          wt.wait = Th::Wait::kNone;
          unblock(wt);
        } else {
          while (!rw.reader_q.empty()) {
            Th& rt = th(rw.reader_q.pop());
            ++rw.readers;
            rt.wait = Th::Wait::kNone;
            unblock(rt);
          }
        }
      }
      enter_op_cost(t);
      break;
    }
    default: VPPB_CHECK(false);
  }
}

// ---------------------------------------------------------------------------

void Engine::replay_deadlock() {
  std::ostringstream os;
  os << "replay deadlock at t=" << now_ << ":\n";
  for (const Th& t : threads_) {
    os << "  T" << t.tid << " step " << (t.sp - t.ft->steps) << "/"
       << t.ft->n_steps;
    switch (t.st) {
      case Th::St::kUnborn: os << " unborn"; break;
      case Th::St::kReady: os << " ready"; break;
      case Th::St::kRunning: os << " running"; break;
      case Th::St::kBlocked: os << " blocked"; break;
      case Th::St::kSleeping: os << " sleeping"; break;
      case Th::St::kDone: os << " done"; break;
    }
    if (t.st == Th::St::kBlocked && t.has_steps_left())
      os << " in " << trace::op_name(t.current_step().op);
    os << '\n';
  }
  throw Error(os.str());
}

/// Registry handles for per-run engine totals, registered once.  The
/// engine flushes its plain counters here a single time per run — the
/// hot loop never touches an atomic.
struct EngineMetrics {
  obs::Counter& sims;
  obs::Counter& steps;
  obs::Counter& dispatches;
  obs::Counter& migrations;
  obs::Counter& preemptions;

  static EngineMetrics& get() {
    auto& reg = obs::Registry::global();
    static EngineMetrics m{
        reg.counter("vppb_engine_sims_total", "Completed simulation runs"),
        reg.counter("vppb_engine_steps_total",
                    "Trace operations applied across all runs"),
        reg.counter("vppb_engine_dispatches_total",
                    "LWP placements onto CPUs (context switches)"),
        reg.counter("vppb_engine_migrations_total",
                    "Placements onto a different CPU than last time"),
        reg.counter("vppb_engine_preemptions_total",
                    "Running LWPs evicted by a higher-priority waiter"),
    };
    return m;
  }
};

void Engine::reset_workspace() {
  // Every per-run scalar and container back to its initial state,
  // keeping allocations.  Containers sized per run (threads_, joiners_,
  // object slabs, …) are handled by init_threads; everything here must
  // also recover from a previous run that threw mid-flight.
  now_ = SimTime::zero();
  result_ = SimResult{};
  ec_ = EngineCounters{};
  zombies_.clear();
  any_joiners_.clear();
  timers_.clear();
  std::fill(free_bits_.begin(), free_bits_.end(), 0);
  free_hint_ = 0;
  free_count_ = 0;
  unplaced_.clear();
  unplaced_live_ = 0;
  phase_due_.clear();
  quantum_due_.clear();
  next_lib_seq_ = 1;
  next_disp_seq_ = 1;
  unbound_pool_size_ = 0;
  unbound_lwps_made_ = 0;
  running_count_ = 0;
  done_count_ = 0;
  idle_cpus_ = 0;
  sched_clock_ = 0;
  assign_memo_valid_ = false;
  contended_valid_ = false;
}

SimResult Engine::run(const CompiledTrace& compiled, const SimConfig& cfg,
                      const RunGuard* guard) {
  compiled_ = &compiled;
  cfg_ = &cfg;
  guard_ = guard;
  // Hand-built CompiledTraces (tests, tools) may lack the flat form;
  // derive it on the spot.  Holding the shared_ptr — not just the raw
  // pointer — matters: all step cursors point into its arena.
  prog_hold_ = compiled.flat != nullptr ? compiled.flat
                                        : build_flat_program(compiled.threads);
  prog_ = prog_hold_.get();
  reset_workspace();
  return run_body();
}

SimResult Engine::run_body() {
  obs::Span run_span("engine.run", "engine");
  run_span.arg("cpus", cfg_->hw.cpus);
  const auto wall0 = std::chrono::steady_clock::now();
  VPPB_CHECK_MSG(cfg_->hw.cpus >= 1, "need at least one CPU");
  VPPB_CHECK_MSG(cfg_->sched.lwps >= 0, "negative LWP count");

  {
    obs::Span init_span("engine.init", "engine");
    unbound_pool_size_ = cfg_->sched.lwps > 0
                             ? cfg_->sched.lwps
                             : static_cast<int>(prog_->n_threads);
    cpu_running_.assign(static_cast<std::size_t>(cfg_->hw.cpus),
                        ult::kNoThread);
    cpu_lwp_.assign(static_cast<std::size_t>(cfg_->hw.cpus), -1);
    idle_cpus_ = cfg_->hw.cpus;
    result_.cpu_stats.resize(static_cast<std::size_t>(cfg_->hw.cpus));
    for (int c = 0; c < cfg_->hw.cpus; ++c)
      result_.cpu_stats[static_cast<std::size_t>(c)].cpu = c;

    init_threads();
  }

  {
    obs::Span replay_span("engine.replay", "engine");
    for (;;) {
      bool changed = true;
      while (changed) {
        assign();
        changed = any_due() && process_due_now();
      }

      const SimTime next = next_event_time();
      if (next == SimTime::max()) {
        if (done_count_ == threads_.size()) break;
        replay_deadlock();
      }
      if (guard_ != nullptr) {
        guard_->check_cancel();
        guard_->check_sim_time(next);
      }
      advance_to(next);
    }
  }

  // A final footprint + wall check so a small trace that exploded the
  // result storage (timeline on) or overstayed its wall budget still
  // trips even below the periodic cadence.
  if (guard_ != nullptr) {
    guard_->check_result_bytes(approx_result_bytes());
    guard_->check_wall();
  }

  // Finalize.
  obs::Span finalize_span("engine.finalize", "engine");
  result_.total = now_;
  result_.recorded_duration = compiled_->recorded_duration;
  result_.speedup = result_.total.is_zero()
                        ? 1.0
                        : static_cast<double>(compiled_->recorded_duration.ns()) /
                              static_cast<double>(result_.total.ns());
  result_.cpus = cfg_->hw.cpus;
  result_.lwps = unbound_pool_size_;
  for (const Th& t : threads_) {
    // Every thread is done here; its last segment was flushed when it
    // exited, so only the stats remain to be published.
    result_.threads.emplace(t.tid, stats_[static_cast<std::size_t>(t.idx)]);
  }
  for (Lwp& lwp : lwps_) emit_lwp_segment(lwp);
  for (const Lwp& lwp : lwps_) {
    LwpStats ls;
    ls.id = lwp.id;
    ls.dedicated = lwp.dedicated;
    ls.running = lwp.running_total;
    ls.dispatches = lwp.dispatches;
    ls.final_ts_level = lwp.ts_level;
    result_.lwp_stats.push_back(ls);
  }
  std::sort(result_.segments.begin(), result_.segments.end(),
            [](const Segment& a, const Segment& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.tid < b.tid;
            });

  // Publish the self-observation: deterministic counters plus host
  // timing (the latter varies run to run, which is why none of
  // result_.engine is digested).
  ec_.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall0)
          .count();
  ec_.steps_per_sec = ec_.wall_seconds > 0.0
                          ? static_cast<double>(ec_.steps) / ec_.wall_seconds
                          : 0.0;
  result_.engine = ec_;
  EngineMetrics& em = EngineMetrics::get();
  em.sims.inc();
  em.steps.inc(ec_.steps);
  em.dispatches.inc(ec_.dispatches);
  em.migrations.inc(ec_.migrations);
  em.preemptions.inc(ec_.preemptions);
  run_span.arg("steps", static_cast<std::int64_t>(ec_.steps));

  return std::move(result_);
}

}  // namespace

struct SimEngine::Impl {
  Engine engine;
};

SimEngine::SimEngine() : impl_(std::make_unique<Impl>()) {}
SimEngine::~SimEngine() = default;
SimEngine::SimEngine(SimEngine&&) noexcept = default;
SimEngine& SimEngine::operator=(SimEngine&&) noexcept = default;

SimResult SimEngine::run(const CompiledTrace& compiled, const SimConfig& config,
                         const RunGuard* guard) {
  return impl_->engine.run(compiled, config, guard);
}

SimResult simulate(const CompiledTrace& compiled, const SimConfig& config) {
  Engine engine;
  return engine.run(compiled, config, nullptr);
}

SimResult simulate(const CompiledTrace& compiled, const SimConfig& config,
                   const RunGuard* guard) {
  Engine engine;
  return engine.run(compiled, config, guard);
}

SimResult simulate(const trace::Trace& trace, const SimConfig& config) {
  return simulate(compile(trace), config);
}

SimResult simulate(const trace::Trace& trace, const SimConfig& config,
                   const RunGuard* guard) {
  return simulate(compile(trace, guard), config, guard);
}

double predict_speedup(const trace::Trace& trace, int cpus) {
  SimConfig cfg;
  cfg.hw.cpus = cpus;
  cfg.build_timeline = false;
  return simulate(trace, cfg).speedup;
}

}  // namespace vppb::core
