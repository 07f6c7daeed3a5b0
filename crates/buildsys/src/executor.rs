//! The phase executor: admission control, a wall-clock model for
//! distributed and workstation builds, and a deterministic local
//! worker pool that executes the real work behind the modeled actions.

use crate::{ActionSpec, BuildError, PhaseReport, GIB};
use propeller_faults::{FaultInjector, FaultKind, RetryPolicy};
use propeller_telemetry::{SpanId, Telemetry};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The default worker count: one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Where a build's actions run.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum MachineConfig {
    /// The warehouse distributed build system (§2.1): effectively
    /// unbounded independent workers, one action per worker, but a
    /// hard per-action memory ceiling and a fixed scheduling/dispatch
    /// overhead per phase.
    Distributed {
        /// Per-action peak-RSS limit in bytes (the paper's 12 GB).
        ram_limit: u64,
        /// Scheduler dispatch overhead added to each phase's
        /// wall-clock.
        dispatch_secs: f64,
    },
    /// A single developer workstation: actions run back to back on one
    /// machine, with no per-action admission limit (this is where
    /// monolithic tools like BOLT live).
    Workstation,
}

impl MachineConfig {
    /// The default distributed build: 12 GiB per-action limit, 2 s
    /// dispatch overhead.
    pub fn distributed() -> Self {
        MachineConfig::Distributed {
            ram_limit: 12 * GIB,
            dispatch_secs: 2.0,
        }
    }

    /// A workstation build.
    pub fn workstation() -> Self {
        MachineConfig::Workstation
    }

    /// The per-action memory limit, if this machine enforces one.
    pub fn ram_limit(&self) -> Option<u64> {
        match self {
            MachineConfig::Distributed { ram_limit, .. } => Some(*ram_limit),
            MachineConfig::Workstation => None,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::distributed()
    }
}

/// Runs phases of independent actions on a [`MachineConfig`].
///
/// The executor does two things: *admission control* (every action's
/// declared peak RSS is checked against the machine's per-action
/// limit before anything is scheduled) and *time accounting*. Actions
/// handed to one [`run_phase`](Executor::run_phase) call are
/// independent by construction — the pipeline only batches actions
/// with no mutual data dependencies — so the distributed critical
/// path is the single longest action.
#[derive(Clone, Debug)]
pub struct Executor {
    machine: MachineConfig,
    /// When present, scheduled faults
    /// ([transient failures](FaultKind::TransientActionFailure) and
    /// [timeouts](FaultKind::ActionTimeout)) hit actions run through
    /// [`run_phase_resilient_traced`](Executor::run_phase_resilient_traced),
    /// which retries them under `retry`.
    faults: Option<Arc<FaultInjector>>,
    retry: RetryPolicy,
    /// Local worker-pool width for [`execute_indexed`]
    /// (Executor::execute_indexed). `1` runs everything inline on the
    /// calling thread (the exact legacy path); the default is one
    /// worker per hardware thread.
    jobs: usize,
}

/// Measured timing of one [`Executor::execute_indexed`] batch: real
/// wall microseconds end to end, and useful-work microseconds summed
/// across workers. Feeds [`PhaseReport::wall_us`] / `busy_us`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolStats {
    /// Wall-clock microseconds for the whole batch.
    pub wall_us: u64,
    /// Work microseconds summed over all workers.
    pub busy_us: u64,
}

/// Per-phase retry accounting from a resilient run, feeding the
/// degradation ledger. All-zero when no fault fired.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResilienceReport {
    /// Attempts that failed transiently and were retried.
    pub retries: u64,
    /// Attempts that hit the modeled timeout deadline.
    pub timeouts: u64,
    /// Modeled seconds spent waiting in backoff (incl. jitter).
    pub backoff_secs: f64,
}

impl Executor {
    /// Creates an executor for `machine` with no fault injection and
    /// the default worker-pool width ([`default_jobs`]).
    pub fn new(machine: MachineConfig) -> Self {
        Executor {
            machine,
            faults: None,
            retry: RetryPolicy::default(),
            jobs: default_jobs(),
        }
    }

    /// Attaches a fault injector and the retry policy that absorbs the
    /// faults it schedules.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>, retry: RetryPolicy) -> Self {
        self.faults = Some(faults);
        self.retry = retry;
        self
    }

    /// Sets the local worker-pool width (`--jobs`). `1` ⇒ the exact
    /// serial legacy path; values are clamped to at least 1.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker-pool width.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The attached fault injector, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The machine this executor schedules onto.
    pub fn machine(&self) -> MachineConfig {
        self.machine
    }

    /// Runs `f` over every item on the worker pool and returns the
    /// results **in item order**, bit-identically to a serial loop.
    ///
    /// Determinism contract: `f(worker, index, &item)` must be a pure
    /// function of `(index, item)` — the `worker` argument is a lane id
    /// for telemetry only. Workers pull indices from a shared cursor
    /// (dynamic load balancing), write each result into its slot, and
    /// the slots are read back in index order; result order, and
    /// therefore every downstream fold over the results, is independent
    /// of thread interleaving. With `jobs == 1` (or one item) the items
    /// run inline on the calling thread — the exact legacy path.
    ///
    /// # Errors
    ///
    /// A panic inside `f` is caught on the worker, the remaining items
    /// still run, and the *lowest-index* panic surfaces as
    /// [`BuildError::WorkerPanicked`] — a typed error, never a hang or
    /// a propagated unwind.
    pub fn execute_indexed<T, R, F>(
        &self,
        what: &str,
        items: &[T],
        f: F,
    ) -> Result<(Vec<R>, PoolStats), BuildError>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, usize, &T) -> R + Sync,
    {
        let start = Instant::now();
        let workers = self.jobs.min(items.len()).max(1);
        if workers == 1 {
            let mut out = Vec::with_capacity(items.len());
            let mut busy_us = 0u64;
            for (i, item) in items.iter().enumerate() {
                let t0 = Instant::now();
                let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(0, i, item)));
                busy_us += t0.elapsed().as_micros() as u64;
                match r {
                    Ok(v) => out.push(v),
                    Err(payload) => {
                        return Err(BuildError::WorkerPanicked {
                            what: what.to_string(),
                            message: panic_message(&*payload),
                        })
                    }
                }
            }
            let stats = PoolStats { wall_us: start.elapsed().as_micros() as u64, busy_us };
            return Ok((out, stats));
        }

        let next = AtomicUsize::new(0);
        let busy = AtomicU64::new(0);
        let slots: parking_lot::Mutex<Vec<Option<std::thread::Result<R>>>> =
            parking_lot::Mutex::new((0..items.len()).map(|_| None).collect());
        let f = &f;
        let (next_ref, busy_ref, slots_ref) = (&next, &busy, &slots);
        crossbeam::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move |_| loop {
                    let i = next_ref.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    let t0 = Instant::now();
                    // Catch the unwind *inside* the worker: a panicking
                    // closure must not take the scope (and the caller)
                    // down with it, and other workers keep draining.
                    let r = std::panic::catch_unwind(AssertUnwindSafe(|| f(w, i, item)));
                    busy_ref.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                    slots_ref.lock()[i] = Some(r);
                });
            }
        })
        .expect("pool workers catch their own panics");

        let mut out = Vec::with_capacity(items.len());
        for (i, slot) in slots.into_inner().into_iter().enumerate() {
            match slot {
                Some(Ok(v)) => out.push(v),
                Some(Err(payload)) => {
                    return Err(BuildError::WorkerPanicked {
                        what: what.to_string(),
                        message: panic_message(&*payload),
                    })
                }
                None => {
                    return Err(BuildError::WorkerPanicked {
                        what: what.to_string(),
                        message: format!("slot {i} left unfilled"),
                    })
                }
            }
        }
        let stats = PoolStats {
            wall_us: start.elapsed().as_micros() as u64,
            busy_us: busy.into_inner(),
        };
        Ok((out, stats))
    }

    /// Executes one phase of independent actions.
    ///
    /// Wall-clock:
    /// * distributed — `dispatch_secs + max(action cpu)`: every action
    ///   gets its own worker, so the phase takes as long as its
    ///   longest action, plus the scheduler overhead;
    /// * workstation — `sum(action cpu)`: serial execution.
    ///
    /// An empty phase (everything was a cache hit) costs nothing.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ActionOverMemoryLimit`] if any action's
    /// declared peak RSS exceeds the distributed per-action limit; no
    /// action of the phase runs in that case.
    pub fn run_phase(&self, actions: &[ActionSpec]) -> Result<PhaseReport, BuildError> {
        if let Some(limit) = self.machine.ram_limit() {
            if let Some(over) = actions.iter().find(|a| a.peak_rss_bytes > limit) {
                return Err(BuildError::ActionOverMemoryLimit {
                    action: over.name.clone(),
                    needed_bytes: over.peak_rss_bytes,
                    limit_bytes: limit,
                });
            }
        }
        if actions.is_empty() {
            return Ok(PhaseReport::default());
        }
        let cpu_secs: f64 = actions.iter().map(|a| a.cpu_secs).sum();
        let critical_path = actions.iter().map(|a| a.cpu_secs).fold(0.0, f64::max);
        let wall_secs = match self.machine {
            MachineConfig::Distributed { dispatch_secs, .. } => dispatch_secs + critical_path,
            MachineConfig::Workstation => cpu_secs,
        };
        Ok(PhaseReport {
            wall_secs,
            cpu_secs,
            num_actions: actions.len(),
            max_action_memory: actions
                .iter()
                .map(|a| a.peak_rss_bytes)
                .max()
                .unwrap_or(0),
            // Modeled phases execute nothing locally; measured timing
            // is merged in by callers that ran real work on the pool.
            wall_us: 0,
            busy_us: 0,
        })
    }

    /// [`run_phase`](Executor::run_phase), plus one telemetry span per
    /// action under `parent`.
    ///
    /// Actions here are *modeled* — their cost lives in the cost model,
    /// not in local wall-clock — so each span is emitted with zero wall
    /// duration, its modeled CPU seconds as simulated time, and its
    /// declared peak RSS. The phase's wall-clock (dispatch + critical
    /// path, or serial sum) stays on the `parent` span the caller owns.
    pub fn run_phase_traced(
        &self,
        actions: &[ActionSpec],
        tel: &Telemetry,
        parent: Option<SpanId>,
    ) -> Result<PhaseReport, BuildError> {
        let report = self.run_phase(actions)?;
        if tel.is_enabled() {
            for a in actions {
                tel.emit_span(
                    format!("action:{}", a.name),
                    parent,
                    a.cpu_secs,
                    a.peak_rss_bytes,
                );
                tel.observe("executor.action_rss_bytes", a.peak_rss_bytes as f64);
            }
            tel.counter_add("executor.actions", actions.len() as u64);
            tel.gauge_max(
                "executor.max_action_rss_bytes",
                report.max_action_memory as f64,
            );
        }
        Ok(report)
    }

    /// [`run_phase_traced`](Executor::run_phase_traced) with fault
    /// absorption: transient failures and timeouts scheduled by the
    /// attached injector are retried under the [`RetryPolicy`], with
    /// exponential backoff + deterministic jitter charged in *modeled*
    /// seconds (nothing sleeps).
    ///
    /// Retry semantics: faults only roll on attempts that still have
    /// retry budget left, so the final budgeted attempt of a flaky
    /// action always succeeds — modeling the build system reassigning
    /// the action to a healthy worker. Failed attempts burn their full
    /// modeled cost (the action's CPU seconds for a transient crash,
    /// the timeout deadline for a hang), and each retry waits out a
    /// backoff; all of it lands in the phase's wall/CPU accounting, so
    /// chaos shows up in Table-5-style numbers instead of being free.
    ///
    /// Without an injector (or with an empty plan) this is exactly
    /// [`run_phase_traced`](Executor::run_phase_traced): same report,
    /// same spans, zero [`ResilienceReport`] — the guarantee behind
    /// "zero-fault runs are bit-identical".
    pub fn run_phase_resilient_traced(
        &self,
        actions: &[ActionSpec],
        tel: &Telemetry,
        parent: Option<SpanId>,
    ) -> Result<(PhaseReport, ResilienceReport), BuildError> {
        let inj = match &self.faults {
            Some(inj) if !inj.plan().is_none() => inj,
            _ => {
                let report = self.run_phase_traced(actions, tel, parent)?;
                return Ok((report, ResilienceReport::default()));
            }
        };
        // Admission control is unchanged: an over-limit action is a
        // plan error, not a fault to retry.
        if let Some(limit) = self.machine.ram_limit() {
            if let Some(over) = actions.iter().find(|a| a.peak_rss_bytes > limit) {
                return Err(BuildError::ActionOverMemoryLimit {
                    action: over.name.clone(),
                    needed_bytes: over.peak_rss_bytes,
                    limit_bytes: limit,
                });
            }
        }
        if actions.is_empty() {
            return Ok((PhaseReport::default(), ResilienceReport::default()));
        }
        let mut res = ResilienceReport::default();
        let mut cpu_secs = 0.0f64;
        let mut critical_path = 0.0f64;
        let mut serial_latency = 0.0f64;
        for a in actions {
            // One worker's modeled timeline for this action: failed
            // attempts + backoffs + the final successful run.
            let mut work = 0.0f64; // CPU the attempts burned
            let mut waited = 0.0f64; // backoff between attempts
            let mut attempt: u32 = 0;
            loop {
                let retryable = attempt + 1 < self.retry.max_attempts.max(1);
                // Roll order is fixed (hang before crash) and rolls
                // only happen while budget remains, so every fired
                // fault is observed and retried exactly once.
                if retryable && inj.fires(FaultKind::ActionTimeout, &a.name) {
                    work += self.retry.timeout_secs;
                    res.timeouts += 1;
                } else if retryable && inj.fires(FaultKind::TransientActionFailure, &a.name) {
                    work += a.cpu_secs;
                    res.retries += 1;
                } else {
                    work += a.cpu_secs;
                    break;
                }
                let backoff = self.retry.backoff_secs(inj, &a.name, attempt);
                waited += backoff;
                res.backoff_secs += backoff;
                attempt += 1;
            }
            let latency = work + waited;
            cpu_secs += work;
            critical_path = critical_path.max(latency);
            serial_latency += latency;
            if tel.is_enabled() {
                tel.emit_span(format!("action:{}", a.name), parent, latency, a.peak_rss_bytes);
                tel.observe("executor.action_rss_bytes", a.peak_rss_bytes as f64);
            }
        }
        let wall_secs = match self.machine {
            MachineConfig::Distributed { dispatch_secs, .. } => dispatch_secs + critical_path,
            MachineConfig::Workstation => serial_latency,
        };
        let report = PhaseReport {
            wall_secs,
            cpu_secs,
            num_actions: actions.len(),
            max_action_memory: actions.iter().map(|a| a.peak_rss_bytes).max().unwrap_or(0),
            wall_us: 0,
            busy_us: 0,
        };
        if tel.is_enabled() {
            tel.counter_add("executor.actions", actions.len() as u64);
            tel.gauge_max("executor.max_action_rss_bytes", report.max_action_memory as f64);
            if res.retries > 0 {
                tel.counter_add("executor.action_retries", res.retries);
            }
            if res.timeouts > 0 {
                tel.counter_add("executor.action_timeouts", res.timeouts);
            }
        }
        Ok((report, res))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase() -> Vec<ActionSpec> {
        vec![
            ActionSpec::new("a", 1.0, 100),
            ActionSpec::new("b", 4.0, 300),
            ActionSpec::new("c", 2.0, 200),
        ]
    }

    #[test]
    fn distributed_wall_is_dispatch_plus_critical_path() {
        let ex = Executor::new(MachineConfig::Distributed {
            ram_limit: GIB,
            dispatch_secs: 2.0,
        });
        let r = ex.run_phase(&phase()).unwrap();
        assert!((r.wall_secs - 6.0).abs() < 1e-12, "2 + max(1,4,2)");
        assert!((r.cpu_secs - 7.0).abs() < 1e-12);
        assert_eq!(r.num_actions, 3);
        assert_eq!(r.max_action_memory, 300);
    }

    #[test]
    fn workstation_wall_is_serial_sum() {
        let ex = Executor::new(MachineConfig::workstation());
        let r = ex.run_phase(&phase()).unwrap();
        assert!((r.wall_secs - 7.0).abs() < 1e-12, "1 + 4 + 2 serially");
    }

    #[test]
    fn empty_phase_is_free() {
        let ex = Executor::new(MachineConfig::distributed());
        let r = ex.run_phase(&[]).unwrap();
        assert_eq!(r, PhaseReport::default());
    }

    #[test]
    fn distributed_rejects_over_limit_action() {
        let ex = Executor::new(MachineConfig::distributed());
        let err = ex
            .run_phase(&[
                ActionSpec::new("ok", 1.0, GIB),
                ActionSpec::new("llvm-bolt", 600.0, 36 * GIB),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::ActionOverMemoryLimit {
                action: "llvm-bolt".into(),
                needed_bytes: 36 * GIB,
                limit_bytes: 12 * GIB,
            }
        );
    }

    #[test]
    fn workstation_admits_any_size() {
        let ex = Executor::new(MachineConfig::workstation());
        let r = ex
            .run_phase(&[ActionSpec::new("llvm-bolt", 600.0, 36 * GIB)])
            .unwrap();
        assert_eq!(r.max_action_memory, 36 * GIB);
    }

    #[test]
    fn traced_phase_emits_one_span_per_action() {
        let tel = Telemetry::enabled();
        let ex = Executor::new(MachineConfig::distributed());
        let parent = {
            let phase_span = tel.span("phase");
            ex.run_phase_traced(&phase(), &tel, phase_span.id()).unwrap();
            phase_span.id().unwrap()
        };
        let trace = tel.drain();
        let children = trace.children(parent);
        assert_eq!(children.len(), 3);
        assert!(children.iter().any(|s| s.name == "action:b" && s.sim_secs == 4.0));
        assert_eq!(trace.metrics.counter("executor.actions"), 3);
        assert_eq!(trace.metrics.gauges["executor.max_action_rss_bytes"], 300.0);
    }

    #[test]
    fn traced_phase_on_disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        let ex = Executor::new(MachineConfig::distributed());
        let r = ex.run_phase_traced(&phase(), &tel, None).unwrap();
        assert_eq!(r.num_actions, 3);
        assert!(tel.drain().spans.is_empty());
    }

    #[test]
    fn resilient_without_faults_matches_legacy_exactly() {
        let ex = Executor::new(MachineConfig::distributed());
        let tel = Telemetry::enabled();
        let (r, res) = ex.run_phase_resilient_traced(&phase(), &tel, None).unwrap();
        assert_eq!(r, ex.run_phase(&phase()).unwrap());
        assert_eq!(res, ResilienceReport::default());
        let trace = tel.drain();
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.metrics.counter("executor.action_retries"), 0);
    }

    #[test]
    fn always_transient_retries_and_charges_wasted_work() {
        use propeller_faults::{FaultPlan, FaultSpec};
        let plan =
            FaultPlan { transient_action_failure: FaultSpec::always(), ..FaultPlan::none() };
        let rp = RetryPolicy { jitter_frac: 0.0, ..RetryPolicy::default() };
        let ex = Executor::new(MachineConfig::workstation())
            .with_faults(Arc::new(FaultInjector::new(plan, 3)), rp);
        let actions = [ActionSpec::new("a", 1.0, 100)];
        let (r, res) = ex
            .run_phase_resilient_traced(&actions, &Telemetry::disabled(), None)
            .unwrap();
        // 4 attempts: 3 transient failures + the guaranteed final
        // success, plus backoffs 0.5 + 1.0 + 2.0.
        assert_eq!(res.retries, 3);
        assert_eq!(res.timeouts, 0);
        assert!((res.backoff_secs - 3.5).abs() < 1e-12);
        assert!((r.cpu_secs - 4.0).abs() < 1e-12);
        assert!((r.wall_secs - 7.5).abs() < 1e-12);
    }

    #[test]
    fn always_timeout_burns_deadline_not_cpu() {
        use propeller_faults::{FaultPlan, FaultSpec};
        let plan = FaultPlan { action_timeout: FaultSpec::count(1.0, 1), ..FaultPlan::none() };
        let rp = RetryPolicy { jitter_frac: 0.0, timeout_secs: 10.0, ..RetryPolicy::default() };
        let ex = Executor::new(MachineConfig::workstation())
            .with_faults(Arc::new(FaultInjector::new(plan, 3)), rp);
        let actions = [ActionSpec::new("a", 1.0, 100)];
        let (r, res) = ex
            .run_phase_resilient_traced(&actions, &Telemetry::disabled(), None)
            .unwrap();
        assert_eq!(res.timeouts, 1);
        // Hung attempt (10 s) + backoff (0.5 s) + clean rerun (1 s).
        assert!((r.cpu_secs - 11.0).abs() < 1e-12);
        assert!((r.wall_secs - 11.5).abs() < 1e-12);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        use propeller_faults::{FaultPlan, FaultSpec};
        let plan = FaultPlan {
            transient_action_failure: FaultSpec::p(0.4),
            action_timeout: FaultSpec::p(0.2),
            ..FaultPlan::none()
        };
        let run = |seed| {
            let ex = Executor::new(MachineConfig::distributed()).with_faults(
                Arc::new(FaultInjector::new(plan.clone(), seed)),
                RetryPolicy::default(),
            );
            ex.run_phase_resilient_traced(&phase(), &Telemetry::disabled(), None).unwrap()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn resilient_still_rejects_over_limit_actions() {
        use propeller_faults::{FaultPlan, FaultSpec};
        let plan =
            FaultPlan { transient_action_failure: FaultSpec::always(), ..FaultPlan::none() };
        let ex = Executor::new(MachineConfig::distributed())
            .with_faults(Arc::new(FaultInjector::new(plan, 1)), RetryPolicy::default());
        let err = ex
            .run_phase_resilient_traced(
                &[ActionSpec::new("llvm-bolt", 600.0, 36 * GIB)],
                &Telemetry::disabled(),
                None,
            )
            .unwrap_err();
        assert!(matches!(err, BuildError::ActionOverMemoryLimit { .. }));
    }

    #[test]
    fn exactly_at_limit_is_admitted() {
        let ex = Executor::new(MachineConfig::distributed());
        assert!(ex
            .run_phase(&[ActionSpec::new("edge", 1.0, 12 * GIB)])
            .is_ok());
    }

    #[test]
    fn pool_results_are_in_item_order_at_any_width() {
        let items: Vec<u64> = (0..100).collect();
        let serial = Executor::new(MachineConfig::distributed()).with_jobs(1);
        let (expect, _) = serial
            .execute_indexed("square", &items, |_, i, &x| (i as u64, x * x))
            .unwrap();
        for jobs in [2, 3, 8] {
            let ex = Executor::new(MachineConfig::distributed()).with_jobs(jobs);
            let (got, stats) = ex
                .execute_indexed("square", &items, |_, i, &x| (i as u64, x * x))
                .unwrap();
            assert_eq!(got, expect, "jobs={jobs}");
            assert!(stats.wall_us > 0 || stats.busy_us == 0);
        }
    }

    #[test]
    fn pool_handles_empty_and_single_item_batches() {
        let ex = Executor::new(MachineConfig::distributed()).with_jobs(8);
        let (empty, _) = ex.execute_indexed("noop", &[] as &[u32], |_, _, &x| x).unwrap();
        assert!(empty.is_empty());
        let (one, _) = ex.execute_indexed("one", &[7u32], |w, _, &x| (w, x)).unwrap();
        // A single item runs inline on the calling thread as worker 0.
        assert_eq!(one, vec![(0, 7)]);
    }

    #[test]
    fn panicked_worker_surfaces_as_typed_error_not_a_hang() {
        for jobs in [1, 4] {
            let ex = Executor::new(MachineConfig::distributed()).with_jobs(jobs);
            let items: Vec<u32> = (0..32).collect();
            let err = ex
                .execute_indexed("flaky batch", &items, |_, _, &x| {
                    if x == 13 {
                        panic!("unlucky item {x}");
                    }
                    x
                })
                .unwrap_err();
            match err {
                BuildError::WorkerPanicked { what, message } => {
                    assert_eq!(what, "flaky batch");
                    assert!(message.contains("unlucky item 13"), "{message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn lowest_index_panic_wins_regardless_of_interleaving() {
        let ex = Executor::new(MachineConfig::distributed()).with_jobs(8);
        let items: Vec<u32> = (0..64).collect();
        let err = ex
            .execute_indexed("double panic", &items, |_, _, &x| {
                if x == 9 || x == 40 {
                    panic!("item {x}");
                }
                x
            })
            .unwrap_err();
        assert!(matches!(
            err,
            BuildError::WorkerPanicked { ref message, .. } if message.contains("item 9")
        ));
    }

    #[test]
    fn with_jobs_clamps_to_one() {
        let ex = Executor::new(MachineConfig::distributed()).with_jobs(0);
        assert_eq!(ex.jobs(), 1);
    }
}
