//! The built-in chaos matrix: every fault family alone and in
//! combination, run end to end with its survival invariants checked.
//!
//! Each scenario must complete all four phases, ship a binary that
//! retires the baseline's block trace, and account for every injected
//! fault exactly in its degradation ledger. [`run_chaos_matrix`]
//! returns per-scenario outcomes with their violations, the same way
//! `propeller_serve::run_soak` does; rendering is the caller's.

use crate::runner::generate_for;
use propeller::{DegradationLedger, FaultPlan, Propeller, PropellerOptions};
use propeller_synth::BenchmarkSpec;
use propeller_telemetry::JsonValue;

/// Blocks executed per scenario evaluation.
const EVAL_BUDGET: u64 = 150_000;

/// The matrix, bracketed by the clean run (must stay ledger-clean) and
/// total profile loss (must fall back to the identity layout).
pub fn chaos_matrix() -> Vec<(&'static str, FaultPlan)> {
    let parse = |s: &str| FaultPlan::parse(s).expect("static chaos plan literal parses");
    vec![
        ("zero-faults", FaultPlan::none()),
        ("transient-storm", parse("transient=0.7")),
        ("timeout-storm", parse("timeout=0.5")),
        ("cache-chaos", parse("corrupt-cache=0.5,evict-cache=0.3")),
        ("partial-profile-loss", parse("corrupt-lbr=0.4,truncate-samples=0.3")),
        ("full-profile-loss", FaultPlan::full_profile_loss()),
        ("permanent-codegen", parse("permanent-codegen=1")),
        (
            "kitchen-sink",
            parse(
                "transient=0.4,timeout=0.2,corrupt-cache=0.4,evict-cache=0.2,\
                 corrupt-lbr=0.3,truncate-samples=0.3,permanent-codegen=0.5",
            ),
        ),
    ]
}

/// One scenario's result.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    pub name: &'static str,
    pub plan: FaultPlan,
    /// The run's degradation ledger; `None` when the pipeline failed.
    pub ledger: Option<DegradationLedger>,
    /// Modeled speedup; `None` when the pipeline or evaluation failed.
    pub speedup_pct: Option<f64>,
    /// Every violated invariant, each prefixed `[name]`.
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// The scenario's `chaos_report.json` entry.
    pub fn to_json(&self) -> JsonValue {
        let mut members = vec![
            ("name".to_string(), JsonValue::Str(self.name.to_string())),
            ("plan".to_string(), JsonValue::Str(self.plan.to_spec_string())),
        ];
        if let Some(s) = self.speedup_pct {
            members.push(("speedup_pct".to_string(), JsonValue::Num(s)));
        }
        if let Some(ledger) = &self.ledger {
            members.push((
                "layout_mode".to_string(),
                JsonValue::Str(ledger.layout_mode.as_str().to_string()),
            ));
            members.push((
                "degradation".to_string(),
                JsonValue::Obj(
                    ledger
                        .entries()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), JsonValue::Num(v)))
                        .collect(),
                ),
            ));
        }
        members.push(("survived".to_string(), JsonValue::Bool(self.violations.is_empty())));
        JsonValue::Obj(members)
    }
}

/// Runs one scenario on `spec` and checks every invariant.
pub fn run_chaos_scenario(
    name: &'static str,
    plan: FaultPlan,
    spec: &BenchmarkSpec,
    scale: f64,
    seed: u64,
) -> ChaosOutcome {
    let mut violations = Vec::new();
    let mut fail = |what: String| violations.push(format!("[{name}] {what}"));
    let gen = generate_for(spec, scale, seed);
    let opts = PropellerOptions { faults: plan.clone(), seed, ..PropellerOptions::default() };
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    let mut speedup_pct = None;
    let ledger = match pipeline.run_all() {
        Ok(report) => Some(report.degradation),
        Err(e) => {
            fail(format!("pipeline failed to complete: {e}"));
            None
        }
    };
    if let Some(ledger) = &ledger {
        // Survival: the degraded binary must still retire exactly the
        // baseline's block trace, with finite accounting.
        match pipeline.evaluate(EVAL_BUDGET) {
            Ok(eval) => {
                if eval.optimized.blocks != eval.baseline.blocks {
                    fail(format!(
                        "optimized binary retires {} blocks, baseline {} — not \
                         semantically equivalent",
                        eval.optimized.blocks, eval.baseline.blocks
                    ));
                }
                speedup_pct = Some(eval.speedup_pct());
            }
            Err(e) => fail(format!("evaluation failed: {e}")),
        }
        if !ledger.retry_backoff_secs.is_finite() {
            fail("retry backoff accumulated to a non-finite value".into());
        }
        // Exact accounting: every fault the injector fired must be
        // visible in the ledger, one-for-one.
        if let Some(inj) = pipeline.fault_injector() {
            for m in ledger.booking_mismatches(inj) {
                fail(m.to_string());
            }
            if ledger.cache_rebuilds != ledger.cache_corruptions + ledger.cache_evictions {
                fail(format!(
                    "{} cache rebuilds for {} corruptions + {} evictions",
                    ledger.cache_rebuilds, ledger.cache_corruptions, ledger.cache_evictions
                ));
            }
        } else if !plan.is_none() {
            fail("non-empty plan but no injector was armed".into());
        }
        if plan.is_none() && !ledger.is_clean() {
            fail(format!("zero-fault run dirtied the ledger: {ledger}"));
        }
    }
    ChaosOutcome { name, plan, ledger, speedup_pct, violations }
}

/// Runs every [`chaos_matrix`] scenario on `spec`, in matrix order.
pub fn run_chaos_matrix(spec: &BenchmarkSpec, scale: f64, seed: u64) -> Vec<ChaosOutcome> {
    chaos_matrix()
        .into_iter()
        .map(|(name, plan)| run_chaos_scenario(name, plan, spec, scale, seed))
        .collect()
}
