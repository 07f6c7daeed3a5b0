//! The degradation ledger: exact accounting of everything that went
//! wrong and what the pipeline did about it.
//!
//! The ledger is the observable half of the robustness story. The
//! acceptance bar is *exact* accounting: for any seeded plan, each
//! fault the injector fired shows up in precisely one ledger counter,
//! and a clean ledger ([`DegradationLedger::is_clean`]) certifies the
//! run took the exact undegraded path.

use crate::{FaultInjector, FaultKind};
use std::fmt;

/// Which symbol-ordering mode the final relink used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LayoutMode {
    /// The optimized Ext-TSP layout from WPA was applied.
    #[default]
    Optimized,
    /// WPA input was unusable (profile survival below the floor), so
    /// the relink used the identity symbol order — the baseline-
    /// equivalent layout that is always correct.
    IdentityFallback,
}

impl LayoutMode {
    pub fn as_str(self) -> &'static str {
        match self {
            LayoutMode::Optimized => "optimized",
            LayoutMode::IdentityFallback => "identity-fallback",
        }
    }
}

/// A fault kind whose fired count disagrees with its ledger booking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BookingMismatch {
    pub kind: FaultKind,
    /// Faults of `kind` the injector fired.
    pub fired: u64,
    /// Degradations the ledger booked for them.
    pub booked: u64,
}

impl fmt::Display for BookingMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injector fired {} {} fault(s) but the ledger accounts for {}",
            self.fired,
            self.kind.key(),
            self.booked
        )
    }
}

/// Counters for every degradation event of one pipeline run.
///
/// All counters are modeled events, so the ledger is deterministic for
/// a fixed `(seed, plan)` and `PartialEq` makes replay checks exact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DegradationLedger {
    /// Transient action failures the executor retried.
    pub action_retries: u64,
    /// Action attempts that hit the retry policy's modeled deadline.
    pub action_timeouts: u64,
    /// Modeled seconds spent in retry backoff (incl. jitter).
    pub retry_backoff_secs: f64,
    /// Cache entries whose content digest failed verification.
    pub cache_corruptions: u64,
    /// Cache entries that had been silently evicted before lookup.
    pub cache_evictions: u64,
    /// Artifacts rebuilt because their cache entry was corrupt or
    /// evicted (one per corruption/eviction that had a live entry).
    pub cache_rebuilds: u64,
    /// LBR records the injector corrupted in flight.
    pub lbr_records_corrupted: u64,
    /// Corrupt records the phase-3 salvage pass dropped.
    pub lbr_records_dropped: u64,
    /// LBR samples that lost the tail of their record stack.
    pub lbr_samples_truncated: u64,
    /// Records lost to those truncations.
    pub lbr_records_truncated: u64,
    /// Hot functions demoted to cold because profile coverage fell
    /// below the configured floor.
    pub functions_marked_cold: u64,
    /// Hot objects whose re-codegen permanently failed and that fell
    /// back to the cached baseline (labels) codegen.
    pub objects_fallen_back: u64,
    /// Layout mode the relink actually used.
    pub layout_mode: LayoutMode,
}

impl DegradationLedger {
    /// True iff nothing degraded: every counter zero and the
    /// optimized layout applied. Zero-fault plans must yield a clean
    /// ledger, and reports omit the degradation section entirely in
    /// that case so their JSON stays bit-identical to pre-fault-layer
    /// output.
    pub fn is_clean(&self) -> bool {
        *self == DegradationLedger::default()
    }

    /// The ledger as stable `(name, value)` pairs, in a fixed order —
    /// the single source for report JSON, telemetry metrics, and the
    /// doctor diff. `layout_identity_fallback` encodes the layout
    /// mode as 0/1.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("action_retries", self.action_retries as f64),
            ("action_timeouts", self.action_timeouts as f64),
            ("retry_backoff_secs", self.retry_backoff_secs),
            ("cache_corruptions", self.cache_corruptions as f64),
            ("cache_evictions", self.cache_evictions as f64),
            ("cache_rebuilds", self.cache_rebuilds as f64),
            ("lbr_records_corrupted", self.lbr_records_corrupted as f64),
            ("lbr_records_dropped", self.lbr_records_dropped as f64),
            ("lbr_samples_truncated", self.lbr_samples_truncated as f64),
            ("lbr_records_truncated", self.lbr_records_truncated as f64),
            ("functions_marked_cold", self.functions_marked_cold as f64),
            ("objects_fallen_back", self.objects_fallen_back as f64),
            (
                "layout_identity_fallback",
                match self.layout_mode {
                    LayoutMode::Optimized => 0.0,
                    LayoutMode::IdentityFallback => 1.0,
                },
            ),
        ]
    }

    /// Every pipeline fault kind whose `injector` fire count differs
    /// from what this ledger booked for it. Empty means exact,
    /// one-for-one accounting: no silent drops, no double counting.
    pub fn booking_mismatches(&self, injector: &FaultInjector) -> Vec<BookingMismatch> {
        [
            (FaultKind::TransientActionFailure, self.action_retries),
            (FaultKind::ActionTimeout, self.action_timeouts),
            (FaultKind::CacheCorruption, self.cache_corruptions),
            (FaultKind::CacheEviction, self.cache_evictions),
            (FaultKind::LbrRecordCorruption, self.lbr_records_corrupted),
            (FaultKind::SampleTruncation, self.lbr_samples_truncated),
            (FaultKind::PermanentCodegenFailure, self.objects_fallen_back),
        ]
        .into_iter()
        .map(|(kind, booked)| BookingMismatch { kind, fired: injector.fired(kind), booked })
        .filter(|m| m.fired != m.booked)
        .collect()
    }

    /// Rebuild a ledger from `entries()`-shaped pairs (report JSON
    /// round-trip). Unknown names are ignored so old readers tolerate
    /// new counters.
    pub fn from_entries<'a>(pairs: impl IntoIterator<Item = (&'a str, f64)>) -> Self {
        let mut l = DegradationLedger::default();
        for (name, v) in pairs {
            match name {
                "action_retries" => l.action_retries = v as u64,
                "action_timeouts" => l.action_timeouts = v as u64,
                "retry_backoff_secs" => l.retry_backoff_secs = v,
                "cache_corruptions" => l.cache_corruptions = v as u64,
                "cache_evictions" => l.cache_evictions = v as u64,
                "cache_rebuilds" => l.cache_rebuilds = v as u64,
                "lbr_records_corrupted" => l.lbr_records_corrupted = v as u64,
                "lbr_records_dropped" => l.lbr_records_dropped = v as u64,
                "lbr_samples_truncated" => l.lbr_samples_truncated = v as u64,
                "lbr_records_truncated" => l.lbr_records_truncated = v as u64,
                "functions_marked_cold" => l.functions_marked_cold = v as u64,
                "objects_fallen_back" => l.objects_fallen_back = v as u64,
                "layout_identity_fallback" => {
                    l.layout_mode = if v != 0.0 {
                        LayoutMode::IdentityFallback
                    } else {
                        LayoutMode::Optimized
                    }
                }
                _ => {}
            }
        }
        l
    }

    /// Record the ledger as telemetry counters/gauges under `prefix`
    /// (e.g. `faults.action_retries`). No-op on a disabled handle;
    /// callers also skip it for clean ledgers so zero-fault traces
    /// stay identical to pre-fault-layer ones.
    pub fn record_metrics(&self, tel: &propeller_telemetry::Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        for (name, v) in self.entries() {
            if name == "retry_backoff_secs" || name == "layout_identity_fallback" {
                tel.gauge_set(&format!("{prefix}.{name}"), v);
            } else {
                tel.counter_add(&format!("{prefix}.{name}"), v as u64);
            }
        }
    }

    /// Human-readable multi-line summary (CLI output).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return "degradation ledger: clean (no faults observed)\n".to_string();
        }
        let mut out = String::from("degradation ledger:\n");
        for (name, v) in self.entries() {
            if name == "layout_identity_fallback" {
                continue;
            }
            if v != 0.0 {
                out.push_str(&format!("  {name:<24} {v}\n"));
            }
        }
        out.push_str(&format!("  {:<24} {}\n", "layout_mode", self.layout_mode.as_str()));
        out
    }
}

impl fmt::Display for DegradationLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ledger_is_clean() {
        let l = DegradationLedger::default();
        assert!(l.is_clean());
        assert!(l.entries().iter().all(|&(_, v)| v == 0.0));
        assert!(l.render().contains("clean"));
    }

    #[test]
    fn any_counter_or_fallback_dirties_the_ledger() {
        let l = DegradationLedger { action_retries: 1, ..DegradationLedger::default() };
        assert!(!l.is_clean());
        let l = DegradationLedger {
            layout_mode: LayoutMode::IdentityFallback,
            ..DegradationLedger::default()
        };
        assert!(!l.is_clean());
    }

    #[test]
    fn entries_roundtrip() {
        let l = DegradationLedger {
            action_retries: 3,
            action_timeouts: 1,
            retry_backoff_secs: 4.25,
            cache_corruptions: 2,
            cache_evictions: 1,
            cache_rebuilds: 3,
            lbr_records_corrupted: 40,
            lbr_records_dropped: 40,
            lbr_samples_truncated: 5,
            lbr_records_truncated: 55,
            functions_marked_cold: 7,
            objects_fallen_back: 2,
            layout_mode: LayoutMode::IdentityFallback,
        };
        let back = DegradationLedger::from_entries(l.entries());
        assert_eq!(back, l);
    }

    #[test]
    fn render_lists_nonzero_counters_only() {
        let l = DegradationLedger { cache_rebuilds: 2, ..DegradationLedger::default() };
        let text = l.render();
        assert!(text.contains("cache_rebuilds"));
        assert!(!text.contains("action_retries"));
        assert!(text.contains("optimized"));
    }

    #[test]
    fn booking_one_fault_short_is_one_mismatch() {
        let inj = FaultInjector::new(crate::FaultPlan::parse("transient=1:2").unwrap(), 7);
        assert!(inj.fires(FaultKind::TransientActionFailure, "compile m0"));
        assert!(inj.fires(FaultKind::TransientActionFailure, "compile m1"));
        let exact = DegradationLedger { action_retries: 2, ..DegradationLedger::default() };
        assert!(exact.booking_mismatches(&inj).is_empty());
        let short = DegradationLedger { action_retries: 1, ..DegradationLedger::default() };
        assert_eq!(
            short.booking_mismatches(&inj),
            vec![BookingMismatch { kind: FaultKind::TransientActionFailure, fired: 2, booked: 1 }]
        );
    }

    #[test]
    fn telemetry_recording_uses_prefix() {
        let tel = propeller_telemetry::Telemetry::enabled();
        let l = DegradationLedger { action_retries: 2, ..DegradationLedger::default() };
        l.record_metrics(&tel, "faults");
        let m = tel.drain().metrics;
        assert_eq!(m.counter("faults.action_retries"), 2);
    }
}
