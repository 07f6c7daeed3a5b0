//! Wall-clock benchmark of the Propeller reproduction.
//!
//! ```text
//! propeller-wallbench --workload <cold-clang|release-train|serve-burst>
//!                     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload through the library crates' public functions for
//! `--seconds` of measured wall time and checks every output it
//! produces. The last line of standard output is one JSON object: the
//! correctness verdict, the operations attempted and failed, and either
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics of an
//! extra traced pass (`--trace 1`). Program code is timed from outside,
//! around its public calls; the traced pass also enables the program's
//! own `Telemetry` handle and summarizes the spans it already records.

mod layers;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

pub type BoxError = Box<dyn std::error::Error>;

/// Metric values by name; units come from [`END_TO_END`] and
/// [`PER_LAYER`].
pub type Metrics = BTreeMap<&'static str, f64>;

/// End-to-end metrics (`--trace 0`), in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("relink_s", "s"),
    ("eval_s", "s"),
    ("total_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("opt_cycles_ratio", "ratio"),
    ("text_bytes", "bytes"),
    ("served_ratio", "ratio"),
];

/// Printed with the end-to-end metrics but not part of the result line:
/// `speedup_pct` varies between seeds by more than any usable bound
/// (it is `opt_cycles_ratio` seen from 1.0), and `failed_ratio` is 0
/// on a correct run (the result line carries `attempted` and `failed`).
const REPORTED_ONLY: [(&str, &str); 1] = [("speedup_pct", "%")];

/// Per-layer metrics (`--trace 1`), in output order.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("synth.generate_s", "s"),
    ("synth.evolve_s", "s"),
    ("core.phase1_s", "s"),
    ("core.phase2_s", "s"),
    ("core.phase3_s", "s"),
    ("core.phase4_s", "s"),
    ("core.baseline_s", "s"),
    ("core.evaluate_s", "s"),
    ("buildsys.codegen_pool_s", "s"),
    ("buildsys.pool_efficiency", "ratio"),
    ("buildsys.obj_hit_ratio", "ratio"),
    ("buildsys.ir_hit_ratio", "ratio"),
    ("buildsys.codegen_misses", "count"),
    ("codegen.s", "s"),
    ("codegen.ns_per_inst", "ns/inst"),
    ("codegen.growth", "x"),
    ("linker.pm_s", "s"),
    ("linker.po_s", "s"),
    ("linker.ns_per_block", "ns/block"),
    ("linker.emit_s", "s"),
    ("linker.relax_s", "s"),
    ("linker.ordering_s", "s"),
    ("linker.growth", "x"),
    ("wpa.s", "s"),
    ("wpa.intra_layout_s", "s"),
    ("wpa.exttsp_merges", "count"),
    ("sim.image_build_s", "s"),
    ("sim.blocks_per_s", "blocks/s"),
    ("serve.jobs_completed", "count"),
    ("serve.wall_per_job_s", "s"),
    ("serve.obj_hit_ratio", "ratio"),
    ("serve.batch_job_s", "s"),
    ("telemetry.overhead_ratio", "ratio"),
];

/// A seed kept out of tuning: a claimed speed-up must also hold here.
pub const HELD_OUT_SEED: u64 = 0x4E1D_0057;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// clang at scale 0.1, empty caches, two codegen workers.
    ColdClang,
    /// clang at scale 0.02 plus eight evolved releases sharing caches.
    ReleaseTrain,
    /// The relink service draining 96 requests from six tenants.
    ServeBurst,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ColdClang,
        Workload::ReleaseTrain,
        Workload::ServeBurst,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdClang => "cold-clang",
            Workload::ReleaseTrain => "release-train",
            Workload::ServeBurst => "serve-burst",
        }
    }

    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ColdClang | Workload::ReleaseTrain => 0xA5_2023,
            Workload::ServeBurst => 0xC0FFEE,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: propeller-wallbench --workload <cold-clang|release-train|serve-burst> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.replace('_', "").parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(bad)?);
            }
            "--seed" => seed = Some(parse_u64(&value).ok_or_else(bad)?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    })
}

/// Correctness bookkeeping: every operation (a build, a release, a
/// service job, an equivalence check) is attempted once and either
/// passes or is counted failed with a reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Books `attempted` operations of which `failed` failed.
    pub fn book(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(why());
        }
    }

    /// Books one operation that passed iff `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.book(1, u64::from(!ok), why);
    }

    /// Books one failed operation.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.book(1, 1, || why.to_string());
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Renders the result line: verdict, operation counts, and `metrics`
/// in the order of `table`. Names missing from `metrics` are left out.
fn result_json(tally: &Tally, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .filter_map(|(name, unit)| {
            let v = metrics.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn render_table(title: &str, metrics: &Metrics, table: &[(&str, &str)]) -> String {
    let mut out = format!("{title}\n");
    for (name, unit) in table {
        let value = metrics
            .get(name)
            .map_or("missing".to_string(), |v| format!("{v:.6}"));
        out += &format!("  {name:<30} {value:>18} {unit}\n");
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    match workloads::run_report_matches_baseline() {
        Ok(same) => tally.check(same, || {
            "run_report for clang at scale 0.004, seed 77 differs from ci/bench_baseline.json"
                .into()
        }),
        Err(e) => tally.fail(format!("run_report check: {e}")),
    }
    let outcome = match workloads::run(&args, &mut tally) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    // A non-finite value is a benchmark bug; it must not reach the JSON.
    for (name, v) in outcome
        .end_to_end
        .iter()
        .chain(outcome.per_layer.iter().flatten())
    {
        if !v.is_finite() {
            eprintln!("{}: metric {name} is {v}", args.workload.name());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "workload {} seed {:#x} ({} s measured, held-out seed {:#x})",
        args.workload.name(),
        args.seed,
        args.seconds,
        HELD_OUT_SEED
    );
    print!(
        "{}",
        render_table("end-to-end", &outcome.end_to_end, &END_TO_END)
    );
    print!(
        "{}",
        render_table(
            "reported, not in the result line",
            &outcome.end_to_end,
            &REPORTED_ONLY
        )
    );
    println!(
        "  {:<30} {:>18.6} ratio ({} of {} operations failed)",
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    print!("samples of the measured loop\n{}", outcome.samples);
    if let Some(layers) = &outcome.per_layer {
        print!(
            "{}",
            render_table("per-layer (traced pass)", layers, &PER_LAYER)
        );
    }
    if let Some(table) = &outcome.span_table {
        print!("spans of the traced pass, by name\n{table}");
    }
    for why in &tally.failures {
        println!("FAILED: {why}");
    }
    match &outcome.per_layer {
        Some(layers) => println!("{}", result_json(&tally, layers, &PER_LAYER)),
        None => println!("{}", result_json(&tally, &outcome.end_to_end, &END_TO_END)),
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "serve-burst",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::ServeBurst, 7, 12.0, true)
        );
        let a = args(&["--workload", "cold-clang"]).unwrap();
        assert_eq!(a.seed, 0xA5_2023);
        assert!(args(&["--workload", "x"]).is_err());
        assert_eq!(parse_u64("0x4E1D_0057"), Some(HELD_OUT_SEED));
        assert!(args(&["--trace", "2", "--workload", "cold-clang"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut tally = Tally::default();
        tally.check(true, String::new);
        let metrics: Metrics = [("setup_s", 0.25), ("relink_s", 1.5)].into_iter().collect();
        assert_eq!(
            result_json(&tally, &metrics, &END_TO_END),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"relink_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
