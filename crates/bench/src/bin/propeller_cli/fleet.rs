//! The `fleet` subcommand: the continuous profile lifecycle across
//! releases.

use crate::args::Args;
use crate::error::{create_dir, step, write_quiet, CliError};
use propeller_doctor::RelinkPolicy;
use propeller_fleet::{run_fleet, FleetOptions};
use std::process::ExitCode;

pub fn fleet(args: &Args) -> Result<ExitCode, CliError> {
    let spec = args.spec()?;
    let mut fopts = FleetOptions::default();
    args.set("--seed", &mut fopts.seed)?;
    args.set("--releases", &mut fopts.releases)?;
    args.set("--machines", &mut fopts.machines)?;
    args.set("--drift", &mut fopts.drift)?;
    args.set("--history-window", &mut fopts.history_window)?;
    if let Some(max_skew) = args.get("--skew-threshold")? {
        fopts.policy = RelinkPolicy { max_skew };
    }
    if let Some(jobs) = args.jobs()? {
        fopts.jobs = jobs;
    }
    if let Some(plan) = args.faults()? {
        fopts.faults = plan;
    }
    fopts.provenance = args.has("--provenance");
    let scale = args.get("--scale")?.unwrap_or(spec.default_scale);
    let report = step("fleet run", run_fleet(&spec, scale, &fopts))?;
    println!(
        "fleet: {} scale {} seed {} | {} releases, {} machines, drift {}, \
         skew threshold {}, history window {}",
        report.benchmark,
        report.scale,
        report.seed,
        fopts.releases,
        report.machines,
        report.drift,
        report.skew_threshold,
        report.history_window,
    );
    println!(
        "{:>7}  {:>6}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}  {:>9}",
        "release", "skew", "decision", "achieved%", "oracle%", "gap%", "cache%", "dropped"
    );
    for r in &report.records {
        println!(
            "{:>7}  {:>6.3}  {:>9}  {:>9.3}  {:>9.3}  {:>8.3}  {:>6.1}  {:>9}",
            r.release,
            r.skew,
            r.decision,
            r.achieved_speedup_pct,
            r.oracle_speedup_pct,
            r.gap_pct,
            r.cache_hit_rate * 100.0,
            r.dropped_records,
        );
        for d in &r.divergences {
            println!("         | {d}");
        }
    }
    println!("mean post-bootstrap gap: {:.3}%", report.mean_gap_pct());
    if let Some(dir) = args.str("--out") {
        create_dir(dir)?;
        let json_path = format!("{dir}/fleet_report.json");
        let csv_path = format!("{dir}/fleet_curve.csv");
        let tl_path = format!("{dir}/fleet_timeline.csv");
        write_quiet(&json_path, report.to_json_string())?;
        write_quiet(&csv_path, report.curve_csv())?;
        write_quiet(&tl_path, report.timeseries().to_csv())?;
        println!("wrote {json_path}, {csv_path} and {tl_path}");
    }
    if report.drift == 0.0 && !report.steady_after_warmup(report.history_window) {
        eprintln!(
            "FLEET GATE: zero-drift run is not steady after the {}-release warmup \
             (identical releases produced different ledger rows)",
            report.history_window
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
