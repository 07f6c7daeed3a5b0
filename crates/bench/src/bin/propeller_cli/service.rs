//! Subcommands over the multi-tenant relink service: `traffic`,
//! `timeline`, `slo` and the `serve` REPL.

use crate::args::Args;
use crate::error::{create_dir, gate, load, step, write_file, write_quiet, CliError};
use propeller_doctor::{evaluate_slo, service_findings, Severity, SloConfig};
use propeller_serve::traffic::{program_seed_for, NORMAL_PEAK_BYTES};
use propeller_serve::{
    gen_traffic, run_soak, soak_scenarios, verify_batch_equivalence, JobRequest, RelinkService,
    ServeOptions, ServiceReport, TrafficConfig,
};
use propeller_telemetry::chrome::{to_chrome_trace, to_chrome_trace_with_series};
use propeller_telemetry::{Telemetry, TimeSeries};
use std::path::Path;
use std::process::ExitCode;

/// The traffic plan and service options every service subcommand
/// starts from, with the given flags applied. `--seed` seeds both the
/// traffic and the service.
fn setup(args: &Args) -> Result<(TrafficConfig, ServeOptions), CliError> {
    let mut cfg =
        TrafficConfig { benchmark: args.benchmark().to_string(), ..TrafficConfig::default() };
    // Keep CLI service runs CI-cheap; the library default budget
    // targets the larger in-process harnesses.
    let mut sopts = ServeOptions { profile_budget: 30_000, ..ServeOptions::default() };
    args.set("--scale", &mut cfg.scale)?;
    if let Some(seed) = args.get("--seed")? {
        cfg.seed = seed;
        sopts.seed = seed;
    }
    args.set("--requests", &mut cfg.requests)?;
    args.set("--tenants", &mut cfg.tenants)?;
    args.set("--mean-gap", &mut cfg.mean_gap_secs)?;
    args.set("--slots", &mut sopts.slots)?;
    args.set("--queue", &mut sopts.queue_capacity)?;
    sopts.cache_capacity = args.get("--cache-capacity")?.or(sopts.cache_capacity);
    if let Some(jobs) = args.jobs()? {
        sopts.jobs = jobs;
    }
    if let Some(plan) = args.faults()? {
        sopts.faults = plan;
    }
    if let Some(dir) = args.str("--out") {
        create_dir(dir)?;
    }
    Ok((cfg, sopts))
}

/// `DIR/name` under `--out`, when given.
fn out_path(args: &Args, name: &str) -> Option<std::path::PathBuf> {
    args.str("--out").map(|dir| Path::new(dir).join(name))
}

fn print_violations(report: &ServiceReport) {
    for v in &report.violations {
        eprintln!("accounting violation: {v}");
    }
}

pub fn traffic(args: &Args) -> Result<ExitCode, CliError> {
    let (cfg, sopts) = setup(args)?;
    if args.has("--soak") {
        return soak(args, cfg.scale, sopts);
    }
    let profile_budget = sopts.profile_budget;
    let mut svc = RelinkService::new(&cfg.benchmark, cfg.scale, sopts)?;
    if args.has("--trace-out") {
        svc.set_telemetry(Telemetry::enabled());
    }
    let report = svc.run(&gen_traffic(&cfg))?;
    let totals = report.ledger.totals();
    println!(
        "traffic: {} arrivals ({} burst clones) over {:.1} modeled s -> {} completed",
        totals.arrivals(),
        totals.burst_clones,
        report.ledger.makespan_secs,
        totals.completed,
    );
    print!("{}", report.ledger.render());
    let findings = service_findings(&report.ledger);
    print!("{}", propeller_doctor::render(&findings));
    print_violations(&report);
    if let Some(path) = args.str("--trace-out") {
        write_quiet(path, to_chrome_trace(&svc.telemetry().drain()))?;
        println!("wrote {path} (one lane per tenant; open at ui.perfetto.dev)");
    }
    if let Some(path) = out_path(args, "service_ledger.json") {
        write_file(path, report.ledger.to_json_string())?;
    }
    let mut batch_diverged = false;
    if args.has("--verify-batch") {
        let check =
            verify_batch_equivalence(&cfg.benchmark, cfg.scale, &report.completed, profile_budget)?;
        for d in &check.divergences {
            eprintln!(
                "batch divergence: job {} (tenant t{}) shipped bytes differing from the \
                 equivalent batch relink",
                d.job, d.tenant
            );
        }
        batch_diverged = !check.divergences.is_empty();
        if !batch_diverged {
            println!(
                "batch equivalence: {} signature(s) verified byte-identical",
                check.signatures
            );
        }
    }
    let exact = report.violations.is_empty()
        && report.ledger.accounts_exactly()
        && !batch_diverged
        && propeller_doctor::worst(&findings) != Severity::Fail;
    if !exact {
        eprintln!("traffic gate: accounting or batch-equivalence failure");
    }
    Ok(gate(!exact))
}

/// `traffic --soak`, the CI serve gate: the full scenario matrix, each
/// at --jobs 1 and the requested parallelism plus a replay, with
/// byte-identical ledgers required.
fn soak(args: &Args, scale: f64, sopts: ServeOptions) -> Result<ExitCode, CliError> {
    let verify_batch = args.has("--verify-batch");
    let jobs_matrix = if sopts.jobs <= 1 { vec![1, 8] } else { vec![1, sopts.jobs] };
    let outcomes = step(
        "soak gate",
        run_soak(&soak_scenarios(), scale, sopts.profile_budget, &jobs_matrix, verify_batch),
    )?;
    println!(
        "{:<20} {:>9} {:>8} {:>9} {:>8} {:>7} {:>8} {:>5}",
        "scenario", "completed", "rejected", "cancelled", "timeouts", "retries", "hit-rate", "sigs"
    );
    for o in &outcomes {
        let t = o.ledger.totals();
        let hit_rate = if t.cache_lookups > 0 {
            t.cache_hits as f64 / t.cache_lookups as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<20} {:>9} {:>8} {:>9} {:>8} {:>7} {:>7.1}% {:>5}",
            o.name,
            t.completed,
            t.rejected_memory + t.rejected_queue,
            t.cancelled_by_client + t.cancelled_by_fault,
            t.deadline_timeouts,
            t.retries,
            hit_rate,
            o.signatures_verified,
        );
        if let Some(path) = out_path(args, &format!("soak_{}.json", o.name)) {
            write_file(path, o.ledger_json.clone())?;
        }
    }
    println!(
        "soak gate: all {} scenarios passed at jobs {:?} + replay{}",
        outcomes.len(),
        jobs_matrix,
        if verify_batch { " with batch-equivalent binaries" } else { "" }
    );
    Ok(ExitCode::SUCCESS)
}

pub fn timeline(args: &Args) -> Result<ExitCode, CliError> {
    with_timeline(args, "timeline")
}

pub fn slo(args: &Args) -> Result<ExitCode, CliError> {
    with_timeline(args, "slo")
}

/// `timeline` and `slo`: one traffic plan with the modeled-clock
/// timeline armed. The service executes the same real work as
/// `traffic`, but every scheduling decision also lands in the
/// [`TimeSeries`].
fn with_timeline(args: &Args, cmd: &str) -> Result<ExitCode, CliError> {
    let (cfg, sopts) = setup(args)?;
    let slo_cfg = match (cmd, args.str("--config")) {
        ("slo", Some(path)) => Some(load(path, SloConfig::parse)?),
        ("slo", None) => Some(SloConfig::default_service()),
        _ => None,
    };
    let mut svc = RelinkService::new(&cfg.benchmark, cfg.scale, sopts)?;
    svc.arm_timeline();
    if args.has("--trace-out") {
        svc.set_telemetry(Telemetry::enabled());
    }
    let report = svc.run(&gen_traffic(&cfg))?;
    let timeline = svc.timeline().cloned().unwrap_or_else(TimeSeries::new);
    let totals = report.ledger.totals();
    println!(
        "{cmd}: {} arrivals over {:.1} modeled s -> {} completed; {} series recorded",
        totals.arrivals(),
        report.ledger.makespan_secs,
        totals.completed,
        timeline.names().len(),
    );
    print!("{}", render_latency_table(&report, &timeline));
    if let Some(path) = args.str("--trace-out") {
        write_quiet(path, to_chrome_trace_with_series(&svc.telemetry().drain(), &timeline))?;
        println!("wrote {path} (tenant lanes + counter tracks; open at ui.perfetto.dev)");
    }
    if let Some(path) = out_path(args, "timeline.csv") {
        write_file(path, timeline.to_csv())?;
    }
    if let Some(path) = out_path(args, "timeline_sampled.csv").filter(|_| cmd == "timeline") {
        let interval_secs: f64 = args.get("--interval")?.unwrap_or(10.0);
        write_file(path, timeline.sampled_csv((interval_secs.max(1e-6) * 1e6) as u64))?;
    }
    print_violations(&report);
    if let Some(slo_cfg) = slo_cfg {
        let slo = evaluate_slo(&timeline, &report.ledger, &slo_cfg);
        print!("{}", slo.render());
        if let Some(path) = out_path(args, "slo_report.json") {
            write_file(path, slo.to_json_string())?;
        }
        if slo.verdict() == Severity::Fail {
            eprintln!("slo gate: objectives violated");
            return Ok(ExitCode::FAILURE);
        }
    }
    let exact = report.violations.is_empty() && report.ledger.accounts_exactly();
    if !exact {
        eprintln!("{cmd}: service accounting failure");
    }
    Ok(gate(!exact))
}

/// The per-tenant latency percentile table both timeline-backed
/// subcommands print.
fn render_latency_table(report: &ServiceReport, ts: &TimeSeries) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>10} {:>10} {:>10}",
        "tenant", "completed", "p50_ms", "p95_ms", "p99_ms"
    );
    for (name, row) in &report.ledger.tenants {
        let q = |q: f64| {
            ts.histogram(&format!("latency_ms.{name}"))
                .and_then(|h| h.quantile(q))
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}"))
        };
        let _ = writeln!(
            out,
            "{:<8} {:>9} {:>10} {:>10} {:>10}",
            name,
            row.completed,
            q(0.50),
            q(0.95),
            q(0.99)
        );
    }
    out
}

/// The long-running service as a stdin REPL.
pub fn serve(args: &Args) -> Result<ExitCode, CliError> {
    let (cfg, sopts) = setup(args)?;
    // Program-seed defaults fold tenants onto shared variants, exactly
    // like generated traffic, so repeat submissions exercise warm
    // cross-tenant cache hits.
    let seed_cfg = TrafficConfig { seed: sopts.seed, ..cfg };
    let (benchmark, scale) = (&seed_cfg.benchmark, seed_cfg.scale);
    let mut svc = RelinkService::new(benchmark, scale, sopts)?;
    println!(
        "relink service ready on {benchmark} (scale {scale}); commands: \
         submit <tenant> [program-seed] | drain | ledger | shutdown"
    );
    let mut next_id = 0u64;
    let mut next_arrival_us = 0u64;
    for line in std::io::stdin().lines() {
        let line = line.map_err(|source| CliError::Io { path: "<stdin>".into(), source })?;
        let mut parts = line.split_whitespace();
        match parts.next() {
            None => {}
            Some("submit") => {
                let Some(tenant) =
                    parts.next().and_then(|t| t.trim_start_matches('t').parse::<u32>().ok())
                else {
                    eprintln!("usage: submit <tenant> [program-seed]");
                    continue;
                };
                let program_seed = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| program_seed_for(&seed_cfg, tenant));
                // Arrivals tick one modeled second apart; the service
                // clamps to its own clock if later.
                next_arrival_us += 1_000_000;
                svc.submit(JobRequest {
                    id: next_id,
                    tenant,
                    arrival_us: next_arrival_us,
                    program_seed,
                    declared_peak_bytes: NORMAL_PEAK_BYTES,
                    cancel_after_secs: None,
                });
                println!("queued job {next_id} for t{tenant} (program {program_seed:#x})");
                next_id += 1;
            }
            Some("drain") => {
                svc.drain()?;
                let report = svc.report();
                println!(
                    "drained: {} job(s) completed, modeled makespan {:.1}s",
                    report.completed.len(),
                    report.ledger.makespan_secs
                );
            }
            Some("ledger") => print!("{}", svc.report().ledger.render()),
            Some("shutdown") => break,
            Some(other) => {
                eprintln!("unknown command {other:?} (submit | drain | ledger | shutdown)");
            }
        }
    }
    svc.drain()?;
    let report = svc.report();
    print!("{}", report.ledger.render());
    print_violations(&report);
    let exact = report.violations.is_empty() && report.ledger.accounts_exactly();
    if !exact {
        eprintln!("serve gate: ledger does not account exactly");
    }
    Ok(gate(!exact))
}
