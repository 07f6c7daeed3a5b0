//! Subcommands over one batch pipeline run: `list`, `run`, `doctor`,
//! `chaos`, `dump` and `map`.

use crate::args::Args;
use crate::error::{create_dir, gate, require, step, write_file, write_quiet, CliError};
use propeller::{Propeller, PropellerOptions};
use propeller_bench::chaos::run_chaos_matrix;
use propeller_bench::generate_for;
use propeller_doctor::{
    audit_pipeline, degradation_findings, diagnose, provenance_findings, AttributionSection,
    DoctorConfig, ProvenanceDoc, RunReport, Severity,
};
use propeller_sim::{heatmap_csv, heatmap_pgm};
use propeller_synth::{all_specs, GeneratedBenchmark};
use propeller_telemetry::{chrome::to_chrome_trace, report::render_text, JsonValue, Telemetry};
use propeller_wpa::cluster_map_to_text;
use std::path::Path;
use std::process::ExitCode;

/// Default generation seed of the single-run subcommands.
pub const DEFAULT_SEED: u64 = 0xA5_2023;

/// The benchmark at `--scale` (default: the spec's) and `--seed`.
fn generated(args: &Args) -> Result<(&'static str, f64, u64, GeneratedBenchmark), CliError> {
    let spec = args.spec()?;
    let scale = args.get("--scale")?.unwrap_or(spec.default_scale);
    let seed = args.get("--seed")?.unwrap_or(DEFAULT_SEED);
    Ok((spec.name, scale, seed, generate_for(&spec, scale, seed)))
}

/// Pipeline options for a CLI invocation: the default options, plus
/// the `--faults` plan and `--jobs` count when given. Only a non-empty
/// plan changes anything — fault-free invocations keep the exact
/// default options so their output stays bit-identical to builds
/// without the fault layer. (`--jobs` never changes output at all:
/// every parallel stage reduces in submission order.)
fn options_for(args: &Args, seed: u64) -> Result<PropellerOptions, CliError> {
    let mut opts = PropellerOptions::default();
    if let Some(jobs) = args.jobs()? {
        opts.jobs = jobs;
    }
    if let Some(plan) = args.faults()?.filter(|p| !p.is_none()) {
        opts.faults = plan;
        // The injection schedule derives from the pipeline seed, so
        // --seed replays the exact same faults.
        opts.seed = seed;
    }
    Ok(opts)
}

/// Assembles the layout-provenance document from a pipeline that ran
/// with `PropellerOptions::provenance` armed. The document is empty
/// (but well-formed) when the run was not armed.
pub fn collect_provenance(
    pipeline: &Propeller,
    benchmark: &str,
    scale: f64,
    seed: u64,
) -> Result<ProvenanceDoc, CliError> {
    let wpa = require(pipeline.wpa_output(), "the WPA output", "phase 3 completed")?;
    let rich = wpa.rich.clone().unwrap_or_default();
    let placements = pipeline.po_binary().map(|b| b.placements.clone()).unwrap_or_default();
    Ok(ProvenanceDoc::collect(benchmark, scale, seed, &rich, &wpa.provenance, &placements, None))
}

pub fn list(_: &Args) -> Result<ExitCode, CliError> {
    println!(
        "{:<15} {:>10} {:>9} {:>10} {:>7} {:>9}",
        "benchmark", "text", "funcs", "blocks", "%cold", "scale"
    );
    for s in all_specs() {
        println!(
            "{:<15} {:>9}M {:>9} {:>10} {:>6.0}% {:>9.4}",
            s.name,
            s.text_bytes / (1024 * 1024),
            s.funcs,
            s.blocks,
            s.cold_object_fraction * 100.0,
            s.default_scale
        );
    }
    Ok(ExitCode::SUCCESS)
}

pub fn run(args: &Args) -> Result<ExitCode, CliError> {
    let (name, scale, seed, gen) = generated(args)?;
    println!("{name}: {}", gen.program.stats());
    let mut opts = options_for(args, seed)?;
    // The export flags arm the matching Phase 3 collectors; without
    // them the options stay bit-identical to the defaults, so baseline
    // run_report.json does not change.
    if args.has("--heatmap-out") {
        opts.heatmap = Some((64, 64));
    }
    opts.attribution = args.has("--flamegraph-out");
    opts.provenance = args.has("--provenance");
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    // `--out` embeds a metrics snapshot in the RunReport, so telemetry
    // must be live for either output flag.
    if args.has("--trace-out") || args.has("--out") {
        pipeline.set_telemetry(Telemetry::enabled());
    }
    let report = pipeline.run_all()?;
    println!(
        "hot functions: {}; hot modules: {:.0}%; relaxation: {} jumps deleted, {} branches shrunk",
        report.hot_functions,
        report.hot_module_fraction * 100.0,
        report.deleted_jumps,
        report.shrunk_branches
    );
    println!(
        "ir cache: {}/{} hits; object cache: {}/{} hits",
        report.ir_cache.hits,
        report.ir_cache.lookups,
        report.object_cache.hits,
        report.object_cache.lookups
    );
    if !report.degradation.is_clean() {
        print!("{}", report.degradation.render());
    }
    let eval = pipeline.evaluate(400_000)?;
    println!(
        "speedup over PGO+ThinLTO baseline: {:+.2}% ({} -> {} cycles)",
        eval.speedup_pct(),
        eval.baseline.cycles,
        eval.optimized.cycles
    );
    if let Some(path) = args.str("--flamegraph-out") {
        let folded = require(
            pipeline.profile_folded(),
            "the folded profile",
            "--flamegraph-out armed attribution",
        )?;
        write_file(path, folded.to_text())?;
    }
    if let Some(path) = args.str("--heatmap-out") {
        let hm =
            require(pipeline.profile_heatmap(), "the heat map", "--heatmap-out armed collection")?;
        write_file(path, if path.ends_with(".pgm") { heatmap_pgm(hm) } else { heatmap_csv(hm) })?;
    }
    let trace = pipeline.telemetry().is_enabled().then(|| pipeline.telemetry().drain());
    if let Some(path) = args.str("--trace-out") {
        let trace =
            require(trace.as_ref(), "the telemetry trace", "--trace-out enabled telemetry")?;
        write_quiet(path, to_chrome_trace(trace))?;
        println!("wrote {path} (open at chrome://tracing or ui.perfetto.dev)\n");
        print!("{}", render_text(trace));
    }
    let Some(dir) = args.str("--out").map(Path::new) else {
        return Ok(ExitCode::SUCCESS);
    };
    create_dir(dir)?;
    let wpa = require(pipeline.wpa_output(), "the WPA output", "phase 3 completed")?;
    let cc = cluster_map_to_text(&wpa.cluster_map, pipeline.program());
    let ld = wpa.symbol_order.to_file_contents();
    let audit = step("audit", audit_pipeline(&pipeline))?;
    let metrics = trace.map(|t| t.metrics);
    let mut run_report = RunReport::collect(
        name,
        scale,
        seed,
        &pipeline,
        &report,
        Some(&eval),
        Some(&audit),
        metrics,
    );
    // Only set when attribution actually ran, so baseline reports stay
    // bit-identical.
    if let Some(attr) = pipeline.profile_attribution() {
        let top = args.get("--top")?.unwrap_or(10);
        run_report.attribution = Some(AttributionSection::from_attribution(attr, top));
    }
    write_file(dir.join("cc_prof.txt"), cc)?;
    write_file(dir.join("ld_prof.txt"), ld)?;
    write_file(dir.join("run_report.json"), run_report.to_json_string())?;
    if args.has("--provenance") {
        let mut doc = collect_provenance(&pipeline, name, scale, seed)?;
        if let Some(attr) = pipeline.profile_attribution() {
            doc.attribution =
                attr.symbols.iter().map(|s| (s.name.clone(), s.total.cycles)).collect();
        }
        step("provenance replay check", doc.validate_replay())?;
        write_file(dir.join("layout_provenance.json"), doc.to_json_string())?;
    }
    Ok(ExitCode::SUCCESS)
}

pub fn doctor(args: &Args) -> Result<ExitCode, CliError> {
    let (name, scale, seed, gen) = generated(args)?;
    let mut opts = options_for(args, seed)?;
    // The doctor always collects provenance: arming changes no layout
    // and no report, and the coverage/replay audit needs the decision
    // records to exist.
    opts.provenance = true;
    let jobs = opts.jobs;
    let mut pipeline = Propeller::new(gen.program, gen.entries, opts);
    pipeline.run_all()?;
    let audit = step("audit", audit_pipeline(&pipeline))?;
    let cfg = DoctorConfig::default();
    let mut findings = diagnose(&audit, &cfg);
    findings.extend(propeller_doctor::wall_clock_findings(pipeline.times(), jobs));
    let doc = collect_provenance(&pipeline, name, scale, seed)?;
    let wpa = require(pipeline.wpa_output(), "the WPA output", "phase 3 completed")?;
    findings.extend(provenance_findings(&wpa.provenance, &doc, &cfg));
    findings.extend(degradation_findings(pipeline.degradation()));
    print!("{}", propeller_doctor::render(&findings));
    Ok(gate(propeller_doctor::worst(&findings) == Severity::Fail))
}

/// The `chaos` gate: run the library matrix, print each scenario's
/// ledger, write the JSON artifact, and fail on any violation.
pub fn chaos(args: &Args) -> Result<ExitCode, CliError> {
    let spec = args.spec()?;
    let scale = args.get("--scale")?.unwrap_or(0.004);
    let seed = args.get("--seed")?.unwrap_or(77);
    let outcomes = run_chaos_matrix(&spec, scale, seed);
    for o in &outcomes {
        let plan = o.plan.to_spec_string();
        let plan = if plan.is_empty() { "<none>" } else { &plan };
        println!("=== chaos scenario {} (plan: {plan}) ===", o.name);
        if let Some(ledger) = &o.ledger {
            print!("{}", ledger.render());
        }
    }
    if let Some(dir) = args.str("--out").map(Path::new) {
        create_dir(dir)?;
        let doc = JsonValue::Obj(vec![
            ("benchmark".to_string(), JsonValue::Str(spec.name.to_string())),
            ("scale".to_string(), JsonValue::Num(scale)),
            ("seed".to_string(), JsonValue::Num(seed as f64)),
            (
                "scenarios".to_string(),
                JsonValue::Arr(outcomes.iter().map(|o| o.to_json()).collect()),
            ),
        ]);
        write_file(dir.join("chaos_report.json"), doc.to_string_pretty())?;
    }
    let violations: Vec<&String> = outcomes.iter().flat_map(|o| &o.violations).collect();
    if violations.is_empty() {
        println!("chaos gate: all {} scenarios survived", outcomes.len());
        return Ok(ExitCode::SUCCESS);
    }
    for v in &violations {
        eprintln!("chaos violation: {v}");
    }
    eprintln!("chaos gate: {} violation(s)", violations.len());
    Ok(ExitCode::FAILURE)
}

pub fn dump(args: &Args) -> Result<ExitCode, CliError> {
    let (_, _, _, gen) = generated(args)?;
    print!("{}", propeller_ir::pretty::program_to_string(&gen.program));
    Ok(ExitCode::SUCCESS)
}

pub fn map(args: &Args) -> Result<ExitCode, CliError> {
    let (_, _, _, gen) = generated(args)?;
    let mut pipeline = Propeller::new(gen.program, gen.entries, PropellerOptions::default());
    pipeline.run_all()?;
    let binary = require(pipeline.po_binary(), "the optimized binary", "phase 4 completed")?;
    print!("{}", binary.map_report());
    Ok(ExitCode::SUCCESS)
}
