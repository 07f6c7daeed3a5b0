//! Subcommands over the experiment harness's full run (baseline,
//! Propeller and BOLT on one profile): `compare`, `perf-report`,
//! `annotate` and `explain`.

use crate::args::Args;
use crate::error::{require, write_file, CliError};
use crate::pipeline::{collect_provenance, DEFAULT_SEED};
use propeller::EvalReport;
use propeller_bench::{run_benchmark_at, BenchArtifacts, RunConfig};
use propeller_doctor::{
    audit_pipeline, render_annotate, render_explain, render_perf_report, AttributionSection,
    RunReport,
};
use propeller_sim::{AttributedCounters, Event, SimOptions, SimReport};
use propeller_telemetry::JsonValue;
use std::process::ExitCode;

/// The events `perf-report` tabulates without `--event`.
const KEY_EVENTS: [Event; 5] =
    [Event::Cycles, Event::L1iMisses, Event::ItlbMisses, Event::Baclears, Event::DsbMisses];

/// Runs the harness on the benchmark at the absolute `--scale`
/// (default: the spec's) and `--seed`.
fn bench_run(args: &Args, provenance: bool) -> Result<(BenchArtifacts, u64), CliError> {
    let spec = args.spec()?;
    let scale = args.get("--scale")?.unwrap_or(spec.default_scale);
    let seed = args.get("--seed")?.unwrap_or(DEFAULT_SEED);
    let cfg = RunConfig { seed, provenance, ..RunConfig::default() };
    Ok((run_benchmark_at(spec, scale, &cfg), seed))
}

/// Resolves `--event`, or `default` when absent.
fn event(args: &Args, default: Event) -> Result<Event, CliError> {
    let Some(name) = args.str("--event") else {
        return Ok(default);
    };
    Event::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Event::ALL.iter().map(|e| e.name()).collect();
        CliError::Input(format!("unknown event {name:?} (one of: {})", names.join(", ")))
    })
}

/// Simulation options with per-symbol attribution on.
fn attributed() -> SimOptions {
    SimOptions { attribution: true, ..SimOptions::default() }
}

/// Simulates every comparable layout on the evaluation workload with
/// symbol attribution on.
fn attributed_runs(a: &BenchArtifacts) -> Vec<(&'static str, SimReport)> {
    a.comparable_layouts()
        .into_iter()
        .map(|(label, layout)| (label, a.simulate_layout_full(layout, &attributed())))
        .collect()
}

/// The Propeller binary's attributed simulation.
fn propeller_run(a: &BenchArtifacts) -> Result<SimReport, CliError> {
    let binary = require(a.pipeline.po_binary(), "the optimized binary", "phase 4 completed")?;
    Ok(a.simulate_layout_full(&binary.layout, &attributed()))
}

fn attribution(run: &SimReport) -> Result<&AttributedCounters, CliError> {
    require(run.attribution.as_ref(), "per-symbol attribution", "the simulation requested it")
}

/// `detail`, followed by the ten hottest symbols as candidates.
fn not_found(detail: String, attr: &AttributedCounters) -> CliError {
    let hot: Vec<&str> =
        attr.top_by(Event::Cycles, 10).iter().map(|&i| attr.symbols[i].name.as_str()).collect();
    if hot.is_empty() {
        return CliError::Input(detail);
    }
    CliError::Input(format!("{detail}\nhottest symbols: {}", hot.join(", ")))
}

pub fn compare(args: &Args) -> Result<ExitCode, CliError> {
    let (a, seed) = bench_run(args, false)?;
    let bolt = match (&a.bolt, &a.bolt_counters) {
        (Ok(out), Some(c)) if !out.crash_on_startup => Ok(c.speedup_pct_over(&a.base_counters)),
        (Ok(_), _) => Err("BOLT-optimized binary crashes at startup".to_string()),
        (Err(e), _) => Err(format!("BOLT failed: {e}")),
    };
    if args.has("--json") {
        let eval = EvalReport { baseline: a.base_counters, optimized: a.prop_counters };
        let audit = audit_pipeline(&a.pipeline).ok();
        let mut run_report = RunReport::collect(
            a.spec.name,
            a.scale,
            seed,
            &a.pipeline,
            &a.report,
            Some(&eval),
            audit.as_ref(),
            None,
        );
        if let Ok(speedup) = bolt {
            run_report.metrics.insert("bolt.speedup_pct".into(), speedup);
        }
        let text = run_report.to_json_string();
        match args.str("--out") {
            Some(path) => write_file(path, text)?,
            None => print!("{text}"),
        }
        return Ok(ExitCode::SUCCESS);
    }
    let (name, metric) = (a.spec.name, a.spec.metric);
    let prop = a.prop_counters.speedup_pct_over(&a.base_counters);
    println!("{name} ({metric}): Propeller {prop:+.2}%");
    match bolt {
        Ok(speedup) => println!("{name} ({metric}): BOLT      {speedup:+.2}%"),
        Err(why) => println!("{name}: {why}"),
    }
    Ok(ExitCode::SUCCESS)
}

pub fn perf_report(args: &Args) -> Result<ExitCode, CliError> {
    let (a, seed) = bench_run(args, false)?;
    let top = args.get("--top")?.unwrap_or(10);
    // The same evaluation workload for every variant, so the
    // per-symbol deltas decompose the aggregate speedup.
    let runs = attributed_runs(&a);
    let attrs = runs
        .iter()
        .map(|(l, r)| Ok((*l, attribution(r)?)))
        .collect::<Result<Vec<_>, CliError>>()?;
    let (base, variants) = require(
        attrs.split_first(),
        "the baseline attribution",
        "the baseline layout is always simulated",
    )?;
    let events = match args.str("--event") {
        Some(_) => vec![event(args, Event::Cycles)?],
        None => KEY_EVENTS.to_vec(),
    };
    println!("{} · scale {:.4} · seed {}", a.spec.name, a.scale, seed);
    for (label, run) in runs.iter().skip(1) {
        println!(
            "{label}: {:+.2}% cycles vs {}",
            run.counters.speedup_pct_over(&runs[0].1.counters),
            runs[0].0
        );
    }
    for event in events {
        println!();
        print!("{}", render_perf_report(event, top, *base, variants));
    }
    if let Some(path) = args.str("--out") {
        let variants_json = attrs
            .iter()
            .map(|(l, attr)| {
                (l.to_string(), AttributionSection::from_attribution(attr, top).to_json())
            })
            .collect();
        let doc = JsonValue::Obj(vec![
            ("benchmark".to_string(), JsonValue::Str(a.spec.name.to_string())),
            ("scale".to_string(), JsonValue::Num(a.scale)),
            ("seed".to_string(), JsonValue::Num(seed as f64)),
            ("top".to_string(), JsonValue::Num(top as f64)),
            ("variants".to_string(), JsonValue::Obj(variants_json)),
        ]);
        write_file(path, doc.to_string_pretty())?;
    }
    if let Some(path) = args.str("--flamegraph-out") {
        let folded = require(
            runs.iter().find(|(l, _)| *l == "propeller").and_then(|(_, r)| r.folded.as_ref()),
            "the propeller run's folded stacks",
            "attribution was requested for every variant",
        )?;
        write_file(path, folded.to_text())?;
    }
    Ok(ExitCode::SUCCESS)
}

pub fn annotate(args: &Args) -> Result<ExitCode, CliError> {
    let function = args.operand(1).unwrap_or_default();
    let event = event(args, Event::Cycles)?;
    let (a, _) = bench_run(args, false)?;
    let run = propeller_run(&a)?;
    let attr = attribution(&run)?;
    let Some(sym) = attr.symbol(function) else {
        let detail = format!("function {function:?} retired no events in the {} run", a.spec.name);
        return Err(not_found(detail, attr));
    };
    let wpa = require(a.pipeline.wpa_output(), "the WPA output", "phase 3 completed")?;
    let prov = wpa.provenance.functions.iter().find(|f| f.func_symbol == function);
    print!("{}", render_annotate(sym, event, prov));
    Ok(ExitCode::SUCCESS)
}

pub fn explain(args: &Args) -> Result<ExitCode, CliError> {
    let target = args.operand(1).unwrap_or_default();
    // `<function>[:<block>]` — the suffix is a block id only when it
    // parses as a number, so plain symbol names that happen to contain
    // a colon keep working.
    let (function, block) = match target.rsplit_once(':').map(|(f, b)| (f, b.parse::<u32>())) {
        Some((f, Ok(id))) => (f, Some(id)),
        _ => (target, None),
    };
    let (a, seed) = bench_run(args, true)?;
    let doc = collect_provenance(&a.pipeline, a.spec.name, a.scale, seed)?;
    // Simulate the shipped binary with attribution on, so the
    // explanation ends at measured microarchitectural cost.
    let run = propeller_run(&a)?;
    let attr = attribution(&run)?;
    match render_explain(&doc, function, block, attr.symbol(function)) {
        Ok(text) => {
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => Err(not_found(e.to_string(), attr)),
    }
}
