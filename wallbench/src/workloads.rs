//! The three workloads: inputs from the seed, the measured loop, the
//! correctness checks, and the traced pass that feeds the per-layer
//! metrics.

use crate::layers::{self, ServeLayer};
use crate::{peak_rss_mib, spans, Args, BoxError, Metrics, Tally, Workload};
use propeller::{BuildCaches, EvalReport, PipelineError, Propeller, PropellerOptions};
use propeller_buildsys::CacheStats;
use propeller_doctor::{audit_pipeline, RunReport};
use propeller_serve::{
    gen_traffic, traffic::program_seed_for, JobRequest, RelinkService, ServeOptions, ServiceReport,
    TrafficConfig,
};
use propeller_sim::SplitMix64;
use propeller_synth::{evolve, generate, spec_by_name, DriftParams, GenParams, GeneratedBenchmark};
use propeller_telemetry::{Telemetry, TraceData};
use propeller_wpa::cluster_map_to_text;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

const COLD_SCALE: f64 = 0.1;
const COLD_JOBS: usize = 2;
const COLD_EVAL_BUDGET: u64 = 400_000;
const TRAIN_SCALE: f64 = 0.02;
const TRAIN_RELEASES: u32 = 8;
const TRAIN_DRIFT: f64 = 0.002;
const TRAIN_BUDGET: u64 = 1_000_000;
const SERVE_SCALE: f64 = 0.004;
const SERVE_EVAL_BUDGET: u64 = 400_000;
/// Completed service jobs replayed as batch relinks in a traced pass.
const SERVE_BATCH_SAMPLE: usize = 4;
/// Set-up runs per invocation; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// What one workload run reports.
pub struct Outcome {
    pub end_to_end: Metrics,
    /// Sample count and spread behind each median.
    pub samples: String,
    /// Present on `--trace 1`.
    pub per_layer: Option<Metrics>,
    /// Per-name span summary of the traced pass.
    pub span_table: Option<String>,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs_since(t))
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn gen_clang(scale: f64, seed: u64) -> GeneratedBenchmark {
    let spec = spec_by_name("clang").expect("clang is a built-in benchmark spec");
    generate(
        &spec,
        &GenParams {
            scale,
            seed,
            funcs_per_module: 12,
            entry_points: 4,
        },
    )
}

/// Runs `make` [`SETUP_REPEATS`] times; returns the last result and
/// the median wall time.
fn set_up<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (v, s) = timed(&mut make);
        times.push(s);
        last = Some(v);
    }
    (last.expect("SETUP_REPEATS > 0"), median(&times))
}

/// Inputs per run. A run cycles through the inputs of `--seed` and of
/// seeds derived from it, so no figure rests on the shape of a single
/// generated program. Inputs differ in cost, so a timing is the median
/// over each input's iterations, averaged over the inputs; the exact
/// figures are means over the inputs.
const INPUTS_PER_RUN: usize = 3;

/// The seeds of one run's inputs: `seed` itself, then derived seeds.
fn input_seeds(seed: u64) -> Vec<u64> {
    let mix = |x: u64| SplitMix64::new(x).next_u64();
    (0..INPUTS_PER_RUN as u64)
        .map(|i| if i == 0 { seed } else { mix(seed ^ mix(i)) })
        .collect()
}

/// Calls `body(iteration)` in whole cycles over the inputs until
/// `seconds` of wall time have passed.
fn measure(seconds: f64, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    for i in 0.. {
        body(i);
        if (i + 1) % INPUTS_PER_RUN == 0 && secs_since(start) >= seconds {
            return;
        }
    }
}

/// One completed iteration of the measured loop.
struct Iteration {
    input: usize,
    relink_s: f64,
    eval_s: f64,
    total_s: f64,
    /// The whole iteration, checks included.
    wall_s: f64,
}

/// Picks one timing out of an iteration.
type Pick = fn(&Iteration) -> f64;

/// What the measured loop collected.
#[derive(Default)]
struct Samples {
    iterations: Vec<Iteration>,
    /// Exact figures of each input, from its first completed iteration.
    quality: BTreeMap<usize, Quality>,
    /// Iterations started.
    started: u64,
}

impl Samples {
    fn push(&mut self, input: usize, t: &BuildTimes, total_s: f64, wall_s: f64, q: Quality) {
        let (relink_s, eval_s) = (t.relink_s, t.eval_s());
        self.iterations.push(Iteration {
            input,
            relink_s,
            eval_s,
            total_s,
            wall_s,
        });
        self.quality.entry(input).or_insert(q);
    }

    /// Median of `f` over the iterations on `input`.
    fn input_median(&self, input: usize, f: Pick) -> f64 {
        let v: Vec<f64> = self
            .iterations
            .iter()
            .filter(|it| it.input == input)
            .map(f)
            .collect();
        median(&v)
    }

    /// Per-input medians of `f`, averaged over the inputs that completed.
    fn timing(&self, f: Pick) -> f64 {
        mean(
            &self
                .quality
                .keys()
                .map(|&k| self.input_median(k, f))
                .collect::<Vec<_>>(),
        )
    }

    /// Completed iterations over started ones.
    fn completed_ratio(&self) -> f64 {
        self.iterations.len() as f64 / self.started.max(1) as f64
    }
}

/// The wall times and counters of one pipeline build, timed around
/// the `Propeller` methods.
#[derive(Clone, Copy, Default)]
pub struct BuildTimes {
    /// `phase1_compile` .. `phase4_relink`.
    pub phase_s: [f64; 4],
    /// Pipeline construction (module fingerprinting) plus the phases.
    pub relink_s: f64,
    pub baseline_s: f64,
    pub evaluate_s: f64,
    /// Cache counters this build's relink added.
    pub obj: CacheStats,
    pub ir: CacheStats,
    /// Codegen pool of Phases 2 and 4: measured wall and busy time.
    pub pool_wall_us: u64,
    pub pool_busy_us: u64,
}

impl BuildTimes {
    pub fn eval_s(&self) -> f64 {
        self.baseline_s + self.evaluate_s
    }

    /// Mean times of `list`, with its cache and pool counters summed.
    fn mean(list: &[BuildTimes]) -> BuildTimes {
        let n = list.len().max(1) as f64;
        let avg = |f: &dyn Fn(&BuildTimes) -> f64| list.iter().map(f).sum::<f64>() / n;
        let add = |a: CacheStats, b: CacheStats| CacheStats {
            lookups: a.lookups + b.lookups,
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
            insertions: a.insertions + b.insertions,
        };
        BuildTimes {
            phase_s: [0, 1, 2, 3].map(|i| avg(&|b| b.phase_s[i])),
            relink_s: avg(&|b| b.relink_s),
            baseline_s: avg(&|b| b.baseline_s),
            evaluate_s: avg(&|b| b.evaluate_s),
            obj: list.iter().map(|b| b.obj).fold(CacheStats::default(), add),
            ir: list.iter().map(|b| b.ir).fold(CacheStats::default(), add),
            pool_wall_us: list.iter().map(|b| b.pool_wall_us).sum(),
            pool_busy_us: list.iter().map(|b| b.pool_busy_us).sum(),
        }
    }
}

/// One finished build: the pipeline (for replays), its evaluation and
/// its times.
pub struct Build {
    pub pipeline: Propeller,
    pub eval: EvalReport,
    pub times: BuildTimes,
}

/// The modeled, exact figures of an optimized binary.
#[derive(Clone, Copy)]
pub struct Quality {
    /// Optimized cycles over baseline cycles under the evaluation.
    pub opt_cycles_ratio: f64,
    pub speedup_pct: f64,
    pub text_bytes: f64,
}

impl Quality {
    fn mean(list: &[Quality]) -> Quality {
        let avg = |f: fn(&Quality) -> f64| mean(&list.iter().map(f).collect::<Vec<_>>());
        Quality {
            opt_cycles_ratio: avg(|q| q.opt_cycles_ratio),
            speedup_pct: avg(|q| q.speedup_pct),
            text_bytes: avg(|q| q.text_bytes),
        }
    }
}

impl Build {
    pub fn image(&self) -> &[u8] {
        self.pipeline.po_binary().map_or(&[], |b| &b.image[..])
    }

    pub fn quality(&self) -> Quality {
        let e = &self.eval;
        Quality {
            opt_cycles_ratio: e.optimized.cycles as f64 / e.baseline.cycles as f64,
            speedup_pct: e.speedup_pct(),
            text_bytes: self
                .pipeline
                .po_binary()
                .map_or(0.0, |b| b.stats.text_bytes as f64),
        }
    }

    /// The optimized binary retires exactly the baseline's block count.
    pub fn retires_baseline_blocks(&self) -> bool {
        self.eval.baseline.blocks > 0 && self.eval.optimized.blocks == self.eval.baseline.blocks
    }

    /// The `cc_prof` and `ld_prof` texts the relink consumed.
    pub fn profiles(&self) -> Option<(String, String)> {
        let wpa = self.pipeline.wpa_output()?;
        Some((
            cluster_map_to_text(&wpa.cluster_map, self.pipeline.program()),
            wpa.symbol_order.to_file_contents(),
        ))
    }
}

/// Relinks `bench` (construction through Phase 4), then builds the
/// baseline and evaluates both under `eval_budget` blocks.
pub fn build(
    bench: &GeneratedBenchmark,
    opts: &PropellerOptions,
    caches: &BuildCaches,
    eval_budget: u64,
    tel: &Telemetry,
) -> Result<Build, PipelineError> {
    let (program, entries) = (bench.program.clone(), bench.entries.clone());
    let (obj0, ir0) = (caches.object_stats(), caches.ir_stats());
    let start = Instant::now();
    let mut p = Propeller::with_caches(program, entries, opts.clone(), caches.clone());
    p.set_telemetry(tel.clone());
    let mut t = BuildTimes::default();
    let lap = Instant::now();
    p.phase1_compile()?;
    t.phase_s[0] = secs_since(lap);
    let lap = Instant::now();
    p.phase2_build_metadata()?;
    t.phase_s[1] = secs_since(lap);
    let lap = Instant::now();
    p.phase3_profile_and_analyze()?;
    t.phase_s[2] = secs_since(lap);
    let lap = Instant::now();
    p.phase4_relink()?;
    t.phase_s[3] = secs_since(lap);
    t.relink_s = secs_since(start);
    t.obj = caches.object_stats().since(&obj0);
    t.ir = caches.ir_stats().since(&ir0);
    let pt = p.times();
    t.pool_wall_us = pt.phase2.wall_us + pt.phase4.wall_us;
    t.pool_busy_us = pt.phase2.busy_us + pt.phase4.busy_us;
    let lap = Instant::now();
    p.build_baseline()?;
    t.baseline_s = secs_since(lap);
    let lap = Instant::now();
    let eval = p.evaluate(eval_budget)?;
    t.evaluate_s = secs_since(lap);
    Ok(Build {
        eval,
        pipeline: p,
        times: t,
    })
}

/// The `run_report.json` of clang at scale 0.004, seed 77 — the CLI's
/// `run clang --scale 0.004 --seed 77 --out` — equals the committed
/// `ci/bench_baseline.json` byte for byte. The file is read, never
/// written.
pub fn run_report_matches_baseline() -> Result<bool, BoxError> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../ci/bench_baseline.json");
    let expected = std::fs::read_to_string(path)?;
    let gen = gen_clang(0.004, 77);
    let mut p = Propeller::new(gen.program, gen.entries, PropellerOptions::default());
    p.set_telemetry(Telemetry::enabled());
    let report = p.run_all()?;
    let eval = p.evaluate(400_000)?;
    let audit = audit_pipeline(&p)?;
    let metrics = p.telemetry().drain().metrics;
    let rr = RunReport::collect(
        "clang",
        0.004,
        77,
        &p,
        &report,
        Some(&eval),
        Some(&audit),
        Some(metrics),
    );
    Ok(rr.to_json_string() == expected)
}

/// What the traced pass of a workload hands to the per-layer metrics.
struct Traced<'a> {
    /// Per-build times (a mean over releases on `release-train`), with
    /// counters summed over the traced builds.
    times: BuildTimes,
    jobs: usize,
    /// Builds the trace covers; span totals are divided by it.
    traced_builds: usize,
    /// The build the layer replays run on.
    rep: &'a Build,
    eval_budget: u64,
    trace: TraceData,
    generate_s: f64,
    evolve_s: f64,
    serve: ServeLayer,
    /// Traced pass wall time over the median untraced one.
    overhead_ratio: f64,
}

fn per_layer(t: Traced<'_>, seed: u64, tally: &mut Tally) -> Result<(Metrics, String), BoxError> {
    let summary = spans::summarize_trace(&t.trace);
    let per_build = |name: &str| spans::self_secs(&summary, name) / t.traced_builds as f64;
    let r = layers::replay(t.rep, t.eval_budget, tally)?;
    let (codegen_growth, linker_growth) = layers::growth(seed)?;
    let bt = &t.times;
    let pool_efficiency = if bt.pool_wall_us == 0 {
        0.0
    } else {
        bt.pool_busy_us as f64 / (bt.pool_wall_us as f64 * t.jobs as f64)
    };
    let m: Metrics = [
        ("synth.generate_s", t.generate_s),
        ("synth.evolve_s", t.evolve_s),
        ("core.phase1_s", bt.phase_s[0]),
        ("core.phase2_s", bt.phase_s[1]),
        ("core.phase3_s", bt.phase_s[2]),
        ("core.phase4_s", bt.phase_s[3]),
        ("core.baseline_s", bt.baseline_s),
        ("core.evaluate_s", bt.evaluate_s),
        (
            "buildsys.codegen_pool_s",
            bt.pool_wall_us as f64 / 1e6 / t.traced_builds as f64,
        ),
        ("buildsys.pool_efficiency", pool_efficiency),
        ("buildsys.obj_hit_ratio", bt.obj.hit_rate()),
        ("buildsys.ir_hit_ratio", bt.ir.hit_rate()),
        (
            "buildsys.codegen_misses",
            bt.obj.misses as f64 / t.traced_builds as f64,
        ),
        ("codegen.s", r.codegen_s),
        ("codegen.ns_per_inst", r.codegen_s * 1e9 / r.insts as f64),
        ("codegen.growth", codegen_growth),
        ("linker.pm_s", r.pm_link_s),
        ("linker.po_s", r.po_link_s),
        ("linker.ns_per_block", r.po_link_s * 1e9 / r.blocks as f64),
        ("linker.emit_s", per_build("link.emit")),
        ("linker.relax_s", per_build("link.relax")),
        ("linker.ordering_s", per_build("link.ordering")),
        ("linker.growth", linker_growth),
        ("wpa.s", r.wpa_s),
        ("wpa.intra_layout_s", per_build("wpa.intra_layout")),
        (
            "wpa.exttsp_merges",
            t.trace.metrics.counter("exttsp.merges") as f64 / t.traced_builds as f64,
        ),
        ("sim.image_build_s", r.image_build_s),
        ("sim.blocks_per_s", r.sim_blocks_per_s),
        ("serve.jobs_completed", t.serve.jobs_completed),
        ("serve.wall_per_job_s", t.serve.wall_per_job_s),
        ("serve.obj_hit_ratio", t.serve.obj_hit_ratio),
        ("serve.batch_job_s", t.serve.batch_job_s),
        ("telemetry.overhead_ratio", t.overhead_ratio),
    ]
    .into_iter()
    .collect();
    Ok((m, spans::render(&summary)))
}

fn end_to_end(
    setup_s: f64,
    samples: &Samples,
    served_ratio: f64,
) -> Result<(Metrics, String), BoxError> {
    if samples.iterations.is_empty() {
        return Err("no iteration completed".into());
    }
    let timings: [(&str, Pick); 3] = [
        ("relink_s", |it| it.relink_s),
        ("eval_s", |it| it.eval_s),
        ("total_s", |it| it.total_s),
    ];
    let mut text = String::new();
    for (name, f) in timings {
        let per_input: Vec<String> = samples
            .quality
            .keys()
            .map(|&k| {
                let n = samples.iterations.iter().filter(|it| it.input == k).count();
                format!("input {k}: n={n} median {:.4}", samples.input_median(k, f))
            })
            .collect();
        text += &format!("  {name:<10} {}\n", per_input.join(", "));
    }
    let q = Quality::mean(&samples.quality.values().copied().collect::<Vec<_>>());
    let mut m: Metrics = [
        ("setup_s", setup_s),
        ("relink_s", samples.timing(|it| it.relink_s)),
        ("eval_s", samples.timing(|it| it.eval_s)),
        ("total_s", samples.timing(|it| it.total_s)),
        ("opt_cycles_ratio", q.opt_cycles_ratio),
        ("speedup_pct", q.speedup_pct),
        ("text_bytes", q.text_bytes),
        ("served_ratio", served_ratio),
    ]
    .into_iter()
    .collect();
    match peak_rss_mib() {
        Some(mib) => {
            m.insert("peak_rss_mib", mib);
        }
        None => eprintln!("peak_rss_mib: /proc/self/status unavailable; metric missing"),
    }
    Ok((m, text))
}

pub fn run(args: &Args, tally: &mut Tally) -> Result<Outcome, BoxError> {
    match args.workload {
        Workload::ColdClang => cold_clang(args, tally),
        Workload::ReleaseTrain => release_train(args, tally),
        Workload::ServeBurst => serve_burst(args, tally),
    }
}

/// One cold relink: fresh caches, then baseline and evaluation. Books
/// the build as one operation; `first` pins the optimized image every
/// later build must reproduce.
fn cold_build(
    bench: &GeneratedBenchmark,
    jobs: usize,
    tel: &Telemetry,
    first: &mut Option<Vec<u8>>,
    tally: &mut Tally,
) -> Option<Build> {
    let opts = PropellerOptions {
        jobs,
        ..PropellerOptions::default()
    };
    match build(bench, &opts, &BuildCaches::new(), COLD_EVAL_BUDGET, tel) {
        Ok(b) => {
            let first = first.get_or_insert_with(|| b.image().to_vec());
            let same = b.image() == &first[..];
            tally.check(b.retires_baseline_blocks() && same, || {
                format!(
                    "cold build (jobs {jobs}): retires baseline blocks {}, same image as the first build {same}",
                    b.retires_baseline_blocks()
                )
            });
            Some(b)
        }
        Err(e) => {
            tally.fail(format!("cold build (jobs {jobs}): {e}"));
            None
        }
    }
}

fn cold_clang(args: &Args, tally: &mut Tally) -> Result<Outcome, BoxError> {
    let seeds = input_seeds(args.seed);
    let (benches, setup_s) = set_up(|| {
        seeds
            .iter()
            .map(|&s| gen_clang(COLD_SCALE, s))
            .collect::<Vec<_>>()
    });
    let mut first = vec![None; benches.len()];
    let mut samples = Samples::default();
    measure(args.seconds, |i| {
        let k = i % benches.len();
        samples.started += 1;
        let tel = Telemetry::disabled();
        let (b, s) = timed(|| cold_build(&benches[k], COLD_JOBS, &tel, &mut first[k], tally));
        if let Some(b) = b {
            samples.push(k, &b.times, s, s, b.quality());
        }
    });
    let (end_to_end, samples_text) = end_to_end(setup_s, &samples, samples.completed_ratio())?;
    if !args.trace {
        return Ok(Outcome {
            end_to_end,
            samples: samples_text,
            per_layer: None,
            span_table: None,
        });
    }

    let tel = Telemetry::enabled();
    let bench = &benches[0];
    let (traced, traced_s) = timed(|| cold_build(bench, COLD_JOBS, &tel, &mut first[0], tally));
    let traced = traced.ok_or("the traced cold build failed")?;
    // The optimized image and its cc_prof / ld_prof inputs must not
    // depend on the worker count.
    if let Some(serial) = cold_build(bench, 1, &Telemetry::disabled(), &mut first[0], tally) {
        tally.check(serial.profiles() == traced.profiles(), || {
            "cc_prof/ld_prof at jobs 1 differ from jobs 2".into()
        });
    }
    let evolve_s = timed(|| evolve(bench, &drift(args.seed, 1))).1;
    let (per_layer, spans) = per_layer(
        Traced {
            times: traced.times,
            jobs: COLD_JOBS,
            traced_builds: 1,
            rep: &traced,
            eval_budget: COLD_EVAL_BUDGET,
            trace: tel.drain(),
            generate_s: setup_s / benches.len() as f64,
            evolve_s,
            serve: layers::serve_probe(args.seed, tally)?,
            overhead_ratio: traced_s / samples.input_median(0, |it| it.wall_s),
        },
        args.seed,
        tally,
    )?;
    Ok(Outcome {
        end_to_end,
        samples: samples_text,
        per_layer: Some(per_layer),
        span_table: Some(spans),
    })
}

fn drift(seed: u64, release: u32) -> DriftParams {
    DriftParams {
        drift: TRAIN_DRIFT,
        seed,
        release,
    }
}

/// One release train: release 0 fills fresh shared caches, releases
/// 1..N relink against them. `tel` traces releases 1..N only.
struct Train {
    /// Per-release times of releases 1..N.
    releases: Vec<BuildTimes>,
    last: Build,
}

fn run_train(
    programs: &[GeneratedBenchmark],
    tel: &Telemetry,
    tally: &mut Tally,
) -> Result<Train, BoxError> {
    let caches = BuildCaches::new();
    let opts = PropellerOptions {
        jobs: 1,
        profile_budget: TRAIN_BUDGET,
        ..PropellerOptions::default()
    };
    let mut releases = Vec::new();
    let mut last = None;
    for (r, bench) in programs.iter().enumerate() {
        let tel = if r == 0 {
            Telemetry::disabled()
        } else {
            tel.clone()
        };
        let b = match build(bench, &opts, &caches, TRAIN_BUDGET, &tel) {
            Ok(b) => b,
            Err(e) => {
                tally.fail(format!("release {r}: {e}"));
                return Err(format!("release {r} failed").into());
            }
        };
        tally.check(b.retires_baseline_blocks(), || {
            format!("release {r}: optimized binary does not retire the baseline's block count")
        });
        if r > 0 {
            releases.push(b.times);
        }
        last = Some(b);
    }
    Ok(Train {
        releases,
        last: last.ok_or("empty release train")?,
    })
}

/// Release 0 of `seed` and the releases evolved from it.
fn release_programs(first: GeneratedBenchmark, seed: u64) -> Vec<GeneratedBenchmark> {
    let mut programs = vec![first];
    for r in 1..=TRAIN_RELEASES {
        let next = evolve(&programs[programs.len() - 1], &drift(seed, r));
        programs.push(next);
    }
    programs
}

fn release_train(args: &Args, tally: &mut Tally) -> Result<Outcome, BoxError> {
    let seeds = input_seeds(args.seed);
    let ((trains, generate_s, evolve_s), setup_s) = set_up(|| {
        let (firsts, generate_s) = timed(|| {
            seeds
                .iter()
                .map(|&s| gen_clang(TRAIN_SCALE, s))
                .collect::<Vec<_>>()
        });
        let (trains, evolve_s) = timed(|| {
            firsts
                .into_iter()
                .zip(&seeds)
                .map(|(f, &s)| release_programs(f, s))
                .collect::<Vec<_>>()
        });
        let n = seeds.len() as f64;
        (trains, generate_s / n, evolve_s / n)
    });
    let mut samples = Samples::default();
    measure(args.seconds, |i| {
        let k = i % trains.len();
        samples.started += 1;
        let (train, s) = timed(|| run_train(&trains[k], &Telemetry::disabled(), tally));
        if let Ok(train) = train {
            samples.push(
                k,
                &BuildTimes::mean(&train.releases),
                s,
                s,
                train.last.quality(),
            );
        }
    });
    let (end_to_end, samples_text) = end_to_end(setup_s, &samples, samples.completed_ratio())?;
    if !args.trace {
        return Ok(Outcome {
            end_to_end,
            samples: samples_text,
            per_layer: None,
            span_table: None,
        });
    }

    let tel = Telemetry::enabled();
    let (train, traced_s) = timed(|| run_train(&trains[0], &tel, tally));
    let train = train?;
    let (per_layer, spans) = per_layer(
        Traced {
            times: BuildTimes::mean(&train.releases),
            jobs: 1,
            traced_builds: train.releases.len(),
            rep: &train.last,
            eval_budget: TRAIN_BUDGET,
            trace: tel.drain(),
            generate_s,
            evolve_s,
            serve: layers::serve_probe(args.seed, tally)?,
            overhead_ratio: traced_s / samples.input_median(0, |it| it.wall_s),
        },
        args.seed,
        tally,
    )?;
    Ok(Outcome {
        end_to_end,
        samples: samples_text,
        per_layer: Some(per_layer),
        span_table: Some(spans),
    })
}

fn serve_config(seed: u64) -> (TrafficConfig, ServeOptions) {
    let cfg = TrafficConfig {
        scale: SERVE_SCALE,
        seed,
        tenants: 6,
        requests: 96,
        ..TrafficConfig::default()
    };
    (
        cfg,
        ServeOptions {
            seed,
            jobs: 1,
            ..ServeOptions::default()
        },
    )
}

/// Books a drained service: every arrival is one operation; a run
/// whose ledger does not account exactly fails all of them, otherwise
/// each reported violation fails one.
pub fn book_service(report: &ServiceReport, tally: &mut Tally) {
    let arrivals = report.ledger.totals().arrivals();
    let failed = if report.ledger.accounts_exactly() {
        (report.violations.len() as u64).min(arrivals)
    } else {
        arrivals
    };
    tally.book(arrivals, failed, || {
        format!(
            "service: ledger accounts exactly {}, violations {:?}",
            report.ledger.accounts_exactly(),
            report.violations
        )
    });
}

/// One service drain plus the batch relinks of the first completed job
/// of each tenant, which must ship the bytes the service shipped.
struct ServeRun {
    report: ServiceReport,
    obj: CacheStats,
    run_s: f64,
    batches: Vec<Build>,
}

impl ServeRun {
    fn times(&self) -> Vec<BuildTimes> {
        self.batches.iter().map(|b| b.times).collect()
    }
}

fn serve_once(
    traffic: &[JobRequest],
    programs: &BTreeMap<u64, GeneratedBenchmark>,
    sopts: &ServeOptions,
    tel: &Telemetry,
    tally: &mut Tally,
) -> Result<ServeRun, BoxError> {
    let mut svc = RelinkService::new("clang", SERVE_SCALE, sopts.clone())?;
    svc.set_telemetry(tel.clone());
    let (report, run_s) = timed(|| svc.run(traffic));
    let report = report.map_err(|e| {
        tally.fail(format!("service run: {e}"));
        e
    })?;
    book_service(&report, tally);
    let mut batches = Vec::new();
    let mut seen = BTreeSet::new();
    for job in report.completed.iter().filter(|j| seen.insert(j.job_seed)) {
        let bench = programs
            .get(&job.program_seed)
            .ok_or("completed job of an unknown program")?;
        let opts = PropellerOptions {
            faults: job.plan.clone(),
            seed: job.job_seed,
            jobs: 1,
            profile_budget: sopts.profile_budget,
            ..PropellerOptions::default()
        };
        let batch =
            build(bench, &opts, &BuildCaches::new(), SERVE_EVAL_BUDGET, tel).map_err(|e| {
                tally.fail(format!("batch relink of job {}: {e}", job.id));
                e
            })?;
        let same = batch.image() == &job.image[..];
        tally.check(same && batch.retires_baseline_blocks(), || {
            format!(
                "batch relink of job {}: same image as shipped {same}, retires baseline blocks {}",
                job.id,
                batch.retires_baseline_blocks()
            )
        });
        batches.push(batch);
    }
    if batches.is_empty() {
        return Err("the service completed no job".into());
    }
    let obj = svc.caches().object_stats();
    Ok(ServeRun {
        report,
        obj,
        run_s,
        batches,
    })
}

fn serve_burst(args: &Args, tally: &mut Tally) -> Result<Outcome, BoxError> {
    let configs: Vec<_> = input_seeds(args.seed)
        .into_iter()
        .map(serve_config)
        .collect();
    let ((traffics, programs, generate_s), setup_s) = set_up(|| {
        let traffics: Vec<_> = configs.iter().map(|(cfg, _)| gen_traffic(cfg)).collect();
        let seeds: BTreeSet<u64> = configs
            .iter()
            .flat_map(|(cfg, _)| (0..cfg.tenants as u32).map(|t| program_seed_for(cfg, t)))
            .collect();
        let (programs, generate_s) = timed(|| {
            seeds
                .iter()
                .map(|&s| (s, gen_clang(SERVE_SCALE, s)))
                .collect::<BTreeMap<_, _>>()
        });
        let per_program = generate_s / seeds.len() as f64;
        (traffics, programs, per_program)
    });
    let mut samples = Samples::default();
    let mut served = BTreeMap::new();
    measure(args.seconds, |i| {
        let k = i % configs.len();
        samples.started += 1;
        let tel = Telemetry::disabled();
        let (run, s) = timed(|| serve_once(&traffics[k], &programs, &configs[k].1, &tel, tally));
        if let Ok(run) = run {
            let q = Quality::mean(&run.batches.iter().map(Build::quality).collect::<Vec<_>>());
            samples.push(k, &BuildTimes::mean(&run.times()), run.run_s, s, q);
            let totals = run.report.ledger.totals();
            served.insert(k, totals.completed as f64 / totals.arrivals().max(1) as f64);
        }
    });
    let served_ratio = mean(&served.values().copied().collect::<Vec<_>>());
    let (end_to_end, samples_text) = end_to_end(setup_s, &samples, served_ratio)?;
    if !args.trace {
        return Ok(Outcome {
            end_to_end,
            samples: samples_text,
            per_layer: None,
            span_table: None,
        });
    }

    let tel = Telemetry::enabled();
    let (traffic, sopts) = (&traffics[0], &configs[0].1);
    let (traced, traced_s) = timed(|| serve_once(traffic, &programs, sopts, &tel, tally));
    let traced = traced?;
    let tenant0 = &programs[&program_seed_for(&configs[0].0, 0)];
    let serve = layers::serve_layer(
        &traced.report,
        samples.input_median(0, |it| it.total_s),
        traced.obj,
        SERVE_SCALE,
        sopts.profile_budget,
        SERVE_BATCH_SAMPLE,
        tally,
    );
    let (per_layer, spans) = per_layer(
        Traced {
            times: BuildTimes::mean(&traced.times()),
            jobs: 1,
            traced_builds: traced.batches.len(),
            rep: &traced.batches[0],
            eval_budget: SERVE_EVAL_BUDGET,
            trace: tel.drain(),
            generate_s,
            evolve_s: timed(|| evolve(tenant0, &drift(args.seed, 1))).1,
            serve,
            overhead_ratio: traced_s / samples.input_median(0, |it| it.wall_s),
        },
        args.seed,
        tally,
    )?;
    Ok(Outcome {
        end_to_end,
        samples: samples_text,
        per_layer: Some(per_layer),
        span_table: Some(spans),
    })
}
