//! Per-layer replays and probes for the traced pass: each layer's
//! public entry point is called again on the inputs the workload's
//! pipeline used, and timed on its own. Every replay must reproduce
//! the pipeline's output, so each one is also a correctness check.

use crate::workloads::{book_service, gen_clang, mean, timed, Build};
use crate::{BoxError, Tally};
use propeller_buildsys::CacheStats;
use propeller_codegen::{codegen_module, CodegenError, CodegenOptions};
use propeller_ir::{Module, Program};
use propeller_linker::{link, LinkInput, LinkOptions};
use propeller_serve::{
    batch_binary, gen_traffic, RelinkService, ServeOptions, ServiceReport, TrafficConfig,
};
use propeller_sim::{simulate, ProgramImage, SimOptions};
use propeller_wpa::run_wpa;
use std::collections::HashSet;

/// Replay times of one build's layers.
pub struct Replay {
    /// Phase-2-shaped codegen of every module, one at a time.
    pub codegen_s: f64,
    pub insts: usize,
    pub pm_link_s: f64,
    pub po_link_s: f64,
    pub blocks: usize,
    pub wpa_s: f64,
    pub image_build_s: f64,
    pub sim_blocks_per_s: f64,
}

/// Code-generates `modules` of `program`, each with the options
/// `pick` chooses, into link inputs.
fn codegen_all<'a>(
    program: &Program,
    pick: impl Fn(&Module) -> &'a CodegenOptions,
) -> Result<Vec<LinkInput>, CodegenError> {
    program
        .modules()
        .iter()
        .map(|m| {
            let r = codegen_module(m, program, pick(m))?;
            Ok(LinkInput::new(r.object, r.debug_layout))
        })
        .collect()
}

fn pm_link_options() -> LinkOptions {
    LinkOptions {
        output_name: "app.pm".into(),
        ..LinkOptions::default()
    }
}

/// Replays codegen, both links, WPA and the evaluation simulation of
/// `build` and checks each against what the pipeline produced.
pub fn replay(build: &Build, eval_budget: u64, tally: &mut Tally) -> Result<Replay, BoxError> {
    let p = &build.pipeline;
    let missing = "the build has no Phase 4 output";
    let (pm, po) = (p.pm_binary().ok_or(missing)?, p.po_binary().ok_or(missing)?);
    let wpa = p.wpa_output().ok_or(missing)?;
    let profile = p.profile().ok_or(missing)?;
    let opt_program = p.phase4_program().ok_or(missing)?;
    let program = p.program();
    let stats = program.stats();

    let labels = CodegenOptions::with_labels();
    let (pm_inputs, codegen_s) = timed(|| codegen_all(program, |_| &labels));
    let pm_inputs = pm_inputs?;
    let (pm_replay, pm_link_s) = timed(|| link(&pm_inputs, &pm_link_options()));
    tally.check(pm_replay?.image == pm.image, || {
        "PM link replay differs from Phase 2".into()
    });

    // Phase 4: modules with cluster directives are regenerated with
    // basic block sections; the rest reuse their Phase 2 objects.
    let clusters = CodegenOptions::with_clusters(wpa.cluster_map.clone());
    let po_inputs = codegen_all(opt_program, |m| {
        let hot = m
            .functions
            .iter()
            .any(|f| wpa.cluster_map.get(f.id).is_some());
        if hot {
            &clusters
        } else {
            &labels
        }
    })?;
    let po_opts = LinkOptions {
        output_name: "app.propeller".into(),
        symbol_order: Some(wpa.symbol_order.clone()),
        relax: true,
        drop_cold_bb_addr_map: true,
        ..LinkOptions::default()
    };
    let (po_replay, po_link_s) = timed(|| link(&po_inputs, &po_opts));
    tally.check(po_replay?.image == po.image, || {
        "PO link replay differs from Phase 4".into()
    });

    let (wpa_replay, wpa_s) = timed(|| run_wpa(program, pm, profile, &p.options().wpa));
    tally.check(
        wpa_replay.symbol_order.to_file_contents() == wpa.symbol_order.to_file_contents(),
        || "WPA replay orders symbols differently from Phase 3".into(),
    );

    let (image, image_build_s) = timed(|| ProgramImage::build(opt_program, &po.layout));
    let image = image?;
    let workload = p.workload(eval_budget);
    let (run, sim_s) = timed(|| {
        simulate(
            &image,
            &workload,
            &p.options().uarch,
            &SimOptions::default(),
        )
    });
    tally.check(run.counters == build.eval.optimized, || {
        "simulation replay counters differ from the evaluation's".into()
    });
    Ok(Replay {
        codegen_s,
        insts: stats.num_insts,
        pm_link_s,
        po_link_s,
        blocks: stats.num_blocks,
        wpa_s,
        image_build_s,
        sim_blocks_per_s: run.counters.blocks as f64 / sim_s,
    })
}

/// Scale probe: the replay time of codegen and of the PM link for
/// clang at scale 0.1 over scale 0.05 (2.0 means linear growth).
pub fn growth(seed: u64) -> Result<(f64, f64), BoxError> {
    let labels = CodegenOptions::with_labels();
    let mut times = Vec::new();
    for scale in [0.1, 0.05] {
        let bench = gen_clang(scale, seed);
        let (inputs, codegen_s) = timed(|| codegen_all(&bench.program, |_| &labels));
        let inputs = inputs?;
        let (linked, link_s) = timed(|| link(&inputs, &pm_link_options()));
        linked?;
        times.push((codegen_s, link_s));
    }
    Ok((times[0].0 / times[1].0, times[0].1 / times[1].1))
}

/// The service layer's figures.
pub struct ServeLayer {
    pub jobs_completed: f64,
    pub wall_per_job_s: f64,
    pub obj_hit_ratio: f64,
    /// Mean wall time of `batch_binary` over the sampled jobs.
    pub batch_job_s: f64,
}

/// Service figures of a drained run that took `run_s`, with up to
/// `sample` distinct completed jobs replayed through `batch_binary`;
/// each replay must be byte-identical to the image the service shipped.
pub fn serve_layer(
    report: &ServiceReport,
    run_s: f64,
    obj: CacheStats,
    scale: f64,
    profile_budget: u64,
    sample: usize,
    tally: &mut Tally,
) -> ServeLayer {
    let completed = report.ledger.totals().completed;
    let mut seeds = HashSet::new();
    let mut batch = Vec::new();
    for job in report
        .completed
        .iter()
        .filter(|j| seeds.insert(j.job_seed))
        .take(sample)
    {
        let (image, s) = timed(|| batch_binary("clang", scale, job, 1, profile_budget));
        match image {
            Ok(image) => tally.check(image == job.image, || {
                format!(
                    "batch_binary of job {} differs from the shipped image",
                    job.id
                )
            }),
            Err(e) => tally.fail(format!("batch_binary of job {}: {e}", job.id)),
        }
        batch.push(s);
    }
    ServeLayer {
        jobs_completed: completed as f64,
        wall_per_job_s: run_s / completed.max(1) as f64,
        obj_hit_ratio: obj.hit_rate(),
        batch_job_s: mean(&batch),
    }
}

/// The service layer on workloads that do not run the service: a
/// fixed small drain (the default traffic shape: clang at scale 0.002,
/// three tenants, twelve requests) under the run's seed.
pub fn serve_probe(seed: u64, tally: &mut Tally) -> Result<ServeLayer, BoxError> {
    let cfg = TrafficConfig {
        seed,
        ..TrafficConfig::default()
    };
    let sopts = ServeOptions {
        seed,
        jobs: 1,
        ..ServeOptions::default()
    };
    let mut svc = RelinkService::new(&cfg.benchmark, cfg.scale, sopts.clone())?;
    let (report, run_s) = timed(|| svc.run(&gen_traffic(&cfg)));
    let report = report?;
    book_service(&report, tally);
    let obj = svc.caches().object_stats();
    Ok(serve_layer(
        &report,
        run_s,
        obj,
        cfg.scale,
        sopts.profile_budget,
        2,
        tally,
    ))
}
