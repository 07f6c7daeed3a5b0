//! A command-line driver for the Propeller reproduction.
//!
//! Each subcommand accepts exactly the flags its synopsis lists; any
//! other flag, a flag missing its value, or a value that does not parse
//! is a usage error that prints the subcommand's synopsis and exits
//! nonzero. `--scale S` is always the absolute generation scale
//! (default: the benchmark's Table 2 scale from `list`, except where a
//! subcommand names its own default).
//!
//! ```text
//! propeller_cli list
//!     List the available benchmark specs (Table 2).
//!
//! propeller_cli run <benchmark> [--scale S] [--seed N] [--out DIR]
//!                   [--trace-out FILE] [--faults SPEC] [--jobs N]
//!                   [--flamegraph-out FILE] [--heatmap-out FILE]
//!                   [--provenance] [--top N]
//!     Generate the benchmark, run the 4-phase pipeline, evaluate
//!     against the baseline, and (with --out) write cc_prof.txt and
//!     ld_prof.txt — the two artifacts of Figure 1 — plus
//!     run_report.json, the machine-readable RunReport (deterministic
//!     metrics, layout provenance, embedded telemetry snapshot). With
//!     --trace-out, record telemetry for the whole run, write a Chrome
//!     Trace Event Format JSON (load it at chrome://tracing or
//!     ui.perfetto.dev) and print the span tree and metrics to stdout.
//!     With --faults, inject the scheduled faults (grammar:
//!     comma-separated `kind=probability[:limit]`, e.g.
//!     `transient=0.5,corrupt-cache=1:2`) seeded by --seed, and print
//!     the degradation ledger the run accumulated surviving them.
//!     --flamegraph-out collects symbol attribution during the Phase 3
//!     profiling run and writes its cycle-weighted call stacks in
//!     Brendan Gregg's folded format (pipe into flamegraph.pl); it
//!     also embeds the per-symbol attribution table (its top N rows,
//!     --top, default 10) in run_report.json. --heatmap-out writes the
//!     Phase 3 code-access heat map (Figure 7) as CSV, or as a PGM
//!     grayscale image when FILE ends in `.pgm`. --jobs sets the
//!     worker threads for the Phase 2/4 codegen fan-out and Ext-TSP
//!     gain evaluation (default: the machine's available parallelism;
//!     1 forces the serial legacy path) — every artifact is
//!     bit-identical at every job count.
//!     --provenance arms full layout-decision provenance collection
//!     (every Ext-TSP candidate merge with its gain and the best
//!     rejected alternative, the profile edges funding each CFG edge
//!     weight, final linker placements with relaxation deltas) and,
//!     with --out, writes layout_provenance.json beside
//!     run_report.json; arming never changes the layout or
//!     run_report.json, and the provenance artifact itself is
//!     bit-identical at every --jobs count.
//!
//! propeller_cli explain <benchmark> <function>[:<block>] [--scale S]
//!                       [--seed N]
//!     Explain one function's (or one basic block's) final layout end
//!     to end: the sample mass it received, which profile edges funded
//!     its CFG edge weights, every accepted Ext-TSP merge step with
//!     its gain and the best rejected alternative at that moment, the
//!     emitted hot-block order, the final placement slot and address
//!     with per-symbol relaxation deltas, joined against the
//!     attributed microarchitectural counters from simulating the
//!     optimized binary.
//!
//! propeller_cli layout-diff <A.json> <B.json>
//!     Diff two layout_provenance.json documents: symbols whose final
//!     placement moved, ranked by attributed cycle delta (order delta
//!     when attribution is absent), plus the first merge decision
//!     where the two runs diverged. A self-diff prints `identical` —
//!     the CI provenance gate greps for it.
//!
//! propeller_cli perf-report <benchmark> [--scale S] [--seed N]
//!                           [--top N] [--event E] [--out FILE]
//!                           [--flamegraph-out FILE]
//!     Simulate the baseline, Propeller, and (when it runs) BOLT
//!     binaries on the identical evaluation workload with symbol
//!     attribution on, and print `perf report`-style top-N tables:
//!     per-symbol counts, % of total, and deltas of each variant
//!     against the baseline. --event restricts to one event (default:
//!     a key set — cycles, l1i_misses, itlb_misses, baclears,
//!     dsb_misses); --top sizes the table (default 10). --out writes
//!     perf_report.json (per-variant attribution rows);
//!     --flamegraph-out writes the Propeller run's folded stacks.
//!
//! propeller_cli annotate <benchmark> <function> [--scale S] [--seed N]
//!                        [--event E]
//!     `perf annotate` for one function: walk its blocks in the
//!     Propeller-optimized layout order with per-block event counts,
//!     the cluster each block landed in, and the Ext-TSP provenance
//!     recorded when the layout was planned (--event defaults to
//!     cycles).
//!
//! propeller_cli doctor <benchmark> [--scale S] [--seed N]
//!                      [--faults SPEC] [--jobs N]
//!     Run the pipeline and audit the profile it consumed: hot-text
//!     sample coverage, unmapped-address rate, fall-through inference
//!     confidence, sample-capture ratio, and the stale-profile skew
//!     score from re-simulating the optimized binary. The run collects
//!     layout provenance and audits it too: provenance.coverage WARNs
//!     when hot functions lack decision records, and provenance.replay
//!     WARNs when replaying the recorded merge steps does not
//!     reconstruct the emitted order. The report also
//!     compares measured wall-clock against the cost model per phase
//!     (WARN when the pool ran >5x slower than perfect scaling at the
//!     configured --jobs), and ends with the degradation section (what
//!     the run gave up surviving injected faults — WARN at most, never
//!     FAIL, because degraded runs still ship correct binaries). Exits
//!     nonzero when any dimension FAILs its threshold.
//!
//! propeller_cli chaos [<benchmark>] [--scale S] [--seed N] [--out DIR]
//!     Run the built-in fault matrix (`propeller_bench::chaos`: zero
//!     faults, transient storm, timeout storm, cache chaos, partial and
//!     total profile loss, permanent codegen failure, kitchen sink)
//!     against the benchmark (default clang at scale 0.004, seed 77).
//!     Each scenario must complete all four phases, ship a binary that
//!     retires the same blocks as the baseline, and account for every
//!     injected fault exactly in its degradation ledger. With --out,
//!     write chaos_report.json (the per-scenario ledgers). Exits
//!     nonzero on any violation — the CI chaos gate.
//!
//! propeller_cli compare <benchmark> [--scale S] [--seed N] [--json]
//!                       [--out FILE]
//!     Run both Propeller and the BOLT comparator on the same profile
//!     and print the head-to-head summary. With --json, emit a
//!     RunReport JSON (diffable with `propeller_cli diff`) instead;
//!     --out writes it to FILE rather than stdout.
//!
//! propeller_cli diff <A.json> <B.json> [C.json ...] [--tolerance PCT]
//!     Diff RunReports. With exactly two (baseline A, candidate B):
//!     metric deltas with per-direction regression gating plus
//!     structural layout changes. With three or more: a per-metric
//!     trend table across all reports in order, gating every
//!     consecutive pair. Exits nonzero when a gated metric worsened by
//!     more than the tolerance (default 0) — the CI bench gate.
//!
//! propeller_cli fleet [<benchmark>] [--releases N] [--machines M]
//!                     [--drift D] [--scale S] [--seed N] [--jobs N]
//!                     [--skew-threshold T] [--history-window W]
//!                     [--out DIR] [--provenance] [--faults SPEC]
//!     Simulate a continuous profile lifecycle: evolve the program
//!     across N releases at drift rate D (0 = identical releases, the
//!     control arm), collect LBR samples on each release from M
//!     machines with Zipf traffic shares, merge current plus windowed
//!     historical profiles (translated across binaries, decayed by
//!     age), score the merged profile's staleness skew, and let the
//!     relink-vs-reuse policy (threshold T) pick what ships — all
//!     against a shared action cache so unchanged objects never
//!     rebuild. Prints the per-release ledger: skew, decision,
//!     achieved speedup vs an oracle fresh-profile relink, the gap
//!     between them, and the release's cache hit rate (the
//!     speedup-vs-staleness curve). With --out, write
//!     fleet_report.json, fleet_curve.csv and fleet_timeline.csv (the
//!     ledger as a release-indexed time series: skew, gap, hit rate,
//!     speedup gauges plus a cumulative translation-drop counter).
//!     With --provenance, arm
//!     layout-decision provenance on every relink and cite each
//!     release's top placement divergences (first diverging merge
//!     decision, biggest symbol moves) in its ledger row and
//!     fleet_report.json. At --drift 0 the run
//!     self-checks that post-warmup releases are bit-identical and
//!     exits nonzero if not — the CI fleet gate. --faults injects the
//!     plan into every production release build (never the oracle
//!     arm), and each release's ledger row records the degradation its
//!     build survived.
//!
//! propeller_cli traffic [<benchmark>] [--scale S] [--seed N]
//!                       [--requests N] [--tenants N] [--slots N]
//!                       [--queue N] [--mean-gap SECS] [--faults SPEC]
//!                       [--jobs N] [--cache-capacity N] [--soak]
//!                       [--verify-batch] [--out DIR] [--trace-out FILE]
//!     Drive the multi-tenant relink service (default clang at scale
//!     0.002) with a seeded traffic plan: Zipf tenant shares, bursts, client cancellations, and
//!     oversize jobs the admission controller must refuse against the
//!     12 GiB per-action ceiling. Every admitted job runs the real
//!     4-phase pipeline against one shared content-addressed cache;
//!     scheduling (queueing, deadlines, seeded-jitter client retry) is
//!     entirely in modeled sim-seconds, so the run replays
//!     bit-identically and the per-tenant ServiceLedger is
//!     byte-identical across --jobs counts. --faults adds the
//!     service-level kinds (burst-amplify, cancel-job, drop-queue,
//!     evict-storm) alongside the pipeline kinds; the ledger accounts
//!     for every fired fault one-for-one and the run exits nonzero on
//!     any accounting violation. --verify-batch additionally relinks
//!     every distinct completed-job signature in batch mode and
//!     requires byte-identical binaries — the relink-as-a-service
//!     correctness contract. --soak runs the built-in 8-scenario chaos
//!     matrix (each at --jobs 1 and 8 plus a replay) instead of a
//!     single run — the CI serve gate. --out writes
//!     service_ledger.json (and per-scenario soak_<name>.json under
//!     --soak); --trace-out writes a Chrome trace with one lane per
//!     tenant.
//!
//! propeller_cli timeline [<benchmark>] [--scale S] [--seed N]
//!                        [--requests N] [--tenants N] [--slots N]
//!                        [--queue N] [--mean-gap SECS] [--faults SPEC]
//!                        [--jobs N] [--cache-capacity N]
//!                        [--interval SECS] [--out DIR] [--trace-out FILE]
//!     Run the same seeded traffic plan as `traffic` with the
//!     modeled-clock time-series recorder armed: per-tenant queue
//!     depth, slots in use, admission/rejection/retry counters, cache
//!     hit rate, RSS headroom, and submit-to-publish latency events
//!     (with log2 histograms), all keyed by sim-microseconds. Prints
//!     the per-tenant latency percentile table. --out writes
//!     timeline.csv (the canonical fixed-order export — byte-identical
//!     across --jobs counts and replays, the CI slo-gate `cmp`s it)
//!     and timeline_sampled.csv (fixed-interval resample, last value
//!     carried forward, --interval sets the grid). --trace-out writes
//!     the Chrome trace with every series appended as counter tracks.
//!
//! propeller_cli slo [<benchmark>] [--scale S] [--seed N]
//!                   [--requests N] [--tenants N] [--slots N]
//!                   [--queue N] [--mean-gap SECS] [--faults SPEC]
//!                   [--jobs N] [--cache-capacity N] [--config FILE]
//!                   [--out DIR] [--trace-out FILE]
//!     Run the traffic plan with the timeline armed and evaluate
//!     declarative service-level objectives against it: latency
//!     percentiles from the recorded histograms, queue-depth maxima
//!     from the series, rejection/timeout/cache rates from the ledger,
//!     and error-budget burn rates over sliding modeled-time windows.
//!     --config FILE points at a TOML file of [[objective]] sections
//!     (keys: name, metric, tenant, max_warn, max_fail, min_warn,
//!     min_fail, window_secs, target); without it the built-in service
//!     objectives apply. Prints the findings and verdict; --out writes
//!     slo_report.json and timeline.csv, and --trace-out the Chrome
//!     trace as for `timeline`. Exits nonzero when any objective FAILs
//!     — the CI slo gate.
//!
//! propeller_cli serve [<benchmark>] [--scale S] [--seed N]
//!                     [--slots N] [--queue N] [--faults SPEC]
//!                     [--jobs N] [--cache-capacity N]
//!     The long-running service (defaults as for `traffic`) as a stdin
//!     REPL. Commands: `submit <tenant> [program-seed]` enqueues a
//!     relink (arrivals tick one modeled second apart), `drain`
//!     advances the modeled clock until the queue empties, `ledger`
//!     prints the per-tenant table, `shutdown` (or EOF) drains, prints
//!     the final ledger, and exits nonzero if any tenant's accounting
//!     is inexact. The shared cache persists across drains, so repeated
//!     submissions of one tenant hit warm artifacts exactly like a real
//!     relink server.
//!
//! propeller_cli service-diff <A.json> <B.json>
//!     Diff two service ledgers counter-by-counter. Byte-identical
//!     ledgers print OK; any divergence is a FAIL finding and a
//!     nonzero exit — the determinism gate CI runs across --jobs 1
//!     vs --jobs 8 traffic ledgers.
//!
//! propeller_cli dump <benchmark> [--scale S] [--seed N]
//!     Print the generated program as an IR listing.
//!
//! propeller_cli map <benchmark> [--scale S] [--seed N]
//!     Print the optimized binary's linker map.
//! ```

mod args;
mod compare;
mod diff;
mod error;
mod fleet;
mod pipeline;
mod service;

use args::{Args, Command};
use error::{fail, CliError};
use std::process::ExitCode;

/// Every subcommand with the operands and flags it accepts — the one
/// table the parser checks and the usage lines are built from.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "list", arity: (0, 0), run: pipeline::list, operands: "", flags: "" },
    Command { name: "run", arity: (1, 1), run: pipeline::run, operands: "<benchmark>",
        flags: "--scale S --seed N --out DIR --trace-out FILE --faults SPEC --jobs N \
                --flamegraph-out FILE --heatmap-out FILE --provenance --top N" },
    Command { name: "explain", arity: (2, 2), run: compare::explain,
        operands: "<benchmark> <function>[:<block>]", flags: "--scale S --seed N" },
    Command { name: "layout-diff", arity: (2, 2), run: diff::layout_diff,
        operands: "<A.json> <B.json>", flags: "" },
    Command { name: "perf-report", arity: (1, 1), run: compare::perf_report,
        operands: "<benchmark>",
        flags: "--scale S --seed N --top N --event E --out FILE --flamegraph-out FILE" },
    Command { name: "annotate", arity: (2, 2), run: compare::annotate,
        operands: "<benchmark> <function>", flags: "--scale S --seed N --event E" },
    Command { name: "doctor", arity: (1, 1), run: pipeline::doctor, operands: "<benchmark>",
        flags: "--scale S --seed N --faults SPEC --jobs N" },
    Command { name: "chaos", arity: (0, 1), run: pipeline::chaos, operands: "[<benchmark>]",
        flags: "--scale S --seed N --out DIR" },
    Command { name: "compare", arity: (1, 1), run: compare::compare, operands: "<benchmark>",
        flags: "--scale S --seed N --json --out FILE" },
    Command { name: "diff", arity: (2, usize::MAX), run: diff::diff,
        operands: "<A.json> <B.json> [C.json ...]", flags: "--tolerance PCT" },
    Command { name: "fleet", arity: (0, 1), run: fleet::fleet, operands: "[<benchmark>]",
        flags: "--releases N --machines M --drift D --scale S --seed N --jobs N \
                --skew-threshold T --history-window W --out DIR --provenance --faults SPEC" },
    Command { name: "traffic", arity: (0, 1), run: service::traffic, operands: "[<benchmark>]",
        flags: "--scale S --seed N --requests N --tenants N --slots N --queue N \
                --mean-gap SECS --faults SPEC --jobs N --cache-capacity N --soak --verify-batch \
                --out DIR --trace-out FILE" },
    Command { name: "timeline", arity: (0, 1), run: service::timeline, operands: "[<benchmark>]",
        flags: "--scale S --seed N --requests N --tenants N --slots N --queue N \
                --mean-gap SECS --faults SPEC --jobs N --cache-capacity N --interval SECS \
                --out DIR --trace-out FILE" },
    Command { name: "slo", arity: (0, 1), run: service::slo, operands: "[<benchmark>]",
        flags: "--scale S --seed N --requests N --tenants N --slots N --queue N \
                --mean-gap SECS --faults SPEC --jobs N --cache-capacity N --config FILE \
                --out DIR --trace-out FILE" },
    Command { name: "serve", arity: (0, 1), run: service::serve, operands: "[<benchmark>]",
        flags: "--scale S --seed N --slots N --queue N --faults SPEC --jobs N \
                --cache-capacity N" },
    Command { name: "service-diff", arity: (2, 2), run: diff::service_diff,
        operands: "<A.json> <B.json>", flags: "" },
    Command { name: "dump", arity: (1, 1), run: pipeline::dump, operands: "<benchmark>",
        flags: "--scale S --seed N" },
    Command { name: "map", arity: (1, 1), run: pipeline::map, operands: "<benchmark>",
        flags: "--scale S --seed N" },
];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        return fail(CliError::Usage {
            detail: format!("unknown subcommand {name:?}"),
            usage: format!("usage: propeller_cli <{}> ...", names.join(" | ")),
        });
    };
    match Args::parse(cmd, argv).and_then(|args| (cmd.run)(&args)) {
        Ok(code) => code,
        Err(e) => fail(e),
    }
}
