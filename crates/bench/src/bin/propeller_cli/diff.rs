//! The artifact diffs: `diff` (run reports), `service-diff` (service
//! ledgers) and `layout-diff` (provenance documents).

use crate::args::Args;
use crate::error::{gate, load, CliError};
use propeller_doctor::{
    diff_docs, diff_reports, diff_service_ledgers, render_layout_diff, trend_reports,
    ProvenanceDoc, RunReport, Severity,
};
use propeller_faults::ServiceLedger;
use std::process::ExitCode;

pub fn diff(args: &Args) -> Result<ExitCode, CliError> {
    let tolerance = args.get("--tolerance")?.unwrap_or(0.0);
    let paths = args.operands();
    let reports = paths.iter().map(|p| load(p, RunReport::parse)).collect::<Result<Vec<_>, _>>()?;
    let regressed = if let [a, b] = &reports[..] {
        let d = diff_reports(a, b, tolerance);
        print!("{}", d.render());
        d.has_regression()
    } else {
        let labeled: Vec<(String, &RunReport)> = paths.iter().cloned().zip(&reports).collect();
        let t = trend_reports(&labeled, tolerance);
        print!("{}", t.render());
        t.has_regression()
    };
    Ok(gate(regressed))
}

pub fn service_diff(args: &Args) -> Result<ExitCode, CliError> {
    let a = load(args.operand(0).unwrap_or_default(), ServiceLedger::from_json_str)?;
    let b = load(args.operand(1).unwrap_or_default(), ServiceLedger::from_json_str)?;
    let findings = diff_service_ledgers(&a, &b);
    print!("{}", propeller_doctor::render(&findings));
    Ok(gate(propeller_doctor::worst(&findings) == Severity::Fail))
}

pub fn layout_diff(args: &Args) -> Result<ExitCode, CliError> {
    let (a_path, b_path) =
        (args.operand(0).unwrap_or_default(), args.operand(1).unwrap_or_default());
    let a = load(a_path, ProvenanceDoc::parse)?;
    let b = load(b_path, ProvenanceDoc::parse)?;
    // Divergence between two runs is information, not failure: always
    // exit zero so CI can diff across releases.
    print!("{}", render_layout_diff(a_path, b_path, &diff_docs(&a, &b)));
    Ok(ExitCode::SUCCESS)
}
