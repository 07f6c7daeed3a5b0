//! Per-name span summary: count, total, self time and max.
//!
//! A span's self time is its duration minus the union of the intervals
//! its direct children cover (clipped to the span itself). Under
//! `jobs > 1` the codegen worker spans of one phase overlap each other,
//! so subtracting their plain sum would undercount the phase's own
//! time, or drive it below zero.

use propeller_telemetry::TraceData;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// One closed span, reduced to what the summary needs.
#[derive(Clone, Debug)]
pub struct Node<K> {
    pub id: K,
    pub parent: Option<K>,
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Aggregate of every span that shares one summary name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
    pub max_us: u64,
}

/// Summary name of a span: per-item names such as `codegen:mod17`,
/// `action:link app.pm` or the service's `t0/job12` fold into
/// `codegen:*`, `action:*` and `t0/*`, so one row stands for one kind
/// of work.
pub fn summary_name(name: &str) -> String {
    match name.find([':', '/']) {
        Some(i) => format!("{}*", &name[..=i]),
        None => name.to_string(),
    }
}

/// Length of the union of `intervals` (half-open, in microseconds).
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id.
pub fn self_times<K: Copy + Eq + Hash>(nodes: &[Node<K>]) -> HashMap<K, u64> {
    let mut children: HashMap<K, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<K, (u64, u64)> = nodes
        .iter()
        .map(|n| (n.id, (n.start_us, n.start_us + n.dur_us)))
        .collect();
    for n in nodes {
        let Some(p) = n.parent else { continue };
        let Some(&(ps, pe)) = bounds.get(&p) else {
            continue;
        };
        let (s, e) = (n.start_us.max(ps), (n.start_us + n.dur_us).min(pe));
        if s < e {
            children.entry(p).or_default().push((s, e));
        }
    }
    nodes
        .iter()
        .map(|n| {
            let covered = children.remove(&n.id).map_or(0, union_len);
            (n.id, n.dur_us.saturating_sub(covered))
        })
        .collect()
}

/// Count, total, self time and max per summary name.
pub fn summarize<K: Copy + Eq + Hash>(nodes: &[Node<K>]) -> BTreeMap<String, NameStats> {
    let self_us = self_times(nodes);
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for n in nodes {
        let row = out.entry(summary_name(&n.name)).or_default();
        row.count += 1;
        row.total_us += n.dur_us;
        row.self_us += self_us[&n.id];
        row.max_us = row.max_us.max(n.dur_us);
    }
    out
}

/// Summary of a drained trace.
pub fn summarize_trace(trace: &TraceData) -> BTreeMap<String, NameStats> {
    let nodes: Vec<_> = trace
        .spans
        .iter()
        .map(|s| Node {
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            start_us: s.start_us,
            dur_us: s.dur_us,
        })
        .collect();
    summarize(&nodes)
}

/// Summed self time of the spans summarized under `name`, in seconds.
pub fn self_secs(summary: &BTreeMap<String, NameStats>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |r| r.self_us as f64 / 1e6)
}

/// The summary as a text table, heaviest self time first.
pub fn render(summary: &BTreeMap<String, NameStats>) -> String {
    let mut rows: Vec<_> = summary.iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(b.0)));
    let mut out = format!(
        "{:<32} {:>8} {:>12} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s", "max_s"
    );
    for (name, r) in rows {
        out += &format!(
            "{:<32} {:>8} {:>12.6} {:>12.6} {:>12.6}\n",
            name,
            r.count,
            r.total_us as f64 / 1e6,
            r.self_us as f64 / 1e6,
            r.max_us as f64 / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: u32, parent: Option<u32>, name: &str, start_us: u64, dur_us: u64) -> Node<u32> {
        Node {
            id,
            parent,
            name: name.into(),
            start_us,
            dur_us,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // phase [0, 100): two workers overlap on [10, 60) and [40, 80),
        // covering [10, 80) = 70 us; a link child covers [85, 95).
        // The worker on [40, 80) has a nested child on [50, 70).
        let nodes = vec![
            node(1, None, "phase2.build_metadata", 0, 100),
            node(2, Some(1), "codegen:m0", 10, 50),
            node(3, Some(1), "codegen:m1", 40, 40),
            node(4, Some(1), "link:app.pm", 85, 10),
            node(5, Some(4), "link.emit", 86, 8),
            node(6, Some(3), "action:inner", 50, 20),
        ];
        let selfs = self_times(&nodes);
        assert_eq!(selfs[&1], 100 - 70 - 10);
        assert_eq!(selfs[&2], 50);
        assert_eq!(selfs[&3], 40 - 20);
        assert_eq!(selfs[&4], 2);
        assert_eq!(selfs[&5], 8);

        let summary = summarize(&nodes);
        let codegen = summary["codegen:*"];
        assert_eq!(
            codegen,
            NameStats {
                count: 2,
                total_us: 90,
                self_us: 70,
                max_us: 50
            }
        );
        // The plain sum of the workers (90 us) exceeds the 70 us they
        // cover; self time must never go negative.
        assert_eq!(summary["phase2.build_metadata"].self_us, 20);
        assert_eq!(summary["link:*"].self_us, 2);
        let all_self: u64 = summary.values().map(|r| r.self_us).sum();
        // Self times partition the root's wall time exactly, except
        // where siblings overlap (here by 20 us).
        assert_eq!(all_self, 100 + 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let nodes = vec![node(1, None, "a", 10, 10), node(2, Some(1), "b", 5, 10)];
        assert_eq!(self_times(&nodes)[&1], 5);
        assert_eq!(self_times(&nodes)[&2], 10);
    }

    #[test]
    fn per_item_names_fold_by_kind() {
        assert_eq!(summary_name("codegen:clang_m17"), "codegen:*");
        assert_eq!(summary_name("t3/job41"), "t3/*");
        assert_eq!(summary_name("link.emit"), "link.emit");
    }

    #[test]
    fn disjoint_intervals_add_up() {
        assert_eq!(union_len(vec![(0, 5), (10, 12), (11, 20), (3, 4)]), 5 + 10);
        assert_eq!(union_len(Vec::new()), 0);
    }
}
