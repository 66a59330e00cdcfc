//! Reconstructing causal span trees from trace events.
//!
//! Span events carry `trace_id`/`span_id`/`parent_id` (see
//! [`crate::event::Event`]); this module links them back into per-trace
//! trees for `talon report --tree`, flattens them to folded-stack lines for
//! `talon report --flame` and `talon profile` (the format `inferno` /
//! `flamegraph.pl` consume), and aggregates anomaly events into per-trace
//! health summaries.
//!
//! Spans are emitted on drop, so a file lists children *before* their
//! parents; reconstruction is therefore a full two-pass link, not a stream.

use crate::event::Event;
use std::collections::{BTreeMap, BTreeSet};

/// One span in a reconstructed trace tree.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stage name of the span.
    pub stage: String,
    /// The span's id within its trace.
    pub span_id: u64,
    /// Span start, microseconds on the trace clock.
    pub ts_us: u64,
    /// Total (inclusive) duration.
    pub dur_us: u64,
    /// Self time: `dur_us` minus the summed durations of direct children,
    /// clamped at zero (children can overshoot by clock granularity).
    pub self_us: u64,
    /// Indices of direct children in [`TraceTree::nodes`], in start order.
    pub children: Vec<usize>,
}

/// All spans of one trace, linked into a forest (one root per top-level
/// span; a well-formed CSS session has exactly one), with the spans of
/// every trace it adopted (see [`build_trees`]).
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace these spans belong to.
    pub trace_id: u64,
    /// Every span of the trace and of the traces it adopted.
    pub nodes: Vec<Node>,
    /// Indices of root spans (parent 0 or missing), in start order.
    pub roots: Vec<usize>,
}

impl TraceTree {
    fn sort_key(&self, i: usize) -> (u64, u64) {
        (self.nodes[i].ts_us, self.nodes[i].span_id)
    }
}

/// Links span events into per-trace trees. Traces appear in order of their
/// first event; marks, anomalies, and untraced spans (`trace_id` 0) are
/// ignored here.
///
/// A span carrying `trace_base` and `units` fields (`eval.par_map`) ran
/// its work units as traces `trace_base..trace_base + units`. Those traces
/// are adopted: their roots become children of that span instead of trees
/// of their own, so their time leaves its self time (saturating: units on
/// parallel workers can sum past its wall time) and is counted once. A
/// trace is adopted by the first span that claims it, in event order.
/// `--tree`, `--critical-path` and `--flame` all see this one shape.
pub fn build_trees(events: &[Event]) -> Vec<TraceTree> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_trace: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        if e.kind != "span" || e.trace_id == 0 {
            continue;
        }
        by_trace.entry(e.trace_id).or_insert_with(|| {
            order.push(e.trace_id);
            Vec::new()
        });
        by_trace
            .get_mut(&e.trace_id)
            .expect("just inserted")
            .push(e);
    }
    // (trace, span) -> the traces that span adopts.
    let mut adopted: BTreeSet<u64> = BTreeSet::new();
    let mut units_of: BTreeMap<(u64, u64), Vec<u64>> = BTreeMap::new();
    for e in events {
        if e.kind != "span" || e.trace_id == 0 {
            continue;
        }
        let (Some(base), Some(units)) = (e.field("trace_base"), e.field("units")) else {
            continue;
        };
        let (base, units) = (base as u64, units as u64);
        let claimed: Vec<u64> = (base..base.saturating_add(units))
            .filter(|id| *id != e.trace_id && by_trace.contains_key(id))
            .filter(|&id| adopted.insert(id))
            .collect();
        units_of.insert((e.trace_id, e.span_id), claimed);
    }
    order
        .into_iter()
        .filter(|id| !adopted.contains(id))
        .map(|trace_id| {
            let mut tree = TraceTree {
                trace_id,
                nodes: Vec::new(),
                roots: Vec::new(),
            };
            // (trace to graft, the node its roots hang under).
            let mut graft: Vec<(u64, Option<usize>)> = vec![(trace_id, None)];
            while let Some((id, adopter)) = graft.pop() {
                let spans = &by_trace[&id];
                let offset = tree.nodes.len();
                tree.nodes.extend(spans.iter().map(|e| Node {
                    stage: e.stage.to_string(),
                    span_id: e.span_id,
                    ts_us: e.ts_us,
                    dur_us: e.dur_us,
                    self_us: e.dur_us,
                    children: Vec::new(),
                }));
                let index: BTreeMap<u64, usize> = spans
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.span_id, offset + i))
                    .collect();
                for (i, span) in spans.iter().enumerate() {
                    let parent = span.parent_id;
                    match (index.get(&parent), adopter) {
                        (Some(&p), _) if parent != 0 => tree.nodes[p].children.push(offset + i),
                        // Parent 0 is the trace root; a missing parent id
                        // means the parent span never closed (crash) —
                        // promote to root rather than dropping the subtree.
                        (_, Some(a)) => tree.nodes[a].children.push(offset + i),
                        (_, None) => tree.roots.push(offset + i),
                    }
                    if let Some(units) = units_of.get(&(id, span.span_id)) {
                        graft.extend(units.iter().map(|&u| (u, Some(offset + i))));
                    }
                }
            }
            for i in 0..tree.nodes.len() {
                let child_total: u64 = tree.nodes[i]
                    .children
                    .iter()
                    .map(|&c| tree.nodes[c].dur_us)
                    .sum();
                tree.nodes[i].self_us = tree.nodes[i].dur_us.saturating_sub(child_total);
                let mut children = std::mem::take(&mut tree.nodes[i].children);
                children.sort_by_key(|&c| tree.sort_key(c));
                tree.nodes[i].children = children;
            }
            let mut roots = std::mem::take(&mut tree.roots);
            roots.sort_by_key(|&r| tree.sort_key(r));
            tree.roots = roots;
            tree
        })
        .collect()
}

/// Flattens span trees to folded-stack lines (`path;to;span self_us`),
/// aggregated over every tree [`build_trees`] links from `events` — the
/// input format of `inferno-flamegraph` / `flamegraph.pl`. Lines are
/// sorted by path.
pub fn folded_stacks(events: &[Event]) -> Vec<(String, u64)> {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for tree in build_trees(events) {
        let mut stack: Vec<(usize, String)> = tree
            .roots
            .iter()
            .map(|&r| (r, tree.nodes[r].stage.clone()))
            .collect();
        while let Some((i, path)) = stack.pop() {
            let node = &tree.nodes[i];
            *agg.entry(path.clone()).or_insert(0) += node.self_us;
            stack.extend(
                node.children
                    .iter()
                    .map(|&c| (c, format!("{path};{}", tree.nodes[c].stage))),
            );
        }
    }
    agg.into_iter().collect()
}

/// Renders the trees as an indented text outline for `talon report --tree`.
pub fn render_trees(trees: &[TraceTree]) -> String {
    let mut out = String::new();
    for tree in trees {
        out.push_str(&format!("trace {}\n", tree.trace_id));
        let mut stack: Vec<(usize, usize)> = tree.roots.iter().rev().map(|&r| (r, 1)).collect();
        while let Some((i, depth)) = stack.pop() {
            let n = &tree.nodes[i];
            out.push_str(&format!(
                "{:indent$}{} {} us (self {} us)\n",
                "",
                n.stage,
                n.dur_us,
                n.self_us,
                indent = depth * 2
            ));
            for &c in n.children.iter().rev() {
                stack.push((c, depth + 1));
            }
        }
    }
    out
}

/// One hop on a trace's critical path: a stage and the self time it
/// contributed on that trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    /// Stage name of the span at this hop.
    pub stage: String,
    /// Self time the span contributed, microseconds.
    pub self_us: u64,
}

/// The critical path of one trace tree: the root-to-leaf chain maximizing
/// summed self time — the sequence of spans that actually bounded the
/// trace's wall time (sibling subtrees off the chain ran under the same
/// inclusive window).
///
/// Ties break toward the earlier-starting child, matching the render
/// order. An empty tree yields an empty path.
pub fn critical_path(tree: &TraceTree) -> Vec<Hop> {
    let n = tree.nodes.len();
    if n == 0 {
        return Vec::new();
    }
    // best[i] = max over root-at-i chains of summed self time; children are
    // sorted by start so a strict `>` keeps the earliest maximal child.
    // Nodes are processed deepest-first via an explicit post-order walk
    // (spans can nest arbitrarily deep; no recursion).
    let mut best: Vec<u64> = vec![0; n];
    let mut best_child: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<(usize, bool)> = tree.roots.iter().map(|&r| (r, false)).collect();
    while let Some((i, expanded)) = stack.pop() {
        if expanded {
            let node = &tree.nodes[i];
            let mut down = 0;
            let mut via = None;
            for &c in &node.children {
                if via.is_none() || best[c] > down {
                    down = best[c];
                    via = Some(c);
                }
            }
            best[i] = node.self_us + down;
            best_child[i] = via;
        } else {
            stack.push((i, true));
            for &c in &tree.nodes[i].children {
                stack.push((c, false));
            }
        }
    }
    let mut start = None;
    let mut top = 0;
    for &r in &tree.roots {
        if start.is_none() || best[r] > top {
            top = best[r];
            start = Some(r);
        }
    }
    let Some(start) = start else {
        return Vec::new();
    };
    let mut path = Vec::new();
    let mut cursor = Some(start);
    while let Some(i) = cursor {
        path.push(Hop {
            stage: tree.nodes[i].stage.clone(),
            self_us: tree.nodes[i].self_us,
        });
        cursor = best_child[i];
    }
    path
}

/// Per-hop latency statistics across every trace sharing a critical path.
#[derive(Debug, Clone)]
pub struct HopStats {
    /// Stage name of the hop.
    pub stage: String,
    /// Median self time of this hop across the group's traces.
    pub p50_us: u64,
    /// 95th-percentile self time across the group's traces.
    pub p95_us: u64,
    /// Summed self time across the group's traces.
    pub total_us: u64,
}

/// One critical-path group: every trace whose critical path visits the
/// same stage sequence, with per-hop latency statistics.
#[derive(Debug, Clone)]
pub struct CriticalPathSummary {
    /// The stage sequence, root first.
    pub path: Vec<String>,
    /// Number of traces sharing this path.
    pub traces: u64,
    /// Summed critical-path time across those traces.
    pub total_us: u64,
    /// Per-hop statistics, aligned with `path`.
    pub hops: Vec<HopStats>,
}

/// Aggregates critical paths across every trace in `events`, grouped by
/// stage sequence and sorted by total critical-path time (descending, then
/// by path), truncated to `top_k` groups. The heaviest hop of the heaviest
/// group is where optimization effort pays off first.
pub fn critical_paths(events: &[Event], top_k: usize) -> Vec<CriticalPathSummary> {
    let mut groups: BTreeMap<Vec<String>, Vec<Vec<u64>>> = BTreeMap::new();
    for tree in build_trees(events) {
        let hops = critical_path(&tree);
        if hops.is_empty() {
            continue;
        }
        let key: Vec<String> = hops.iter().map(|h| h.stage.clone()).collect();
        groups
            .entry(key)
            .or_default()
            .push(hops.into_iter().map(|h| h.self_us).collect());
    }
    let mut out: Vec<CriticalPathSummary> = groups
        .into_iter()
        .map(|(path, samples)| {
            let hops: Vec<HopStats> = path
                .iter()
                .enumerate()
                .map(|(i, stage)| {
                    let mut values: Vec<u64> = samples.iter().map(|s| s[i]).collect();
                    values.sort_unstable();
                    let q = |p: f64| {
                        let rank = ((values.len() - 1) as f64 * p).round() as usize;
                        values[rank]
                    };
                    HopStats {
                        stage: stage.clone(),
                        p50_us: q(0.50),
                        p95_us: q(0.95),
                        total_us: values.iter().sum(),
                    }
                })
                .collect();
            CriticalPathSummary {
                total_us: hops.iter().map(|h| h.total_us).sum(),
                traces: samples.len() as u64,
                path,
                hops,
            }
        })
        .collect();
    out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.path.cmp(&b.path)));
    out.truncate(top_k.max(1));
    out
}

/// Anomaly counts per trace, keyed `trace_id -> kind-stage -> count`
/// (untraced anomalies land under trace 0).
pub fn health_by_trace(events: &[Event]) -> BTreeMap<u64, BTreeMap<String, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<String, u64>> = BTreeMap::new();
    for e in events {
        if e.kind != "anomaly" {
            continue;
        }
        *out.entry(e.trace_id)
            .or_default()
            .entry(e.stage.to_string())
            .or_insert(0) += 1;
    }
    out
}

/// Structurally normalizes events for cross-run comparison: wall-clock
/// fields (`ts_us`, `dur_us`) are zeroed and trace ids are remapped to
/// 1, 2, ... in order of first appearance, so two runs of the same
/// workload compare equal regardless of timing or how many trace ids other
/// code allocated earlier in the process. Span ids are left untouched —
/// they are already deterministic within a trace.
pub fn normalize_structural(events: &[Event]) -> Vec<Event> {
    let mut remap: BTreeMap<u64, u64> = BTreeMap::new();
    events
        .iter()
        .map(|e| {
            let mut e = e.clone();
            e.ts_us = 0;
            e.dur_us = 0;
            if e.trace_id != 0 {
                let next = remap.len() as u64 + 1;
                e.trace_id = *remap.entry(e.trace_id).or_insert(next);
            }
            e
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Fields;

    fn span(ts: u64, stage: &'static str, dur: u64, ids: (u64, u64, u64)) -> Event {
        Event::span(ts, stage, dur, Fields::new()).with_ids(ids.0, ids.1, ids.2)
    }

    /// A session trace as it appears on disk: children emitted (dropped)
    /// before their parents.
    fn session(trace: u64) -> Vec<Event> {
        vec![
            span(10, "css.estimate", 40, (trace, 3, 2)),
            span(5, "sls.run", 70, (trace, 2, 1)),
            span(0, "css.session", 100, (trace, 1, 0)),
        ]
    }

    #[test]
    fn children_link_under_parents_with_self_time() {
        let trees = build_trees(&session(9));
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.roots.len(), 1, "one rooted tree per session");
        let root = &t.nodes[t.roots[0]];
        assert_eq!(root.stage, "css.session");
        assert_eq!(root.self_us, 30); // 100 - 70
        let run = &t.nodes[root.children[0]];
        assert_eq!(run.stage, "sls.run");
        assert_eq!(run.self_us, 30); // 70 - 40
        let est = &t.nodes[run.children[0]];
        assert_eq!(est.stage, "css.estimate");
        assert_eq!(est.self_us, 40);
    }

    #[test]
    fn folded_stacks_emit_full_paths() {
        let folded = folded_stacks(&session(3));
        let get = |p: &str| folded.iter().find(|(path, _)| path == p).map(|&(_, v)| v);
        assert_eq!(get("css.session"), Some(30));
        assert_eq!(get("css.session;sls.run"), Some(30));
        assert_eq!(get("css.session;sls.run;css.estimate"), Some(40));
    }

    #[test]
    fn folded_stacks_aggregate_across_traces() {
        let mut events = session(1);
        events.extend(session(2));
        let folded = folded_stacks(&events);
        let leaf = folded
            .iter()
            .find(|(p, _)| p == "css.session;sls.run;css.estimate")
            .unwrap();
        assert_eq!(leaf.1, 80);
    }

    /// An `eval.par_map` span (trace 1) that ran `units` work units as
    /// traces `base..base + units`, each one `css.estimate` root of
    /// `unit_us`.
    fn par_map(dur: u64, base: u64, units: u64, unit_us: u64) -> Vec<Event> {
        let mut events: Vec<Event> = (0..units)
            .map(|u| span(1, "css.estimate", unit_us, (base + u, 1, 0)))
            .collect();
        let fields = Fields::from_iter([
            ("units".to_string(), units as f64),
            ("trace_base".to_string(), base as f64),
        ]);
        events.push(Event::span(0, "eval.par_map", dur, fields).with_ids(1, 1, 0));
        events
    }

    #[test]
    fn par_map_units_fold_under_their_span_once() {
        let mut events = par_map(100, 10, 2, 40);
        // A trace outside the span's block stays a root of its own.
        events.push(span(0, "css.estimate", 7, (12, 1, 0)));
        let folded = folded_stacks(&events);
        assert_eq!(
            folded,
            [
                ("css.estimate".to_string(), 7),
                ("eval.par_map".to_string(), 20), // 100 - 2 * 40
                ("eval.par_map;css.estimate".to_string(), 80),
            ]
        );
    }

    #[test]
    fn par_map_units_are_one_tree_for_every_view() {
        let mut events = par_map(100, 10, 2, 40);
        events.push(span(0, "css.estimate", 7, (12, 1, 0)));
        // `--tree`: the units hang under the span, not as traces of their own.
        let text = render_trees(&build_trees(&events));
        assert_eq!(
            text,
            "trace 1\n  eval.par_map 100 us (self 20 us)\n    css.estimate 40 us (self 40 us)\n    \
             css.estimate 40 us (self 40 us)\ntrace 12\n  css.estimate 7 us (self 7 us)\n"
        );
        // `--critical-path`: one par_map trace through its heaviest unit.
        let summaries = critical_paths(&events, 8);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].path, ["eval.par_map", "css.estimate"]);
        assert_eq!((summaries[0].traces, summaries[0].total_us), (1, 60));
        assert_eq!(summaries[1].path, ["css.estimate"]);
        assert_eq!((summaries[1].traces, summaries[1].total_us), (1, 7));
    }

    #[test]
    fn par_map_self_time_saturates_when_units_overlap() {
        // Two workers: 3 units of 60 us inside 100 us of wall time.
        let events = par_map(100, 20, 3, 60);
        let folded = folded_stacks(&events);
        assert_eq!(
            folded,
            [
                ("eval.par_map".to_string(), 0),
                ("eval.par_map;css.estimate".to_string(), 180),
            ]
        );
        let trees = build_trees(&events);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].nodes[trees[0].roots[0]].children.len(), 3);
        let path = critical_path(&trees[0]);
        assert_eq!(
            path,
            [
                Hop {
                    stage: "eval.par_map".into(),
                    self_us: 0
                },
                Hop {
                    stage: "css.estimate".into(),
                    self_us: 60
                },
            ]
        );
    }

    #[test]
    fn nested_par_maps_adopt_through_their_units() {
        // Unit trace 10 runs a par_map of its own over traces 20..22.
        let mut events = par_map(100, 10, 1, 90);
        events.retain(|e| e.trace_id != 10);
        events.extend(par_map(90, 20, 2, 30).into_iter().map(|mut e| {
            if e.trace_id == 1 {
                e.trace_id = 10;
            }
            e
        }));
        let folded = folded_stacks(&events);
        assert_eq!(
            folded,
            [
                ("eval.par_map".to_string(), 10),
                ("eval.par_map;eval.par_map".to_string(), 30),
                ("eval.par_map;eval.par_map;css.estimate".to_string(), 60),
            ]
        );
        assert_eq!(build_trees(&events).len(), 1);
    }

    #[test]
    fn orphaned_spans_are_promoted_to_roots() {
        // Parent span 7 never closed (crash): child must still appear.
        let events = vec![span(4, "css.estimate", 10, (5, 8, 7))];
        let trees = build_trees(&events);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].nodes[trees[0].roots[0]].stage, "css.estimate");
    }

    #[test]
    fn health_groups_anomalies_by_trace() {
        let events = vec![
            Event::anomaly(1, "health.snr_clamped", 4, 2, Fields::new()),
            Event::anomaly(2, "health.snr_clamped", 4, 2, Fields::new()),
            Event::anomaly(3, "health.missing_probe", 6, 1, Fields::new()),
        ];
        let health = health_by_trace(&events);
        assert_eq!(health[&4]["health.snr_clamped"], 2);
        assert_eq!(health[&6]["health.missing_probe"], 1);
    }

    #[test]
    fn normalize_remaps_trace_ids_by_first_appearance() {
        let mut a = session(71);
        a.extend(session(90));
        let mut b = session(400);
        b.extend(session(512));
        assert_eq!(normalize_structural(&a), normalize_structural(&b));
    }

    #[test]
    fn critical_path_follows_the_heaviest_chain() {
        // Root (self 10) with two subtrees: left sls.run holds a heavy
        // css.estimate leaf (self 40), right css.report is lighter (self
        // 25). Chain must go root -> sls.run -> css.estimate.
        let events = vec![
            span(10, "css.estimate", 40, (7, 3, 2)),
            span(5, "sls.run", 50, (7, 2, 1)),
            span(60, "css.report", 25, (7, 4, 1)),
            span(0, "css.session", 100, (7, 1, 0)),
        ];
        let trees = build_trees(&events);
        let path = critical_path(&trees[0]);
        let stages: Vec<&str> = path.iter().map(|h| h.stage.as_str()).collect();
        assert_eq!(stages, ["css.session", "sls.run", "css.estimate"]);
        assert_eq!(path[0].self_us, 25); // 100 - 50 - 25
        assert_eq!(path[1].self_us, 10); // 50 - 40
        assert_eq!(path[2].self_us, 40);
    }

    #[test]
    fn critical_path_of_empty_tree_is_empty() {
        let tree = TraceTree {
            trace_id: 1,
            nodes: Vec::new(),
            roots: Vec::new(),
        };
        assert!(critical_path(&tree).is_empty());
    }

    #[test]
    fn critical_path_tie_prefers_the_earlier_child() {
        let events = vec![
            span(10, "css.alpha", 30, (3, 2, 1)),
            span(50, "css.beta", 30, (3, 3, 1)),
            span(0, "css.session", 100, (3, 1, 0)),
        ];
        let path = critical_path(&build_trees(&events)[0]);
        assert_eq!(path[1].stage, "css.alpha");
    }

    #[test]
    fn critical_paths_group_and_rank_by_total_time() {
        // Three traces: two share the session->run->estimate shape (the
        // estimate dominating), one is a lone report.
        let mut events = session(1);
        events.extend(session(2));
        events.push(span(0, "css.report", 20, (5, 1, 0)));
        let summaries = critical_paths(&events, 8);
        assert_eq!(summaries.len(), 2);
        let top = &summaries[0];
        assert_eq!(top.path, ["css.session", "sls.run", "css.estimate"]);
        assert_eq!(top.traces, 2);
        assert_eq!(top.total_us, 200); // (30 + 30 + 40) * 2
        let est = top.hops.last().unwrap();
        assert_eq!(est.stage, "css.estimate");
        assert_eq!((est.p50_us, est.p95_us, est.total_us), (40, 40, 80));
        assert_eq!(summaries[1].path, ["css.report"]);
        assert_eq!(summaries[1].traces, 1);

        // top_k truncates after ranking.
        assert_eq!(critical_paths(&events, 1).len(), 1);
        assert_eq!(
            critical_paths(&events, 1)[0].path,
            ["css.session", "sls.run", "css.estimate"]
        );
    }

    #[test]
    fn render_is_indented_by_depth() {
        let text = render_trees(&build_trees(&session(2)));
        assert!(text.contains("trace 2\n"), "{text}");
        assert!(text.contains("\n  css.session"), "{text}");
        assert!(text.contains("\n    sls.run"), "{text}");
        assert!(text.contains("\n      css.estimate"), "{text}");
    }
}
