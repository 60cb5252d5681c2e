//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here touches the program's own
//! `cubesfc::obs`; the spans are measured from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the id of the enclosing span on the
/// same thread (0 for a root); spans of one op share `op`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. A disabled recorder runs the closure and
/// records nothing, so untraced rounds share the op code with traced ones.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Added to every id so recorders of several threads can be merged.
    id_base: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Recorder {
    pub fn disabled() -> Recorder {
        Recorder::new(false, Instant::now(), 0)
    }

    /// An enabled recorder whose timestamps count from `epoch` and whose
    /// ids start above `id_base`.
    pub fn enabled(epoch: Instant, id_base: u32) -> Recorder {
        Recorder::new(true, epoch, id_base)
    }

    fn new(enabled: bool, epoch: Instant, id_base: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            id_base,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The op id stamped on every span recorded from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        self.spans.push(Span {
            id: self.id_base + index as u32 + 1,
            parent,
            op: self.op,
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap, being recorded
/// on one thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(parent) = own.get_mut(&s.parent) {
            *parent = parent.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total self time per layer, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_layer = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_insert(0) += own[&s.id];
    }
    by_layer
}

/// Share of the root spans' time that their direct children cover.
pub fn coverage(spans: &[Span]) -> f64 {
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::duration_ns)
        .sum();
    let root_ids: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.id)
        .collect();
    let children: u64 = spans
        .iter()
        .filter(|s| root_ids.contains(&s.parent))
        .map(Span::duration_ns)
        .sum();
    if roots == 0 {
        0.0
    } else {
        children as f64 / roots as f64
    }
}

/// The trace document written to `out/trace-<workload>.json`.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"schema\":\"cubesfc-benchtrace-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"unit\":\"ns\",\"self_ns_by_layer\":{{"
    );
    for (i, (layer, ns)) in self_time_by_layer(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}\"{layer}\":{ns}").unwrap();
    }
    out.push_str("},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i > 0 { ",\n" } else { "" };
        write!(
            out,
            "{sep}{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
        )
        .unwrap();
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            layer,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    /// root 0..100 ── a 10..40 ── a1 15..25
    ///             └─ b 50..90
    fn tree() -> Vec<Span> {
        vec![
            span(1, 0, "bench", 0, 100),
            span(2, 1, "graph", 10, 40),
            span(3, 2, "core", 15, 25),
            span(4, 1, "core", 50, 90),
        ]
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let own = self_times(&tree());
        assert_eq!(own[&1], 100 - 30 - 40);
        assert_eq!(own[&2], 30 - 10);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 40);
        assert_eq!(own.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn layers_sum_and_coverage_counts_direct_children_of_roots() {
        let by_layer = self_time_by_layer(&tree());
        assert_eq!(by_layer["bench"], 30);
        assert_eq!(by_layer["graph"], 20);
        assert_eq!(by_layer["core"], 50);
        assert_eq!(coverage(&tree()), 0.7);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_records_nothing() {
        let mut rec = Recorder::enabled(Instant::now(), 1000);
        rec.set_op(7);
        let got = rec.span("bench", "op", |r| r.span("core", "inner", |_| 5));
        assert_eq!(got, 5);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].parent), (1001, 0));
        assert_eq!((spans[1].id, spans[1].parent), (1002, 1001));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Recorder::disabled();
        assert_eq!(off.span("bench", "op", |_| 9), 9);
        assert!(off.into_spans().is_empty());
    }
}
