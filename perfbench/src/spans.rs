//! Spans the benchmark records around the public calls it makes into
//! each layer. Nothing here reaches inside the program: a span is the
//! benchmark's own clock read before and after one call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use disco_mediator::{ExecutionTrace, PlanSource};

/// One timed call. Spans of one query share `qid`; `parent` indexes the
/// enclosing span in the same query.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Which combine engine answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    TwoPhase,
    Streaming,
}

/// Counts the program returned for one query, taken from its
/// `OptimizedPlan`, `ExecutionTrace` and admission permit.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    pub plan_source: Option<PlanSource>,
    /// `(plans_considered, estimator_nodes, estimator_rules)`.
    pub optimizer: Option<(usize, usize, usize)>,
    pub admission_wait_ms: Option<f64>,
    pub engine: Option<Engine>,
    /// `ExecutionTrace::submit_wall_ms`.
    pub fetch_ms: Option<f64>,
    /// Over a transport: per submit `(wall_ms, attempts, tuples)`.
    pub submits: Vec<(f64, u32, usize)>,
}

/// The spans and facts of one traced query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    pub qid: u64,
    pub spans: Vec<Span>,
    pub facts: Facts,
    open: Vec<usize>,
}

impl QueryTrace {
    /// A new query: the next query id, span times on the process-wide
    /// span clock.
    pub fn new() -> Self {
        static NEXT_QID: AtomicU64 = AtomicU64::new(0);
        QueryTrace {
            qid: NEXT_QID.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            facts: Facts::default(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
    }

    /// Close every span still open (a call returned an error).
    pub fn finish(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Split a finished `execute` span by the fetch wall time the
    /// executor measured: two-phase execution gets a `fetch` child and a
    /// `combine` child (the rest of the call); a streamed execution,
    /// whose fetch and combine overlap, gets one `pipeline` child.
    pub fn split_execute(&mut self, execute: usize, engine: Engine, trace: &ExecutionTrace) {
        let Span {
            start_ns, end_ns, ..
        } = self.spans[execute];
        let fetch_end = (start_ns + (trace.submit_wall_ms * 1e6) as u64).min(end_ns);
        let child = |name, start_ns, end_ns| Span {
            name,
            parent: Some(execute),
            start_ns,
            end_ns,
        };
        match engine {
            Engine::TwoPhase => {
                self.spans.push(child("fetch", start_ns, fetch_end));
                self.spans.push(child("combine", fetch_end, end_ns));
            }
            Engine::Streaming => self.spans.push(child("pipeline", start_ns, fetch_end)),
        }
        self.facts.engine = Some(engine);
        self.facts.fetch_ms = Some(trace.submit_wall_ms);
    }

    /// Record the per-submit transport facts of an execution.
    pub fn note_submits(&mut self, trace: &ExecutionTrace) {
        self.facts.submits = trace
            .submits
            .iter()
            .map(|s| (s.wall_ms, s.attempts, s.tuples))
            .collect();
    }

    /// Self time of every span: its duration minus the part its
    /// children cover (children of one span never overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The root span (the whole query), when one was recorded.
    pub fn root(&self) -> Option<&Span> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Durations of the spans called `name`, in microseconds.
    pub fn durations_us<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
    }

    /// One JSON line per span.
    pub fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write as _;
        let selfs = self.self_ns();
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"qid\":{},\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                self.qid, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// Summed self time per span name across queries, in nanoseconds.
pub fn self_time_by_name<'a>(
    traces: impl IntoIterator<Item = &'a QueryTrace>,
) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for t in traces {
        for (s, ns) in t.spans.iter().zip(t.self_ns()) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = QueryTrace::new();
        let root = t.begin("query");
        t.time("parse", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("plan", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let selfs = t.self_ns();
        let children = t.spans[1].dur_ns() + t.spans[2].dur_ns();
        assert_eq!(selfs[0], t.spans[0].dur_ns() - children);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.root().map(|s| s.name), Some("query"));
        let mut out = String::new();
        t.write_jsonl(&mut out);
        assert_eq!(out.lines().count(), 3);
        assert!(out.contains(&format!("\"qid\":{}", t.qid)));
    }
}
