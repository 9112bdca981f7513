//! Closed-loop measurement: segments of load from the workload's client
//! threads, the untraced run that gives the end-to-end metrics, and the
//! traced run that gives the per-layer ones.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use disco_common::rng::seeded;
use disco_mediator::PlanSource;

use crate::spans::{self_time_by_name, Engine, QueryTrace};
use crate::stats::{beyond, mean, median, percentile, ratio, sorted, tail_percentile, LogHist};
use crate::workload::{Instance, Sample, SetupTimes, Spec, State, Window};

/// Episodic workloads run at least this many episodes, so `setup_s`
/// is a median of several set-ups.
const MIN_EPISODES: usize = 3;
/// Traced runs interleave this many rounds of three segments: untraced,
/// traced, and untraced with the program's metrics switched off.
const ROUNDS: usize = 5;
/// The traced layer calls must cover the traced query wall time to
/// within this share; the rest is `trace.unattributed_share`.
const ATTRIBUTION_BOUND: f64 = 0.05;
/// Failure messages kept for the report.
const KEEP_FAILURES: usize = 5;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable facts printed beside the metrics.
    pub notes: Vec<String>,
    /// Traced queries, for the span file.
    pub traces: Vec<QueryTrace>,
}

impl Outcome {
    fn new(tally: &Tally) -> Self {
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures.clone(),
            metrics: Vec::new(),
            notes: Vec::new(),
            traces: Vec::new(),
        }
    }
}

/// The queries that started in one time slice of a window.
#[derive(Clone)]
struct Slice {
    /// Query wall time, ms.
    latency: LogHist,
    answered: u64,
    wall_s: f64,
}

/// Answers folded as they arrive, in memory that does not grow with the
/// number of queries, so a faster program does not grow the benchmark's
/// own resident memory, which `peak_rss_mb` measures.
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Per answer: max(predicted / measured, measured / predicted).
    qerror: LogHist,
    sim_ms_sum: f64,
    answers: u64,
    slices: Vec<Slice>,
}

impl Tally {
    fn new(slices: usize) -> Self {
        let slice = Slice {
            latency: LogHist::new(1e-4),
            answered: 0,
            wall_s: 0.0,
        };
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            qerror: LogHist::new(1.0),
            sim_ms_sum: 0.0,
            answers: 0,
            slices: vec![slice; slices],
        }
    }

    fn add(&mut self, slice: usize, s: Sample) {
        self.attempted += 1;
        let slice = &mut self.slices[slice];
        slice.latency.add(s.wall_ns as f64 / 1e6);
        if let Some(why) = s.failure {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(why);
            }
            return;
        }
        slice.answered += 1;
        for (predicted, sim) in s.answers {
            self.answers += 1;
            self.sim_ms_sum += sim;
            if predicted > 0.0 && sim > 0.0 {
                self.qerror.add((predicted / sim).max(sim / predicted));
            }
        }
    }

    /// Fold `other` in; its slices are the same time slices as ours
    /// when `same_window`, otherwise later ones.
    fn merge(&mut self, other: Tally, same_window: bool) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEEP_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.qerror.merge(&other.qerror);
        self.sim_ms_sum += other.sim_ms_sum;
        self.answers += other.answers;
        if same_window {
            for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
                mine.latency.merge(&theirs.latency);
                mine.answered += theirs.answered;
            }
        } else {
            self.slices.extend(other.slices);
        }
    }
}

/// One stretch of closed-loop load.
struct Segment {
    tally: Tally,
    wall_s: f64,
    traces: Vec<QueryTrace>,
    /// Program counters (`disco_obs`) added during the segment.
    obs: BTreeMap<String, f64>,
    before: State,
    after: State,
}

impl Segment {
    fn wall_per_query(&self) -> f64 {
        ratio(self.wall_s, self.tally.attempted as f64)
    }
}

#[derive(Clone, Copy)]
enum Limit {
    /// Run for this long, in `slices` equal time slices.
    For(Duration, usize),
    /// Operations per client.
    Ops(u64),
}

fn obs_counters() -> BTreeMap<String, f64> {
    disco_obs::metrics::global()
        .snapshot()
        .counters
        .into_iter()
        .map(|s| {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            (format!("{}{{{}}}", s.name, labels.join(",")), s.value)
        })
        .collect()
}

fn run_segment(
    inst: &dyn Instance,
    clients: usize,
    cycle: u64,
    limit: Limit,
    traced: bool,
    stream: u64,
) -> Segment {
    let (slices, slice_len) = match limit {
        Limit::For(d, n) => (n, d / n as u32),
        Limit::Ops(_) => (1, Duration::MAX),
    };
    let obs_before = obs_counters();
    let before = inst.state();
    let start = Instant::now();
    let per_client: Vec<(Tally, Vec<QueryTrace>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                s.spawn(move || {
                    let mut rng = seeded(stream, &format!("client-{client}"));
                    let (mut tally, mut traces) = (Tally::new(slices), Vec::new());
                    for seq in 0.. {
                        let elapsed = start.elapsed();
                        let done = match limit {
                            Limit::For(d, _) => seq % cycle == 0 && elapsed >= d,
                            Limit::Ops(n) => seq >= n,
                        };
                        if done {
                            break;
                        }
                        let slice = (elapsed.as_nanos() / slice_len.as_nanos()) as usize;
                        let trace = traced.then_some(&mut traces);
                        let sample = inst.op(client, seq, &mut rng, trace);
                        tally.add(slice.min(slices - 1), sample);
                    }
                    (tally, traces)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = inst.state();
    let obs_after = obs_counters();
    let obs = obs_after
        .into_iter()
        .map(|(k, v)| {
            let d = v - obs_before.get(&k).copied().unwrap_or(0.0);
            (k, d)
        })
        .collect();
    let mut tally = Tally::new(slices);
    let mut traces = Vec::new();
    for (t, q) in per_client {
        tally.merge(t, true);
        traces.extend(q);
    }
    // Every slice but the last lasts `slice_len`; the last also holds
    // the cycles that finished after the window closed.
    let full = slice_len.as_secs_f64() * (slices - 1) as f64;
    for (i, slice) in tally.slices.iter_mut().enumerate() {
        slice.wall_s = if i + 1 < slices {
            slice_len.as_secs_f64()
        } else {
            wall_s - full
        };
    }
    Segment {
        tally,
        wall_s,
        traces,
        obs,
        before,
        after,
    }
}

/// Query-stream seed of segment `i`.
fn stream(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64)
}

/// Set up a fresh instance, recording its set-up times.
fn build(
    spec: &Spec,
    seed: u64,
    setups: &mut Vec<SetupTimes>,
) -> Result<Box<dyn Instance>, String> {
    let built = (spec.build)(seed)?;
    setups.push(built.setup);
    Ok(built.instance)
}

fn metric(out: &mut Outcome, name: impl Into<String>, value: f64, unit: &'static str) {
    out.metrics.push(Metric {
        name: name.into(),
        // An empty `f64` sum is -0.0; report it as 0.
        value: value + 0.0,
        unit,
    });
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: the end-to-end metrics. Throughput and latency are
/// medians over the window's slices (time slices, or episodes), so a
/// burst of interference from outside touches one slice, not the result.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut total = Tally::new(0);
    let mut measured = 0.0;
    let mut segments = 0;
    while match spec.window {
        Window::Timed { instances, .. } => segments < instances,
        Window::Episodes { .. } => segments < MIN_EPISODES || measured < seconds,
    } {
        let inst = build(spec, seed, &mut setups)?;
        let limit = match spec.window {
            Window::Timed { instances, slices } => {
                Limit::For(Duration::from_secs_f64(seconds / instances as f64), slices)
            }
            Window::Episodes { queries } => Limit::Ops(queries / spec.clients as u64),
        };
        let seg = run_segment(
            &*inst,
            spec.clients,
            spec.cycle,
            limit,
            false,
            stream(seed, segments),
        );
        measured += seg.wall_s;
        segments += 1;
        total.merge(seg.tally, false);
    }
    let mut out = Outcome::new(&total);
    let per_slice =
        |f: &dyn Fn(&Slice) -> f64| median(&total.slices.iter().map(f).collect::<Vec<_>>());
    metric(
        &mut out,
        "qps",
        per_slice(&|s| s.answered as f64 / s.wall_s),
        "1/s",
    );
    metric(
        &mut out,
        "latency_p50_ms",
        per_slice(&|s| s.latency.percentile(50.0)),
        "ms",
    );
    metric(
        &mut out,
        "latency_tail_ms",
        per_slice(&|s| s.latency.percentile(spec.tail_pct)),
        "ms",
    );
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total).collect();
    metric(&mut out, "setup_s", median(&totals), "s");
    metric(&mut out, "peak_rss_mb", peak_rss_mb(), "MiB");
    metric(
        &mut out,
        "qerror_p50",
        total.qerror.percentile(50.0),
        "ratio",
    );
    metric(
        &mut out,
        "qerror_p90",
        total.qerror.percentile(90.0),
        "ratio",
    );
    metric(
        &mut out,
        "sim_response_ms_mean",
        ratio(total.sim_ms_sum, total.answers as f64),
        "ms",
    );
    let sizes: Vec<usize> = total.slices.iter().map(|s| s.latency.len()).collect();
    let fewest = sizes.iter().copied().min().unwrap_or(0);
    out.notes.push(format!(
        "latency_tail_ms is p{} (the median over {} slices of {}..{} queries; \
         {} beyond it in the smallest, at least {} wanted)",
        spec.tail_pct,
        sizes.len(),
        fewest,
        sizes.iter().copied().max().unwrap_or(0),
        beyond(fewest, spec.tail_pct),
        crate::stats::TAIL_BEYOND
    ));
    let show = |f: &dyn Fn(&Slice) -> f64| {
        let v: Vec<String> = total
            .slices
            .iter()
            .map(|s| format!("{:.4}", f(s)))
            .collect();
        v.join(" ")
    };
    out.notes.push(format!(
        "per slice: qps [{}]; p50 ms [{}]; tail ms [{}]",
        show(&|s| s.answered as f64 / s.wall_s),
        show(&|s| s.latency.percentile(50.0)),
        show(&|s| s.latency.percentile(spec.tail_pct))
    ));
    out.notes.push(format!(
        "failed_share = {} / {} = {}",
        out.failed,
        out.attempted,
        ratio(out.failed as f64, out.attempted as f64)
    ));
    out.notes.push(format!(
        "q-error over {} answers; window {measured:.3} s in {segments} segment(s); set-ups {totals:?} s",
        total.qerror.len(),
    ));
    Ok(out)
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Untraced,
    Traced,
    ObsOff,
}

/// The traced run: the per-layer metrics. Rounds interleave untraced,
/// traced and metrics-off segments so drift cancels out of the two
/// overhead shares.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let segment = Duration::from_secs_f64(seconds / (3 * ROUNDS) as f64);
    let kinds = [Kind::Untraced, Kind::Traced, Kind::ObsOff];
    let mut setups = Vec::new();
    let mut total = Tally::new(0);
    let mut traced_segs = Vec::new();
    let mut trace_overhead = Vec::new();
    let mut obs_overhead = Vec::new();
    for round in 0..ROUNDS {
        // A timed workload serves each round from one fresh instance;
        // an episodic one sets up afresh for every segment.
        let mut inst = match spec.window {
            Window::Timed { .. } => Some(build(spec, seed, &mut setups)?),
            Window::Episodes { .. } => None,
        };
        let mut per_query = [0.0; 3];
        for j in 0..3 {
            let kind = kinds[(j + round) % 3];
            let limit = match spec.window {
                Window::Timed { .. } => Limit::For(segment, 1),
                Window::Episodes { queries } => {
                    inst = Some(build(spec, seed, &mut setups)?);
                    Limit::Ops(queries / spec.clients as u64)
                }
            };
            let inst = inst.as_deref().expect("an instance");
            disco_obs::set_enabled(kind != Kind::ObsOff);
            let traced = kind == Kind::Traced;
            let mut seg = run_segment(
                inst,
                spec.clients,
                spec.cycle,
                limit,
                traced,
                stream(seed, 3 * round + j),
            );
            disco_obs::set_enabled(true);
            per_query[kinds.iter().position(|k| *k == kind).expect("kind")] = seg.wall_per_query();
            total.merge(std::mem::replace(&mut seg.tally, Tally::new(0)), false);
            if traced {
                traced_segs.push(seg);
            }
        }
        let [untraced, traced, obs_off] = per_query;
        trace_overhead.push(ratio(traced - untraced, traced));
        obs_overhead.push(ratio(untraced - obs_off, untraced));
    }
    let mut out = Outcome::new(&total);
    layers(&traced_segs, &mut out);
    metric(
        &mut out,
        "obs.overhead_share",
        median(&obs_overhead),
        "share",
    );
    let phase = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    metric(&mut out, "setup.build_s", phase(|s| s.build_s), "s");
    metric(&mut out, "setup.register_s", phase(|s| s.register_s), "s");
    metric(&mut out, "setup.warm_s", phase(|s| s.warm_s), "s");
    metric(
        &mut out,
        "trace.overhead_share",
        median(&trace_overhead),
        "share",
    );
    attribution(&traced_segs, &mut out);
    out.notes.push(format!(
        "overhead shares per round: trace {trace_overhead:?}, obs {obs_overhead:?}"
    ));
    out.traces = traced_segs.into_iter().flat_map(|s| s.traces).collect();
    Ok(out)
}

/// p50 and tail of a set of microsecond samples.
fn us_metric(out: &mut Outcome, name: &str, us: Vec<f64>) {
    let v = sorted(us);
    metric(out, format!("{name}.p50"), percentile(&v, 50.0), "us");
    metric(
        out,
        format!("{name}.tail"),
        percentile(&v, tail_percentile(v.len())),
        "us",
    );
}

fn obs_sum(segs: &[Segment], name: &str, label: Option<&str>) -> f64 {
    segs.iter()
        .flat_map(|s| &s.obs)
        .filter(|(k, _)| k.split('{').next() == Some(name) && label.is_none_or(|l| k.contains(l)))
        .map(|(_, v)| v)
        .sum()
}

fn layers(segs: &[Segment], out: &mut Outcome) {
    let traces: Vec<&QueryTrace> = segs.iter().flat_map(|s| &s.traces).collect();
    let queries = traces.len() as f64;
    let spans =
        |name: &str| -> Vec<f64> { traces.iter().flat_map(|t| t.durations_us(name)).collect() };
    let plan_spans = |keep: fn(Option<PlanSource>) -> bool| -> Vec<f64> {
        traces
            .iter()
            .filter(|t| keep(t.facts.plan_source))
            .flat_map(|t| t.durations_us("plan"))
            .collect()
    };
    us_metric(out, "sql.parse_us", spans("parse"));
    us_metric(out, "analyze.us", spans("analyze"));

    // Serving layer: only queries that went through the plan cache.
    us_metric(out, "serving.plan_us", plan_spans(|s| s.is_some()));
    us_metric(
        out,
        "serving.plan_hit_us",
        plan_spans(|s| s == Some(PlanSource::CacheHit)),
    );
    us_metric(
        out,
        "serving.plan_miss_us",
        plan_spans(|s| s == Some(PlanSource::CacheMiss)),
    );
    let cache = |f: fn(&State) -> u64| -> f64 {
        segs.iter()
            .map(|s| (f(&s.after) - f(&s.before)) as f64)
            .sum()
    };
    let hits = cache(|s| s.plan_cache.hits);
    let misses = cache(|s| s.plan_cache.misses);
    metric(
        out,
        "serving.plan_cache_hit_rate",
        ratio(hits, hits + misses),
        "share",
    );
    metric(
        out,
        "serving.invalidations_per_query",
        ratio(cache(|s| s.plan_cache.invalidations), queries),
        "count",
    );
    us_metric(
        out,
        "serving.admission_wait_us",
        traces
            .iter()
            .filter_map(|t| t.facts.admission_wait_ms)
            .map(|ms| ms * 1e3)
            .collect(),
    );
    us_metric(
        out,
        "serving.execute_us",
        traces
            .iter()
            .filter(|t| t.facts.plan_source.is_some())
            .flat_map(|t| t.durations_us("execute"))
            .collect(),
    );

    // Optimizer: plan calls that ran it (every plain-mediator plan,
    // serving misses and uncacheable statements).
    us_metric(
        out,
        "optimizer.optimize_us",
        plan_spans(|s| s != Some(PlanSource::CacheHit)),
    );
    let per_query = |f: fn(&(usize, usize, usize)) -> usize| -> f64 {
        let total: usize = traces
            .iter()
            .filter_map(|t| t.facts.optimizer.as_ref())
            .map(f)
            .sum();
        ratio(total as f64, queries)
    };
    metric(
        out,
        "optimizer.plans_considered",
        per_query(|o| o.0),
        "count",
    );
    metric(
        out,
        "optimizer.estimator_nodes",
        per_query(|o| o.1),
        "count",
    );
    metric(
        out,
        "optimizer.estimator_rules",
        per_query(|o| o.2),
        "count",
    );
    for kind in ["cost", "rules"] {
        let label = format!("cache={kind}");
        let hit_rate = ratio(
            obs_sum(segs, "cache_hits_total", Some(&label)),
            obs_sum(segs, "cache_lookups_total", Some(&label)),
        );
        let name = if kind == "cost" {
            "core.cost_cache_hit_rate"
        } else {
            "core.rule_cache_hit_rate"
        };
        metric(out, name, hit_rate, "share");
    }

    // §4.3.1 history.
    metric(
        out,
        "history.recorded_per_query",
        ratio(
            segs.iter()
                .map(|s| (s.after.history - s.before.history) as f64)
                .sum(),
            queries,
        ),
        "count",
    );
    let sizes =
        |f: fn(&Segment) -> usize| mean(&segs.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    metric(
        out,
        "history.size_start",
        sizes(|s| s.before.history),
        "count",
    );
    metric(out, "history.size_end", sizes(|s| s.after.history), "count");

    // Fetch: the executor's measured fetch phase and, over a transport,
    // each submit.
    let engine = |e: Engine| move |t: &&&QueryTrace| t.facts.engine == Some(e);
    us_metric(
        out,
        "executor.fetch_us",
        traces
            .iter()
            .filter(engine(Engine::TwoPhase))
            .filter_map(|t| t.facts.fetch_ms)
            .map(|ms| ms * 1e3)
            .collect(),
    );
    let submits: Vec<&(f64, u32, usize)> = traces.iter().flat_map(|t| &t.facts.submits).collect();
    us_metric(
        out,
        "transport.submit_us",
        submits.iter().map(|s| s.0 * 1e3).collect(),
    );
    metric(
        out,
        "transport.submits_per_query",
        ratio(submits.len() as f64, queries),
        "count",
    );
    metric(
        out,
        "transport.attempts_per_submit",
        ratio(
            submits.iter().map(|s| f64::from(s.1)).sum(),
            submits.len() as f64,
        ),
        "count",
    );
    metric(
        out,
        "transport.tuples_per_query",
        ratio(submits.iter().map(|s| s.2 as f64).sum(), queries),
        "count",
    );

    // Combine.
    for (e, name) in [
        (Engine::TwoPhase, "executor.execute_us.two_phase"),
        (Engine::Streaming, "executor.execute_us.streaming"),
    ] {
        us_metric(
            out,
            name,
            traces
                .iter()
                .filter(engine(e))
                .flat_map(|t| t.durations_us("execute"))
                .collect(),
        );
    }
    us_metric(out, "executor.combine_us", spans("combine"));
    metric(
        out,
        "vexec.rows_per_query",
        ratio(obs_sum(segs, "vexec_rows_total", None), queries),
        "count",
    );
    let join_rows = obs_sum(segs, "vexec_rows_total", Some("op=hash_join"))
        + obs_sum(segs, "vexec_rows_total", Some("op=nested_loop_join"));
    metric(
        out,
        "vexec.join_rows_per_query",
        ratio(join_rows, queries),
        "count",
    );

    // Disk store.
    let disk = Some("engine=disk");
    let faults = obs_sum(segs, "store_page_faults_total", disk);
    let buffer_hits = obs_sum(segs, "store_buffer_hits_total", disk);
    metric(
        out,
        "store.faults_per_query",
        ratio(faults, queries),
        "count",
    );
    metric(
        out,
        "store.buffer_hit_rate",
        ratio(buffer_hits, buffer_hits + faults),
        "share",
    );
    metric(
        out,
        "store.evictions_per_query",
        ratio(obs_sum(segs, "store_evictions_total", disk), queries),
        "count",
    );
}

/// How much of the traced query wall time the layer calls cover, and
/// each layer's share of it (by self time).
fn attribution(segs: &[Segment], out: &mut Outcome) {
    let traces: Vec<&QueryTrace> = segs.iter().flat_map(|s| &s.traces).collect();
    let total: u64 = traces
        .iter()
        .filter_map(|t| t.root())
        .map(|r| r.dur_ns())
        .sum();
    let by_name = self_time_by_name(traces.iter().copied());
    let share = |name: &str| ratio(by_name.get(name).copied().unwrap_or(0) as f64, total as f64);
    let unattributed = share("query");
    metric(out, "trace.unattributed_share", unattributed, "share");
    metric(out, "share.plan", share("plan"), "share");
    metric(out, "share.fetch", share("fetch"), "share");
    metric(out, "share.combine", share("combine"), "share");
    metric(out, "share.pipeline", share("pipeline"), "share");
    let mut shares: Vec<String> = by_name
        .keys()
        .map(|name| format!("{name} {:.4}", share(name)))
        .collect();
    shares.sort();
    out.notes.push(format!(
        "self-time shares of {} traced queries ({:.3} s): {}",
        traces.len(),
        total as f64 / 1e9,
        shares.join(", ")
    ));
    if unattributed > ATTRIBUTION_BOUND {
        out.failures.push(format!(
            "layer spans leave {unattributed:.4} of the traced wall time unattributed (bound {ATTRIBUTION_BOUND})"
        ));
    }
}
