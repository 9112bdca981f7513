//! What every workload provides to the runner.

use disco_common::rng::StdRng;
use disco_mediator::PlanCacheStats;
use disco_obs::Json;

use crate::spans::QueryTrace;

/// One answered (or failed) query.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host wall time from the call to the full answer.
    pub wall_ns: u64,
    /// `None` when the answer passed its check; otherwise why it failed
    /// (error, partial answer or wrong answer).
    pub failure: Option<String>,
    /// Per answer: the predicted `TotalTime` and the measured simulated
    /// response time (`QueryResult::measured_ms`), in ms.
    pub answers: Vec<(f64, f64)>,
}

impl Sample {
    /// Fold one answer's outcome into the sample; the first failure
    /// wins.
    pub fn add(&mut self, answer: Result<(f64, f64), String>) {
        match answer {
            Ok(a) => self.answers.push(a),
            Err(why) => {
                self.failure.get_or_insert(why);
            }
        }
    }
}

/// State the program exposes between queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct State {
    pub plan_cache: PlanCacheStats,
    /// Subqueries recorded into the §4.3.1 history so far.
    pub history: usize,
}

/// A set-up workload, ready to answer queries.
pub trait Instance: Sync {
    /// Query number `seq` of client `client`, answered and checked. With
    /// `trace`, each answer is split into spans around the public layer
    /// calls (one `QueryTrace` per answer, pushed onto `trace`).
    fn op(
        &self,
        client: usize,
        seq: u64,
        rng: &mut StdRng,
        trace: Option<&mut Vec<QueryTrace>>,
    ) -> Sample;

    fn state(&self) -> State {
        State::default()
    }
}

/// Wall seconds spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generate the data and build the sources.
    pub build_s: f64,
    /// Register or connect the wrappers: statistics export and
    /// cost-language compilation.
    pub register_s: f64,
    /// Fixed warm-up queries (and plan-cache priming).
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build_s + self.register_s + self.warm_s
    }
}

pub struct Built {
    pub instance: Box<dyn Instance>,
    pub setup: SetupTimes,
}

/// How a measured window is bounded.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Run until the time is up, split evenly over this many freshly
    /// set-up instances (so `setup_s` is their median, and no one
    /// instance's memory layout decides the result), each share cut into
    /// `slices` equal time slices; throughput and latency are medians
    /// over all the slices.
    Timed { instances: usize, slices: usize },
    /// Episodes of a fixed number of queries, each on a freshly set-up
    /// instance and each one slice: for a workload whose per-query work
    /// grows with the queries already answered, so a faster program does
    /// not do more work per query.
    Episodes { queries: u64 },
}

/// A workload: how to set it up and how to drive it.
pub struct Spec {
    pub name: &'static str,
    /// Closed-loop client threads.
    pub clients: usize,
    pub window: Window,
    /// Queries cycle through this many kinds; a timed window runs whole
    /// cycles so every kind weighs the same in every run.
    pub cycle: u64,
    /// Percentile reported as `latency_tail_ms`: the highest with at
    /// least ten samples beyond it at this workload's run length.
    pub tail_pct: f64,
    /// Set up an instance from the seed.
    pub build: fn(u64) -> Result<Built, String>,
    /// Workload parameters, for the record.
    pub params: fn() -> Json,
}

/// `Json` object from `(key, number)` pairs.
pub fn num_obj(pairs: &[(&str, f64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
            .collect(),
    )
}
