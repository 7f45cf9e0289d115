//! The closed-loop driver: one pass of a workload through the real
//! serving path (`serve_with` → `try_open_flow` / `push_checked` /
//! `barrier` / `poll_checked` / `close` / `finishing`).
//!
//! One driver thread feeds the service; it blocks in `barrier()` while
//! the service's workers scan. Every pass of a workload pushes the same
//! bytes to the same flows, so a flow's report digest must be the same
//! in every pass, whatever the worker count, prefilter mode or timing.

use crate::spec::{Inputs, Spec};
use crate::trace::Tracer;
use recama::hw::ShardPolicy;
use recama::{
    Engine, FlowId, PrefilterMode, RuleMatch, ScanMode, ServeConfig, ServeError, ServiceHandle,
    ServiceMetrics, DEFAULT_STATE_BUDGET,
};
use std::time::Instant;

/// Shards every workload compiles its ruleset into.
pub const SHARDS: usize = 4;

/// What distinguishes one pass from another.
#[derive(Debug, Clone, Copy)]
pub struct Pass<'a> {
    /// Service worker threads.
    pub workers: usize,
    /// The latency pass: one chunk in flight (`push` → `barrier` →
    /// `poll` per chunk), over the workload's latency prefix only.
    pub latency: bool,
    /// Hot-reload this engine halfway through the pass.
    pub reload: Option<&'a Engine>,
    /// Keep the reports of the first `oracle_flows` flows.
    pub capture: bool,
}

impl Pass<'_> {
    /// A throughput pass on one worker.
    pub const THROUGHPUT: Pass<'static> = Pass {
        workers: 1,
        latency: false,
        reload: None,
        capture: false,
    };
}

/// The reports of one captured flow.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Captured {
    /// Everything `poll_checked` returned, in order.
    pub polled: Vec<RuleMatch>,
    /// What `finishing` returned after the close.
    pub finishing: Vec<RuleMatch>,
}

/// Operations tried and operations that went wrong.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Flows opened + chunks pushed + flows checked against a reference.
    pub attempted: u64,
    /// Errors, refusals, digest differences and oracle mismatches.
    pub failed: u64,
}

impl Tally {
    /// Adds another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// `push`→`barrier`→`poll` time of every timed chunk, µs (latency
    /// pass only).
    pub chunk_us: Vec<f64>,
    /// The timed window cut into consecutive steps, in seconds: every
    /// round (a churn wave's opens belong to its first round) and, in a
    /// churn workload, every wave's close. Every throughput pass of a
    /// workload has the same steps, doing the same work.
    pub steps_s: Vec<f64>,
    /// Per flow of the latency prefix: the digest of its reports after
    /// `latency_rounds` rounds.
    pub prefix_digests: Vec<u64>,
    /// Per flow: the digest of all its reports, finishing set included
    /// (empty for a latency pass, which stops early).
    pub full_digests: Vec<u64>,
    /// Reports polled.
    pub reports: u64,
    /// Reports of the first `oracle_flows` flows, when asked for.
    pub captured: Vec<Captured>,
    /// Opens and pushes tried; errors and refusals met.
    pub tally: Tally,
    /// The service's own counters just before shutdown.
    pub metrics: ServiceMetrics,
    /// Wall time of the `reload` call, when the pass reloaded.
    pub reload_ms: Option<f64>,
}

impl PassResult {
    /// Wall time of the timed window: first timed push (first open, in a
    /// churn workload) to last report polled.
    pub fn wall_s(&self) -> f64 {
        self.steps_s.iter().sum()
    }

    /// Throughput of a whole (not a latency) pass of `spec`, in MiB/s.
    pub fn mib_s(&self, spec: &Spec) -> f64 {
        mib_s(spec.timed_bytes(), self.wall_s())
    }
}

/// `bytes` in `seconds`, as MiB/s.
pub fn mib_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / seconds
}

/// Cuts the timed window of a pass into consecutive steps.
#[derive(Default)]
struct Clock {
    step_started: Option<Instant>,
}

impl Clock {
    fn start(&mut self) {
        self.step_started.get_or_insert_with(Instant::now);
    }

    fn running(&self) -> bool {
        self.step_started.is_some()
    }

    /// Ends the current step and starts the next.
    fn lap(&mut self, steps_s: &mut Vec<f64>) {
        if let Some(started) = self.step_started {
            let now = Instant::now();
            steps_s.push(now.duration_since(started).as_secs_f64());
            self.step_started = Some(now);
        }
    }

    fn stop(&mut self) {
        self.step_started = None;
    }
}

pub(crate) const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// Folded in before a flow's finishing set, so a report that moves
/// between the polled list and the finishing set changes the digest.
pub(crate) const FINISHING_MARK: RuleMatch = RuleMatch {
    rule: u64::MAX,
    end: u64::MAX,
};

pub(crate) fn fold(digest: u64, m: &RuleMatch) -> u64 {
    let mut h = digest;
    for word in [m.rule, m.end] {
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Flows whose digest differs between two passes (a length difference
/// counts once per missing flow).
pub fn digest_mismatches(reference: &[u64], other: &[u64]) -> u64 {
    let differing = reference.iter().zip(other).filter(|(a, b)| a != b).count();
    (differing + reference.len().abs_diff(other.len())) as u64
}

/// One flow of the wave in progress.
struct Live {
    /// Index among all flows of the pass.
    flow: usize,
    /// `None` when the open was refused.
    id: Option<FlowId>,
    digest: u64,
}

/// Mutable state of a pass, shared by its steps.
struct Driver<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    tracer: &'a mut Tracer,
    capture_flows: usize,
    out: PassResult,
}

impl Driver<'_> {
    fn error(&mut self, what: &str, flow: usize, error: &ServeError) {
        self.out.tally.failed += 1;
        if self.out.tally.failed <= 5 {
            eprintln!("harness: {what} on flow {flow} failed: {error}");
        }
    }

    fn push(&mut self, svc: &ServiceHandle, live: &Live, round: usize) {
        let Some(id) = live.id else { return };
        let chunk = self.inputs.chunk(live.flow, round, self.spec.chunk);
        let request = Some((live.flow as u32, round as u32));
        self.out.tally.attempted += 1;
        let pushed = self
            .tracer
            .leaf("service.push", request, || svc.push_checked(id, chunk));
        if let Err(e) = pushed {
            self.error("push", live.flow, &e);
        }
    }

    fn poll(&mut self, svc: &ServiceHandle, live: &mut Live, round: usize) {
        let Some(id) = live.id else { return };
        let request = Some((live.flow as u32, round as u32));
        let polled = self
            .tracer
            .leaf("service.poll", request, || svc.poll_checked(id));
        match polled {
            Ok(reports) => self.absorb(live, &reports, false),
            Err(e) => self.error("poll", live.flow, &e),
        }
    }

    fn absorb(&mut self, live: &mut Live, reports: &[RuleMatch], finishing: bool) {
        if finishing {
            live.digest = fold(live.digest, &FINISHING_MARK);
        }
        live.digest = reports.iter().fold(live.digest, fold);
        self.out.reports += reports.len() as u64;
        if live.flow < self.capture_flows {
            let captured = &mut self.out.captured[live.flow];
            if finishing {
                captured.finishing.extend_from_slice(reports);
            } else {
                captured.polled.extend_from_slice(reports);
            }
        }
    }
}

/// Runs one pass of `spec` over `engine` and returns what it measured.
pub fn run_pass(
    engine: &Engine,
    spec: &Spec,
    inputs: &Inputs,
    pass: Pass<'_>,
    tracer: &mut Tracer,
) -> PassResult {
    let (waves, rounds) = if pass.latency {
        (spec.latency_waves, spec.latency_rounds)
    } else {
        (spec.waves, spec.rounds)
    };
    let reload_at = (waves / 2, if waves > 1 { 0 } else { rounds / 2 });
    let capture_flows = if pass.capture { spec.oracle_flows } else { 0 };

    let svc = tracer.leaf("service.spawn", None, || {
        engine.serve_with(pass.workers, ServeConfig::default())
    });
    let whole = tracer.enter("bench.pass", None);
    let mut d = Driver {
        spec,
        inputs,
        tracer,
        capture_flows,
        out: PassResult {
            chunk_us: Vec::new(),
            steps_s: Vec::new(),
            prefix_digests: Vec::new(),
            full_digests: Vec::new(),
            reports: 0,
            captured: vec![Captured::default(); capture_flows],
            tally: Tally::default(),
            metrics: ServiceMetrics::default(),
            reload_ms: None,
        },
    };
    let mut clock = Clock::default();

    for wave in 0..waves {
        if spec.churn {
            clock.start();
        }
        let mut live: Vec<Live> = (0..spec.flows_per_wave)
            .map(|i| {
                let flow = wave * spec.flows_per_wave + i;
                d.out.tally.attempted += 1;
                let opened = d.tracer.leaf("service.open", Some((flow as u32, 0)), || {
                    svc.try_open_flow()
                });
                if let Err(e) = &opened {
                    d.error("open", flow, e);
                }
                Live {
                    flow,
                    id: opened.ok(),
                    digest: DIGEST_SEED,
                }
            })
            .collect();

        for round in 0..rounds {
            if round == spec.warm_rounds {
                clock.start();
            }
            if let (Some(next), true) = (pass.reload, (wave, round) == reload_at) {
                svc.barrier();
                let t = Instant::now();
                svc.reload(next);
                d.out.reload_ms = Some(t.elapsed().as_secs_f64() * 1e3);
            }
            let timed = clock.running();
            if pass.latency {
                for flow in &mut live {
                    let request = Some((flow.flow as u32, round as u32));
                    let t = Instant::now();
                    let chunk = d.tracer.enter("bench.chunk", request);
                    d.push(&svc, flow, round);
                    d.tracer.leaf("service.barrier", request, || svc.barrier());
                    d.poll(&svc, flow, round);
                    d.tracer.exit(chunk);
                    if timed {
                        d.out.chunk_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                }
            } else {
                for flow in &live {
                    d.push(&svc, flow, round);
                }
                d.tracer.leaf("service.barrier", None, || svc.barrier());
                for flow in &mut live {
                    d.poll(&svc, flow, round);
                }
            }
            // The global sink holds a copy of every report until it is
            // drained; a client that polls per flow must still empty it.
            d.tracer
                .leaf("service.drain_global", None, || svc.drain_global());
            clock.lap(&mut d.out.steps_s);
            if wave < spec.latency_waves && round + 1 == spec.latency_rounds {
                d.out.prefix_digests.extend(live.iter().map(|f| f.digest));
            }
        }
        if !spec.churn {
            clock.stop();
        }

        for flow in &live {
            if let Some(id) = flow.id {
                d.tracer.leaf(
                    "service.close",
                    Some((flow.flow as u32, rounds as u32)),
                    || svc.close(id),
                );
            }
        }
        d.tracer.leaf("service.barrier", None, || svc.barrier());
        for flow in &mut live {
            let Some(id) = flow.id else { continue };
            // poll before finishing: a drained flow's slot is recycled
            // by whichever call empties it, and only poll_checked tells
            // a recycled slot from an empty one.
            d.poll(&svc, flow, rounds);
            let finishing = d.tracer.leaf(
                "service.finishing",
                Some((flow.flow as u32, rounds as u32)),
                || svc.finishing(id),
            );
            d.absorb(flow, &finishing, true);
        }
        d.tracer
            .leaf("service.drain_global", None, || svc.drain_global());
        clock.lap(&mut d.out.steps_s);
        if !pass.latency {
            d.out.full_digests.extend(live.iter().map(|f| f.digest));
        }
    }

    d.out.metrics = svc.metrics();
    let m = &d.out.metrics;
    d.out.tally.failed += m.backpressure
        + m.total_evictions()
        + m.faults.quarantined_flows
        + m.faults.worker_restarts
        + m.faults.shed_opens
        + m.faults.fail_stops;
    let Driver { tracer, out, .. } = d;
    tracer.exit(whole);
    tracer.leaf("service.shutdown", None, || svc.shutdown());
    out
}

/// Set-up as a client sees it: compile the rules, start the service,
/// open the first wave's flows, and get one push accepted. Returns the
/// engine and the seconds it took.
pub fn timed_setup(spec: &Spec, inputs: &Inputs) -> (Engine, f64) {
    let t = Instant::now();
    let engine = build_engine(&inputs.rules, PrefilterMode::On);
    let svc = engine.serve_with(1, ServeConfig::default());
    let flows: Vec<_> = (0..spec.flows_per_wave)
        .map(|_| svc.try_open_flow())
        .collect();
    let first = flows[0]
        .clone()
        .and_then(|id| svc.push_checked(id, inputs.chunk(0, 0, spec.chunk)));
    let seconds = t.elapsed().as_secs_f64();
    first.expect("a fresh service accepts the first push");
    svc.shutdown();
    (engine, seconds)
}

/// Compiles `rules` with the settings every workload fixes on the
/// builder — never taken from the environment.
pub fn build_engine(rules: &[String], prefilter: PrefilterMode) -> Engine {
    Engine::builder()
        .patterns(rules)
        .shard_policy(ShardPolicy::Fixed(SHARDS))
        .scan_mode(ScanMode::Hybrid {
            state_budget: DEFAULT_STATE_BUDGET,
        })
        .prefilter(prefilter)
        .lossy(true)
        .build()
        .expect("a lossy build skips the rules it cannot compile")
}
