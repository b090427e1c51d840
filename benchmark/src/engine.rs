//! The three live-engine workloads: `lobster_runtime::run_with` on a
//! `SyntheticStore`, one whole engine run per round.

use crate::alloc::{HeapUse, Window};
use crate::report::Outcome;
use crate::{stats, Deadline};
use lobster_conformance::check_engine_delivery;
use lobster_data::{Dataset, NodeOracle, SizeDistribution, WorkloadSpec};
use lobster_metrics::{ArgValue, EventKind, Instruments};
use lobster_runtime::engine::engine_schedule;
use lobster_runtime::{run_with, schedule_spec, EngineConfig, EngineReport, SyntheticStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;

/// Every invocation measures at least this many rounds: each figure is
/// a median over rounds.
const MIN_ROUNDS: usize = 3;

/// One engine workload: inputs, store model and engine configuration.
pub struct Shape {
    samples: usize,
    dataset: fn(seed: u64, samples: usize) -> Dataset,
    /// Modelled store cost per fetch: latency + bytes / bandwidth.
    latency: Duration,
    bytes_per_sec: f64,
    /// Cache capacity as a share of the dataset's total bytes.
    cache_share: f64,
    cfg: EngineConfig,
    /// The end-to-end runs carry `Instruments::enabled()` too: there the
    /// observability stack is part of the workload.
    instrumented: bool,
}

fn constant_4k(seed: u64, samples: usize) -> Dataset {
    Dataset::generate(
        "engine-cached",
        samples,
        SizeDistribution::Constant { bytes: 4_096 },
        seed,
    )
}

fn heavy_tail(seed: u64, samples: usize) -> Dataset {
    WorkloadSpec::default_for("heavy-tail", samples)
        .expect("heavy-tail is a workload family")
        .dataset(seed)
}

fn bimodal(seed: u64, samples: usize) -> Dataset {
    WorkloadSpec::default_for("bimodal", samples)
        .expect("bimodal is a workload family")
        .dataset(seed)
}

pub fn shape(name: &str) -> Option<Shape> {
    let base = EngineConfig {
        consumers: 2,
        batch_size: 16,
        loader_threads: 2,
        preproc_threads: 2,
        work_factor: 1,
        train: Duration::ZERO,
        adaptive: true,
        epochs: 4,
        ..EngineConfig::default()
    };
    Some(match name {
        "engine_cached" => Shape {
            samples: 4_096,
            dataset: constant_4k,
            latency: Duration::from_micros(50),
            bytes_per_sec: 0.0,
            cache_share: 1.0,
            cfg: base,
            instrumented: false,
        },
        "engine_pfs" => Shape {
            samples: 4_096,
            dataset: heavy_tail,
            // Modelled time, not the host's sleep wake-up latency, sets
            // the rate, and the size skew sets the tail: the p90 step
            // holds one of the dataset's few largest samples, whose
            // transfer alone takes milliseconds at 16 MB/s, so light
            // host preemption barely moves it (README, "Noise on a
            // shared machine"). Eight loaders keep a step near 9 ms.
            latency: Duration::from_micros(1_800),
            bytes_per_sec: 16e6,
            cache_share: 0.125,
            // One warm-up and one steady epoch: a run then averages its
            // tail over more drawn datasets.
            cfg: EngineConfig {
                loader_threads: 8,
                epochs: 2,
                ..base
            },
            instrumented: false,
        },
        "engine_elastic" => Shape {
            samples: 2_048,
            dataset: bimodal,
            latency: Duration::from_micros(50),
            bytes_per_sec: 0.0,
            cache_share: 1.0,
            cfg: EngineConfig {
                batch_size: 8,
                work_factor: 2,
                train: Duration::from_micros(500),
                elastic: true,
                ..base
            },
            instrumented: true,
        },
        _ => return None,
    })
}

/// What one round measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFigures {
    /// Input build plus the part of the run outside the steady epochs
    /// (spawn, the warm-up epoch, teardown), seconds.
    pub setup_s: f64,
    /// Wall time of `run_with`, seconds.
    pub run_s: f64,
    /// Steady-state step times, seconds.
    pub steady_steps: Vec<f64>,
    /// Samples delivered in the steady epochs.
    pub steady_delivered: u64,
    /// Samples delivered in the whole run.
    pub delivered: u64,
    /// Heap allocations during `run_with`.
    pub allocations: u64,
    /// Peak live heap above the pre-run baseline, MiB.
    pub peak_heap_mib: f64,
}

/// Reduce one engine report and its timings to the round's figures.
pub fn round_figures(
    report: &EngineReport,
    steps_per_epoch: usize,
    build_s: f64,
    run_s: f64,
    heap: HeapUse,
) -> RoundFigures {
    let steady_steps = stats::steady(&report.iteration_secs, steps_per_epoch).to_vec();
    let steady_s: f64 = steady_steps.iter().sum();
    let steady_delivered = report
        .delivered_samples
        .iter()
        .flat_map(|per_step| per_step.iter().skip(steps_per_epoch))
        .map(|batch| batch.len() as u64)
        .sum();
    RoundFigures {
        setup_s: build_s + (run_s - steady_s).max(0.0),
        run_s,
        steady_steps,
        steady_delivered,
        delivered: report.delivered,
        allocations: heap.allocations,
        peak_heap_mib: heap.peak_above_base as f64 / MIB,
    }
}

/// The benchmark's own checks of one run's output.
pub fn check_round(
    dataset: &Dataset,
    cfg: &EngineConfig,
    report: &EngineReport,
    ins: &Instruments,
) -> Result<(), String> {
    if report.aborted {
        return Err("run aborted".into());
    }
    if report.worker_panics != 0 {
        return Err(format!("{} worker panics", report.worker_panics));
    }
    let scheduled = scheduled_samples(dataset, cfg);
    if report.delivered != scheduled {
        return Err(format!(
            "delivered {} of {scheduled} scheduled samples",
            report.delivered
        ));
    }
    // Per-step multisets and the integrity fingerprint, both against the
    // schedule regenerated from the seed.
    check_engine_delivery(dataset, cfg, report, ins).map_err(|d| d.to_string())?;
    if cfg.elastic {
        let pool = (cfg.loader_threads + cfg.preproc_threads) as u32;
        if report.role_flips.len() as u64 != report.iterations {
            return Err(format!(
                "{} elastic decisions for {} steps",
                report.role_flips.len(),
                report.iterations
            ));
        }
        for d in &report.role_flips {
            let loaders: u32 = d.loader_queues.iter().sum();
            if loaders + d.preproc_after != pool {
                return Err(format!(
                    "tick {}: {loaders} loaders + {} preprocessors != pool of {pool}",
                    d.tick, d.preproc_after
                ));
            }
        }
    }
    if ins.trace_dropped() != 0 {
        return Err(format!("{} trace events dropped", ins.trace_dropped()));
    }
    Ok(())
}

fn scheduled_samples(dataset: &Dataset, cfg: &EngineConfig) -> u64 {
    let spec = schedule_spec(dataset, cfg);
    (spec.iterations_per_epoch() * cfg.consumers * cfg.batch_size) as u64 * cfg.epochs
}

/// One round's inputs and run, with everything the checks and the traced
/// breakdown need.
struct Round {
    store: Arc<SyntheticStore>,
    cfg: EngineConfig,
    report: EngineReport,
    ins: Instruments,
    build_s: f64,
    figures: RoundFigures,
}

impl Shape {
    fn round(&self, seed: u64, ins: Instruments) -> Round {
        let t0 = Instant::now();
        let dataset = (self.dataset)(seed, self.samples);
        let cache_bytes = (dataset.total_bytes() as f64 * self.cache_share).ceil() as u64;
        let store = Arc::new(SyntheticStore::new(
            dataset,
            self.latency,
            self.bytes_per_sec,
        ));
        let cfg = EngineConfig {
            cache_bytes,
            seed,
            ..self.cfg.clone()
        };
        let build_s = t0.elapsed().as_secs_f64();
        let steps_per_epoch = schedule_spec(store.dataset(), &cfg).iterations_per_epoch();

        let window = Window::open();
        let t1 = Instant::now();
        let report = run_with(Arc::clone(&store), cfg.clone(), ins.clone());
        let run_s = t1.elapsed().as_secs_f64();
        let heap = window.close();

        let figures = round_figures(&report, steps_per_epoch, build_s, run_s, heap);
        Round {
            store,
            cfg,
            report,
            ins,
            build_s,
            figures,
        }
    }

    fn instruments(&self) -> Instruments {
        if self.instrumented {
            Instruments::enabled()
        } else {
            Instruments::disabled()
        }
    }

    /// Run, check and count one round.
    fn counted_round(&self, seed: u64, ins: Instruments, out: &mut Outcome) -> Round {
        let round = self.round(seed, ins);
        let verdict = check_round(round.store.dataset(), &round.cfg, &round.report, &round.ins);
        out.count(
            scheduled_samples(round.store.dataset(), &round.cfg),
            verdict.err(),
        );
        round
    }
}

fn round_seed(seed: u64, round: usize) -> u64 {
    lobster_sim::derive_seed(seed, round as u64)
}

/// End-to-end figures: whole rounds until `deadline`, each on inputs
/// drawn from `(seed, round)`; the first round's inputs run once
/// beforehand as the discarded warm-up.
pub fn measure(shape: &Shape, seed: u64, mut deadline: Deadline, out: &mut Outcome) {
    shape.round(round_seed(seed, 0), shape.instruments());
    let mut rounds: Vec<RoundFigures> = Vec::new();
    while deadline.another(rounds.len(), MIN_ROUNDS) {
        let round = shape.counted_round(round_seed(seed, rounds.len()), shape.instruments(), out);
        rounds.push(round.figures);
    }

    let delivered: u64 = rounds.iter().map(|r| r.delivered).sum();
    let allocations: u64 = rounds.iter().map(|r| r.allocations).sum();
    let per_round = |f: &dyn Fn(&RoundFigures) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let steady_us = |r: &RoundFigures| r.steady_steps.iter().map(|s| s * 1e6).collect::<Vec<_>>();

    out.set(
        "throughput_sps",
        stats::median(&per_round(&|r| {
            r.steady_delivered as f64 / r.steady_steps.iter().sum::<f64>()
        })),
    );
    let p50 = per_round(&|r| stats::quantile(&steady_us(r), 500).unwrap_or(f64::NAN));
    let p90 = per_round(&|r| stats::quantile(&steady_us(r), 900).unwrap_or(f64::NAN));
    out.set_step_quantiles(&p50, &p90);
    out.set(
        "allocs_per_sample",
        allocations as f64 / delivered.max(1) as f64,
    );
    out.set(
        "peak_heap_mib",
        stats::median(&per_round(&|r| r.peak_heap_mib)),
    );
    out.set("setup_s", stats::median(&per_round(&|r| r.setup_s)));
    println!(
        "{} rounds of {} steady steps",
        rounds.len(),
        rounds[0].steady_steps.len()
    );
}

/// Per-layer figures: untraced rounds on one input set until `deadline`
/// for the tracing baseline, then one traced round on the same inputs
/// (which may end one round past the deadline).
pub fn trace(shape: &Shape, seed: u64, mut deadline: Deadline, out: &mut Outcome) {
    let seed = round_seed(seed, 0);
    shape.round(seed, Instruments::disabled());
    let mut walls = Vec::new();
    let mut builds = Vec::new();
    while deadline.another(walls.len(), MIN_ROUNDS) {
        let round = shape.counted_round(seed, Instruments::disabled(), out);
        walls.push(round.figures.run_s);
        builds.push(round.build_s);
    }
    let round = shape.counted_round(seed, Instruments::enabled(), out);
    builds.push(round.build_s);

    data_layer(&round, shape, out);
    out.set("data.dataset_build_ms", stats::median(&builds) * 1e3);
    runtime_layer(&round, out);
    store_layer(&round, shape, out);
    for name in [
        "core.algorithm1_solves",
        "core.algorithm1_evals",
        "cache.local_hits",
        "cache.remote_hits",
        "cache.misses",
        "cache.prefetched",
        "cache.evictions",
        "pipeline.new_ms",
        "pipeline.run_s_pytorch",
        "pipeline.run_s_dali",
        "pipeline.run_s_nopfs",
        "pipeline.run_s_lobster",
        "pipeline.spread_us",
    ] {
        // The engine calls neither ClusterSim nor Algorithm 1.
        out.set(name, 0.0);
    }
    out.set(
        "metrics.tracing_overhead_ms",
        (round.figures.run_s - stats::median(&walls)) * 1e3,
    );
    out.set("metrics.trace_dropped", round.ins.trace_dropped() as f64);
}

/// Schedule generation and the reuse oracle over this workload's own
/// access stream, per epoch. The engine itself consumes the schedule but
/// never builds an oracle; the figure is the data layer's cost on these
/// inputs.
fn data_layer(round: &Round, shape: &Shape, out: &mut Outcome) {
    let spec = schedule_spec(round.store.dataset(), &round.cfg);
    let epochs = shape.cfg.epochs;
    let t = Instant::now();
    let schedules: Vec<_> = (0..=epochs)
        .map(|e| engine_schedule(spec, e, &round.cfg))
        .collect();
    out.set(
        "data.schedule_ms",
        t.elapsed().as_secs_f64() * 1e3 / (epochs + 1) as f64,
    );
    let t = Instant::now();
    for e in 0..epochs as usize {
        let base = (e * spec.iterations_per_epoch()) as u64;
        std::hint::black_box(NodeOracle::build(
            0,
            &[&schedules[e], &schedules[e + 1]],
            base,
        ));
    }
    out.set(
        "data.oracle_ms",
        t.elapsed().as_secs_f64() * 1e3 / epochs as f64,
    );
}

fn arg_str(ev: &lobster_metrics::TraceEvent, key: &str) -> Option<&'static str> {
    ev.args.iter().find_map(|(k, v)| match v {
        ArgValue::S(s) if *k == key => Some(*s),
        _ => None,
    })
}

fn arg_u(ev: &lobster_metrics::TraceEvent, key: &str) -> Option<u64> {
    ev.args.iter().find_map(|(k, v)| match v {
        ArgValue::U(u) if *k == key => Some(*u),
        _ => None,
    })
}

/// Mean of `(count, sum)`; 0 with no samples.
fn mean_of((n, sum): (u64, f64)) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The per-step breakdown of consumer 0's steady steps, µs:
/// `step = data stall + modelled train + barrier wait + residual`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StepBreakdown {
    pub step_us: f64,
    pub data_stall_us: f64,
    pub train_us: f64,
    pub barrier_wait_us: f64,
    pub residual_us: f64,
    pub steps: usize,
}

/// Break each steady step down from consumer 0's barrier spans, given as
/// `(start_us, dur_us)` per step. The data stall is the time from the
/// previous barrier's release to this barrier's arrival, less the
/// modelled training; the residual is what the measured step time holds
/// beyond the three parts.
pub fn step_breakdown(
    step_secs: &[f64],
    barriers: &[Option<(u64, u64)>],
    steps_per_epoch: usize,
    train_us: f64,
) -> StepBreakdown {
    let mut sum = StepBreakdown::default();
    for i in steps_per_epoch.max(1)..step_secs.len() {
        let (Some((prev_ts, prev_dur)), Some((ts, dur))) = (barriers[i - 1], barriers[i]) else {
            continue;
        };
        let step_us = step_secs[i] * 1e6;
        let stall = ts as f64 - (prev_ts + prev_dur) as f64 - train_us;
        sum.step_us += step_us;
        sum.data_stall_us += stall;
        sum.train_us += train_us;
        sum.barrier_wait_us += dur as f64;
        sum.residual_us += step_us - stall - train_us - dur as f64;
        sum.steps += 1;
    }
    let n = sum.steps.max(1) as f64;
    StepBreakdown {
        step_us: sum.step_us / n,
        data_stall_us: sum.data_stall_us / n,
        train_us: sum.train_us / n,
        barrier_wait_us: sum.barrier_wait_us / n,
        residual_us: sum.residual_us / n,
        steps: sum.steps,
    }
}

fn runtime_layer(round: &Round, out: &mut Outcome) {
    let events = round
        .ins
        .tracer()
        .buffer()
        .map(|b| b.snapshot())
        .unwrap_or_default();
    let steps = round.report.iteration_secs.len();
    let mut barriers: Vec<Option<(u64, u64)>> = vec![None; steps];
    let (mut cache, mut store, mut preprocess) = ((0u64, 0.0), (0u64, 0.0), (0u64, 0.0));
    for ev in &events {
        let EventKind::Span { dur_us } = ev.kind else {
            continue;
        };
        let acc = match ev.name {
            "fetch" if arg_str(ev, "tier") == Some("cache") => &mut cache,
            "fetch" => &mut store,
            "preprocess" => &mut preprocess,
            "barrier_wait" if ev.tid == 0 => {
                if let Some(slot) = arg_u(ev, "iter").and_then(|i| barriers.get_mut(i as usize)) {
                    *slot = Some((ev.ts_us, dur_us));
                }
                continue;
            }
            _ => continue,
        };
        acc.0 += 1;
        acc.1 += dur_us as f64;
    }
    let steps_per_epoch = schedule_spec(round.store.dataset(), &round.cfg).iterations_per_epoch();
    let b = step_breakdown(
        &round.report.iteration_secs,
        &barriers,
        steps_per_epoch,
        round.cfg.train.as_secs_f64() * 1e6,
    );
    println!(
        "step breakdown over {} steady steps of consumer 0 (mean, us):\n  \
         step {:.1} = data stall {:.1} + modelled train {:.1} + barrier wait {:.1} + residual {:.1}",
        b.steps, b.step_us, b.data_stall_us, b.train_us, b.barrier_wait_us, b.residual_us
    );
    out.set("runtime.step_us", b.step_us);
    out.set("runtime.data_stall_us", b.data_stall_us);
    out.set("runtime.barrier_wait_us", b.barrier_wait_us);
    out.set("runtime.step_residual_us", b.residual_us);

    let analysis = round.ins.analysis_report();
    let queue_wait_s = analysis.as_ref().map_or(0.0, |a| a.cluster.queue_wait_s);
    out.set(
        "runtime.queue_wait_us",
        queue_wait_s * 1e6 / (cache.0 + store.0).max(1) as f64,
    );
    out.set("runtime.fetch_cache_us", mean_of(cache));
    out.set("runtime.fetches_cache", cache.0 as f64);
    out.set("runtime.fetch_store_us", mean_of(store));
    out.set("runtime.fetches_store", store.0 as f64);
    let snapshot = round.ins.metrics_snapshot();
    let counter = |name: &str| snapshot.get(name).unwrap_or(0) as f64;
    out.set("runtime.cache_hits", counter("engine.cache_hits"));
    out.set("runtime.cache_misses", counter("engine.cache_misses"));
    let gap_us = |g: Option<f64>| g.unwrap_or(0.0) * 1e6;
    out.set(
        "runtime.gap_p50_us",
        gap_us(analysis.as_ref().and_then(|a| a.p50_gap_s)),
    );
    out.set(
        "runtime.gap_p99_us",
        gap_us(analysis.as_ref().and_then(|a| a.p99_gap_s)),
    );
    out.set("runtime.preprocess_us", mean_of(preprocess));
    let flips = round
        .report
        .role_flips
        .iter()
        .filter(|d| !d.flipped.is_empty())
        .count();
    out.set("runtime.role_flips", flips as f64);
    out.set("metrics.trace_events", events.len() as f64);
}

/// Store work, and its modelled time computed from the workload's own
/// parameters (Σ latency + bytes / bandwidth), apart from overhead.
fn store_layer(round: &Round, shape: &Shape, out: &mut Outcome) {
    let fetches = round.store.fetch_count();
    let bytes = round.store.bytes_served();
    let transfer_s = if shape.bytes_per_sec > 0.0 {
        bytes as f64 / shape.bytes_per_sec
    } else {
        0.0
    };
    out.set("store.fetches", fetches as f64);
    out.set("store.bytes_mib", bytes as f64 / MIB);
    out.set(
        "store.modelled_ms",
        (fetches as f64 * shape.latency.as_secs_f64() + transfer_s) * 1e3,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_report(step_secs: Vec<f64>, batch: usize, consumers: usize) -> EngineReport {
        let steps = step_secs.len();
        let batches = vec![vec![0u64; batch]; steps];
        EngineReport {
            iterations: steps as u64,
            iteration_secs: step_secs,
            hit_ratio: 1.0,
            store_fetches: 0,
            delivered: (steps * batch * consumers) as u64,
            integrity: 0,
            retries: 0,
            corruptions_detected: 0,
            deadline_exceeded: 0,
            worker_panics: 0,
            aborted: false,
            delivered_samples: vec![batches; consumers],
            role_flips: Vec::new(),
            membership: Vec::new(),
            anomalies: Vec::new(),
            slo_verdicts: Vec::new(),
        }
    }

    #[test]
    fn setup_is_build_plus_everything_outside_the_steady_steps() {
        // Two epochs of 4 steps: the first epoch is warm-up.
        let steps = vec![0.5, 0.1, 0.1, 0.1, 0.01, 0.01, 0.01, 0.01];
        let report = synthetic_report(steps, 8, 2);
        let heap = HeapUse {
            allocations: 640,
            peak_above_base: 3 << 20,
        };
        let f = round_figures(&report, 4, 0.2, 1.0, heap);
        assert_eq!(f.steady_steps, vec![0.01; 4]);
        assert_eq!(f.steady_delivered, 4 * 8 * 2);
        assert_eq!(f.delivered, 8 * 8 * 2);
        // 0.2 s build + (1.0 s run − 0.04 s steady).
        assert!((f.setup_s - 1.16).abs() < 1e-12, "{}", f.setup_s);
        assert_eq!(f.peak_heap_mib, 3.0);
        assert_eq!(f.allocations, 640);
    }

    #[test]
    fn breakdown_shows_the_residual() {
        // Steps of 1000 us; barrier arrivals 700 us after the previous
        // release with 200 us modelled train, and 250 us waits: the
        // remaining 50 us per step is residual.
        let steps = vec![0.001; 4];
        let mut barriers = Vec::new();
        let mut release = 0u64;
        for _ in 0..4 {
            barriers.push(Some((release + 700, 250)));
            release += 950;
        }
        let b = step_breakdown(&steps, &barriers, 2, 200.0);
        assert_eq!(b.steps, 2);
        assert!((b.data_stall_us - 500.0).abs() < 1e-9);
        assert!((b.barrier_wait_us - 250.0).abs() < 1e-9);
        assert!((b.residual_us - 50.0).abs() < 1e-9);
        assert!((b.step_us - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn corrupted_integrity_is_counted_as_failed() {
        let shape = Shape {
            samples: 64,
            dataset: constant_4k,
            latency: Duration::ZERO,
            bytes_per_sec: 0.0,
            cache_share: 1.0,
            cfg: EngineConfig {
                batch_size: 4,
                epochs: 2,
                ..shape("engine_cached").unwrap().cfg
            },
            instrumented: false,
        };
        let mut round = shape.round(11, Instruments::disabled());
        let ins = Instruments::disabled();
        assert_eq!(
            check_round(round.store.dataset(), &round.cfg, &round.report, &ins),
            Ok(())
        );
        round.report.integrity ^= 1;
        let verdict = check_round(round.store.dataset(), &round.cfg, &round.report, &ins);
        assert!(
            verdict.as_ref().is_err_and(|e| e.contains("integrity")),
            "{verdict:?}"
        );
        let mut out = Outcome::default();
        out.count(round.report.delivered, verdict.err());
        assert_eq!(out.failed, out.attempted);
        assert_eq!(out.attempted, 64 * 2);
    }

    #[test]
    fn every_engine_workload_has_a_shape() {
        for w in &crate::report::WORKLOADS {
            assert_eq!(shape(w.name).is_some(), w.name.starts_with("engine_"));
        }
    }
}
