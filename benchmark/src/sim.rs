//! The `sim_fig07` workload: the Fig. 7(c) panel — ImageNet-22K on
//! 8 nodes × 8 GPUs — for the four systems, through
//! `lobster_bench::paper_config` and `ClusterSim::new` / `run`.

use crate::alloc::Window;
use crate::report::Outcome;
use crate::{stats, Deadline};
use lobster_bench::{paper_config, BenchParams, DatasetKind, BASELINE_NAMES};
use lobster_core::models::resnet50;
use lobster_core::policy_by_name;
use lobster_data::{generate_access, NodeOracle};
use lobster_metrics::{DecisionSource, Instruments};
use lobster_pipeline::{ClusterSim, ExperimentConfig, RunReport};
use std::time::Instant;

/// Dataset and cache are both divided by this (the paper's ratios hold).
/// At 1/64 the host time moved with host load by up to ±30 % between
/// runs; at 1/128 a run fits twice the rounds and moved less.
pub const SCALE: u32 = 128;
pub const NODES: usize = 8;
/// One warm-up epoch and three steady ones: 3 × 54 steps per round, so
/// each round clears the p90 rule.
pub const EPOCHS: u64 = 4;
/// Set-up is timed this many extra times per invocation, so `setup_s`
/// is a median even when only one round fits.
const SETUP_REPS: usize = 15;
const LOBSTER: usize = 3;

fn config(seed: u64) -> ExperimentConfig {
    let params = BenchParams {
        scale: SCALE,
        epochs: EPOCHS,
        seed,
    };
    paper_config(DatasetKind::ImageNet22k, NODES, resnet50(), params)
}

fn policy(name: &str) -> Box<dyn lobster_core::LoaderPolicy> {
    policy_by_name(name).expect("a system of Fig. 7")
}

/// Build the four simulators; returns them with the seconds spent in
/// `paper_config` + `ClusterSim::new` and in `ClusterSim::new` alone.
fn build(seed: u64, ins: &[Instruments; 4]) -> (Vec<ClusterSim>, f64, f64) {
    let t = Instant::now();
    let mut new_s = 0.0;
    let sims = BASELINE_NAMES
        .iter()
        .zip(ins)
        .map(|(name, ins)| {
            let cfg = config(seed);
            let t_new = Instant::now();
            let sim = ClusterSim::new(cfg, policy(name)).with_instruments(ins.clone());
            new_s += t_new.elapsed().as_secs_f64();
            sim
        })
        .collect();
    (sims, t.elapsed().as_secs_f64(), new_s)
}

struct Round {
    setup_s: f64,
    new_s: f64,
    run_s: [f64; 4],
    reports: Vec<RunReport>,
    allocations: u64,
    peak_heap_mib: f64,
}

impl Round {
    fn accesses(&self) -> u64 {
        self.reports
            .iter()
            .flat_map(|r| &r.epochs)
            .map(|e| e.local_hits + e.remote_hits + e.misses)
            .sum()
    }
}

fn round(seed: u64, ins: &[Instruments; 4]) -> Round {
    let (sims, setup_s, new_s) = build(seed, ins);
    let window = Window::open();
    let mut run_s = [0.0; 4];
    let reports = sims
        .into_iter()
        .enumerate()
        .map(|(i, sim)| {
            let t = Instant::now();
            let report = sim.run().0;
            run_s[i] = t.elapsed().as_secs_f64();
            report
        })
        .collect();
    let heap = window.close();
    Round {
        setup_s,
        new_s,
        run_s,
        reports,
        allocations: heap.allocations,
        peak_heap_mib: heap.peak_above_base as f64 / (1u64 << 20) as f64,
    }
}

/// Accesses each simulated epoch must serve: every scheduled sample of
/// every GPU's batch.
fn scheduled_per_epoch(cfg: &ExperimentConfig) -> u64 {
    (cfg.iterations_per_epoch() * cfg.cluster.world_size() * cfg.cluster.batch_size) as u64
}

/// The benchmark's checks of one round: access conservation per system,
/// Lobster's shortest steady epoch (the Fig. 7(c) claim), and
/// bit-identical simulated output for a repeated seed.
fn check_round(seed: u64, round: &Round, reference: &RunReport) -> Result<(), String> {
    let want = scheduled_per_epoch(&config(seed));
    for (name, report) in BASELINE_NAMES.iter().zip(&round.reports) {
        for e in &report.epochs {
            let got = e.local_hits + e.remote_hits + e.misses;
            if got != want {
                return Err(format!(
                    "{name} epoch {}: {got} hits + misses for {want} scheduled accesses",
                    e.epoch
                ));
            }
        }
        if report.epochs.len() as u64 != EPOCHS {
            return Err(format!("{name}: {} epochs reported", report.epochs.len()));
        }
    }
    let lobster = round.reports[LOBSTER].mean_epoch_s();
    for (name, report) in BASELINE_NAMES.iter().zip(&round.reports).take(LOBSTER) {
        if report.mean_epoch_s() <= lobster {
            return Err(format!(
                "{name} steady epoch {:.6} s is not slower than lobster's {lobster:.6} s",
                report.mean_epoch_s()
            ));
        }
    }
    if format!("{:?}", round.reports[LOBSTER]) != format!("{reference:?}") {
        return Err("lobster's simulated report differs between two runs of one seed".into());
    }
    Ok(())
}

fn disabled() -> [Instruments; 4] {
    std::array::from_fn(|_| Instruments::disabled())
}

/// Lobster alone on the first round's inputs: the discarded warm-up, and
/// the reference its measured twin must match bit for bit.
fn warm_up(seed: u64) -> RunReport {
    ClusterSim::new(config(seed), policy("lobster")).run().0
}

fn counted_round(
    seed: u64,
    ins: &[Instruments; 4],
    reference: &RunReport,
    out: &mut Outcome,
) -> Round {
    let round = round(seed, ins);
    let verdict = check_round(seed, &round, reference);
    out.count(round.accesses(), verdict.err());
    round
}

fn lobster_steps_us(report: &RunReport) -> impl Iterator<Item = f64> + '_ {
    report
        .steady_epochs()
        .iter()
        .flat_map(|e| e.batch_times.values().iter().map(|s| s * 1e6))
}

/// End-to-end figures: whole rounds of the four systems until
/// `deadline`, all on the inputs of `seed`.
pub fn measure(seed: u64, mut deadline: Deadline, out: &mut Outcome) {
    let reference = warm_up(seed);
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| build(seed, &disabled()).1)
        .collect();
    let mut rounds = Vec::new();
    while deadline.another(rounds.len(), 1) {
        let round = counted_round(seed, &disabled(), &reference, out);
        setups.push(round.setup_s);
        rounds.push(round);
    }
    let accesses: u64 = rounds.iter().map(Round::accesses).sum();
    let allocations: u64 = rounds.iter().map(|r| r.allocations).sum();
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let quantile = |r: &Round, permille| {
        let steps: Vec<f64> = lobster_steps_us(&r.reports[LOBSTER]).collect();
        stats::quantile(&steps, permille).unwrap_or(f64::NAN)
    };

    out.set(
        "throughput_sps",
        stats::median(&per_round(&|r| {
            r.accesses() as f64 / r.run_s.iter().sum::<f64>()
        })),
    );
    out.set_step_quantiles(
        &per_round(&|r| quantile(r, 500)),
        &per_round(&|r| quantile(r, 900)),
    );
    out.set(
        "allocs_per_sample",
        allocations as f64 / accesses.max(1) as f64,
    );
    out.set(
        "peak_heap_mib",
        stats::median(&per_round(&|r| r.peak_heap_mib)),
    );
    out.set("setup_s", stats::median(&setups));
    println!("{} rounds, {accesses} simulated accesses", rounds.len());
    for (name, report) in BASELINE_NAMES.iter().zip(&rounds[0].reports) {
        println!(
            "  {name:<8} steady epoch {:.4} s (simulated)",
            report.mean_epoch_s()
        );
    }
}

/// Per-layer figures: one untraced round for the tracing baseline, one
/// traced round, and the benchmark's own timers around the data-layer
/// calls ClusterSim makes.
pub fn trace(seed: u64, out: &mut Outcome) {
    let reference = warm_up(seed);
    let untraced = counted_round(seed, &disabled(), &reference, out);
    let ins: [Instruments; 4] = std::array::from_fn(|_| Instruments::enabled());
    let traced = counted_round(seed, &ins, &reference, out);

    data_layer(seed, out);
    for name in [
        "runtime.step_us",
        "runtime.data_stall_us",
        "runtime.barrier_wait_us",
        "runtime.step_residual_us",
        "runtime.queue_wait_us",
        "runtime.fetch_cache_us",
        "runtime.fetches_cache",
        "runtime.fetch_store_us",
        "runtime.fetches_store",
        "runtime.cache_hits",
        "runtime.cache_misses",
        "runtime.gap_p50_us",
        "runtime.gap_p99_us",
        "runtime.preprocess_us",
        "runtime.role_flips",
        "store.fetches",
        "store.bytes_mib",
        "store.modelled_ms",
    ] {
        // ClusterSim models storage; the live engine and its store do
        // no work here.
        out.set(name, 0.0);
    }

    let solves: Vec<_> = ins[LOBSTER]
        .decisions()
        .into_iter()
        .filter(|d| d.source == DecisionSource::Algorithm1)
        .collect();
    out.set("core.algorithm1_solves", solves.len() as f64);
    out.set(
        "core.algorithm1_evals",
        solves.iter().map(|d| d.evals as f64).sum(),
    );

    let lobster = &traced.reports[LOBSTER];
    let steady = lobster.steady_epochs();
    let sum =
        |f: fn(&lobster_pipeline::EpochReport) -> u64| steady.iter().map(f).sum::<u64>() as f64;
    out.set("cache.local_hits", sum(|e| e.local_hits));
    out.set("cache.remote_hits", sum(|e| e.remote_hits));
    out.set("cache.misses", sum(|e| e.misses));
    out.set("cache.prefetched", sum(|e| e.prefetched));
    out.set(
        "cache.evictions",
        sum(|e| e.evict.by_reuse_count + e.evict.by_reuse_distance),
    );

    out.set("pipeline.new_ms", traced.new_s * 1e3);
    for (i, name) in [
        "pipeline.run_s_pytorch",
        "pipeline.run_s_dali",
        "pipeline.run_s_nopfs",
        "pipeline.run_s_lobster",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, traced.run_s[i]);
    }
    let spreads: Vec<f64> = steady.iter().map(|e| e.mean_spread_s * 1e6).collect();
    out.set("pipeline.spread_us", stats::mean(&spreads));

    out.set(
        "metrics.trace_events",
        ins.iter()
            .map(|i| i.tracer().buffer().map_or(0, |b| b.len()) as f64)
            .sum(),
    );
    out.set(
        "metrics.trace_dropped",
        ins.iter().map(|i| i.trace_dropped() as f64).sum(),
    );
    let wall = |r: &Round| r.run_s.iter().sum::<f64>();
    out.set(
        "metrics.tracing_overhead_ms",
        (wall(&traced) - wall(&untraced)) * 1e3,
    );
}

/// Dataset build, per-epoch schedule generation and per-epoch oracle
/// builds for all nodes: the lobster-data calls ClusterSim makes, timed
/// around the same public functions.
fn data_layer(seed: u64, out: &mut Outcome) {
    let t = Instant::now();
    std::hint::black_box(DatasetKind::ImageNet22k.dataset(SCALE, seed));
    out.set("data.dataset_build_ms", t.elapsed().as_secs_f64() * 1e3);

    let cfg = config(seed);
    let spec = cfg.schedule_spec();
    let t = Instant::now();
    let schedules: Vec<_> = (0..=EPOCHS)
        .map(|e| generate_access(spec, e, cfg.partition, cfg.access))
        .collect();
    out.set(
        "data.schedule_ms",
        t.elapsed().as_secs_f64() * 1e3 / (EPOCHS + 1) as f64,
    );

    let iters = cfg.iterations_per_epoch() as u64;
    let t = Instant::now();
    for e in 0..EPOCHS as usize {
        for node in 0..NODES {
            std::hint::black_box(NodeOracle::build(
                node,
                &[&schedules[e], &schedules[e + 1]],
                e as u64 * iters,
            ));
        }
    }
    out.set(
        "data.oracle_ms",
        t.elapsed().as_secs_f64() * 1e3 / EPOCHS as f64,
    );
}
