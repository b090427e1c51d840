//! What the benchmark reports: the workload list, every metric's name,
//! unit and better direction (the same table `BENCHMARK.json` holds), and
//! the one-line JSON result.

use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine_cached",
        why: "live engine, whole dataset cached, no training sleep: only engine overhead (queue hops, poll sleeps, copies, integrity check) sets the rate",
    },
    Workload {
        name: "engine_pfs",
        why: "live engine, heavy-tail sizes, cache holds 1/8: the store fetch path and adaptive per-queue loader assignment set the rate",
    },
    Workload {
        name: "engine_elastic",
        why: "live engine, bimodal preprocessing cost, elastic pool of 4, instruments on: preprocessing CPU, the elastic loop and lobster-metrics",
    },
    Workload {
        name: "sim_fig07",
        why: "ClusterSim Fig. 7(c) panel, four systems at 1/128 scale: schedule, oracle, Algorithm 1, cache and directory host time",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

pub const END_TO_END: [MetricDef; 6] = [
    e2e("throughput_sps", "samples/s", Higher, 0.25),
    e2e("step_p50_us", "us", Lower, 0.25),
    e2e("step_p90_us", "us", Lower, 0.25),
    e2e("allocs_per_sample", "count", Lower, 0.05),
    e2e("peak_heap_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

pub const PER_LAYER: [MetricDef; 37] = [
    layer("data.dataset_build_ms", "ms", Lower),
    layer("data.schedule_ms", "ms", Lower),
    layer("data.oracle_ms", "ms", Lower),
    layer("runtime.step_us", "us", Lower),
    layer("runtime.data_stall_us", "us", Lower),
    layer("runtime.barrier_wait_us", "us", Lower),
    layer("runtime.step_residual_us", "us", Lower),
    layer("runtime.queue_wait_us", "us", Lower),
    layer("runtime.fetch_cache_us", "us", Lower),
    layer("runtime.fetches_cache", "count", Higher),
    layer("runtime.fetch_store_us", "us", Lower),
    layer("runtime.fetches_store", "count", Lower),
    layer("runtime.cache_hits", "count", Higher),
    layer("runtime.cache_misses", "count", Lower),
    layer("runtime.gap_p50_us", "us", Lower),
    layer("runtime.gap_p99_us", "us", Lower),
    layer("runtime.preprocess_us", "us", Lower),
    layer("runtime.role_flips", "count", Lower),
    layer("store.fetches", "count", Lower),
    layer("store.bytes_mib", "MiB", Lower),
    layer("store.modelled_ms", "ms", Lower),
    layer("core.algorithm1_solves", "count", Lower),
    layer("core.algorithm1_evals", "count", Lower),
    layer("cache.local_hits", "count", Higher),
    layer("cache.remote_hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.prefetched", "count", Higher),
    layer("cache.evictions", "count", Lower),
    layer("pipeline.new_ms", "ms", Lower),
    layer("pipeline.run_s_pytorch", "s", Lower),
    layer("pipeline.run_s_dali", "s", Lower),
    layer("pipeline.run_s_nopfs", "s", Lower),
    layer("pipeline.run_s_lobster", "s", Lower),
    layer("pipeline.spread_us", "us", Lower),
    layer("metrics.trace_events", "count", Lower),
    layer("metrics.trace_dropped", "count", Lower),
    layer("metrics.tracing_overhead_ms", "ms", Lower),
];

/// One workload's result: operations attempted and failed, the reasons
/// for any failure, and the measured figures by metric name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed per-operation checks, one line each.
    pub failures: Vec<String>,
    /// Failed checks on the invocation as a whole (too few steady steps
    /// for a quantile): these make the result incorrect.
    pub violations: Vec<String>,
    pub figures: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.figures.push((name, value));
    }

    /// Count one operation batch: `ops` operations, all failed if
    /// `failure` is set.
    pub fn count(&mut self, ops: u64, failure: Option<String>) {
        self.attempted += ops;
        if let Some(why) = failure {
            self.failed += ops;
            self.failures.push(why);
        }
    }

    /// `step_p50_us` and `step_p90_us`: medians over rounds of each
    /// round's steady-step quantile. A round too short for the quantile
    /// rule gives NaN, which makes the result incorrect.
    pub fn set_step_quantiles(&mut self, p50_per_round: &[f64], p90_per_round: &[f64]) {
        for (name, per_round) in [
            ("step_p50_us", p50_per_round),
            ("step_p90_us", p90_per_round),
        ] {
            if per_round.iter().any(|v| v.is_nan()) {
                self.violations.push(format!(
                    "{name}: a round has too few steady steps for {} beyond the quantile",
                    crate::stats::MIN_BEYOND
                ));
            }
            self.set(name, crate::stats::median(per_round));
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.figures.iter().all(|(_, v)| v.is_finite())
    }
}

/// The metric table a run reports: end-to-end untraced, per-layer traced.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Human-readable table of the figures, in definition order.
pub fn table(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    for def in defs(traced) {
        let value = lookup(outcome, def.name);
        let bound = def
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        let _ = writeln!(
            out,
            "  {:<30} {:>16.4} {:<10} ({} is better{bound})",
            def.name,
            value,
            def.unit,
            def.better.token()
        );
    }
    out
}

fn lookup(outcome: &Outcome, name: &str) -> f64 {
    let hits: Vec<f64> = outcome
        .figures
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(hits.len(), 1, "metric {name} must be set exactly once");
    hits[0]
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every metric of the table with its unit.
pub fn json_line(outcome: &Outcome, traced: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, def) in defs(traced).iter().enumerate() {
        let value = lookup(outcome, def.name);
        // A non-finite figure is already an incorrect result; keep the
        // line valid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            value,
            def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_operations_are_counted_whole() {
        let mut o = Outcome::default();
        o.count(64, None);
        o.count(64, Some("integrity mismatch".into()));
        assert_eq!((o.attempted, o.failed), (128, 64));
        assert!(o.correct(), "a failed operation is not a wrong result");
        o.violations.push("seed determinism".into());
        assert!(!o.correct());
    }

    #[test]
    fn json_line_has_every_metric_once() {
        let mut o = Outcome::default();
        o.count(1, None);
        for def in &END_TO_END {
            o.set(def.name, 1.5);
        }
        let line = json_line(&o, false);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v["attempted"].as_u64(), Some(1));
        for def in &END_TO_END {
            assert_eq!(v["metrics"][def.name]["unit"].as_str(), Some(def.unit));
            assert_eq!(v["metrics"][def.name]["value"].as_f64(), Some(1.5));
        }
    }

    /// `BENCHMARK.json` at the repository root is the fixed form of these
    /// tables; the two must name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let workloads = v["workloads"].as_array().expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(w["name"].as_str(), Some(def.name));
            assert_eq!(w["why"].as_str(), Some(def.why));
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let metrics = v[key].as_array().expect("metric list");
            assert_eq!(metrics.len(), table.len(), "{key}");
            for (m, def) in metrics.iter().zip(table) {
                assert_eq!(m["name"].as_str(), Some(def.name));
                assert_eq!(m["unit"].as_str(), Some(def.unit));
                assert_eq!(m["better"].as_str(), Some(def.better.token()));
                assert_eq!(m["bound"].as_f64(), def.bound, "{}", def.name);
            }
        }
    }
}
