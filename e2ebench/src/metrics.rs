//! The metric catalogue: names, units, directions and regression bounds.
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, of `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
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

/// Metrics a user of the fuzzer sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("cases_per_s", "cases/s", Better::Higher, 0.2),
    e2e("loop_ms_p50", "ms", Better::Lower, 0.2),
    e2e("cov_points", "points", Better::Higher, 0.1),
    e2e("peak_heap_mb", "MiB", Better::Lower, 0.2),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics from the traced replica (no bounds).
pub const PER_LAYER: [MetricDef; 16] = [
    layer("fuzzer.generate_us", "us/case", Better::Lower),
    layer("fuzzer.learn_us", "us/case", Better::Lower),
    layer("exec.wall_us", "us/case", Better::Lower),
    layer("engine.us", "us/case", Better::Lower),
    layer("predecode.us", "us/case", Better::Lower),
    layer("sim.ns_per_step", "ns/step", Better::Lower),
    layer("difftest.us", "us/case", Better::Lower),
    layer("persist.frac", "frac", Better::Lower),
    layer("persist.checkpoint_bytes", "B", Better::Lower),
    layer("obs.telemetry_bytes_per_case", "B/case", Better::Lower),
    layer("fleet.coord.frac", "frac", Better::Lower),
    layer("fleet.member_wait.frac", "frac", Better::Lower),
    layer("coverage.gain_ratio", "ratio", Better::Higher),
    layer("difftest.mismatch_rate", "1/case", Better::Higher),
    layer("trace.span_coverage", "frac", Better::Higher),
    layer("trace.overhead_frac", "frac", Better::Lower),
];

/// Measured values in catalogue order; `None` marks a value that could
/// not be resolved.
pub type Values = Vec<(MetricDef, Option<f64>)>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1 to 64 of
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset_and_are_unique() {
        assert!(valid_name("cases_per_s") && valid_name("trace.span_coverage"));
        assert!(valid_name("0a-b_c.d"));
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "p99%",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn bounds_stay_within_a_quarter_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
            if m.name != "setup_s" {
                assert!(bound < setup.bound.expect("bound"), "{}", m.name);
            }
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("bound")
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"name\":").count();
        let workloads = crate::workloads::Workload::ALL.len();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
