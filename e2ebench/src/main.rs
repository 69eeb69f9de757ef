//! `e2ebench` — the end-to-end and per-layer benchmark of the HFL
//! fuzzing loop. See `README.md` beside this package for the workloads,
//! the metrics and how to read a trace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload hfl|cascade|mhart|fleet|all] [--seed N] [--seconds S] \
//!     [--trace 0|1] [--spans spans.jsonl] [--repeat N] [--scale F] [--out results.json]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod clock;
mod metrics;
mod stats;
mod sys;
mod trace;
mod workloads;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use stats::{median, percentile, quartiles, tail_percentile};
use sys::{peak_heap_growth, Scratch};
use trace::{trace_campaign, trace_fleet, Tracer, ROUND_CHILDREN};
use workloads::{check, measure_setup, run_untraced, Plan, Shape, Summary, Workload, SUB_SEEDS};

const USAGE: &str = "usage: e2ebench [--workload hfl|cascade|mhart|fleet|all] [--seed N] \
[--seconds S] [--trace 0|1] [--spans FILE] [--repeat N] [--scale F] [--out FILE]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    repeat: usize,
    scale: f64,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        repeat: 1,
        scale: 1.0,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| format!("{flag} wants a positive {what}, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::parse(&value)?],
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed wants an unsigned integer, got {value:?}"))?;
            }
            "--seconds" => args.seconds = number("number of seconds")?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                };
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            "--repeat" => {
                args.repeat = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| format!("--repeat wants a positive count, got {value:?}"))?;
            }
            "--scale" => args.scale = number("factor")?,
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.spans.is_some() && !args.trace {
        return Err("--spans needs --trace 1".into());
    }
    Ok(args)
}

/// One measurement of one workload.
struct Measured {
    values: Values,
    attempted: u64,
    failed: u64,
}

fn run_id(plan: &Plan) -> String {
    format!("{}-{}", plan.workload.name(), plan.seed)
}

/// Set-up constructions timed before each run; spreading the samples over
/// the measurement keeps one noisy moment from setting `setup_s`.
const SETUP_SAMPLES_PER_RUN: usize = 5;

/// Checks a run against the first run of the same sub-seed, or records it
/// as that sub-seed's reference.
fn check_repeat(
    plan: &Plan,
    i: u64,
    summaries: &mut Vec<Summary>,
    run: &Summary,
) -> Result<(), String> {
    match summaries.get((i % SUB_SEEDS) as usize) {
        Some(first) => check(run == first, plan, || {
            format!("a repetition changed the outputs: {run:?} vs {first:?}")
        }),
        None => {
            summaries.push(run.clone());
            Ok(())
        }
    }
}

/// The end-to-end metrics, with tracing off: runs cycle through the
/// sub-seeds until `seconds` have passed and every sub-seed ran once.
fn measure_end_to_end(plan: &Plan, seconds: f64) -> Result<Measured, String> {
    let scratch = Scratch::new(&run_id(plan)).map_err(|e| format!("scratch directory: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut setup = Vec::new();
    let mut summaries = Vec::new();
    let mut rates = Vec::new();
    let mut loops_ms = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut heap_mb = Vec::new();
    let mut i = 0;
    while i < SUB_SEEDS || Instant::now() < deadline {
        let sub = plan.sub(i);
        setup.extend(measure_setup(&sub, SETUP_SAMPLES_PER_RUN));
        let (run, heap) = peak_heap_growth(|| run_untraced(&sub, scratch.path()));
        let run = run?;
        heap_mb.push(heap);
        rates.push(run.cases as f64 / run.wall_s);
        loops_ms.extend(run.loops.iter().map(|s| s * 1e3));
        check_repeat(&sub, i, &mut summaries, &run.summary)?;
        attempted += run.cases;
        failed += run.aborted;
        i += 1;
    }
    // The tail is printed, not reported: on a shared 2-core host its
    // spread across seeds is too wide for a regression bound.
    let tail = tail_percentile(loops_ms.len()).map_or_else(
        || "too few iterations for a tail".to_string(),
        |p| format!("p{p} {:.4} ms", percentile(&loops_ms, p)),
    );
    println!(
        "{}: seed {}, {i} runs over {SUB_SEEDS} sub-seeds, {} loop iterations timed, {tail}",
        plan.workload.name(),
        plan.seed,
        loops_ms.len(),
    );
    let cov_points: Vec<f64> = summaries.iter().map(|s| s.cov_points as f64).collect();
    let value = |name: &str| -> Option<f64> {
        match name {
            "cases_per_s" => Some(median(&rates)),
            "loop_ms_p50" => Some(percentile(&loops_ms, 50.0)),
            "cov_points" => Some(median(&cov_points)),
            "peak_heap_mb" => Some(median(&heap_mb)),
            "setup_s" => Some(median(&setup)),
            other => unreachable!("no end-to-end metric {other}"),
        }
    };
    Ok(Measured {
        values: END_TO_END.iter().map(|m| (*m, value(m.name))).collect(),
        attempted,
        failed,
    })
}

/// The per-layer metrics: pairs of an untraced run and a traced replica
/// of the same sub-seed, until `seconds` have passed. Each replica must
/// reproduce its untraced run's outputs and event stream exactly.
fn measure_per_layer(
    plan: &Plan,
    seconds: f64,
    spans: Option<&PathBuf>,
) -> Result<Measured, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let scratch = Scratch::new(&run_id(plan)).map_err(|e| format!("scratch directory: {e}"))?;
    let mut tracer = Tracer::new(spans.is_some());
    let mut summaries = Vec::new();
    let (mut untraced_wall, mut replica_wall) = (0.0, 0.0);
    let (mut untraced_cases, mut telemetry_bytes, mut checkpoint_bytes) = (0u64, 0u64, 0u64);
    let (mut coord_s, mut epochs_s) = (0.0, 0.0);
    let (mut attempted, mut failed) = (0, 0);
    let mut i = 0;
    loop {
        let sub = plan.sub(i);
        let untraced = run_untraced(&sub, scratch.path())?;
        check_repeat(&sub, i, &mut summaries, &untraced.summary)?;
        let replica = match sub.shape() {
            Shape::Campaign(shape) => trace_campaign(&sub, &shape, scratch.path(), &mut tracer)?,
            Shape::Fleet(shape) => trace_fleet(&sub, &shape, scratch.path(), &mut tracer)?,
        };
        check(replica.summary == untraced.summary, &sub, || {
            format!(
                "the traced replica's outputs {:?} differ from the program's {:?}",
                replica.summary, untraced.summary
            )
        })?;
        check(replica.events == untraced.events, &sub, || {
            "the traced replica's event stream differs from the program's".into()
        })?;
        untraced_wall += untraced.wall_s;
        replica_wall += replica.wall_s;
        untraced_cases += untraced.cases;
        telemetry_bytes += untraced.telemetry_bytes;
        checkpoint_bytes = checkpoint_bytes.max(untraced.checkpoint_bytes);
        coord_s += untraced.fleet_coord_s;
        epochs_s += untraced.loops.iter().sum::<f64>();
        attempted += 2 * untraced.cases;
        failed += untraced.aborted;
        i += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Some(path) = spans {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let fleet = matches!(plan.shape(), Shape::Fleet(_));
    let t = |name: &str| tracer.seconds(name);
    let c = |name: &str| tracer.count(name);
    let cases = c("cases");
    let side_cases = c("side.cases");
    let (exec, engine, attributed) = if fleet {
        let attributed = t("generate") + t("learn") + t("persist");
        let (exec, engine) = (c("fleet.exec"), c("fleet.engine"));
        (exec, engine, attributed + exec + engine + c("fleet.coord"))
    } else {
        let attributed = ROUND_CHILDREN.iter().map(|n| t(n)).sum();
        (t("exec"), t("coverage") + t("labels"), attributed)
    };
    let span_coverage = attributed / replica_wall;
    if !fleet {
        check(span_coverage >= 0.95, plan, || {
            format!("spans cover only {span_coverage:.3} of the replica's wall")
        })?;
    }
    let per_case_us = |seconds: f64, n: f64| seconds / n * 1e6;
    let value = |name: &str| -> f64 {
        match name {
            "fuzzer.generate_us" => per_case_us(t("generate"), cases),
            "fuzzer.learn_us" => per_case_us(t("learn"), cases),
            "exec.wall_us" => per_case_us(exec, cases),
            "engine.us" => per_case_us(engine, cases),
            "predecode.us" => per_case_us(t("predecode"), side_cases),
            "sim.ns_per_step" => {
                (t("sim.dut") + t("sim.grm") + t("sim.mhart")) / c("side.steps") * 1e9
            }
            "difftest.us" => per_case_us(t("difftest"), side_cases),
            "persist.frac" => t("persist") / replica_wall,
            "persist.checkpoint_bytes" => checkpoint_bytes as f64,
            "obs.telemetry_bytes_per_case" => telemetry_bytes as f64 / untraced_cases as f64,
            "fleet.coord.frac" => coord_s / untraced_wall,
            "fleet.member_wait.frac" if fleet => (epochs_s - coord_s) / untraced_wall,
            "fleet.member_wait.frac" => 0.0,
            "coverage.gain_ratio" => c("gained") / cases,
            "difftest.mismatch_rate" => c("side.mismatches") / side_cases,
            "trace.span_coverage" => span_coverage,
            "trace.overhead_frac" => replica_wall / untraced_wall - 1.0,
            other => unreachable!("no per-layer metric {other}"),
        }
    };
    println!(
        "{}: seed {}, {i} traced replicas, {cases} replica cases, {side_cases} side-pass cases",
        plan.workload.name(),
        plan.seed,
    );
    Ok(Measured {
        values: PER_LAYER
            .iter()
            .map(|m| (*m, Some(value(m.name))))
            .collect(),
        attempted,
        failed: failed + c("aborted") as u64,
    })
}

fn fmt_value(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), |v| format!("{v}"))
}

/// The final JSON line. It is printed only when every check passed, so
/// it always reads `"correct":true`; a failed check exits non-zero
/// without one.
fn result_json(
    attempted: u64,
    failed: u64,
    metrics: &[(String, MetricDef, Option<f64>)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(key, def, value)| {
            format!(
                "\"{key}\":{{\"value\":{},\"unit\":\"{}\"}}",
                fmt_value(*value),
                def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Prints the `--repeat` table: median and quartiles of each metric, and
/// whether its quartile spread exceeds its bound.
fn print_spread(workload: Workload, defs: &[MetricDef], runs: &[Measured]) {
    println!(
        "{:<10} {:<30} {:>7} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "better", "median", "q1", "q3", "spread", "bound"
    );
    for (i, def) in defs.iter().enumerate() {
        let values: Vec<f64> = runs.iter().filter_map(|m| m.values[i].1).collect();
        if values.len() < runs.len() {
            println!(
                "{:<10} {:<30} unresolved in {} runs",
                workload.name(),
                def.name,
                runs.len() - values.len()
            );
            continue;
        }
        let mid = median(&values);
        let (q1, q3) = quartiles(&values);
        let spread = if mid == 0.0 {
            0.0
        } else {
            (q3 - q1) / mid.abs()
        };
        let (bound, flag) = match def.bound {
            Some(bound) if spread > bound => {
                (format!("{bound}"), "  UNSTABLE: spread exceeds bound")
            }
            Some(bound) => (format!("{bound}"), ""),
            None => ("-".to_string(), ""),
        };
        println!(
            "{:<10} {:<30} {:>7} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6}{flag}",
            workload.name(),
            def.name,
            def.better.as_str(),
            mid,
            q1,
            q3,
            spread,
            bound
        );
    }
}

fn run(args: &Args) -> Result<String, String> {
    let defs: &[MetricDef] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let single = args.workloads.len() == 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        let mut runs = Vec::with_capacity(args.repeat);
        for i in 0..args.repeat {
            let plan = Plan {
                workload,
                seed: args.seed.wrapping_add(i as u64),
                scale: args.scale,
            };
            let measured = if args.trace {
                measure_per_layer(&plan, args.seconds, args.spans.as_ref())?
            } else {
                measure_end_to_end(&plan, args.seconds)?
            };
            for (def, value) in &measured.values {
                if value.is_some_and(|v| !v.is_finite()) {
                    return Err(format!("{}: {} is not a number", workload.name(), def.name));
                }
                println!(
                    "{:<10} {:<30} {:>16} {}",
                    workload.name(),
                    def.name,
                    fmt_value(*value),
                    def.unit
                );
            }
            attempted += measured.attempted;
            failed += measured.failed;
            runs.push(measured);
        }
        if args.repeat > 1 {
            print_spread(workload, defs, &runs);
        }
        for (i, def) in defs.iter().enumerate() {
            let values: Option<Vec<f64>> = runs.iter().map(|m| m.values[i].1).collect();
            let key = if single {
                def.name.to_string()
            } else {
                format!("{}.{}", workload.name(), def.name)
            };
            metrics.push((key, *def, values.map(|v| median(&v))));
        }
    }
    Ok(result_json(attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            if let Some(out) = &args.out {
                if let Err(e) = std::fs::write(out, format!("{line}\n")) {
                    eprintln!("e2ebench: cannot write {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
            }
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_checker_command_line_parses() {
        let a = args("--workload mhart --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workloads, vec![Workload::Mhart]);
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (7, 10.0, true, 1));
        assert_eq!(
            args("").expect("defaults").workloads,
            Workload::ALL.to_vec()
        );
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed -1",
            "--repeat 0",
            "--repeat 1.5",
            "--spans x.jsonl",
            "--bogus 1",
            "--seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// A `--scale 0.02` run of every workload: the untraced run passes
    /// its replay checks and the traced replica reproduces the program's
    /// outputs and event stream (`measure_per_layer` fails otherwise).
    #[test]
    fn smoke_runs_pass_every_check() {
        for workload in Workload::ALL {
            let plan = Plan {
                workload,
                seed: 3,
                scale: 0.02,
            };
            let traced = measure_per_layer(&plan, 1e-3, None)
                .unwrap_or_else(|e| panic!("traced smoke run failed: {e}"));
            assert_eq!(traced.failed, 0, "{}", workload.name());
            assert!(traced
                .values
                .iter()
                .all(|(_, v)| v.is_some_and(f64::is_finite)));
            let untraced = measure_end_to_end(&plan, 1e-3)
                .unwrap_or_else(|e| panic!("untraced smoke run failed: {e}"));
            for (def, value) in &untraced.values {
                let name = def.name;
                assert!(value.is_some_and(|v| v > 0.0), "{} {name}", workload.name());
            }
        }
    }
}
