//! The harness binaries read their command line through `hfl::cli`: each
//! answers `--help` with its synopsis, and refuses an unknown or
//! repeated flag, a stray argument, or a value that is missing or does
//! not parse with exit status 2, naming the flag, instead of running
//! another experiment. A zero batch, thread or case count is refused as
//! an invalid run (exit 1), not run as 1.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary starts")
}

fn tab_vulnerabilities(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tab_vulnerabilities"), args)
}

/// Every hfl-bench binary, with one flag it reads (and its value).
const BINS: [(&str, &str, &[&str]); 10] = [
    (
        "ablation",
        env!("CARGO_BIN_EXE_ablation"),
        &["--cases", "1"],
    ),
    ("bench_sim", env!("CARGO_BIN_EXE_bench_sim"), &["--mhart"]),
    (
        "campaign_report",
        env!("CARGO_BIN_EXE_campaign_report"),
        &["--log", "x.jsonl"],
    ),
    (
        "fig3_predictor_accuracy",
        env!("CARGO_BIN_EXE_fig3_predictor_accuracy"),
        &["--paper"],
    ),
    (
        "fig4_coverage_benchmark",
        env!("CARGO_BIN_EXE_fig4_coverage_benchmark"),
        &["--core", "boom"],
    ),
    ("fleet", env!("CARGO_BIN_EXE_fleet"), &["--epochs", "1"]),
    (
        "fleet_worker",
        env!("CARGO_BIN_EXE_fleet_worker"),
        &["--worker", "1"],
    ),
    ("smoke", env!("CARGO_BIN_EXE_smoke"), &["--resume"]),
    (
        "tab_efficiency",
        env!("CARGO_BIN_EXE_tab_efficiency"),
        &["--threads", "1"],
    ),
    (
        "tab_vulnerabilities",
        env!("CARGO_BIN_EXE_tab_vulnerabilities"),
        &["--seed", "1"],
    ),
];

/// The `text` block of a binary's module docs: the synopsis it documents.
fn documented_synopsis(bin: &str) -> String {
    let path = format!("{}/src/bin/{bin}.rs", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).expect("binary source");
    source
        .lines()
        .skip_while(|l| *l != "//! ```text")
        .skip(1)
        .take_while(|l| *l != "//! ```")
        .map(|l| format!("{}\n", &l[4..]))
        .collect()
}

#[test]
fn every_binary_answers_help_and_refuses_what_it_cannot_read() {
    for (bin, exe, flag) in BINS {
        let help = run(exe, &["--help"]);
        assert_eq!(help.status.code(), Some(0), "{bin} --help");
        let synopsis = String::from_utf8_lossy(&help.stdout);
        assert!(
            synopsis.starts_with(&format!("usage: {bin} ")),
            "{synopsis}"
        );
        assert_eq!(synopsis, documented_synopsis(bin), "{bin}'s module docs");

        let repeated = [flag, flag].concat();
        let twice = format!("{}: given more than once", flag[0]);
        for (args, message) in [
            (&["--nosuch"][..], "--nosuch: unknown flag"),
            (&["stray"][..], "\"stray\": stray argument"),
            (&repeated[..], twice.as_str()),
        ] {
            let out = run(exe, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
        }
    }
}

#[test]
fn an_invalid_harness_run_exits_1_before_anything_runs() {
    let fig4 = env!("CARGO_BIN_EXE_fig4_coverage_benchmark");
    for (bin, args, message) in [
        (
            fig4,
            &["--batch", "0"][..],
            "invalid spec: round batch size",
        ),
        (
            fig4,
            &["--threads", "0"][..],
            "invalid spec: the pool needs",
        ),
        (fig4, &["--core", "nosuch"][..], "--core: unknown core"),
        (
            env!("CARGO_BIN_EXE_ablation"),
            &["--cases", "0"][..],
            "invalid spec: campaign case budget",
        ),
        (
            env!("CARGO_BIN_EXE_tab_vulnerabilities"),
            &["--fuzz-cases", "0"][..],
            "invalid spec: campaign case budget",
        ),
        (
            env!("CARGO_BIN_EXE_tab_efficiency"),
            &["--threads", "0"][..],
            "invalid spec: the pool needs",
        ),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(1), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
    }
}

#[test]
fn a_zero_report_stride_exits_2() {
    let out = run(
        env!("CARGO_BIN_EXE_campaign_report"),
        &["--log", "x.jsonl", "--every", "0"],
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--every: 0 is outside the bounds 1.."),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}

#[test]
fn a_zero_model_width_or_fig3_case_count_exits_2() {
    let bins = [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_fig3_predictor_accuracy"),
        env!("CARGO_BIN_EXE_fig4_coverage_benchmark"),
        env!("CARGO_BIN_EXE_tab_efficiency"),
        env!("CARGO_BIN_EXE_tab_vulnerabilities"),
    ];
    let runs = bins
        .iter()
        .map(|&bin| (bin, "--hidden"))
        .chain([(env!("CARGO_BIN_EXE_fig3_predictor_accuracy"), "--cases")]);
    for (bin, flag) in runs {
        let out = run(bin, &[flag, "0"]);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag}: 0 is outside the bounds 1..")),
            "{bin} {flag} 0: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bin} {flag} 0 ran");
    }
}

#[test]
fn an_unparsable_value_exits_2_naming_the_flag() {
    let out = tab_vulnerabilities(&["--fuzz-cases", "4x"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fuzz-cases") && stderr.contains("4x"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}

#[test]
fn a_missing_value_exits_2_naming_the_flag() {
    let out = tab_vulnerabilities(&["--fuzz-cases", "8", "--seed"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed: missing value"), "{stderr}");
}

/// Runs `bin` with `args` plus `--log` pointing at a file that already
/// holds an earlier log, and returns the status and whether the file is
/// byte-identical afterwards.
fn rejected_run_keeps_log(bin: &str, tag: &str, args: &[&str]) -> (Option<i32>, bool) {
    let log = std::env::temp_dir().join(format!("hfl-prior-{tag}-{}.jsonl", std::process::id()));
    let prior = b"{\"type\":\"round_start\",\"round\":0}\n";
    std::fs::write(&log, prior).expect("write the earlier log");
    let out = Command::new(bin)
        .args(args)
        .arg("--log")
        .arg(&log)
        .output()
        .expect("binary starts");
    let kept = std::fs::read(&log).is_ok_and(|now| now == prior);
    let _ = std::fs::remove_file(&log);
    (out.status.code(), kept)
}

#[test]
fn a_rejected_run_leaves_an_earlier_log_untouched() {
    let smoke = env!("CARGO_BIN_EXE_smoke");
    let fleet = env!("CARGO_BIN_EXE_fleet");
    for (bin, tag, args) in [
        (smoke, "smoke-fuzzer", &["--fuzzer", "nosuch"][..]),
        (
            smoke,
            "smoke-cases",
            &["--fuzzer", "difuzz", "--cases", "0"][..],
        ),
        (
            smoke,
            "smoke-batch",
            &["--fuzzer", "difuzz", "--cases", "8", "--batch", "0"][..],
        ),
        (
            smoke,
            "smoke-threads",
            &["--fuzzer", "difuzz", "--cases", "8", "--threads", "0"][..],
        ),
        (fleet, "fleet-epochs", &["--epochs", "0"][..]),
        (
            fleet,
            "fleet-budget",
            &["--cases-per-epoch", "1", "--epochs", "1"][..],
        ),
        (fleet, "fleet-batch", &["--batch", "0"][..]),
        (fleet, "fleet-threads", &["--threads", "0"][..]),
    ] {
        assert_eq!(
            rejected_run_keeps_log(bin, tag, args),
            (Some(1), true),
            "{tag}: exits 1 and keeps the log"
        );
    }
}
