//! The harness binaries refuse a numeric flag whose value is missing or
//! does not parse: they exit with status 2 and name the flag, instead of
//! running the default-sized experiment. A zero batch or thread count is
//! refused as an invalid run, not run as 1.

use std::process::{Command, Output};

fn tab_vulnerabilities(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tab_vulnerabilities"))
        .args(args)
        .output()
        .expect("tab_vulnerabilities starts")
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
