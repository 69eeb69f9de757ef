//! The harness binaries refuse a numeric flag whose value is missing or
//! does not parse: they exit with status 2 and name the flag, instead of
//! running the default-sized experiment.

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
