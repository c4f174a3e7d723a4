//! The `eyecod` binary's flag parsing: a boolean flag never takes the next
//! word as its value.

use std::process::{Command, Output};

fn eyecod(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eyecod"))
        .args(args)
        .output()
        .expect("eyecod runs")
}

#[test]
fn boolean_flags_reject_a_value_with_exit_2_naming_the_flag() {
    for (cmd, flag) in [
        ("track", "lens"),
        ("track", "delta"),
        ("track", "adaptive-roi"),
        ("mask", "raw"),
        ("simulate", "no-swpr"),
        ("simulate", "no-reuse"),
        ("model", "full"),
    ] {
        let flag = format!("--{flag}");
        let out = eyecod(&[cmd, &flag, "5"]);
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag} 5");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} takes no value")),
            "{cmd} {flag} 5: {stderr}"
        );
    }
}

#[test]
fn boolean_flags_still_parse_before_other_flags() {
    let out = eyecod(&[
        "simulate",
        "--no-swpr",
        "--orchestration",
        "pm",
        "--no-reuse",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
