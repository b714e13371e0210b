//! CLI errors are two lines on stderr — the message and a hint — with exit
//! status 1; the full usage text appears only on `cable help`.

use std::process::{Command, Output};

fn cable(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cable"))
        .args(args)
        .output()
        .expect("the cable binary runs")
}

fn assert_two_line_error(args: &[&str], message: &str) {
    let out = cable(args);
    assert_eq!(out.status.code(), Some(1), "cable {args:?} exit status");
    assert!(out.stdout.is_empty(), "cable {args:?} wrote to stdout");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "cable {args:?} stderr: {stderr}");
    assert!(
        lines[0].starts_with("error: ") && lines[0].contains(message),
        "cable {args:?} first line: {}",
        lines[0]
    );
    assert_eq!(lines[1], "run 'cable help' for usage");
}

#[test]
fn errors_print_the_message_and_one_hint_line() {
    assert_two_line_error(&["frobnicate"], "unknown command `frobnicate`");
    assert_two_line_error(&["bench", "no-such-workload"], "unknown workload");
    assert_two_line_error(&["bench", "mcf", "many"], "`many` is not a number");
}

#[test]
fn help_still_prints_the_full_usage() {
    let out = cable(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(stdout.starts_with("usage: cable <command> [args]"));
    assert!(stdout.lines().count() > 10);
}
