//! `repro` decides what to do before it does any of it.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn an_unknown_command_is_refused_before_the_study_runs() {
    let out = repro(&["fig4z"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: repro"), "{stderr}");
    assert!(!stderr.contains("running"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn fig4a_prints_the_graph_table_without_a_run() {
    let out = repro(&["fig4a"]);
    assert!(out.status.success());
    assert!(out.stderr.is_empty(), "no study announced");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!("{}\n", sos_experiments::report::fig4a())
    );
}
