//! `repro` decides what to do before it does any of it.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

/// `args` are a usage error: exit 2, the usage on stderr, nothing run.
fn assert_refused(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: repro"), "{args:?}: {stderr}");
    assert!(!stderr.contains("running"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}");
}

#[test]
fn an_unknown_command_is_refused_before_the_study_runs() {
    assert_refused(&["fig4z"]);
}

/// A study of zero days has no day to post on.
#[test]
fn zero_days_is_refused_before_the_study_runs() {
    for command in ["text", "key", "ablation", "replay", "metro"] {
        assert_refused(&["--days", "0", command]);
    }
}

/// `metro` needs one or more positive populations.
#[test]
fn a_bad_population_list_is_refused_before_the_sweep_runs() {
    for nodes in ["", ",", "0", "1200,0", "1200,", "12x"] {
        assert_refused(&["--nodes", nodes, "metro"]);
    }
}

#[test]
fn eviction_prints_the_same_bytes_every_run() {
    let first = repro(&["eviction"]);
    assert!(first.status.success());
    assert!(!first.stdout.is_empty());
    assert_eq!(first.stdout, repro(&["eviction"]).stdout);
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
