//! The `report` binary's id handling: every id on the command line must name
//! an experiment, or nothing runs.

use std::process::Command;

fn report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("run report")
}

#[test]
fn list_prints_the_paper_ids_only() {
    let out = report(&["--list"]);
    assert!(out.status.success());
    let ids = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        ids.lines().collect::<Vec<_>>(),
        [
            "table1",
            "fig1a",
            "fig1b",
            "table3",
            "table4",
            "fig6a",
            "fig6b",
            "table5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablations"
        ]
    );
}

/// One unknown id fails the whole invocation, before any experiment runs —
/// even when another id on the line is valid.
#[test]
fn an_unknown_id_beside_a_known_one_is_an_error_naming_it() {
    let out = report(&["runtime", "table4"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "table4 must not have been printed");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("runtime") && err.contains("--list"), "{err}");
    assert!(!err.contains("table4"), "{err}");
}

#[test]
fn known_ids_still_run() {
    let out = report(&["table4"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("==== table4 ===="), "{text}");
}
