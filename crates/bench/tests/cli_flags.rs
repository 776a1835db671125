//! Regression tests for the shared strict flag-value parser
//! (`bench::cli::value`) at the process boundary: a value flag followed by
//! another flag is a usage error (exit 2) naming both, in every binary
//! that reads flag values — never an artifact written to a file named
//! after the swallowed flag.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory, so a regression that writes the
/// swallowed-flag file is caught and leaves nothing in the source tree.
fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("panda_cli_flags_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_swallow_refused(bin: &str, tag: &str, args: &[&str]) {
    let dir = work_dir(tag);
    let output = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("binary spawns");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--out"), "{stderr}");
    assert!(stderr.contains("--no-mlef"), "{stderr}");
    assert!(
        !dir.join("--no-mlef").exists(),
        "wrote a file named --no-mlef"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_refuses_a_flag_as_the_out_path() {
    assert_swallow_refused(
        env!("CARGO_BIN_EXE_sweep"),
        "sweep",
        &["--quick", "--out", "--no-mlef"],
    );
}

#[test]
fn simloop_refuses_a_flag_as_the_out_path() {
    assert_swallow_refused(
        env!("CARGO_BIN_EXE_simloop"),
        "simloop",
        &["--checkpoint-dir", "ckpts", "--out", "--no-mlef"],
    );
}
