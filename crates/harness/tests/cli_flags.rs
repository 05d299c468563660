//! End-to-end checks that `h2` rejects a global flag the subcommand would
//! ignore (exit 2, naming the flag) instead of running as if it were
//! absent. These run the real binary (`CARGO_BIN_EXE_h2`), like
//! `sweep_cli.rs`.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

const H2: &str = env!("CARGO_BIN_EXE_h2");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("h2-cli-flags-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn h2(work: &PathBuf, args: &[&str]) -> Output {
    Command::new(H2)
        .args(args)
        .current_dir(work)
        .env("H2_RUNCACHE", "off")
        .output()
        .expect("spawn h2")
}

#[test]
fn flags_a_subcommand_ignores_exit_2_and_name_the_flag() {
    let work = scratch("reject");
    fs::write(work.join("sc.json"), "{}").unwrap();
    let cases: [(&[&str], &str); 8] = [
        (&["--telemetry", "tel", "--trace", "tr", "sweep", "sc.json"], "--telemetry"),
        (&["--trace", "tr", "sweep", "sc.json"], "--trace"),
        (&["--jobs", "3", "fuzz", "--seeds", "1"], "--jobs"),
        (&["--jobs", "2", "run", "--scenario", "sc.json"], "--jobs"),
        (&["--trace", "tr", "--trace-sample", "4", "run", "--replay", "t.h2trace"], "--trace"),
        (&["--profile", "prof", "sweep", "sc.json"], "--profile"),
        (&["--telemetry", "tel", "cache", "stats"], "--telemetry"),
        (&["--jobs", "2", "list"], "--jobs"),
    ];
    for (args, flag) in cases {
        let out = h2(&work, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "h2 {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} does not apply")),
            "h2 {args:?} must name {flag}: {stderr}"
        );
    }
    for dir in ["tel", "tr", "prof"] {
        assert!(!work.join(dir).exists(), "a rejected flag created {dir}/");
    }
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn experiment_runs_take_every_global_flag() {
    let work = scratch("accept");
    let out = h2(
        &work,
        &["--jobs", "1", "--telemetry", "tel", "--trace", "tr", "--trace-sample", "8", "run", "table1"],
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(work.join("results/table1_config.csv").is_file());
    let _ = fs::remove_dir_all(&work);
}
