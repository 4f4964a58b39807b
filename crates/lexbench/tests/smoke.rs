//! The harness end to end, small: `lexbench --smoke` drives a real
//! `lexequald` through all four workloads and their traces.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// `target/<profile>/`, the directory cargo puts both binaries in.
fn profile_dir() -> PathBuf {
    Path::new(env!("CARGO_BIN_EXE_lexbench"))
        .parent()
        .expect("binary has a directory")
        .to_owned()
}

/// The daemon beside `lexbench`, built on demand: a workspace-wide
/// `cargo test` has already put it there, `cargo test -p
/// lexequal-lexbench` alone has not.
fn daemon() -> PathBuf {
    let dir = profile_dir();
    let path = dir.join("lexequald");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let mut build = Command::new(cargo);
    build.args([
        "build",
        "--offline",
        "-p",
        "lexequal-service",
        "--bin",
        "lexequald",
    ]);
    if dir.file_name().is_some_and(|d| d == "release") {
        build.arg("--release");
    }
    let status = build
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .status()
        .expect("run cargo build");
    assert!(status.success(), "building lexequald failed");
    assert!(path.is_file(), "{} missing after the build", path.display());
    path
}

#[test]
fn smoke_run_covers_every_workload_with_no_failures() {
    let daemon = daemon();
    let results = profile_dir().join("lexbench-work").join("smoke-results");
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lexbench"))
        .arg("--smoke")
        .arg("--daemon")
        .arg(&daemon)
        .arg("--results-dir")
        .arg(&results)
        .output()
        .expect("run lexbench --smoke");
    let took = started.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lexbench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("lexbench: fail_ratio 0.000000"),
        "no clean summary line:\n{stdout}"
    );
    // Every name the benchmark defines shows up in the output.
    use lexequal_lexbench::spec::{END_TO_END, PER_LAYER, REPORTED, WORKLOADS, WRITE_MIX_ONLY};
    for w in &WORKLOADS {
        for name in END_TO_END
            .iter()
            .chain(&REPORTED)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            let printed = stdout
                .lines()
                .any(|l| l.contains(w.name) && l.split_whitespace().nth(1) == Some(name));
            let expected = w.name == "write_mix" || !WRITE_MIX_ONLY.contains(&name);
            assert_eq!(printed, expected, "{} / {name}", w.name);
        }
        let trace = results.join(format!("trace_{}.json", w.name));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(
            text.contains("\"name\": \"shard.search\""),
            "{}",
            trace.display()
        );
    }
    let _ = std::fs::remove_dir_all(&results);
    // Generous: the same run takes well under 20 s on an idle host.
    assert!(took < Duration::from_secs(60), "smoke took {took:?}");
}

#[test]
fn driver_form_prints_one_json_result_line() {
    let daemon = daemon();
    let out = Command::new(env!("CARGO_BIN_EXE_lexbench"))
        .args(["--smoke", "--workload", "phonidx_cold", "--seed", "3"])
        .args(["--seconds", "1", "--trace", "0", "--daemon"])
        .arg(&daemon)
        .output()
        .expect("run lexbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.ends_with("}}}"),
        "{last}"
    );
    for m in &lexequal_lexbench::spec::END_TO_END {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        assert!(last.contains(&key), "{} missing from {last}", m.name);
        assert!(last.contains(&format!("\"unit\": \"{}\"}}", m.unit)));
    }
    assert!(
        !last.contains("proto.frame_parse_ns"),
        "per-layer metrics need --trace 1"
    );
    assert!(
        !last.contains("open_hi_p99_us"),
        "unbounded metrics stay off the result line"
    );
    assert!(
        stdout.contains(" open_hi_p99_us "),
        "but they are reported by name"
    );
}

#[test]
fn benchmark_json_at_the_root_is_what_the_spec_renders() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        lexequal_lexbench::spec::benchmark_json(),
        "regenerate with: lexbench --print-benchmark-json > BENCHMARK.json"
    );
}
