//! The `trace` binary, driven as a user drives it: its stdout and its
//! four artifacts are pinned byte for byte, and the flag values it must
//! refuse are refused its own way (exit 2, one line on stderr) rather
//! than with a panic.
//!
//! The digests were taken from the binary while the quick look still
//! read the engine's second per-op record (`SimConfig::trace`) and the
//! run was a private copy of the one-broadcast SPMD body; reading the
//! `Op` events of the recorded stream through `scc_bench::record_run`
//! must reproduce every byte. Each run has its own temp dir as working
//! directory and a relative `--out out`, so the paths it prints and
//! embeds in `BENCH_obs.json` are stable.

use scc_obs::{validate_artifact_version, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// FNV-1a-64, the digest of `one_loop_pin.rs`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scc_trace_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn trace(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace")).current_dir(cwd).args(args).output().expect("run")
}

/// One pinned invocation: the flags, the artifact label, and the
/// digests of stdout (up to the `# wrote` footer), the Chrome trace,
/// the utilization CSV, the collapsed flamegraph and `BENCH_obs.json`.
struct Pin {
    args: &'static [&'static str],
    label: &'static str,
    digests: [u64; 5],
}

const PINS: [Pin; 2] = [
    Pin {
        args: &["--collective", "ocbcast", "--lines", "96", "--cores", "12"],
        label: "ocbcast_96cl",
        digests: [
            0xac87_3764_afa1_e704,
            0xfff5_7ef3_f29a_93cc,
            0xe8ef_4d31_fc1b_baec,
            0x827f_c084_27d7_1960,
            0x698f_e4e1_fbd6_ebd5,
        ],
    },
    Pin {
        args: &["--collective", "binomial", "--lines", "1"],
        label: "binomial_1cl",
        digests: [
            0x2a08_fd36_2c6b_a7f0,
            0x6c9d_4ab3_bc9a_7013,
            0x1fad_5b51_d455_97e0,
            0x9d46_e624_cc39_747d,
            0xb670_7b94_6497_f464,
        ],
    },
];

#[test]
fn stdout_and_artifacts_are_pinned_byte_for_byte() {
    for pin in &PINS {
        let dir = temp_dir(pin.label);
        let out = trace(&dir, &[pin.args, &["--out", "out"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{}: {stderr}", pin.label);

        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let (body, footer) = stdout.split_at(stdout.find("# wrote ").expect("footer"));
        let files = ["trace_{}.json", "util_{}.csv", "flame_{}.txt", "BENCH_obs.json"]
            .map(|f| format!("out/{}", f.replace("{}", pin.label)));
        // Everything the run wrote is under `--out`, and the footer
        // names each file once, in this order.
        let named: Vec<&str> =
            footer.lines().map(|l| l["# wrote ".len()..].split(' ').next().unwrap()).collect();
        assert_eq!(named, files, "{footer}");
        assert!(!dir.join("BENCH_obs.json").exists(), "the roll-up ignored --out");

        let read = |f: &String| std::fs::read(dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"));
        let [chrome, util, flame, bench] = files.each_ref().map(read);
        let got = [body.as_bytes(), &chrome, &util, &flame, &bench].map(fnv1a64);
        let names = ["stdout", "chrome", "util", "flame", "bench"];
        for ((what, got), want) in names.iter().zip(got).zip(pin.digests) {
            assert_eq!(got, want, "{} {what}: {got:#018x} != pinned {want:#018x}", pin.label);
        }

        // What the artifacts must hold, whatever their bytes.
        let chrome = Json::parse(std::str::from_utf8(&chrome).unwrap()).expect("chrome JSON");
        let events = chrome.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        for cat in ["phase", "op"] {
            let found = events.iter().any(|e| e.get("cat").and_then(Json::as_str) == Some(cat));
            assert!(found, "{}: no {cat:?} slice in the Chrome trace", pin.label);
        }
        let bench = Json::parse(std::str::from_utf8(&bench).unwrap()).expect("BENCH_obs JSON");
        validate_artifact_version(&bench).expect("versioned artifact");
        let cp = bench.get("critical_path").expect("critical_path");
        assert!(cp.get("segments").and_then(Json::as_i64).unwrap() > 0);
        assert!(cp.get("total_us").and_then(Json::as_f64).unwrap() > 0.0);
        let listed = bench.get("artifacts").and_then(Json::as_arr).expect("artifacts");
        let listed: Vec<&str> = listed.iter().map(|a| a.as_str().unwrap()).collect();
        assert_eq!(listed, files[..3], "the roll-up lists the three files beside it");
        let flame = String::from_utf8(flame).unwrap();
        assert!(!flame.is_empty());
        for line in flame.lines() {
            let (_stack, count) = line.rsplit_once(' ').expect("collapsed format `stack count`");
            count.parse::<u64>().expect("counts are integers");
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Flag values that used to surface as a panic (an assertion in the
/// Gantt or series builder, an `expect` on the MPB layout, a failed
/// assertion inside a core) are usage errors.
#[test]
fn out_of_range_flags_die_with_one_line_instead_of_panicking() {
    let dir = temp_dir("rejects");
    for (args, names) in [
        (["--width", "5"], "--width"),
        (["--buckets", "0"], "--buckets"),
        (["--k", "0"], "--k"),
        (["--k", "100"], "--k"),
    ] {
        let out = trace(&dir, &[&args[..], &["--out", "out"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("trace: ") && stderr.contains(names), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before refusing");
    }
    assert!(!dir.join("out").exists(), "a refused run wrote artifacts");
    std::fs::remove_dir_all(&dir).ok();
}

/// The edges of the accepted ranges still run: the largest fan-outs
/// the MPB holds, and an empty message.
#[test]
fn extreme_but_legal_flags_still_run() {
    let dir = temp_dir("edges");
    for args in [&["--k", "60", "--cores", "12"][..], &["--k", "63"], &["--lines", "0"]] {
        let out = trace(&dir, &[args, &["--out", "out"]].concat());
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
    std::fs::remove_dir_all(&dir).ok();
}
