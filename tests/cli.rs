//! End-to-end tests of the `h2h` CLI binary (subprocess level): every
//! subcommand, the bundled `.h2h` model files, and argument errors.

use std::process::Command;

fn h2h(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_h2h"))
        .args(args)
        .output()
        .expect("h2h binary runs")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn zoo_lists_all_six_models() {
    let out = h2h(&["zoo"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "VLocNet",
        "CASIA-SURF",
        "VFS",
        "FaceBag",
        "CNN-LSTM",
        "MoCap",
    ] {
        assert!(text.contains(name), "missing {name}");
    }
}

#[test]
fn accels_prints_the_datasheet() {
    let out = h2h(&["accels"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for id in [
        "JZ", "CZ", "WJ", "JQ", "AC", "YG", "TM", "AP", "XW", "SH", "XZ", "BL",
    ] {
        assert!(text.contains(&format!("| {id} |")), "missing {id}");
    }
}

#[test]
fn map_reports_placement_and_gantt() {
    let out = h2h(&["map", "mocap", "high"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("H2H @ High"));
    assert!(text.contains("mapping report"));
    assert!(text.contains("makespan"));
    assert!(text.contains("% busy"), "gantt rows expected");
}

#[test]
fn inspect_reports_the_search_stats() {
    let out = h2h(&["inspect", "casia", "low-", "--topology", "skewed"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("mapping report"));
    assert!(
        text.contains("search stats —"),
        "step-4 counters expected: {text}"
    );
    assert!(text.contains("proven by the delay walk"));
}

#[test]
fn parse_ingests_the_bundled_models() {
    for file in ["models/av_assistant.h2h", "models/driver_monitor.h2h"] {
        let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), file);
        let out = h2h(&["parse", &path, "high"]);
        assert!(
            out.status.success(),
            "{file}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout(&out);
        assert!(text.contains("latency"), "{file} produced no report");
        assert!(text.contains("modalities"), "{file} census missing");
    }
}

#[test]
fn trace_writes_valid_chrome_json() {
    let dir = std::env::temp_dir().join("h2h_cli_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let path_str = path.to_str().unwrap();
    let out = h2h(&["trace", "mocap", "high", path_str]);
    assert!(out.status.success());
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(json["traceEvents"].as_array().unwrap().len() > 14);
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_prints_the_tenant_ledger() {
    let out = h2h(&["serve", "mocap,cnnlstm", "high"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("serve report — 2 tenants"));
    assert!(text.contains("MoCap"));
    assert!(text.contains("CNN-LSTM"));
    assert!(text.contains("shared DRAM budget"));
    assert!(
        text.contains("0 mismatched"),
        "slice verification must hold: {text}"
    );
    assert!(text.contains("naive per-request drain"));
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["map", "nonexistent-model"][..],
        &["map", "mocap", "warp-speed"][..],
        &["trace", "mocap", "high"][..], // missing output path
        &["serve", "mocap,unknown-model"][..],
        // A value flag left dangling at the end of the arguments.
        &["map", "mocap", "--topology"][..],
        &["serve", "mocap", "--faults"][..],
        &["serve", "mocap", "--repair-cost"][..],
        &["serve", "mocap", "--arrivals"][..],
        &["serve", "mocap", "--policy"][..],
        &["serve", "mocap", "--queue-cap"][..],
        &["serve", "mocap", "--repair-cost", "-1"][..],
    ] {
        let out = h2h(args);
        assert!(!out.status.success(), "args {args:?} should fail");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} should print usage"
        );
    }
}

#[test]
fn parse_rejects_broken_files() {
    let dir = std::env::temp_dir().join("h2h_cli_parse_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.h2h");
    std::fs::write(&path, "model broken\ninput i vec four\n").unwrap();
    let out = h2h(&["parse", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("line 2"),
        "error should carry the line number: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn parse_reports_a_bare_modality_tag_without_panicking() {
    let dir = std::env::temp_dir().join("h2h_cli_parse_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bare_tag.h2h");
    std::fs::write(&path, "model tagged\ninput i vec 4\n  @ audio\nfc f i 2\n").unwrap();
    let out = h2h(&["parse", path.to_str().unwrap(), "low-"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        !err.contains("panicked"),
        "a syntax error, not a panic: {err}"
    );
    assert!(
        err.contains("line 3"),
        "error should carry the line number: {err}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn parse_rejects_a_zero_stride_without_panicking() {
    let dir = std::env::temp_dir().join("h2h_cli_parse_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zero_stride.h2h");
    std::fs::write(&path, "model strided\ninput a img 3 8 8\nconv c a 4 3 0\n").unwrap();
    let out = h2h(&["parse", path.to_str().unwrap(), "low-"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "an error, not a panic: {err}");
    assert!(err.contains("line 3") && err.contains("stride 0"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn parse_rejects_a_zero_kernel_with_exit_code_1() {
    let dir = std::env::temp_dir().join("h2h_cli_parse_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zero_kernel.h2h");
    std::fs::write(&path, "model sized\ninput a img 3 8 8\nconv c a 8 0 1\n").unwrap();
    let out = h2h(&["parse", path.to_str().unwrap(), "low-"]);
    assert_eq!(out.status.code(), Some(1), "a parse error, not a report");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "an error, not a panic: {err}");
    assert!(
        err.contains("line 3") && err.contains("zero kernel size"),
        "{err}"
    );
    assert!(stdout(&out).is_empty(), "no report for a rejected model");
    std::fs::remove_file(&path).ok();
}
