//! Integration tests for the `lcda` command-line binary.

use std::process::Command;

fn lcda(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lcda"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = lcda(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("search"));
}

#[test]
fn no_args_fails_with_usage() {
    let (ok, _, stderr) = lcda(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = lcda(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn reference_reports_isaac_anchors() {
    let (ok, stdout, _) = lcda(&["reference"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("1.000x ISAAC"));
    assert!(stdout.contains("1600 FPS"));
}

#[test]
fn search_runs_and_reports_best() {
    let (ok, stdout, _) = lcda(&[
        "search",
        "--episodes",
        "4",
        "--seed",
        "5",
        "--optimizer",
        "random",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("best:"));
    assert!(stdout.matches("\n      ").count() >= 1);
}

#[test]
fn search_json_is_parseable() {
    let (ok, stdout, _) = lcda(&["search", "--episodes", "3", "--seed", "1", "--json"]);
    assert!(ok);
    let v: lcda_base::json::Value = lcda_base::json::from_str(&stdout).expect("valid JSON");
    assert_eq!(v["history"].as_array().unwrap().len(), 3);
    assert!(v["best"]["reward"].as_f64().is_some());
}

/// A reader that stops early (`lcda search --json | head -c 64`) closes
/// the pipe: the run ends quietly, with exit 0 and nothing on stderr.
#[test]
fn a_closed_stdout_pipe_ends_the_run_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    // Its JSON outgrows the pipe's buffer, so the writer meets the
    // closed end.
    let mut child = Command::new(env!("CARGO_BIN_EXE_lcda"))
        .args(["search", "--optimizer", "rl", "--episodes", "500", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut head = [0u8; 64];
    // The read end drops, closing the pipe, once the bytes are read.
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .expect("the first bytes");
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
    assert!(out.status.success(), "{:?}", out.status);
    assert!(head.starts_with(b"{\n  \"history\": ["), "{head:?}");
}

#[test]
fn evaluate_accepts_design_text() {
    let (ok, stdout, _) = lcda(&[
        "evaluate",
        "--design",
        "[[16,3],[16,3],[24,3],[32,3],[64,3],[96,3]] | hw: [128,8,2,rram]",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("reward"));
    assert!(stdout.contains("pJ"));
}

#[test]
fn evaluate_rejects_malformed_design() {
    let (ok, _, stderr) = lcda(&["evaluate", "--design", "not a design"]);
    assert!(!ok);
    assert!(stderr.contains("cannot parse"));
}

#[test]
fn evaluate_rejects_bad_objective() {
    let (ok, _, stderr) = lcda(&[
        "evaluate",
        "--design",
        "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]",
        "--objective",
        "vibes",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown objective"));
}

#[test]
fn search_accepts_hw_config_flag() {
    let (ok, stdout, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--seed",
        "3",
        "--optimizer",
        "random",
        "--hw-config",
        "configs/hw/isaac.json",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("backend cim on configs/hw/isaac.json"),
        "{stdout}"
    );
    assert!(stdout.contains("best:"));
}

#[test]
fn backend_flag_is_refused_pointing_to_hw_config() {
    // `cim` is the only hardware model, so there is no name to pick: the
    // flag is refused whatever it names, retired backends and the old
    // `cim@<path>` spelling included, before any work starts.
    for command in ["search", "evaluate", "reference"] {
        for name in ["cim", "fpga", "systolic", "cim@configs/hw/isaac.json"] {
            let (ok, stdout, stderr) = lcda(&[command, "--backend", name]);
            assert!(!ok, "{command} --backend {name}");
            assert!(stdout.is_empty(), "{stdout}");
            assert!(stderr.contains("--backend is not accepted"), "{stderr}");
            assert!(stderr.contains("--hw-config <path>"), "{stderr}");
        }
    }
}

#[test]
fn retired_serve_flags_are_refused_by_name() {
    // The store is saved at job end and at shutdown; there is no timer
    // left to set.
    let (ok, stdout, stderr) = lcda(&["serve", "--cache-flush-secs", "5"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("--cache-flush-secs is not accepted"),
        "{stderr}"
    );
    assert!(stderr.contains("at shutdown"), "{stderr}");

    // A deadline belongs to each job's spec, not to the server.
    let (ok, stdout, stderr) = lcda(&["serve", "--job-deadline", "5"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.contains("--job-deadline is not accepted"),
        "{stderr}"
    );
    assert!(stderr.contains("\"deadline_secs\""), "{stderr}");
}

#[test]
fn precision_flag_is_refused_by_name() {
    // The Monte-Carlo pass runs in f32 only; both old values are refused
    // before any training starts.
    for command in ["search", "evaluate"] {
        for value in ["int8", "f32"] {
            let (ok, stdout, stderr) =
                lcda(&[command, "--evaluator", "trained", "--precision", value]);
            assert!(!ok, "{command} --precision {value}");
            assert!(stdout.is_empty(), "{stdout}");
            assert!(stderr.contains("--precision is not accepted"), "{stderr}");
            assert!(stderr.contains("f32"), "{stderr}");
        }
    }
}

#[test]
fn hw_config_failure_classes_are_distinguished() {
    // A missing config file is reported as unreadable, naming it.
    let (ok, _, stderr) = lcda(&["reference", "--hw-config", "/nonexistent/hierarchy.json"]);
    assert!(!ok);
    assert!(stderr.contains("not readable"), "{stderr}");
    assert!(stderr.contains("/nonexistent/hierarchy.json"), "{stderr}");

    // A malformed hierarchy is rejected naming the offending path,
    // before any search work starts.
    let dir = std::env::temp_dir().join(format!("lcda-cli-hw-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    let mut doc: lcda_base::json::Value =
        lcda_base::json::from_str(&std::fs::read_to_string("configs/hw/isaac.json").unwrap())
            .unwrap();
    doc["crossbar"]["rows"] = lcda_base::json!(0);
    std::fs::write(&bad, doc.to_string()).unwrap();
    let (ok, _, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--hw-config",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("crossbar.rows"), "{stderr}");

    // An unknown field in the config is a parse error, not a silent
    // default.
    doc["crossbar"]["rows"] = lcda_base::json!(128);
    doc["crossbar"]["rws"] = lcda_base::json!(64);
    std::fs::write(&bad, doc.to_string()).unwrap();
    let (ok, _, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--hw-config",
        bad.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(stderr.contains("rws"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preset_hierarchy_reproduces_the_builtin_reference() {
    // The shipped isaac preset is the builtin hierarchy as data: lowering
    // through it must reproduce the ISAAC anchors bit-for-bit.
    let (ok, stdout, stderr) = lcda(&[
        "reference",
        "--hw-config",
        "configs/hw/isaac.json",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    let (ok, default_out, _) = lcda(&["reference", "--json"]);
    assert!(ok);
    assert_eq!(
        stdout, default_out,
        "preset-configured and default runs must be byte-identical"
    );
}

#[test]
fn front_prints_pareto_designs() {
    let (ok, stdout, _) = lcda(&["front", "--episodes", "48", "--seed", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("NSGA-II front"));
    assert!(stdout.contains("acc "));
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    // A `--episode` typo must fail loudly, not run 20 episodes with the
    // default budget.
    let (ok, _, stderr) = lcda(&["search", "--episode", "3"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
    assert!(stderr.contains("--episode"), "{stderr}");

    let (ok, _, stderr) = lcda(&["evaluate", "--design", "x", "--verbose"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");

    let (ok, _, stderr) = lcda(&["front", "--json"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");

    // Stray positional arguments are rejected too.
    let (ok, _, stderr) = lcda(&["search", "extra"]);
    assert!(!ok);
    assert!(stderr.contains("unexpected argument"), "{stderr}");

    // A value flag at the end of the line is missing its value.
    let (ok, _, stderr) = lcda(&["search", "--episodes"]);
    assert!(!ok);
    assert!(stderr.contains("expects a value"), "{stderr}");

    // A repeated flag is refused, not settled by whichever comes first.
    let (ok, _, stderr) = lcda(&["search", "--episodes", "2", "--episodes", "3"]);
    assert!(!ok);
    assert!(
        stderr.contains("--episodes is given more than once"),
        "{stderr}"
    );

    // A value that is itself a listed flag is refused: `--journal --json`
    // must not write a journal file named `--json`.
    let (ok, _, stderr) = lcda(&["search", "--journal", "--json"]);
    assert!(!ok);
    assert!(
        stderr.contains("--journal expects a value, got the flag `--json`"),
        "{stderr}"
    );
    assert!(!std::path::Path::new("--json").exists());
    // So is one that is a flag the command does not list.
    let dir = std::env::temp_dir().join(format!("lcda-cli-flag-value-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for flag in ["--backend", "--shards"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lcda"))
            .args(["search", "--episodes", "1", "--journal", flag])
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--journal {flag} ran");
        assert!(
            stderr.contains(&format!("--journal expects a value, got the flag `{flag}`")),
            "{stderr}"
        );
        assert!(
            !dir.join(flag).exists(),
            "a journal named {flag} was written"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // `report` takes one positional but the same flag rules.
    let journal = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/parent_era/run.jsonl"
    );
    let (ok, _, stderr) = lcda(&["report", journal, "--allow-truncated", "--allow-truncated"]);
    assert!(!ok);
    assert!(
        stderr.contains("--allow-truncated is given more than once"),
        "{stderr}"
    );

    // The retired serve retry budget is an unknown flag.
    let (ok, _, stderr) = lcda(&["serve", "--job-retries", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--job-retries`"), "{stderr}");
}

#[test]
fn resume_requires_checkpoint_flag() {
    let (ok, _, stderr) = lcda(&["search", "--episodes", "2", "--resume"]);
    assert!(!ok);
    assert!(
        stderr.contains("--resume requires --checkpoint"),
        "{stderr}"
    );
}

#[test]
fn keep_checkpoints_requires_checkpoint_flag() {
    let (ok, stdout, stderr) = lcda(&["search", "--episodes", "2", "--keep-checkpoints", "3"]);
    assert!(!ok, "{stdout}");
    assert!(
        stderr.contains("--keep-checkpoints requires --checkpoint"),
        "{stderr}"
    );
}

/// A private search on the analytic evaluators keeps no memo: with
/// caching on it writes exactly the checkpoint log and journal that the
/// same search writes with `--no-cache`.
#[test]
fn private_analytic_search_writes_the_no_cache_bytes() {
    let dir = std::env::temp_dir().join(format!("lcda-cli-memo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |name: &str, extra: &[&str]| {
        let ckpt = dir.join(format!("{name}.ckpt.jsonl"));
        let journal = dir.join(format!("{name}.journal.jsonl"));
        let mut args = vec![
            "search",
            "--episodes",
            "30",
            "--seed",
            "5",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let (ok, stdout, stderr) = lcda(&args);
        assert!(ok, "{stderr}");
        let read = |path: &std::path::Path| std::fs::read(path).expect("written");
        (stdout, read(&ckpt), read(&journal))
    };
    let cached = run("cached", &[]);
    let uncached = run("uncached", &["--no-cache"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cached.0, uncached.0, "stdout");
    assert!(cached.1 == uncached.1, "the checkpoint logs differ");
    assert!(cached.2 == uncached.2, "the journals differ");
}

#[test]
fn checkpointed_search_resumes_to_identical_outcome() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lcda-cli-ckpt-{}.json", std::process::id()));
    let path_s = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);

    // The uninterrupted reference run.
    let (ok, full, _) = lcda(&["search", "--episodes", "4", "--seed", "6", "--json"]);
    assert!(ok);

    // A shorter run writes a partial checkpoint (2 of 4 episodes)…
    let (ok, _, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--seed",
        "6",
        "--checkpoint",
        path_s,
    ]);
    assert!(ok, "{stderr}");
    assert!(path.exists());

    // …and resuming with the full budget completes the remaining episodes.
    let (ok, resumed, stderr) = lcda(&[
        "search",
        "--episodes",
        "4",
        "--seed",
        "6",
        "--checkpoint",
        path_s,
        "--resume",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(resumed, full, "resumed run diverged from uninterrupted run");

    // Resuming a finished run replays it and returns the same outcome.
    let (ok, replayed, stderr) = lcda(&[
        "search",
        "--episodes",
        "4",
        "--seed",
        "6",
        "--checkpoint",
        path_s,
        "--resume",
        "--json",
    ]);
    assert!(ok, "{stderr}");
    assert_eq!(replayed, full);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("tmp"));
}

#[test]
fn resume_with_missing_checkpoint_starts_fresh() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lcda-cli-missing-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let path_s = path.to_str().unwrap();
    let (ok, stdout, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--seed",
        "1",
        "--checkpoint",
        path_s,
        "--resume",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("starting a fresh run"), "{stderr}");
    assert!(stdout.contains("best:"));
    assert!(path.exists(), "fresh run still writes the checkpoint");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn numeric_flags_are_validated_at_parse_time() {
    // Zero kept generations would silently disable checkpointing.
    let (ok, _, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--checkpoint",
        "/tmp/never-written.json",
        "--keep-checkpoints",
        "0",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--keep-checkpoints must be at least 1"),
        "{stderr}"
    );

    // Zero evaluator threads is refused with serve's message for the
    // same mistake in a job spec.
    let (ok, _, stderr) = lcda(&["search", "--episodes", "2", "--threads", "0"]);
    assert!(!ok);
    assert!(stderr.contains("threads must be at least 1"), "{stderr}");

    // Overflowing u32 budgets fail loudly instead of truncating: 2^32 + 1
    // must not run one evaluation, nor 2^32 read as zero.
    for command in ["search", "front"] {
        for episodes in ["99999999999", "4294967297", "4294967296"] {
            let (ok, stdout, stderr) = lcda(&[command, "--episodes", episodes]);
            assert!(!ok, "{command} --episodes {episodes}: {stdout}");
            assert!(stderr.contains("exceeds the supported range"), "{stderr}");
        }
    }
}

#[test]
fn shard_flags_are_validated() {
    // A removed flag fails like any other unknown flag instead of being
    // ignored by a serial search.
    let (ok, stdout, stderr) = lcda(&["search", "--shards", "2"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(stderr.contains("unknown flag `--shards`"), "{stderr}");
}

#[test]
fn report_exits_nonzero_on_salvaged_journals() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lcda-cli-salvage-{}.jsonl", std::process::id()));
    let path_s = path.to_str().unwrap();
    let _ = std::fs::remove_file(&path);

    let (ok, _, stderr) = lcda(&[
        "search",
        "--episodes",
        "2",
        "--seed",
        "4",
        "--journal",
        path_s,
    ]);
    assert!(ok, "{stderr}");

    // An intact journal reports cleanly.
    let (ok, stdout, stderr) = lcda(&["report", path_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("episodes"), "{stdout}");

    // Tear the tail: a crash mid-write leaves half a JSON line.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("{}{}", text, "{\"event\":\"run_en")).unwrap();

    let (ok, stdout, stderr) = lcda(&["report", path_s]);
    assert!(!ok, "salvaged journal must fail the report");
    assert!(
        stdout.contains("episodes"),
        "the partial report still renders"
    );
    assert!(stderr.contains("salvaged"), "{stderr}");
    assert!(stderr.contains("--allow-truncated"), "{stderr}");

    // The escape hatch accepts the partial story explicitly.
    let (ok, stdout, stderr) = lcda(&["report", path_s, "--allow-truncated"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("episodes"), "{stdout}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn resilient_search_with_faults_matches_fault_free_search() {
    // The simulated fault layer is gone: a search that asks for the
    // `resilient` optimizer or for injected LLM faults is refused by name
    // instead of silently running something else.
    let (ok, _, stderr) = lcda(&["search", "--episodes", "2", "--optimizer", "resilient"]);
    assert!(!ok);
    assert!(stderr.contains("unknown optimizer `resilient`"), "{stderr}");
    assert!(stderr.contains("expert|finetuned"), "{stderr}");
    for flag in ["--fault-rate", "--fault-seed"] {
        let (ok, _, stderr) = lcda(&["search", "--episodes", "2", flag, "0.3"]);
        assert!(!ok, "{flag} must be refused");
        assert!(stderr.contains("unknown flag"), "{stderr}");
        assert!(stderr.contains(flag), "{stderr}");
    }

    // The fault-free expert search the resilient stack was transparent
    // to is what remains, and it is still reproducible byte for byte.
    let expert = || {
        let (ok, stdout, stderr) = lcda(&[
            "search",
            "--optimizer",
            "expert",
            "--episodes",
            "3",
            "--seed",
            "2",
            "--json",
        ]);
        assert!(ok, "{stderr}");
        stdout
    };
    let first = expert();
    assert!(first.contains("\"best\""), "{first}");
    assert_eq!(first, expert());
}
