//! `lcda` — command-line front end to the co-design framework.
//!
//! ```sh
//! lcda search --optimizer expert --objective energy --episodes 20 --seed 42
//! lcda search --optimizer rl --checkpoint run.json --resume
//! lcda serve --workers 2 --journal-dir runs --cache store.json
//! lcda evaluate --design "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]] | hw: [128,8,2,rram]"
//! lcda front --episodes 240 --seed 1
//! lcda reference
//! ```

use lcda::core::mo::MultiObjectiveCoDesign;
use lcda::core::HwHierarchy;
use lcda::llm::parse::parse_design;
use lcda::prelude::*;
use std::io::{BufWriter, ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
lcda — LLM-guided SW/HW co-design of CiM DNN accelerators

USAGE:
    lcda <command> [options]

COMMANDS:
    search      run a co-design search
    serve       run searches as HTTP jobs over one shared cross-run cache
    evaluate    score one design (accuracy, energy, latency, reward)
    front       evolve the accuracy-cost Pareto front with NSGA-II
    reference   print the ISAAC reference design's metrics
    report      summarize a run journal written with --journal
    help        show this message

SEARCH OPTIONS:
    --optimizer <expert|finetuned|adaptive|naive|rl|genetic|random>
                                                             (default expert)
    --objective <energy|latency>                             (default energy)
    --hw-config <path>      declarative hardware hierarchy JSON for the
                            cim cost model to lower from (see configs/hw/)
                                                  (default: built-in ISAAC)
    --episodes <n>                                           (default 20)
    --seed <n>                                               (default 0)
    --checkpoint <path>     keep a checkpoint log: after every episode,
                            append one checksummed JSON line holding that
                            episode, fsynced (a memoizing run, such as
                            --evaluator trained, adds its new memo entries)
    --keep-checkpoints <n>  checkpoint logs kept on disk; a run of another
                            config starts a new log and rotates the older
                            ones to <path>.1, <path>.2, ...; resume salvages
                            a torn last line and falls back to the newest
                            *valid* log; requires --checkpoint (default 1)
    --resume                resume from --checkpoint if it exists; with
                            --journal, repair and extend the journal too
    --threads <n>           evaluator worker threads; results are
                            bit-identical for every value     (default 1)
    --evaluator <surrogate|trained>
                            accuracy evaluator: the fast analytic surrogate
                            or real noise-injection training plus
                            Monte-Carlo evaluation, one chip instance at
                            a time                           (default surrogate)
    --no-cache              never memoize evaluations; without it, only
                            runs with --evaluator trained memoize (a
                            surrogate or cim call costs less than a lookup)
    --journal <path>        stream a JSONL event journal of the run
                            (deterministic: same seed, same bytes)
    --json                                                   emit JSON

SERVE OPTIONS:
    --addr <host:port>      listen address; port 0 picks an ephemeral port,
                            printed on stdout at startup (default 127.0.0.1:0)
    --workers <n>           concurrent search workers; with 1, jobs run
                            strictly in admission order      (default 2)
    --cache-capacity <n>    entry bound for the shared cross-run cache,
                            evicting oldest admissions first; also bounds
                            a store loaded from --cache     (default unbounded)
    --cache <path>          persist the shared cache across restarts: loaded
                            at startup, saved atomically when a job that
                            added entries ends and at shutdown
    --journal-dir <dir>     write one JSONL journal per job (job-<n>.jsonl),
                            enable GET /jobs/<id>/journal streaming, and keep
                            a durable job ledger (jobs.wal.jsonl) plus per-job
                            checkpoints and result files: after kill -9, a
                            restart on the same directory recovers every
                            acknowledged job byte-identically
    --queue-capacity <n>    bound on queued admissions; a full queue answers
                            POST /jobs with 429 + Retry-After (default 1024)
    --checkpoint-every <n>  per-job checkpoint cadence, episodes (default 1)
    a job spec may set \"deadline_secs\": a wall-clock deadline enforced at
    episode boundaries; expiry fails the job with deadline_exceeded
    a job whose search panics fails with the panic's message (not retried:
    the search is deterministic); its worker takes the next job
    endpoints: POST /jobs · GET /jobs/<id> · GET /jobs/<id>/result
               POST /jobs/<id>/cancel · GET /jobs/<id>/journal
               GET /stats · GET /healthz · GET /readyz · POST /shutdown

EVALUATE OPTIONS:
    --design <rollout text>     e.g. \"[[32,3],...,[128,3]] | hw: [128,8,2,rram]\"
    --objective <energy|latency>
    --hw-config <path>      declarative hardware hierarchy JSON
    --evaluator <surrogate|trained>      accuracy evaluator (default surrogate)
    --journal <path>        stream a JSONL event journal of the evaluation
    --json

REFERENCE OPTIONS:
    --hw-config <path>      declarative hardware hierarchy JSON
    --json

FRONT OPTIONS:
    --episodes <n>   (default 240)    --seed <n>    --objective <energy|latency>

REPORT USAGE:
    lcda report <journal.jsonl> [--allow-truncated]
                print the journal's event counts, overall and per
                phase (journals hold no timings); exits non-zero if
                the journal was salvaged (torn tail / dropped lines)
                unless --allow-truncated is passed
";

/// Flags an earlier build took, each refused by name with where its
/// behaviour went instead of as an unknown flag.
const RETIRED_FLAGS: &[(&str, &str)] = &[
    (
        "--backend",
        "the hardware cost model is always `cim`; name a hardware hierarchy \
         with --hw-config <path>",
    ),
    (
        "--cache-flush-secs",
        "serve saves the --cache store when a job that added entries ends \
         and at shutdown",
    ),
    (
        "--job-deadline",
        "give each job its own wall-clock deadline with the spec's \"deadline_secs\"",
    ),
    (
        "--precision",
        "the trained evaluator's Monte-Carlo pass always runs in f32; \
         int8 inference was removed",
    ),
];

/// Minimal flag parser: `--key value` pairs plus boolean flags, with
/// strict validation — unknown flags are a usage error, not a silent
/// no-op (a `--episode` typo must not run 20 episodes with defaults).
struct Args {
    items: Vec<String>,
}

impl Args {
    /// Rejects anything that is not a listed value flag (with its value)
    /// or a listed boolean flag, a flag given twice (`get` would keep
    /// the first and drop the rest), and a value that looks like a flag
    /// (`--journal --json` must not write a file named `--json`).
    fn validate(&self, value_flags: &[&str], bool_flags: &[&str]) -> Result<(), String> {
        match self.positionals(value_flags, bool_flags)?.first() {
            Some(item) => Err(format!("unexpected argument `{item}` (see `lcda help`)")),
            None => Ok(()),
        }
    }

    /// [`Args::validate`]'s flag rules, returning the positional
    /// arguments instead of refusing them.
    fn positionals(&self, value_flags: &[&str], bool_flags: &[&str]) -> Result<Vec<&str>, String> {
        let is_flag = |a: &str| value_flags.contains(&a) || bool_flags.contains(&a);
        let mut seen: Vec<&str> = Vec::new();
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < self.items.len() {
            let item = self.items[i].as_str();
            if is_flag(item) {
                if seen.contains(&item) {
                    return Err(format!("{item} is given more than once"));
                }
                seen.push(item);
            }
            if value_flags.contains(&item) {
                match self.items.get(i + 1).map(String::as_str) {
                    None => return Err(format!("{item} expects a value")),
                    Some(value) if value.starts_with("--") => {
                        return Err(format!("{item} expects a value, got the flag `{value}`"))
                    }
                    Some(_) => {}
                }
                i += 2;
            } else if bool_flags.contains(&item) {
                i += 1;
            } else if let Some((_, why)) = RETIRED_FLAGS.iter().find(|(flag, _)| *flag == item) {
                return Err(format!("{item} is not accepted: {why}"));
            } else if item.starts_with('-') {
                return Err(format!("unknown flag `{item}` (see `lcda help`)"));
            } else {
                positionals.push(item);
                i += 1;
            }
        }
        Ok(positionals)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.items
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.items.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.items.iter().any(|a| a == key)
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} expects a number, got `{v}`")),
        }
    }

    /// A `u32`-ranged value flag: overflowing values are a parse-time
    /// error, never a silent `as` truncation.
    fn num_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        u32::try_from(self.num(key, u64::from(default))?)
            .map_err(|_| format!("{key} exceeds the supported range (max {})", u32::MAX))
    }

    /// A `usize`-ranged value flag, checked like [`Args::num_u32`].
    fn num_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        usize::try_from(self.num(key, default as u64)?)
            .map_err(|_| format!("{key} exceeds the supported range"))
    }

    fn objective(&self) -> Result<Objective, String> {
        Objective::from_name(self.get("--objective").unwrap_or("energy")).map_err(|e| e.to_string())
    }

    /// The `--hw-config` hierarchy, loaded and validated once, so a bad
    /// file fails before any work starts. Its errors tell an unreadable
    /// file from invalid content and name the offending field.
    fn hw_config(&self) -> Result<Option<HwHierarchy>, String> {
        self.get("--hw-config")
            .map(|path| HwHierarchy::load(std::path::Path::new(path)).map_err(|e| e.to_string()))
            .transpose()
    }
}

/// Why a command stopped early.
enum Failure {
    /// An error to report on stderr.
    Message(String),
    /// Writing to stdout failed.
    Stdout(std::io::Error),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Message(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Message(msg.to_string())
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Stdout(e)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args {
        items: argv[1..].to_vec(),
    };
    // Every command prints through this one buffered handle.
    let mut out = BufWriter::new(std::io::stdout().lock());
    let result = match command.as_str() {
        "search" => cmd_search(&args, &mut out),
        "serve" => cmd_serve(&args, &mut out),
        "evaluate" => cmd_evaluate(&args, &mut out),
        "front" => cmd_front(&args, &mut out),
        "reference" => cmd_reference(&args, &mut out),
        "report" => cmd_report(&args, &mut out),
        "help" | "--help" | "-h" => write!(out, "{USAGE}").map_err(Failure::from),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}").into()),
    };
    // What a failed command printed first (a salvaged `report`) still
    // reaches stdout.
    let flushed = out.flush().map_err(Failure::from);
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe early (`lcda search --json | head`).
        // Journals and checkpoints are complete before anything prints,
        // so the run itself succeeded.
        Err(Failure::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Stdout(e)) => {
            eprintln!("error: writing stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Message(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--evaluator` into an optional replacement for the default
/// surrogate accuracy evaluator. Returns `None` for the surrogate (the
/// default), so surrogate runs are byte-identical to builds that predate
/// the flag.
fn parse_evaluator(args: &Args, seed: u64) -> Result<Option<Box<dyn AccuracyEvaluator>>, String> {
    match args.get("--evaluator") {
        None | Some("surrogate") => Ok(None),
        Some("trained") => {
            let mut cfg = TrainedEvalConfig::search_default();
            cfg.seed = seed;
            let eval = TrainedEvaluator::new(DesignSpace::nacim_cifar10(), cfg)
                .map_err(|e| e.to_string())?;
            Ok(Some(Box::new(eval)))
        }
        Some(other) => Err(format!(
            "unknown evaluator `{other}` (surrogate or trained)"
        )),
    }
}

fn cmd_search(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.validate(
        &[
            "--optimizer",
            "--objective",
            "--hw-config",
            "--episodes",
            "--seed",
            "--checkpoint",
            "--keep-checkpoints",
            "--threads",
            "--evaluator",
            "--journal",
        ],
        &["--json", "--resume", "--no-cache"],
    )?;
    let objective = args.objective()?;
    let hw = args.hw_config()?;
    let episodes = args.num_u32("--episodes", 20)?;
    let seed = args.num("--seed", 0)?;
    let threads = args.num_usize("--threads", 1)?;
    if threads == 0 {
        return Err("threads must be at least 1".into());
    }
    let spec = OptimizerSpec::from_name(args.get("--optimizer").unwrap_or("expert"))
        .map_err(|e| e.to_string())?;

    let evaluator = parse_evaluator(args, seed)?;

    let checkpoint_path = args.get("--checkpoint").map(PathBuf::from);
    let keep_checkpoints = args.num_u32("--keep-checkpoints", 1)?;
    if keep_checkpoints == 0 {
        return Err("--keep-checkpoints must be at least 1".into());
    }
    let resume = args.flag("--resume");
    if resume && checkpoint_path.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    if args.get("--keep-checkpoints").is_some() && checkpoint_path.is_none() {
        return Err("--keep-checkpoints requires --checkpoint <path>".into());
    }

    let space = DesignSpace::nacim_cifar10();
    let config = CoDesignConfig::builder(objective)
        .episodes(episodes)
        .seed(seed)
        .build();
    let journal = match args.get("--journal") {
        // Resuming over an existing journal repairs a torn trailing line
        // (a mid-write kill) and appends; anything else starts fresh.
        Some(path) if resume && std::path::Path::new(path).exists() => {
            Journal::resume_file(std::path::Path::new(path)).map_err(|e| e.to_string())?
        }
        Some(path) => Journal::to_file(std::path::Path::new(path)).map_err(|e| e.to_string())?,
        None => Journal::disabled(),
    };
    let store = checkpoint_path
        .as_ref()
        .map(|path| CheckpointStore::new(path, keep_checkpoints).map_err(|e| e.to_string()))
        .transpose()?;
    let mut builder = CoDesign::builder(space, config)
        .optimizer(spec)
        .threads(threads)
        .caching(!args.flag("--no-cache"))
        .journal(journal.clone());
    if let Some(eval) = evaluator {
        builder = builder.accuracy_evaluator(eval);
    }
    if let Some(hw) = hw {
        builder = builder.hw_config(hw);
    }
    let run = builder.build();

    let resume_from = match (&store, resume) {
        (Some(store), true) => match store.load_latest().map_err(|e| e.to_string())? {
            Some((cp, generation)) => {
                if generation > 0 {
                    eprintln!(
                        "newest checkpoint generation is corrupt; \
                         resuming from generation {generation}"
                    );
                }
                Some(cp)
            }
            None => {
                eprintln!(
                    "checkpoint {} not found; starting a fresh run",
                    checkpoint_path
                        .as_deref()
                        .unwrap_or_else(|| std::path::Path::new("?"))
                        .display()
                );
                None
            }
        },
        _ => None,
    };

    let outcome = run
        .map_err(|e| e.to_string())?
        .run_resumable(resume_from, |cp| {
            if let Some(store) = &store {
                store.save(cp)?;
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    journal.finish().map_err(|e| e.to_string())?;

    if args.flag("--json") {
        lcda_base::json::to_writer_pretty(out, &outcome)?;
        writeln!(out)?;
        return Ok(());
    }
    let hw = args
        .get("--hw-config")
        .map(|path| format!(" on {path}"))
        .unwrap_or_default();
    writeln!(
        out,
        "{} · {} · backend {DEFAULT_BACKEND}{hw} · {episodes} episodes · seed {seed}\n",
        outcome.optimizer,
        objective.name()
    )?;
    writeln!(out, "episode  reward    accuracy  design")?;
    for r in &outcome.history {
        writeln!(
            out,
            "{:>7}  {:>+7.3}   {:>6.3}    {}",
            r.episode, r.reward, r.accuracy, r.design
        )?;
    }
    writeln!(
        out,
        "\nbest: {} (reward {:+.3})",
        outcome.best.design, outcome.best.reward
    )?;
    Ok(())
}

fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.validate(
        &[
            "--addr",
            "--workers",
            "--cache-capacity",
            "--cache",
            "--journal-dir",
            "--queue-capacity",
            "--checkpoint-every",
        ],
        &[],
    )?;
    let mut config = ServeConfig::default();
    if let Some(addr) = args.get("--addr") {
        config.addr = addr.to_string();
    }
    config.workers = args.num_usize("--workers", config.workers)?;
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if args.get("--cache-capacity").is_some() {
        let capacity = args.num_usize("--cache-capacity", 1)?;
        if capacity == 0 {
            return Err("--cache-capacity must be at least 1".into());
        }
        config.cache_capacity = Some(capacity);
    }
    config.cache_path = args.get("--cache").map(PathBuf::from);
    config.journal_dir = args.get("--journal-dir").map(PathBuf::from);
    config.queue_capacity = args.num_usize("--queue-capacity", config.queue_capacity)?;
    if config.queue_capacity == 0 {
        return Err("--queue-capacity must be at least 1".into());
    }
    config.checkpoint_every = args.num_u32("--checkpoint-every", config.checkpoint_every)?;
    if config.checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    let server = JobServer::bind(config).map_err(|e| e.to_string())?;
    // Flushed at once, so the address line is visible to a supervising
    // script even when stdout is redirected to a file.
    writeln!(out, "lcda serve listening on http://{}", server.addr())?;
    out.flush()?;
    server.wait().map_err(|e| Failure::Message(e.to_string()))
}

/// Scores one design text and prints it — shared by `evaluate` and
/// `reference`.
fn evaluate_design_text(
    out: &mut dyn Write,
    text: &str,
    objective: Objective,
    hw: Option<HwHierarchy>,
    json: bool,
    journal: &Journal,
    evaluator: Option<Box<dyn AccuracyEvaluator>>,
) -> Result<(), Failure> {
    let space = DesignSpace::nacim_cifar10();
    let design = parse_design(text, &space.choices).map_err(|e| e.to_string())?;
    let config = CoDesignConfig::builder(objective)
        .episodes(1)
        .seed(0)
        .build();
    let mut builder = CoDesign::builder(space, config)
        .optimizer(OptimizerSpec::Random)
        .journal(journal.clone());
    if let Some(eval) = evaluator {
        builder = builder.accuracy_evaluator(eval);
    }
    if let Some(hw) = hw {
        builder = builder.hw_config(hw);
    }
    let mut scorer = builder.build().map_err(|e| e.to_string())?;
    let record = scorer
        .evaluate_design(0, design)
        .map_err(|e| e.to_string())?;
    journal.finish().map_err(|e| e.to_string())?;
    if json {
        lcda_base::json::to_writer_pretty(out, &record)?;
        writeln!(out)?;
        return Ok(());
    }
    writeln!(out, "design   {}", record.design)?;
    writeln!(out, "reward   {:+.4} ({})", record.reward, objective.name())?;
    writeln!(out, "accuracy {:.4}", record.accuracy)?;
    match &record.hw {
        Some(hw) => {
            writeln!(
                out,
                "energy   {:.4e} pJ   ({:.3}x ISAAC)",
                hw.energy_pj,
                hw.energy_pj / 8.0e7
            )?;
            match hw.fps() {
                Some(fps) => writeln!(out, "latency  {:.0} ns   ({fps:.0} FPS)", hw.latency_ns)?,
                None => writeln!(out, "latency  {:.0} ns   (FPS undefined)", hw.latency_ns)?,
            }
            writeln!(out, "area     {:.3} mm²", hw.area_mm2)?;
            writeln!(out, "leakage  {:.1} µW", hw.leakage_uw)?;
        }
        None => writeln!(out, "hardware INVALID (over area budget) → reward -1")?,
    }
    Ok(())
}

fn cmd_evaluate(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.validate(
        &[
            "--design",
            "--objective",
            "--hw-config",
            "--evaluator",
            "--journal",
        ],
        &["--json"],
    )?;
    let text = args
        .get("--design")
        .ok_or("evaluate requires --design <rollout text>")?;
    let objective = args.objective()?;
    let hw = args.hw_config()?;
    let evaluator = parse_evaluator(args, 0)?;
    let journal = match args.get("--journal") {
        Some(path) => Journal::to_file(std::path::Path::new(path)).map_err(|e| e.to_string())?,
        None => Journal::disabled(),
    };
    evaluate_design_text(
        out,
        text,
        objective,
        hw,
        args.flag("--json"),
        &journal,
        evaluator,
    )
}

fn cmd_front(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.validate(&["--episodes", "--seed", "--objective"], &[])?;
    let objective = args.objective()?;
    let episodes = args.num_u32("--episodes", 240)?;
    let seed = args.num("--seed", 0)?;
    let mut run =
        MultiObjectiveCoDesign::new(DesignSpace::nacim_cifar10(), objective, episodes, seed)
            .map_err(|e| e.to_string())?;
    let outcome = run.run().map_err(|e| e.to_string())?;
    let mut front = outcome.front;
    front.sort_by(|a, b| a.2.total_cmp(&b.2));
    let unit = match objective {
        Objective::AccuracyEnergy => "pJ",
        Objective::AccuracyLatency => "ns",
    };
    writeln!(
        out,
        "NSGA-II front after {episodes} evaluations ({}):\n",
        objective.name()
    )?;
    for (d, acc, cost) in &front {
        writeln!(out, "  acc {acc:.3} @ {cost:.4e} {unit}   {d}")?;
    }
    Ok(())
}

fn cmd_reference(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    args.validate(&["--hw-config"], &["--json"])?;
    let space = DesignSpace::nacim_cifar10();
    let text = space.reference_design().to_response_text();
    evaluate_design_text(
        out,
        &text,
        Objective::AccuracyEnergy,
        args.hw_config()?,
        args.flag("--json"),
        &Journal::disabled(),
        None,
    )
}

fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<(), Failure> {
    let positional = args.positionals(&[], &["--allow-truncated"])?;
    let allow_truncated = args.flag("--allow-truncated");
    let [path] = positional.as_slice() else {
        return Err("report expects exactly one argument: <journal.jsonl>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let report = RunReport::from_jsonl(&text).map_err(|e| e.to_string())?;
    write!(out, "{}", report.render())?;
    // Salvage must be loud: a torn tail or dropped lines mean the
    // journal does not tell the whole story, so the default is a
    // non-zero exit — CI pipelines must opt in to accept it.
    if (report.truncated || report.dropped_lines > 0) && !allow_truncated {
        return Err(Failure::Message(format!(
            "journal was salvaged (truncated tail: {}, dropped lines: {}); \
             pass --allow-truncated to accept a partial report",
            report.truncated, report.dropped_lines
        )));
    }
    Ok(())
}
