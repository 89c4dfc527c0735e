//! End-to-end and per-layer benchmark of Qymera's SQL simulation backend.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <deep_chain|wide_spill|durable_steps> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs one circuit at a time (a closed loop), each through
//! `SqlSimulator::run` on a fresh database, and checks every result against
//! the statevector oracle. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced circuits with traced ones and reports the
//! per-layer metrics. The last line of standard output is one JSON object;
//! the lines before it print every metric by name with its unit.

mod measure;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use measure::{run_untraced, Case, Counters};
use trace::{trace_circuit, Layers, Tracer, LAYERS};
use workload::Workload;

/// Set-up (circuits, oracles, one warm-up circuit) is repeated this many
/// times per run and its median reported as `setup_s`.
const SETUP_REPEATS: usize = 3;

/// WAL fsync policy of `durable_steps`. Not the engine default (`commit`):
/// on the shared disk this benchmark was sized on, fsync latency drifted
/// about fourfold within an hour, and with it `durable_steps` latency spread
/// 22–31% between runs, past any usable bound. With `off` the WAL is still
/// framed, checksummed, appended, checkpointed and replayed; only the
/// flush to stable storage is skipped (see `perfbench/NOTES.md`).
const FSYNC: &str = "off";

/// Environment knobs that would silently change what is measured.
const REFUSED_ENV: [&str; 3] = ["QYMERA_PARALLELISM", "QYMERA_FSYNC", "QYMERA_TIMEOUT_MS"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it would override the measured configuration");
        std::process::exit(2);
    }
    // Every file the engine writes (spill runs, durable databases) stays
    // under this run's own directory, removed at the end.
    let work = PathBuf::from("perfbench/out").join(format!("run-{}", std::process::id()));
    let tmp = work.join("tmp");
    if let Err(e) = fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let tmp = fs::canonicalize(&tmp).expect("just created");
    // Single-threaded here, before any engine thread exists.
    std::env::set_var("TMPDIR", &tmp);
    // `SqlSimConfig` has no fsync setting; the engine reads this variable.
    // See `FSYNC` for why the WAL is not forced to disk.
    std::env::set_var("QYMERA_FSYNC", FSYNC);
    let outcome = run(&args, &work);
    let _ = fs::remove_dir_all(&work);
    match outcome {
        Ok(result_line) => println!("{result_line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Engine parallelism: `min(2, nproc)`, so never more threads than cores.
fn parallelism() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    (nproc, nproc.min(2))
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let (nproc, par) = parallelism();
    println!(
        "env workload={} seed={} seconds={} trace={} nproc={nproc} parallelism={par} \
         fsync={} memory_limit={} git_revision={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if w.durable() {
            FSYNC
        } else {
            "none (in-memory)"
        },
        w.memory_limit()
            .map_or("unlimited".to_string(), |b| format!("{b}B")),
        git_revision(),
    );

    let mut findings = Findings::default();
    let mut setup_s = Vec::new();
    let mut cases = Vec::new();
    for rep in 0..SETUP_REPEATS {
        let start = Instant::now();
        cases = w.circuits(args.seed).into_iter().map(Case::new).collect();
        let warm = run_untraced(w, &cases[0], par, work, u64::MAX - rep as u64);
        setup_s.push(start.elapsed().as_secs_f64());
        findings.record(0, warm.counters);
        if let Some(e) = warm.error {
            findings.failures.push(format!("warm-up circuit: {e}"));
        }
    }

    let mut untraced = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let mut tracer = Tracer::new();
    let mut attempted = SETUP_REPEATS as u64;
    let start = Instant::now();
    let mut cycle_start = 0.0;
    let mut i = 0u64;
    loop {
        let j = (i % cases.len() as u64) as usize;
        let out = run_untraced(w, &cases[j], par, work, i);
        attempted += 1;
        findings.record(j, out.counters);
        if let Some(e) = &out.error {
            findings.failures.push(format!("circuit {i}: {e}"));
        }
        untraced.push(out);
        if args.trace {
            attempted += 1;
            match trace_circuit(w, &cases[j], par, work, &mut tracer, i) {
                Ok(l) => {
                    findings.record_profile(j, &l);
                    traced.push(l);
                }
                Err(e) => findings.failures.push(format!("traced circuit {i}: {e}")),
            }
        }
        i += 1;
        // Stop only after whole cycles, so every circuit of the workload
        // weighs the same in the medians: at the cycle boundary nearest to
        // `--seconds`, judged by the length of the cycle just ended.
        if i.is_multiple_of(cases.len() as u64) {
            let now = start.elapsed().as_secs_f64();
            let cycle_s = now - cycle_start;
            cycle_start = now;
            if now + cycle_s / 2.0 >= args.seconds {
                break;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let failed = findings.failures.len() as u64;
    for f in findings.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    for f in &findings.counter_drift {
        println!("FINDING exact counter changed between repeats of one circuit: {f}");
    }
    let mut report = Report::default();
    report_end_to_end(
        &mut report,
        &untraced,
        &findings,
        &setup_s,
        wall_s,
        attempted,
        failed,
    );
    let metrics = if args.trace {
        let path = PathBuf::from("perfbench/out").join(format!(
            "spans-{}-seed{}.jsonl",
            w.name(),
            args.seed
        ));
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        report_layers(&mut report, &untraced, &traced, &findings);
        report.per_layer
    } else {
        report.end_to_end
    };
    let correct = failed == 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// Failures and exact-counter drift collected over a run.
#[derive(Default)]
struct Findings {
    failures: Vec<String>,
    /// First-seen counters per circuit of the workload.
    first: BTreeMap<usize, Counters>,
    first_profile: BTreeMap<usize, Vec<(&'static str, f64)>>,
    counter_drift: Vec<String>,
}

/// Per-layer values that are exact counts, checked for drift.
const EXACT_LAYER_VALUES: [&str; 7] = [
    "translate.gate_ops",
    "translate.sql_bytes",
    "sqldb.exec.aggregate_rows",
    "sqldb.exec.join_rows",
    "sqldb.exec.batches",
    "sqldb.exec.morsels",
    "sqldb.exec.workers",
];

impl Findings {
    fn record(&mut self, circuit: usize, c: Counters) {
        if c == Counters::default() {
            return; // the run failed before producing counters
        }
        let first = *self.first.entry(circuit).or_insert(c);
        if first != c {
            self.counter_drift
                .push(format!("circuit {circuit}: first {first:?}, now {c:?}"));
        }
    }

    fn record_profile(&mut self, circuit: usize, l: &Layers) {
        let now: Vec<_> = EXACT_LAYER_VALUES
            .iter()
            .map(|&k| (k, l.values.get(k).copied().unwrap_or(0.0)))
            .collect();
        let first = self
            .first_profile
            .entry(circuit)
            .or_insert_with(|| now.clone());
        if *first != now {
            self.counter_drift.push(format!(
                "circuit {circuit} profile: first {first:?}, now {now:?}"
            ));
        }
    }

    /// Mean over the workload's circuits of a first-seen counter; every
    /// circuit appears once, so the value is exact for a given seed.
    fn mean(&self, f: impl Fn(&Counters) -> u64) -> f64 {
        self.first.values().map(|c| f(c) as f64).sum::<f64>() / self.first.len().max(1) as f64
    }
}

#[derive(Default)]
struct Report {
    end_to_end: Vec<String>,
    per_layer: Vec<String>,
}

impl Report {
    fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        println!("metric {name} = {value} {unit}");
        self.end_to_end.push(json_metric(name, value, unit));
    }

    fn layer(&mut self, name: &str, value: f64, unit: &str) {
        println!("layer {name} = {value} {unit}");
        self.per_layer.push(json_metric(name, value, unit));
    }
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; a metric that cannot be computed is 0.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn report_end_to_end(
    r: &mut Report,
    runs: &[measure::Outcome],
    findings: &Findings,
    setup_s: &[f64],
    wall_s: f64,
    attempted: u64,
    failed: u64,
) {
    let mut lat: Vec<f64> = runs.iter().map(|o| o.latency_s).collect();
    lat.sort_by(f64::total_cmp);
    let busy: f64 = lat.iter().sum();
    let correct = runs.iter().filter(|o| o.error.is_none()).count();
    let (tail_label, tail) = tail(&lat);
    println!(
        "samples n={} wall_s={wall_s} busy_s={busy} latency_tail={tail_label}",
        lat.len()
    );
    let in_order: Vec<String> = runs.iter().map(|o| format!("{:.4}", o.latency_s)).collect();
    println!("latencies_s in run order: {}", in_order.join(" "));
    r.e2e("circuits_per_s", correct as f64 / busy, "1/s");
    r.e2e("latency_p50_s", median(&lat), "s");
    r.e2e("latency_tail_s", tail, "s");
    r.e2e(
        "peak_memory_bytes",
        findings.mean(|c| c.peak_memory_bytes),
        "bytes",
    );
    r.e2e("setup_s", median(setup_s), "s");
    // Printed for every workload, but not part of the gated JSON: each is
    // 0 (or absent) on some workload, so a relative bound cannot apply.
    println!(
        "metric spill_bytes = {} bytes",
        findings.mean(|c| c.spill_bytes)
    );
    println!(
        "metric durable_bytes = {} bytes",
        findings.mean(|c| c.durable_bytes)
    );
    let mut rec: Vec<f64> = runs.iter().filter_map(|o| o.recovery_s).collect();
    rec.sort_by(f64::total_cmp);
    println!(
        "metric recovery_s = {} s",
        if rec.is_empty() { 0.0 } else { median(&rec) }
    );
    println!(
        "metric failed_fraction = {} ratio",
        failed as f64 / attempted as f64
    );
}

fn report_layers(
    r: &mut Report,
    runs: &[measure::Outcome],
    traced: &[Layers],
    findings: &Findings,
) {
    let med = |f: &dyn Fn(&Layers) -> f64| -> f64 {
        let mut v: Vec<f64> = traced.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let logical: f64 = traced.iter().map(|l| l.logical_s).sum();
    println!(
        "traced circuits n={}; layer self time (median per circuit) and share of circuit time:",
        traced.len()
    );
    for layer in LAYERS {
        let total: f64 = traced.iter().map(|l| l.layer_s[layer]).sum();
        println!(
            "  {layer:<22} {:>12.6} s {:>7.2} %",
            med(&|l| l.layer_s[layer]),
            100.0 * total / logical
        );
    }
    let mut lat: Vec<f64> = runs.iter().map(|o| o.latency_s).collect();
    lat.sort_by(f64::total_cmp);
    let untraced_p50 = median(&lat);
    let traced_p50 = med(&|l| l.logical_s);
    let overhead = 100.0 * (traced_p50 - untraced_p50) / untraced_p50;
    println!(
        "tracing overhead: traced latency_p50_s={traced_p50} vs untraced latency_p50_s={untraced_p50} ({overhead:+.2} %)"
    );

    for (name, layer) in [
        ("translate.lower_s", "translate.lower"),
        ("translate.sqlgen_s", "translate.sqlgen"),
        ("translate.load_s", "translate.load"),
        ("sqldb.open_s", "sqldb.open"),
        ("sqldb.parse_s", "sqldb.parser"),
        ("sqldb.plan_s", "sqldb.plan"),
        ("sqldb.optimize_s", "sqldb.plan.optimizer"),
        ("sqldb.residue_s", "sqldb.residue"),
    ] {
        r.layer(name, med(&|l| l.layer_s[layer]), "s");
    }
    let exec = med(&|l| l.layer_s["sqldb.exec"] + l.layer_s["sqldb.storage.spill"]);
    r.layer("sqldb.exec_s", exec, "s");
    for name in [
        "sqldb.exec.aggregate_self_s",
        "sqldb.exec.join_self_s",
        "sqldb.exec.sort_self_s",
        "sqldb.exec.project_self_s",
        "sqldb.execute_s",
        "sqldb.spill.exec_extra_s",
        "sqldb.wal.ctas_s",
        "sqldb.mem.ctas_s",
        "sqldb.wal.drop_s",
        "sqldb.wal.extra_s",
        "sqldb.wal.checkpoint_s",
        "ref.statevector_s",
        "ref.sparse_s",
    ] {
        r.layer(
            name,
            med(&|l| l.values.get(name).copied().unwrap_or(0.0)),
            "s",
        );
    }
    let mut rec: Vec<f64> = runs.iter().filter_map(|o| o.recovery_s).collect();
    rec.sort_by(f64::total_cmp);
    r.layer(
        "sqldb.wal.recovery_s",
        if rec.is_empty() { 0.0 } else { median(&rec) },
        "s",
    );
    for name in EXACT_LAYER_VALUES {
        r.layer(
            name,
            med(&|l| l.values.get(name).copied().unwrap_or(0.0)),
            "count",
        );
    }
    r.layer(
        "sqldb.spill.files",
        findings.mean(|c| c.spill_files),
        "count",
    );
    r.layer(
        "sqldb.spill.bytes",
        findings.mean(|c| c.spill_bytes),
        "bytes",
    );
    r.layer(
        "sqldb.wal.durable_bytes",
        findings.mean(|c| c.durable_bytes),
        "bytes",
    );
    let commits = findings.mean(|c| if c.durable_bytes > 0 { c.statements } else { 0 });
    r.layer("sqldb.wal.commits", commits, "count");
    r.layer("trace.overhead_pct", overhead, "%");
}

/// Median of sorted, non-empty `v`.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile of sorted, non-empty `lat` that leaves at least
/// ten samples beyond it, with a label naming the percentile and counts.
/// With fewer than eleven samples no percentile qualifies; the minimum,
/// which leaves the most samples beyond it, is reported and labelled so.
/// (The maximum would jump from the lowest sample to the highest when a
/// slow run falls just under eleven samples.)
fn tail(lat: &[f64]) -> (String, f64) {
    let n = lat.len();
    if n < 11 {
        return (format!("min (n={n}, fewer than 11 samples)"), lat[0]);
    }
    let k = n - 11;
    (
        format!(
            "p{:.1} (n={n}, 10 beyond)",
            100.0 * k as f64 / (n - 1) as f64
        ),
        lat[k],
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may also run from an export that has no history.
fn git_revision() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}
