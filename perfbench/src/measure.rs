//! Untraced measurement: one circuit through `SqlSimulator::run`, timed as
//! a user sees it, then checked against the statevector oracle.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use qymera_circuit::{Complex64, QuantumCircuit};
use qymera_sim::{SimOptions, StateVectorSim};
use qymera_sqldb::{Database, Value};
use qymera_translate::sqlgen::state_table_name;
use qymera_translate::SqlAmplitude;

use crate::workload::Workload;

/// Largest accepted |SQL amplitude − statevector amplitude|.
pub const TOLERANCE: f64 = 1e-8;

/// A circuit prepared in set-up, with its statevector oracle.
pub struct Case {
    pub circuit: QuantumCircuit,
    pub oracle: Vec<Complex64>,
}

impl Case {
    pub fn new(circuit: QuantumCircuit) -> Case {
        let oracle = StateVectorSim
            .run_dense(&circuit, &SimOptions::default())
            .expect("workload circuits fit the dense oracle");
        Case { circuit, oracle }
    }
}

/// Counters of one circuit that must repeat exactly whenever the same
/// circuit runs again (see [`crate::Findings`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub gate_ops: u64,
    pub peak_memory_bytes: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
    pub statements: u64,
    pub durable_bytes: u64,
}

/// What one untraced circuit produced.
pub struct Outcome {
    pub latency_s: f64,
    /// `Database::open` on the circuit's directory (`durable_steps` only).
    pub recovery_s: Option<f64>,
    pub counters: Counters,
    /// Why the circuit counts as failed, if it does.
    pub error: Option<String>,
}

/// Run `case` once through `SqlSimulator::run` on a fresh database and
/// check the result. For a durable workload the database lives in a fresh
/// `work/db-<idx>`, which is reopened, checked and then removed, outside
/// the timed call. Removing it at once keeps the run's dirty page cache to
/// one circuit's files, so the kernel never writes earlier circuits back to
/// disk while later ones are being timed.
pub fn run_untraced(
    w: Workload,
    case: &Case,
    parallelism: usize,
    work: &Path,
    idx: u64,
) -> Outcome {
    let dir = w.durable().then(|| work.join(format!("db-{idx}")));
    let sim = w.simulator(parallelism, dir.clone());
    let start = Instant::now();
    let result = sim.run(&case.circuit);
    let mut out = Outcome {
        latency_s: start.elapsed().as_secs_f64(),
        recovery_s: None,
        counters: Counters::default(),
        error: None,
    };
    match result {
        Err(e) => out.error = Some(format!("run failed: {e}")),
        Ok(r) => {
            out.counters = Counters {
                gate_ops: r.ops_executed as u64,
                peak_memory_bytes: r.stats.peak_memory_bytes as u64,
                spill_files: r.stats.spill_files,
                spill_bytes: r.stats.spill_bytes,
                statements: r.stats.statements_executed,
                durable_bytes: 0,
            };
            out.error = check_amplitudes(&r.amplitudes, &case.oracle).err();
            if let Some(dir) = &dir {
                out.counters.durable_bytes = dir_bytes(dir);
                let reopened = Instant::now();
                match Database::open(dir) {
                    Err(e) => out.error = out.error.or(Some(format!("reopen failed: {e}"))),
                    Ok(mut db) => {
                        out.recovery_s = Some(reopened.elapsed().as_secs_f64());
                        let last = state_table_name(r.ops_executed);
                        let survived = check_survivors(&mut db, &last, &r.amplitudes);
                        out.error = out.error.or(survived.err());
                    }
                }
            }
        }
    }
    if let Some(dir) = &dir {
        let _ = fs::remove_dir_all(dir);
    }
    out
}

/// Max |SQL − oracle| over every basis state, failing past [`TOLERANCE`]
/// or on a malformed index.
pub fn check_amplitudes(amps: &[SqlAmplitude], oracle: &[Complex64]) -> Result<f64, String> {
    let mut seen = vec![false; oracle.len()];
    let mut worst = 0.0f64;
    for a in amps {
        let s = match a.s {
            Value::Int(s) if (0..oracle.len() as i64).contains(&s) => s as usize,
            ref other => return Err(format!("basis index {other:?} out of range")),
        };
        if std::mem::replace(&mut seen[s], true) {
            return Err(format!("basis index {s} returned twice"));
        }
        worst = worst.max((a.amp - oracle[s]).abs());
    }
    for (s, o) in oracle.iter().enumerate() {
        if !seen[s] {
            worst = worst.max(o.abs());
        }
    }
    if worst > TOLERANCE {
        return Err(format!(
            "amplitudes differ from the statevector oracle by {worst:e}"
        ));
    }
    Ok(worst)
}

/// The "acknowledged commit survives restart" check: after reopening, the
/// final state table must hold exactly the amplitudes the run returned.
fn check_survivors(db: &mut Database, table: &str, amps: &[SqlAmplitude]) -> Result<(), String> {
    let rows = db
        .execute(&format!("SELECT s, r, i FROM {table} ORDER BY s"))
        .map_err(|e| format!("final table {table} unreadable after reopen: {e}"))?
        .into_rows();
    let same = rows.len() == amps.len()
        && rows.iter().zip(amps).all(|(row, a)| {
            row.len() == 3
                && row[0] == a.s
                && row[1] == Value::Float(a.amp.re)
                && row[2] == Value::Float(a.amp.im)
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "final table {table} differs from the returned amplitudes after reopen"
        ))
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
