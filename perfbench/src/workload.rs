//! The three seeded workloads: which circuits each one runs and how the SQL
//! backend is configured for them. See `perfbench/NOTES.md` for why each
//! workload exists and the layer it is meant to stress.

use std::path::PathBuf;

use qymera_circuit::{library, CircuitBuilder, QuantumCircuit};
use qymera_translate::{ExecMode, SqlSimConfig, SqlSimulator};

/// Engine memory limit of `wide_spill`: about 1/6 of the same circuit's
/// unlimited peak ledger, so the aggregates spill on every gate.
pub const SPILL_LIMIT_BYTES: usize = 8 * 1024 * 1024;

/// Qubits of the `wide_spill` circuit.
const WIDE_QUBITS: usize = 18;

/// Seeded variants per run of the `wide_spill` circuit (~1.2–2.2 s each).
const WIDE_VARIANTS: usize = 4;

/// Seeded variants per run of the `durable_steps` circuit (~0.08 s each).
const DURABLE_VARIANTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeepChain,
    WideSpill,
    DurableSteps,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DeepChain,
        Workload::WideSpill,
        Workload::DurableSteps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepChain => "deep_chain",
            Workload::WideSpill => "wide_spill",
            Workload::DurableSteps => "durable_steps",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mode(self) -> ExecMode {
        match self {
            Workload::DurableSteps => ExecMode::StepTables,
            _ => ExecMode::SingleQuery,
        }
    }

    pub fn memory_limit(self) -> Option<usize> {
        (self == Workload::WideSpill).then_some(SPILL_LIMIT_BYTES)
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableSteps
    }

    /// The circuits one run cycles through, all derived from `seed`.
    /// `deep_chain` alternates two circuits. The others cycle through
    /// several seeded variants of one circuit, because their cost depends
    /// on the variant by a few percent: a run that repeated a single one
    /// would carry that difference from seed to seed.
    pub fn circuits(self, seed: u64) -> Vec<QuantumCircuit> {
        let mut rng = SplitMix64(seed);
        match self {
            Workload::DeepChain => {
                let mut qft = CircuitBuilder::new(12);
                for q in rng.choose(12, 6) {
                    qft = qft.x(q);
                }
                let qft = qft.extend(&library::qft(12)).build();
                let marked = rng.choose(4, 2).iter().map(|&q| 1u64 << q).sum();
                let grover = library::grover(4, marked, library::grover_optimal_iterations(4));
                vec![qft, grover]
            }
            Workload::WideSpill => (0..WIDE_VARIANTS)
                .map(|_| {
                    let mut b = CircuitBuilder::new(WIDE_QUBITS);
                    for q in rng.choose(WIDE_QUBITS, WIDE_QUBITS / 2) {
                        b = b.x(q);
                    }
                    b.h_all().build()
                })
                .collect(),
            Workload::DurableSteps => (0..DURABLE_VARIANTS)
                .map(|_| library::dense_circuit(10, 4, rng.next()))
                .collect(),
        }
    }

    /// The SQL backend exactly as a user would configure it for this
    /// workload; `db_path` is a fresh directory for `durable_steps`.
    pub fn simulator(self, parallelism: usize, db_path: Option<PathBuf>) -> SqlSimulator {
        SqlSimulator::new(SqlSimConfig {
            mode: self.mode(),
            memory_limit: self.memory_limit(),
            parallelism: Some(parallelism),
            db_path,
            ..Default::default()
        })
    }
}

/// Seeded generator for workload inputs (SplitMix64): the same seed gives
/// the same circuits on every host.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `k` distinct values from `0..n`, in ascending order.
    pub fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + (self.next() % (n - i) as u64) as usize;
            all.swap(i, j);
        }
        let mut picked = all[..k].to_vec();
        picked.sort_unstable();
        picked
    }
}
