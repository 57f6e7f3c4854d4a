//! Workload inputs: the fixed sizes, the generated tables and the
//! discovery problem (predicate space + configuration) each workload runs.
//!
//! Sizes are constants, never derived from run length: the generators'
//! output (and so the rules found) depends on the total row count.

use crate::trace::Tracer;
use crr_data::{AttrId, Table};
use crr_datasets::{electricity, tax, GenConfig};
use crr_discovery::{DiscoveryConfig, PredicateGen, PredicateSpace};

/// Electricity rows for `discover-electricity` and `serve-mixed`: 16 days
/// of minutes.
pub const ELECTRICITY_ROWS: usize = 23_040;
/// Tax rows for `discover-tax-sharded`.
pub const TAX_ROWS: usize = 40_000;
/// Shard threads of the sharded workload. They are also the planner's
/// `workers` cost input, so they fix the shard count: a constant keeps
/// the plan (and so the rules, RMSE and op time) the same on every host.
pub const SHARD_THREADS: usize = 2;
/// Shards the adaptive `ShardSpec::by_key(salary)` plan resolves to on
/// the tax draws under [`SHARD_THREADS`]; every op is checked against it.
pub const TAX_SHARDS: usize = 3;
/// Binary-split cuts per condition attribute.
pub const CUTS_PER_ATTR: usize = 255;
/// Seed of the predicate generator, fixed so only the data varies with
/// the workload seed.
pub const SPACE_SEED: u64 = 11;
/// Data variants per run: ops (or passes) cycle through tables generated
/// from `variant_seed(seed, j)`, so a run's figures average over several
/// draws instead of hanging on one draw's rules.
pub const VARIANTS: u64 = 4;

/// Generator seed of variant `j` of workload seed `seed`.
pub fn variant_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(VARIANTS).wrapping_add(j)
}

/// Set-ups per run: one before the measured loop and the rest spread
/// over it; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Model-parameter tolerance of the post-run Algorithm 2 compaction, as
/// `DiscoverySession::export` uses it.
pub const COMPACT_TOL: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Electricity,
    Tax,
}

/// One discovery problem over a generated table.
pub struct Problem {
    pub table: Table,
    pub space: PredicateSpace,
    pub cfg: DiscoveryConfig,
    /// Shard key of the sharded workload (`salary` on tax).
    pub shard_key: Option<AttrId>,
}

fn attr(table: &Table, name: &str) -> AttrId {
    table
        .attr(name)
        .unwrap_or_else(|e| panic!("generated table lacks {name}: {e}"))
}

/// Generates `rows` rows of `dataset` under `seed`, as span `data.gen`.
pub fn generate(dataset: Dataset, rows: usize, seed: u64, tr: &mut Tracer, op: u64) -> Table {
    let span = tr.begin("data.gen", op);
    let cfg = GenConfig { rows, seed };
    let table = match dataset {
        Dataset::Electricity => electricity(&cfg).table,
        Dataset::Tax => tax(&cfg).table,
    };
    tr.end(span);
    table
}

/// Builds the predicate space and configuration over `table`, as span
/// `data.space`.
pub fn problem(dataset: Dataset, table: Table, tr: &mut Tracer, op: u64) -> Problem {
    let span = tr.begin("data.space", op);
    let (conditions, inputs, target, rho, shard_key) = match dataset {
        Dataset::Electricity => {
            let minute = attr(&table, "minute");
            let y = attr(&table, "global_active_power");
            let rho = 3.0 * crr_datasets::electricity::NOISE;
            (vec![minute], vec![minute], y, rho, None)
        }
        Dataset::Tax => {
            let state = attr(&table, "state");
            let salary = attr(&table, "salary");
            let y = attr(&table, "tax");
            let rho = 3.0 * crr_datasets::tax::NOISE;
            (vec![state, salary], vec![salary], y, rho, Some(salary))
        }
    };
    let space =
        PredicateGen::binary(CUTS_PER_ATTR).generate(&table, &conditions, target, SPACE_SEED);
    let threads = if shard_key.is_some() {
        SHARD_THREADS
    } else {
        1
    };
    let cfg = DiscoveryConfig::new(inputs, target, rho).with_shard_threads(threads);
    tr.end(span);
    Problem {
        table,
        space,
        cfg,
        shard_key,
    }
}

/// SplitMix64: the benchmark's own seeded generator for request mixes,
/// so the inputs depend on the workload seed and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_CBB5_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}
