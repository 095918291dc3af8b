//! Deterministic synthetic stand-ins for the paper's evaluation data.
//!
//! The paper compares 40 real query sequences (100 – ~5,000 amino acids,
//! equally distributed sizes) against five public protein databases
//! (Table II). Those flat files are not redistributable, so this module
//! generates synthetic equivalents that preserve everything the experiments
//! are sensitive to:
//!
//! * the **sequence counts** of Table II (exact),
//! * realistic **residue totals / length distributions** (log-normal with
//!   SwissProt-like mean lengths; totals documented in `DESIGN.md`),
//! * SwissProt **amino-acid background frequencies** for the residues
//!   themselves (only scores depend on these, not scheduling),
//! * the **query-length spread** of the evaluation (40 lengths equally
//!   distributed over [100, 5000]).
//!
//! Two scales are provided: [`DbProfile::full_scale_stats`] returns exact
//! metadata for the discrete-event platform experiments (no residues are
//! materialised — SwissProt alone would be ~191 MB), and
//! [`DbProfile::generate_scaled`] materialises a reduced database for real
//! kernel execution in tests, examples and benches.

use rand::{Rng, RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::alphabet::Alphabet;
use crate::db::{Database, DbStats};
use crate::sequence::Sequence;

/// SwissProt amino-acid background frequencies (fractions), in the canonical
/// `ARNDCQEGHILKMFPSTWYV` order (release 2013_01 composition, rounded).
pub const SWISSPROT_AA_FREQS: [(u8, f64); 20] = [
    (b'A', 0.0826),
    (b'R', 0.0553),
    (b'N', 0.0406),
    (b'D', 0.0546),
    (b'C', 0.0137),
    (b'Q', 0.0393),
    (b'E', 0.0674),
    (b'G', 0.0708),
    (b'H', 0.0227),
    (b'I', 0.0593),
    (b'L', 0.0965),
    (b'K', 0.0582),
    (b'M', 0.0241),
    (b'F', 0.0386),
    (b'P', 0.0472),
    (b'S', 0.0660),
    (b'T', 0.0535),
    (b'W', 0.0109),
    (b'Y', 0.0292),
    (b'V', 0.0686),
];

/// Deterministic RNG used throughout the synthetic generators.
pub type SynthRng = ChaCha8Rng;

/// Create the canonical generator RNG for a seed.
pub fn rng(seed: u64) -> SynthRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Sample one amino acid from the SwissProt background distribution.
pub fn sample_residue(rng: &mut impl Rng) -> u8 {
    let mut x: f64 = rng.random();
    for &(res, f) in SWISSPROT_AA_FREQS.iter() {
        if x < f {
            return res;
        }
        x -= f;
    }
    // Rounding leaves ~0.1% tail mass; attribute it to Leucine (most common).
    b'L'
}

/// Generate a random protein sequence of exactly `len` residues.
pub fn random_protein(rng: &mut impl Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| sample_residue(rng)).collect()
}

/// Sample from a log-normal distribution via Box–Muller (the `rand_distr`
/// crate is avoided to keep the dependency set minimal).
fn sample_lognormal(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

/// Profile of one of the paper's five genomic databases (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct DbProfile {
    /// Database name as printed in the paper.
    pub name: String,
    /// Number of sequences (Table II, exact).
    pub num_sequences: usize,
    /// Mean sequence length used for generation and full-scale stats.
    pub mean_len: f64,
    /// Log-normal shape parameter for the length distribution.
    pub sigma: f64,
    /// Shortest sequence permitted.
    pub min_len: usize,
    /// Longest sequence permitted.
    pub max_len: usize,
}

impl DbProfile {
    /// Exact full-scale metadata for the scheduling experiments.
    ///
    /// `total_residues` is `num_sequences × mean_len` rounded — the value all
    /// discrete-event experiments use, so it is *exact by construction*
    /// rather than subject to sampling noise.
    pub fn full_scale_stats(&self) -> DbStats {
        DbStats {
            name: self.name.clone(),
            num_sequences: self.num_sequences,
            total_residues: (self.num_sequences as f64 * self.mean_len).round() as u64,
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Materialise a database scaled down to `scale` (0 < scale ≤ 1) of the
    /// full sequence count, deterministically from `seed`.
    pub fn generate_scaled(&self, seed: u64, scale: f64) -> Database {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.num_sequences as f64 * scale).round() as usize).max(1);
        let mut r = rng(seed);
        let mu = self.mean_len.ln() - self.sigma * self.sigma / 2.0;
        let mut sequences = Vec::with_capacity(n);
        for i in 0..n {
            let len = sample_lognormal(&mut r, mu, self.sigma)
                .round()
                .clamp(self.min_len as f64, self.max_len as f64) as usize;
            sequences.push(Sequence::new(
                format!("{}|{:06}", short_tag(&self.name), i),
                format!("synthetic member of {}", self.name),
                random_protein(&mut r, len),
            ));
        }
        Database::new(self.name.clone(), Alphabet::Protein, sequences)
    }
}

fn short_tag(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .take(8)
        .collect::<String>()
        .to_lowercase()
}

/// The five databases of the paper's Table II, in paper order.
///
/// Sequence counts are the paper's exact numbers; mean lengths are chosen to
/// match the public 2012/2013 releases (see `DESIGN.md` §2 calibration).
pub fn paper_databases() -> Vec<DbProfile> {
    vec![
        DbProfile {
            name: "Ensembl Dog Proteins".into(),
            num_sequences: 25_160,
            mean_len: 493.0,
            sigma: 0.7,
            min_len: 25,
            max_len: 11_996,
        },
        DbProfile {
            name: "Ensembl Rat Proteins".into(),
            num_sequences: 32_971,
            mean_len: 491.0,
            sigma: 0.7,
            min_len: 25,
            max_len: 8_992,
        },
        DbProfile {
            name: "RefSeq Human Proteins".into(),
            num_sequences: 34_705,
            mean_len: 545.0,
            sigma: 0.7,
            min_len: 24,
            max_len: 22_981,
        },
        DbProfile {
            name: "RefSeq Mouse Proteins".into(),
            num_sequences: 29_437,
            mean_len: 543.0,
            sigma: 0.7,
            min_len: 24,
            max_len: 16_000,
        },
        DbProfile {
            name: "UniProtKB/SwissProt".into(),
            num_sequences: 537_505,
            mean_len: 355.0,
            sigma: 0.75,
            min_len: 2,
            max_len: 34_998,
        },
    ]
}

/// Look up one of the paper databases by (case-insensitive) substring.
pub fn paper_database(name: &str) -> Option<DbProfile> {
    let needle = name.to_lowercase();
    paper_databases()
        .into_iter()
        .find(|p| p.name.to_lowercase().contains(&needle))
}

/// How the paper's 40 query lengths are ordered in the query file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOrder {
    /// Shortest first — the adversarial order under which "slow node receives
    /// one of the last (largest) tasks" is most visible; the default for the
    /// reproduction (see `DESIGN.md` §2).
    Ascending,
    /// Longest first.
    Descending,
    /// Deterministically shuffled by the workload seed.
    Shuffled,
}

/// Specification of a query set: `count` lengths equally distributed over
/// `[min_len, max_len]` (paper §V: 40 queries, 100 – 5,000 amino acids).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySetSpec {
    /// Number of query sequences.
    pub count: usize,
    /// Shortest query length.
    pub min_len: usize,
    /// Longest query length.
    pub max_len: usize,
    /// File order of the queries.
    pub order: QueryOrder,
}

impl QuerySetSpec {
    /// The paper's evaluation query set: 40 queries, 100..=5000, ascending.
    pub fn paper() -> Self {
        QuerySetSpec {
            count: 40,
            min_len: 100,
            max_len: 5000,
            order: QueryOrder::Ascending,
        }
    }

    /// The equally-distributed query lengths in file order.
    pub fn lengths(&self, seed: u64) -> Vec<usize> {
        assert!(self.count > 0, "query set must not be empty");
        assert!(self.min_len <= self.max_len);
        let mut lens: Vec<usize> = if self.count == 1 {
            vec![self.min_len]
        } else {
            (0..self.count)
                .map(|i| {
                    let t = i as f64 / (self.count - 1) as f64;
                    (self.min_len as f64 + t * (self.max_len - self.min_len) as f64).round()
                        as usize
                })
                .collect()
        };
        match self.order {
            QueryOrder::Ascending => {}
            QueryOrder::Descending => lens.reverse(),
            QueryOrder::Shuffled => {
                let mut r = rng(seed ^ 0x5157_5345_5446_4c45); // "QWSE TFLE" salt
                                                               // Fisher–Yates shuffle.
                for i in (1..lens.len()).rev() {
                    let j = r.random_range(0..=i);
                    lens.swap(i, j);
                }
            }
        }
        lens
    }

    /// Materialise the queries with random SwissProt-composition residues.
    pub fn generate(&self, seed: u64) -> Vec<Sequence> {
        let mut r = rng(seed);
        self.lengths(seed)
            .into_iter()
            .enumerate()
            .map(|(i, len)| {
                Sequence::new(
                    format!("query|{i:03}"),
                    format!("synthetic query, {len} aa"),
                    random_protein(&mut r, len),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residue_frequencies_sum_close_to_one() {
        let total: f64 = SWISSPROT_AA_FREQS.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 0.002, "sum {total}");
    }

    #[test]
    fn sampled_residues_are_valid_protein() {
        let mut r = rng(1);
        let seq = random_protein(&mut r, 5000);
        assert!(Alphabet::Protein.validates(&seq));
    }

    #[test]
    fn residue_distribution_roughly_matches_background() {
        let mut r = rng(2);
        let seq = random_protein(&mut r, 200_000);
        let leu = seq.iter().filter(|&&b| b == b'L').count() as f64 / seq.len() as f64;
        let trp = seq.iter().filter(|&&b| b == b'W').count() as f64 / seq.len() as f64;
        assert!((leu - 0.0965).abs() < 0.01, "L fraction {leu}");
        assert!((trp - 0.0109).abs() < 0.005, "W fraction {trp}");
    }

    #[test]
    fn paper_databases_match_table2_counts() {
        let dbs = paper_databases();
        assert_eq!(dbs.len(), 5);
        let counts: Vec<usize> = dbs.iter().map(|d| d.num_sequences).collect();
        assert_eq!(counts, vec![25_160, 32_971, 34_705, 29_437, 537_505]);
        // SwissProt is by far the biggest database.
        let sw = dbs[4].full_scale_stats();
        for d in &dbs[..4] {
            assert!(sw.total_residues > 5 * d.full_scale_stats().total_residues);
        }
    }

    #[test]
    fn lookup_by_substring() {
        assert!(paper_database("swissprot").is_some());
        assert!(paper_database("Dog").is_some());
        assert!(paper_database("zebrafish").is_none());
    }

    #[test]
    fn full_scale_stats_are_deterministic_products() {
        let dog = paper_database("dog").unwrap();
        let s = dog.full_scale_stats();
        assert_eq!(s.total_residues, (25_160.0f64 * 493.0).round() as u64);
    }

    #[test]
    fn generate_scaled_is_deterministic() {
        let dog = paper_database("dog").unwrap();
        let a = dog.generate_scaled(7, 0.002);
        let b = dog.generate_scaled(7, 0.002);
        assert_eq!(a, b);
        let c = dog.generate_scaled(8, 0.002);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_scaled_respects_bounds_and_count() {
        let dog = paper_database("dog").unwrap();
        let db = dog.generate_scaled(3, 0.004);
        let expect = (25_160.0f64 * 0.004).round() as usize;
        assert_eq!(db.len(), expect);
        let st = db.stats();
        assert!(st.min_len >= dog.min_len);
        assert!(st.max_len <= dog.max_len);
        // Mean length should be in the right ballpark (log-normal sampling).
        assert!(st.mean_len() > dog.mean_len * 0.6 && st.mean_len() < dog.mean_len * 1.6);
    }

    #[test]
    fn paper_query_lengths_equally_distributed() {
        let spec = QuerySetSpec::paper();
        let lens = spec.lengths(0);
        assert_eq!(lens.len(), 40);
        assert_eq!(lens[0], 100);
        assert_eq!(*lens.last().unwrap(), 5000);
        // Gaps are all within 1 of each other.
        let gaps: Vec<i64> = lens.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();
        let gmin = *gaps.iter().min().unwrap();
        let gmax = *gaps.iter().max().unwrap();
        assert!(gmax - gmin <= 1, "gaps {gaps:?}");
    }

    #[test]
    fn query_order_variants() {
        let mut spec = QuerySetSpec::paper();
        spec.order = QueryOrder::Descending;
        let lens = spec.lengths(0);
        assert_eq!(lens[0], 5000);
        assert_eq!(*lens.last().unwrap(), 100);

        spec.order = QueryOrder::Shuffled;
        let s1 = spec.lengths(42);
        let s2 = spec.lengths(42);
        assert_eq!(s1, s2, "shuffle must be deterministic per seed");
        let mut sorted = s1.clone();
        sorted.sort_unstable();
        spec.order = QueryOrder::Ascending;
        assert_eq!(sorted, spec.lengths(42), "shuffle must be a permutation");
    }

    #[test]
    fn single_query_spec() {
        let spec = QuerySetSpec {
            count: 1,
            min_len: 250,
            max_len: 250,
            order: QueryOrder::Ascending,
        };
        assert_eq!(spec.lengths(0), vec![250]);
    }

    #[test]
    fn generated_queries_match_spec_lengths() {
        let spec = QuerySetSpec::paper();
        let queries = spec.generate(11);
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        assert_eq!(lens, spec.lengths(11));
        assert!(queries
            .iter()
            .all(|q| Alphabet::Protein.validates(&q.residues)));
        // Total residues ≈ 40 × 2550 = 102,000 (the DESIGN.md §2 workload size).
        let total: usize = lens.iter().sum();
        assert!((101_000..=103_000).contains(&total), "total {total}");
    }
}
