//! The benchmark's own seeded input generator.
//!
//! Nothing here links the repository: the program under test receives only
//! the FASTA files written from a [`Dataset`]. Queries are generated first,
//! then mutated copies of each are planted in the database, so that every
//! query has known true hits and the i8 kernels really saturate and rerun
//! at i16. The shape of the inputs — every query and subject length, where
//! the homologs sit in the file, where their indels are — is fixed by the
//! workload; the seed chooses the residues and the substitutions. The
//! amount and the layout of the work are the same on every seed.

/// xoshiro256** seeded through splitmix64.
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for one named purpose under one seed.
    pub fn derive(seed: u64, label: &str) -> Rng {
        Rng::new(seed ^ fnv1a(label.as_bytes()).rotate_left(17))
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n (n ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Exponential with mean 1.
    pub fn exponential(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// UniProtKB/SwissProt amino-acid composition, percent.
const BACKGROUND: [(u8, f64); 20] = [
    (b'A', 8.25),
    (b'R', 5.53),
    (b'N', 4.06),
    (b'D', 5.45),
    (b'C', 1.37),
    (b'Q', 3.93),
    (b'E', 6.75),
    (b'G', 7.07),
    (b'H', 2.27),
    (b'I', 5.96),
    (b'L', 9.66),
    (b'K', 5.84),
    (b'M', 2.42),
    (b'F', 3.86),
    (b'P', 4.70),
    (b'S', 6.56),
    (b'T', 5.34),
    (b'W', 1.08),
    (b'Y', 2.92),
    (b'V', 6.87),
];

fn residue(rng: &mut Rng) -> u8 {
    let total: f64 = BACKGROUND.iter().map(|&(_, p)| p).sum();
    let mut x = rng.unit() * total;
    for &(aa, p) in &BACKGROUND {
        if x < p {
            return aa;
        }
        x -= p;
    }
    b'L'
}

fn random_protein(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| residue(rng)).collect()
}

/// SwissProt-shaped subject length: log-normal, median ≈ 284, mean ≈ 344.
fn subject_len(rng: &mut Rng) -> usize {
    ((5.65 + 0.62 * rng.normal()).exp() as usize).clamp(40, 5000)
}

/// A homolog of `query`: one residue in five substituted, ≈2 % indels,
/// random flanks. Which positions change and how long the flanks are comes
/// from `shape`; the residues come from `rng`.
///
/// The substituted count is exact, not binomial, and 20 % rather than more,
/// so that even a 24-residue query's weakest copy scores clearly above the
/// best unrelated subject (≈ 56 at E = 1 in a million residues): with 30 %
/// binomial substitutions about one seed in three lost a copy of a short
/// query from its top 10.
fn homolog(rng: &mut Rng, shape: &mut Rng, query: &[u8]) -> Vec<u8> {
    let left = 10 + shape.below(140);
    let right = 10 + shape.below(140);
    let mut substituted = vec![false; query.len()];
    let mut order: Vec<usize> = (0..query.len()).collect();
    for k in 0..query.len() / 5 {
        order.swap(k, k + shape.below(query.len() - k));
        substituted[order[k]] = true;
    }
    let mut out = random_protein(rng, left);
    for (&aa, &swap) in query.iter().zip(&substituted) {
        let roll = shape.unit();
        if roll < 0.01 {
            continue; // deletion
        }
        if roll < 0.02 {
            out.push(residue(rng)); // insertion
        }
        out.push(if swap { residue(rng) } else { aa });
    }
    out.extend(random_protein(rng, right));
    out
}

#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub id: String,
    pub seq: String,
}

/// What one workload's inputs look like, independent of the seed.
#[derive(Clone, Debug)]
pub struct DataSpec {
    /// Exact residue total of the database.
    pub db_residues: usize,
    /// One query per entry, in file order.
    pub query_lens: Vec<usize>,
}

pub struct Dataset {
    pub queries: Vec<Record>,
    pub subjects: Vec<Record>,
    /// Per query, the ids of the subjects that carry its planted homologs.
    pub planted: Vec<Vec<String>>,
}

impl Dataset {
    pub fn db_residues(&self) -> u64 {
        self.subjects.iter().map(|s| s.seq.len() as u64).sum()
    }

    /// Σ query_len × database residues: the nominal cell count of comparing
    /// every query against the whole database once.
    pub fn nominal_cells(&self) -> u64 {
        let q: u64 = self.queries.iter().map(|q| q.seq.len() as u64).sum();
        q * self.db_residues()
    }
}

/// Homolog copies of each query: as many as fit in about an eighth of the
/// database, at most 8 each. When not even one copy of every query fits
/// (a long-query workload at `--smoke` size), the queries get one copy in
/// file order while the eighth lasts, and the rest none.
fn copies_for(spec: &DataSpec) -> Vec<usize> {
    let budget = spec.db_residues / 8;
    let per_copy: usize = spec.query_lens.iter().map(|l| l + 160).sum();
    let each = (budget / per_copy.max(1)).min(8);
    if each > 0 {
        return vec![each; spec.query_lens.len()];
    }
    let mut used = 0;
    spec.query_lens
        .iter()
        .map(|l| {
            used += l + 160;
            usize::from(used <= budget)
        })
        .collect()
}

pub fn generate(seed: u64, label: &str, spec: &DataSpec) -> Dataset {
    let mut rng = Rng::derive(seed, label);
    // Every length, indel position and file position comes from a stream
    // that does not depend on the seed: measured on the parent commit, the
    // same residue total drawn as another multiset of subject lengths moved
    // `scan_short`'s time by ±8 %, which no bound could be read against.
    let mut shape = Rng::derive(0, label);
    let queries: Vec<Vec<u8>> = spec
        .query_lens
        .iter()
        .map(|&len| random_protein(&mut rng, len))
        .collect();

    // (residues, Some(query index) for a planted homolog)
    let mut subjects: Vec<(Vec<u8>, Option<usize>)> = Vec::new();
    let copies = copies_for(spec);
    for (qi, q) in queries.iter().enumerate() {
        for _ in 0..copies[qi] {
            subjects.push((homolog(&mut rng, &mut shape, q), Some(qi)));
        }
    }
    let planted_residues: usize = subjects.iter().map(|(s, _)| s.len()).sum();
    let mut remaining = spec.db_residues.saturating_sub(planted_residues);
    while remaining > 0 {
        let len = subject_len(&mut shape).min(remaining);
        subjects.push((random_protein(&mut rng, len), None));
        remaining -= len;
    }
    // Fisher–Yates, so that homologs are spread over the scan order.
    for i in (1..subjects.len()).rev() {
        subjects.swap(i, shape.below(i + 1));
    }

    let mut planted = vec![Vec::new(); queries.len()];
    let subjects = subjects
        .into_iter()
        .enumerate()
        .map(|(i, (seq, origin))| {
            let id = format!("s{i:06}");
            if let Some(qi) = origin {
                planted[qi].push(id.clone());
            }
            Record {
                id,
                seq: String::from_utf8(seq).expect("residues are ASCII"),
            }
        })
        .collect();
    let queries = queries
        .into_iter()
        .enumerate()
        .map(|(i, seq)| Record {
            id: format!("q{i:04}"),
            seq: String::from_utf8(seq).expect("residues are ASCII"),
        })
        .collect();
    Dataset {
        queries,
        subjects,
        planted,
    }
}

/// `count` unrelated random sequences of `len` residues each.
pub fn random_records(rng: &mut Rng, prefix: &str, count: usize, len: usize) -> Vec<Record> {
    (0..count)
        .map(|i| Record {
            id: format!("{prefix}{i:04}"),
            seq: String::from_utf8(random_protein(rng, len)).expect("residues are ASCII"),
        })
        .collect()
}

pub fn to_fasta(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push('>');
        out.push_str(&r.id);
        out.push('\n');
        for line in r.seq.as_bytes().chunks(60) {
            out.push_str(std::str::from_utf8(line).expect("residues are ASCII"));
            out.push('\n');
        }
    }
    out
}

/// Query lengths evenly spread over `lo..=hi`, ascending.
pub fn ladder(count: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..count)
        .map(|i| lo + i * (hi - lo) / (count - 1).max(1))
        .collect()
}

/// Arrival offsets (seconds from the phase start) of a Poisson process of
/// `rate` per second over `duration` seconds.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exponential() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DataSpec {
        DataSpec {
            db_residues: 300_000,
            query_lens: ladder(16, 24, 96),
        }
    }

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = generate(2013, "scan_short", &spec());
        let b = generate(2013, "scan_short", &spec());
        let c = generate(2014, "scan_short", &spec());
        assert_eq!(to_fasta(&a.subjects), to_fasta(&b.subjects));
        assert_eq!(a.planted, b.planted);
        assert_ne!(to_fasta(&a.queries), to_fasta(&c.queries));
    }

    /// A generator edit changes every number the benchmark reports; this
    /// pin makes such an edit deliberate.
    #[test]
    fn seed_2013_digests_are_pinned() {
        let d = generate(2013, "scan_short", &spec());
        assert_eq!(
            (
                fnv1a(to_fasta(&d.queries).as_bytes()),
                fnv1a(to_fasta(&d.subjects).as_bytes())
            ),
            (0x9be3_d355_49c7_928e, 0x971c_4e68_5b82_ec69)
        );
    }

    #[test]
    fn shape_is_fixed_by_the_workload_not_the_seed() {
        let lens = |d: &Dataset| d.subjects.iter().map(|s| s.seq.len()).collect::<Vec<_>>();
        let first = generate(1, "x", &spec());
        for seed in [2, 3] {
            let d = generate(seed, "x", &spec());
            assert_eq!(d.db_residues(), 300_000);
            assert_eq!(lens(&d), lens(&first));
            assert_eq!(d.planted, first.planted);
            assert!(d.planted.iter().all(|p| p.len() == 8));
            assert_ne!(d.subjects[0].seq, first.subjects[0].seq);
        }
        let query_lens: Vec<usize> = first.queries.iter().map(|q| q.seq.len()).collect();
        assert_eq!(query_lens, spec().query_lens);
        assert_ne!(lens(&generate(1, "y", &spec())), lens(&first));
    }

    #[test]
    fn homolog_copies_shrink_for_long_queries() {
        let long = DataSpec {
            db_residues: 160_000,
            query_lens: vec![2100, 2600, 3100],
        };
        assert_eq!(copies_for(&long), [2, 2, 2]);
        let d = generate(7, "scan_long", &long);
        assert_eq!(d.db_residues(), 160_000);
        // At a tenth of the size only the first query's single copy fits.
        let small = DataSpec {
            db_residues: 20_000,
            ..long
        };
        assert_eq!(copies_for(&small), [1, 0, 0]);
        let d = generate(7, "scan_long", &small);
        assert_eq!(d.db_residues(), 20_000);
        assert_eq!(
            d.planted.iter().map(Vec::len).collect::<Vec<_>>(),
            [1, 0, 0]
        );
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_its_rate() {
        let a = poisson_schedule(&mut Rng::derive(5, "rate"), 200.0, 10.0);
        let b = poisson_schedule(&mut Rng::derive(5, "rate"), 200.0, 10.0);
        let c = poisson_schedule(&mut Rng::derive(6, "rate"), 200.0, 10.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().copied().unwrap_or(0.0) < 10.0);
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }
}
