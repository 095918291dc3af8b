//! What every scan reports, and the one ranking of the workspace.
//!
//! A scan is the shard executor's chunk loop ([`crate::exec`]), driven by
//! each PE's one compute call (`core::pool::PeExecutor::scan`). Each chunk
//! goes to one of two kernel families ([`KernelChoice`]):
//!
//! * **Striped** — the adapted-Farrar intra-sequence kernel, one subject at
//!   a time. Its rate grows with the query length but stays below
//!   InterSeq's at every length on a length-ordered scan (128 to 16,384
//!   residues, AVX2 and SSE4.1); it wins on tiny or skewed chunks.
//! * **InterSeq** — the SWIPE-style inter-sequence kernel, `LANES` subjects
//!   per vector. A flat rate whatever the query: no per-subject setup, no
//!   lazy-F loop, near-perfect lane utilisation when chunk lengths are
//!   homogeneous — which every database snapshot's scan order makes them
//!   (the stable length order, [`DbArena::length_sorted`]) — the kernel
//!   for queries of every length, and the one a fused query batch shares a
//!   score gather in.
//! * **Auto** (every PE's choice) — picks per chunk from the chunk's size
//!   and its length skew, whatever the query's length (measured
//!   crossovers, see `exec`); the decision counters land in
//!   [`KernelStats`].
//!
//! Every kernel family resolves every subject to the exact Gotoh score, so
//! the ranked output is **bit-identical** across kernel choices, shard
//! decompositions, and scan orders: hits are keyed by *database* index
//! (the arena un-permutes length-ordered scan positions) and ranked by
//! [`rank_hits`]'s total order. Kernel counters do depend on the scan
//! order (which chunks `Auto` sends where), which is why every snapshot
//! has exactly one.
//!
//! Workers carry plain [`Scored`] records (`Copy`, no strings); subject
//! identifiers are attached as [`Hit`]s only for a shard's top-N.
//!
//! [`DbArena::length_sorted`]: swhybrid_seq::arena::DbArena::length_sorted
//! [`KernelStats`]: crate::engine::KernelStats

/// One database hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hit {
    /// Index of the subject within the database.
    pub db_index: usize,
    /// Identifier of the subject sequence.
    pub id: String,
    /// Optimal local alignment score.
    pub score: i32,
    /// Subject length in residues.
    pub subject_len: usize,
}

/// A scored subject, as carried internally by scan workers: no identifier,
/// no allocation — `Hit`s (with their cloned id strings) are materialised
/// only for the merged top-N.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scored {
    /// Index of the subject within the database (already un-permuted when
    /// the scan order was length-sorted).
    pub db_index: usize,
    /// Optimal local alignment score.
    pub score: i32,
    /// Subject length in residues.
    pub subject_len: usize,
}

/// Which kernel family scores a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelChoice {
    /// Always the adapted-Farrar striped kernel (one subject at a time).
    Striped,
    /// Always the SWIPE-style inter-sequence kernel (`LANES` subjects per
    /// vector).
    InterSeq,
    /// Decide per chunk from query length and chunk length-skew.
    #[default]
    Auto,
}

/// Rank hits deterministically: score descending, ties broken by database
/// order ascending. This is THE ranking of the whole workspace — every
/// merge of partial hit lists (per-worker, per-shard, per-process) goes
/// through here, so a result assembled from any decomposition of the
/// database is bit-identical to a single sequential scan.
pub fn rank_hits(hits: &mut [Hit]) {
    // Unstable sort: allocation-free, and deterministic anyway because the
    // comparator is a total order (db_index is unique per list).
    hits.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
}

/// [`rank_hits`]'s total order over the internal [`Scored`] records.
pub fn rank_scored(scored: &mut [Scored]) {
    scored.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.db_index.cmp(&b.db_index)));
}

/// Merge any number of partial hit lists into the global top `top_n`.
///
/// Correct whenever each input list contains at least the top `top_n` hits
/// of its own partition (lists shorter than that are taken whole): any
/// global top-`top_n` hit is necessarily in its partition's top `top_n`.
pub fn merge_top_n(lists: impl IntoIterator<Item = Vec<Hit>>, top_n: usize) -> Vec<Hit> {
    let mut all: Vec<Hit> = lists.into_iter().flatten().collect();
    rank_hits(&mut all);
    all.truncate(top_n);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_top_n_is_deterministic_on_ties() {
        let hit = |db_index: usize, score: i32| Hit {
            db_index,
            id: format!("s{db_index}"),
            score,
            subject_len: 10,
        };
        // Two lists with interleaved ties: db order must break them.
        let a = vec![hit(4, 50), hit(0, 40), hit(6, 40)];
        let b = vec![hit(2, 50), hit(1, 40), hit(5, 60)];
        let merged = merge_top_n([a, b], 4);
        let order: Vec<usize> = merged.iter().map(|h| h.db_index).collect();
        assert_eq!(order, vec![5, 2, 4, 0]);
    }
}
