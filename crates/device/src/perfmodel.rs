//! The calibration table: one throughput curve per PE kind.
//!
//! A PE is described the way SWAPHI and the KNL study describe a device:
//! GCUPS against query length — a startup, a length ramp and a peak.
//! [`PerfModel::of`] is the table, one row per [`DeviceKind`]; it is the
//! single source of truth for every calibration constant, including the
//! ones the structural CUDASW++ model ([`crate::cudasw`]) reads.
//!
//! Exact per-cell timings of the paper's testbed are unrecoverable (the
//! table bodies did not survive digitisation), so the rows are calibrated
//! to the numbers that did survive and to the cited literature; see
//! `DESIGN.md` §2. Experiments must never embed their own magic numbers.

use crate::task::DeviceKind;

/// A throughput curve: effective rate = `peak × query_eff × db_fill_eff`,
/// with a fixed startup plus an optional transfer term per task.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfModel {
    /// Peak sustained GCUPS under ideal conditions.
    pub peak_gcups: f64,
    /// Fixed per-task startup seconds (process launch, CUDA context,
    /// reconfiguration, …).
    pub startup_seconds: f64,
    /// Transfer throughput for shipping the database to the device, in
    /// bytes/second (one residue = one byte); `None` disables the term.
    pub transfer_bytes_per_sec: Option<f64>,
    /// Query-length efficiency ramp: `eff = len / (len + ramp)`;
    /// 0 disables the ramp.
    pub query_ramp: f64,
    /// Device-occupancy ramp on the number of database sequences:
    /// `eff = n / (n + fill)`; 0 disables. Models accelerators that need
    /// many concurrent subject comparisons to fill their lanes.
    pub db_fill: f64,
    /// Query segmentation for a device with a maximum query length,
    /// `(max_len, overlap)`: a longer query is split into segments that
    /// overlap by `overlap` residues, and the overlap is recomputed (Meng &
    /// Chaudhary's FPGA). `None`: any length in one pass.
    pub segment: Option<(usize, usize)>,
}

impl PerfModel {
    /// The calibrated row of one PE kind.
    pub fn of(kind: DeviceKind) -> PerfModel {
        match kind {
            // The GTX 580 running CUDASW++ 2.0, one task per program
            // invocation (the paper encapsulates the unmodified CUDASW++
            // binary, §IV-C): peak ≈ 32 GCUPS (Liu et al. 2010 scaled to
            // GF110), ≈ 0.85 s of process/CUDA-context startup per
            // invocation, PCIe-2.0-ish transfer, and a pronounced
            // short-query ramp (virtualised-SIMD kernels need long queries
            // to amortise). The combination reproduces the paper's
            // observation that 4-GPU GCUPS on SwissProt is ≈ 2× the GCUPS
            // on the four small databases.
            DeviceKind::Gpu => PerfModel {
                peak_gcups: 32.0,
                startup_seconds: 0.85,
                transfer_bytes_per_sec: Some(2.5e9),
                query_ramp: 220.0,
                db_fill: 1500.0,
                segment: None,
            },
            // One SSE core of the Core i7-2600 running the adapted Farrar
            // kernel (the paper's PE is one core, §V): ≈ 2.7 GCUPS
            // sustained (calibrated to the paper's "7,190 s on one SSE
            // core" for the SwissProt workload), negligible startup, and a
            // mild short-query ramp (profile construction).
            DeviceKind::SseCore => PerfModel {
                peak_gcups: 2.75,
                startup_seconds: 0.02,
                transfer_bytes_per_sec: None,
                query_ramp: 25.0,
                db_fill: 0.0,
                segment: None,
            },
            // An FPGA systolic-array accelerator (Meng & Chaudhary-class),
            // the paper's §VI future work: high peak, long reconfiguration
            // startup, and a 1,024-PE array that segments longer queries
            // with 64 residues of overlap.
            DeviceKind::Fpga => PerfModel {
                peak_gcups: 25.0,
                startup_seconds: 1.5,
                transfer_bytes_per_sec: Some(1.0e9),
                query_ramp: 0.0,
                db_fill: 0.0,
                segment: Some((1024, 64)),
            },
        }
    }

    /// `gcups` at every query length and database size, no startup: the
    /// shape of the paper's Fig. 5 worked example and of scheduler tests.
    pub fn flat(gcups: f64) -> PerfModel {
        PerfModel {
            peak_gcups: gcups,
            startup_seconds: 0.0,
            transfer_bytes_per_sec: None,
            query_ramp: 0.0,
            db_fill: 0.0,
            segment: None,
        }
    }

    /// Query-length efficiency factor in (0, 1].
    pub fn query_efficiency(&self, query_len: usize) -> f64 {
        if self.query_ramp <= 0.0 {
            1.0
        } else {
            query_len as f64 / (query_len as f64 + self.query_ramp)
        }
    }

    /// Occupancy efficiency factor in (0, 1].
    pub fn fill_efficiency(&self, db_sequences: usize) -> f64 {
        if self.db_fill <= 0.0 {
            1.0
        } else {
            db_sequences as f64 / (db_sequences as f64 + self.db_fill)
        }
    }

    /// Effective sustained rate in cells/second, before segmentation.
    pub fn effective_rate(&self, query_len: usize, db_sequences: usize) -> f64 {
        self.peak_gcups
            * 1e9
            * self.query_efficiency(query_len)
            * self.fill_efficiency(db_sequences)
    }

    /// Per-task startup seconds including the database transfer.
    pub fn startup(&self, db_residues: u64) -> f64 {
        let transfer = match self.transfer_bytes_per_sec {
            Some(bw) if bw > 0.0 => db_residues as f64 / bw,
            _ => 0.0,
        };
        self.startup_seconds + transfer
    }

    /// Number of segments a query of `query_len` splits into.
    pub fn segments(&self, query_len: usize) -> usize {
        match self.segment {
            Some((max_len, overlap)) if query_len > max_len => {
                1 + (query_len - max_len).div_ceil(max_len - overlap)
            }
            _ => 1,
        }
    }

    /// Cell inflation factor from overlapped recomputation (≥ 1.0).
    pub fn inflation(&self, query_len: usize) -> f64 {
        let segs = self.segments(query_len);
        let Some((max_len, overlap)) = self.segment else {
            return 1.0;
        };
        if segs == 1 {
            return 1.0;
        }
        // Total residues actually processed across the segments.
        let step = max_len - overlap;
        let processed = max_len + (segs - 1) * step.min(query_len) + (segs - 1) * overlap;
        processed as f64 / query_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramps_disabled_by_zero() {
        let m = PerfModel::flat(10.0);
        assert_eq!(m.query_efficiency(1), 1.0);
        assert_eq!(m.fill_efficiency(1), 1.0);
        assert_eq!(m.effective_rate(100, 1), 10e9);
    }

    #[test]
    fn query_ramp_monotone_to_one() {
        let m = PerfModel::of(DeviceKind::Gpu);
        let mut prev = 0.0;
        for len in [50, 100, 500, 1000, 5000, 50_000] {
            let e = m.query_efficiency(len);
            assert!(e > prev);
            assert!(e < 1.0);
            prev = e;
        }
        assert!(m.query_efficiency(50_000) > 0.99);
    }

    #[test]
    fn startup_includes_transfer() {
        let m = PerfModel::of(DeviceKind::Gpu);
        let small = m.startup(12_400_000);
        let big = m.startup(190_800_000);
        assert!(big > small);
        // SwissProt transfer at 2.5 GB/s ≈ 0.076 s on top of 0.85 s.
        assert!((big - 0.85 - 190_800_000.0 / 2.5e9).abs() < 1e-9);
    }

    #[test]
    fn sse_core_calibration_reproduces_headline() {
        // 40 queries (~102k residues) × SwissProt ≈ 1.95e13 cells.
        // One SSE core must land in the paper's ballpark of 7,190 s.
        let m = PerfModel::of(DeviceKind::SseCore);
        let cells = 102_000f64 * 190.8e6;
        // Mid-size query (2,550 aa) efficiency is representative.
        let secs = cells / (m.effective_rate(2550, 537_505));
        assert!((6500.0..8000.0).contains(&secs), "secs = {secs}");
    }

    #[test]
    fn gpu_small_vs_large_db_gcups_gap() {
        // The effective GCUPS a GTX 580 achieves per task: the SwissProt
        // task must be ≈ 2× the Ensembl-Dog task for a mid-size query
        // (paper §V-A-2: "approximately the double").
        let m = PerfModel::of(DeviceKind::Gpu);
        let q = 2550usize;
        let small_cells = q as f64 * 12.4e6;
        let big_cells = q as f64 * 190.8e6;
        let small_secs = m.startup(12_400_000) + small_cells / m.effective_rate(q, 25_160);
        let big_secs = m.startup(190_800_000) + big_cells / m.effective_rate(q, 537_505);
        let small_gcups = small_cells / small_secs / 1e9;
        let big_gcups = big_cells / big_secs / 1e9;
        let ratio = big_gcups / small_gcups;
        assert!((1.5..2.6).contains(&ratio), "ratio = {ratio}");
    }

    /// Every row's task time, bit for bit, on the registration probe and on
    /// SwissProt tasks either side of the FPGA's 1,024-residue segment
    /// limit. Values recorded before the rows became one table.
    #[test]
    fn every_row_task_seconds_is_pinned() {
        use crate::task::{Device, TaskSpec};
        let swissprot = |query_len| TaskSpec {
            id: 0,
            query_len,
            queries: 1,
            db_residues: 190_814_275,
            db_sequences: 537_505,
        };
        let tasks = [
            TaskSpec::probe(),
            swissprot(100),
            swissprot(1024),
            swissprot(1025),
            swissprot(5000),
        ];
        let rows = [
            (
                DeviceKind::Gpu,
                [
                    0x40317d62484da19f,
                    0x4006b7e5a230c1ea,
                    0x4020bad850288c66,
                    0x4020bde811cb5985,
                    0x404011e3ee2a9580,
                ],
            ),
            (
                DeviceKind::SseCore,
                [
                    0x406656212a2114af,
                    0x40216302326b046e,
                    0x405233a570231ced,
                    0x405238164658d0f1,
                    0x4075cb09188dbc8b,
                ],
            ),
            (
                DeviceKind::Fpga,
                [
                    0x40392358b642a54a,
                    0x4003a1f02c4d65e4,
                    0x4023035cbf4013b9,
                    0x403152838af15793,
                    0x40484aec1c1b4736,
                ],
            ),
        ];
        for (kind, bits) in rows {
            let device = Device::new(kind.pe_name(0), kind);
            for (task, want) in tasks.iter().zip(bits) {
                let secs = device.task_seconds(task);
                assert_eq!(
                    secs.to_bits(),
                    want,
                    "{kind:?} on {} aa: {secs} s, pinned {} s",
                    task.query_len,
                    f64::from_bits(want)
                );
            }
        }
    }

    #[test]
    fn short_queries_are_unsegmented() {
        let f = PerfModel::of(DeviceKind::Fpga);
        assert_eq!(f.segments(100), 1);
        assert_eq!(f.segments(1024), 1);
        assert_eq!(f.inflation(1024), 1.0);
    }

    #[test]
    fn long_queries_segment_with_overlap() {
        let f = PerfModel::of(DeviceKind::Fpga);
        assert_eq!(f.segments(1025), 2);
        // 5,000-aa query: step = 960; segments = 1 + ceil(3976/960) = 6.
        assert_eq!(f.segments(5000), 6);
        let infl = f.inflation(5000);
        assert!(infl > 1.0 && infl < 1.5, "inflation = {infl}");
    }

    #[test]
    fn gpu_is_roughly_order_of_magnitude_faster_than_sse_core() {
        let gpu = PerfModel::of(DeviceKind::Gpu);
        let sse = PerfModel::of(DeviceKind::SseCore);
        let ratio = gpu.effective_rate(2550, 537_505) / sse.effective_rate(2550, 537_505);
        assert!((8.0..14.0).contains(&ratio), "ratio = {ratio}");
    }
}
