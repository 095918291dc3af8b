//! The fleet specification: which PEs make up a hybrid platform.
//!
//! One parser serves every surface that accepts a fleet — `swhybrid
//! master --fleet`, `swhybrid serve --fleet`, and the platform-experiment
//! `simulate` verb — so a spec like `sse:8+gpu:2` means the same thing
//! everywhere. Parsing **rejects** malformed input (unknown backend kind,
//! zero count, empty segment) instead of silently defaulting: a typo'd
//! fleet must fail loudly, not run on an accidental platform.
//!
//! [`FleetSpec::build`] materialises the spec into runnable PEs:
//!
//! * `sse` entries become **real** SIMD PEs (no device model, neutral
//!   1.0-GCUPS prior — their true speed is measured, not assumed);
//! * `gpu` / `fpga` entries become **modeled** PEs (a [`Device`] on the
//!   kind's calibrated row): every PE computes real scores through the one
//!   shard-scan step, and a modeled one registers its model's throughput
//!   as the prior and has it attributed on completion.
//!
//! Both this builder and the simulator's `PlatformBuilder::fleet` name
//! PEs by [`DeviceKind::pe_name`], so one spec yields one set of names.

use crate::task::{Device, DeviceKind, TaskSpec};

/// A parsed fleet: PE kinds with counts, in written order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    entries: Vec<(DeviceKind, usize)>,
}

/// One materialised fleet member, ready to admit into a PE pool.
#[derive(Debug)]
pub struct FleetPe {
    /// Pool-visible PE name (`gpu0`, `sse3`, …).
    pub name: String,
    /// Registration prior in GCUPS (WFixed weight / PSS seed).
    pub static_gcups: f64,
    /// The modeled device (`None` for real SIMD PEs, whose speed is
    /// measured): the driver attributes `model.task_gcups(spec)` to each
    /// task this PE completes.
    pub model: Option<Device>,
}

impl FleetPe {
    /// A real SIMD PE: no device model — its speed is measured,
    /// `static_gcups` only seeds WFixed and the PSS prior.
    pub fn simd(name: impl Into<String>, static_gcups: f64) -> FleetPe {
        FleetPe {
            name: name.into(),
            static_gcups,
            model: None,
        }
    }

    /// A modeled accelerator PE, named after its device: the model's
    /// throughput on the probe task is its registration prior.
    pub fn modeled(device: Device) -> FleetPe {
        FleetPe {
            name: device.name.clone(),
            static_gcups: device.task_gcups(&TaskSpec::probe()),
            model: Some(device),
        }
    }
}

impl FleetSpec {
    /// Parse `sse:8+gpu:2[+fpga:1]`. Every malformed segment is an error —
    /// nothing defaults.
    pub fn parse(spec: &str) -> Result<FleetSpec, String> {
        if spec.trim().is_empty() {
            return Err("empty fleet spec (expected e.g. sse:8+gpu:2)".into());
        }
        let mut entries = Vec::new();
        for segment in spec.split('+') {
            let segment = segment.trim();
            let Some((kind, count)) = segment.split_once(':') else {
                return Err(format!(
                    "fleet segment {segment:?} is not KIND:COUNT (expected e.g. sse:8)"
                ));
            };
            let Some(kind) = DeviceKind::ALL.into_iter().find(|k| k.tag() == kind) else {
                return Err(format!(
                    "unknown backend {kind:?} in fleet spec (expected sse|gpu|fpga)"
                ));
            };
            let count: usize = count
                .parse()
                .map_err(|_| format!("fleet segment {segment:?}: cannot parse count {count:?}"))?;
            if count == 0 {
                return Err(format!(
                    "fleet segment {segment:?}: count must be at least 1"
                ));
            }
            entries.push((kind, count));
        }
        Ok(FleetSpec { entries })
    }

    /// The `(kind, count)` entries, in written order.
    pub fn entries(&self) -> &[(DeviceKind, usize)] {
        &self.entries
    }

    /// Total PE count.
    pub fn total(&self) -> usize {
        self.entries.iter().map(|&(_, n)| n).sum()
    }

    /// Human-readable description, e.g. `"8 SSE + 2 GPU"`.
    pub fn describe(&self) -> String {
        self.entries
            .iter()
            .map(|(k, n)| format!("{n} {k}"))
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Materialise the fleet into runnable PEs (see the module docs for
    /// which kinds are real and which are modeled). Names number each kind
    /// independently across the whole spec: `sse:2+gpu:1` → `sse0`,
    /// `sse1`, `gpu0`.
    pub fn build(&self) -> Vec<FleetPe> {
        let mut counters = std::collections::HashMap::new();
        let mut pes = Vec::with_capacity(self.total());
        for &(kind, count) in &self.entries {
            for _ in 0..count {
                let i = counters.entry(kind).or_insert(0usize);
                let name = kind.pe_name(*i);
                *i += 1;
                pes.push(match kind {
                    DeviceKind::SseCore => FleetPe::simd(name, 1.0),
                    _ => FleetPe::modeled(Device::new(name, kind)),
                });
            }
        }
        pes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_kind_spec_in_order() {
        let f = FleetSpec::parse("sse:8+gpu:2+fpga:1").unwrap();
        assert_eq!(
            f.entries(),
            &[
                (DeviceKind::SseCore, 8),
                (DeviceKind::Gpu, 2),
                (DeviceKind::Fpga, 1)
            ]
        );
        assert_eq!(f.total(), 11);
        assert_eq!(f.describe(), "8 SSE + 2 GPU + 1 FPGA");
    }

    #[test]
    fn rejects_unknown_backend() {
        let err = FleetSpec::parse("sse:8+tpu:2").unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        assert!(err.contains("tpu"), "{err}");
    }

    #[test]
    fn rejects_zero_count() {
        let err = FleetSpec::parse("gpu:0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn rejects_malformed_segments() {
        assert!(FleetSpec::parse("").is_err());
        assert!(FleetSpec::parse("sse").is_err());
        assert!(FleetSpec::parse("sse:").is_err());
        assert!(FleetSpec::parse("sse:two").is_err());
        assert!(FleetSpec::parse("sse:1++gpu:1").is_err());
        assert!(FleetSpec::parse("sse:-1").is_err());
    }

    #[test]
    fn build_numbers_each_kind_across_entries() {
        let pes = FleetSpec::parse("sse:2+gpu:1+sse:1").unwrap().build();
        let names: Vec<&str> = pes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["sse0", "sse1", "gpu0", "sse2"]);
    }

    #[test]
    fn modeled_kinds_carry_model_and_calibrated_prior() {
        let pes = FleetSpec::parse("gpu:1+sse:1").unwrap().build();
        let gpu = &pes[0];
        assert!(gpu.model.is_some());
        assert!(
            gpu.static_gcups > 1.0,
            "GTX 580 prior should be multi-GCUPS, got {}",
            gpu.static_gcups
        );
        assert_eq!(
            gpu.model.as_ref().unwrap().task_gcups(&TaskSpec::probe()),
            gpu.static_gcups,
            "model and fleet entry must agree on the prior"
        );
        let sse = &pes[1];
        assert!(sse.model.is_none());
        assert_eq!(sse.static_gcups, 1.0);
    }
}
