//! The shared option surface: the minimal `--key value` flag parser and
//! the decoders (scoring scheme, allocation policy, fleet, store
//! verification level) that multiple verbs accept identically.

use crate::align::scoring::{GapModel, Scoring, SubstMatrix, MAX_GAP_PENALTY};
use crate::exec::policy::Policy;
use crate::store::Verify;

/// Minimal flag parser: `--key value` pairs plus positional arguments.
pub(super) struct Opts {
    pub(super) positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Opts {
    pub(super) fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Opts, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if bool_flags.contains(&name) {
                    flags.push((name.to_string(), None));
                } else if value_flags.contains(&name) {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    flags.push((name.to_string(), Some(value.clone())));
                } else {
                    return Err(format!("unknown flag --{name}"));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Opts { positional, flags })
    }

    pub(super) fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(super) fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub(super) fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

pub(super) fn scoring_from_opts(opts: &Opts) -> Result<Scoring, String> {
    let matrix = match opts.get("matrix").unwrap_or("blosum62") {
        "blosum62" => SubstMatrix::blosum62(),
        "blosum50" => SubstMatrix::blosum50(),
        "pam250" => SubstMatrix::pam250(),
        other => return Err(format!("unknown matrix {other:?}")),
    };
    let open = opts.get_parsed("gap-open", 10i32)?;
    let extend = opts.get_parsed("gap-extend", 2i32)?;
    if open < 0 || extend <= 0 {
        return Err("gap penalties must be positive".into());
    }
    if open.max(extend) > MAX_GAP_PENALTY {
        return Err(format!(
            "gap penalties must be at most {MAX_GAP_PENALTY} (--gap-open {open} --gap-extend {extend})"
        ));
    }
    Ok(Scoring {
        matrix,
        gap: GapModel::Affine { open, extend },
    })
}

pub(super) fn policy_from_opts(opts: &Opts) -> Result<Policy, String> {
    Ok(match opts.get("policy").unwrap_or("pss") {
        "ss" => Policy::SelfScheduling,
        "pss" => Policy::pss_default(),
        "fixed" => Policy::Fixed,
        "wfixed" => Policy::WFixed,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

/// Decode `--fleet sse:8+gpu:2` identically for every verb that takes a
/// hybrid fleet (`master`, `serve`, `simulate`). Malformed specs are
/// errors, never defaults.
pub(super) fn fleet_from_opts(opts: &Opts) -> Result<Option<crate::device::FleetSpec>, String> {
    match opts.get("fleet") {
        None => Ok(None),
        Some(spec) => crate::device::FleetSpec::parse(spec)
            .map(Some)
            .map_err(|e| format!("--fleet: {e}")),
    }
}

pub(super) fn store_verify(full: bool) -> Verify {
    if full {
        Verify::Full
    } else {
        Verify::Quick
    }
}
