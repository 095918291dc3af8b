//! `swhybrid` — command-line front end to the hybrid SW task environment.
//!
//! ```text
//! swhybrid db build <db.fasta> <out.swdb>            build the §IV-B store
//! swhybrid generate <db-name> <scale> <out.fasta>     synthetic database
//! swhybrid search   <query.fasta> <db.fasta> [opts]   real striped search
//! swhybrid simulate [opts]                            platform simulation
//! ```
//!
//! Run `swhybrid help` for the full option list. Every verb lives in
//! [`swhybrid::cli`] (one module per verb family) so the whole CLI surface
//! is unit-testable in-process; this binary only owns argv and the exit
//! code.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match swhybrid::cli::run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `swhybrid help` for usage");
            ExitCode::FAILURE
        }
    }
}
