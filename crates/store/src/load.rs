//! THE database loader: a path on disk becomes the [`DbSnapshot`] every
//! driver scans.
//!
//! The paper's master "acquires and converts the sequence files" once;
//! this is that step for the database side. `search`, `master`, `slave`,
//! `serve` and the daemon's `reload` verb all come through
//! [`DbFile::load`], so a FASTA file and a `.swdb` store are
//! indistinguishable past this point, and the check that the database's
//! alphabet is the scoring matrix's happens here for every one of them.

use std::path::Path;

use swhybrid_seq::fasta::read_encoded;
use swhybrid_seq::{Alphabet, DbSnapshot};

use crate::error::StoreError;
use crate::reader::{Store, Verify};

/// Where a database lives on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DbFile<'a> {
    /// A FASTA file: parsed, encoded and packed (and hashed) on every load.
    Fasta(&'a str),
    /// A `.swdb` store: validated at the given level, its arena borrowed
    /// from the mapping without a copy.
    Store(&'a str, Verify),
}

impl DbFile<'_> {
    /// The path this database is read from.
    pub fn path(&self) -> &str {
        match self {
            DbFile::Fasta(path) | DbFile::Store(path, _) => path,
        }
    }

    /// Load the database for scoring under `alphabet`. FASTA records are
    /// encoded under it, packed (the snapshot is named after the file
    /// stem) and dropped; a non-empty store recorded in a different
    /// alphabet is refused.
    pub fn load(&self, alphabet: Alphabet) -> Result<DbSnapshot, StoreError> {
        match *self {
            DbFile::Fasta(path) => {
                let subjects = read_encoded(path, alphabet).map_err(StoreError::Fasta)?;
                let name = Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                Ok(DbSnapshot::from_encoded(name, &subjects))
            }
            DbFile::Store(path, verify) => {
                let store = Store::open_with(path, verify)?;
                if !store.is_empty() && store.alphabet() != alphabet {
                    return Err(StoreError::AlphabetMismatch {
                        store: store.alphabet(),
                        scoring: alphabet,
                    });
                }
                store.into_snapshot()
            }
        }
    }
}
