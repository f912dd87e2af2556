//! The repository's benchmark: three seeded workloads driven through
//! the public `RStore` API from outside the program.
//!
//! * `read_cold` reads dataset C0 with two clients through a 4 MB
//!   decoded-chunk cache that holds about a tenth of the decoded
//!   working set, so most chunks are fetched from the cluster and
//!   decoded.
//! * `read_hot` reads the same dataset with one client through the
//!   default 32 MB cache, Zipf-skewed over a hot set that fits in it,
//!   after an untimed warm-up, so the cluster and the codec are
//!   bypassed.
//! * `ingest_online` bulk-loads half of dataset B1 and commits the
//!   other half online, flushing every [`FLUSH_EVERY`] commits, then
//!   compacts, while one reader queries the published versions.
//!
//! Every workload runs on a six-node in-memory cluster with
//! replication 1 and the virtual LAN model (network time is accounted,
//! never slept), so wall time is the store's own CPU cost. Each round
//! of a read workload ends with the same kind of online phase as
//! `ingest_online` (the dataset's last [`TAIL`] versions committed and
//! flushed every [`FLUSH_EVERY`], then compaction), so every workload
//! reports every metric. See `README.md` for sizes and the layer each
//! metric measures.

pub mod oracle;
pub mod quantile;
pub mod trace;

mod ingest;
mod read;
mod run;

pub use run::{Metric, Outcome};

use std::fmt;
use std::path::PathBuf;

/// Commits between explicit flushes (the flush policy of every run).
pub const FLUSH_EVERY: usize = 4;
/// Versions committed online at the end of each read round.
pub const TAIL: usize = 204;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Working set larger than the cache.
    ReadCold,
    /// Skewed working set inside the cache.
    ReadHot,
    /// Commits, flushes and compaction beside one reader.
    IngestOnline,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ReadCold,
        Workload::ReadHot,
        Workload::IngestOnline,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadCold => "read_cold",
            Workload::ReadHot => "read_hot",
            Workload::IngestOnline => "ingest_online",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Dataset and store sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// `DatasetSpec::tiny` records; runs all workloads in seconds.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the dataset and the query streams.
    pub seed: u64,
    /// Minimum measured time; phases run longer only until every
    /// reported percentile has enough samples.
    pub seconds: u64,
    /// Per-layer run: spans around every call, per-layer metrics.
    pub trace: bool,
    /// Sizes.
    pub scale: Scale,
    /// Where the traced run writes its Chrome trace.
    pub trace_path: Option<PathBuf>,
}

/// Runs one workload and returns its metrics. `Err` means the run
/// could not be completed at all (a store call failed outside the
/// timed operations, or a percentile lacked samples); wrong answers
/// are counted in [`Outcome::failed`] instead.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::ReadCold | Workload::ReadHot => read::run(opts),
        Workload::IngestOnline => ingest::run(opts),
    }
}
