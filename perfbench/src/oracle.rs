//! Generated inputs and the reference answers they are checked against.
//!
//! Every timed answer is reduced, on the clock, to a record count and
//! an order-independent digest (the wrapping sum of a 64-bit hash of
//! each record's key, origin and payload). Off the clock the same
//! reduction is applied to the generated dataset's
//! [`MaterializedVersions`], so a missing, extra, duplicated or
//! corrupted record shows as a mismatch.

use rstore_core::QuerySpec;
use rstore_vgraph::{Dataset, DatasetSpec, MaterializedVersions, Record, RecordStore, VersionId};
use std::collections::HashMap;

/// SplitMix64: small, seedable and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 / MurmurHash3 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one record: key, origin version and payload bytes.
pub fn record_hash(pk: u64, origin: u32, payload: &[u8]) -> u64 {
    let mut h = mix(pk ^ (u64::from(origin) << 40) ^ payload.len() as u64);
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h ^ u64::from_le_bytes(tail))
}

/// A query answer reduced to what the check needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Records in the answer.
    pub count: u32,
    /// Wrapping sum of the records' hashes.
    pub sum: u64,
}

impl Digest {
    /// Adds one record.
    pub fn add(&mut self, hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash);
    }

    /// Digest of records returned by the store.
    pub fn of(records: &[Record]) -> Self {
        let mut d = Digest::default();
        for r in records {
            d.add(record_hash(r.pk, r.origin.as_u32(), &r.payload));
        }
        d
    }
}

/// The four query classes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Q1: full version retrieval.
    Version,
    /// Record retrieval (one key in one version).
    Point,
    /// Q2: key range of one version.
    Range,
    /// Q3: every value a key ever had.
    Evolution,
}

impl Class {
    /// Every class, in the order phases run them.
    pub const ALL: [Class; 4] = [Class::Version, Class::Point, Class::Range, Class::Evolution];

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One generated query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// Q1.
    Version(u32),
    /// Point read.
    Record {
        /// Key.
        pk: u64,
        /// Version.
        v: u32,
    },
    /// Q2, inclusive bounds.
    Range {
        /// Lower key.
        lo: u64,
        /// Upper key.
        hi: u64,
        /// Version.
        v: u32,
    },
    /// Q3.
    Evolution(u64),
}

impl Query {
    /// The query's class.
    pub fn class(&self) -> Class {
        match self {
            Query::Version(_) => Class::Version,
            Query::Record { .. } => Class::Point,
            Query::Range { .. } => Class::Range,
            Query::Evolution(_) => Class::Evolution,
        }
    }

    /// The store-side spec.
    pub fn spec(&self) -> QuerySpec {
        match *self {
            Query::Version(v) => QuerySpec::Version(VersionId(v)),
            Query::Record { pk, v } => QuerySpec::Record {
                pk,
                v: VersionId(v),
            },
            Query::Range { lo, hi, v } => QuerySpec::Range {
                lo,
                hi,
                v: VersionId(v),
            },
            Query::Evolution(pk) => QuerySpec::Evolution { pk },
        }
    }
}

/// A generated dataset with its reference contents.
pub struct Oracle {
    /// The dataset (graph + one delta per version).
    pub dataset: Dataset,
    /// Every distinct record, interned.
    pub records: RecordStore,
    /// Every version's contents.
    pub versions: MaterializedVersions,
    hashes: Vec<u64>,
    /// Per key: `(origin, hash)` of each of its values, by origin.
    history: HashMap<u64, Vec<(u32, u64)>>,
    /// Every distinct primary key, sorted.
    pub keys: Vec<u64>,
}

impl Oracle {
    /// Generates `spec` and materializes every version.
    pub fn new(spec: &DatasetSpec) -> Self {
        let dataset = spec.generate();
        let records = dataset.record_store();
        let versions = dataset.materialize(&records);
        let mut hashes = Vec::with_capacity(records.len());
        let mut history: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
        for (ord, ck) in records.keys().iter().enumerate() {
            let h = record_hash(ck.pk, ck.origin.as_u32(), records.payload(ord as u32));
            hashes.push(h);
            history
                .entry(ck.pk)
                .or_default()
                .push((ck.origin.as_u32(), h));
        }
        for list in history.values_mut() {
            list.sort_unstable();
        }
        let mut keys: Vec<u64> = history.keys().copied().collect();
        keys.sort_unstable();
        Self {
            dataset,
            records,
            versions,
            hashes,
            history,
            keys,
        }
    }

    /// Versions in the dataset.
    pub fn version_count(&self) -> usize {
        self.versions.version_count()
    }

    /// Sorted `(pk, ordinal)` contents of version `v`.
    pub fn contents(&self, v: u32) -> &[(u64, u32)] {
        self.versions.contents(VersionId(v))
    }

    fn digest_of(&self, entries: &[(u64, u32)]) -> Digest {
        let mut d = Digest::default();
        for &(_, ord) in entries {
            d.add(self.hashes[ord as usize]);
        }
        d
    }

    /// The expected answer to `q` when versions `0..visible` are
    /// stored (only evolution depends on `visible`).
    pub fn expected(&self, q: &Query, visible: u32) -> Digest {
        let v = |v: u32| VersionId(v);
        match *q {
            Query::Version(x) => self.digest_of(self.versions.contents(v(x))),
            Query::Record { pk, v: x } => {
                let mut d = Digest::default();
                if let Some(ord) = self.versions.lookup(v(x), pk) {
                    d.add(self.hashes[ord as usize]);
                }
                d
            }
            Query::Range { lo, hi, v: x } => self.digest_of(self.versions.range(v(x), lo, hi)),
            Query::Evolution(pk) => {
                let mut d = Digest::default();
                for &(origin, h) in self.history.get(&pk).map_or(&[][..], Vec::as_slice) {
                    if origin >= visible {
                        break;
                    }
                    d.add(h);
                }
                d
            }
        }
    }

    /// Keys that have a value in some version of `0..n`.
    pub fn keys_before(&self, n: u32) -> Vec<u64> {
        self.keys
            .iter()
            .copied()
            .filter(|pk| self.history[pk][0].0 < n)
            .collect()
    }

    /// Payload bytes of every distinct record in versions `0..n`.
    pub fn user_bytes(&self, n: u32) -> usize {
        self.records
            .keys()
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck.origin.as_u32() < n)
            .map(|(ord, _)| self.records.payload(ord as u32).len())
            .sum()
    }

    /// Exact comparison of a full-version answer with the reference:
    /// same keys, origins and payload bytes.
    pub fn version_matches(&self, v: u32, mut got: Vec<Record>) -> bool {
        got.sort_unstable_by_key(|r| r.pk);
        let want = self.contents(v);
        got.len() == want.len()
            && got.iter().zip(want).all(|(r, &(pk, ord))| {
                let ck = self.records.key(ord);
                r.pk == pk && r.origin == ck.origin && r.payload[..] == *self.records.payload(ord)
            })
    }
}

/// How versions or keys are drawn: uniformly, or Zipf(θ) over a fixed
/// order (rank 0 most popular).
#[derive(Debug, Clone)]
pub enum Picker<T> {
    /// Uniform over the items.
    Uniform(Vec<T>),
    /// Zipf over the items in the given order; `cdf[i]` is the
    /// cumulative weight of ranks `0..=i`.
    Zipf {
        /// Items by rank.
        items: Vec<T>,
        /// Cumulative weights, normalized to end at 1.
        cdf: Vec<f64>,
    },
}

impl<T: Copy> Picker<T> {
    /// Zipf(θ) over `items` in the given order.
    pub fn zipf(items: Vec<T>, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(items.len());
        let mut acc = 0.0;
        for i in 0..items.len() {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Picker::Zipf { items, cdf }
    }

    /// Draws one item.
    pub fn pick(&self, rng: &mut Rng) -> T {
        match self {
            Picker::Uniform(items) => items[rng.below(items.len())],
            Picker::Zipf { items, cdf } => {
                let u = rng.unit();
                items[cdf.partition_point(|&c| c < u).min(items.len() - 1)]
            }
        }
    }
}

/// Where a read's version comes from.
#[derive(Debug, Clone)]
pub enum VersionSource {
    /// A fixed population.
    Fixed(Picker<u32>),
    /// Uniform over the versions visible when the query is issued.
    Visible,
}

/// A Q2 range covers this share of its version's keys (a tenth, as
/// the repository's Fig. 11 reproduction, `exp_fig11_queries`, sizes
/// its ranges).
pub const RANGE_DIVISOR: usize = 10;

/// A seeded stream of queries. The caller names each query's class,
/// so the workload, not a mix drawn here, decides when each class runs.
pub struct QueryGen {
    rng: Rng,
    versions: VersionSource,
    keys: Picker<u64>,
}

impl QueryGen {
    /// A stream drawing versions from `versions` and Q3 keys from
    /// `keys`.
    pub fn new(seed: u64, versions: VersionSource, keys: Picker<u64>) -> Self {
        Self {
            rng: Rng::new(seed),
            versions,
            keys,
        }
    }

    /// The next query of `class`, over versions `0..visible`
    /// (`visible > 0`). Point and range keys are drawn uniformly from
    /// the version's own keys, so every point read finds its record; a
    /// range spans [`RANGE_DIVISOR`]th of them. A version without
    /// records is read whole.
    pub fn next(&mut self, class: Class, oracle: &Oracle, visible: u32) -> Query {
        if class == Class::Evolution {
            return Query::Evolution(self.keys.pick(&mut self.rng));
        }
        let v = match &self.versions {
            VersionSource::Fixed(p) => p.pick(&mut self.rng),
            VersionSource::Visible => self.rng.below(visible as usize) as u32,
        };
        let contents = oracle.contents(v);
        match class {
            Class::Point if !contents.is_empty() => {
                let pk = contents[self.rng.below(contents.len())].0;
                Query::Record { pk, v }
            }
            Class::Range if !contents.is_empty() => {
                let len = (contents.len() / RANGE_DIVISOR).max(1);
                let i = self.rng.below(contents.len() - len + 1);
                Query::Range {
                    lo: contents[i].0,
                    hi: contents[i + len - 1].0,
                    v,
                }
            }
            _ => Query::Version(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_reference_for_every_class() {
        let oracle = Oracle::new(&DatasetSpec::tiny(7));
        let n = oracle.version_count() as u32;
        let v = n - 1;
        let contents = oracle.contents(v);
        let (pk, ord) = contents[0];
        let rec = |ord: u32| {
            let ck = oracle.records.key(ord);
            Record::new(ck.pk, ck.origin, oracle.records.payload(ord).to_vec())
        };
        let all: Vec<Record> = contents.iter().map(|&(_, o)| rec(o)).collect();
        assert_eq!(Digest::of(&all), oracle.expected(&Query::Version(v), n));
        assert_eq!(
            Digest::of(&[rec(ord)]),
            oracle.expected(&Query::Record { pk, v }, n)
        );
        // Order does not matter; a missing record does.
        let mut rev = all.clone();
        rev.reverse();
        assert_eq!(Digest::of(&rev), Digest::of(&all));
        assert_ne!(Digest::of(&all[1..]), Digest::of(&all));
        assert!(oracle.version_matches(v, rev));
        // Evolution only counts values that exist in visible versions.
        assert_eq!(oracle.expected(&Query::Evolution(pk), 0), Digest::default());
        assert!(oracle.expected(&Query::Evolution(pk), n).count >= 1);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let p = Picker::zipf((0..100u32).collect(), 1.0);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[p.pick(&mut rng) as usize] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[50]);
    }
}
