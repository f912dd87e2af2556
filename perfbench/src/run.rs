//! Machinery shared by the workloads: store construction, the timed
//! query and ingest loops, answer checks and metric assembly.

use crate::oracle::{mix, Class, Digest, Oracle, Query, QueryGen, Rng};
use crate::quantile::{median, percentile};
use crate::trace::{self, maybe_span, merge_self_times, SelfTimes, Span, Tracer};
use crate::{Options, Scale, FLUSH_EVERY, TAIL};
use rstore_core::partition::PartitionerKind;
use rstore_core::store::{FlushReport, IngestStages, LoadReport, DEFAULT_CACHE_BUDGET};
use rstore_core::{
    CacheStats, CommitRequest, CompactionConfig, CompactionReport, CoreError, RStore,
};
use rstore_kvstore::{Cluster, NetworkModel};
use rstore_vgraph::gen::presets;
use rstore_vgraph::{Dataset, DatasetSpec, VersionNode};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Storage nodes of the simulated cluster.
pub const NODES: usize = 6;
/// Rounds per run (the least number of cycles, for `ingest_online`).
/// Each round sets a fresh store up and measures a share of the run,
/// so every metric samples the whole run, not one moment of a host
/// whose speed drifts.
pub const ROUNDS: usize = 3;
/// Set-ups per round or cycle. `setup_s` and `load_mb_s` are medians
/// over them; with one per round, five `ingest_online` runs spread
/// 0.18 and 0.21 on them (interquartile range over median), against
/// 0.09 with two.
pub const SETUPS_PER_ROUND: usize = 2;
/// Versions read back exactly after every online phase.
pub const CHECKED_VERSIONS: usize = 16;
/// Samples each query class needs before a phase may end: a p99 needs
/// 1000 ([`percentile`] wants ten beyond it), a p50 needs 20.
pub const MIN_SAMPLES: [u64; 4] = [1000, 1000, 20, 20];

/// Dataset, store and phase sizes of one [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Which sizes these are.
    pub scale: Scale,
    /// Chunk capacity `C` in bytes.
    pub chunk_capacity: usize,
    /// Sub-chunk size `k`.
    pub max_subchunk: usize,
    /// Decoded-chunk cache budget of `read_cold`.
    pub cold_cache: usize,
    /// Decoded-chunk cache budget of `read_hot` and `ingest_online`.
    pub hot_cache: usize,
    /// Chunks the hot set of `read_hot` may span.
    pub hot_chunks: usize,
    /// How long the read workloads' readers stay with one query class
    /// before the next takes its turn.
    pub read_slice: Duration,
    /// The same for `ingest_online`'s reader.
    pub ingest_slice: Duration,
    /// Versions the read workloads bulk-load (the online tail commits
    /// [`TAIL`] more).
    pub read_versions: usize,
    /// Versions `ingest_online` bulk-loads before committing the rest.
    pub ingest_prefix: usize,
    /// Versions of `ingest_online`'s dataset.
    pub ingest_versions: usize,
    /// Hard cap on a phase that is still short of samples.
    pub max_phase: Duration,
}

impl Sizes {
    /// The sizes of `scale`.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                scale,
                chunk_capacity: 16 * 1024,
                max_subchunk: 25,
                cold_cache: 4 * 1024 * 1024,
                hot_cache: DEFAULT_CACHE_BUDGET,
                hot_chunks: 320,
                read_slice: Duration::from_millis(250),
                ingest_slice: Duration::from_millis(25),
                read_versions: 2001,
                ingest_prefix: 500,
                ingest_versions: 1001,
                max_phase: Duration::from_secs(100),
            },
            Scale::Tiny => Self {
                scale,
                chunk_capacity: 1024,
                max_subchunk: 4,
                cold_cache: 4 * 1024,
                hot_cache: DEFAULT_CACHE_BUDGET,
                hot_chunks: 16,
                read_slice: Duration::from_millis(10),
                ingest_slice: Duration::from_millis(1),
                read_versions: 24,
                ingest_prefix: 12,
                ingest_versions: 12 + TAIL,
                max_phase: Duration::from_secs(30),
            },
        }
    }

    /// The read workloads' dataset: C0 (branched, 10% random updates)
    /// with [`TAIL`] versions beyond the bulk-loaded ones.
    ///
    /// The dataset keeps the preset's own seed; the run's seed drives
    /// the query streams, the hot set and the read-back sample. The
    /// version tree a seed generates sets flush, compaction and Q1 costs
    /// (flush p50 differed 3x between two B1 seeds), so a seeded
    /// dataset would turn every comparison between commits into a
    /// comparison between datasets.
    pub fn read_spec(&self) -> DatasetSpec {
        let base = match self.scale {
            Scale::Full => presets::c0(),
            Scale::Tiny => DatasetSpec::tiny(0xC0),
        };
        DatasetSpec {
            num_versions: self.read_versions + TAIL,
            ..base
        }
    }

    /// `ingest_online`'s dataset: B1 (mildly branched, 5% random
    /// updates), of which the first [`Sizes::ingest_prefix`] versions
    /// are bulk-loaded and the rest committed online. Fixed like
    /// [`Sizes::read_spec`].
    pub fn ingest_spec(&self) -> DatasetSpec {
        let base = match self.scale {
            Scale::Full => presets::b1(),
            Scale::Tiny => DatasetSpec::tiny(0xB1),
        };
        DatasetSpec {
            num_versions: self.ingest_versions,
            ..base
        }
    }
}

/// A fresh store on a fresh cluster: six nodes, replication 1, the
/// virtual LAN model, the in-memory engine, BOTTOM-UP partitioning.
/// Auto-flush is set above the explicit flush cadence and
/// auto-compaction is off, so every flush and compaction is a timed,
/// explicit call.
pub fn new_store(sizes: &Sizes, cache_budget: usize) -> RStore {
    let cluster = Cluster::builder()
        .nodes(NODES)
        .replication(1)
        .network(NetworkModel::lan_virtual())
        .build();
    RStore::builder()
        .chunk_capacity(sizes.chunk_capacity)
        .max_subchunk(sizes.max_subchunk)
        .partitioner(PartitionerKind::BottomUp { beta: usize::MAX })
        .cache_budget(cache_budget)
        .batch_size(FLUSH_EVERY * 256)
        .compaction(CompactionConfig {
            min_fill: 1.1,
            max_chunks_per_slice: 64,
            ..CompactionConfig::default()
        })
        .build(cluster)
}

/// Bulk-loads `dataset` into `store` (inside a span when traced) and
/// returns the report with the call's wall time.
pub fn load(
    store: &RStore,
    dataset: &Dataset,
    tracer: Option<&mut Tracer>,
) -> Result<(LoadReport, Duration), String> {
    let t = Instant::now();
    let report = maybe_span(tracer, "load_dataset", || store.load_dataset(dataset))
        .map_err(|e| format!("load_dataset: {e}"))?;
    Ok((report, t.elapsed()))
}

/// Which versions are flushed. The writer raises `upcoming` before a
/// flush and `visible` after it, so a reader that reads `visible`
/// before a query and `upcoming` after it brackets the snapshot the
/// query saw.
#[derive(Debug)]
pub struct Visibility {
    visible: AtomicU32,
    upcoming: AtomicU32,
}

impl Visibility {
    /// Versions `0..n` flushed.
    pub fn new(n: usize) -> Self {
        Self {
            visible: AtomicU32::new(n as u32),
            upcoming: AtomicU32::new(n as u32),
        }
    }
}

/// Per-layer counts of the traced queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCounters {
    /// Traced queries.
    pub queries: u64,
    /// Planned chunks (`QueryPlan::span`).
    pub span_chunks: u64,
    /// Records returned.
    pub records: u64,
    /// Chunks that contributed a record.
    pub useful_chunks: u64,
    /// Bytes fetched from the cluster.
    pub bytes: u64,
    /// Keys in each query's largest node batch.
    pub max_node_batch: u64,
    /// Admission queue wait.
    pub queue_wait: Duration,
    /// Modeled LAN time.
    pub modeled: Duration,
}

impl QueryCounters {
    fn absorb(&mut self, o: &QueryCounters) {
        self.queries += o.queries;
        self.span_chunks += o.span_chunks;
        self.records += o.records;
        self.useful_chunks += o.useful_chunks;
        self.bytes += o.bytes;
        self.max_node_batch += o.max_node_batch;
        self.queue_wait += o.queue_wait;
        self.modeled += o.modeled;
    }
}

fn root_span(class: Class) -> &'static str {
    match class {
        Class::Version => "query.q1",
        Class::Point => "query.point",
        Class::Range => "query.range",
        Class::Evolution => "query.evo",
    }
}

/// Runs one query through plan → execute → drain and returns the
/// answer's digest and latency. With a tracer each stage gets a span
/// and the query's layer counts go into `counters`.
pub fn run_query(
    store: &RStore,
    q: &Query,
    tracer: Option<&mut Tracer>,
    counters: &mut QueryCounters,
) -> Result<(Digest, Duration), CoreError> {
    let spec = q.spec();
    let t0 = Instant::now();
    let traced = tracer.is_some();
    let result = match tracer {
        None => (|| -> Result<_, CoreError> {
            let plan = store.plan_query(spec)?;
            let span = plan.span();
            let mut stream = store.execute(plan)?.into_stream();
            let records = stream.drain()?;
            Ok((records, span, stream))
        })(),
        Some(t) => {
            t.begin(root_span(q.class()));
            let r = (|| -> Result<_, CoreError> {
                let plan = t.span("plan_query", || store.plan_query(spec))?;
                let span = plan.span();
                let mut stream = t.span("execute", || store.execute(plan))?.into_stream();
                let records = t.span("drain", || stream.drain())?;
                Ok((records, span, stream))
            })();
            t.end();
            r
        }
    };
    let latency = t0.elapsed();
    let (records, span, stream) = result?;
    if traced {
        let m = stream.metrics();
        counters.queries += 1;
        counters.span_chunks += span as u64;
        counters.records += records.len() as u64;
        counters.useful_chunks += stream.chunks_useful() as u64;
        counters.bytes += m.bytes_fetched as u64;
        counters.max_node_batch += m.max_node_batch as u64;
        counters.queue_wait += m.queue_wait;
        counters.modeled += m.modeled_network;
    }
    Ok((Digest::of(&records), latency))
}

/// What one closed-loop reader did.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latency in ms of every answered query, per class.
    pub latencies: [Vec<f64>; 4],
    /// Wall time of the client's loop, including the benchmark's own
    /// work between queries (digests, answer checks, query generation).
    pub wall: Duration,
    /// Summed latency (ms) and count of traced queries, per class.
    pub traced: [(f64, u64); 4],
    /// Summed latency (ms) and count of untraced queries, per class.
    pub untraced: [(f64, u64); 4],
    /// Queries that returned an error.
    pub errors: u64,
    /// Answers that differ from the reference.
    pub wrong: u64,
    /// The first error or wrong answer.
    pub first_failure: Option<String>,
    /// Layer counts of the traced queries, per class.
    pub counters: [QueryCounters; 4],
}

impl ClientLog {
    /// Merges another client's log into this one.
    pub fn absorb(&mut self, o: ClientLog) {
        for (mine, theirs) in self.latencies.iter_mut().zip(o.latencies) {
            mine.extend(theirs);
        }
        self.wall += o.wall;
        for (mine, theirs) in self.traced.iter_mut().zip(o.traced) {
            *mine = (mine.0 + theirs.0, mine.1 + theirs.1);
        }
        for (mine, theirs) in self.untraced.iter_mut().zip(o.untraced) {
            *mine = (mine.0 + theirs.0, mine.1 + theirs.1);
        }
        self.errors += o.errors;
        self.wrong += o.wrong;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
        for (mine, theirs) in self.counters.iter_mut().zip(&o.counters) {
            mine.absorb(theirs);
        }
    }

    /// Queries answered or failed.
    pub fn queries(&self) -> u64 {
        self.latencies.iter().map(|l| l.len() as u64).sum::<u64>() + self.errors
    }
}

/// Shared per-class query counts, for the stop rule.
pub type ClassCounts = [AtomicU64; 4];

/// True once `class` has `part` of [`ROUNDS`] shares of its
/// [`MIN_SAMPLES`].
pub fn has_samples(counts: &ClassCounts, class: Class, part: usize) -> bool {
    let i = class.index();
    counts[i].load(Ordering::Relaxed) * ROUNDS as u64 >= MIN_SAMPLES[i] * part as u64
}

/// The class a reader issues at `elapsed` into its timed reads: the
/// classes take turns in slices of `slice`, so each is measured on its
/// own, yet every class samples the whole run.
pub fn class_at(elapsed: Duration, slice: Duration) -> Class {
    let turn = elapsed.as_nanos() / slice.as_nanos();
    Class::ALL[(turn % Class::ALL.len() as u128) as usize]
}

/// True once every class has all its [`MIN_SAMPLES`].
pub fn enough_samples(counts: &ClassCounts) -> bool {
    Class::ALL.iter().all(|&c| has_samples(counts, c, ROUNDS))
}

/// A closed-loop client: issues a query of the class `schedule` names
/// only after the last one completed, until `schedule` says stop. With
/// a tracer every other query of each class is traced (per class, so a
/// turn order cannot line a class up with only traced or only
/// untraced queries), and the untraced half measures
/// the tracing overhead in the same run.
///
/// Each answer is compared with the reference after its latency is
/// taken. A Q3 that overlapped a flush may match any version count
/// between what was flushed when it started and what was being
/// flushed when it ended; the other classes do not depend on it.
pub fn client_loop(
    store: &RStore,
    oracle: &Oracle,
    gen: &mut QueryGen,
    vis: &Visibility,
    mut tracer: Option<&mut Tracer>,
    counts: &ClassCounts,
    schedule: &dyn Fn() -> Option<Class>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let start = Instant::now();
    let mut issued = [0u64; 4];
    while let Some(class) = schedule() {
        let lo = vis.visible.load(Ordering::SeqCst);
        let q = gen.next(class, oracle, lo);
        let i = q.class().index();
        let traced = tracer.is_some() && issued[i].is_multiple_of(2);
        let t = if traced { tracer.as_deref_mut() } else { None };
        let r = run_query(store, &q, t, &mut log.counters[i]);
        let hi = vis.upcoming.load(Ordering::SeqCst);
        match r {
            Ok((digest, latency)) => {
                let ms = latency.as_secs_f64() * 1e3;
                log.latencies[i].push(ms);
                if tracer.is_some() {
                    let side = if traced {
                        &mut log.traced[i]
                    } else {
                        &mut log.untraced[i]
                    };
                    side.0 += ms;
                    side.1 += 1;
                }
                let window = if q.class() == Class::Evolution {
                    lo..=hi
                } else {
                    lo..=lo
                };
                if !window.into_iter().any(|n| oracle.expected(&q, n) == digest) {
                    log.wrong += 1;
                    log.first_failure.get_or_insert_with(|| {
                        format!(
                            "{q:?}: got {digest:?}, expected {:?}",
                            oracle.expected(&q, lo)
                        )
                    });
                }
            }
            Err(e) => {
                log.errors += 1;
                log.first_failure
                    .get_or_insert_with(|| format!("{q:?}: {e}"));
            }
        }
        counts[i].fetch_add(1, Ordering::Relaxed);
        issued[i] += 1;
    }
    log.wall = start.elapsed();
    log
}

/// Reads back `CHECKED_VERSIONS` seeded versions of `0..n` and compares
/// them record by record. Returns `(attempted, wrong, first problem)`.
pub fn check_versions(
    store: &RStore,
    oracle: &Oracle,
    n: usize,
    seed: u64,
) -> (u64, u64, Option<String>) {
    let mut rng = Rng::new(seed);
    let mut wrong = 0;
    let mut first = None;
    for _ in 0..CHECKED_VERSIONS {
        let v = rng.below(n) as u32;
        let ok = match store
            .stream_query(Query::Version(v).spec())
            .and_then(|mut s| s.drain())
        {
            Ok(records) => oracle.version_matches(v, records),
            Err(e) => {
                first.get_or_insert_with(|| format!("read-back of version {v}: {e}"));
                false
            }
        };
        if !ok {
            wrong += 1;
            first.get_or_insert_with(|| format!("read-back of version {v} differs"));
        }
    }
    (CHECKED_VERSIONS as u64, wrong, first)
}

fn commit_request(dataset: &Dataset, node: &VersionNode) -> CommitRequest {
    let delta = &dataset.deltas[node.id.index()];
    let mut req = match node.parents.as_slice() {
        [] => CommitRequest::root(Vec::<(u64, Vec<u8>)>::new()),
        [p] => CommitRequest::child_of(*p),
        [p, rest @ ..] => CommitRequest::merge_of(*p, rest.iter().copied()),
    };
    let readded: HashSet<u64> = delta.added.iter().map(|r| r.pk).collect();
    for r in &delta.added {
        req = req.put(r.pk, r.payload.clone());
    }
    // A removed key that is not re-added is a delete; a re-added one
    // is an update the store resolves itself.
    for ck in &delta.removed {
        if !readded.contains(&ck.pk) {
            req = req.delete(ck.pk);
        }
    }
    req
}

/// One online phase: commits, flushes and the compaction after them.
#[derive(Debug, Default)]
pub struct OnlineRun {
    /// Versions committed.
    pub versions: usize,
    /// Wall time from the first commit to the end of the last flush.
    pub commit_secs: f64,
    /// Latency of every flush, ms.
    pub flush_ms: Vec<f64>,
    /// Every flush's report.
    pub flushes: Vec<FlushReport>,
    /// Wall time of compaction (until it has nothing to do) plus
    /// reclamation.
    pub compact_secs: f64,
    /// Every compaction call's report.
    pub compactions: Vec<CompactionReport>,
}

/// Commits versions `from..` of `dataset` (whose first `from` versions
/// are loaded), flushing every [`FLUSH_EVERY`] commits, then compacts
/// until compaction has nothing left to do and reclaims.
pub fn online_phase(
    store: &RStore,
    dataset: &Dataset,
    from: usize,
    vis: &Visibility,
    mut tracer: Option<&mut Tracer>,
) -> Result<OnlineRun, String> {
    let nodes = &dataset.graph.nodes()[from..];
    let mut out = OnlineRun {
        versions: nodes.len(),
        ..OnlineRun::default()
    };
    let t0 = Instant::now();
    for (i, node) in nodes.iter().enumerate() {
        let req = commit_request(dataset, node);
        let v = maybe_span(tracer.as_deref_mut(), "commit", || store.commit(req))
            .map_err(|e| format!("commit of version {}: {e}", node.id))?;
        if v != node.id {
            return Err(format!("commit assigned {v}, expected {}", node.id));
        }
        if store.pending_commits() >= FLUSH_EVERY || i + 1 == nodes.len() {
            let next = (from + i + 1) as u32;
            vis.upcoming.store(next, Ordering::SeqCst);
            let t = Instant::now();
            let report = maybe_span(tracer.as_deref_mut(), "flush_batch", || store.flush_batch())
                .map_err(|e| format!("flush_batch: {e}"))?;
            out.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
            vis.visible.store(next, Ordering::SeqCst);
            out.flushes.push(report);
        }
    }
    out.commit_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.begin("compaction");
    }
    let result = (|| {
        // Each call compacts every victim it selects, slice by slice;
        // the loop ends when no victims are left or the layout would
        // not improve. The bound only guards against a store that
        // never converges.
        for _ in 0..64 {
            match maybe_span(tracer.as_deref_mut(), "compact", || store.compact()) {
                Ok(Some(report)) => out.compactions.push(report),
                Ok(None) => {
                    return maybe_span(tracer.as_deref_mut(), "reclaim", || store.reclaim())
                        .map(|_| ())
                        .map_err(|e| format!("reclaim: {e}"));
                }
                Err(e) => return Err(format!("compact: {e}")),
            }
        }
        Err("compaction did not converge in 64 calls".to_string())
    })();
    if let Some(t) = tracer {
        t.end();
    }
    result?;
    out.compact_secs = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// Everything one run measured, before it is turned into metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall time of each set-up.
    pub setup_secs: Vec<f64>,
    /// Each bulk load's report and wall time.
    pub loads: Vec<(LoadReport, Duration)>,
    /// The readers' merged log.
    pub reads: ClientLog,
    /// Closed-loop readers running at once.
    pub clients: usize,
    /// Every online phase.
    pub online: Vec<OnlineRun>,
    /// Cache counters over the read phases: hits, misses, evictions.
    pub cache: (u64, u64, u64),
    /// Cluster node-batch reads over the read phases.
    pub batch_gets: u64,
    /// Bytes the last store's cluster accepted over its life.
    pub bytes_written: u64,
    /// Stored chunk bytes of the last store at the end.
    pub storage_bytes: usize,
    /// Payload bytes of the distinct records in the last store.
    pub user_bytes: usize,
    /// Timed operations plus read-back checks.
    pub attempted: u64,
    /// Failed or wrong operations.
    pub failed: u64,
    /// The first failure.
    pub first_failure: Option<String>,
    /// The spans a traced run kept for its Chrome trace.
    pub spans: Vec<Span>,
    /// Spans a traced run finished, kept or not.
    pub spans_finished: usize,
    /// Self times of every span of a traced run.
    pub self_times: SelfTimes,
    /// Human-readable notes on sizes.
    pub notes: Vec<String>,
}

impl Measured {
    /// Adds the difference of two cache snapshots.
    pub fn add_cache(&mut self, before: &CacheStats, after: &CacheStats) {
        self.cache.0 += after.hits - before.hits;
        self.cache.1 += after.misses - before.misses;
        self.cache.2 += after.evictions - before.evictions;
    }

    /// Counts a check's result.
    pub fn add_check(&mut self, attempted: u64, wrong: u64, first: Option<String>) {
        self.attempted += attempted;
        self.failed += wrong;
        if self.first_failure.is_none() {
            self.first_failure = first;
        }
    }

    /// Counts the readers' queries and their failures.
    pub fn count_reads(&mut self) {
        let r = &self.reads;
        let (queries, failed, first) = (r.queries(), r.errors + r.wrong, r.first_failure.clone());
        self.add_check(queries, failed, first);
    }

    /// Counts the online phases' operations (commits, flushes and
    /// compaction calls); they failed the run already if any failed.
    pub fn count_online(&mut self) {
        for o in &self.online {
            self.attempted += (o.versions + o.flushes.len() + o.compactions.len() + 1) as u64;
        }
    }
}

/// The skeleton every workload shares: timed set-ups, reading phases
/// with the cache and cluster counters' growth over them, an exact
/// read-back after each round, and the final checks and metrics. A
/// workload supplies only what runs in its rounds.
pub struct Rig<'a> {
    opts: &'a Options,
    oracle: &'a Oracle,
    sizes: Sizes,
    /// What has been measured so far.
    pub m: Measured,
    /// The tracer of the main thread (set-ups, commits, flushes,
    /// compaction), in a traced run.
    pub writer: Option<Tracer>,
    readers: Vec<Option<Tracer>>,
    counts: ClassCounts,
    rounds: u64,
    /// When the run stops even if samples are missing.
    pub deadline: Instant,
}

impl<'a> Rig<'a> {
    /// A run of `clients` closed-loop readers over `oracle`'s dataset.
    pub fn new(opts: &'a Options, oracle: &'a Oracle, clients: usize) -> Self {
        let sizes = Sizes::of(opts.scale);
        let epoch = Instant::now();
        Self {
            opts,
            oracle,
            sizes,
            m: Measured {
                clients,
                ..Measured::default()
            },
            writer: opts.trace.then(|| Tracer::new(epoch, 0)),
            readers: (0..clients)
                .map(|c| opts.trace.then(|| Tracer::new(epoch, 1 + c as u32)))
                .collect(),
            counts: Default::default(),
            rounds: 0,
            deadline: epoch + sizes.max_phase,
        }
    }

    /// Rounds ended so far.
    pub fn rounds(&self) -> usize {
        self.rounds as usize
    }

    /// Answered queries per class so far.
    pub fn counts(&self) -> &ClassCounts {
        &self.counts
    }

    /// A round's [`SETUPS_PER_ROUND`] timed set-ups, each a fresh
    /// store with `cache_budget`, the bulk load of `prefix`, then
    /// `prepare` (work such as a warm-up is set-up time too). The round
    /// continues on the last store.
    pub fn set_up<S>(
        &mut self,
        cache_budget: usize,
        prefix: &Dataset,
        prepare: impl Fn(&RStore) -> Result<S, String>,
    ) -> Result<(RStore, S), String> {
        let mut kept = None;
        for _ in 0..SETUPS_PER_ROUND {
            drop(kept.take());
            let t = Instant::now();
            let store = new_store(&self.sizes, cache_budget);
            let report = load(&store, prefix, self.writer.as_mut())?;
            let prepared = prepare(&store)?;
            self.m.setup_secs.push(t.elapsed().as_secs_f64());
            self.m.loads.push(report);
            kept = Some((store, prepared));
        }
        Ok(kept.expect("SETUPS_PER_ROUND > 0"))
    }

    /// Runs `phase`, which gets the readers' tracers, the writer's and
    /// the shared class counts and returns the readers' logs; adds the
    /// logs and the growth of the store's cache and cluster counters
    /// over the phase.
    pub fn read_phase<R>(
        &mut self,
        store: &RStore,
        phase: impl FnOnce(
            &mut [Option<Tracer>],
            Option<&mut Tracer>,
            &ClassCounts,
        ) -> (Vec<ClientLog>, R),
    ) -> R {
        let cache0 = store.cache_stats();
        let cluster0 = store.cluster().stats();
        let (logs, out) = phase(&mut self.readers, self.writer.as_mut(), &self.counts);
        self.m.add_cache(&cache0, &store.cache_stats());
        self.m.batch_gets += store.cluster().stats().since(&cluster0).batch_gets;
        let mut merged = ClientLog::default();
        for log in logs {
            merged.absorb(log);
        }
        if let Ok(p50) = percentile(&merged.latencies[Class::Version.index()], 0.5) {
            let round = self.rounds;
            self.m
                .notes
                .push(format!("round {round}: Q1 p50 {p50:.4} ms"));
        }
        self.m.reads.absorb(merged);
        out
    }

    /// Ends a round on `store`: reads back a seeded sample of versions
    /// off the clock and records the store's sizes.
    pub fn end_round(&mut self, store: &RStore) {
        let seed = mix(self.opts.seed ^ 0xC4EC ^ self.rounds);
        let (a, w, first) = check_versions(store, self.oracle, self.oracle.version_count(), seed);
        self.m.add_check(a, w, first);
        self.m.storage_bytes = store.storage_bytes();
        self.m.bytes_written = store.cluster().stats().bytes_written;
        self.rounds += 1;
    }

    /// Checks every answer and turns the measurements into metrics.
    pub fn finish(mut self) -> Result<Outcome, String> {
        let m = &mut self.m;
        let setups: Vec<String> = m.setup_secs.iter().map(|t| format!("{t:.3}")).collect();
        m.notes.push(format!(
            "{} rounds; set-up times (s): {}",
            self.rounds,
            setups.join(" ")
        ));
        if Instant::now() >= self.deadline {
            m.notes.push("the run hit its time cap".into());
        }
        let in_store: f64 = m.reads.latencies.iter().flatten().sum::<f64>() / 1e3;
        m.notes.push(format!(
            "readers spent {:.1}% of their loop time in store calls",
            100.0 * ratio(in_store, m.reads.wall.as_secs_f64())
        ));
        m.count_online();
        m.count_reads();
        m.user_bytes = self.oracle.user_bytes(self.oracle.version_count() as u32);
        for t in self.readers.into_iter().chain([self.writer]).flatten() {
            merge_self_times(&mut m.self_times, t.self_times());
            m.spans_finished += t.finished();
            m.spans.extend(t.into_spans());
        }
        finish(self.m, self.opts)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples it was computed from.
    pub samples: usize,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (timed operations plus read-back checks).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first failure, if any.
    pub first_failure: Option<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (sizes, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every answer was right.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn percentile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        self.push(name, value, unit, samples.len());
        Ok(())
    }

    fn median(
        &mut self,
        name: &'static str,
        samples: &[f64],
        unit: &'static str,
    ) -> Result<(), String> {
        let value = median(samples).ok_or_else(|| format!("{name}: no samples"))?;
        self.push(name, value, unit, samples.len());
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Turns a run's measurements into its metrics: the end-to-end set for
/// an untraced run, the per-layer set for a traced one.
pub fn finish(m: Measured, opts: &Options) -> Result<Outcome, String> {
    let metrics = if opts.trace {
        if let Some(path) = &opts.trace_path {
            trace::write_chrome_trace(path, &m.spans, m.spans_finished)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        per_layer(&m)?
    } else {
        end_to_end(&m)?
    };
    let mut notes = m.notes;
    if opts.trace {
        notes.push(format!(
            "spans recorded: {}, {} kept for the trace",
            m.spans_finished,
            m.spans.len()
        ));
        if let Some(path) = &opts.trace_path {
            notes.push(format!("chrome trace: {}", path.display()));
        }
    }
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        first_failure: m.first_failure,
        metrics: metrics.0,
        notes,
    })
}

fn end_to_end(m: &Measured) -> Result<Metrics, String> {
    let mut out = Metrics(Vec::new());
    out.median("setup_s", &m.setup_secs, "s")?;
    let load: Vec<f64> = m
        .loads
        .iter()
        .map(|(r, t)| r.raw_bytes as f64 / 1e6 / t.as_secs_f64())
        .collect();
    out.median("load_mb_s", &load, "MB/s")?;
    let lat = &m.reads.latencies;
    out.percentile("q1_p50_ms", &lat[Class::Version.index()], 0.5, "ms")?;
    out.percentile("q1_p99_ms", &lat[Class::Version.index()], 0.99, "ms")?;
    out.percentile("point_p50_ms", &lat[Class::Point.index()], 0.5, "ms")?;
    out.percentile("point_p99_ms", &lat[Class::Point.index()], 0.99, "ms")?;
    out.percentile("range_p50_ms", &lat[Class::Range.index()], 0.5, "ms")?;
    out.percentile("evo_p50_ms", &lat[Class::Evolution.index()], 0.5, "ms")?;
    // Readers that each issue the four classes in turn complete one
    // query of each per the sum of the classes' mean latencies. Only
    // time inside store calls counts, and the figure does not depend on
    // how long each class's phases ran.
    let mean_sum_ms: f64 = lat
        .iter()
        .map(|l| l.iter().sum::<f64>() / l.len() as f64)
        .sum();
    let answered: usize = lat.iter().map(Vec::len).sum();
    out.push(
        "read_qps",
        m.clients as f64 * 1e3 * lat.len() as f64 / mean_sum_ms,
        "1/s",
        answered,
    );
    let vps: Vec<f64> = m
        .online
        .iter()
        .map(|o| o.versions as f64 / o.commit_secs)
        .collect();
    out.median("commit_vps", &vps, "1/s")?;
    let flushes: Vec<f64> = m
        .online
        .iter()
        .flat_map(|o| o.flush_ms.iter().copied())
        .collect();
    out.percentile("flush_p50_ms", &flushes, 0.5, "ms")?;
    out.percentile("flush_p90_ms", &flushes, 0.9, "ms")?;
    let compact: Vec<f64> = m.online.iter().map(|o| o.compact_secs).collect();
    out.median("compact_s", &compact, "s")?;
    out.push(
        "bytes_per_user_byte",
        ratio(m.storage_bytes as f64, m.user_bytes as f64),
        "B/B",
        1,
    );
    out.push(
        "ok_frac",
        ratio((m.attempted - m.failed) as f64, m.attempted as f64),
        "frac",
        m.attempted as usize,
    );
    Ok(out)
}

fn per_layer(m: &Measured) -> Result<Metrics, String> {
    let mut out = Metrics(Vec::new());
    let st = &m.self_times;
    // Query metrics are per query of a reader that issues the four
    // classes in turn: the mean over classes of each class's mean, so
    // a class that gets faster, and so more frequent in its phases,
    // does not shift the others' weight.
    let cs = &m.reads.counters;
    let n = cs.iter().map(|c| c.queries).sum::<u64>() as usize;
    let sum_over_classes = |f: &dyn Fn(Class, &QueryCounters) -> f64| -> f64 {
        Class::ALL
            .into_iter()
            .zip(cs)
            .map(|(class, c)| ratio(f(class, c), c.queries as f64))
            .sum()
    };
    let per_query =
        |f: &dyn Fn(Class, &QueryCounters) -> f64| sum_over_classes(f) / cs.len() as f64;
    // Self time of one stage of one traced query.
    let stage = |name: &str| -> f64 {
        per_query(&|class, _| {
            st.get(&(root_span(class), name))
                .map_or(0.0, |s| s.total.as_secs_f64() * 1e3)
        })
    };
    out.push("plan.ms", stage("plan_query"), "ms", n);
    out.push(
        "plan.span_chunks",
        per_query(&|_, c| c.span_chunks as f64),
        "count",
        n,
    );
    out.push(
        "plan.chunks_per_record",
        ratio(
            sum_over_classes(&|_, c| c.span_chunks as f64),
            sum_over_classes(&|_, c| c.records as f64),
        ),
        "ratio",
        n,
    );
    out.push(
        "serve.queue_wait_ms",
        per_query(&|_, c| ms(c.queue_wait)),
        "ms",
        n,
    );
    out.push("fetch.ms", stage("execute"), "ms", n);
    out.push("fetch.bytes", per_query(&|_, c| c.bytes as f64), "B", n);
    let all = m.reads.queries();
    out.push(
        "fetch.node_batches",
        ratio(m.batch_gets as f64, all as f64),
        "count",
        all as usize,
    );
    out.push(
        "fetch.max_node_batch",
        per_query(&|_, c| c.max_node_batch as f64),
        "count",
        n,
    );
    out.push(
        "cluster.modeled_net_ms",
        per_query(&|_, c| ms(c.modeled)),
        "ms",
        n,
    );
    let (hits, misses, evictions) = m.cache;
    out.push(
        "cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "frac",
        (hits + misses) as usize,
    );
    out.push(
        "cache.evictions_per_query",
        ratio(evictions as f64, all as f64),
        "count",
        all as usize,
    );
    out.push("extract.ms", stage("drain"), "ms", n);
    out.push(
        "extract.useful_frac",
        ratio(
            sum_over_classes(&|_, c| c.useful_chunks as f64),
            sum_over_classes(&|_, c| c.span_chunks as f64),
        ),
        "frac",
        n,
    );
    // Share of Q1 wall time spent fetching and extracting.
    let q1 = |name: &str| {
        st.get(&("query.q1", name))
            .map_or(0.0, |s| s.total.as_secs_f64())
    };
    let q1_total: f64 = st
        .iter()
        .filter(|((root, _), _)| *root == "query.q1")
        .map(|(_, s)| s.total.as_secs_f64())
        .sum();
    out.push(
        "q1.fetch_extract_frac",
        ratio(q1("execute") + q1("drain"), q1_total),
        "frac",
        st.get(&("query.q1", "query.q1")).map_or(0, |s| s.count),
    );

    let commits = st.get(&("commit", "commit")).copied().unwrap_or_default();
    out.push("store.commit_ms", commits.mean_ms(), "ms", commits.count);
    let flushes: Vec<&FlushReport> = m.online.iter().flat_map(|o| &o.flushes).collect();
    let nf = flushes.len();
    let flush_stage = |f: fn(&IngestStages) -> Duration| {
        ratio(flushes.iter().map(|r| ms(f(&r.stages))).sum(), nf as f64)
    };
    out.push("subchunk.encode_ms", flush_stage(|s| s.subchunk), "ms", nf);
    out.push("partition.ms", flush_stage(|s| s.partition), "ms", nf);
    out.push("chunk.assemble_ms", flush_stage(|s| s.assemble), "ms", nf);
    out.push("chunkmap.index_ms", flush_stage(|s| s.index), "ms", nf);
    out.push(
        "cluster.write_blocked_ms",
        flush_stage(|s| s.write),
        "ms",
        nf,
    );
    out.push(
        "chunkmap.maps_rewritten",
        ratio(
            flushes.iter().map(|r| r.maps_rewritten as f64).sum(),
            nf as f64,
        ),
        "count",
        nf,
    );
    let nl = m.loads.len();
    let load_stage = |f: fn(&IngestStages) -> Duration| {
        ratio(
            m.loads.iter().map(|(r, _)| ms(f(&r.stages))).sum(),
            nl as f64,
        )
    };
    out.push(
        "load.subchunk.encode_ms",
        load_stage(|s| s.subchunk),
        "ms",
        nl,
    );
    out.push("load.partition.ms", load_stage(|s| s.partition), "ms", nl);
    out.push(
        "load.chunk.assemble_ms",
        load_stage(|s| s.assemble),
        "ms",
        nl,
    );
    out.push("load.chunkmap.index_ms", load_stage(|s| s.index), "ms", nl);
    out.push(
        "load.cluster.write_blocked_ms",
        load_stage(|s| s.write),
        "ms",
        nl,
    );
    out.push(
        "cluster.bytes_written_per_user_byte",
        ratio(m.bytes_written as f64, m.user_bytes as f64),
        "B/B",
        1,
    );

    // Compaction: per online phase, summed over its compaction calls.
    let runs: Vec<&OnlineRun> = m
        .online
        .iter()
        .filter(|o| !o.compactions.is_empty())
        .collect();
    let nr = runs.len();
    let per_run = |f: &dyn Fn(&OnlineRun) -> f64| ratio(runs.iter().map(|o| f(o)).sum(), nr as f64);
    let stage_sum = |o: &OnlineRun, f: fn(&CompactionReport) -> Duration| -> f64 {
        o.compactions.iter().map(|r| ms(f(r))).sum()
    };
    out.push(
        "compact.measure_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.measure)),
        "ms",
        nr,
    );
    out.push(
        "compact.extract_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.extract)),
        "ms",
        nr,
    );
    out.push(
        "compact.partition_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.partition)),
        "ms",
        nr,
    );
    out.push(
        "compact.rebuild_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.rebuild)),
        "ms",
        nr,
    );
    out.push(
        "compact.index_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.index)),
        "ms",
        nr,
    );
    out.push(
        "compact.write_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.write)),
        "ms",
        nr,
    );
    out.push(
        "compact.delete_ms",
        per_run(&|o| stage_sum(o, |r| r.stages.delete)),
        "ms",
        nr,
    );
    out.push(
        "compact.bytes_rewritten",
        per_run(&|o| o.compactions.iter().map(|r| r.bytes_rewritten as f64).sum()),
        "B",
        nr,
    );
    out.push(
        "compact.slices",
        per_run(&|o| o.compactions.iter().map(|r| r.slices as f64).sum()),
        "count",
        nr,
    );
    out.push(
        "compact.span_before",
        per_run(&|o| o.compactions[0].before.total_version_span as f64),
        "count",
        nr,
    );
    out.push(
        "compact.span_after",
        per_run(&|o| {
            o.compactions[o.compactions.len() - 1]
                .after
                .total_version_span as f64
        }),
        "count",
        nr,
    );
    // Traced against untraced latency of one query of each class.
    let mean_sum = |side: &[(f64, u64); 4]| -> f64 {
        side.iter()
            .map(|&(total, count)| ratio(total, count as f64))
            .sum()
    };
    let (t, u) = (&m.reads.traced, &m.reads.untraced);
    out.push(
        "trace.overhead_pct",
        100.0 * (ratio(mean_sum(t), mean_sum(u)) - 1.0),
        "%",
        t.iter().chain(u).map(|&(_, count)| count as usize).sum(),
    );
    Ok(out)
}
