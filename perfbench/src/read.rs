//! `read_cold` and `read_hot`: closed-loop readers over dataset C0,
//! one query class at a time, then the online tail, in [`ROUNDS`]
//! rounds on fresh stores.

use crate::oracle::{mix, Class, Oracle, Picker, Query, QueryGen, Rng, VersionSource};
use crate::run::{
    self, class_at, client_loop, has_samples, online_phase, ClassCounts, ClientLog, Rig, Sizes,
    Visibility, ROUNDS,
};
use crate::trace::Tracer;
use crate::{Options, Workload};
use rstore_core::online::truncate_dataset;
use rstore_core::RStore;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Closed-loop reading clients: two on `read_cold` (the host has two
/// cores), one on `read_hot`. Two clients reading the same resident
/// chunks contend on their shared reference counts and shard locks;
/// that doubled hot Q1 p50 and moved it between 0.10 and 0.24 ms from
/// one fresh store to the next, a spread no run length here averages
/// out. One client measures the hit path itself.
fn clients(workload: Workload) -> usize {
    match workload {
        Workload::ReadHot => 1,
        _ => 2,
    }
}
/// Skew of `read_hot`'s version and key popularity.
pub const ZIPF_THETA: f64 = 1.0;
/// Seed of the permutations `read_hot`'s hot set is taken from. Fixed
/// like the dataset: which versions and keys are hot sets Q1 and Q3
/// cost, while the run's seed drives the Zipf draws over them.
const HOT_SET_SEED: u64 = 0x407;

/// `read_hot`'s working set: versions and Q3 keys whose chunks
/// together span at most [`Sizes::hot_chunks`] chunks.
struct HotSet {
    versions: Vec<u32>,
    keys: Vec<u64>,
    chunks: usize,
}

fn chunks_of(store: &RStore, q: Query) -> Result<Vec<u32>, String> {
    let plan = store
        .plan_query(q.spec())
        .map_err(|e| format!("planning {q:?}: {e}"))?;
    Ok(plan.chunk_ids().to_vec())
}

/// Walks seeded permutations of the loaded versions and of one hot
/// version's keys, taking versions until their chunks fill three
/// quarters of the chunk budget, then Q3 keys until it is full.
fn hot_set(store: &RStore, oracle: &Oracle, sizes: &Sizes, seed: u64) -> Result<HotSet, String> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<u32> = (0..sizes.read_versions as u32).collect();
    rng.shuffle(&mut order);
    let budget = sizes.hot_chunks;
    let mut chunks: HashSet<u32> = HashSet::new();
    let mut versions = Vec::new();
    for v in order {
        let ids = chunks_of(store, Query::Version(v))?;
        let grown = chunks.len() + ids.iter().filter(|c| !chunks.contains(c)).count();
        if !versions.is_empty() && grown > budget * 3 / 4 {
            break;
        }
        chunks.extend(ids);
        versions.push(v);
    }
    let mut keys: Vec<u64> = oracle
        .contents(versions[0])
        .iter()
        .map(|&(pk, _)| pk)
        .collect();
    rng.shuffle(&mut keys);
    let mut hot_keys = Vec::new();
    for pk in keys {
        let ids = chunks_of(store, Query::Evolution(pk))?;
        let grown = chunks.len() + ids.iter().filter(|c| !chunks.contains(c)).count();
        if !hot_keys.is_empty() && grown > budget {
            break;
        }
        chunks.extend(ids);
        hot_keys.push(pk);
    }
    Ok(HotSet {
        versions,
        keys: hot_keys,
        chunks: chunks.len(),
    })
}

/// Touches every chunk of the hot set once, untimed.
fn warm(store: &RStore, hot: &HotSet) -> Result<(), String> {
    let queries = hot.versions.iter().map(|&v| Query::Version(v));
    for q in queries.chain(hot.keys.iter().map(|&pk| Query::Evolution(pk))) {
        store
            .stream_query(q.spec())
            .and_then(|mut s| s.drain())
            .map_err(|e| format!("warm-up {q:?}: {e}"))?;
    }
    Ok(())
}

/// Runs `clients` closed-loop readers, one thread each, until
/// `schedule` says stop, and returns their logs.
fn run_clients(
    store: &RStore,
    oracle: &Oracle,
    vis: &Visibility,
    gens: &mut [QueryGen],
    tracers: &mut [Option<Tracer>],
    counts: &ClassCounts,
    schedule: &(dyn Fn() -> Option<Class> + Sync),
) -> Vec<ClientLog> {
    std::thread::scope(|sc| {
        let handles: Vec<_> = gens
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(gen, tracer)| {
                sc.spawn(move || {
                    client_loop(store, oracle, gen, vis, tracer.as_mut(), counts, schedule)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

pub fn run(opts: &Options) -> Result<run::Outcome, String> {
    let sizes = Sizes::of(opts.scale);
    let oracle = Oracle::new(&sizes.read_spec());
    let loaded = sizes.read_versions;
    let total = oracle.version_count();
    let prefix = truncate_dataset(&oracle.dataset, loaded);
    let hot = opts.workload == Workload::ReadHot;
    let cache_budget = if hot {
        sizes.hot_cache
    } else {
        sizes.cold_cache
    };
    let mut rig = Rig::new(opts, &oracle, clients(opts.workload));
    let mut gens: Vec<QueryGen> = Vec::new();
    let share = Duration::from_secs(opts.seconds) / ROUNDS as u32;
    let deadline = rig.deadline;

    for round in 0..ROUNDS {
        let (store, hot_set) = rig.set_up(cache_budget, &prefix, |store| {
            hot.then(|| {
                let h = hot_set(store, &oracle, &sizes, HOT_SET_SEED)?;
                warm(store, &h)?;
                Ok(h)
            })
            .transpose()
        })?;
        if round == 0 {
            let (r, _) = &rig.m.loads[0];
            rig.m.notes.push(format!(
                "dataset {}: {} versions loaded + {} online per round, {} records, {:.1} MB raw, {:.1} MB stored, {} chunks",
                oracle.dataset.spec.name,
                loaded,
                total - loaded,
                r.num_records,
                r.raw_bytes as f64 / 1e6,
                r.compressed_bytes as f64 / 1e6,
                r.num_chunks
            ));
            let cache = cache_budget >> 10;
            let (versions, keys) = match &hot_set {
                Some(h) => {
                    rig.m.notes.push(format!(
                        "hot set: {} versions, {} Q3 keys, {} chunks; cache {cache} KB",
                        h.versions.len(),
                        h.keys.len(),
                        h.chunks,
                    ));
                    (
                        VersionSource::Fixed(Picker::zipf(h.versions.clone(), ZIPF_THETA)),
                        Picker::zipf(h.keys.clone(), ZIPF_THETA),
                    )
                }
                None => {
                    rig.m
                        .notes
                        .push(format!("uniform over {loaded} versions; cache {cache} KB"));
                    (
                        VersionSource::Visible,
                        Picker::Uniform(oracle.keys_before(loaded as u32)),
                    )
                }
            };
            gens = (0..rig.m.clients)
                .map(|c| {
                    QueryGen::new(
                        mix(opts.seed ^ (0x5EED_0000 + c as u64)),
                        versions.clone(),
                        keys.clone(),
                    )
                })
                .collect();
        }

        // Timed reads for the round's share of `seconds`, the classes
        // taking turns in slices, so no class's latency depends on the
        // others' share of the traffic; then any class short of the
        // round's share of its samples reads on alone.
        let vis = Visibility::new(loaded);
        rig.read_phase(&store, |readers, _, counts| {
            let start = Instant::now();
            let schedule = || {
                let t = start.elapsed();
                if Instant::now() >= deadline {
                    None
                } else if t < share {
                    Some(class_at(t, sizes.read_slice))
                } else {
                    Class::ALL
                        .into_iter()
                        .find(|&c| !has_samples(counts, c, round + 1))
                }
            };
            let logs = run_clients(&store, &oracle, &vis, &mut gens, readers, counts, &schedule);
            (logs, ())
        });

        // The online tail: the dataset's remaining versions committed,
        // flushed and compacted; no reads run beside it.
        let tail = online_phase(&store, &oracle.dataset, loaded, &vis, rig.writer.as_mut())?;
        rig.m.online.push(tail);
        rig.end_round(&store);
    }
    rig.finish()
}
