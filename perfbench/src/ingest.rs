//! `ingest_online`: half of dataset B1 bulk-loaded, the other half
//! committed online beside one reader, then compaction. The cycle
//! repeats on a fresh store until the run has measured long enough.

use crate::oracle::{mix, Oracle, Picker, QueryGen, VersionSource};
use crate::run::{
    self, class_at, client_loop, enough_samples, online_phase, Rig, Sizes, Visibility, ROUNDS,
};
use crate::Options;
use rstore_core::online::truncate_dataset;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub fn run(opts: &Options) -> Result<run::Outcome, String> {
    let sizes = Sizes::of(opts.scale);
    let oracle = Oracle::new(&sizes.ingest_spec());
    let total = oracle.version_count();
    let loaded = sizes.ingest_prefix;
    let prefix = truncate_dataset(&oracle.dataset, loaded);
    let mut rig = Rig::new(opts, &oracle, 1);
    let mut gen = QueryGen::new(
        mix(opts.seed ^ 0x5EED_0000),
        VersionSource::Visible,
        Picker::Uniform(oracle.keys.clone()),
    );
    let seconds = Duration::from_secs(opts.seconds);
    let mut timed = Duration::ZERO;
    loop {
        let (store, ()) = rig.set_up(sizes.hot_cache, &prefix, |_| Ok(()))?;

        // Timed: the writer commits the rest of the dataset, flushing
        // every FLUSH_EVERY commits, then compacts; one closed-loop
        // reader queries the flushed versions until the writer is done.
        // The reader's classes take turns in short slices of timed
        // time, so every class samples every stage of the writer's
        // cycle; the whole store fits the cache, so no class evicts
        // another's chunks.
        let vis = Visibility::new(loaded);
        let done = AtomicBool::new(false);
        let start = Instant::now();
        let schedule = || {
            let class = class_at(timed + start.elapsed(), sizes.ingest_slice);
            (!done.load(Ordering::SeqCst)).then_some(class)
        };
        let online = rig.read_phase(&store, |readers, writer, counts| {
            std::thread::scope(|sc| {
                let (store, oracle, vis, gen) = (&store, &oracle, &vis, &mut gen);
                let tracer = readers[0].as_mut();
                let schedule = &schedule;
                let r = sc
                    .spawn(move || client_loop(store, oracle, gen, vis, tracer, counts, schedule));
                let online = online_phase(store, &oracle.dataset, loaded, vis, writer);
                done.store(true, Ordering::SeqCst);
                (vec![r.join().expect("reader thread panicked")], online)
            })
        });
        timed += start.elapsed();
        rig.m.online.push(online?);
        rig.end_round(&store);

        if rig.rounds() == 1 {
            let (r, _) = &rig.m.loads[0];
            rig.m.notes.push(format!(
                "dataset {}: {} versions loaded ({} records, {:.1} MB raw) + {} committed online",
                oracle.dataset.spec.name,
                loaded,
                r.num_records,
                r.raw_bytes as f64 / 1e6,
                total - loaded
            ));
        }
        let measured = timed >= seconds && rig.rounds() >= ROUNDS && enough_samples(rig.counts());
        if measured || Instant::now() >= rig.deadline {
            break;
        }
    }
    rig.finish()
}
