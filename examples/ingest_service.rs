//! End-to-end streaming ingestion: cube *files* on disk → chunked in-place
//! decode → content-addressed store → `fusiond` jobs — plus a burst that
//! trips the shedding watermark deterministically.
//!
//! The example proves the ingest subsystem's four claims with measured
//! numbers, not assertions in prose:
//!
//! 1. **Zero deep copies on the assembly path**: the pump's clone-ledger
//!    delta is 0 while the assembly ledger accounts every payload byte —
//!    BSQ/BIL/BIP chunks are scattered straight into the `Arc<HyperCube>`
//!    storage the jobs then share.
//! 2. **Store dedup**: the same scene written twice (in *different*
//!    interleaves) interns into one resident cube — `store_hits >= 1` and
//!    the two jobs fuse literally the same `Arc` storage.
//! 3. **Deterministic shedding**: a burst behind a big blocker overruns the
//!    in-flight-bytes watermark; exactly the configured tail of the burst
//!    is shed, never blocking the source.
//! 4. **Byte-identity**: every admitted cube's fused output equals
//!    `SequentialPct` on the same cube, bit for bit.
//!
//! Run with: `cargo run --release --example ingest_service`

use hsi::io::{write_cube_as, Interleave};
use hsi::{CubeDims, SceneConfig, SceneGenerator};
use ingest::{
    DirectorySource, IngestConfig, IngestPump, ShedReason, SheddingPolicy, SyntheticSource,
};
use pct::{PctConfig, SequentialPct};
use service::{BackendKind, FusionService, JobStatus, Route, ServiceConfig};
use std::sync::Arc;

fn scene(seed: u64, side: usize, bands: usize) -> SceneConfig {
    let mut config = SceneConfig::small(seed);
    config.dims = CubeDims::new(side, side, bands);
    config
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // Phase 1: a folder of cube files, mixed interleaves, one duplicate.
    // ------------------------------------------------------------------
    let dir = std::env::temp_dir().join(format!("ingest_service_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let files = [
        ("00_alpha.hsif", scene(700, 20, 10), Interleave::Bsq),
        ("01_bravo.hsif", scene(701, 24, 12), Interleave::Bil),
        ("02_charlie.hsif", scene(702, 16, 8), Interleave::Bip),
        // The same scene as 00, exported in a different interleave: content
        // addressing must dedup it into an Arc bump.
        ("03_alpha_again.hsif", scene(700, 20, 10), Interleave::Bil),
    ];
    let mut written_bytes = 0usize;
    for (name, config, interleave) in &files {
        let cube = SceneGenerator::new(config.clone())?.generate();
        written_bytes += cube.byte_size();
        write_cube_as(&cube, *interleave, dir.join(name))?;
    }
    println!(
        "wrote {} cube files ({} payload bytes, bsq/bil/bip) to {}",
        files.len(),
        written_bytes,
        dir.display()
    );

    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(2)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(1)
            .build()?,
    )?;
    let pump = IngestPump::new(&service, IngestConfig::default());
    let run = pump.run(vec![Box::new(DirectorySource::with_chunk_bytes(
        &dir, 4096,
    ))])?;
    std::fs::remove_dir_all(&dir).ok();
    print!("{}", run.report.render());

    let totals = run.report.totals();
    assert_eq!(totals.cubes_seen, 4);
    assert_eq!(totals.cubes_admitted, 4);
    assert_eq!(run.report.jobs_completed, 4);

    // Claim 1: zero deep copies while every payload byte was assembled.
    assert_eq!(
        run.report.bytes_cloned, 0,
        "assembly or fusion deep-copied payload bytes"
    );
    assert_eq!(totals.bytes_assembled, written_bytes as u64);
    println!(
        "zero-copy assembly: {} bytes assembled in place, {} bytes cloned",
        totals.bytes_assembled, run.report.bytes_cloned
    );

    // Claim 2: the duplicate scene interned into shared storage.
    assert_eq!(totals.store_hits, 1, "duplicate scene was not deduplicated");
    assert_eq!(totals.store_misses, 3);
    assert_eq!(run.store.len(), 3);
    let alpha = run
        .jobs
        .iter()
        .find(|j| j.tag == "00_alpha.hsif")
        .expect("alpha ingested");
    let alpha_again = run
        .jobs
        .iter()
        .find(|j| j.tag == "03_alpha_again.hsif")
        .expect("alpha duplicate ingested");
    assert!(
        Arc::ptr_eq(&alpha.cube, &alpha_again.cube),
        "duplicate fused different storage"
    );
    println!(
        "store dedup: {} hits / {} misses; '00_alpha.hsif' and '03_alpha_again.hsif' share one Arc",
        totals.store_hits, totals.store_misses
    );

    // Claim 4 (steady half): byte-identity on every lane the router picked.
    for job in &run.jobs {
        let reference = SequentialPct::new(PctConfig::paper()).run(&job.cube)?;
        assert_eq!(
            job.outcome.output().expect("job completed"),
            &reference,
            "{} diverged from the sequential reference",
            job.tag
        );
    }
    println!("byte-identity: 4/4 fused outputs equal SequentialPct");
    service.shutdown();

    // ------------------------------------------------------------------
    // Phase 2: a burst overruns the in-flight-bytes watermark.
    // ------------------------------------------------------------------
    // One standard worker, one job in flight: the blocker occupies the only
    // slot while the (microseconds-long) burst is pumped, so the shedding
    // decisions below are deterministic.
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(1)
            .replica_groups(0)
            .shared_memory_executors(0)
            .queue_capacity(16)
            .max_in_flight(1)
            .build()?,
    )?;
    let blocker = scene(710, 64, 32);
    let small = scene(711, 12, 6);
    let blocker_bytes = blocker.dims.byte_size();
    let small_bytes = small.dims.byte_size();
    let mut arrivals = vec![("blocker".to_string(), blocker, Interleave::Bip)];
    for i in 0..6u64 {
        arrivals.push((format!("burst-{i}"), scene(720 + i, 12, 6), Interleave::Bsq));
    }
    let source = SyntheticSource::new("burst", arrivals, 16 * 1024);
    // Watermark: the blocker plus exactly two burst cubes may be in flight.
    let config = IngestConfig {
        shedding: SheddingPolicy::unbounded()
            .with_max_in_flight_bytes(blocker_bytes + 2 * small_bytes),
        route: Route::Pinned(BackendKind::Standard),
        shards: 2,
        ..IngestConfig::default()
    };
    let run = IngestPump::new(&service, config).run(vec![Box::new(source)])?;
    service.shutdown();
    print!("{}", run.report.render());

    // Claim 3: deterministic shedding — the tail of the burst, in order.
    let totals = run.report.totals();
    assert_eq!(totals.cubes_seen, 7);
    assert_eq!(totals.cubes_admitted, 3, "blocker + two burst cubes");
    assert_eq!(totals.shed_in_flight_bytes, 4);
    let shed_tags: Vec<&str> = run.shed.iter().map(|s| s.tag.as_str()).collect();
    assert_eq!(shed_tags, ["burst-2", "burst-3", "burst-4", "burst-5"]);
    assert!(run
        .shed
        .iter()
        .all(|s| s.reason == ShedReason::InFlightBytes));
    println!(
        "shedding: admitted [blocker, burst-0, burst-1], shed {shed_tags:?} at the {}-byte watermark",
        blocker_bytes + 2 * small_bytes
    );

    // Claim 4 (pressure half): everything admitted still fused exactly.
    for job in &run.jobs {
        assert_eq!(job.outcome.status(), JobStatus::Completed);
        let reference = SequentialPct::new(PctConfig::paper()).run(&job.cube)?;
        assert_eq!(
            job.outcome.output().expect("completed"),
            &reference,
            "{} diverged under pressure",
            job.tag
        );
    }
    println!(
        "byte-identity under pressure: {}/{} admitted outputs equal SequentialPct",
        run.jobs.len(),
        run.jobs.len()
    );
    Ok(())
}
