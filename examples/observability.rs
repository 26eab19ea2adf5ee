//! Observing `fusiond` end to end: run a small mixed workload, including a
//! deterministic chaos kill of a replica-group member, with spans, metrics
//! and the flight recorder all on.  The run is narrated from the
//! [`ServiceEvent`] stream as it happens — no status polling — and checks
//! itself: the kill and the regeneration must both be seen, and every
//! output must be byte-identical to `SequentialPct`.  Then it prints the
//! Prometheus exposition snapshot and the span tree of the attacked job,
//! and dumps the whole run as a Chrome `trace_event` JSON file loadable in
//! `chrome://tracing` or Perfetto.
//!
//! Run with: `cargo run --release --example observability`

use hsi::{CubeDims, SceneConfig, SceneGenerator};
use service::{
    BackendKind, ChaosPhase, ChaosPlan, CubeSource, FusionService, JobSpec, Route, ServiceConfig,
    ServiceEvent,
};
use std::sync::Arc;
use std::time::Duration;
use telemetry::Telemetry;

/// One line of narration per event.
fn narrate(event: &ServiceEvent) -> String {
    match event {
        ServiceEvent::Admitted {
            job,
            tenant,
            route,
            auto,
        } => format!(
            "job {job} (tenant {tenant}) admitted onto the {} lane (auto: {auto})",
            route.label()
        ),
        ServiceEvent::Rejected {
            job,
            tenant,
            retry_after,
        } => format!("job {job} (tenant {tenant}) refused: queue full ({retry_after})"),
        ServiceEvent::Dispatched {
            job, task, kind, ..
        } => format!("job {job}: task {task} dispatched ({kind})"),
        ServiceEvent::Retransmitted { job, task, group } => {
            format!("job {job}: task {task} retransmitted to {group}")
        }
        ServiceEvent::MemberKilled { member } => format!("CHAOS: {member} killed"),
        ServiceEvent::MemberRegenerated {
            failed,
            replacement,
        } => format!("RECOVERY: {failed} regenerated as {replacement}"),
        ServiceEvent::WorkerLost { worker } => format!("CHAOS: worker {worker} lost"),
        ServiceEvent::TaskReassigned {
            job,
            task,
            from,
            to,
        } => format!("job {job}: task {task} reassigned {from} -> {to}"),
        ServiceEvent::LaneFailover { job, from, to } => format!(
            "job {job}: lane failover {} -> {}",
            from.label(),
            to.label()
        ),
        ServiceEvent::Terminal { job, status, .. } => format!("job {job} terminal: {status:?}"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let telemetry = Telemetry::enabled();
    let service = FusionService::start(
        ServiceConfig::builder()
            .standard_workers(2)
            .replica_groups(1)
            .replication_level(2)
            .shared_memory_executors(1)
            // When the scheduler dispatches the first screening task of
            // job 1, member rg0#0 dies — and the trace shows the recovery.
            .chaos(ChaosPlan::kill_at(1, ChaosPhase::Screen, "rg0#0"))
            .telemetry(telemetry.clone())
            .build()?,
    )?;
    let events = service.subscribe();

    let mut config = SceneConfig::small(77);
    config.dims = CubeDims::new(24, 24, 12);
    let cube = Arc::new(SceneGenerator::new(config)?.generate());

    // Job 1 rides the resilient lane into the chaos kill; the others fan
    // out over the standard and shared-memory lanes.
    let routes = [
        Route::Pinned(BackendKind::Resilient),
        Route::Pinned(BackendKind::Standard),
        Route::Auto,
    ];
    let mut handles = Vec::new();
    for route in routes {
        let spec = JobSpec::builder(CubeSource::InMemory(Arc::clone(&cube)))
            .route(route)
            .shards(3)
            .build()?;
        handles.push(service.submit(spec)?);
    }

    println!("--- event stream ---");
    let (mut seen_kill, mut seen_regen, mut terminals) = (false, false, 0);
    while terminals < routes.len() {
        let Some(event) = events.next_timeout(Duration::from_secs(30)) else {
            break;
        };
        seen_kill |= matches!(event, ServiceEvent::MemberKilled { .. });
        seen_regen |= matches!(event, ServiceEvent::MemberRegenerated { .. });
        terminals += usize::from(matches!(event, ServiceEvent::Terminal { .. }));
        println!("{}", narrate(&event));
    }
    assert!(seen_kill, "the chaos kill must appear on the event stream");
    assert!(
        seen_regen,
        "the regeneration must appear on the event stream"
    );

    // Every output survived the kill byte-for-byte.
    let reference = pct::SequentialPct::new(pct::PctConfig::paper()).run(&cube)?;
    for handle in &mut handles {
        let outcome = handle.wait()?;
        assert_eq!(outcome.output().expect("job completed"), &reference);
    }
    println!("{} outputs byte-identical to SequentialPct", handles.len());

    let report = service.shutdown();
    assert!(report.regenerations >= 1);
    print!("\n{}", report.render());

    // The metrics registry, in Prometheus exposition format.
    println!("\n--- prometheus snapshot ---");
    print!("{}", telemetry.snapshot_prometheus().expect("enabled"));

    // The attacked job's span tree, reconstructed from the flight recorder.
    println!("--- span tree (job 1) ---");
    let spans = telemetry.spans();
    fn print_tree(spans: &[telemetry::Span], parent: Option<telemetry::SpanId>, depth: usize) {
        for span in spans.iter().filter(|s| s.parent == parent) {
            println!(
                "{:indent$}{} [{:.3} ms]{}{}",
                "",
                span.name,
                span.duration_nanos() as f64 / 1e6,
                if span.detail.is_empty() { "" } else { " — " },
                span.detail,
                indent = depth * 2
            );
            print_tree(spans, Some(span.id), depth + 1);
        }
    }
    let roots: Vec<_> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.job == Some(1))
        .collect();
    for root in roots {
        print_tree(&spans, Some(root.id), 1);
        println!("(root: {} — {})", root.name, root.detail);
    }

    // The whole run as a Chrome trace, for chrome://tracing or Perfetto.
    let path = std::env::temp_dir().join("fusiond_observability_trace.json");
    std::fs::write(&path, telemetry.chrome_trace().expect("enabled"))?;
    println!("\nwrote Chrome trace to {}", path.display());
    Ok(())
}
