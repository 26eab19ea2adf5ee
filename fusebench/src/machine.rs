//! The hardware bound the `*_ns_per_mb` rates chase: a `memcpy` and a
//! streaming sum over arrays at least four times the last-level cache, so
//! "how far from memory bandwidth" is a recorded column, not a feeling.

use crate::metrics::Metrics;
use std::hint::black_box;
use std::time::Instant;

const MIB: usize = 1 << 20;

/// Size in bytes of the largest cache `cpu0` reports, or `None` off Linux.
fn last_level_cache_bytes() -> Option<usize> {
    let mut largest = None;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (digits, scale) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1 << 10),
            Some(b'M') => (&text[..text.len() - 1], MIB),
            _ => (text, 1),
        };
        if let Ok(n) = digits.parse::<usize>() {
            largest = largest.max(Some(n * scale));
        }
    }
    largest
}

fn mem_total_bytes() -> Option<usize> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = text.lines().find(|l| l.starts_with("MemTotal:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib << 10)
}

/// Largest probe array.  The reference box reports its host's whole 260 MiB
/// L3, and first-touching two arrays of four times that costs the traced
/// run ten seconds of page faults; a 2-core guest cannot keep a 256 MiB
/// array in its share of that cache either.
const ARRAY_CAP: usize = 256 * MIB;

/// Runs both probes and prints the array and cache sizes they used.
/// `smoke` shrinks the arrays to 8 MiB: the harness is exercised, the
/// numbers mean nothing.
pub fn probe(metrics: &mut Metrics, smoke: bool) {
    let cache = last_level_cache_bytes().unwrap_or(32 * MIB);
    // Both arrays together never take more than a quarter of the memory.
    let ceiling = mem_total_bytes().map_or(ARRAY_CAP, |total| total / 8);
    let wanted = 4 * cache;
    let bytes = if smoke {
        8 * MIB
    } else {
        wanted.min(ARRAY_CAP).min(ceiling)
    };
    let words = bytes / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let mb = bytes as f64 / MIB as f64;

    // First copy faults the destination in; the later ones are timed.
    dst.copy_from_slice(&src);
    let reps = 3;
    let mut memcpy_ns = f64::MAX;
    let mut sum_ns = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        memcpy_ns = memcpy_ns.min(start.elapsed().as_nanos() as f64);

        let start = Instant::now();
        let sum = black_box(&src)
            .iter()
            .fold(0u64, |acc, &w| acc.wrapping_add(w));
        black_box(sum);
        sum_ns = sum_ns.min(start.elapsed().as_nanos() as f64);
    }
    println!(
        "# machine: last-level cache {:.0} MiB, probe arrays {mb:.0} MiB each ({}), {} cores",
        cache as f64 / MIB as f64,
        if bytes >= wanted {
            "4x cache".to_string()
        } else {
            format!("capped; 4x cache would be {} MiB", wanted / MIB)
        },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    metrics.set("machine.memcpy_ns_per_mb", memcpy_ns / mb);
    metrics.set("machine.stream_sum_ns_per_mb", sum_ns / mb);
}
