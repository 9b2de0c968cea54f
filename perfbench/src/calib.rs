//! The machine-speed yardstick: a fixed piece of work of the benchmark's
//! own, timed between workload executions. Its wall time moves with the
//! machine (frequency, neighbours' load on shared caches and memory) and
//! never with the program under test, so dividing an execution's wall time
//! by it cancels most of the drift between runs.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Keys per round; the maps and the heap stay a few MB, like a workload
/// execution's hot data.
const KEYS: u64 = 1 << 15;
/// Rounds per calibration; about 0.2 s on a 2-vCPU Xeon.
const ROUNDS: u64 = 16;

/// The yardstick's wall time on the reference machine (2 vCPUs, Intel
/// Xeon), in seconds.
pub const REFERENCE_S: f64 = 0.25;

/// `wall` seconds measured while the yardstick took `yard` seconds, in
/// reference seconds: the time the same work would take on the reference
/// machine at the speed it had when `yard` was measured.
pub fn reference(wall: f64, yard: f64) -> f64 {
    wall * REFERENCE_S / yard
}

/// Runs the yardstick once and returns its wall time in seconds.
pub fn seconds() -> f64 {
    let start = Instant::now();
    black_box(work(black_box(0x9E37_79B9_7F4A_7C15)));
    start.elapsed().as_secs_f64()
}

/// The same mix of work the simulator does: a priority queue, ordered and
/// hashed maps with heap-allocated values, churn and a sort.
fn work(mut x: u64) -> u64 {
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut ordered = BTreeMap::new();
        let mut hashed: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut queue = BinaryHeap::new();
        let mut keys = Vec::with_capacity(KEYS as usize);
        for i in 0..KEYS {
            let k = next();
            keys.push(k);
            ordered.insert(k % (4 * KEYS), i);
            hashed.entry(k % (2 * KEYS)).or_default().push(i);
            queue.push(std::cmp::Reverse(k));
            if i % 3 == 0 {
                let std::cmp::Reverse(top) = queue.pop().expect("just pushed");
                ordered.remove(&(top % (4 * KEYS)));
            }
        }
        keys.sort_unstable();
        acc = acc
            .wrapping_add(keys[keys.len() / 2])
            .wrapping_add(ordered.len() as u64)
            .wrapping_add(hashed.values().map(Vec::len).sum::<usize>() as u64)
            .wrapping_add(queue.len() as u64);
    }
    acc
}
