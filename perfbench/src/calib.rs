//! A fixed reference computation that reads the host's current speed.
//!
//! The host is shared: for minutes at a time its other load slows every
//! workload by a fifth or more, so quiet passes alone do not make runs
//! minutes apart agree. The reference is timed between the workload's
//! passes, in the same process and under the same load, and shares no code
//! with the simulator, so a change to the simulator cannot move it. Times
//! are rescaled by how much slower than [`REFERENCE_S`] it ran.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Rounds of the dependent integer chain.
const MIX_ROUNDS: u64 = 2_000_000;
/// Keys inserted into, then looked up in, the ordered map.
const MAP_KEYS: u64 = 10_000;

/// Seconds one reference unit takes on an undisturbed core of the host
/// the benchmark was calibrated on (2-vCPU "Intel(R) Xeon(R) Processor"):
/// the speed every reported time is rescaled to.
pub const REFERENCE_S: f64 = 0.0057;

/// A 64-bit linear congruential step (Knuth's MMIX constants).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Run one reference unit and return its host ns: a dependent integer
/// chain (core speed) and an ordered map's inserts and lookups
/// (allocation and pointer-chasing search, the shape of most simulator
/// state).
pub fn unit_ns() -> u64 {
    let t0 = Instant::now();
    let mut x = 1u64;
    for i in 0..MIX_ROUNDS {
        x = black_box(lcg(x) ^ (x >> 29) ^ i);
    }
    let mut map = BTreeMap::new();
    for i in 0..MAP_KEYS {
        x = lcg(x);
        map.insert(x >> 40, i);
    }
    let mut hits = 0u64;
    for _ in 0..MAP_KEYS {
        x = lcg(x);
        hits += u64::from(map.contains_key(&(x >> 40)));
    }
    black_box(hits);
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_unit_takes_measurable_time() {
        assert!(unit_ns() > 0);
    }
}
