//! Deterministic task-bag scheduler for elasticity experiments.
//!
//! The Table 3 experiment asks: given the *same* work, how does wall time
//! change with 16, 32 or 64 nodes? A distributed run records every
//! task's duration; this module replays a task bag onto an arbitrary slot count
//! using the greedy longest-processing-time (LPT) list-scheduling rule —
//! the same earliest-available-slot behaviour a Hadoop job tracker
//! exhibits once all tasks are queued.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use crate::config::ClusterConfig;
use crate::stats::JobStats;

/// Outcome of simulating a job's task bag on a particular cluster.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Makespan of the map phase.
    pub map_makespan: Duration,
    /// Makespan of the reduce phase (starts after all maps finish, as in
    /// a barrier shuffle).
    pub reduce_makespan: Duration,
    /// Total simulated job time (map + shuffle barrier + reduce).
    pub total: Duration,
    /// Cluster size used.
    pub nodes: usize,
}

/// Schedule a bag of independent task durations onto `slots` parallel
/// slots with the LPT heuristic; returns the makespan.
///
/// # Panics
/// Panics if `slots == 0`.
pub fn simulate_makespan(durations: &[Duration], slots: usize) -> Duration {
    assert!(slots > 0, "simulate_makespan: zero slots");
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted: Vec<Duration> = durations.to_vec();
    sorted.sort_unstable_by_key(|d| Reverse(*d));
    // Min-heap of slot finish times.
    let mut heap: BinaryHeap<Reverse<Duration>> = (0..slots.min(sorted.len()))
        .map(|_| Reverse(Duration::ZERO))
        .collect();
    for d in sorted {
        let Reverse(earliest) = heap.pop().expect("heap nonempty");
        heap.push(Reverse(earliest + d));
    }
    heap.into_iter()
        .map(|Reverse(t)| t)
        .max()
        .unwrap_or(Duration::ZERO)
}

/// First-order straggler model for the simulator.
///
/// Hadoop's speculative execution launches a backup copy of a task that
/// runs well past the normal duration; the task completes when either
/// copy does. At this simulator's level of abstraction:
///
/// * a straggling task's duration is multiplied by `slowdown`;
/// * with speculation, the effective duration is capped at `2d` (the
///   backup launches once the normal duration `d` has elapsed and takes
///   another `d`), and the backup occupies a slot for `d` — modeled as
///   an extra task in the bag.
#[derive(Clone, Copy, Debug)]
pub struct StragglerModel {
    /// Fraction of tasks that straggle (deterministically chosen by
    /// position hash + seed).
    pub fraction: f64,
    /// Duration multiplier for stragglers (≥ 1).
    pub slowdown: f64,
    /// Selection seed.
    pub seed: u64,
}

impl StragglerModel {
    /// Whether task `i` straggles under this model.
    fn straggles(&self, i: usize) -> bool {
        // Cheap deterministic spread: golden-ratio hash of (i, seed).
        let h = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seed)
            .rotate_left(17)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h >> 40) as f64 / (1u64 << 24) as f64 <= self.fraction
    }
}

/// Schedule a task bag with stragglers, optionally with speculative
/// execution. The speculation cap is the
/// [`ClusterConfig::emr_default`] knob (`2×` the normal duration); use
/// [`simulate_with_stragglers_on`] to simulate under a tuned cluster.
///
/// # Panics
/// Panics if `slots == 0`, `fraction ∉ [0, 1]`, or `slowdown < 1`.
pub fn simulate_with_stragglers(
    durations: &[Duration],
    slots: usize,
    model: &StragglerModel,
    speculative: bool,
) -> Duration {
    simulate_with_stragglers_capped(
        durations,
        slots,
        model,
        speculative,
        ClusterConfig::emr_default().speculation_cap,
    )
}

/// [`simulate_with_stragglers`] on a specific cluster: slot count and
/// speculation cap both come from `config`, so the simulator shares
/// `dasc-dist`'s knob set.
///
/// # Panics
/// Panics if `config` admits zero map slots, `fraction ∉ [0, 1]`, or
/// `slowdown < 1`.
pub fn simulate_with_stragglers_on(
    durations: &[Duration],
    config: &ClusterConfig,
    model: &StragglerModel,
    speculative: bool,
) -> Duration {
    simulate_with_stragglers_capped(
        durations,
        config.total_map_slots(),
        model,
        speculative,
        config.speculation_cap,
    )
}

fn simulate_with_stragglers_capped(
    durations: &[Duration],
    slots: usize,
    model: &StragglerModel,
    speculative: bool,
    speculation_cap: f64,
) -> Duration {
    assert!(
        (0.0..=1.0).contains(&model.fraction),
        "straggler fraction must be in [0, 1]"
    );
    assert!(model.slowdown >= 1.0, "slowdown must be at least 1");
    assert!(speculation_cap >= 1.0, "speculation cap must be at least 1");
    let mut bag: Vec<Duration> = Vec::with_capacity(durations.len() * 2);
    for (i, &d) in durations.iter().enumerate() {
        if model.straggles(i) {
            let slow = d.mul_f64(model.slowdown);
            if speculative {
                // Completion capped at `speculation_cap × d` (the backup
                // launches at d and the cap bounds the race); the backup
                // consumes a slot for d.
                bag.push(slow.min(d.mul_f64(speculation_cap)));
                bag.push(d);
            } else {
                bag.push(slow);
            }
        } else {
            bag.push(d);
        }
    }
    simulate_makespan(&bag, slots)
}

/// Replay the task bag recorded in `stats` on `config`'s slot counts.
pub fn simulate_on_cluster(stats: &JobStats, config: &ClusterConfig) -> ScheduleReport {
    let map_makespan = simulate_makespan(&stats.map_task_durations, config.total_map_slots());
    let reduce_makespan =
        simulate_makespan(&stats.reduce_task_durations, config.total_reduce_slots());
    ScheduleReport {
        map_makespan,
        reduce_makespan,
        total: map_makespan + reduce_makespan,
        nodes: config.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn single_slot_sums() {
        let d = vec![ms(1), ms(2), ms(3)];
        assert_eq!(simulate_makespan(&d, 1), ms(6));
    }

    #[test]
    fn enough_slots_takes_max() {
        let d = vec![ms(5), ms(2), ms(9)];
        assert_eq!(simulate_makespan(&d, 3), ms(9));
        assert_eq!(simulate_makespan(&d, 100), ms(9));
    }

    #[test]
    fn lpt_balances_two_slots() {
        // {9, 5, 2}: LPT gives slots {9} and {5,2} → makespan 9.
        let d = vec![ms(9), ms(5), ms(2)];
        assert_eq!(simulate_makespan(&d, 2), ms(9));
        // {4,3,3,2}: LPT gives {4,2} and {3,3} → makespan 6.
        let d = vec![ms(4), ms(3), ms(3), ms(2)];
        assert_eq!(simulate_makespan(&d, 2), ms(6));
    }

    #[test]
    fn empty_bag_is_zero() {
        assert_eq!(simulate_makespan(&[], 4), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero slots")]
    fn zero_slots_panics() {
        simulate_makespan(&[ms(1)], 0);
    }

    #[test]
    fn doubling_nodes_roughly_halves_uniform_bag() {
        // 256 equal tasks: exactly inverse-linear scaling — the Table 3
        // shape.
        let bag: Vec<Duration> = (0..256).map(|_| ms(10)).collect();
        let t16 = simulate_makespan(&bag, ClusterConfig::emr(16).total_map_slots());
        let t32 = simulate_makespan(&bag, ClusterConfig::emr(32).total_map_slots());
        let t64 = simulate_makespan(&bag, ClusterConfig::emr(64).total_map_slots());
        assert_eq!(t16, ms(40));
        assert_eq!(t32, ms(20));
        assert_eq!(t64, ms(10));
    }

    #[test]
    fn simulate_on_cluster_adds_phases() {
        let stats = JobStats {
            map_task_durations: vec![ms(10); 8],
            reduce_task_durations: vec![ms(4); 4],
        };
        let rep = simulate_on_cluster(&stats, &ClusterConfig::emr(1));
        // 8 maps on 4 slots = 20ms; 4 reduces on 2 slots = 8ms.
        assert_eq!(rep.map_makespan, ms(20));
        assert_eq!(rep.reduce_makespan, ms(8));
        assert_eq!(rep.total, ms(28));
        assert_eq!(rep.nodes, 1);
    }

    #[test]
    fn stragglers_inflate_makespan() {
        let bag: Vec<Duration> = (0..64).map(|_| ms(10)).collect();
        let clean = simulate_makespan(&bag, 8);
        let model = StragglerModel {
            fraction: 0.2,
            slowdown: 10.0,
            seed: 1,
        };
        let slow = simulate_with_stragglers(&bag, 8, &model, false);
        assert!(slow > clean, "stragglers had no effect");
    }

    #[test]
    fn speculation_bounds_straggler_damage() {
        let bag: Vec<Duration> = (0..64).map(|_| ms(10)).collect();
        let model = StragglerModel {
            fraction: 0.2,
            slowdown: 10.0,
            seed: 1,
        };
        let without = simulate_with_stragglers(&bag, 8, &model, false);
        let with = simulate_with_stragglers(&bag, 8, &model, true);
        assert!(with < without, "speculation did not help");
        // Speculation caps every task at 2× normal: makespan within ~2×
        // of the clean schedule plus backup load.
        let clean = simulate_makespan(&bag, 8);
        assert!(with <= clean.mul_f64(2.5), "with={with:?} clean={clean:?}");
    }

    #[test]
    fn zero_fraction_is_a_noop() {
        let bag: Vec<Duration> = (1..20).map(ms).collect();
        let model = StragglerModel {
            fraction: 0.0,
            slowdown: 100.0,
            seed: 3,
        };
        assert_eq!(
            simulate_with_stragglers(&bag, 4, &model, false),
            simulate_makespan(&bag, 4)
        );
        assert_eq!(
            simulate_with_stragglers(&bag, 4, &model, true),
            simulate_makespan(&bag, 4)
        );
    }

    #[test]
    fn default_cap_matches_emr_default_knob() {
        // The convenience wrapper and the config-driven variant agree
        // whenever the config is the canonical default.
        let bag: Vec<Duration> = (0..64).map(|_| ms(10)).collect();
        let model = StragglerModel {
            fraction: 0.2,
            slowdown: 10.0,
            seed: 1,
        };
        let cfg = ClusterConfig::emr_default();
        assert_eq!(
            simulate_with_stragglers(&bag, cfg.total_map_slots(), &model, true),
            simulate_with_stragglers_on(&bag, &cfg, &model, true),
        );
    }

    #[test]
    fn looser_cap_admits_longer_stragglers() {
        let bag: Vec<Duration> = (0..64).map(|_| ms(10)).collect();
        let model = StragglerModel {
            fraction: 0.2,
            slowdown: 10.0,
            seed: 1,
        };
        let mut tight = ClusterConfig::emr(1);
        tight.speculation_cap = 1.0;
        let mut loose = ClusterConfig::emr(1);
        loose.speculation_cap = 8.0;
        let t = simulate_with_stragglers_on(&bag, &tight, &model, true);
        let l = simulate_with_stragglers_on(&bag, &loose, &model, true);
        assert!(t <= l, "tight cap {t:?} should not exceed loose cap {l:?}");
    }

    #[test]
    fn straggler_selection_is_deterministic() {
        let bag: Vec<Duration> = (0..50).map(|_| ms(7)).collect();
        let model = StragglerModel {
            fraction: 0.3,
            slowdown: 4.0,
            seed: 9,
        };
        let a = simulate_with_stragglers(&bag, 5, &model, true);
        let b = simulate_with_stragglers(&bag, 5, &model, true);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn sub_one_slowdown_panics() {
        let model = StragglerModel {
            fraction: 0.1,
            slowdown: 0.5,
            seed: 0,
        };
        simulate_with_stragglers(&[ms(1)], 1, &model, false);
    }

    #[test]
    fn makespan_monotonic_in_slots() {
        let bag: Vec<Duration> = (1..40).map(ms).collect();
        let mut last = Duration::MAX;
        for slots in 1..20 {
            let m = simulate_makespan(&bag, slots);
            assert!(m <= last, "makespan increased with more slots");
            last = m;
        }
    }
}
