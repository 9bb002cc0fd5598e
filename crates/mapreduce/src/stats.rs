//! Job execution statistics.
//!
//! Per-task durations feed the [`crate::sim`] scheduler, letting the same
//! measured task bag be "re-run" on clusters of different sizes — the
//! mechanism behind the paper's Table 3 elasticity study.

use std::time::Duration;

/// The measured task bag of one job stage.
#[derive(Clone, Debug, Default)]
pub struct JobStats {
    /// Wall-clock duration of each map task.
    pub map_task_durations: Vec<Duration>,
    /// Wall-clock duration of each reduce task.
    pub reduce_task_durations: Vec<Duration>,
}

impl JobStats {
    /// Number of map tasks executed.
    pub fn num_map_tasks(&self) -> usize {
        self.map_task_durations.len()
    }

    /// Number of reduce tasks executed.
    pub fn num_reduce_tasks(&self) -> usize {
        self.reduce_task_durations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_counts_follow_durations() {
        let s = JobStats {
            map_task_durations: vec![Duration::from_millis(10), Duration::from_millis(20)],
            reduce_task_durations: vec![Duration::from_millis(5)],
        };
        assert_eq!(s.num_map_tasks(), 2);
        assert_eq!(s.num_reduce_tasks(), 1);
    }
}
