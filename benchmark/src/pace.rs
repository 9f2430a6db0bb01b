//! Open-loop pacing: event `i` is due `i / rate` seconds after the first,
//! whatever the system under test does with the events before it.

/// Nanoseconds after the start at which event `index` is due. Computed
/// from the index, never by adding up intervals, so the schedule cannot
/// drift however long the run.
pub fn due_ns(index: u64, rate_per_s: u64) -> u64 {
    (index as u128 * 1_000_000_000 / rate_per_s as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_index_without_drift() {
        assert_eq!(due_ns(0, 100_000), 0);
        assert_eq!(due_ns(1, 100_000), 10_000);
        assert_eq!(due_ns(100_000, 100_000), 1_000_000_000);
        // A rate that does not divide a second: one hour of events still
        // lands on the exact second, where summed intervals would be off.
        assert_eq!(due_ns(3 * 3600, 3), 3600 * 1_000_000_000);
        assert_eq!(due_ns(7, 3), 2_333_333_333);
        // No overflow at a day of events.
        assert_eq!(due_ns(86_400 * 100_000, 100_000), 86_400 * 1_000_000_000);
        assert!((0..10_000).all(|i| due_ns(i, 7) <= due_ns(i + 1, 7)));
    }
}
