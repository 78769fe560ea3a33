//! The open-loop schedule: operation `k` of a lane is due at
//! `start + k × interval`, whatever happened to the operations before it.
//!
//! Latency is always taken from the due time, never from the send time.
//! When the sender (or the daemon, through a blocked `write`) stalls, the
//! operations that fell due meanwhile are sent back to back as soon as the
//! stall ends — and each is charged the wait since *its own* due time, so
//! a stall shows up in every operation it delayed instead of vanishing
//! into a quietly lowered offered rate.

/// A fixed-rate schedule over one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pacer {
    start_ns: u64,
    interval_ns: u64,
    end_ns: u64,
    issued: u64,
}

impl Pacer {
    /// A schedule starting at `start_ns` (first operation due at once),
    /// one operation every `interval_ns`, none due at or after `end_ns`.
    pub fn new(start_ns: u64, interval_ns: u64, end_ns: u64) -> Pacer {
        Pacer {
            start_ns,
            interval_ns: interval_ns.max(1),
            end_ns,
            issued: 0,
        }
    }

    /// The interval for `per_second` operations a second.
    pub fn interval_for(per_second: f64) -> u64 {
        (1e9 / per_second).round() as u64
    }

    /// Due time of the next operation, or `None` once the phase is over.
    pub fn next_due(&self) -> Option<u64> {
        let due = self.start_ns + self.issued * self.interval_ns;
        (due < self.end_ns).then_some(due)
    }

    /// The next operation has been issued.
    pub fn advance(&mut self) {
        self.issued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_inherited_by_the_operations_it_delayed() {
        const INTERVAL: u64 = 1_000;
        const SEND_COST: u64 = 10;
        const STALL: u64 = 5_500;
        let mut pacer = Pacer::new(0, INTERVAL, 20 * INTERVAL);
        let mut now = 0u64;
        let mut lateness = Vec::new();
        while let Some(due) = pacer.next_due() {
            now = now.max(due); // an idle sender waits for the due time
            lateness.push(now - due);
            pacer.advance();
            now += SEND_COST;
            if lateness.len() == 4 {
                now += STALL; // the fourth send blocks
            }
        }
        assert_eq!(lateness.len(), 20, "the stall drops no operation");
        assert_eq!(&lateness[..4], &[0, 0, 0, 0]);
        // Operation 3 went out at 3000 and blocked until 8510; operations
        // 4..=8 fell due at 4000..=8000 meanwhile and carry that wait.
        assert_eq!(&lateness[4..9], &[4_510, 3_520, 2_530, 1_540, 550]);
        assert!(
            lateness[9..].iter().all(|&late| late == 0),
            "caught up: {lateness:?}"
        );
    }

    #[test]
    fn due_times_stay_on_the_grid() {
        let mut pacer = Pacer::new(500, Pacer::interval_for(2_000.0), 2_500_000);
        let mut dues = Vec::new();
        while let Some(due) = pacer.next_due() {
            dues.push(due);
            pacer.advance();
        }
        assert_eq!(dues, vec![500, 500_500, 1_000_500, 1_500_500, 2_000_500]);
    }
}
