//! The sequence-numbered change stream.
//!
//! Subscribers pull: each reads everything after its own resume point with
//! [`ChangeLog::read_from`] and, when that comes back empty, waits
//! [`ChangeLog::POLL`] before reading again.  So an append wakes nobody and
//! makes no system call.

use std::sync::Mutex;
use std::time::Duration;

use crate::event::Event;

/// An append-only, sequence-numbered log of committed mutations.
///
/// Sequence numbers start at 1 and are dense: event `s` sits at index
/// `s - 1`.  Readers address the log by "everything after seqno `after`",
/// which makes resumption trivial — a follower that has applied up to `s`
/// asks for `read_from(s, ..)` and can never skip or double-apply an event.
///
/// The log retains its full history so late subscribers (and the
/// crash-recovery path, which replays from a checkpoint's cut) can always
/// catch up; a long-lived deployment would truncate below the minimum
/// follower seqno, which the bounded bench/test runs here never need.
#[derive(Default)]
pub struct ChangeLog {
    events: Mutex<Vec<Event>>,
}

impl ChangeLog {
    /// How long an idle subscriber waits before it reads the log again: the
    /// most a pull-based subscriber adds to a write's delivery latency.
    pub const POLL: Duration = Duration::from_millis(10);

    /// An empty log (seqno 0).
    pub fn new() -> ChangeLog {
        ChangeLog::default()
    }

    /// Append one committed event; returns its sequence number.  Callers
    /// (the [`crate::ReplicatedMap`] mutation paths) hold the key's stripe
    /// lock across apply + append, which is what makes per-key log order
    /// equal per-key application order.
    pub(crate) fn append(&self, ev: Event) -> u64 {
        // Registered before the lock, so the log lock never nests the
        // registry's.
        let gauge = &crate::metrics::metrics().log_seqno;
        let mut events = self.events.lock().unwrap();
        events.push(ev);
        let seq = events.len() as u64;
        // Set under the lock: appenders store their seqnos in log order, so
        // the gauge never goes backwards.
        gauge.set(seq);
        seq
    }

    /// The sequence number of the most recent event (0 when empty).
    pub fn seqno(&self) -> u64 {
        self.events.lock().unwrap().len() as u64
    }

    /// Up to `max` events after seqno `after`, paired with their sequence
    /// numbers.  Empty when the log has nothing newer.
    pub fn read_from(&self, after: u64, max: usize) -> Vec<(u64, Event)> {
        let events = self.events.lock().unwrap();
        let start = (after as usize).min(events.len());
        events[start..]
            .iter()
            .take(max)
            .enumerate()
            .map(|(i, &ev)| (after + 1 + i as u64, ev))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seqnos_are_dense_from_one() {
        let log = ChangeLog::new();
        assert_eq!(log.seqno(), 0);
        assert!(log.read_from(0, 100).is_empty());
        assert_eq!(log.append(Event::Put(1, 1)), 1);
        assert_eq!(log.append(Event::Del(1)), 2);
        assert_eq!(log.append(Event::Set(2, 9)), 3);
        assert_eq!(log.seqno(), 3);
        let all = log.read_from(0, 100);
        assert_eq!(
            all,
            vec![(1, Event::Put(1, 1)), (2, Event::Del(1)), (3, Event::Set(2, 9))]
        );
        // Resumption addressing: everything after 2 is exactly event 3.
        assert_eq!(log.read_from(2, 100), vec![(3, Event::Set(2, 9))]);
        assert_eq!(log.read_from(3, 100), vec![]);
        // A reader ahead of the log (can only happen with a corrupted
        // resume point) gets nothing rather than a panic.
        assert_eq!(log.read_from(99, 100), vec![]);
        // `max` caps the batch.
        assert_eq!(log.read_from(0, 2).len(), 2);
    }
}
