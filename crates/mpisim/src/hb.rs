//! Vector-clock happens-before tracking for the schedule-perturbation
//! race detector (the perturbed-schedule determinism tests of
//! `pdnn-core`).
//!
//! Every rank carries a vector clock; each send ticks the sender's own
//! component and stamps the clock onto the packet, each consumed
//! receive merges the sender's clock into the receiver's. Three
//! invariants are checked while a perturbed schedule runs:
//!
//! * **Delivery monotonicity** — the sender component of successive
//!   packets delivered from one source must strictly increase
//!   (senders tick before every send), so a stale component means a
//!   duplicated or transport-reordered message
//!   ([`HbViolation::StaleDelivery`]).
//! * **No future self-knowledge** — a consumed packet cannot carry a
//!   receiver component larger than the receiver's own clock: the
//!   sender would know about receiver events that have not happened,
//!   i.e. a read was not ordered after the write that produced it
//!   ([`HbViolation::FutureSelfKnowledge`]).
//! * **Quiescence at exit** — no packet may remain parked or in
//!   flight when the rank body returns
//!   ([`HbViolation::UnconsumedAtExit`]); the dynamic counterpart of
//!   `pdnn-protomc`'s `p6-no-lost-message` property.
//!
//! The tracker is off by default (packets carry no clock and nothing
//! is checked); [`crate::run_world_perturbed`] switches it on.

use crate::message::Packet;
use std::fmt;

/// One detected ordering violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HbViolation {
    /// A delivered packet's sender clock component did not advance
    /// past the previous delivery from that source: duplication or
    /// transport reordering.
    StaleDelivery {
        /// Sending rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// The stale sender component.
        clock_src: u64,
        /// The component already seen from that source.
        last_seen: u64,
    },
    /// A consumed packet claims knowledge of this rank's future: its
    /// receiver component exceeds the receiver's own event count.
    FutureSelfKnowledge {
        /// Sending rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Receiver component carried by the packet.
        claimed: u64,
        /// Receiver's actual own-component value.
        actual: u64,
    },
    /// A packet was still parked or in flight when the rank exited.
    UnconsumedAtExit {
        /// Sending rank.
        src: usize,
        /// Message tag.
        tag: u64,
    },
}

impl fmt::Display for HbViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbViolation::StaleDelivery {
                src,
                tag,
                clock_src,
                last_seen,
            } => write!(
                f,
                "stale delivery from rank {src} (tag {tag}): sender clock \
                 {clock_src} <= previously seen {last_seen}"
            ),
            HbViolation::FutureSelfKnowledge {
                src,
                tag,
                claimed,
                actual,
            } => write!(
                f,
                "packet from rank {src} (tag {tag}) knows receiver event \
                 {claimed} but only {actual} have happened"
            ),
            HbViolation::UnconsumedAtExit { src, tag } => write!(
                f,
                "message from rank {src} (tag {tag}) never consumed before exit"
            ),
        }
    }
}

/// Per-rank vector-clock tracker.
#[derive(Clone, Debug)]
pub struct HbTracker {
    rank: usize,
    /// This rank's vector clock; component `r` counts the events of
    /// rank `r` this rank has (transitively) heard about.
    clock: Vec<u64>,
    /// Largest sender component delivered from each source so far.
    last_delivered: Vec<u64>,
    violations: Vec<HbViolation>,
}

impl HbTracker {
    /// Fresh tracker for `rank` in an `size`-rank world.
    pub fn new(rank: usize, size: usize) -> Self {
        assert!(rank < size, "hb tracker rank out of range");
        HbTracker {
            rank,
            clock: vec![0; size],
            last_delivered: vec![0; size],
            violations: Vec::new(),
        }
    }

    /// Record a send event: tick the own component and return the
    /// clock to stamp onto the outgoing packet.
    pub fn on_send(&mut self) -> Vec<u64> {
        self.clock[self.rank] += 1;
        self.clock.clone()
    }

    /// Record a packet entering this rank's custody (popped from the
    /// transport channel, whether or not it matches a posted receive).
    pub fn on_delivered(&mut self, pkt: &Packet) {
        let Some(c) = &pkt.clock else { return };
        let comp = c.get(pkt.src).copied().unwrap_or(0);
        let seen = self.last_delivered.get(pkt.src).copied().unwrap_or(0);
        if comp <= seen {
            self.violations.push(HbViolation::StaleDelivery {
                src: pkt.src,
                tag: pkt.tag,
                clock_src: comp,
                last_seen: seen,
            });
        } else if let Some(slot) = self.last_delivered.get_mut(pkt.src) {
            *slot = comp;
        }
    }

    /// Record a packet being consumed by a matching receive: check the
    /// no-future-self-knowledge invariant, then merge and tick.
    pub fn on_consumed(&mut self, pkt: &Packet) {
        let Some(c) = &pkt.clock else { return };
        let claimed = c.get(self.rank).copied().unwrap_or(0);
        if claimed > self.clock[self.rank] {
            self.violations.push(HbViolation::FutureSelfKnowledge {
                src: pkt.src,
                tag: pkt.tag,
                claimed,
                actual: self.clock[self.rank],
            });
        }
        for (own, &incoming) in self.clock.iter_mut().zip(c.iter()) {
            if incoming > *own {
                *own = incoming;
            }
        }
        self.clock[self.rank] += 1;
    }

    /// Record a packet left unconsumed at rank exit.
    pub fn on_unconsumed(&mut self, pkt: &Packet) {
        self.violations.push(HbViolation::UnconsumedAtExit {
            src: pkt.src,
            tag: pkt.tag,
        });
    }

    /// All violations recorded so far, leaving the tracker empty.
    pub fn take_violations(&mut self) -> Vec<HbViolation> {
        std::mem::take(&mut self.violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Payload;

    fn pkt(src: usize, tag: u64, clock: Vec<u64>) -> Packet {
        Packet {
            src,
            tag,
            sent_vtime: 0.0,
            clock: Some(clock),
            payload: Payload::Empty,
        }
    }

    #[test]
    fn clean_send_recv_cycle_has_no_violations() {
        let mut a = HbTracker::new(0, 2);
        let mut b = HbTracker::new(1, 2);
        let c = a.on_send();
        let p = pkt(0, 1, c);
        b.on_delivered(&p);
        b.on_consumed(&p);
        assert!(a.take_violations().is_empty());
        assert!(b.take_violations().is_empty());
    }

    #[test]
    fn duplicate_delivery_is_stale() {
        let mut a = HbTracker::new(0, 2);
        let mut b = HbTracker::new(1, 2);
        let p = pkt(0, 1, a.on_send());
        b.on_delivered(&p);
        b.on_delivered(&p); // duplicated in transport
        let v = b.take_violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], HbViolation::StaleDelivery { src: 0, .. }));
    }

    #[test]
    fn reordered_delivery_is_stale() {
        let mut a = HbTracker::new(0, 2);
        let mut b = HbTracker::new(1, 2);
        let first = pkt(0, 1, a.on_send());
        let second = pkt(0, 1, a.on_send());
        b.on_delivered(&second);
        b.on_delivered(&first); // transport reordered the pair
        let v = b.take_violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], HbViolation::StaleDelivery { .. }));
    }

    #[test]
    fn future_self_knowledge_is_flagged() {
        let mut b = HbTracker::new(1, 2);
        // Rank 0 claims to have seen 5 of rank 1's events; rank 1 has
        // had none.
        let p = pkt(0, 1, vec![1, 5]);
        b.on_delivered(&p);
        b.on_consumed(&p);
        let v = b.take_violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            HbViolation::FutureSelfKnowledge {
                claimed: 5,
                actual: 0,
                ..
            }
        ));
    }

    #[test]
    fn self_send_is_not_future_knowledge() {
        let mut a = HbTracker::new(0, 1);
        let p = pkt(0, 1, a.on_send());
        a.on_delivered(&p);
        a.on_consumed(&p);
        assert!(a.take_violations().is_empty());
    }

    #[test]
    fn clockless_packets_are_ignored() {
        let mut b = HbTracker::new(1, 2);
        let p = Packet {
            src: 0,
            tag: 1,
            sent_vtime: 0.0,
            clock: None,
            payload: Payload::Empty,
        };
        b.on_delivered(&p);
        b.on_consumed(&p);
        assert!(b.take_violations().is_empty());
    }

    #[test]
    fn unconsumed_at_exit_is_reported() {
        let mut a = HbTracker::new(0, 2);
        let mut b = HbTracker::new(1, 2);
        let p = pkt(0, 9, a.on_send());
        b.on_delivered(&p);
        b.on_unconsumed(&p);
        let v = b.take_violations();
        assert_eq!(v.len(), 1);
        assert!(matches!(
            v[0],
            HbViolation::UnconsumedAtExit { src: 0, tag: 9 }
        ));
    }
}
