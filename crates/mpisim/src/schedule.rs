//! The masterless collective schedules as data.
//!
//! Each function returns one position's ordered hop list for `m`
//! participants. Positions are indices into a participant list
//! (`parts`): the caller maps position `q` to rank `parts[q]`, so the
//! same list describes the full-world collective and the one
//! re-stitched over the survivors of a failure.
//!
//! Two consumers read the same lists: [`Comm::allreduce_ring`],
//! [`Comm::allreduce_tree`] and [`Comm::barrier`] interpret them, and
//! `pdnn-protomc` lowers them into the micro-step programs it
//! explores. The model checker therefore checks the hops the runtime
//! executes, not a second copy of them.
//!
//! A hop moves data in a tag window, an offset from the collective's
//! base tag:
//!
//! * window 1 — the reduce phase: a position sends a copy of its
//!   partial of a chunk and folds what it receives in a fixed operand
//!   order;
//! * window 2 — the broadcast phase: the chunk's owner encodes it once
//!   ([`Hop::Own`]), and every position installs and forwards that wire
//!   image untouched, so all ranks end with the same bytes under a
//!   lossy codec;
//! * windows 0 and 1 of the barriers — empty arrivals and releases.
//!
//! [`Comm::allreduce_ring`]: crate::Comm::allreduce_ring
//! [`Comm::allreduce_tree`]: crate::Comm::allreduce_tree
//! [`Comm::barrier`]: crate::Comm::barrier

use std::ops::Range;

/// A schedule: position and participant count to that position's hops.
pub type Schedule = fn(usize, usize) -> Vec<Hop>;

/// Chunk `index` of a buffer split into `of` near-equal parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Chunk {
    index: usize,
    of: usize,
}

impl Chunk {
    /// The whole buffer.
    const WHOLE: Chunk = Chunk { index: 0, of: 1 };

    /// Element range of this chunk in a buffer of `n` elements.
    pub(crate) fn range(self, n: usize) -> Range<usize> {
        self.index * n / self.of..(self.index + 1) * n / self.of
    }
}

/// What a receive does with the payload it takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Apply {
    /// Nothing: barrier arrivals and releases carry no data.
    Discard,
    /// Fold the partial into the chunk with the incoming operand on the
    /// left (the ring: each chunk folds left-deep in ring order).
    FoldIncomingLeft,
    /// Fold the partial into the chunk with this position's operand on
    /// the left (the tree: the operand order of `Comm::reduce`).
    FoldOwnLeft,
    /// Install the wire image as the chunk and keep it for forwarding.
    Install,
}

/// One step of a position's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hop {
    /// Send to position `to`: on window 1 a copy of this position's
    /// partial of `chunk`, on window 2 the chunk's wire image as
    /// received or owned, on a barrier window an empty message.
    Send { to: usize, window: u8, chunk: Chunk },
    /// Receive from position `from` and `apply` the payload to `chunk`.
    Recv {
        from: usize,
        window: u8,
        chunk: Chunk,
        apply: Apply,
    },
    /// Encode the fully reduced `chunk` once and install the decoded
    /// image: the owner's local step that opens its broadcast.
    Own { chunk: Chunk },
}

/// Chunked ring allreduce: `m − 1` reduce-scatter hops, after which
/// position `pos` owns the fully reduced chunk `(pos + 1) mod m`, then
/// `m − 1` allgather hops forwarding each owner's image downstream.
pub fn ring(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::with_capacity(4 * m.saturating_sub(1) + 1);
    if m < 2 {
        return hops;
    }
    let next = (pos + 1) % m;
    let prev = (pos + m - 1) % m;
    let chunk = |index: usize| Chunk { index, of: m };
    // At step s position p sends its accumulation of chunk (p − s) mod m
    // and folds the incoming accumulation into chunk (p − s − 1) mod m.
    for step in 0..m - 1 {
        hops.push(Hop::Send {
            to: next,
            window: 1,
            chunk: chunk((pos + m - step) % m),
        });
        hops.push(Hop::Recv {
            from: prev,
            window: 1,
            chunk: chunk((pos + 2 * m - step - 1) % m),
            apply: Apply::FoldIncomingLeft,
        });
    }
    hops.push(Hop::Own {
        chunk: chunk((pos + 1) % m),
    });
    // At step s position p forwards the image it owned (s = 0) or last
    // received, chunk (p + 1 − s) mod m, and receives chunk (p − s) mod m.
    for step in 0..m - 1 {
        hops.push(Hop::Send {
            to: next,
            window: 2,
            chunk: chunk((pos + 1 + m - step) % m),
        });
        hops.push(Hop::Recv {
            from: prev,
            window: 2,
            chunk: chunk((pos + m - step) % m),
            apply: Apply::Install,
        });
    }
    hops
}

/// Binomial-tree allreduce over the whole buffer: the reduce of
/// `Comm::reduce` to position 0, then the broadcast of `Comm::bcast`
/// from position 0 (same masks, same operand order).
pub fn tree(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    if m < 2 {
        return hops;
    }
    let chunk = Chunk::WHOLE;
    let mut mask = 1usize;
    while mask < m {
        if pos & mask == 0 {
            if pos | mask < m {
                hops.push(Hop::Recv {
                    from: pos | mask,
                    window: 1,
                    chunk,
                    apply: Apply::FoldOwnLeft,
                });
            }
        } else {
            hops.push(Hop::Send {
                to: pos & !mask,
                window: 1,
                chunk,
            });
            break;
        }
        mask <<= 1;
    }
    let mut mask = 1usize;
    while mask < m {
        if pos & mask != 0 {
            hops.push(Hop::Recv {
                from: pos - mask,
                window: 2,
                chunk,
                apply: Apply::Install,
            });
            break;
        }
        mask <<= 1;
    }
    if pos == 0 {
        hops.push(Hop::Own { chunk });
    }
    mask >>= 1;
    while mask > 0 {
        if pos + mask < m {
            hops.push(Hop::Send {
                to: pos + mask,
                window: 2,
                chunk,
            });
        }
        mask >>= 1;
    }
    hops
}

/// Dissemination barrier: `⌈log₂ m⌉` rounds of send to `pos + step`,
/// receive from `pos − step`, all on window 0.
pub fn dissemination(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    let mut step = 1usize;
    while step < m {
        hops.push(Hop::Send {
            to: (pos + step) % m,
            window: 0,
            chunk: Chunk::WHOLE,
        });
        hops.push(Hop::Recv {
            from: (pos + m - step) % m,
            window: 0,
            chunk: Chunk::WHOLE,
            apply: Apply::Discard,
        });
        step <<= 1;
    }
    hops
}

/// Star barrier rooted at position 0: every other position arrives on
/// window 0, then the root releases each on window 1.
pub fn star(pos: usize, m: usize) -> Vec<Hop> {
    let arrive = |from| Hop::Recv {
        from,
        window: 0,
        chunk: Chunk::WHOLE,
        apply: Apply::Discard,
    };
    let release = |to| Hop::Send {
        to,
        window: 1,
        chunk: Chunk::WHOLE,
    };
    if pos == 0 {
        (1..m).map(arrive).chain((1..m).map(release)).collect()
    } else {
        vec![
            Hop::Send {
                to: 0,
                window: 0,
                chunk: Chunk::WHOLE,
            },
            Hop::Recv {
                from: 0,
                window: 1,
                chunk: Chunk::WHOLE,
                apply: Apply::Discard,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const SCHEDULES: [(&str, Schedule); 4] = [
        ("ring", ring),
        ("tree", tree),
        ("dissemination", dissemination),
        ("star", star),
    ];

    /// `(src, dst, window)` of every wire hop in `hops`, sends as +1 and
    /// receives as −1.
    fn wire(pos: usize, hops: &[Hop]) -> Vec<((usize, usize, u8), i64)> {
        hops.iter()
            .filter_map(|h| match *h {
                Hop::Send { to, window, .. } => Some(((pos, to, window), 1)),
                Hop::Recv { from, window, .. } => Some(((from, pos, window), -1)),
                Hop::Own { .. } => None,
            })
            .collect()
    }

    /// Parent of `v` in the binomial tree rooted at 0 that
    /// `Comm::reduce` and `Comm::bcast` walk: `v` with its lowest set
    /// bit cleared.
    fn binomial_parent(v: usize) -> usize {
        v & (v - 1)
    }

    #[test]
    fn every_channel_balances() {
        for (name, schedule) in SCHEDULES {
            for m in 1..=17 {
                let mut balance: BTreeMap<(usize, usize, u8), i64> = BTreeMap::new();
                for pos in 0..m {
                    for (key, d) in wire(pos, &schedule(pos, m)) {
                        assert_ne!(key.0, key.1, "{name} m={m}: self-hop at {pos}");
                        *balance.entry(key).or_default() += d;
                    }
                }
                assert!(
                    balance.values().all(|&v| v == 0),
                    "{name} m={m}: unbalanced channels {balance:?}"
                );
            }
        }
    }

    #[test]
    fn ring_takes_two_m_minus_one_sends_and_receives() {
        for m in 1..=17 {
            for pos in 0..m {
                let hops = ring(pos, m);
                let sends = hops
                    .iter()
                    .filter(|h| matches!(h, Hop::Send { .. }))
                    .count();
                let recvs = hops
                    .iter()
                    .filter(|h| matches!(h, Hop::Recv { .. }))
                    .count();
                assert_eq!(
                    (sends, recvs),
                    (2 * (m - 1), 2 * (m - 1)),
                    "m={m} pos={pos}"
                );
                if m > 1 {
                    // The owned chunk is the one the reduce-scatter
                    // completes last, and the owner forwards it first.
                    let owned = Chunk {
                        index: (pos + 1) % m,
                        of: m,
                    };
                    let own_at = hops.iter().position(|h| *h == Hop::Own { chunk: owned });
                    assert_eq!(own_at, Some(2 * (m - 1)), "m={m} pos={pos}");
                    assert!(
                        matches!(hops[2 * m - 1], Hop::Send { window: 2, chunk, .. } if chunk == owned)
                    );
                }
            }
        }
    }

    #[test]
    fn tree_edges_are_the_binomial_reduce_and_bcast_edges_at_root_0() {
        for m in 1..=17 {
            let mut reduce_edges = Vec::new();
            let mut bcast_edges = Vec::new();
            for pos in 0..m {
                let hops = tree(pos, m);
                for ((src, dst, window), d) in wire(pos, &hops) {
                    match (window, d) {
                        (1, 1) => reduce_edges.push((src, dst)),
                        (2, 1) => bcast_edges.push((src, dst)),
                        _ => {}
                    }
                }
                // Combine order: children in ascending mask order, as
                // `Comm::reduce` folds them; fan-out in descending mask
                // order, as `Comm::bcast` sends.
                let folds: Vec<usize> = hops
                    .iter()
                    .filter_map(|h| match *h {
                        Hop::Recv {
                            from,
                            window: 1,
                            apply,
                            ..
                        } => {
                            assert_eq!(apply, Apply::FoldOwnLeft);
                            Some(from)
                        }
                        _ => None,
                    })
                    .collect();
                let children: Vec<usize> = (pos + 1..m)
                    .filter(|&c| binomial_parent(c) == pos)
                    .collect();
                assert_eq!(folds, children, "m={m} pos={pos}");
                let fan_out: Vec<usize> = hops
                    .iter()
                    .filter_map(|h| match *h {
                        Hop::Send { to, window: 2, .. } => Some(to),
                        _ => None,
                    })
                    .collect();
                assert_eq!(
                    fan_out,
                    children.iter().rev().copied().collect::<Vec<_>>(),
                    "m={m} pos={pos}"
                );
            }
            reduce_edges.sort_unstable();
            bcast_edges.sort_unstable();
            let mut expect_reduce: Vec<(usize, usize)> =
                (1..m).map(|c| (c, binomial_parent(c))).collect();
            let mut expect_bcast: Vec<(usize, usize)> =
                (1..m).map(|c| (binomial_parent(c), c)).collect();
            expect_reduce.sort_unstable();
            expect_bcast.sort_unstable();
            assert_eq!(reduce_edges, expect_reduce, "m={m}");
            assert_eq!(bcast_edges, expect_bcast, "m={m}");
        }
    }

    #[test]
    fn star_root_collects_then_releases_every_other_position() {
        for m in 1..=17 {
            let hops = star(0, m);
            let arrivals: Vec<usize> = hops
                .iter()
                .filter_map(|h| match *h {
                    Hop::Recv {
                        from, window: 0, ..
                    } => Some(from),
                    _ => None,
                })
                .collect();
            let releases: Vec<usize> = hops
                .iter()
                .filter_map(|h| match *h {
                    Hop::Send { to, window: 1, .. } => Some(to),
                    _ => None,
                })
                .collect();
            assert_eq!(arrivals, (1..m).collect::<Vec<_>>(), "m={m}");
            assert_eq!(releases, (1..m).collect::<Vec<_>>(), "m={m}");
            assert_eq!(hops.len(), 2 * (m - 1), "m={m}");
        }
    }
}
