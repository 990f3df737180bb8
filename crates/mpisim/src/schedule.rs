//! Every collective schedule as data.
//!
//! Each function returns one position's ordered hop list for `m`
//! participants. Positions are indices into a participant list
//! (`parts`): the caller maps position `q` to rank `parts[q]`, so the
//! same list describes the full-world collective, the one re-stitched
//! over the survivors of a failure, and a rooted collective whose root
//! the caller put at position 0.
//!
//! Two consumers read the same lists: every collective of [`Comm`],
//! and [`Comm::p2p_schedule`] which runs a list as plain point-to-point
//! traffic on user tags, interprets them through one hop interpreter,
//! and `pdnn-protomc` lowers them into the micro-step programs it
//! explores (the masterless model, its recovery round and the
//! master/worker model alike). The model checker therefore checks the
//! hops the runtime executes, not a second copy of them.
//!
//! | shape | runs in | windows |
//! |---|---|---|
//! | `binomial_reduce`, `binomial_bcast` | fault-free `reduce` / `bcast` | 1 / 2 |
//! | [`tree`] = reduce half ++ broadcast half | `allreduce_tree`; `allreduce_ring` on large worlds with small chunks | 1, 2 |
//! | [`ring`] = [`ring_reduce_scatter`] ++ [`ring_allgather`] | `allreduce_ring` | 1, 2 |
//! | [`ring_reduce_scatter`] | `reduce_scatter` | 1 |
//! | [`ring_allgather`] | `allgather` | 2 |
//! | `recursive_doubling` | `allreduce` on a power-of-two membership | 1 |
//! | [`dissemination`] | fault-free `barrier` | 0 |
//! | [`fan_in`], [`fan_out`] | `reduce` / `bcast` under a fault plan | 1 / 2 |
//! | [`star`] = fan-in ++ fan-out | `barrier` under a fault plan | 1, 2 |
//! | [`fan_in`] (REPORT), then [`fan_out`] (AGREE) to the agreed survivors | the masterless membership round, through `Comm::p2p_schedule` on user tags 18 / 19 | 1 / 2 |
//!
//! A hop moves data in a tag window, an offset from the collective's
//! base tag:
//!
//! * window 0 — the dissemination barrier's rounds, which carry no
//!   data;
//! * window 1 — the reduce phase: a position sends a copy of its
//!   partial of a chunk and folds what it receives in a fixed operand
//!   order;
//! * window 2 — the broadcast phase: the chunk's owner encodes it once
//!   ([`Hop::Own`]), and every position installs and forwards that wire
//!   image untouched, so all ranks end with the same bytes under a
//!   lossy codec. A walk that opens on a window-2 send (the standalone
//!   [`ring_allgather`]) has no image yet, and sends its owned chunk as
//!   it stands in the buffer.
//!
//! A barrier is the star or the dissemination rounds over an empty
//! buffer, so its folds and installs move nothing.
//!
//! [`Comm`]: crate::Comm
//! [`Comm::p2p_schedule`]: crate::Comm::p2p_schedule

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
    /// The whole buffer. Installing it replaces the buffer, so a
    /// broadcast's receivers may start with any length.
    pub(crate) const WHOLE: Chunk = Chunk { index: 0, of: 1 };

    /// Element range of this chunk in a buffer of `n` elements.
    pub(crate) fn range(self, n: usize) -> Range<usize> {
        self.index * n / self.of..(self.index + 1) * n / self.of
    }
}

/// What a receive does with the payload it takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Apply {
    /// Nothing: the dissemination barrier's messages carry no data.
    Discard,
    /// Fold the partial into the chunk with the incoming operand on the
    /// left (the ring: each chunk folds left-deep in ring order).
    FoldIncomingLeft,
    /// Fold the partial into the chunk with this position's operand on
    /// the left (the binomial reduce and the fan-in).
    FoldOwnLeft,
    /// Install the wire image as the chunk and keep it for forwarding.
    Install,
}

/// One step of a position's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hop {
    /// Send to position `to`: on window 1 a copy of this position's
    /// partial of `chunk`, on window 2 the chunk's wire image as
    /// received or owned, on window 0 an empty message.
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

fn send(to: usize, window: u8) -> Hop {
    Hop::Send {
        to,
        window,
        chunk: Chunk::WHOLE,
    }
}

fn recv(from: usize, window: u8, apply: Apply) -> Hop {
    Hop::Recv {
        from,
        window,
        chunk: Chunk::WHOLE,
        apply,
    }
}

/// Chunked ring allreduce: [`ring_reduce_scatter`] then
/// [`ring_allgather`].
pub fn ring(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = ring_reduce_scatter(pos, m);
    hops.extend(ring_allgather(pos, m));
    hops
}

/// Chunk `index` of `m` ring chunks.
fn ring_chunk(index: usize, m: usize) -> Chunk {
    Chunk { index, of: m }
}

/// The chunk position `pos` of an `m`-member ring holds fully reduced
/// after [`ring_reduce_scatter`], and the one it contributes to
/// [`ring_allgather`]: `(pos + 1) mod m`.
pub(crate) fn ring_owned(pos: usize, m: usize) -> Chunk {
    ring_chunk((pos + 1) % m, m)
}

/// The reduce-scatter half of the ring: `m − 1` hops on window 1, after
/// which position `pos` holds the fully reduced chunk `(pos + 1) mod m`,
/// then the owner's [`Hop::Own`] of it.
pub fn ring_reduce_scatter(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::with_capacity(2 * m.saturating_sub(1) + 1);
    if m < 2 {
        return hops;
    }
    let next = (pos + 1) % m;
    let prev = (pos + m - 1) % m;
    // At step s position p sends its accumulation of chunk (p − s) mod m
    // and folds the incoming accumulation into chunk (p − s − 1) mod m.
    for step in 0..m - 1 {
        hops.push(Hop::Send {
            to: next,
            window: 1,
            chunk: ring_chunk((pos + m - step) % m, m),
        });
        hops.push(Hop::Recv {
            from: prev,
            window: 1,
            chunk: ring_chunk((pos + 2 * m - step - 1) % m, m),
            apply: Apply::FoldIncomingLeft,
        });
    }
    hops.push(Hop::Own {
        chunk: ring_owned(pos, m),
    });
    hops
}

/// The allgather half of the ring: `m − 1` hops on window 2 forwarding
/// each position's owned chunk downstream. At step s position p forwards
/// the image it owns (s = 0) or last received, chunk (p + 1 − s) mod m,
/// and receives chunk (p − s) mod m.
pub fn ring_allgather(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::with_capacity(2 * m.saturating_sub(1));
    if m < 2 {
        return hops;
    }
    let next = (pos + 1) % m;
    let prev = (pos + m - 1) % m;
    for step in 0..m - 1 {
        hops.push(Hop::Send {
            to: next,
            window: 2,
            chunk: ring_chunk((pos + 1 + m - step) % m, m),
        });
        hops.push(Hop::Recv {
            from: prev,
            window: 2,
            chunk: ring_chunk((pos + m - step) % m, m),
            apply: Apply::Install,
        });
    }
    hops
}

/// Binomial reduce of the whole buffer to position 0 on window 1: a
/// position folds its children `pos | mask` in ascending mask order,
/// its own operand on the left, then sends its partial to its parent
/// (`pos` with its lowest set bit cleared).
pub(crate) fn binomial_reduce(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    let mut mask = 1usize;
    while mask < m {
        if pos & mask != 0 {
            hops.push(send(pos & !mask, 1));
            break;
        }
        if pos | mask < m {
            hops.push(recv(pos | mask, 1, Apply::FoldOwnLeft));
        }
        mask <<= 1;
    }
    hops
}

/// Binomial broadcast of the whole buffer from position 0 on window 2:
/// a position installs its parent's image (the root owns its own), then
/// forwards it to its children in descending mask order. A one-member
/// tree moves nothing.
pub(crate) fn binomial_bcast(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    if m < 2 {
        return hops;
    }
    let mut mask = 1usize;
    while mask < m && pos & mask == 0 {
        mask <<= 1;
    }
    if mask < m {
        hops.push(recv(pos - mask, 2, Apply::Install));
    } else {
        hops.push(Hop::Own {
            chunk: Chunk::WHOLE,
        });
    }
    mask >>= 1;
    while mask > 0 {
        if pos + mask < m {
            hops.push(send(pos + mask, 2));
        }
        mask >>= 1;
    }
    hops
}

/// Binomial-tree allreduce over the whole buffer: `binomial_reduce`
/// to position 0, then `binomial_bcast` from it.
pub fn tree(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = binomial_reduce(pos, m);
    hops.extend(binomial_bcast(pos, m));
    hops
}

/// Recursive-doubling allreduce for a power-of-two `m`: at round `k`
/// position `pos` exchanges its whole partial with `pos ^ 2^k` on
/// window 1 and folds with the lower position's operand on the left, so
/// both partners compute identical bits.
pub(crate) fn recursive_doubling(pos: usize, m: usize) -> Vec<Hop> {
    debug_assert!(m.is_power_of_two(), "recursive doubling needs 2^k members");
    let mut hops = Vec::new();
    let mut mask = 1usize;
    while mask < m {
        let partner = pos ^ mask;
        let apply = if pos < partner {
            Apply::FoldOwnLeft
        } else {
            Apply::FoldIncomingLeft
        };
        hops.push(send(partner, 1));
        hops.push(recv(partner, 1, apply));
        mask <<= 1;
    }
    hops
}

/// Dissemination barrier: `⌈log₂ m⌉` rounds of send to `pos + step`,
/// receive from `pos − step`, all on window 0.
pub fn dissemination(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    let mut step = 1usize;
    while step < m {
        hops.push(send((pos + step) % m, 0));
        hops.push(recv((pos + m - step) % m, 0, Apply::Discard));
        step <<= 1;
    }
    hops
}

/// Flat fan-in to position 0 on window 1: every other position sends
/// its buffer, and the root folds them in position order, its own
/// operand on the left — `((x_0 ⊕ x_1) ⊕ x_2) ⊕ …`.
pub fn fan_in(pos: usize, m: usize) -> Vec<Hop> {
    if pos == 0 {
        (1..m).map(|q| recv(q, 1, Apply::FoldOwnLeft)).collect()
    } else {
        vec![send(0, 1)]
    }
}

/// Flat fan-out from position 0 on window 2: the root owns its image
/// (even with no receivers, so its buffer holds the decoded bits
/// whatever the membership) and sends it to every other position in
/// order; each installs it.
pub fn fan_out(pos: usize, m: usize) -> Vec<Hop> {
    if pos == 0 {
        let own = Hop::Own {
            chunk: Chunk::WHOLE,
        };
        std::iter::once(own)
            .chain((1..m).map(|q| send(q, 2)))
            .collect()
    } else {
        vec![recv(0, 2, Apply::Install)]
    }
}

/// Star rooted at position 0: [`fan_in`] then [`fan_out`]. Every other
/// position arrives, then the root releases each.
pub fn star(pos: usize, m: usize) -> Vec<Hop> {
    let mut hops = fan_in(pos, m);
    hops.extend(fan_out(pos, m));
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    const SCHEDULES: [(&str, Schedule); 11] = [
        ("ring", ring),
        ("ring_reduce_scatter", ring_reduce_scatter),
        ("ring_allgather", ring_allgather),
        ("binomial_reduce", binomial_reduce),
        ("binomial_bcast", binomial_bcast),
        ("tree", tree),
        ("recursive_doubling", recursive_doubling),
        ("dissemination", dissemination),
        ("fan_in", fan_in),
        ("fan_out", fan_out),
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

    /// Parent of `v` in the binomial tree rooted at 0: `v` with its
    /// lowest set bit cleared.
    fn binomial_parent(v: usize) -> usize {
        v & (v - 1)
    }

    /// Peers of the hops matching `pick`, in hop order.
    fn peers(hops: &[Hop], pick: impl Fn(&Hop) -> Option<usize>) -> Vec<usize> {
        hops.iter().filter_map(pick).collect()
    }

    #[test]
    fn every_channel_balances() {
        for (name, schedule) in SCHEDULES {
            for m in 1..=17usize {
                if name == "recursive_doubling" && !m.is_power_of_two() {
                    continue;
                }
                let mut balance: BTreeMap<(usize, usize, u8), i64> = BTreeMap::new();
                for pos in 0..m {
                    for (key, d) in wire(pos, &schedule(pos, m)) {
                        assert_ne!(key.0, key.1, "{name} m={m}: self-hop at {pos}");
                        assert!(key.0 < m && key.1 < m, "{name} m={m}: {key:?}");
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
    fn composite_shapes_are_concatenations_of_their_halves() {
        for m in 1..=17 {
            for pos in 0..m {
                let mut halves = binomial_reduce(pos, m);
                halves.extend(binomial_bcast(pos, m));
                assert_eq!(tree(pos, m), halves, "tree m={m} pos={pos}");
                let mut halves = fan_in(pos, m);
                halves.extend(fan_out(pos, m));
                assert_eq!(star(pos, m), halves, "star m={m} pos={pos}");
                let mut halves = ring_reduce_scatter(pos, m);
                halves.extend(ring_allgather(pos, m));
                assert_eq!(ring(pos, m), halves, "ring m={m} pos={pos}");
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
    fn binomial_halves_walk_the_binomial_edges_at_root_0() {
        for m in 1..=17 {
            let mut reduce_edges = Vec::new();
            let mut bcast_edges = Vec::new();
            for pos in 0..m {
                let (reduce, bcast) = (binomial_reduce(pos, m), binomial_bcast(pos, m));
                for ((src, dst, _), d) in wire(pos, &reduce) {
                    if d == 1 {
                        reduce_edges.push((src, dst));
                    }
                }
                for ((src, dst, _), d) in wire(pos, &bcast) {
                    if d == 1 {
                        bcast_edges.push((src, dst));
                    }
                }
                // Combine order: children in ascending mask order, own
                // operand on the left; fan-out in descending mask order.
                let folds = peers(&reduce, |h| match *h {
                    Hop::Recv {
                        from,
                        window: 1,
                        apply: Apply::FoldOwnLeft,
                        ..
                    } => Some(from),
                    _ => None,
                });
                let children: Vec<usize> = (pos + 1..m)
                    .filter(|&c| binomial_parent(c) == pos)
                    .collect();
                assert_eq!(folds, children, "m={m} pos={pos}");
                let fan_out = peers(&bcast, |h| match *h {
                    Hop::Send { to, window: 2, .. } => Some(to),
                    _ => None,
                });
                assert_eq!(
                    fan_out,
                    children.iter().rev().copied().collect::<Vec<_>>(),
                    "m={m} pos={pos}"
                );
                // Exactly the root owns the image of a multi-member tree.
                let owns = bcast.iter().any(|h| matches!(h, Hop::Own { .. }));
                assert_eq!(owns, pos == 0 && m > 1, "m={m} pos={pos}");
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
    fn recursive_doubling_pairs_pos_xor_mask_with_the_lower_operand_left() {
        for m in [1usize, 2, 4, 8, 16] {
            for pos in 0..m {
                let hops = recursive_doubling(pos, m);
                assert_eq!(hops.len(), 2 * m.trailing_zeros() as usize, "m={m}");
                for (round, pair) in hops.chunks(2).enumerate() {
                    let partner = pos ^ (1 << round);
                    let apply = if pos < partner {
                        Apply::FoldOwnLeft
                    } else {
                        Apply::FoldIncomingLeft
                    };
                    assert_eq!(pair[0], send(partner, 1), "m={m} pos={pos}");
                    assert_eq!(pair[1], recv(partner, 1, apply), "m={m} pos={pos}");
                }
            }
        }
    }

    #[test]
    fn star_root_collects_then_releases_every_other_position() {
        for m in 1..=17 {
            let hops = star(0, m);
            let arrivals = peers(&hops, |h| match *h {
                Hop::Recv {
                    from,
                    window: 1,
                    apply: Apply::FoldOwnLeft,
                    ..
                } => Some(from),
                _ => None,
            });
            let releases = peers(&hops, |h| match *h {
                Hop::Send { to, window: 2, .. } => Some(to),
                _ => None,
            });
            assert_eq!(arrivals, (1..m).collect::<Vec<_>>(), "m={m}");
            assert_eq!(releases, (1..m).collect::<Vec<_>>(), "m={m}");
            // The root owns its image between the two phases.
            assert_eq!(
                hops[m - 1],
                Hop::Own {
                    chunk: Chunk::WHOLE
                },
                "m={m}"
            );
            assert_eq!(hops.len(), 2 * (m - 1) + 1, "m={m}");
            for pos in 1..m {
                assert_eq!(
                    star(pos, m),
                    vec![send(0, 1), recv(0, 2, Apply::Install)],
                    "m={m} pos={pos}"
                );
            }
        }
    }
}
