//! Retired wire payloads, reused by the next send.
//!
//! A collective hop that has folded or installed a received payload
//! has no further use for its buffer, and the next hop's encode needs
//! one of the same kind and, in every collective here, the same size.
//! So each [`crate::Comm`] keeps the payloads it has consumed and
//! draws the buffers of the payloads it sends from them: the ring,
//! tree, broadcast and reduce hop lists send as many payloads as they
//! receive over a broadcast + reduce pair, so after one collective a
//! rank stops allocating wire buffers.
//!
//! A broadcast alone is not balanced per rank — its leaves receive
//! and never send, its root sends and never receives — and the master
//! broadcasts trial θ vectors it never gets back. The local pool is
//! therefore small, and what overflows it goes to one pool the whole
//! world shares, which a rank drains before it allocates. Ranks are
//! threads of one process, so that shared pool is the simulator's
//! stand-in for a transport that recycles its message buffers. Both
//! are bounded by entry count; a payload retired into a full world
//! pool is freed.
//!
//! Only the payload kinds of the `f32` data path are kept (`F32` and
//! its `F16`/`QI8` wire images); control words and `f64` metadata are
//! a few bytes.

use crate::message::Payload;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Payloads of one size class a rank keeps for itself before it
/// spills to the world.
const LOCAL_CAP: usize = 4;
/// World pool entries of one size class per rank.
const WORLD_CAP_PER_RANK: usize = 2;

/// The pool every rank of one world spills into.
pub(crate) type WorldPool = Arc<Mutex<Vec<Payload>>>;

/// One rank's pool of retired payloads (see the module docs).
#[derive(Debug, Default)]
pub struct PayloadPool {
    local: Vec<Payload>,
    /// `None` for a pool outside any world (a one-off encode).
    world: Option<WorldPool>,
    world_cap: usize,
    /// Bytes of payload capacity held locally.
    held_bytes: u64,
    high_water_bytes: u64,
}

/// The poolable kind of `p`, if it is one.
fn kind_of(p: &Payload) -> Option<Kind> {
    match p {
        Payload::F32(_) => Some(Kind::F32),
        Payload::F16(_) => Some(Kind::F16),
        Payload::QI8 { .. } => Some(Kind::QI8),
        _ => None,
    }
}

/// Entries of `pool` in the size class of `p`: its kind, and a
/// capacity within a factor of two of its own. A ring's chunks and a
/// tree's whole vectors are different classes, so one never crowds
/// the other out of a pool.
fn class_count(pool: &[Payload], p: &Payload) -> usize {
    let (kind, cap) = (kind_of(p), capacity(p).0);
    pool.iter()
        .filter(|q| kind_of(q) == kind)
        .filter(|q| {
            let c = capacity(q).0;
            c <= 2 * cap && cap <= 2 * c
        })
        .count()
}

/// Element capacity and bytes of buffer behind a poolable payload.
fn capacity(p: &Payload) -> (usize, u64) {
    let (elems, width) = match p {
        Payload::F32(v) => (v.capacity(), 4),
        Payload::F16(v) => (v.capacity(), 2),
        Payload::QI8 { q, .. } => (q.capacity(), 1),
        _ => (0, 0),
    };
    (elems, (elems * width) as u64)
}

fn capacity_bytes(p: &Payload) -> u64 {
    capacity(p).1
}

/// Whether `p` is of the wanted kind and in the size class of `len`
/// elements with room for them: a chunk never takes a whole vector's
/// buffer, which the next whole-vector send would then miss.
fn fits(p: &Payload, kind: Kind, len: usize) -> bool {
    let cap = capacity(p).0;
    kind_of(p) == Some(kind) && cap >= len && cap <= 2 * len.max(ROUND)
}

/// Fresh buffers are rounded up to a multiple of this many elements,
/// so the ragged chunks of one collective (lengths one apart) can take
/// each other's buffers.
const ROUND: usize = 256;

/// A fresh buffer's element capacity for `len` elements.
fn fresh_capacity(len: usize) -> usize {
    len.next_multiple_of(ROUND)
}

/// A poolable payload kind.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    F32,
    F16,
    QI8,
}

/// The world pool's entries. A rank that panicked while holding the
/// lock left the list itself intact (pushes and removals only), so a
/// poisoned lock is taken as it is.
fn lock(world: &WorldPool) -> MutexGuard<'_, Vec<Payload>> {
    world.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Index of the smallest entry of `pool` that fits.
fn best_fit(pool: &[Payload], kind: Kind, len: usize) -> Option<usize> {
    pool.iter()
        .enumerate()
        .filter(|(_, p)| fits(p, kind, len))
        .min_by_key(|(_, p)| capacity_bytes(p))
        .map(|(i, _)| i)
}

impl PayloadPool {
    /// The pool of one rank of a `size`-rank world spilling into
    /// `world`.
    pub(crate) fn in_world(world: WorldPool, size: usize) -> Self {
        PayloadPool {
            world: Some(world),
            world_cap: WORLD_CAP_PER_RANK * size,
            ..PayloadPool::default()
        }
    }

    /// Keep a consumed payload for a later send. Kinds outside the
    /// `f32` data path, and empty buffers, are dropped.
    pub(crate) fn retire(&mut self, p: Payload) {
        let bytes = capacity_bytes(&p);
        if bytes == 0 {
            return;
        }
        if class_count(&self.local, &p) < LOCAL_CAP {
            self.local.push(p);
            self.held_bytes += bytes;
            self.high_water_bytes = self.high_water_bytes.max(self.held_bytes);
            return;
        }
        if let Some(world) = &self.world {
            let mut world = lock(world);
            if class_count(&world, &p) < self.world_cap {
                world.push(p);
            }
        }
    }

    /// The smallest retired payload of `kind` with room for `len`
    /// elements, local first, then the world's.
    fn draw(&mut self, kind: Kind, len: usize) -> Option<Payload> {
        if let Some(i) = best_fit(&self.local, kind, len) {
            let p = self.local.swap_remove(i);
            self.held_bytes -= capacity_bytes(&p);
            return Some(p);
        }
        let mut world = lock(self.world.as_ref()?);
        best_fit(&world, kind, len).map(|i| world.swap_remove(i))
    }

    /// An empty `f32` buffer with room for `len` elements.
    pub(crate) fn f32_vec(&mut self, len: usize) -> Vec<f32> {
        match self.draw(Kind::F32, len) {
            Some(Payload::F32(mut v)) => {
                v.clear();
                v
            }
            _ => Vec::with_capacity(fresh_capacity(len)),
        }
    }

    /// A `len`-element binary16 buffer with unspecified contents.
    pub(crate) fn f16_vec(&mut self, len: usize) -> Vec<u16> {
        let mut v = match self.draw(Kind::F16, len) {
            Some(Payload::F16(v)) => v,
            _ => Vec::with_capacity(fresh_capacity(len)),
        };
        v.resize(len, 0);
        v
    }

    /// A `len`-element int8 buffer with unspecified contents.
    pub(crate) fn i8_vec(&mut self, len: usize) -> Vec<i8> {
        let mut v = match self.draw(Kind::QI8, len) {
            Some(Payload::QI8 { q, .. }) => q,
            _ => Vec::with_capacity(fresh_capacity(len)),
        };
        v.resize(len, 0);
        v
    }

    /// A copy of `p` in a pooled buffer (the fan-out of one wire image
    /// to several children).
    pub(crate) fn copy_of(&mut self, p: &Payload) -> Payload {
        match p {
            Payload::F32(v) => {
                let mut out = self.f32_vec(v.len());
                out.extend_from_slice(v);
                Payload::F32(out)
            }
            Payload::F16(h) => {
                let mut out = self.f16_vec(h.len());
                out.copy_from_slice(h);
                Payload::F16(out)
            }
            Payload::QI8 { scale, q } => {
                let mut out = self.i8_vec(q.len());
                out.copy_from_slice(q);
                Payload::QI8 {
                    scale: *scale,
                    q: out,
                }
            }
            other => other.clone(),
        }
    }

    /// Largest number of payload bytes this rank's own pool has held
    /// at once (the world pool is shared, so it counts for no rank).
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }

    /// Payloads held in this rank's own pool, over all size classes
    /// (at most four of each).
    pub fn len(&self) -> usize {
        self.local.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_reuse_the_smallest_fitting_payload_of_the_kind() {
        let mut pool = PayloadPool::default();
        pool.retire(Payload::F32(Vec::with_capacity(100)));
        pool.retire(Payload::F32(Vec::with_capacity(10)));
        pool.retire(Payload::F16(Vec::with_capacity(50)));
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.high_water_bytes(), 400 + 40 + 100);
        let v = pool.f32_vec(8);
        assert_eq!((v.len(), v.capacity()), (0, 10));
        assert_eq!(pool.f16_vec(50).len(), 50);
        // Nothing of the kind fits: a fresh buffer, the pool untouched.
        assert_eq!(pool.i8_vec(5).len(), 5);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn overflow_spills_to_the_world_and_other_ranks_draw_it() {
        let world = WorldPool::default();
        let mut leaf = PayloadPool::in_world(world.clone(), 2);
        let mut root = PayloadPool::in_world(world.clone(), 2);
        for _ in 0..LOCAL_CAP + 2 * WORLD_CAP_PER_RANK + 3 {
            leaf.retire(Payload::QI8 {
                scale: 1.0,
                q: vec![1; 64],
            });
        }
        assert_eq!(leaf.len(), LOCAL_CAP);
        let spilled = lock(&world).len();
        assert_eq!(spilled, 2 * WORLD_CAP_PER_RANK, "the world pool is bounded");
        let q = root.i8_vec(64);
        assert_eq!(q.capacity(), 64, "drawn from the world, not allocated");
        assert_eq!(root.high_water_bytes(), 0);
        // Control and metadata payloads are not kept.
        root.retire(Payload::U64(vec![1, 2]));
        root.retire(Payload::F32(Vec::new()));
        assert!(root.local.is_empty());
    }
}
