//! Collective operations built on point-to-point messaging.
//!
//! The paper replaced socket/file weight synchronization with
//! `MPI_Bcast` specifically "to take advantage of the optimized MPI
//! collectives" (Section V.B). We run the textbook algorithms MPICH
//! uses at these message sizes — binomial broadcast and reduce,
//! recursive-doubling allreduce, dissemination barrier — plus the
//! masterless ring and tree allreduces, and under a non-empty fault
//! plan the flat stars, where one death never severs an unrelated
//! rank's subtree and every receive is bounded.
//!
//! None of these shapes is coded here: [`crate::schedule`] holds each
//! as per-position hop lists, one interpreter (`exchange`) runs them,
//! and `pdnn-protomc` model-checks the same lists. Each public entry
//! only picks a shape and a participant list with the root at
//! position 0.
//!
//! Every collective invocation draws a fresh tag window from the
//! communicator's sequence counter, so back-to-back collectives can
//! never cross-match even with `Src::Any` receives in user code.
//!
//! A hop allocates no wire buffer in steady state: the interpreter
//! builds every payload it sends (an encoded chunk, or a fan-out copy
//! of a wire image) in a buffer drawn from the rank's payload pool
//! (`crate::pool`), and returns every payload it has consumed — folded,
//! installed and not forwarded, or discarded — to that pool. The wire
//! format, the hop order and the reduction order are those of the
//! schedules; only where the bytes live changes.

use crate::comm::{Comm, CommError, COLLECTIVE_TAG_BASE};
use crate::events::CommEvent;
use crate::message::{Payload, Src};
use crate::pool::PayloadPool;
use crate::schedule::{self, Apply, Chunk, Hop, Schedule};
use crate::wire::{self, WireCodec};
use pdnn_obs::{Recorder, RecorderExt, SpanKind};
use std::time::Duration;

/// Element type usable in typed collectives.
pub trait CollElem: Copy + Default + Send + 'static {
    /// The payload kind name this element maps to (for diagnostics).
    const KIND: &'static str;
    /// Wrap a vector into a payload.
    fn wrap(v: Vec<Self>) -> Payload;
    /// Checked unwrap: `Err` returns the payload untouched on a kind
    /// mismatch so the caller can report what actually arrived.
    fn unwrap_checked(p: Payload) -> Result<Vec<Self>, Payload>;
    /// Borrow the payload's elements when it carries exactly this
    /// type (no wire decode, no copy).
    fn try_slice(p: &Payload) -> Option<&[Self]>;
    /// Combine `b` into `a` under `op`.
    fn combine(op: ReduceOp, a: &mut [Self], b: &[Self]);
    /// Fold `incoming` into `own` in place with `incoming` as the
    /// *left* operand — bitwise identical to combining `own` into a
    /// copy of `incoming` and writing the copy back, without the
    /// allocation. The ring reduce-scatter hot loop runs on this.
    fn fold_into(op: ReduceOp, incoming: &[Self], own: &mut [Self]);
    /// The payload `v` travels as under `codec`: only `f32` narrows to
    /// a wire image, built in a buffer drawn from `pool`; every other
    /// type travels as a plain copy.
    fn encode(_codec: WireCodec, v: &[Self], _pool: &mut PayloadPool) -> Payload {
        Self::wrap(v.to_vec())
    }
    /// Decode elements `start .. start + out.len()` of the wire image
    /// `p` into `out`; `false`, leaving `out` untouched, when `p` is not
    /// a wire image of this type.
    fn decode_into(_p: &Payload, _start: usize, _out: &mut [Self]) -> bool {
        false
    }
}

/// Reduction operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Elementwise bitwise OR of the elements' bit patterns (the
    /// membership round's dead-set bitmaps).
    BitOr,
}

macro_rules! impl_coll_elem {
    ($t:ty, $variant:ident, $bits:path, $from_bits:path; $($wire:tt)*) => {
        impl CollElem for $t {
            $($wire)*
            const KIND: &'static str = stringify!($variant);
            fn wrap(v: Vec<Self>) -> Payload {
                Payload::$variant(v)
            }
            fn unwrap_checked(p: Payload) -> Result<Vec<Self>, Payload> {
                match p {
                    Payload::$variant(v) => Ok(v),
                    other => Err(other),
                }
            }
            fn try_slice(p: &Payload) -> Option<&[Self]> {
                match p {
                    Payload::$variant(v) => Some(v),
                    _ => None,
                }
            }
            fn combine(op: ReduceOp, a: &mut [Self], b: &[Self]) {
                assert_eq!(a.len(), b.len(), "collective length mismatch across ranks");
                match op {
                    ReduceOp::Sum => {
                        for (x, &y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                    }
                    ReduceOp::Max => {
                        for (x, &y) in a.iter_mut().zip(b) {
                            if y > *x {
                                *x = y;
                            }
                        }
                    }
                    ReduceOp::Min => {
                        for (x, &y) in a.iter_mut().zip(b) {
                            if y < *x {
                                *x = y;
                            }
                        }
                    }
                    ReduceOp::BitOr => {
                        for (x, &y) in a.iter_mut().zip(b) {
                            *x = $from_bits($bits(*x) | $bits(y));
                        }
                    }
                }
            }
            fn fold_into(op: ReduceOp, incoming: &[Self], own: &mut [Self]) {
                assert_eq!(
                    incoming.len(),
                    own.len(),
                    "collective length mismatch across ranks"
                );
                match op {
                    ReduceOp::Sum => {
                        for (y, &x) in own.iter_mut().zip(incoming) {
                            *y += x;
                        }
                    }
                    // `combine` keeps the incoming (left) element
                    // unless `own` compares strictly greater/less;
                    // the `partial_cmp` match reproduces that exactly,
                    // NaN handling included.
                    ReduceOp::Max => {
                        for (y, &x) in own.iter_mut().zip(incoming) {
                            match (*y).partial_cmp(&x) {
                                Some(core::cmp::Ordering::Greater) => {}
                                _ => *y = x,
                            }
                        }
                    }
                    ReduceOp::Min => {
                        for (y, &x) in own.iter_mut().zip(incoming) {
                            match (*y).partial_cmp(&x) {
                                Some(core::cmp::Ordering::Less) => {}
                                _ => *y = x,
                            }
                        }
                    }
                    // OR commutes: the operand order cannot show.
                    ReduceOp::BitOr => Self::combine(op, own, incoming),
                }
            }
        }
    };
}

impl_coll_elem!(f32, F32, f32::to_bits, f32::from_bits;
    fn encode(codec: WireCodec, v: &[f32], pool: &mut PayloadPool) -> Payload {
        wire::encode_f32_in(codec, v, pool)
    }
    fn decode_into(p: &Payload, start: usize, out: &mut [f32]) -> bool {
        wire::decode_into(p, start, out)
    }
);
impl_coll_elem!(f64, F64, f64::to_bits, f64::from_bits;);
impl_coll_elem!(u64, U64, u64::from, u64::from;);

/// The barrier's element: a collective over `()` moves
/// [`Payload::Empty`] messages and combines nothing.
impl CollElem for () {
    const KIND: &'static str = "Empty";
    fn wrap(_: Vec<()>) -> Payload {
        Payload::Empty
    }
    fn unwrap_checked(p: Payload) -> Result<Vec<()>, Payload> {
        match p {
            Payload::Empty => Ok(Vec::new()),
            other => Err(other),
        }
    }
    fn try_slice(p: &Payload) -> Option<&[()]> {
        matches!(p, Payload::Empty).then_some(&[])
    }
    fn combine(_: ReduceOp, _: &mut [()], _: &[()]) {}
    fn fold_into(_: ReduceOp, _: &[()], _: &mut [()]) {}
}

/// A collective's buffer as the interpreter sees it: its elements, and
/// the elements a whole-buffer install overwrites, which may change a
/// vector's length (a broadcast's non-roots may start empty).
trait Buffer<T> {
    fn elems(&mut self) -> &mut [T];
    fn resized(&mut self, len: usize) -> &mut [T];
}

impl<T: Copy> Buffer<T> for [T] {
    fn elems(&mut self) -> &mut [T] {
        self
    }
    fn resized(&mut self, len: usize) -> &mut [T] {
        assert_eq!(self.len(), len, "collective length mismatch across ranks");
        self
    }
}

impl<T: Copy + Default> Buffer<T> for Vec<T> {
    fn elems(&mut self) -> &mut [T] {
        self
    }
    fn resized(&mut self, len: usize) -> &mut [T] {
        self.resize(len, T::default());
        self
    }
}

/// Per-collective wire-byte counter names, sent then received
/// (recorder counters take `&'static str`, so the mapping is a closed
/// table).
fn wire_counters(name: &'static str) -> [&'static str; 2] {
    match name {
        "bcast" => ["wire_sent_bcast", "wire_recv_bcast"],
        "reduce" => ["wire_sent_reduce", "wire_recv_reduce"],
        "barrier" => ["wire_sent_barrier", "wire_recv_barrier"],
        "allreduce" => ["wire_sent_allreduce", "wire_recv_allreduce"],
        "allreduce_ring" => ["wire_sent_allreduce_ring", "wire_recv_allreduce_ring"],
        "allreduce_tree" => ["wire_sent_allreduce_tree", "wire_recv_allreduce_tree"],
        "reduce_scatter" => ["wire_sent_reduce_scatter", "wire_recv_reduce_scatter"],
        "allgather" => ["wire_sent_allgather", "wire_recv_allgather"],
        _ => ["wire_sent_other", "wire_recv_other"],
    }
}

/// First element of a `u64` buffer — a header broadcast's command
/// opcode, which its [`CommEvent::Coll`] carries so the conformance
/// replay can dispatch on it — else `None`.
fn first_u64<T: CollElem>(buf: &[T]) -> Option<u64> {
    let first = *buf.first()?;
    match T::wrap(vec![first]) {
        Payload::U64(v) => v.first().copied(),
        _ => None,
    }
}

/// World sizes at or below this always run the chunked ring — the
/// worlds the byte-ratio gates and the protomc ring model are pinned
/// to.
const RING_LATENCY_WORLD: usize = 8;

/// Minimum per-chunk element count for the chunked ring to be worth
/// its `2·(P−1)` sequential hops on larger worlds.
const RING_CHUNK_FLOOR: usize = 128;

/// MPICH-style size-dependent algorithm selection for
/// [`Comm::allreduce_ring`]: the chunked ring is bandwidth-optimal,
/// but its critical path is `2·(P−1)` sequential hops, which
/// dominates wall time once per-chunk payloads get small. Large
/// worlds with sub-floor chunks run the binomial tree shape
/// (`2·⌈log₂ P⌉` hops) inside the same collective instead.
fn use_tree_shape(m: usize, n: usize) -> bool {
    m > RING_LATENCY_WORLD && n < RING_CHUNK_FLOOR * m
}

/// A rooted collective: its name, its fault-free shape, and the timed
/// star it runs under a non-empty fault plan.
type Rooted = (&'static str, Schedule, Schedule);
const BCAST: Rooted = ("bcast", schedule::binomial_bcast, schedule::fan_out);
const REDUCE: Rooted = ("reduce", schedule::binomial_reduce, schedule::fan_in);
const BARRIER: Rooted = ("barrier", schedule::dissemination, schedule::star);

/// Participants of a collective rooted at `root`: the root, then every
/// other rank whose death has not been *acknowledged*, in rotation
/// order `root + 1, …, root − 1`. Unacknowledged deaths stay in the
/// topology: every survivor keys the shape on the same acknowledged
/// set, so re-stitching happens only through the recovery driver's
/// membership round, never from raced death observations.
fn participants(comm: &Comm, root: usize) -> Vec<usize> {
    let size = comm.size();
    (0..size)
        .map(|k| (root + k) % size)
        .filter(|&r| r == root || !comm.is_acked(r))
        .collect()
}

/// The lowest rank not acknowledged dead: position 0 of the masterless
/// collectives and the root of the barrier.
fn lowest_live(comm: &Comm) -> usize {
    (0..comm.size()).find(|&r| !comm.is_acked(r)).unwrap_or(0)
}

/// Whether `payload` carries `T`, as itself or as a wire image of it;
/// else the kind mismatch, reported with the on-wire kind.
fn readable<T: CollElem>(payload: &Payload, src: usize, tag: u64) -> Result<(), CommError> {
    if T::try_slice(payload).is_some() || T::decode_into(payload, 0, &mut []) {
        Ok(())
    } else {
        Err(CommError::TypeMismatch {
            src,
            tag,
            expected: T::KIND,
            got: payload.kind(),
        })
    }
}

/// Install a received wire image as `chunk` of `buf` straight from the
/// borrow: a payload carrying `T` is copied, a wire image decoded in
/// place. The whole chunk replaces the buffer. A kind mismatch leaves
/// `buf` untouched.
fn install<T: CollElem, B: Buffer<T> + ?Sized>(
    payload: &Payload,
    buf: &mut B,
    chunk: Chunk,
    src: usize,
    tag: u64,
) -> Result<(), CommError> {
    readable::<T>(payload, src, tag)?;
    let dst = if chunk == Chunk::WHOLE {
        buf.resized(payload.elems())
    } else {
        let elems = buf.elems();
        let range = chunk.range(elems.len());
        &mut elems[range]
    };
    match T::try_slice(payload) {
        Some(image) => dst.copy_from_slice(image),
        None => {
            T::decode_into(payload, 0, dst);
        }
    }
    Ok(())
}

/// Elements of a wire image decoded onto the stack per fold step.
const FOLD_BLOCK: usize = 256;

/// Fold a received partial into `own` under `op`, in the operand order
/// `apply` names, straight from the borrow: a wire image is decoded a
/// block at a time onto the stack, so the fold allocates nothing and
/// its bits equal folding the whole decoded vector.
fn fold<T: CollElem>(
    op: ReduceOp,
    apply: Apply,
    payload: &Payload,
    own: &mut [T],
    src: usize,
    tag: u64,
) -> Result<(), CommError> {
    let step = |incoming: &[T], own: &mut [T]| match apply {
        Apply::FoldIncomingLeft => T::fold_into(op, incoming, own),
        _ => T::combine(op, own, incoming),
    };
    if let Some(incoming) = T::try_slice(payload) {
        step(incoming, own);
        return Ok(());
    }
    readable::<T>(payload, src, tag)?;
    assert_eq!(
        payload.elems(),
        own.len(),
        "collective length mismatch across ranks"
    );
    let mut block = [T::default(); FOLD_BLOCK];
    for (k, own) in own.chunks_mut(FOLD_BLOCK).enumerate() {
        let incoming = &mut block[..own.len()];
        T::decode_into(payload, k * FOLD_BLOCK, incoming);
        step(incoming, own);
    }
    Ok(())
}

/// What a failed receive (or a payload that cannot be applied) does to
/// a walk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OnFail {
    /// Abort with the error as it is: the fault-free rooted collectives.
    Abort,
    /// Abort with the death the recovery round must evict
    /// ([`Comm::hop_failure`]): the symmetric allreduces, whose event is
    /// recorded even for an aborted walk.
    Attribute,
    /// The timed star. Its root drains every arrival: it keeps the
    /// first failure, evicts a member that went silent and skips later
    /// sends to a member whose receive failed. Any other member aborts
    /// with the error as it is.
    RootDrains,
}

/// Interpret one position's hop list from `schedule` over `parts`, the
/// participating ranks: position `q` is rank `parts[q]`, so a
/// re-stitched or re-rooted collective is exactly the textbook one
/// over `m = parts.len()` members.
///
/// Window-1 sends encode the chunk under `codec` straight from `buf`,
/// and window-1 receives fold the payload in the operand order the hop
/// names; window-2 sends forward the wire image last owned or received,
/// moved on its last send, so every rank installs identical bytes for
/// every chunk. Every encode and fan-out copy draws its buffer from the
/// rank's payload pool, and every payload the walk is done with —
/// folded, installed and not forwarded, or discarded — goes back to
/// it. With `timeout` set every receive is bounded, and
/// `on_fail` says what a failed one does. Returns the failure a
/// draining root kept (`Ok(None)` when the walk was clean), or `Err`
/// for an aborted walk.
#[allow(clippy::too_many_arguments)]
fn exchange<T: CollElem, B: Buffer<T> + ?Sized>(
    comm: &mut Comm,
    buf: &mut B,
    op: ReduceOp,
    tag: u64,
    parts: &[usize],
    schedule: Schedule,
    timeout: Option<Duration>,
    on_fail: OnFail,
    codec: WireCodec,
) -> Result<Option<CommError>, CommError> {
    let Some(p) = parts.iter().position(|&r| r == comm.rank()) else {
        // A rank acknowledged as dead must not re-enter the topology;
        // its own fate check surfaces the eviction.
        return Err(CommError::RankDead { rank: comm.rank() });
    };
    let hops = schedule(p, parts.len());
    let drains = on_fail == OnFail::RootDrains && p == 0;
    let mut image = Payload::Empty;
    let mut first_err = None;
    let mut failed = Vec::new();
    for (i, hop) in hops.iter().enumerate() {
        match *hop {
            Hop::Send { to, window, chunk } => {
                if failed.contains(&to) {
                    continue;
                }
                // A window-2 send forwards the image last owned or
                // received; a walk that opens on one (the allgather) has
                // none yet and encodes its chunk from the buffer.
                let payload = if window != 2 || matches!(image, Payload::Empty) {
                    let elems = buf.elems();
                    T::encode(codec, &elems[chunk.range(elems.len())], &mut comm.pool)
                } else if matches!(hops.get(i + 1), Some(Hop::Send { window: 2, .. })) {
                    // A fan-out: later children get the same image.
                    comm.pool.copy_of(&image)
                } else {
                    std::mem::replace(&mut image, Payload::Empty)
                };
                let t = tag + u64::from(window);
                comm.send(parts[to], t, payload)?;
            }
            Hop::Recv {
                from,
                window,
                chunk,
                apply,
            } => {
                let t = tag + u64::from(window);
                let src = parts[from];
                let got = match timeout {
                    None => comm.recv(Src::Of(src), t),
                    Some(d) => comm.recv_timeout(Src::Of(src), t, d),
                };
                let pool = &mut comm.pool;
                let applied = got.and_then(|pkt| {
                    let elems = buf.elems();
                    let range = chunk.range(elems.len());
                    let own = &mut elems[range];
                    match apply {
                        Apply::FoldIncomingLeft | Apply::FoldOwnLeft => {
                            fold(op, apply, &pkt.payload, own, pkt.src, t)?;
                            pool.retire(pkt.payload);
                        }
                        Apply::Install => {
                            install(&pkt.payload, buf, chunk, pkt.src, t)?;
                            pool.retire(std::mem::replace(&mut image, pkt.payload));
                        }
                        Apply::Discard => pool.retire(pkt.payload),
                    }
                    Ok(())
                });
                match applied {
                    Ok(()) => {}
                    Err(e) if drains => {
                        failed.push(from);
                        let e = if e == CommError::Timeout {
                            comm.evict(src);
                            CommError::RankDead { rank: src }
                        } else {
                            e
                        };
                        first_err.get_or_insert(e);
                    }
                    Err(e) if on_fail == OnFail::Attribute => return Err(comm.hop_failure(src, e)),
                    Err(e) => return Err(e),
                }
            }
            Hop::Own { chunk } => {
                // The owner keeps what its receivers will decode.
                let elems = buf.elems();
                let range = chunk.range(elems.len());
                let own = T::encode(codec, &elems[range.clone()], &mut comm.pool);
                comm.pool.retire(std::mem::replace(&mut image, own));
                T::decode_into(&image, 0, &mut elems[range]);
            }
        }
    }
    comm.pool.retire(image);
    Ok(first_err)
}

impl Comm {
    /// Broadcast `buf` from `root` to all ranks; on non-roots it is
    /// replaced by the root's data (it may change length).
    ///
    /// Fault-free this is the binomial tree
    /// (`schedule::binomial_bcast`); under a non-empty fault plan, the
    /// flat fan-out ([`schedule::fan_out`]) to every rank not
    /// acknowledged dead, where non-roots give up with
    /// [`CommError::Timeout`] after the plan's worker window, or
    /// [`CommError::RankDead`] once the root is known dead. Either way
    /// the root encodes the buffer once and every rank — root included
    /// — installs that wire image, so buffers end bit-identical even
    /// under a lossy codec.
    pub fn bcast<T: CollElem>(&mut self, buf: &mut Vec<T>, root: usize) -> Result<(), CommError> {
        assert!(root < self.size(), "bcast: root out of range");
        self.rooted(BCAST, buf, ReduceOp::Sum, root)
    }

    /// Reduce `buf` elementwise under `op` to `root`.
    ///
    /// After the call `buf` on the root holds the reduction; on other
    /// ranks it holds intermediate partial sums (treat as garbage).
    /// Participants are the root, then the other ranks not
    /// acknowledged dead in rotation order `root + 1, …, root − 1`, and
    /// the shape fixes the combine order over those positions:
    ///
    /// * fault-free, the binomial tree (`schedule::binomial_reduce`):
    ///   each position folds its children in ascending mask order, its
    ///   own operand on the left;
    /// * under a non-empty fault plan, the flat fan-in
    ///   ([`schedule::fan_in`]): the root folds the contributions
    ///   left-deep in participant order,
    ///   `((x_root ⊕ x_root+1) ⊕ …) ⊕ x_root−1`. It *drains* every live
    ///   contribution even after a failure (so the tag window closes
    ///   cleanly and survivors stay in lockstep), evicts a contributor
    ///   that missed its window without a death notice, and reports the
    ///   first failure as [`CommError::RankDead`].
    ///
    /// Both orders are bitwise deterministic for a given membership.
    pub fn reduce<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
        root: usize,
    ) -> Result<(), CommError> {
        assert!(root < self.size(), "reduce: root out of range");
        self.rooted(REDUCE, buf, op, root)
    }

    /// Dissemination barrier ([`schedule::dissemination`]). Under a
    /// non-empty fault plan, the star ([`schedule::star`]) rooted at
    /// the lowest rank not acknowledged dead — rank 0 in master mode,
    /// the surviving coordinator in a re-stitched masterless world —
    /// which collects an arrival from every member (evicting any that
    /// miss the window), releases them, and reports the first failure
    /// as [`CommError::RankDead`].
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let none: &mut [()] = &mut [];
        self.rooted(BARRIER, none, ReduceOp::Sum, lowest_live(self))
    }

    /// The entry body shared by the rooted collectives: the fault-free
    /// shape, or under a non-empty fault plan (after its gate) the timed
    /// star, the root's receives bounded by the plan's detect window and
    /// every other member's by its worker window.
    fn rooted<T: CollElem, B: Buffer<T> + ?Sized>(
        &mut self,
        (name, fault_free, timed): Rooted,
        buf: &mut B,
        op: ReduceOp,
        root: usize,
    ) -> Result<(), CommError> {
        let timeout = if self.ft() {
            self.fault_gate()?;
            Some(self.ft_timeout_for_root(root))
        } else {
            None
        };
        if self.size() == 1 {
            return Ok(());
        }
        let parts = participants(self, root);
        let (schedule, on_fail) = match timeout {
            None => (fault_free, OnFail::Abort),
            Some(_) => (timed, OnFail::RootDrains),
        };
        self.collective(name, buf, op, &parts, schedule, timeout, on_fail)
    }

    /// Allreduce: every rank ends with the full reduction.
    ///
    /// Recursive doubling (`schedule::recursive_doubling`) when the
    /// ranks not acknowledged dead number a power of two (the BG/Q
    /// partition sizes 1024/2048/4096/8192 all are): partners exchange
    /// whole buffers and fold with the lower rank's operand on the
    /// left, so every rank computes identical bits (uncompressed: a
    /// lossy codec would give partners different views of each other).
    /// Otherwise reduce to rank 0, then broadcast. Under a non-empty
    /// fault plan recursive doubling is gated and its hops are bounded
    /// by the plan's peer window, like [`Comm::allreduce_ring`]; the
    /// decomposition inherits the rooted collectives' timed stars.
    pub fn allreduce<T: CollElem>(
        &mut self,
        buf: &mut Vec<T>,
        op: ReduceOp,
    ) -> Result<(), CommError> {
        if self.size() == 1 {
            return Ok(());
        }
        let members = participants(self, lowest_live(self)).len();
        if members.is_power_of_two() {
            self.allreduce_masterless("allreduce", buf, op, |_| schedule::recursive_doubling)
        } else {
            self.reduce(buf, op, 0)?;
            self.bcast(buf, 0)
        }
    }

    /// Allreduce via a bandwidth-optimal ring ([`schedule::ring`]):
    /// chunked reduce-scatter followed by a ring allgather.
    ///
    /// Each rank moves `2·(P−1)/P · n` elements total and — unlike
    /// the rooted reduce + bcast decomposition — no rank ever
    /// rendezvouses at rank 0: every rank talks only to its ring
    /// neighbours `(rank ± 1) mod P`. Works for any world size and
    /// any vector length (short vectors simply leave some chunks
    /// empty). Large worlds with sub-floor chunks run the tree shape
    /// inside the same collective instead (`use_tree_shape`).
    ///
    /// Determinism: chunk `c` is folded in ring order starting at
    /// rank `c` — `((x_c ⊕ x_{c+1}) ⊕ x_{c+2}) ⊕ …` — a fixed
    /// left-deep association independent of arrival order, so results
    /// are bitwise identical across ranks and across runs. (The
    /// association differs from the binomial-tree order of
    /// [`Comm::reduce`]; see [`Comm::allreduce_tree`] for the variant
    /// that reproduces the flat reduce + bcast bits exactly.)
    ///
    /// Codec-armed: under a lossy wire codec the fully reduced chunk
    /// is encoded once by its owner and forwarded around the ring as
    /// an opaque wire image, so all ranks still end bit-identical.
    ///
    /// Fault-tolerant under a non-empty fault plan: a dead neighbour
    /// surfaces as [`CommError::RankDead`] naming the lowest
    /// unacknowledged dead rank — the one the recovery round will
    /// evict. The ring runs over the *acknowledged-live* membership, so
    /// after that round the same entry point is the re-stitched ring.
    /// Starvation is structural: every rank downstream of a death
    /// starves within the same invocation, so all survivors abort the
    /// *same* collective and re-enter recovery in lockstep.
    pub fn allreduce_ring<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        let n = buf.len();
        self.allreduce_masterless("allreduce_ring", buf, op, |m| {
            if use_tree_shape(m, n) {
                schedule::tree
            } else {
                schedule::ring
            }
        })
    }

    /// Allreduce via a binomial tree ([`schedule::tree`]): reduce to
    /// rank 0 and broadcast back, inside one collective invocation.
    ///
    /// Reuses the exact tree shape and combine order of
    /// [`Comm::reduce`] with root 0 followed by [`Comm::bcast`], so
    /// the result is bitwise identical to that flat decomposition.
    /// Latency is `2·⌈log₂ P⌉` hops with the full vector per hop;
    /// prefer [`Comm::allreduce_ring`] for bandwidth-bound sizes.
    ///
    /// Codec-armed: rank 0 encodes the reduced vector once and the
    /// broadcast phase forwards the wire image untouched, so all
    /// ranks end bit-identical even under a lossy codec.
    ///
    /// Fault-tolerant under a non-empty fault plan exactly like
    /// [`Comm::allreduce_ring`]: the tree is re-parented over the
    /// acknowledged-live membership.
    pub fn allreduce_tree<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        self.allreduce_masterless("allreduce_tree", buf, op, |_| schedule::tree)
    }

    /// The reduce-scatter half of [`Comm::allreduce_ring`]
    /// ([`schedule::ring_reduce_scatter`]): afterwards this rank's
    /// [`Comm::ring_slice`] of `buf` holds the full reduction, with the
    /// ring's codec and fold order, bit for bit what
    /// [`Comm::allreduce_ring`] leaves there on a world of at most
    /// eight ranks or with chunks of at least 128 elements; the rest of
    /// `buf` holds partial sums (treat as garbage). Under a lossy codec
    /// the owned slice holds the decoded image its owner would
    /// broadcast. Gated and re-stitched over the acknowledged-live
    /// membership like [`Comm::allreduce_ring`], but always the
    /// chunked ring, whatever the world size: where
    /// [`Comm::allreduce_ring`] falls back to the tree's `2⌈log2 P⌉`
    /// rounds (above eight ranks, chunks under 128 elements), a
    /// reduce-scatter plus [`Comm::allgather`] still takes `2(P−1)`
    /// sequential hops. That latency is unmeasured above two ranks.
    pub fn reduce_scatter<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        self.allreduce_masterless("reduce_scatter", buf, op, |_| schedule::ring_reduce_scatter)
    }

    /// The allgather half of [`Comm::allreduce_ring`]
    /// ([`schedule::ring_allgather`]): every rank contributes its
    /// [`Comm::ring_slice`] of `buf` and ends with every rank's slice in
    /// place. Codec-free: the slices travel as the senders' raw
    /// elements under every wire codec, so a gathered `f32` vector is
    /// exactly its owners' bits. Gated and re-stitched like
    /// [`Comm::reduce_scatter`].
    pub fn allgather<T: CollElem>(&mut self, buf: &mut [T]) -> Result<(), CommError> {
        self.allreduce_masterless("allgather", buf, ReduceOp::Sum, |_| {
            schedule::ring_allgather
        })
    }

    /// The elements of an `n`-element buffer this rank owns in
    /// [`Comm::reduce_scatter`] and contributes to [`Comm::allgather`]:
    /// at position `q` of the acknowledged-live membership, ring chunk
    /// `(q + 1) mod m`. The whole buffer on a one-member world; empty on a
    /// rank acknowledged dead.
    pub fn ring_slice(&self, n: usize) -> std::ops::Range<usize> {
        let parts = participants(self, lowest_live(self));
        match parts.iter().position(|&r| r == self.rank()) {
            Some(pos) => schedule::ring_owned(pos, parts.len()).range(n),
            None => 0..0,
        }
    }

    /// The entry body shared by the symmetric allreduces: run the
    /// schedule `pick` chooses for the participant count over the
    /// acknowledged-live ranks in rank order. Hops are unbounded
    /// fault-free and bounded by the plan's peer window when a
    /// non-empty fault plan is armed — there is no asymmetric root to
    /// out-wait, and the membership-agreement round re-synchronizes
    /// the survivors after a failure.
    fn allreduce_masterless<T: CollElem, B: Buffer<T> + ?Sized>(
        &mut self,
        name: &'static str,
        buf: &mut B,
        op: ReduceOp,
        pick: impl FnOnce(usize) -> Schedule,
    ) -> Result<(), CommError> {
        let timeout = if self.ft() {
            self.fault_gate()?;
            Some(self.ft_timeout_peer())
        } else if self.size() == 1 {
            return Ok(());
        } else {
            None
        };
        let parts = participants(self, lowest_live(self));
        let schedule = pick(parts.len());
        self.collective(name, buf, op, &parts, schedule, timeout, OnFail::Attribute)
    }

    /// Run `schedule` over `parts` as point-to-point traffic on the user
    /// tags `tag + window`: no collective tag window, span, wire counter
    /// or [`CommEvent::Coll`] — every hop is recorded as the p2p send or
    /// receive it is, and no fault-plan gate runs. Receives are bounded
    /// by [`Comm::p2p_timeout`]. Position 0 drains like a timed star's
    /// root: it evicts a member that stays silent past the window and
    /// reports the first failure ([`CommError::RankDead`] for a dead or
    /// evicted member) after the walk; any other position stops at its
    /// first failure. The masterless membership round runs on this.
    pub fn p2p_schedule<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
        tag: u64,
        parts: &[usize],
        schedule: Schedule,
    ) -> Result<(), CommError> {
        let (timeout, on_fail) = (Some(self.p2p_timeout()), OnFail::RootDrains);
        let codec = WireCodec::None;
        let walked = exchange(self, buf, op, tag, parts, schedule, timeout, on_fail, codec);
        walked?.map_or(Ok(()), Err)
    }

    /// Run one collective invocation: claim a fresh tag window, walk
    /// `schedule` over `parts` with the codec armed (except for the
    /// barrier and recursive doubling), and record a `CommCollective`
    /// span, the `wire_sent_<op>` / `wire_recv_<op>` counters and one
    /// [`CommEvent::Coll`] rooted at `parts[0]`. The event is recorded
    /// once the walk completes — a draining root's included, `ok`
    /// carrying its verdict — and, for the symmetric allreduces, after
    /// an aborted walk too.
    #[allow(clippy::too_many_arguments)]
    fn collective<T: CollElem, B: Buffer<T> + ?Sized>(
        &mut self,
        name: &'static str,
        buf: &mut B,
        op: ReduceOp,
        parts: &[usize],
        schedule: Schedule,
        timeout: Option<Duration>,
        on_fail: OnFail,
    ) -> Result<(), CommError> {
        let recorder = self.recorder().clone();
        let _span = recorder.span(name, SpanKind::CommCollective);
        let tag = COLLECTIVE_TAG_BASE + self.coll_seq * 8;
        self.coll_seq += 1;
        let was = std::mem::replace(&mut self.in_collective, true);
        let codec = match name {
            "barrier" | "allreduce" | "allgather" => WireCodec::None,
            _ => self.wire_codec(),
        };
        let before = self.trace.collective;
        let walked = exchange(self, buf, op, tag, parts, schedule, timeout, on_fail, codec);
        let (completed, result) = match walked {
            Ok(first_err) => (true, first_err.map_or(Ok(()), Err)),
            Err(e) => (false, Err(e)),
        };
        if completed || on_fail == OnFail::Attribute {
            let elems = buf.elems();
            self.push_event(CommEvent::Coll {
                op: name,
                root: parts[0],
                kind: T::KIND,
                len: elems.len(),
                first: first_u64(elems).filter(|_| name == "bcast"),
                ok: result.is_ok(),
            });
            self.trace.on_collective_done();
        }
        let after = self.trace.collective;
        let moved = [
            after.bytes_sent - before.bytes_sent,
            after.bytes_received - before.bytes_received,
        ];
        for (counter, bytes) in wire_counters(name).into_iter().zip(moved) {
            if bytes > 0 {
                recorder.counter_add(counter, bytes);
            }
        }
        self.in_collective = was;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_world;

    #[test]
    fn bcast_from_every_root() {
        for size in [1usize, 2, 3, 4, 5, 8] {
            for root in 0..size {
                let results = run_world(size, move |comm| {
                    let mut buf: Vec<f32> = if comm.rank() == root {
                        vec![1.0, 2.0, 3.0]
                    } else {
                        vec![]
                    };
                    comm.bcast(&mut buf, root).unwrap();
                    buf
                });
                for r in results {
                    assert_eq!(r.result, vec![1.0, 2.0, 3.0], "size={size} root={root}");
                }
            }
        }
    }

    #[test]
    fn reduce_sum_collects_everything() {
        for size in [1usize, 2, 3, 4, 7, 8] {
            let results = run_world(size, move |comm| {
                let mut buf = vec![comm.rank() as f64, 1.0];
                comm.reduce(&mut buf, ReduceOp::Sum, 0).unwrap();
                buf
            });
            let expect0: f64 = (0..size).map(|r| r as f64).sum();
            assert_eq!(results[0].result, vec![expect0, size as f64], "size={size}");
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let results = run_world(5, |comm| {
            let mut buf = vec![1u64 << comm.rank()];
            comm.reduce(&mut buf, ReduceOp::Sum, 3).unwrap();
            buf[0]
        });
        assert_eq!(results[3].result, 0b11111);
    }

    #[test]
    fn allreduce_power_of_two_and_general() {
        for size in [2usize, 3, 4, 6, 8] {
            let results = run_world(size, move |comm| {
                let mut buf = vec![(comm.rank() + 1) as f32];
                comm.allreduce(&mut buf, ReduceOp::Sum).unwrap();
                buf[0]
            });
            let expect: f32 = (1..=size).map(|r| r as f32).sum();
            for r in &results {
                assert_eq!(r.result, expect, "size={size}");
            }
        }
    }

    #[test]
    fn allreduce_is_bitwise_identical_across_ranks() {
        // Floating sums in different orders differ in ULPs; the
        // implementation promises rank-order-independent combining.
        let results = run_world(8, |comm| {
            let mut buf: Vec<f32> = (0..64)
                .map(|i| ((comm.rank() * 64 + i) as f32).sin() * 1e-3 + 1.0)
                .collect();
            comm.allreduce(&mut buf, ReduceOp::Sum).unwrap();
            buf
        });
        for r in &results[1..] {
            assert_eq!(r.result, results[0].result);
        }
    }

    #[test]
    fn allreduce_max_min() {
        let results = run_world(4, |comm| {
            let mut mx = vec![comm.rank() as f64];
            comm.allreduce(&mut mx, ReduceOp::Max).unwrap();
            let mut mn = vec![comm.rank() as f64];
            comm.allreduce(&mut mn, ReduceOp::Min).unwrap();
            (mx[0], mn[0])
        });
        for r in results {
            assert_eq!(r.result, (3.0, 0.0));
        }
    }

    #[test]
    fn bit_or_folds_the_bit_patterns_of_every_kind() {
        let mut a = [1u64 << 3];
        u64::combine(ReduceOp::BitOr, &mut a, &[1 << 5]);
        assert_eq!(a, [(1 << 3) | (1 << 5)]);
        let (x, y) = (1.5f32, -0.25f32);
        let want = f32::from_bits(x.to_bits() | y.to_bits());
        let mut own = [y];
        f32::fold_into(ReduceOp::BitOr, &[x], &mut own);
        assert_eq!(own[0].to_bits(), want.to_bits());
        let mut a = [2.0f64];
        f64::combine(ReduceOp::BitOr, &mut a, &[0.5]);
        assert_eq!(a[0].to_bits(), 2.0f64.to_bits() | 0.5f64.to_bits());
    }

    #[test]
    fn p2p_schedule_runs_user_tags_as_point_to_point_traffic() {
        // Fan-in then fan-out rooted at rank 2: every hop is a p2p
        // event on `tag + window`, and no collective window is claimed.
        const TAG: u64 = 40;
        let results = run_world(4, |comm| {
            let parts = [2, 0, 1, 3];
            let mut bits = [1u64 << comm.rank()];
            comm.p2p_schedule(&mut bits, ReduceOp::BitOr, TAG, &parts, schedule::fan_in)
                .unwrap();
            comm.p2p_schedule(&mut bits, ReduceOp::BitOr, TAG, &parts, schedule::fan_out)
                .unwrap();
            bits[0]
        });
        for r in &results {
            assert_eq!(r.result, 0b1111, "rank {}", r.rank);
            assert_eq!(r.trace.collectives_completed, 0);
            let tags: Vec<u64> = r
                .events
                .iter()
                .map(|e| match e {
                    CommEvent::Send { tag, .. } | CommEvent::Recv { tag, .. } => *tag,
                    CommEvent::Coll { .. } => panic!("rank {}: collective event", r.rank),
                })
                .collect();
            let want = if r.rank == 2 {
                vec![TAG + 1, TAG + 1, TAG + 1, TAG + 2, TAG + 2, TAG + 2]
            } else {
                vec![TAG + 1, TAG + 2]
            };
            assert_eq!(tags, want, "rank {}", r.rank);
        }
    }

    /// Per-rank test vector: a deterministic function of (rank, i) so
    /// reference reductions can be computed without communication.
    fn gen_f32(rank: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((rank * 131 + i) as f32).sin() * 1e-3 + 1.0)
            .collect()
    }

    fn gen_f64(rank: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((rank * 131 + i) as f64).sin() * 1e-3 + 1.0)
            .collect()
    }

    /// The serial reference for `allreduce_ring`: chunk `c` folded
    /// left-deep in ring order starting at rank `c`.
    fn ring_reference_f32(size: usize, n: usize) -> Vec<f32> {
        let bounds: Vec<usize> = (0..=size).map(|b| b * n / size).collect();
        let mut out = vec![0.0f32; n];
        for c in 0..size {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            let mut acc = gen_f32(c, n)[lo..hi].to_vec();
            for k in 1..size {
                let contrib = gen_f32((c + k) % size, n);
                for (a, b) in acc.iter_mut().zip(&contrib[lo..hi]) {
                    *a += b;
                }
            }
            out[lo..hi].copy_from_slice(&acc);
        }
        out
    }

    #[test]
    fn tree_allreduce_is_bit_identical_to_reduce_plus_bcast() {
        // The tentpole determinism contract: allreduce_tree reuses the
        // binomial structure of reduce(root 0) + bcast(0), so its
        // result reproduces that flat path's bits exactly.
        for size in [2usize, 3, 5, 8] {
            for n in [1usize, 3, 64, 257] {
                let results = run_world(size, move |comm| {
                    let mut flat = gen_f32(comm.rank(), n);
                    comm.reduce(&mut flat, ReduceOp::Sum, 0).unwrap();
                    comm.bcast(&mut flat, 0).unwrap();
                    let mut tree = gen_f32(comm.rank(), n);
                    comm.allreduce_tree(&mut tree, ReduceOp::Sum).unwrap();
                    let mut flat64 = gen_f64(comm.rank(), n);
                    comm.reduce(&mut flat64, ReduceOp::Sum, 0).unwrap();
                    comm.bcast(&mut flat64, 0).unwrap();
                    let mut tree64 = gen_f64(comm.rank(), n);
                    comm.allreduce_tree(&mut tree64, ReduceOp::Sum).unwrap();
                    (flat, tree, flat64, tree64)
                });
                for r in &results {
                    let (flat, tree, flat64, tree64) = &r.result;
                    let fb: Vec<u32> = flat.iter().map(|x| x.to_bits()).collect();
                    let tb: Vec<u32> = tree.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(fb, tb, "f32 size={size} n={n} rank={}", r.rank);
                    let fb64: Vec<u64> = flat64.iter().map(|x| x.to_bits()).collect();
                    let tb64: Vec<u64> = tree64.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(fb64, tb64, "f64 size={size} n={n} rank={}", r.rank);
                }
            }
        }
    }

    #[test]
    fn timed_bcast_and_reduce_at_every_root_follow_the_participant_order() {
        use crate::fault::FaultPlan;
        use crate::runner::run_world_faulted;
        // Armed but never firing: every rooted collective runs its
        // timed star over the participants root, root + 1, …, root − 1.
        let plan = FaultPlan::new(3).kill(4, 10_000);
        let (size, n) = (5usize, 33usize);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Left-deep fold of the ranks' inputs in `order`.
        let fold = |order: Vec<usize>| {
            let mut acc = gen_f32(order[0], n);
            for &r in &order[1..] {
                f32::combine(ReduceOp::Sum, &mut acc, &gen_f32(r, n));
            }
            acc
        };
        let mut order_matters = false;
        for root in 0..size {
            let results = run_world_faulted(size, &plan, move |comm| {
                let mut b = if comm.rank() == root {
                    gen_f32(root + 7, n)
                } else {
                    Vec::new()
                };
                comm.bcast(&mut b, root).unwrap();
                let mut r = gen_f32(comm.rank(), n);
                comm.reduce(&mut r, ReduceOp::Sum, root).unwrap();
                (b, r)
            });
            for r in &results {
                assert_eq!(
                    bits(&r.result.0),
                    bits(&gen_f32(root + 7, n)),
                    "root={root}"
                );
            }
            let expect = fold((0..size).map(|k| (root + k) % size).collect());
            assert_eq!(bits(&results[root].result.1), bits(&expect), "root={root}");
            // Another fixed order, the root then the others ascending:
            // the check above only bites where the two folds differ.
            let others = (0..size).filter(|&r| r != root);
            let ascending = fold(std::iter::once(root).chain(others).collect());
            order_matters |= bits(&ascending) != bits(&expect);
        }
        assert!(
            order_matters,
            "the fold order is not observable in these bits"
        );
    }

    #[test]
    fn ring_allreduce_matches_serial_reference_bitwise() {
        // Ring fold orders are ring rotations per chunk — a different
        // (but equally fixed) association than the binomial tree. The
        // contract is bit-identity with the documented serial
        // reference, bit-identity across ranks, and numerical
        // agreement with the standard path.
        for size in [2usize, 3, 5, 8] {
            for n in [1usize, 3, size, size + 3, 257] {
                let results = run_world(size, move |comm| {
                    let mut ring = gen_f32(comm.rank(), n);
                    comm.allreduce_ring(&mut ring, ReduceOp::Sum).unwrap();
                    let mut std = gen_f32(comm.rank(), n);
                    comm.allreduce(&mut std, ReduceOp::Sum).unwrap();
                    (ring, std)
                });
                let expect: Vec<u32> = ring_reference_f32(size, n)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                for r in &results {
                    let got: Vec<u32> = r.result.0.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, expect, "size={size} n={n} rank={}", r.rank);
                    for (x, y) in r.result.0.iter().zip(&r.result.1) {
                        assert!(
                            (x - y).abs() < 1e-4 * (1.0 + x.abs()),
                            "size={size} n={n}: ring {x} vs standard {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_f64_and_operators() {
        for size in [2usize, 3, 5, 8] {
            let results = run_world(size, move |comm| {
                let mut sum = gen_f64(comm.rank(), 37);
                comm.allreduce_ring(&mut sum, ReduceOp::Sum).unwrap();
                let mut mx = vec![comm.rank() as f64];
                comm.allreduce_ring(&mut mx, ReduceOp::Max).unwrap();
                let mut mn = vec![comm.rank() as u64 + 5];
                comm.allreduce_ring(&mut mn, ReduceOp::Min).unwrap();
                (sum, mx[0], mn[0])
            });
            for r in &results[1..] {
                assert_eq!(r.result.0, results[0].result.0, "size={size}");
            }
            for r in &results {
                assert_eq!(r.result.1, (size - 1) as f64);
                assert_eq!(r.result.2, 5);
            }
        }
    }

    #[test]
    fn ring_and_tree_are_arrival_order_independent() {
        use crate::runner::run_world_perturbed;
        let body = |comm: &mut Comm| {
            let mut ring = gen_f32(comm.rank(), 100);
            comm.allreduce_ring(&mut ring, ReduceOp::Sum).unwrap();
            let mut tree = gen_f32(comm.rank(), 100);
            comm.allreduce_tree(&mut tree, ReduceOp::Sum).unwrap();
            (ring, tree)
        };
        let baseline = run_world(5, body);
        for seed in [1u64, 7, 23] {
            let perturbed = run_world_perturbed(5, seed, body);
            for (b, p) in baseline.iter().zip(&perturbed) {
                assert_eq!(b.result, p.result, "seed={seed} rank={}", b.rank);
                assert!(p.hb.is_empty(), "hb violations under seed {seed}");
            }
        }
    }

    #[test]
    fn ring_never_touches_nonneighbor_ranks() {
        // Masterless contract: every byte a rank moves in
        // allreduce_ring goes to/from its ring neighbours, so rank 0
        // is never a rendezvous point. With 1000 f32 elements over 5
        // ranks each rank sends 2·(P−1) chunks of ~n/P elements.
        let results = run_world(5, |comm| {
            let mut v = gen_f32(comm.rank(), 1000);
            comm.allreduce_ring(&mut v, ReduceOp::Sum).unwrap();
        });
        for r in &results {
            // 2·(P−1)/P·n = 1600 elements = 6400 bytes per rank, the
            // same on every rank — nobody is a hotspot.
            assert_eq!(r.trace.collective.bytes_sent, 6400);
            assert_eq!(r.trace.collective.bytes_received, 6400);
            assert_eq!(r.trace.p2p.bytes_sent, 0);
        }
    }

    #[test]
    fn small_vector_ring_falls_back_to_tree_shape_on_large_worlds() {
        // P=16 with a sub-floor chunk (100/16 ≈ 6 elements): the ring
        // entry point keeps its name and counters but runs the
        // binomial tree shape, so the result is bit-identical to
        // allreduce_tree and the critical path is 2·⌈log₂P⌉ hops
        // instead of 2·(P−1).
        let n = 100usize;
        let results = run_world(16, move |comm| {
            let mut ring = gen_f32(comm.rank(), n);
            comm.allreduce_ring(&mut ring, ReduceOp::Sum).unwrap();
            let mut tree = gen_f32(comm.rank(), n);
            comm.allreduce_tree(&mut tree, ReduceOp::Sum).unwrap();
            (ring, tree, comm.take_telemetry())
        });
        for r in &results {
            let (ring, tree, t) = &r.result;
            let rb: Vec<u32> = ring.iter().map(|x| x.to_bits()).collect();
            let tb: Vec<u32> = tree.iter().map(|x| x.to_bits()).collect();
            assert_eq!(rb, tb, "rank={}", r.rank);
            // The fallback is still attributed to the collective the
            // caller asked for.
            assert!(t.counter("wire_sent_allreduce_ring") > 0, "rank={}", r.rank);
        }
    }

    #[test]
    fn large_vector_ring_stays_chunked_on_large_worlds() {
        // At the chunk floor (128 elements per rank at P=16) the ring
        // keeps its bandwidth-optimal chunked shape: bits match the
        // serial ring reference and every rank moves exactly
        // 2·(P−1)·(n/P) elements, symmetric across ranks.
        let n = 16 * RING_CHUNK_FLOOR;
        let results = run_world(16, move |comm| {
            let mut v = gen_f32(comm.rank(), n);
            comm.allreduce_ring(&mut v, ReduceOp::Sum).unwrap();
            v
        });
        let expect: Vec<u32> = ring_reference_f32(16, n)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let per_rank = (2 * 15 * RING_CHUNK_FLOOR * 4) as u64;
        for r in &results {
            let got: Vec<u32> = r.result.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, expect, "rank={}", r.rank);
            assert_eq!(r.trace.collective.bytes_sent, per_rank);
            assert_eq!(r.trace.collective.bytes_received, per_rank);
        }
    }

    #[test]
    fn killed_ring_surfaces_rank_dead_and_restitches_over_survivors() {
        use crate::fault::FaultPlan;
        use crate::runner::run_world_faulted;
        let plan = FaultPlan::new(7)
            .kill(2, 0)
            .with_timeouts(Duration::from_millis(200), Duration::from_secs(30));
        let results = run_world_faulted(5, &plan, |comm| {
            let mut v = gen_f32(comm.rank(), 40);
            let first = comm.allreduce_ring(&mut v, ReduceOp::Sum);
            if matches!(first, Err(CommError::Killed)) {
                return None;
            }
            // Every survivor aborts the same invocation naming the
            // same dead rank — the victim's successor sees the death
            // notice directly, everyone further downstream starves on
            // a timed hop that `hop_failure` attributes to the dead
            // rank rather than the innocent upstream neighbour.
            assert!(
                matches!(first, Err(CommError::RankDead { rank: 2 })),
                "rank={}: {first:?}",
                comm.rank()
            );
            comm.ack_dead(2);
            // Survivors abort the failed collective up to one detect
            // window apart (the victim's successor fails instantly, the
            // ranks downstream wait out their whole window), so they
            // meet at the lowest survivor under the wide window first,
            // as the recovery driver's membership round does in
            // training runs.
            let wide = Duration::from_secs(30);
            if comm.rank() == 0 {
                for r in [1, 3, 4] {
                    comm.recv_timeout(Src::Of(r), 9, wide).unwrap();
                }
                for r in [1, 3, 4] {
                    comm.send(r, 9, Payload::Empty).unwrap();
                }
            } else {
                comm.send(0, 9, Payload::Empty).unwrap();
                comm.recv_timeout(Src::Of(0), 9, wide).unwrap();
            }
            // Once acknowledged, the same entry points run re-stitched
            // over the four survivors, on the plan's peer window.
            let mut w = gen_f32(comm.rank(), 40);
            comm.allreduce_ring(&mut w, ReduceOp::Sum).unwrap();
            let mut t = gen_f32(comm.rank(), 40);
            comm.allreduce_tree(&mut t, ReduceOp::Sum).unwrap();
            Some((w, t))
        });
        let survivors: Vec<_> = results.iter().filter_map(|r| r.result.clone()).collect();
        assert_eq!(survivors.len(), 4, "exactly the victim is missing");
        for s in &survivors[1..] {
            let (a0, b0) = &survivors[0];
            let (a, b) = s;
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                a0.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b0.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    /// `reduce_scatter` then `allgather` is `allreduce_ring`, bit for
    /// bit, under every codec: the reduce-scatter leaves each rank's
    /// ring slice holding the ring's (decoded) reduction, and the raw
    /// allgather delivers exactly those bits — for 1–5 ranks and
    /// lengths that leave chunks empty (`n < P`), uneven, or longer
    /// than a fold block.
    #[test]
    fn reduce_scatter_then_allgather_is_allreduce_ring_bitwise() {
        use crate::wire::WireCodec;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for codec in [WireCodec::None, WireCodec::F16, WireCodec::Int8] {
            for size in 1..=5usize {
                for n in [
                    0,
                    1,
                    size.saturating_sub(1),
                    size + 1,
                    3 * FOLD_BLOCK + size,
                ] {
                    let results = run_world(size, move |comm| {
                        comm.set_wire_codec(codec);
                        let mut whole = operand(comm.rank(), n);
                        comm.allreduce_ring(&mut whole, ReduceOp::Sum).unwrap();
                        let mut halves = operand(comm.rank(), n);
                        comm.reduce_scatter(&mut halves, ReduceOp::Sum).unwrap();
                        let slice = comm.ring_slice(n);
                        let owned = halves[slice.clone()].to_vec();
                        comm.allgather(&mut halves).unwrap();
                        (whole, halves, slice, owned)
                    });
                    let mut covered = vec![0usize; n];
                    for r in &results {
                        let case = format!("{codec:?} P={size} n={n} rank={}", r.rank);
                        let (whole, halves, slice, owned) = &r.result;
                        assert_eq!(bits(owned), bits(&whole[slice.clone()]), "{case}");
                        assert_eq!(bits(halves), bits(whole), "{case}");
                        assert_eq!(bits(whole), bits(&results[0].result.0), "{case}");
                        for c in &mut covered[slice.clone()] {
                            *c += 1;
                        }
                    }
                    // The ring slices partition the buffer.
                    assert!(covered.iter().all(|&c| c == 1), "{codec:?} P={size} n={n}");
                }
            }
        }
    }

    /// The allgather is codec-free: under `F16` and `Int8` every rank
    /// ends with the owners' `f32` bits, none rounded, and the payloads
    /// travel as four bytes an element.
    #[test]
    fn allgather_moves_raw_f32_under_lossy_codecs() {
        use crate::wire::WireCodec;
        let n = 1001usize;
        // 1 + 2⁻²⁰·k: not representable in binary16, and int8 would
        // collapse it.
        let value = |i: usize| 1.0 + (i as f32) * f32::EPSILON * 8.0;
        for codec in [WireCodec::F16, WireCodec::Int8] {
            for size in 2..=4usize {
                let results = run_world(size, move |comm| {
                    comm.set_wire_codec(codec);
                    let mut buf = vec![f32::NAN; n];
                    for i in comm.ring_slice(n) {
                        buf[i] = value(i);
                    }
                    comm.allgather(&mut buf).unwrap();
                    buf
                });
                for r in &results {
                    for (i, x) in r.result.iter().enumerate() {
                        assert_eq!(x.to_bits(), value(i).to_bits(), "{codec:?} P={size} i={i}");
                    }
                    let moved = r.trace.collective.bytes_received;
                    let foreign = n - {
                        let parts: Vec<_> = (0..size).collect();
                        let pos = parts.iter().position(|&q| q == r.rank).unwrap();
                        schedule::ring_owned(pos, size).range(n).len()
                    };
                    assert_eq!(moved, 4 * foreign as u64, "{codec:?} P={size}");
                }
            }
        }
    }

    /// Both halves pass the fault gate and abort with the death the
    /// recovery round evicts, as `allreduce_ring` does; once the death
    /// is acknowledged they run re-stitched over the survivors, whose
    /// ring slices partition the buffer again.
    #[test]
    fn killed_halves_surface_rank_dead_and_restitch_over_survivors() {
        use crate::fault::FaultPlan;
        use crate::runner::run_world_faulted;
        let n = 40usize;
        for kill_at in [0u64, 1] {
            let plan = FaultPlan::new(7)
                .kill(2, kill_at)
                .with_timeouts(Duration::from_millis(200), Duration::from_secs(30));
            let results = run_world_faulted(5, &plan, move |comm| {
                let mut v = gen_f32(comm.rank(), n);
                let mut first = comm.reduce_scatter(&mut v, ReduceOp::Sum);
                if first.is_ok() {
                    first = comm.allgather(&mut v);
                }
                if matches!(first, Err(CommError::Killed)) {
                    return None;
                }
                assert!(
                    matches!(first, Err(CommError::RankDead { rank: 2 })),
                    "kill_at={kill_at} rank={}: {first:?}",
                    comm.rank()
                );
                comm.ack_dead(2);
                let wide = Duration::from_secs(30);
                if comm.rank() == 0 {
                    for r in [1, 3, 4] {
                        comm.recv_timeout(Src::Of(r), 9, wide).unwrap();
                    }
                    for r in [1, 3, 4] {
                        comm.send(r, 9, Payload::Empty).unwrap();
                    }
                } else {
                    comm.send(0, 9, Payload::Empty).unwrap();
                    comm.recv_timeout(Src::Of(0), 9, wide).unwrap();
                }
                let mut whole = gen_f32(comm.rank(), n);
                comm.allreduce_ring(&mut whole, ReduceOp::Sum).unwrap();
                let mut halves = gen_f32(comm.rank(), n);
                comm.reduce_scatter(&mut halves, ReduceOp::Sum).unwrap();
                comm.allgather(&mut halves).unwrap();
                Some((whole, halves, comm.ring_slice(n)))
            });
            let survivors: Vec<_> = results.iter().filter_map(|r| r.result.clone()).collect();
            assert_eq!(
                survivors.len(),
                4,
                "kill_at={kill_at}: exactly the victim is missing"
            );
            assert!(results[2].result.is_none());
            let mut covered = vec![0usize; n];
            for (whole, halves, slice) in &survivors {
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(halves), bits(whole), "kill_at={kill_at}");
                assert_eq!(bits(whole), bits(&survivors[0].0), "kill_at={kill_at}");
                for c in &mut covered[slice.clone()] {
                    *c += 1;
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "kill_at={kill_at}");
        }
    }

    #[test]
    fn wire_byte_counters_attribute_per_collective() {
        let results = run_world(4, |comm| {
            let mut v = vec![1.0f32; 100];
            comm.allreduce_ring(&mut v, ReduceOp::Sum).unwrap();
            let mut w = vec![1.0f32; 100];
            comm.allreduce_tree(&mut w, ReduceOp::Sum).unwrap();
            comm.take_telemetry()
        });
        for r in &results {
            let t = &r.result;
            assert!(t.counter("wire_sent_allreduce_ring") > 0);
            assert!(t.counter("wire_recv_allreduce_ring") > 0);
            assert!(t.counter("wire_sent_allreduce_tree") > 0);
            assert_eq!(t.counter("wire_sent_bcast"), 0);
        }
    }

    #[test]
    fn codec_halves_ring_bytes_and_keeps_ranks_identical() {
        use crate::wire::WireCodec;
        for codec in [WireCodec::F16, WireCodec::Int8] {
            let plain = run_world(5, |comm| {
                let mut v = gen_f32(comm.rank(), 1000);
                comm.allreduce_ring(&mut v, ReduceOp::Sum).unwrap();
                v
            });
            let coded = run_world(5, move |comm| {
                comm.set_wire_codec(codec);
                let mut v = gen_f32(comm.rank(), 1000);
                comm.allreduce_ring(&mut v, ReduceOp::Sum).unwrap();
                v
            });
            // All ranks bit-identical under the lossy codec (the
            // encode-once/forward pattern), and close to the exact sum.
            for r in &coded[1..] {
                let a: Vec<u32> = r.result.iter().map(|x| x.to_bits()).collect();
                let b: Vec<u32> = coded[0].result.iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "codec={codec:?} rank={}", r.rank);
            }
            for (x, y) in coded[0].result.iter().zip(&plain[0].result) {
                assert!((x - y).abs() < 0.35 * (1.0 + y.abs()), "codec={codec:?}");
            }
            // Compressed wire bytes: ≤ ~55% (f16) / ~30% (int8) of
            // the uncompressed volume.
            let frac = match codec {
                WireCodec::F16 => 0.55,
                _ => 0.30,
            };
            for (p, c) in plain.iter().zip(&coded) {
                let full = p.trace.collective.bytes_sent as f64;
                let small = c.trace.collective.bytes_sent as f64;
                assert!(small < full * frac, "codec={codec:?}: {small} vs {full}");
            }
        }
    }

    #[test]
    fn codec_keeps_bcast_and_tree_consistent_across_ranks() {
        use crate::wire::WireCodec;
        let results = run_world(4, |comm| {
            comm.set_wire_codec(WireCodec::Int8);
            let mut b = if comm.rank() == 2 {
                gen_f32(9, 101)
            } else {
                vec![]
            };
            comm.bcast(&mut b, 2).unwrap();
            let mut t = gen_f32(comm.rank(), 101);
            comm.allreduce_tree(&mut t, ReduceOp::Sum).unwrap();
            (b, t)
        });
        for r in &results[1..] {
            // Root and relays agree bitwise with every receiver —
            // including the roundtripped origin copies.
            assert_eq!(
                r.result.0.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                results[0]
                    .result
                    .0
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                r.result.1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                results[0]
                    .result
                    .1
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    /// `schedule` over `m` positions run one hop at a time on plain
    /// vectors the way the interpreter used to: every received payload
    /// decoded into a fresh vector by the scalar reference codec, then
    /// folded or installed; every window-1 send and every owned chunk
    /// encoded by it from a copy. Returns each position's buffer and the
    /// bytes it sent and received.
    fn decode_then_fold(
        schedule: Schedule,
        mut bufs: Vec<Vec<f32>>,
        op: ReduceOp,
        codec: crate::wire::WireCodec,
    ) -> (Vec<Vec<f32>>, Vec<[u64; 2]>) {
        use crate::wire::reference::{decode, encode};
        use std::collections::{HashMap, VecDeque};
        let m = bufs.len();
        let hops: Vec<Vec<Hop>> = (0..m).map(|p| schedule(p, m)).collect();
        let mut next = vec![0usize; m];
        let mut images = vec![Payload::Empty; m];
        let mut bytes = vec![[0u64; 2]; m];
        let mut wire: HashMap<(usize, usize, u8), VecDeque<Payload>> = HashMap::new();
        while (0..m).any(|p| next[p] < hops[p].len()) {
            let mut progressed = false;
            for p in 0..m {
                while let Some(&hop) = hops[p].get(next[p]) {
                    let len = bufs[p].len();
                    match hop {
                        Hop::Send { to, window, chunk } => {
                            let payload = if window == 2 {
                                images[p].clone()
                            } else {
                                encode(codec, &bufs[p][chunk.range(len)])
                            };
                            bytes[p][0] += payload.size_bytes();
                            wire.entry((p, to, window)).or_default().push_back(payload);
                        }
                        Hop::Recv {
                            from,
                            window,
                            chunk,
                            apply,
                        } => {
                            let queue = wire.entry((from, p, window)).or_default();
                            let Some(payload) = queue.pop_front() else {
                                break;
                            };
                            bytes[p][1] += payload.size_bytes();
                            let incoming = decode(&payload);
                            match apply {
                                Apply::FoldIncomingLeft => {
                                    f32::fold_into(op, &incoming, &mut bufs[p][chunk.range(len)])
                                }
                                Apply::FoldOwnLeft => {
                                    f32::combine(op, &mut bufs[p][chunk.range(len)], &incoming)
                                }
                                Apply::Install if chunk == Chunk::WHOLE => {
                                    bufs[p] = incoming;
                                    images[p] = payload;
                                }
                                Apply::Install => {
                                    bufs[p][chunk.range(len)].copy_from_slice(&incoming);
                                    images[p] = payload;
                                }
                                Apply::Discard => {}
                            }
                        }
                        Hop::Own { chunk } => {
                            images[p] = encode(codec, &bufs[p][chunk.range(len)]);
                            let owned = decode(&images[p]);
                            bufs[p][chunk.range(len)].copy_from_slice(&owned);
                        }
                    }
                    next[p] += 1;
                    progressed = true;
                }
            }
            assert!(progressed, "schedule deadlocked");
        }
        (bufs, bytes)
    }

    /// Rank `rank`'s operand: mixed signs and magnitudes, so int8
    /// chunks have their own scales and f16 rounds.
    fn operand(rank: usize, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((rank * 97 + i * 13) as f32).sin() * (1.0 + (i % 7) as f32) * 0.37)
            .collect()
    }

    /// The copy-free hops — encode straight from the buffer, fold or
    /// install straight from the received image — leave every rank's
    /// buffer bitwise equal to decoding into fresh vectors and folding
    /// those, and move the same bytes, for every codec-armed shape at
    /// 2–5 ranks over lengths that leave chunks empty, uneven, or
    /// longer than a fold block.
    #[test]
    fn codec_hops_match_decode_then_fold_bitwise() {
        use crate::wire::WireCodec;
        type Run = fn(&mut Comm, &mut Vec<f32>, ReduceOp, usize) -> Result<(), CommError>;
        let shapes: [(&str, Schedule, Run); 4] = [
            ("allreduce_ring", schedule::ring, |c, b, op, _| {
                c.allreduce_ring(b, op)
            }),
            ("allreduce_tree", schedule::tree, |c, b, op, _| {
                c.allreduce_tree(b, op)
            }),
            ("bcast", schedule::binomial_bcast, |c, b, _, root| {
                if c.rank() != root {
                    b.clear();
                }
                c.bcast(b, root)
            }),
            ("reduce", schedule::binomial_reduce, |c, b, op, root| {
                c.reduce(b, op, root)
            }),
        ];
        for codec in [WireCodec::F16, WireCodec::Int8] {
            for size in 2..=5usize {
                for n in [1, size - 1, size + 1, 3 * FOLD_BLOCK + size] {
                    for (name, schedule, run) in shapes {
                        for op in [ReduceOp::Sum, ReduceOp::Max] {
                            let root = (n + size - 1) % size;
                            let got = run_world(size, move |comm| {
                                comm.set_wire_codec(codec);
                                let mut buf = operand(comm.rank(), n);
                                run(comm, &mut buf, op, root).unwrap();
                                buf
                            });
                            // Position q is rank (root + q) mod size for
                            // the rooted shapes, rank q for the others.
                            let rooted = matches!(name, "bcast" | "reduce");
                            let rank_at = |q: usize| if rooted { (root + q) % size } else { q };
                            let bufs = (0..size).map(|q| operand(rank_at(q), n)).collect();
                            let (want, bytes) = decode_then_fold(schedule, bufs, op, codec);
                            for (q, (want, moved)) in want.iter().zip(&bytes).enumerate() {
                                let r = &got[rank_at(q)];
                                let case = format!(
                                    "{name} {codec:?} {op:?} P={size} n={n} rank={}",
                                    r.rank
                                );
                                let bits =
                                    |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                                assert_eq!(bits(&r.result), bits(want), "{case}");
                                let c = &r.trace.collective;
                                assert_eq!([c.bytes_sent, c.bytes_received], *moved, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let before = Arc::new(AtomicUsize::new(0));
        let b2 = before.clone();
        let results = run_world(6, move |comm| {
            b2.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // After the barrier every rank must observe all 6 arrivals.
            b2.load(Ordering::SeqCst)
        });
        for r in results {
            assert_eq!(r.result, 6);
        }
    }

    #[test]
    fn collective_traffic_is_classified_collective() {
        let results = run_world(4, |comm| {
            let mut buf = vec![0.0f32; 1000];
            comm.bcast(&mut buf, 0).unwrap();
        });
        // Root sends to its binomial children: collective bytes > 0,
        // p2p bytes == 0.
        assert!(results[0].trace.collective.bytes_sent > 0);
        assert_eq!(results[0].trace.p2p.bytes_sent, 0);
        assert_eq!(results[0].trace.collectives_completed, 1);
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let results = run_world(4, |comm| {
            let mut a = vec![comm.rank() as f64];
            let mut b = vec![(comm.rank() * 100) as f64];
            comm.allreduce(&mut a, ReduceOp::Sum).unwrap();
            comm.allreduce(&mut b, ReduceOp::Sum).unwrap();
            (a[0], b[0])
        });
        for r in results {
            assert_eq!(r.result, (6.0, 600.0));
        }
    }

    #[test]
    fn mixed_p2p_and_collectives() {
        let results = run_world(3, |comm| {
            if comm.rank() == 1 {
                comm.send(0, 9, Payload::U64(vec![77])).unwrap();
            }
            let mut v = vec![1.0f32];
            comm.allreduce(&mut v, ReduceOp::Sum).unwrap();
            if comm.rank() == 0 {
                let pkt = comm.recv(Src::Of(1), 9).unwrap();
                pkt.payload.into_u64()[0] + v[0] as u64
            } else {
                v[0] as u64
            }
        });
        assert_eq!(results[0].result, 80);
        assert_eq!(results[1].result, 3);
    }
}
