//! Collective operations built on point-to-point messaging.
//!
//! The paper replaced socket/file weight synchronization with
//! `MPI_Bcast` specifically "to take advantage of the optimized MPI
//! collectives" (Section V.B). We implement the textbook algorithms
//! MPICH uses at these message sizes:
//!
//! * broadcast — binomial tree, `⌈log2 P⌉` rounds;
//! * reduce — binomial tree (mirrored), deterministic combine order;
//! * allreduce — recursive doubling when `P` is a power of two, else
//!   reduce + broadcast;
//! * ring / tree allreduce — the masterless chunked ring and binomial
//!   tree;
//! * barrier — dissemination.
//!
//! The masterless shapes (ring, tree, dissemination barrier and the
//! timed star barrier) are not coded here: [`crate::schedule`] returns
//! each position's hop list, `exchange` and the two barriers
//! interpret it, and `pdnn-protomc` model-checks the same lists.
//!
//! Every collective invocation draws a fresh tag window from the
//! communicator's sequence counter, so back-to-back collectives can
//! never cross-match even with `Src::Any` receives in user code.

use crate::comm::{Comm, CommError, COLLECTIVE_TAG_BASE};
use crate::events::CommEvent;
use crate::message::{Payload, Src};
use crate::schedule::{self, Apply, Hop, Schedule};
use pdnn_obs::{Recorder, RecorderExt, SpanKind};
use std::time::Duration;

/// Element type usable in typed collectives.
pub trait CollElem: Copy + Send + 'static {
    /// The payload kind name this element maps to (for diagnostics).
    const KIND: &'static str;
    /// Wrap a vector into a payload.
    fn wrap(v: Vec<Self>) -> Payload;
    /// Checked unwrap: `Err` returns the payload untouched on a kind
    /// mismatch so the caller can report what actually arrived.
    fn unwrap_checked(p: Payload) -> Result<Vec<Self>, Payload>;
    /// Unwrap a payload (panics on type mismatch — protocol bug).
    fn unwrap(p: Payload) -> Vec<Self>;
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
}

macro_rules! impl_coll_elem {
    ($t:ty, $variant:ident) => {
        impl CollElem for $t {
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
            fn unwrap(p: Payload) -> Vec<Self> {
                match Self::unwrap_checked(p) {
                    Ok(v) => v,
                    // pdnn-lint: allow(l3-no-unwrap): payload type mismatch inside a collective is a protocol bug, not a recoverable condition
                    Err(other) => panic!(
                        "collective type mismatch: expected {}, got {}",
                        stringify!($variant),
                        other.kind()
                    ),
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
                }
            }
        }
    };
}

impl_coll_elem!(f32, F32);
impl_coll_elem!(f64, F64);
impl_coll_elem!(u64, U64);

/// Per-collective wire-byte counter names (recorder counters take
/// `&'static str`, so the mapping is a closed table).
fn wire_counters(name: &'static str) -> (&'static str, &'static str) {
    match name {
        "bcast" => ("wire_sent_bcast", "wire_recv_bcast"),
        "reduce" => ("wire_sent_reduce", "wire_recv_reduce"),
        "barrier" => ("wire_sent_barrier", "wire_recv_barrier"),
        "allreduce" => ("wire_sent_allreduce", "wire_recv_allreduce"),
        "allreduce_ring" => ("wire_sent_allreduce_ring", "wire_recv_allreduce_ring"),
        "allreduce_tree" => ("wire_sent_allreduce_tree", "wire_recv_allreduce_tree"),
        _ => ("wire_sent_other", "wire_recv_other"),
    }
}

/// RAII-ish helper: run `f` with the communicator in collective
/// tracing mode and a fresh tag window, recording the whole
/// invocation as a named `CommCollective` span on the rank's
/// telemetry recorder, and attributing the bytes it moved to
/// per-collective wire-byte counters (`wire_sent_<op>` /
/// `wire_recv_<op>`).
///
/// `codec` arms the wire codec for the invocation: only collectives
/// whose algorithm stays rank-consistent under lossy narrowing
/// (broadcast/reduce shapes and the ring/tree allreduces) pass
/// `true`; the rank-symmetric exchanges in recursive doubling would
/// leave partners with different lossy views of each other's data, so
/// they run uncompressed.
fn with_collective<R>(
    comm: &mut Comm,
    name: &'static str,
    codec: bool,
    f: impl FnOnce(&mut Comm, u64) -> R,
) -> R {
    let recorder = comm.recorder().clone();
    let _span = recorder.span(name, SpanKind::CommCollective);
    let tag = COLLECTIVE_TAG_BASE + comm.coll_seq * 8;
    comm.coll_seq += 1;
    let was = comm.in_collective;
    comm.in_collective = true;
    let was_codec = comm.codec_armed;
    comm.codec_armed = codec;
    let sent0 = comm.trace.collective.bytes_sent;
    let recv0 = comm.trace.collective.bytes_received;
    let out = f(comm, tag);
    let sent = comm.trace.collective.bytes_sent - sent0;
    let received = comm.trace.collective.bytes_received - recv0;
    let (sent_ctr, recv_ctr) = wire_counters(name);
    if sent > 0 {
        recorder.counter_add(sent_ctr, sent);
    }
    if received > 0 {
        recorder.counter_add(recv_ctr, received);
    }
    comm.codec_armed = was_codec;
    comm.in_collective = was;
    out
}

/// Decode a forwarded wire image and unwrap it as `T`, reporting a
/// kind mismatch with the on-wire kind (mirrors `Comm::typed`).
fn decoded_vec<T: CollElem>(payload: Payload, src: usize, tag: u64) -> Result<Vec<T>, CommError> {
    let got = payload.kind();
    T::unwrap_checked(crate::wire::decode(payload)).map_err(|_| CommError::TypeMismatch {
        src,
        tag,
        expected: T::KIND,
        got,
    })
}

/// First element of a collective buffer when the element type is
/// `u64` — the command opcode for protocol header broadcasts — else
/// `None`. Rides every collective's [`CommEvent::Coll`] entry so the
/// trace-conformance replay can dispatch on the command a header
/// broadcast carried.
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

/// Ring/tree/star participants: every rank whose death has not been
/// *acknowledged*, in rank order. Freshly-dead-but-unacknowledged
/// ranks stay in the topology — every survivor keys the shape on the
/// same acknowledged set, so re-stitching happens only through the
/// recovery driver's membership-agreement round, never from raced
/// death observations mid-collective.
fn live_parts(comm: &Comm) -> Vec<usize> {
    (0..comm.size()).filter(|&r| !comm.is_acked(r)).collect()
}

/// Decode a received chunk into `dst` without cloning the payload:
/// payloads already carrying `T` are copied straight out of the
/// borrow; wire images are decoded by reference first. Reports a
/// kind mismatch with the on-wire kind (mirrors [`decoded_vec`]).
fn decode_chunk_into<T: CollElem>(
    payload: &Payload,
    dst: &mut [T],
    src: usize,
    tag: u64,
) -> Result<(), CommError> {
    if let Some(slice) = T::try_slice(payload) {
        dst.copy_from_slice(slice);
        return Ok(());
    }
    let mismatch = || CommError::TypeMismatch {
        src,
        tag,
        expected: T::KIND,
        got: payload.kind(),
    };
    let decoded = crate::wire::decode_ref(payload).ok_or_else(mismatch)?;
    let slice = T::try_slice(&decoded).ok_or_else(mismatch)?;
    dst.copy_from_slice(slice);
    Ok(())
}

/// Interpret one position's hop list from `schedule` over `parts` —
/// the participating ranks in rank order (all ranks fault-free; the
/// surviving membership after a re-stitch). Position `q` of the
/// schedule is rank `parts[q]`, so a re-stitched collective is exactly
/// the textbook one over `m = parts.len()` members.
///
/// Window-1 receives fold in the operand order the hop names;
/// window-2 sends forward the wire image last owned or received,
/// moved on its last send, so every rank installs identical bytes for
/// every chunk. With `timeout` set, every receive is bounded and a
/// miss is mapped through [`Comm::hop_failure`] so the caller sees
/// [`CommError::RankDead`] for the rank the recovery round must evict
/// — not for the innocent upstream neighbour the timeout happened to
/// fire on.
fn exchange<T: CollElem>(
    comm: &mut Comm,
    buf: &mut [T],
    op: ReduceOp,
    tag: u64,
    parts: &[usize],
    schedule: Schedule,
    timeout: Option<Duration>,
) -> Result<(), CommError> {
    let Some(p) = parts.iter().position(|&r| r == comm.rank()) else {
        // A rank acknowledged as dead must not re-enter the topology;
        // its own fate check surfaces the eviction.
        return Err(CommError::RankDead { rank: comm.rank() });
    };
    let n = buf.len();
    let hops = schedule(p, parts.len());
    let mut image = Payload::Empty;
    for (i, hop) in hops.iter().enumerate() {
        match *hop {
            Hop::Send { to, window, chunk } => {
                let t = tag + u64::from(window);
                let payload = if window != 2 {
                    T::wrap(buf[chunk.range(n)].to_vec())
                } else if matches!(hops.get(i + 1), Some(Hop::Send { window: 2, .. })) {
                    // A tree fan-out: later children get the same image.
                    image.clone()
                } else {
                    std::mem::replace(&mut image, Payload::Empty)
                };
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
                let pkt = match timeout {
                    None => comm.recv(Src::Of(src), t)?,
                    Some(d) => match comm.recv_timeout(Src::Of(src), t, d) {
                        Ok(pkt) => pkt,
                        Err(e) => return Err(comm.hop_failure(src, e)),
                    },
                };
                let own = &mut buf[chunk.range(n)];
                match apply {
                    Apply::FoldIncomingLeft => T::fold_into(op, &Comm::typed::<T>(pkt, t)?, own),
                    Apply::FoldOwnLeft => T::combine(op, own, &Comm::typed::<T>(pkt, t)?),
                    Apply::Install => {
                        decode_chunk_into::<T>(&pkt.payload, own, pkt.src, t)?;
                        image = pkt.payload;
                    }
                    Apply::Discard => {}
                }
            }
            Hop::Own { chunk } => {
                let range = chunk.range(n);
                image = comm.codec_encode(T::wrap(buf[range.clone()].to_vec()));
                let self_rank = comm.rank();
                decode_chunk_into::<T>(&image, &mut buf[range], self_rank, tag + 2)?;
            }
        }
    }
    Ok(())
}

impl Comm {
    /// Broadcast `buf` from `root` to all ranks (binomial tree).
    ///
    /// On non-root ranks the buffer is replaced by the root's data
    /// (it may change length).
    pub fn bcast<T: CollElem>(&mut self, buf: &mut Vec<T>, root: usize) -> Result<(), CommError> {
        assert!(root < self.size(), "bcast: root out of range");
        if self.ft() {
            let timeout = self.ft_timeout_for_root(root);
            return self.bcast_timed(buf, root, timeout);
        }
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        with_collective(self, "bcast", true, |comm, tag| {
            let rank = comm.rank();
            let vrank = (rank + size - root) % size;
            // The root encodes the buffer once; relays forward the
            // received wire image untouched. Every rank — root
            // included — installs the decoded image, so the buffer
            // ends bit-identical across ranks even under a lossy
            // codec (re-encoding at each relay could wobble the int8
            // scale by one ULP).
            let mut mask = 1usize;
            let mut received: Option<(Payload, usize)> = None;
            while mask < size {
                if vrank & mask != 0 {
                    let src = (vrank - mask + root) % size;
                    let pkt = comm.recv(Src::Of(src), tag)?;
                    received = Some((pkt.payload, pkt.src));
                    break;
                }
                mask <<= 1;
            }
            let (img, origin) = match received {
                Some(image) => image,
                None => (comm.codec_encode(T::wrap(buf.clone())), rank),
            };
            *buf = decoded_vec::<T>(img.clone(), origin, tag)?;
            mask >>= 1;
            while mask > 0 {
                if vrank + mask < size {
                    let dst = (vrank + mask + root) % size;
                    comm.send(dst, tag, img.clone())?;
                }
                mask >>= 1;
            }
            comm.push_event(CommEvent::Coll {
                op: "bcast",
                root,
                kind: T::KIND,
                len: buf.len(),
                first: first_u64(buf),
                ok: true,
            });
            comm.trace_collective_done();
            Ok(())
        })
    }

    /// Reduce `buf` elementwise under `op` to `root` (binomial tree).
    ///
    /// After the call `buf` on the root holds the reduction; on other
    /// ranks it holds intermediate partial sums (treat as garbage).
    /// The combine order is a fixed tree, so results are bitwise
    /// deterministic for a given world size.
    pub fn reduce<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
        root: usize,
    ) -> Result<(), CommError> {
        assert!(root < self.size(), "reduce: root out of range");
        if self.ft() {
            let timeout = self.ft_timeout_for_root(root);
            return self.reduce_timed(buf, op, root, timeout);
        }
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        with_collective(self, "reduce", true, |comm, tag| {
            let rank = comm.rank();
            let vrank = (rank + size - root) % size;
            let mut mask = 1usize;
            while mask < size {
                if vrank & mask == 0 {
                    let vsrc = vrank | mask;
                    if vsrc < size {
                        let src = (vsrc + root) % size;
                        let other = comm.recv_vec::<T>(Src::Of(src), tag)?;
                        T::combine(op, buf, &other);
                    }
                } else {
                    let vdst = vrank & !mask;
                    let dst = (vdst + root) % size;
                    comm.send(dst, tag, T::wrap(buf.to_vec()))?;
                    break;
                }
                mask <<= 1;
            }
            comm.push_event(CommEvent::Coll {
                op: "reduce",
                root,
                kind: T::KIND,
                len: buf.len(),
                first: None,
                ok: true,
            });
            comm.trace_collective_done();
            Ok(())
        })
    }

    /// Fault-tolerant broadcast: flat fan-out from `root` to every
    /// rank not acknowledged dead, with a bounded wait on the receive
    /// side.
    ///
    /// Instead of the binomial tree (where a dead interior node
    /// severs its whole subtree) the root sends to each live rank
    /// directly, so one death never blocks an unrelated rank.
    /// Non-root ranks give up with [`CommError::Timeout`] after
    /// `timeout`, or [`CommError::RankDead`] as soon as the root is
    /// known dead. [`Comm::bcast`] dispatches here automatically when
    /// fault injection is armed.
    fn bcast_timed<T: CollElem>(
        &mut self,
        buf: &mut Vec<T>,
        root: usize,
        timeout: Duration,
    ) -> Result<(), CommError> {
        self.fault_gate()?;
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        with_collective(self, "bcast", true, |comm, tag| {
            if comm.rank() == root {
                // Encode once and install the decoded image locally,
                // so the root agrees bitwise with every receiver even
                // under a lossy codec.
                let img = comm.codec_encode(T::wrap(buf.clone()));
                *buf = decoded_vec::<T>(img.clone(), root, tag)?;
                // Skip on *acknowledged* deaths only: whether the root
                // already pulled the notice of a concurrent death is a
                // race, and its byte trace must not depend on it.
                for dst in 0..size {
                    if dst != root && !comm.is_acked(dst) {
                        comm.send(dst, tag, img.clone())?;
                    }
                }
            } else {
                *buf = comm.recv_vec_timeout::<T>(Src::Of(root), tag, timeout)?;
            }
            comm.push_event(CommEvent::Coll {
                op: "bcast",
                root,
                kind: T::KIND,
                len: buf.len(),
                first: first_u64(buf),
                ok: true,
            });
            comm.trace_collective_done();
            Ok(())
        })
    }

    /// Fault-tolerant reduce: flat fan-in to `root` with a bounded
    /// wait per contribution and deterministic recovery semantics.
    ///
    /// The root combines contributions in ascending rank order (so
    /// the result is bitwise deterministic), *drains* every live
    /// contribution even after a failure is observed (so the tag
    /// window closes cleanly and survivors stay in lockstep), and
    /// reports the first failure as [`CommError::RankDead`] — after
    /// evicting a rank whose contribution timed out without a death
    /// notice. [`Comm::reduce`] dispatches here automatically when
    /// fault injection is armed.
    fn reduce_timed<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
        root: usize,
        timeout: Duration,
    ) -> Result<(), CommError> {
        self.fault_gate()?;
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        with_collective(self, "reduce", true, |comm, tag| {
            if comm.rank() != root {
                comm.send(root, tag, T::wrap(buf.to_vec()))?;
                comm.push_event(CommEvent::Coll {
                    op: "reduce",
                    root,
                    kind: T::KIND,
                    len: buf.len(),
                    first: None,
                    ok: true,
                });
                comm.trace_collective_done();
                return Ok(());
            }
            let mut first_err: Option<CommError> = None;
            for src in 0..size {
                if src == root {
                    continue;
                }
                if comm.is_acked(src) {
                    continue;
                }
                // A rank already known dead is still received from:
                // what it sent before dying is matched first, and
                // `RankDead` reported only for what it never sent.
                match comm.recv_vec_timeout::<T>(Src::Of(src), tag, timeout) {
                    Ok(other) => T::combine(op, buf, &other),
                    Err(CommError::RankDead { rank }) => {
                        first_err.get_or_insert(CommError::RankDead { rank });
                    }
                    Err(CommError::Timeout) => {
                        comm.evict(src);
                        first_err.get_or_insert(CommError::RankDead { rank: src });
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            // The drain above completes the collective structurally
            // even when a contribution failed, so the event is
            // recorded either way — with `ok` carrying the verdict —
            // keeping the root's trace command-aligned under faults.
            comm.push_event(CommEvent::Coll {
                op: "reduce",
                root,
                kind: T::KIND,
                len: buf.len(),
                first: None,
                ok: first_err.is_none(),
            });
            comm.trace_collective_done();
            match first_err {
                None => Ok(()),
                Some(e) => Err(e),
            }
        })
    }

    /// Fault-tolerant barrier: the star of [`schedule::star`] over the
    /// ranks not acknowledged dead, rooted at the lowest of them. The
    /// root collects an arrival from every member (evicting any that
    /// miss the window) and then releases them. In master mode the
    /// root is always rank 0; in a re-stitched masterless world it is
    /// the surviving coordinator. Reports the first failure as
    /// [`CommError::RankDead`]; [`Comm::barrier`] dispatches here
    /// automatically when fault injection is armed.
    fn barrier_timed(&mut self) -> Result<(), CommError> {
        self.fault_gate()?;
        if self.size() == 1 {
            return Ok(());
        }
        let parts = live_parts(self);
        let Some(pos) = parts.iter().position(|&r| r == self.rank()) else {
            return Err(CommError::RankDead { rank: self.rank() });
        };
        let root = parts[0];
        let timeout = self.ft_timeout_for_root(root);
        with_collective(self, "barrier", false, |comm, tag| {
            let mut first_err: Option<CommError> = None;
            for hop in schedule::star(pos, parts.len()) {
                match hop {
                    Hop::Send { to, window, .. } => {
                        let t = tag + u64::from(window);
                        // The root skips the release to a rank it knows
                        // is dead.
                        if pos != 0 || !comm.is_dead(parts[to]) {
                            comm.send(parts[to], t, Payload::Empty)?;
                        }
                    }
                    Hop::Recv { from, window, .. } => {
                        let t = tag + u64::from(window);
                        let src = parts[from];
                        match comm.recv_timeout(Src::Of(src), t, timeout) {
                            Ok(_) => {}
                            // A member waiting on its release gives up.
                            Err(e) if pos != 0 => return Err(e),
                            // The root drains every arrival, keeping the
                            // first failure.
                            Err(CommError::Timeout) => {
                                comm.evict(src);
                                first_err.get_or_insert(CommError::RankDead { rank: src });
                            }
                            Err(e) => {
                                first_err.get_or_insert(e);
                            }
                        }
                    }
                    Hop::Own { .. } => {}
                }
            }
            comm.push_event(CommEvent::Coll {
                op: "barrier",
                root,
                kind: "Empty",
                len: 0,
                first: None,
                ok: first_err.is_none(),
            });
            comm.trace_collective_done();
            first_err.map_or(Ok(()), Err)
        })
    }

    /// Allreduce: every rank ends with the full reduction.
    ///
    /// Uses recursive doubling for power-of-two world sizes (the BG/Q
    /// partition sizes 1024/2048/4096/8192 all are), otherwise
    /// reduce-to-0 followed by broadcast.
    pub fn allreduce<T: CollElem>(
        &mut self,
        buf: &mut Vec<T>,
        op: ReduceOp,
    ) -> Result<(), CommError> {
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        if size.is_power_of_two() {
            with_collective(self, "allreduce", false, |comm, tag| {
                let rank = comm.rank();
                let mut mask = 1usize;
                while mask < size {
                    let partner = rank ^ mask;
                    // Deterministic exchange: send then receive (the
                    // unbounded channels make this deadlock-free).
                    comm.send(partner, tag + 1, T::wrap(buf.clone()))?;
                    let other = comm.recv_vec::<T>(Src::Of(partner), tag + 1)?;
                    // Combine in a rank-independent order: lower rank's
                    // data is always the left operand, so all ranks
                    // compute bitwise-identical results.
                    if rank < partner {
                        T::combine(op, buf, &other);
                    } else {
                        let mut acc = other;
                        T::combine(op, &mut acc, buf);
                        *buf = acc;
                    }
                    mask <<= 1;
                }
                comm.push_event(CommEvent::Coll {
                    op: "allreduce",
                    root: 0,
                    kind: T::KIND,
                    len: buf.len(),
                    first: None,
                    ok: true,
                });
                comm.trace_collective_done();
                Ok(())
            })
        } else {
            // Non-power-of-two worlds decompose into reduce + bcast,
            // which record their own events.
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
    /// Fault-tolerant under a non-empty fault plan: every hop receive
    /// is bounded by the plan's peer window, and a dead neighbour
    /// surfaces as [`CommError::RankDead`] naming the lowest
    /// unacknowledged dead rank — the rank the recovery round will
    /// evict — rather than wedging the ring. The exchange runs over
    /// the *acknowledged-live* membership, so after the recovery
    /// driver's membership-agreement round the same entry point is the
    /// re-stitched ring over survivors. Starvation is structural: when
    /// a member dies mid-collective, its downstream neighbour fails on
    /// the missing hop and every rank further downstream starves in
    /// turn within the same invocation, so all survivors abort the
    /// *same* collective sequence number and re-enter recovery in
    /// lockstep.
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
    /// the result is bitwise identical to that flat decomposition —
    /// the hierarchical drop-in for code that previously
    /// rendezvoused at the master. Latency is `2·⌈log₂ P⌉` hops with
    /// the full vector per hop; prefer [`Comm::allreduce_ring`] for
    /// bandwidth-bound sizes.
    ///
    /// Codec-armed: rank 0 encodes the reduced vector once and the
    /// broadcast phase forwards the wire image untouched, so all
    /// ranks end bit-identical even under a lossy codec.
    ///
    /// Fault-tolerant under a non-empty fault plan exactly like
    /// [`Comm::allreduce_ring`]: the tree is re-parented over the
    /// acknowledged-live membership, and a dead interior node starves
    /// its parent in the reduce and its subtree in the broadcast,
    /// within this invocation's tag window.
    pub fn allreduce_tree<T: CollElem>(
        &mut self,
        buf: &mut [T],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        self.allreduce_masterless("allreduce_tree", buf, op, |_| schedule::tree)
    }

    /// The entry body shared by the two masterless allreduces: run the
    /// schedule `pick` chooses for the participant count over the
    /// acknowledged-live ranks. Hops are unbounded fault-free and
    /// bounded by the plan's peer window when a non-empty fault plan
    /// is armed.
    fn allreduce_masterless<T: CollElem>(
        &mut self,
        name: &'static str,
        buf: &mut [T],
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
        let parts = live_parts(self);
        let schedule = pick(parts.len());
        let n = buf.len();
        with_collective(self, name, true, |comm, tag| {
            let r = exchange(comm, buf, op, tag, &parts, schedule, timeout);
            comm.push_event(CommEvent::Coll {
                op: name,
                root: parts[0],
                kind: T::KIND,
                len: n,
                first: None,
                ok: r.is_ok(),
            });
            comm.trace_collective_done();
            r
        })
    }

    /// Dissemination barrier ([`schedule::dissemination`]); the timed
    /// star barrier when a non-empty fault plan is armed.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        if self.ft() {
            return self.barrier_timed();
        }
        let size = self.size();
        if size == 1 {
            return Ok(());
        }
        let rank = self.rank();
        with_collective(self, "barrier", false, |comm, tag| {
            for hop in schedule::dissemination(rank, size) {
                match hop {
                    Hop::Send { to, window, .. } => {
                        let t = tag + u64::from(window);
                        comm.send(to, t, Payload::Empty)?;
                    }
                    Hop::Recv { from, window, .. } => {
                        let t = tag + u64::from(window);
                        comm.recv(Src::Of(from), t)?;
                    }
                    Hop::Own { .. } => {}
                }
            }
            comm.push_event(CommEvent::Coll {
                op: "barrier",
                root: 0,
                kind: "Empty",
                len: 0,
                first: None,
                ok: true,
            });
            comm.trace_collective_done();
            Ok(())
        })
    }

    fn trace_collective_done(&mut self) {
        self.trace.on_collective_done();
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
