//! Collectives stop allocating wire payloads after one round.
//!
//! Every rank keeps the payloads it has consumed and builds the next
//! images it sends in their buffers, so a loop of ring, tree,
//! broadcast and reduce collectives (from and to every root) under
//! every wire codec allocates its payloads in the first round only, at
//! every world size from 2 to 5. A counting global allocator sees that: the vector is long enough
//! that every payload — down to an int8 ring chunk at 5 ranks — is at
//! least 16 KiB, while everything else a collective allocates (hop
//! lists, participant lists, trace entries) is a few hundred bytes.
//! Each rank's pool stays bounded: at most four payloads of each kind,
//! so never more than four whole vectors of each kind's bytes.
//!
//! The allocator counts the whole process, so this is the only test in
//! its binary.

use pdnn_mpisim::{run_world, ReduceOp, WireCodec};
use pdnn_util::alloc_count::{self, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Smaller than any payload of the loop, larger than any other
/// allocation a collective makes.
const LARGE: usize = 16 << 10;

/// Elements per collective: an int8 ring chunk at 5 ranks is ~26 KiB.
const N: usize = 1 << 17;
const ROUNDS: usize = 3;

#[test]
fn collective_loop_allocates_payloads_in_its_first_round_only() {
    alloc_count::set_large(LARGE);
    for size in 2..=5 {
        let out = run_world(size, |comm| {
            let me = comm.rank();
            let mut buf: Vec<f32> = (0..N).map(|i| ((i * 7 + me) % 13) as f32 - 6.0).collect();
            let mut root_buf = buf.clone();
            let mut after_first = 0;
            for round in 0..ROUNDS {
                for codec in [WireCodec::None, WireCodec::F16, WireCodec::Int8] {
                    comm.set_wire_codec(codec);
                    comm.allreduce_ring(&mut buf, ReduceOp::Sum).unwrap();
                    comm.allreduce_tree(&mut buf, ReduceOp::Sum).unwrap();
                    for b in &mut buf {
                        *b /= size as f32 * size as f32;
                    }
                    // An operand broadcast, then a sum reduced to the
                    // same root: the master's command exchange.
                    for root in 0..size {
                        comm.bcast(&mut root_buf, root).unwrap();
                        comm.reduce(&mut root_buf, ReduceOp::Sum, root).unwrap();
                        root_buf.copy_from_slice(&buf);
                    }
                }
                // Every rank is past the round before rank 0 reads the
                // counter, and none starts the next before it has.
                comm.barrier().unwrap();
                if round == 0 && me == 0 {
                    after_first = alloc_count::large_allocs();
                }
                comm.barrier().unwrap();
            }
            let pool = comm.payload_pool();
            let later = alloc_count::large_allocs();
            (after_first, later, pool.high_water_bytes(), pool.len())
        });
        let (first_allocs, later_allocs, _, _) = out[0].result;
        assert_eq!(
            later_allocs,
            first_allocs,
            "{size} ranks: {} payload-sized allocations after the first round",
            later_allocs - first_allocs
        );
        // Four of each kind: f32 (4 bytes), f16 (2) and int8 (1).
        let bound = 4 * (4 + 2 + 1) * N as u64;
        for (rank, o) in out.iter().enumerate() {
            let (_, _, high_water, held) = o.result;
            assert!(high_water > 0, "{size} ranks, rank {rank}: pool never used");
            assert!(
                high_water <= bound && held <= 12,
                "{size} ranks, rank {rank}: pool holds {held} payloads, high water {high_water} B"
            );
        }
    }
}
