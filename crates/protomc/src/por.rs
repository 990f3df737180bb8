//! Sleep-set partial-order reduction.
//!
//! The unreduced explorer ([`crate::explorer::explore`]) enumerates
//! every interleaving; most of them differ only in the order of
//! independent micro-steps (e.g. the master's fan-out send to worker
//! 1 commutes with worker 2's gradient send). Sleep sets (Godefroid)
//! prune those commuting re-orderings: after exploring transition `t`
//! from a state, every sibling explored later puts `t` to sleep in
//! its subtree for as long as the executed transitions stay
//! independent of `t` — the `t`-first orderings have already been
//! covered.
//!
//! Independence is footprint disjointness over {rank program
//! counters} ∪ {channels}: a send touches its own rank and the
//! outgoing channel; a receive touches its own rank, the channel,
//! and the *peer's* rank (a kill of the peer changes a drain's
//! outcome, so kills and receives from the victim must stay
//! dependent); a kill touches the victim's rank.
//!
//! State caching keeps the sleep sets sound across DAG re-visits: a
//! state is re-expanded unless an earlier expansion used a sleep set
//! no larger than the current one (that earlier visit covered a
//! superset of the behaviors). Every reachable *state* is still
//! visited, so the deadlock/terminal property checks see the same
//! verdicts as the full run — [`crate::run_check`] asserts that
//! agreement on every world it proves.

use crate::explorer::{
    apply, classify, independent, kill_site, transitions, ExploreOutcome, Footprint,
    State as ProtoState, TransId, Violation,
};
use crate::spec::ProtoSpec;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

type Sleep = Vec<(TransId, Footprint)>;

struct Frame {
    state: ProtoState,
    /// Canonical encoding of `state` (edge-dedup key component).
    key: Vec<u8>,
    trans: Vec<(TransId, Footprint)>,
    idx: usize,
    sleep: Sleep,
    /// Siblings already fully explored from this state.
    done: Sleep,
    /// Transition (and footprint) that produced this frame, used to
    /// extend the parent's `done` set when the subtree finishes.
    via: Option<(TransId, Footprint)>,
}

fn sleep_ids(sleep: &Sleep) -> BTreeSet<TransId> {
    sleep.iter().map(|(id, _)| *id).collect()
}

/// Hash an explored edge (source state, transition) down to 64 bits
/// for the distinct-transition count. `DefaultHasher::new()` uses
/// fixed keys, so counts are deterministic across runs.
fn edge_key(state_key: &[u8], id: TransId) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    state_key.hash(&mut h);
    id.hash(&mut h);
    h.finish()
}

/// Sleep-set depth-first exploration. Verdict-equivalent to
/// [`crate::explorer::explore`] but with commuting interleavings
/// pruned; the caller compares both outcomes.
pub fn explore_reduced(spec: &ProtoSpec, workers: usize, budget: u8) -> ExploreOutcome {
    let init = ProtoState::init(spec, workers, budget);
    // Sleep-set footprints each distinct state has been expanded
    // under. A new visit is redundant iff some recorded set is a
    // subset of its sleep set.
    let mut visited: HashMap<Vec<u8>, Vec<BTreeSet<TransId>>> = HashMap::new();
    // Distinct (state, transition) edges explored. A state re-expanded
    // under an incomparable sleep set re-walks some edges; counting
    // raw steps would overstate the work relative to the full run's
    // once-per-edge enumeration.
    let mut edges: HashSet<u64> = HashSet::new();
    let mut terminals = 0usize;
    let mut violations = BTreeSet::new();
    let mut kill_sites = BTreeSet::new();

    let init_key = init.encode();
    visited.insert(init_key.clone(), vec![BTreeSet::new()]);
    let mut stack: Vec<Frame> = Vec::new();
    push_frame(
        spec,
        init,
        init_key,
        Vec::new(),
        None,
        true,
        &mut stack,
        &mut terminals,
        &mut violations,
    );

    while let Some(top) = stack.last_mut() {
        let next = loop {
            if top.idx >= top.trans.len() {
                break None;
            }
            let (id, fp) = top.trans[top.idx];
            top.idx += 1;
            if top.sleep.iter().any(|(z, _)| *z == id) {
                continue;
            }
            break Some((id, fp));
        };
        let (id, fp) = match next {
            Some(t) => t,
            None => {
                // Subtree finished: wake the parent and record this
                // transition as explored there.
                let via = top.via;
                stack.pop();
                if let (Some(parent), Some(v)) = (stack.last_mut(), via) {
                    parent.done.push(v);
                }
                continue;
            }
        };
        if id.kill {
            kill_sites.insert(kill_site(&top.state, id.rank));
        }
        edges.insert(edge_key(&top.key, id));
        let child = apply(spec, &top.state, id);
        // Transitions independent of `id` that were already explored
        // (or inherited asleep) stay asleep in the child.
        let mut child_sleep: Sleep = Vec::new();
        for (z, zfp) in top.sleep.iter().chain(top.done.iter()) {
            if independent(zfp, &fp) {
                child_sleep.push((*z, *zfp));
            }
        }
        let ids = sleep_ids(&child_sleep);
        let child_key = child.encode();
        let recorded = visited.entry(child_key.clone()).or_default();
        if recorded.iter().any(|r| r.is_subset(&ids)) {
            continue;
        }
        let first_visit = recorded.is_empty();
        recorded.retain(|r| !ids.is_subset(r));
        recorded.push(ids);
        push_frame(
            spec,
            child,
            child_key,
            child_sleep,
            Some((id, fp)),
            first_visit,
            &mut stack,
            &mut terminals,
            &mut violations,
        );
    }

    ExploreOutcome {
        states: visited.len(),
        transitions: edges.len(),
        terminals,
        kill_placements: kill_sites.len(),
        violations: violations.into_iter().collect(),
    }
}

#[allow(clippy::too_many_arguments)]
fn push_frame(
    spec: &ProtoSpec,
    state: ProtoState,
    key: Vec<u8>,
    sleep: Sleep,
    via: Option<(TransId, Footprint)>,
    first_visit: bool,
    stack: &mut Vec<Frame>,
    terminals: &mut usize,
    violations: &mut BTreeSet<Violation>,
) {
    let trans = transitions(spec, &state);
    let prog_enabled = trans.iter().any(|(id, _)| !id.kill);
    // Properties depend on the state alone; classify once per
    // distinct state so terminal counts match the full run.
    if first_visit && classify(spec, &state, prog_enabled, violations) {
        *terminals += 1;
    }
    stack.push(Frame {
        state,
        key,
        trans,
        idx: 0,
        sleep,
        done: Vec::new(),
        via,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn reduced_run_agrees_with_full_run_and_prunes_transitions() {
        let spec = spec::compile();
        for (workers, budget) in [(1usize, 0u8), (1, 1), (2, 1)] {
            let full = crate::explorer::explore(&spec, workers, budget);
            let reduced = explore_reduced(&spec, workers, budget);
            assert_eq!(
                full.violations, reduced.violations,
                "verdicts diverge on {workers} workers, budget {budget}"
            );
            assert_eq!(
                full.kill_placements, reduced.kill_placements,
                "kill coverage diverges on {workers} workers"
            );
            assert!(
                reduced.transitions <= full.transitions,
                "reduction added transitions on {workers} workers: {} > {}",
                reduced.transitions,
                full.transitions
            );
            // On a genuinely concurrent world the reduction must bite.
            if workers == 2 {
                assert!(
                    reduced.transitions < full.transitions,
                    "sleep sets pruned nothing on the 3-rank world"
                );
            }
        }
    }

    /// Terminal counting: the reduced run visits every distinct
    /// state the full run visits (sleep sets prune transitions, not
    /// states), so terminal counts must agree exactly.
    #[test]
    fn reduced_run_sees_every_terminal() {
        let spec = spec::compile();
        let full = crate::explorer::explore(&spec, 2, 1);
        let reduced = explore_reduced(&spec, 2, 1);
        assert_eq!(full.terminals, reduced.terminals);
        assert_eq!(full.states, reduced.states);
    }
}
