//! The process-wide solo-lasso store behind the sweep's exact-decide
//! executor — the decide-path sibling of [`crate::trace_cache`].
//!
//! **Key.** A basic-walk solo lasso (`rvz_lowerbounds::decide::SoloLasso`)
//! is a pure function of `(tree, start)`, and within a sweep the tree is a
//! pure function of `(family, n, tree_seed)` — so the store key is
//! `(family, n, tree_seed, start, variant)`, exactly the trace store's key.
//! The variant axis is constant today (only [`Variant::BasicWalkFsa`] has
//! an exported configuration space) but kept in the key so the two stores
//! stay shape-identical and a future decidable variant slots in without a
//! migration.
//!
//! **Growth.** Unlike a trace recording, a lasso is *complete* at birth:
//! [`SoloLasso::tabulate`] walks the solo run to its first repeated
//! configuration and stops, so slots hold an immutable `Arc<SoloLasso>`
//! and need no per-slot lock or extension protocol. Every `(delay, pair)`
//! cell of a sub-grid shares the two tabulations of its endpoints; the
//! ∀-delay quantifier shares one tabulation across every delay class it
//! checks; grid reruns (benchmark repetitions, overlapping experiments)
//! share all of them. Two threads racing on a cold key may both tabulate —
//! the loser's copy is dropped; results are pure either way — in exchange
//! for never holding the store lock across a tabulation.
//!
//! **Bounds / eviction.** The store holds at most [`MAX_STORE_KEYS`]
//! lassos (a lasso is `O(stem + period)` = `O(Δ·n)` node ids, a few KiB
//! at sweep sizes). A full store evicts *per key*, and only keys no worker
//! currently holds (slot `Arc` strong count 1), mirroring the trace
//! store's policy: a held `Arc` keeps naming its lasso, so eviction can
//! never invalidate a decision in flight — at worst a re-tabulation later.

use crate::sweep::{Family, SweepInstance, Variant};
use rvz_lowerbounds::decide::SoloLasso;
use rvz_trees::NodeId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Store capacity in lassos; a full store evicts idle keys only.
const MAX_STORE_KEYS: usize = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct StoreKey {
    family: Family,
    /// Requested grid size (with `tree_seed`, determines the exact tree).
    n: usize,
    tree_seed: u64,
    start: NodeId,
    variant: Variant,
}

/// A shared, immutable lasso slot.
pub(crate) type Slot = Arc<SoloLasso>;

static STORE: OnceLock<Mutex<HashMap<StoreKey, Slot>>> = OnceLock::new();

/// The memoized solo lasso for `(family, n, tree_seed, start, variant)`,
/// tabulating outside the store lock on first use.
pub(crate) fn lasso(
    inst: &SweepInstance,
    family: Family,
    n: usize,
    variant: Variant,
    start: NodeId,
) -> Slot {
    let key = StoreKey { family, n, tree_seed: inst.tree_seed, start, variant };
    let store = STORE.get_or_init(Mutex::default);
    if let Some(hit) = store.lock().expect("solo store lock").get(&key) {
        return hit.clone();
    }
    let built = Arc::new(SoloLasso::tabulate(&inst.tree, inst.basic_walk_fsa(), start));
    let mut map = store.lock().expect("solo store lock");
    if map.len() >= MAX_STORE_KEYS && !map.contains_key(&key) {
        // Per-key eviction: drop only idle lassos (strong count 1 ⇒ the
        // map holds the sole reference), just enough to admit the new key.
        // If every slot is in use the store briefly exceeds the cap;
        // admitting the key is strictly better than re-tabulating it on
        // the next cell.
        let need = map.len() + 1 - MAX_STORE_KEYS;
        let idle: Vec<StoreKey> = map
            .iter()
            .filter(|(_, slot)| Arc::strong_count(slot) == 1)
            .map(|(k, _)| *k)
            .take(need)
            .collect();
        for k in idle {
            map.remove(&k);
        }
    }
    // A racing thread may have inserted first; its copy wins (ours drops).
    map.entry(key).or_insert(built).clone()
}

/// Snapshots the store for persistence: every lasso as
/// `(family, n, tree_seed, start, variant, lasso bytes)`, in canonical
/// key order (byte-identical files across runs with equal contents).
pub(crate) fn export() -> Vec<(Family, usize, u64, NodeId, Variant, Vec<u8>)> {
    let map = STORE.get_or_init(Mutex::default).lock().expect("solo store lock");
    let mut out: Vec<_> = map
        .iter()
        .map(|(k, slot)| (k.family, k.n, k.tree_seed, k.start, k.variant, slot.to_bytes()))
        .collect();
    out.sort_by(|a, b| {
        (a.0.name(), a.1, a.2, a.3, a.4.name()).cmp(&(b.0.name(), b.1, b.2, b.3, b.4.name()))
    });
    out
}

/// Installs a restored (and already re-verified — see
/// [`crate::stores`]) lasso under its key. `false` when the key is
/// already live or the store is at capacity.
pub(crate) fn install_restored(
    family: Family,
    n: usize,
    tree_seed: u64,
    start: NodeId,
    variant: Variant,
    lasso: SoloLasso,
) -> bool {
    let key = StoreKey { family, n, tree_seed, start, variant };
    let mut map = STORE.get_or_init(Mutex::default).lock().expect("solo store lock");
    if map.len() >= MAX_STORE_KEYS || map.contains_key(&key) {
        return false;
    }
    map.insert(key, Arc::new(lasso));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{Cell, Delay};

    fn line_cell(n: usize, seed: u64) -> Cell {
        Cell {
            experiment: Arc::from("solo-cache-test"),
            family: Family::Line,
            n,
            delay: Delay::Zero,
            variant: Variant::BasicWalkFsa,
            pair_index: 0,
            pairs_total: 1,
            base_seed: seed,
            tree_index: None,
            agents: 2,
        }
    }

    #[test]
    fn eviction_is_per_key_and_never_drops_held_slots() {
        // Hold one slot's Arc, then insert enough distinctly-seeded keys
        // to overflow the store (tree_seed is in the key, so re-seeding
        // the same line family mints fresh keys). The held key must keep
        // resolving to the *same* lasso (pointer-identical); idle keys
        // are evicted instead.
        let held_cell = line_cell(6, 0xD1CE);
        let held_inst = SweepInstance::for_cell(&held_cell);
        let held = lasso(&held_inst, Family::Line, 6, Variant::BasicWalkFsa, 0);
        assert_eq!(held.position(0), 0);

        let per_instance = 8;
        let instances_needed = MAX_STORE_KEYS / per_instance + 2;
        for seed in 0..instances_needed as u64 {
            let mut cell = line_cell(8, 0);
            cell.base_seed = seed;
            let inst = SweepInstance::for_cell(&cell);
            for start in 0..per_instance as NodeId {
                let _ = lasso(&inst, Family::Line, 8, Variant::BasicWalkFsa, start);
            }
        }

        let again = lasso(&held_inst, Family::Line, 6, Variant::BasicWalkFsa, 0);
        assert!(Arc::ptr_eq(&held, &again), "held slot must survive eviction pressure");
    }
}
