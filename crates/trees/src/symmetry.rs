//! Symmetry analysis: automorphisms, symmetry with respect to a labeling,
//! topological symmetry, and the paper's central notion of **perfect
//! symmetrizability** (Definition 1.2) with its feasibility consequence
//! (Fact 1.1).
//!
//! # What counts as an automorphism of a free tree with ports
//!
//! A tree here is *anonymous but port-labeled*: nodes carry no identifiers an
//! agent can read, but each node numbers its incident edges `0..degree`. An
//! **automorphism** is a node bijection preserving adjacency
//! ([`is_automorphism`]); a **port-preserving** automorphism additionally
//! maps the edge leaving `u` through port `p` to the edge leaving `f(u)`
//! through the *same* port `p` ([`preserves_ports`]). Only port-preserving
//! automorphisms are invisible to a deterministic agent, because ports and
//! degrees are everything an agent observes.
//!
//! The decision procedures all reduce to canonical-form comparisons via the
//! following structural lemma (see `docs/architecture.md`, "Symmetry"): a
//! port-preserving automorphism that fixes a node must fix all its incident
//! edges (ports are distinct), hence fixes the node's neighbors, hence — by
//! induction along the tree — is the identity. Consequently every
//! *non-trivial* port-preserving automorphism is fixed-point-free, and a
//! fixed-point-free tree automorphism inverts the central edge. So a
//! port-labeled tree has **at most one** non-trivial port-preserving
//! automorphism — the central-edge flip ([`port_preserving_flip`]) — and its
//! full port-preserving automorphism group has order 1 or 2. Likewise, an
//! automorphism realizable by *some* labeling can be chosen to be an
//! involution swapping the two central-edge halves.
//!
//! # Orbits of start pairs
//!
//! [`pair_orbits`] exploits that tiny group to quotient *ordered start
//! pairs*: two pairs that differ by the flip (and, for schedules that treat
//! the two agents identically, by exchanging the agents) produce the same
//! rendezvous verdict, so an exact decider need only decide one
//! representative per orbit and replicate the verdict — remapping any
//! certificate through the flip — to the rest. See `docs/executors.md` for
//! how the sweep engine applies this.

use crate::canon::{canon_ports, canon_structural};
use crate::center::{center, Center};
use crate::tree::{NodeId, Port, Tree};

/// Does `f` (a node bijection given as a table) preserve adjacency?
pub fn is_automorphism(t: &Tree, f: &[NodeId]) -> bool {
    if f.len() != t.num_nodes() {
        return false;
    }
    let mut seen = vec![false; t.num_nodes()];
    for &y in f {
        if (y as usize) >= t.num_nodes() || seen[y as usize] {
            return false;
        }
        seen[y as usize] = true;
    }
    t.edges().iter().all(|e| {
        let (fu, fv) = (f[e.u as usize], f[e.v as usize]);
        t.port_towards(fu, fv).is_some()
    })
}

/// Does the automorphism `f` preserve the port labeling of `t`?
pub fn preserves_ports(t: &Tree, f: &[NodeId]) -> bool {
    if !is_automorphism(t, f) {
        return false;
    }
    (0..t.num_nodes() as NodeId).all(|u| {
        (0..t.degree(u)).all(|p| {
            let v = t.neighbor(u, p);
            // Edge {u,v} with port p at u must map to an edge {f(u),f(v)}
            // with the same port at f(u).
            t.neighbor(f[u as usize], p) == f[v as usize]
        })
    })
}

/// The unique non-trivial port-preserving automorphism of `t`, if any: the
/// central-edge flip. Returns the full node map.
pub fn port_preserving_flip(t: &Tree) -> Option<Vec<NodeId>> {
    let Center::Edge(x, y) = center(t) else {
        // A flip fixing the central node would fix everything.
        return None;
    };
    let px = t.port_towards(x, y).expect("adjacent");
    let py = t.port_towards(y, x).expect("adjacent");
    if px != py {
        return None;
    }
    // Parallel port-directed DFS from (x ↦ y): forced pairing; fails iff
    // degrees or ports mismatch anywhere.
    let n = t.num_nodes();
    let mut f = vec![NodeId::MAX; n];
    f[x as usize] = y;
    f[y as usize] = x;
    let mut stack = vec![(x, y, Some(y), Some(x))];
    while let Some((a, b, skip_a, skip_b)) = stack.pop() {
        if t.degree(a) != t.degree(b) {
            return None;
        }
        for p in 0..t.degree(a) {
            let wa = t.neighbor(a, p);
            let wb = t.neighbor(b, p);
            let skip_this_a = Some(wa) == skip_a;
            let skip_this_b = Some(wb) == skip_b;
            if skip_this_a != skip_this_b {
                return None;
            }
            if skip_this_a {
                continue;
            }
            // The edge's far-end ports must match for a port-preserving map.
            if t.entry_port(a, p) != t.entry_port(b, p) {
                return None;
            }
            f[wa as usize] = wb;
            f[wb as usize] = wa;
            stack.push((wa, wb, Some(a), Some(b)));
        }
    }
    debug_assert!(preserves_ports(t, &f));
    Some(f)
}

/// Is the labeled tree *symmetric* in the paper's sense (§2.2): does a
/// non-trivial automorphism preserving the port labeling exist?
pub fn is_symmetric(t: &Tree) -> bool {
    port_preserving_flip(t).is_some()
}

/// Are `u` and `v` symmetric *with respect to the given labeling* (an
/// automorphism preserving the labeling maps `u` to `v`)? `u == v` is
/// trivially symmetric (identity).
pub fn symmetric_wrt_labeling(t: &Tree, u: NodeId, v: NodeId) -> bool {
    if u == v {
        return true;
    }
    match port_preserving_flip(t) {
        Some(f) => f[u as usize] == v,
        None => false,
    }
}

/// Are `u` and `v` *topologically symmetric* (some automorphism, ports
/// ignored, maps `u` to `v`)?
pub fn topologically_symmetric(t: &Tree, u: NodeId, v: NodeId) -> bool {
    if u == v {
        return true;
    }
    crate::canon::unrooted_canon_structural(t, Some(u))
        == crate::canon::unrooted_canon_structural(t, Some(v))
}

/// Definition 1.2: are `u` and `v` **perfectly symmetrizable** — does there
/// exist a port labeling `µ` of `t` and an automorphism preserving `µ`
/// carrying one node onto the other?
///
/// Decision procedure (docs/design-notes.md §D3): true iff `t` has a central edge
/// `{x, y}` separating `u` from `v` and the rooted halves with marks,
/// `(T_x, x, u)` and `(T_y, y, v)`, are isomorphic as (unlabeled) rooted
/// marked trees. (`u == v` is trivially perfectly symmetrizable via the
/// identity; Fact 1.1 implicitly concerns distinct starts.)
pub fn perfectly_symmetrizable(t: &Tree, u: NodeId, v: NodeId) -> bool {
    if u == v {
        return true;
    }
    let Center::Edge(x, y) = center(t) else {
        return false;
    };
    // Which half is each node in? The half of x is the component of x after
    // removing {x,y}.
    let in_x_half = {
        let mut seen = vec![false; t.num_nodes()];
        seen[x as usize] = true;
        let mut stack = vec![x];
        while let Some(a) = stack.pop() {
            for p in 0..t.degree(a) {
                let b = t.neighbor(a, p);
                if (a, b) == (x, y) || (a, b) == (y, x) {
                    continue;
                }
                if !seen[b as usize] {
                    seen[b as usize] = true;
                    stack.push(b);
                }
            }
        }
        seen
    };
    let (a, b) = if in_x_half[u as usize] && !in_x_half[v as usize] {
        (u, v)
    } else if in_x_half[v as usize] && !in_x_half[u as usize] {
        (v, u)
    } else {
        return false;
    };
    canon_structural(t, x, Some(y), Some(a)) == canon_structural(t, y, Some(x), Some(b))
}

/// For a perfectly symmetrizable pair, constructs an explicit witness: a
/// relabeled tree `t'` (same structure, new ports) and the involution `f`
/// preserving `t'`'s ports with `f(u) = v`. Returns `None` when the pair is
/// not perfectly symmetrizable. Used by tests to validate the decision
/// procedure's "yes" side constructively.
pub fn symmetrization_witness(t: &Tree, u: NodeId, v: NodeId) -> Option<(Tree, Vec<NodeId>)> {
    if u == v || !perfectly_symmetrizable(t, u, v) {
        return None;
    }
    let Center::Edge(x, y) = center(t) else { unreachable!("checked above") };
    // Orient: u in the x-half.
    let (u, v, x, y) = {
        let mut seen = vec![false; t.num_nodes()];
        seen[x as usize] = true;
        let mut stack = vec![x];
        while let Some(a) = stack.pop() {
            for p in 0..t.degree(a) {
                let b = t.neighbor(a, p);
                if (a, b) == (x, y) || (a, b) == (y, x) {
                    continue;
                }
                if !seen[b as usize] {
                    seen[b as usize] = true;
                    stack.push(b);
                }
            }
        }
        // Orient the marks so u sits in x's half (the halves themselves
        // stay put — swapping both would de-synchronize marks and halves).
        if seen[u as usize] {
            (u, v, x, y)
        } else {
            (v, u, x, y)
        }
    };
    // Build the structural marked isomorphism (T_x, x, u) → (T_y, y, v) by
    // pairing children in canonical order.
    let n = t.num_nodes();
    let mut f = vec![NodeId::MAX; n];
    f[x as usize] = y;
    f[y as usize] = x;
    let mut stack = vec![(x, y, Some(y), Some(x))];
    while let Some((a, b, pa, pb)) = stack.pop() {
        let mut ka: Vec<NodeId> =
            t.neighbors(a).filter(|&(_, w, _)| Some(w) != pa).map(|(_, w, _)| w).collect();
        let mut kb: Vec<NodeId> =
            t.neighbors(b).filter(|&(_, w, _)| Some(w) != pb).map(|(_, w, _)| w).collect();
        if ka.len() != kb.len() {
            return None; // cannot happen if the canons matched
        }
        let key_a = |w: &NodeId| canon_structural(t, *w, Some(a), Some(u));
        let key_b = |w: &NodeId| canon_structural(t, *w, Some(b), Some(v));
        ka.sort_by_key(key_a);
        kb.sort_by_key(key_b);
        for (&wa, &wb) in ka.iter().zip(kb.iter()) {
            f[wa as usize] = wb;
            f[wb as usize] = wa;
            stack.push((wa, wb, Some(a), Some(b)));
        }
    }
    debug_assert_eq!(f[u as usize], v);
    // Build the labeling: keep T's ports on the x-half and on the central
    // edge's x side; mirror them onto the y-half through f.
    let mut perm: Vec<Vec<Port>> =
        (0..n as NodeId).map(|w| (0..t.degree(w)).collect::<Vec<Port>>()).collect();
    // For every node a in the x-half (including x), make the ports at f(a)
    // mirror the ports at a: the edge (a -> w by port p) maps to the edge
    // (f(a) -> f(w)) which must also get port p.
    let mut seen = vec![false; n];
    seen[x as usize] = true;
    let mut order = vec![x];
    let mut si = 0;
    while si < order.len() {
        let a = order[si];
        si += 1;
        for p in 0..t.degree(a) {
            let w = t.neighbor(a, p);
            if (a, w) == (x, y) {
                continue;
            }
            if !seen[w as usize] {
                seen[w as usize] = true;
                order.push(w);
            }
        }
    }
    for &a in &order {
        let b = f[a as usize];
        // perm[b][old_port_at_b_for_edge_to_f(w)] = port at a for edge to w.
        let mut new_ports = vec![Port::MAX; t.degree(b) as usize];
        for p in 0..t.degree(a) {
            let w = t.neighbor(a, p);
            let fw = f[w as usize];
            let old_port_at_b = t.port_towards(b, fw).expect("f preserves adjacency");
            new_ports[old_port_at_b as usize] = p;
        }
        perm[b as usize] = new_ports;
    }
    let relabeled = t.relabeled(&perm).ok()?;
    if preserves_ports(&relabeled, &f) && f[u as usize] == v {
        Some((relabeled, f))
    } else {
        None
    }
}

/// How an orbit member is reached from its orbit representative: apply the
/// central-edge flip to both coordinates (`flip`), then exchange the
/// coordinates (`swap`). The two commute — the flip acts on nodes, the swap
/// on positions — so the order is immaterial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OrbitAction {
    /// Map both start nodes through the tree's port-preserving flip.
    pub flip: bool,
    /// Exchange the two agents: `[a, b] ↦ [b, a]`.
    pub swap: bool,
}

impl OrbitAction {
    /// The do-nothing action (every representative's own action).
    pub const IDENTITY: OrbitAction = OrbitAction { flip: false, swap: false };

    /// Apply this action to an ordered pair. `flip_map` must be `Some` when
    /// `self.flip` is set (it is the table from [`port_preserving_flip`]).
    pub fn apply(&self, [a, b]: [NodeId; 2], flip_map: Option<&[NodeId]>) -> [NodeId; 2] {
        let (mut a, mut b) = (a, b);
        if self.flip {
            let f = flip_map.expect("flip action requires the flip map");
            a = f[a as usize];
            b = f[b as usize];
        }
        if self.swap {
            [b, a]
        } else {
            [a, b]
        }
    }
}

/// One orbit of ordered start pairs under the group chosen in
/// [`pair_orbits`].
#[derive(Clone, Debug)]
pub struct PairOrbit {
    /// Index (into the input slice) of the representative — always the
    /// smallest member index, so output order is deterministic.
    pub rep: usize,
    /// Every orbit member present in the input, as `(index, action)` with
    /// `pairs[index] == action.apply(pairs[rep], flip)`. Sorted by index;
    /// the representative appears first with [`OrbitAction::IDENTITY`].
    pub members: Vec<(usize, OrbitAction)>,
}

/// Partition ordered start pairs into orbits under the group generated by
/// the tree's port-preserving flip (when one exists) and — iff `allow_swap`
/// — the agent exchange `[a, b] ↦ [b, a]`. The group has order at most 4.
///
/// Soundness: the flip acts on *space* and commutes with any deterministic
/// agent reading only degrees and ports, so it preserves rendezvous verdicts
/// under every activation schedule. The swap exchanges the two *agents* and
/// is sound only when the schedule treats the lanes identically (all
/// per-round activation flags equal); the caller decides and passes
/// `allow_swap = false` otherwise.
///
/// A pair whose image under a group element is absent from `pairs` simply
/// contributes no member (sampled pair pools are not closed under the
/// action); the partition of the pairs that *are* present is still
/// well-defined because "same orbit" remains an equivalence relation on
/// them. Duplicate input pairs each get their own singleton orbit rather
/// than aliasing.
pub fn pair_orbits(t: &Tree, pairs: &[[NodeId; 2]], allow_swap: bool) -> Vec<PairOrbit> {
    let flip = port_preserving_flip(t);
    let mut index_of = std::collections::HashMap::with_capacity(pairs.len());
    for (i, &p) in pairs.iter().enumerate() {
        // First occurrence wins; later duplicates fall through to singleton
        // orbits via the `assigned` scan below.
        index_of.entry(p).or_insert(i);
    }
    let mut assigned = vec![false; pairs.len()];
    let mut orbits = Vec::new();
    for rep in 0..pairs.len() {
        if assigned[rep] {
            continue;
        }
        let mut members = Vec::new();
        for swap in [false, true] {
            if swap && !allow_swap {
                continue;
            }
            for do_flip in [false, true] {
                if do_flip && flip.is_none() {
                    continue;
                }
                let action = OrbitAction { flip: do_flip, swap };
                let image = action.apply(pairs[rep], flip.as_deref());
                if let Some(&i) = index_of.get(&image) {
                    if !assigned[i] {
                        assigned[i] = true;
                        members.push((i, action));
                    }
                }
            }
        }
        if !assigned[rep] {
            // A duplicate pair whose first occurrence already claimed the
            // index map entry: decide it independently.
            assigned[rep] = true;
            members.push((rep, OrbitAction::IDENTITY));
        }
        members.sort_by_key(|&(i, _)| i);
        debug_assert_eq!(members[0], (rep, OrbitAction::IDENTITY));
        orbits.push(PairOrbit { rep, members });
    }
    orbits
}

/// The two port-labeled halves of the central edge are isomorphic (including
/// ports): used to classify the Stage-2 branch of the Theorem 4.1 agent.
pub fn halves_port_isomorphic(t: &Tree) -> bool {
    let Center::Edge(x, y) = center(t) else {
        return false;
    };
    canon_ports(t, x, Some(y), None) == canon_ports(t, y, Some(x), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        colored_line_center_zero, complete_binary, line, random_relabel, random_tree, spider,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_automorphism() {
        let t = line(6);
        let id: Vec<NodeId> = (0..6).collect();
        assert!(is_automorphism(&t, &id));
        assert!(preserves_ports(&t, &id));
    }

    #[test]
    fn colored_even_line_is_symmetric() {
        let t = colored_line_center_zero(5);
        assert!(is_symmetric(&t));
        let f = port_preserving_flip(&t).unwrap();
        assert_eq!(f, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn canonical_even_line_is_not_symmetric() {
        // `line()`'s labeling points 0 backwards everywhere: the flip does
        // not preserve it.
        let t = line(6);
        assert!(!is_symmetric(&t));
    }

    #[test]
    fn odd_line_never_symmetric() {
        for labeled in crate::generators::all_labelings(&line(5)) {
            assert!(!is_symmetric(&labeled), "odd line has a central node");
        }
    }

    #[test]
    fn leaves_of_odd_line_not_perfectly_symmetrizable() {
        // Paper §1: odd-node lines' two leaves are topologically symmetric
        // but NOT perfectly symmetrizable (central node).
        let t = line(5);
        assert!(topologically_symmetric(&t, 0, 4));
        assert!(!perfectly_symmetrizable(&t, 0, 4));
    }

    #[test]
    fn leaves_of_even_line_perfectly_symmetrizable() {
        let t = line(6);
        assert!(perfectly_symmetrizable(&t, 0, 5));
        assert!(perfectly_symmetrizable(&t, 1, 4));
        assert!(perfectly_symmetrizable(&t, 2, 3));
        assert!(!perfectly_symmetrizable(&t, 0, 4));
        assert!(!perfectly_symmetrizable(&t, 1, 5));
        // Same half: never.
        assert!(!perfectly_symmetrizable(&t, 0, 1));
    }

    #[test]
    fn complete_binary_leaves_not_perfectly_symmetrizable() {
        // Paper §1: complete binary trees have a central node.
        let t = complete_binary(3);
        let leaves = t.leaves();
        assert!(topologically_symmetric(&t, leaves[0], leaves[1]));
        assert!(!perfectly_symmetrizable(&t, leaves[0], leaves[1]));
    }

    #[test]
    fn witness_validates_yes_side() {
        let t = line(8);
        for (u, v) in [(0u32, 7u32), (2, 5), (3, 4)] {
            let (relabeled, f) = symmetrization_witness(&t, u, v).expect("pair is symmetrizable");
            assert!(preserves_ports(&relabeled, &f));
            assert_eq!(f[u as usize], v);
        }
        assert!(symmetrization_witness(&t, 0, 4).is_none());
    }

    #[test]
    fn witness_on_bigger_trees() {
        let mut rng = StdRng::seed_from_u64(21);
        // Mirror-double a random tree: two copies joined by an edge; mirror
        // nodes are perfectly symmetrizable.
        let half = random_tree(9, &mut rng);
        let n = half.num_nodes();
        let mut edges = Vec::new();
        for e in half.edges() {
            edges.push(e);
            let mut m = e;
            m.u += n as NodeId;
            m.v += n as NodeId;
            edges.push(m);
        }
        // Join roots 0 and n with a fresh port at each (degree extension).
        let d0 = half.degree(0);
        edges.push(crate::tree::Edge { u: 0, port_u: d0, v: n as NodeId, port_v: d0 });
        let doubled = Tree::from_edges(2 * n, &edges).unwrap();
        for w in 0..n as NodeId {
            assert!(
                perfectly_symmetrizable(&doubled, w, w + n as NodeId),
                "mirror pair {w} failed"
            );
            let (relabeled, f) =
                symmetrization_witness(&doubled, w, w + n as NodeId).expect("witness");
            assert!(preserves_ports(&relabeled, &f));
        }
        // Distinct non-mirror nodes in the same half: not symmetrizable.
        assert!(!perfectly_symmetrizable(&doubled, 0, 1));
    }

    #[test]
    fn symmetric_wrt_labeling_matches_flip() {
        let t = colored_line_center_zero(7); // 8 nodes, mirror labeling
        assert!(symmetric_wrt_labeling(&t, 0, 7));
        assert!(symmetric_wrt_labeling(&t, 2, 5));
        assert!(!symmetric_wrt_labeling(&t, 0, 6));
        assert!(symmetric_wrt_labeling(&t, 3, 3));
    }

    #[test]
    fn perfect_symmetrizability_is_symmetric_relation() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..20 {
            let t = random_tree(12, &mut rng);
            let t = random_relabel(&t, &mut rng);
            for u in 0..12u32 {
                for v in 0..12u32 {
                    assert_eq!(
                        perfectly_symmetrizable(&t, u, v),
                        perfectly_symmetrizable(&t, v, u)
                    );
                }
            }
        }
    }

    #[test]
    fn perfectly_symmetrizable_implies_topologically_symmetric() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..20 {
            let t = random_tree(10, &mut rng);
            for u in 0..10u32 {
                for v in 0..10u32 {
                    if perfectly_symmetrizable(&t, u, v) {
                        assert!(topologically_symmetric(&t, u, v));
                    }
                }
            }
        }
    }

    #[test]
    fn spider_is_never_perfectly_symmetrizable() {
        // Odd spider (3 legs): central node ⇒ no pair qualifies.
        let t = spider(3, 4);
        for u in 0..t.num_nodes() as NodeId {
            for v in 0..t.num_nodes() as NodeId {
                if u != v {
                    assert!(!perfectly_symmetrizable(&t, u, v));
                }
            }
        }
    }

    /// All ordered pairs of distinct nodes, in lex order (the pair-pool
    /// order `exhaustive_feasible_pairs` uses, minus the feasibility filter).
    fn all_ordered_pairs(t: &Tree) -> Vec<[NodeId; 2]> {
        let n = t.num_nodes() as NodeId;
        (0..n).flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| [a, b])).collect()
    }

    fn check_orbit_invariants(t: &Tree, pairs: &[[NodeId; 2]], allow_swap: bool) {
        let orbits = pair_orbits(t, pairs, allow_swap);
        let flip = port_preserving_flip(t);
        let mut covered = vec![false; pairs.len()];
        for orbit in &orbits {
            assert_eq!(orbit.members[0], (orbit.rep, OrbitAction::IDENTITY));
            for &(i, action) in &orbit.members {
                assert!(i >= orbit.rep, "rep must be the smallest index");
                assert!(!covered[i], "pair index {i} in two orbits");
                covered[i] = true;
                assert!(!action.swap || allow_swap);
                assert_eq!(
                    pairs[i],
                    action.apply(pairs[orbit.rep], flip.as_deref()),
                    "member {i} does not match its action"
                );
            }
        }
        assert!(covered.iter().all(|&c| c), "orbits must partition the input");
    }

    #[test]
    fn orbits_on_the_odd_line_come_only_from_swap() {
        // line(7) has a central node: no flip. Without swap every pair is
        // its own orbit; with swap the 42 ordered pairs pair up into 21.
        let t = line(7);
        let pairs = all_ordered_pairs(&t);
        assert_eq!(pairs.len(), 42);
        assert_eq!(pair_orbits(&t, &pairs, false).len(), 42);
        assert_eq!(pair_orbits(&t, &pairs, true).len(), 21);
        check_orbit_invariants(&t, &pairs, true);
    }

    #[test]
    fn orbits_on_the_mirror_labeled_even_line() {
        // 6 nodes, flip = full reversal i ↦ 5-i. 30 ordered pairs.
        // Flip alone is fixed-point-free on pairs: 15 orbits of size 2.
        // Flip + swap: the 6 anti-diagonal pairs (a, 5-a) have
        // flip == swap, giving 3 orbits of size 2; the other 24 pairs fall
        // into 6 orbits of size 4. Total 9.
        let t = colored_line_center_zero(5);
        assert!(is_symmetric(&t));
        let pairs = all_ordered_pairs(&t);
        assert_eq!(pairs.len(), 30);
        assert_eq!(pair_orbits(&t, &pairs, false).len(), 15);
        let quotiented = pair_orbits(&t, &pairs, true);
        assert_eq!(quotiented.len(), 9);
        let mut sizes: Vec<usize> = quotiented.iter().map(|o| o.members.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 2, 2, 4, 4, 4, 4, 4, 4]);
        check_orbit_invariants(&t, &pairs, false);
        check_orbit_invariants(&t, &pairs, true);
    }

    #[test]
    fn orbits_on_star_and_spider_have_no_flip() {
        // Stars and uniform odd spiders have a central node: swap is the
        // only symmetry, so orbit count = pairs / 2 exactly.
        for t in [crate::generators::star(4), spider(3, 4)] {
            assert!(port_preserving_flip(&t).is_none());
            let pairs = all_ordered_pairs(&t);
            assert_eq!(pair_orbits(&t, &pairs, true).len(), pairs.len() / 2);
            check_orbit_invariants(&t, &pairs, true);
        }
    }

    #[test]
    fn asymmetric_n7_tree_with_central_edge_has_no_flip() {
        // Spider with legs 1, 2, 3 (7 nodes): the diameter path has odd
        // length, so the tree has a central *edge* {0, 4} — but the halves
        // have 4 and 3 nodes, so no flip exists and only swap quotients.
        use crate::tree::Edge;
        let t = Tree::from_edges(
            7,
            &[
                Edge { u: 0, port_u: 0, v: 1, port_v: 0 },
                Edge { u: 0, port_u: 1, v: 2, port_v: 0 },
                Edge { u: 2, port_u: 1, v: 3, port_v: 0 },
                Edge { u: 0, port_u: 2, v: 4, port_v: 0 },
                Edge { u: 4, port_u: 1, v: 5, port_v: 0 },
                Edge { u: 5, port_u: 1, v: 6, port_v: 0 },
            ],
        )
        .unwrap();
        assert!(matches!(center(&t), Center::Edge(0, 4)));
        assert!(port_preserving_flip(&t).is_none());
        let pairs = all_ordered_pairs(&t);
        assert_eq!(pairs.len(), 42);
        assert_eq!(pair_orbits(&t, &pairs, false).len(), 42);
        assert_eq!(pair_orbits(&t, &pairs, true).len(), 21);
    }

    #[test]
    fn orbits_on_sampled_pools_and_random_trees() {
        // Sampled pools are not closed under the action; the partition must
        // still be well-formed. Mirror-doubled trees guarantee a flip when
        // the join ports match.
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..30 {
            let n = 4 + (round % 7);
            let t = random_relabel(&random_tree(n, &mut rng), &mut rng);
            let mut pairs = all_ordered_pairs(&t);
            // Drop a pseudo-random subset to simulate a sampled pool.
            pairs.retain(|&[a, b]| !(a as usize * 31 + b as usize * 17 + round).is_multiple_of(3));
            check_orbit_invariants(&t, &pairs, false);
            check_orbit_invariants(&t, &pairs, true);
        }
    }

    #[test]
    fn orbit_partition_never_crosses_verdict_classes() {
        // Perfect symmetrizability is invariant under both generators, so an
        // orbit never mixes feasible and infeasible pairs — the invariant
        // that lets the sweep engine decide one representative per orbit.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let t = random_relabel(&random_tree(8, &mut rng), &mut rng);
            let pairs = all_ordered_pairs(&t);
            for orbit in pair_orbits(&t, &pairs, true) {
                let rep_feasible = {
                    let [a, b] = pairs[orbit.rep];
                    !perfectly_symmetrizable(&t, a, b)
                };
                for &(i, _) in &orbit.members {
                    let [a, b] = pairs[i];
                    assert_eq!(!perfectly_symmetrizable(&t, a, b), rep_feasible);
                }
            }
        }
    }

    #[test]
    fn exhaustive_definition_check_small_trees() {
        // Ground-truth Definition 1.2 by enumerating ALL labelings and ALL
        // automorphism candidates on small trees, comparing against the
        // decision procedure.
        fn ground_truth(t: &Tree, u: NodeId, v: NodeId) -> bool {
            if u == v {
                return true;
            }
            for labeled in crate::generators::all_labelings(t) {
                // Candidate flips: the unique port-preserving one.
                if let Some(f) = port_preserving_flip(&labeled) {
                    if f[u as usize] == v {
                        return true;
                    }
                }
            }
            false
        }
        let trees = vec![line(2), line(3), line(4), line(5), line(6), spider(3, 1), {
            crate::generators::caterpillar(2, &[1, 1])
        }];
        for t in trees {
            for u in 0..t.num_nodes() as NodeId {
                for v in 0..t.num_nodes() as NodeId {
                    assert_eq!(
                        perfectly_symmetrizable(&t, u, v),
                        ground_truth(&t, u, v),
                        "mismatch at ({u},{v}) in {t:?}"
                    );
                }
            }
        }
    }
}
