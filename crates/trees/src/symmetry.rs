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

use crate::canon::{canon_ports, canon_structural, Canon};
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
    let in_x_half = x_half(t, x, y);
    let (a, b) = if in_x_half[u as usize] && !in_x_half[v as usize] {
        (u, v)
    } else if in_x_half[v as usize] && !in_x_half[u as usize] {
        (v, u)
    } else {
        return false;
    };
    canon_structural(t, x, Some(y), Some(a)) == canon_structural(t, y, Some(x), Some(b))
}

/// Definition 1.2 for every ordered pair at once: the row-major `n × n`
/// matrix whose entry `u * n + v` is [`perfectly_symmetrizable`]`(t, u, v)`.
///
/// The same procedure, with the per-tree work done once: the center and
/// the halves, then one marked canon per node — its own half's, marked at
/// the node — where the single-pair call computes all of it per pair. A
/// pair is symmetrizable iff its nodes are equal, or lie in different
/// halves and have equal canons. Halves of different sizes carry no mark
/// onto each other, so then only the diagonal is set.
pub fn perfectly_symmetrizable_matrix(t: &Tree) -> Vec<bool> {
    let n = t.num_nodes();
    let mut matrix = vec![false; n * n];
    for u in 0..n {
        matrix[u * n + u] = true;
    }
    let Center::Edge(x, y) = center(t) else {
        return matrix;
    };
    let in_x_half = x_half(t, x, y);
    if 2 * in_x_half.iter().filter(|&&side| side).count() != n {
        return matrix;
    }
    let canons: Vec<Canon> = (0..n as NodeId)
        .map(|a| {
            if in_x_half[a as usize] {
                canon_structural(t, x, Some(y), Some(a))
            } else {
                canon_structural(t, y, Some(x), Some(a))
            }
        })
        .collect();
    for u in (0..n).filter(|&u| in_x_half[u]) {
        for v in (0..n).filter(|&v| !in_x_half[v]) {
            if canons[u] == canons[v] {
                matrix[u * n + v] = true;
                matrix[v * n + u] = true;
            }
        }
    }
    matrix
}

/// Which nodes lie in `x`'s half: the component of `x` once the central
/// edge `{x, y}` is removed.
fn x_half(t: &Tree, x: NodeId, y: NodeId) -> Vec<bool> {
    let mut seen = vec![false; t.num_nodes()];
    seen[x as usize] = true;
    // Marked while the walk runs, `y` keeps it from crossing the edge.
    seen[y as usize] = true;
    let mut stack = vec![x];
    while let Some(a) = stack.pop() {
        for (_, b, _) in t.neighbors(a) {
            if !seen[b as usize] {
                seen[b as usize] = true;
                stack.push(b);
            }
        }
    }
    seen[y as usize] = false;
    seen
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
    // Orient the marks so u sits in x's half (the halves themselves stay
    // put — swapping both would de-synchronize marks and halves).
    let (u, v) = if x_half(t, x, y)[u as usize] { (u, v) } else { (v, u) };
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

    /// Two copies of `half` (nodes `w` and `w + n`) joined by an edge
    /// between their roots 0 and `n`: the copies of a node are perfectly
    /// symmetrizable.
    fn mirror_double(half: &Tree) -> Tree {
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
        Tree::from_edges(2 * n, &edges).unwrap()
    }

    #[test]
    fn witness_on_bigger_trees() {
        let mut rng = StdRng::seed_from_u64(21);
        let half = random_tree(9, &mut rng);
        let n = half.num_nodes();
        let doubled = mirror_double(&half);
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

    /// The matrix entry of every ordered pair of `t` is the single-pair
    /// procedure's verdict; returns how many ordered pairs of distinct
    /// nodes it sets.
    fn matrix_matches_the_pairs(t: &Tree) -> usize {
        let n = t.num_nodes();
        let matrix = perfectly_symmetrizable_matrix(t);
        assert_eq!(matrix.len(), n * n);
        for u in 0..n as NodeId {
            for v in 0..n as NodeId {
                assert_eq!(
                    matrix[u as usize * n + v as usize],
                    perfectly_symmetrizable(t, u, v),
                    "({u},{v}) in {t:?}"
                );
            }
        }
        matrix.iter().filter(|&&set| set).count() - n
    }

    #[test]
    fn matrix_matches_the_pair_procedure_on_every_free_tree_up_to_11() {
        let mut pairs = 0;
        for n in 1..=11 {
            for t in crate::enumerate::free_trees(n) {
                pairs += matrix_matches_the_pairs(&t);
            }
        }
        assert!(pairs > 0, "some free tree has a symmetrizable pair");
    }

    #[test]
    fn matrix_matches_the_pair_procedure_on_random_relabeled_trees() {
        let mut rng = StdRng::seed_from_u64(0x3A7);
        for n in 12..=40 {
            let t = random_relabel(&random_tree(n, &mut rng), &mut rng);
            matrix_matches_the_pairs(&t);
            // Random trees rarely have isomorphic halves, so mirror-doubled
            // ones exercise the pairs the matrix sets.
            if n % 2 == 0 {
                let doubled =
                    random_relabel(&mirror_double(&random_tree(n / 2, &mut rng)), &mut rng);
                assert!(matrix_matches_the_pairs(&doubled) >= n, "every mirror pair, both orders");
            }
        }
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

    #[test]
    fn star_and_spider_have_no_flip() {
        // Stars and uniform odd spiders have a central node, so no
        // port-preserving flip exists.
        for t in [crate::generators::star(4), spider(3, 4)] {
            assert!(port_preserving_flip(&t).is_none());
        }
    }

    #[test]
    fn asymmetric_n7_tree_with_central_edge_has_no_flip() {
        // Spider with legs 1, 2, 3 (7 nodes): the diameter path has odd
        // length, so the tree has a central *edge* {0, 4} — but the halves
        // have 4 and 3 nodes, so no flip exists.
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
            let n = t.num_nodes();
            let matrix = perfectly_symmetrizable_matrix(&t);
            for u in 0..n as NodeId {
                for v in 0..n as NodeId {
                    let truth = ground_truth(&t, u, v);
                    assert_eq!(
                        perfectly_symmetrizable(&t, u, v),
                        truth,
                        "mismatch at ({u},{v}) in {t:?}"
                    );
                    let entry = matrix[u as usize * n + v as usize];
                    assert_eq!(entry, truth, "matrix mismatch at ({u},{v}) in {t:?}");
                }
            }
        }
    }
}
