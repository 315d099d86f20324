//! Instance generation shared by the experiments: tree families and
//! feasible (non-perfectly-symmetrizable) start tuples — pairs are the
//! `k = 2` tuples.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rvz_trees::generators;
use rvz_trees::{perfectly_symmetrizable, NodeId, Tree};

/// A named tree family member.
#[derive(Debug, Clone)]
pub struct Instance {
    pub family: &'static str,
    pub tree: Tree,
}

/// Builds the member of a named family at target size `n` (randomized
/// families draw from `rng`). Returns `None` for an unknown family name.
///
/// Height-parameterized families (`complete-binary`, `binomial`) pick the
/// height whose node count is nearest `n`, clamped to tractable depths, so
/// every family can sit on a common size axis.
pub fn build_family(family: &str, n: usize, rng: &mut StdRng) -> Option<Tree> {
    let n = n.max(4);
    let h = (n as f64).log2() as usize;
    Some(match family {
        "line" => generators::line(n),
        "line-rnd" => generators::random_relabel(&generators::line(n), rng),
        "spider3" => generators::spider(3, (n / 3).max(1)),
        "caterpillar" => {
            let spine = (n / 2).max(2);
            let hairs: Vec<usize> = (0..spine).map(|i| usize::from(i % 2 == 0)).collect();
            generators::caterpillar(spine, &hairs)
        }
        "random" => generators::random_relabel(&generators::random_tree(n, rng), rng),
        "random-deg3" => generators::random_bounded_degree_tree(n, 3, rng),
        "complete-binary" => generators::complete_binary(h.clamp(2, 9)),
        "binomial" => generators::binomial(h.clamp(2, 12)),
        "star" => generators::star(n.max(3)),
        _ => return None,
    })
}

/// The evaluation families: the workloads the paper's introduction
/// motivates (lines for the lower bounds, few-leaf trees for the gap, the
/// classical symmetric families, and random trees as the generic case).
pub fn families(scale: usize, seed: u64) -> Vec<Instance> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let per_size: &[&str] =
        &["line", "line-rnd", "spider3", "caterpillar", "random", "random-deg3"];
    for &n in &[scale / 2, scale] {
        for &family in per_size {
            out.push(Instance {
                family,
                tree: build_family(family, n, &mut rng).expect("known family"),
            });
        }
    }
    for family in ["complete-binary", "binomial", "star"] {
        out.push(Instance {
            family,
            tree: build_family(family, scale, &mut rng).expect("known family"),
        });
    }
    out
}

/// Up to `count` distinct feasible start `k`-tuples (pairwise distinct,
/// no pairwise perfectly-symmetrizable entries — see
/// [`exhaustive_feasible_tuples`] for why that is the right feasibility
/// notion), sampled deterministically from `seed`: up to 200 draws of `k`
/// uniform nodes, the lexicographically first feasible tuple when no draw
/// is feasible (tiny trees), then a seeded shuffle. Every sampled start
/// axis draws here — at `k = 2`, the start pairs of the pair grids and of
/// the classic experiments.
pub fn feasible_tuples(tree: &Tree, k: usize, count: usize, seed: u64) -> Vec<Vec<NodeId>> {
    assert!(k >= 2, "an ensemble has at least two lanes");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = tree.num_nodes() as NodeId;
    let feasible = |tuple: &[NodeId]| {
        for i in 0..tuple.len() {
            for j in i + 1..tuple.len() {
                if tuple[i] == tuple[j] || perfectly_symmetrizable(tree, tuple[i], tuple[j]) {
                    return false;
                }
            }
        }
        true
    };
    let mut tuples: Vec<Vec<NodeId>> = Vec::new();
    let mut attempts = 0;
    while tuples.len() < count && attempts < 200 {
        attempts += 1;
        let tuple: Vec<NodeId> = (0..k).map(|_| rng.gen_range(0..n)).collect();
        if !tuples.contains(&tuple) && feasible(&tuple) {
            tuples.push(tuple);
        }
    }
    // Deterministic fallback for tiny trees: the lexicographically first
    // feasible tuple, if any exists.
    if tuples.is_empty() {
        if let Some(first) = exhaustive_feasible_tuples(tree, k).into_iter().next() {
            tuples.push(first);
        }
    }
    tuples.shuffle(&mut rng);
    tuples.truncate(count);
    tuples
}

/// *Every* ordered feasible start `k`-tuple of a tree, in lexicographic
/// order: the exhaustive-certification axis (e9 at `k = 2`, e11 at
/// `k = 3`) quantifies over all of them, so no rng and no sampling are
/// involved. A tuple is feasible when its entries are pairwise distinct
/// and **no pair** of them is perfectly symmetrizable: a symmetrizable
/// pair can never meet, so a tuple containing one can never gather —
/// quantifying over it would blame the instance, not the automaton.
/// Ordered, because lane-asymmetric schedules (delay or crash on a
/// specific lane) make "delay the copy at `b`" and "delay the copy at
/// `a`" different adversaries.
pub fn exhaustive_feasible_tuples(tree: &Tree, k: usize) -> Vec<Vec<NodeId>> {
    assert!(k >= 2, "an ensemble has at least two lanes");
    let n = tree.num_nodes() as NodeId;
    // Memoize the symmetric pair predicate once; the tuple walk below
    // re-reads each unordered pair many times.
    let feasible_pair = |a: NodeId, b: NodeId| !perfectly_symmetrizable(tree, a, b);
    let mut ok = vec![true; (n * n) as usize];
    for a in 0..n {
        for b in 0..n {
            ok[(a * n + b) as usize] = a != b && feasible_pair(a, b);
        }
    }
    let mut out = Vec::new();
    let mut tuple: Vec<NodeId> = Vec::with_capacity(k);
    // Iterative lexicographic DFS over ordered tuples without repetition.
    fn extend(
        tuple: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
        ok: &[bool],
        n: NodeId,
        k: usize,
    ) {
        if tuple.len() == k {
            out.push(tuple.clone());
            return;
        }
        'candidate: for v in 0..n {
            for &u in tuple.iter() {
                if !ok[(u * n + v) as usize] {
                    continue 'candidate;
                }
            }
            tuple.push(v);
            extend(tuple, out, ok, n, k);
            tuple.pop();
        }
    }
    extend(&mut tuple, &mut out, &ok, n, k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_nonempty_and_valid() {
        let fam = families(32, 7);
        assert!(fam.len() >= 8);
        for inst in &fam {
            assert!(inst.tree.num_nodes() >= 3, "{}", inst.family);
        }
    }

    #[test]
    fn exhaustive_pairs_are_ordered_feasible_and_complete() {
        // Hand-derived expectations (not recomputed via the same predicate,
        // which would be a tautology): a line with a central NODE admits no
        // perfect symmetrization at all, so every ordered pair is feasible;
        // a line with a central EDGE symmetrizes exactly the mirror pairs
        // (a, n-1-a), which must all be excluded.
        let odd = generators::line(5);
        let pairs = exhaustive_feasible_tuples(&odd, 2);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "lexicographic order");
        assert_eq!(pairs.len(), 5 * 4, "all 20 ordered pairs of line(5) are feasible");

        let even = generators::line(6);
        let pairs = exhaustive_feasible_tuples(&even, 2);
        assert_eq!(pairs.len(), 6 * 5 - 6, "exactly the 6 mirror pairs of line(6) are excluded");
        for a in 0..6u32 {
            assert!(!pairs.contains(&vec![a, 5 - a]), "mirror pair ({a}, {}) is infeasible", 5 - a);
        }
        for pair in &pairs {
            assert_ne!(pair[0], pair[1]);
            assert!(!perfectly_symmetrizable(&even, pair[0], pair[1]));
        }
    }

    #[test]
    fn exhaustive_tuples_generalize_the_pairs() {
        for t in [generators::line(5), generators::line(6), generators::spider(3, 2)] {
            // k = 2 is the plain pair enumeration: every ordered pair of
            // distinct, non-symmetrizable nodes, lexicographically.
            let n = t.num_nodes() as NodeId;
            let pairs: Vec<Vec<NodeId>> = (0..n)
                .flat_map(|a| (0..n).map(move |b| vec![a, b]))
                .filter(|p| p[0] != p[1] && !perfectly_symmetrizable(&t, p[0], p[1]))
                .collect();
            assert_eq!(exhaustive_feasible_tuples(&t, 2), pairs);
            // k = 3: lexicographic, pairwise distinct, pairwise feasible.
            let triples = exhaustive_feasible_tuples(&t, 3);
            assert!(triples.windows(2).all(|w| w[0] < w[1]), "lexicographic order");
            for tr in &triples {
                for i in 0..3 {
                    for j in i + 1..3 {
                        assert_ne!(tr[i], tr[j]);
                        assert!(!perfectly_symmetrizable(&t, tr[i], tr[j]));
                    }
                }
            }
        }
        // Hand-derived count: line(5) has no symmetrizable pair at all, so
        // every ordered triple of distinct nodes is feasible.
        assert_eq!(exhaustive_feasible_tuples(&generators::line(5), 3).len(), 5 * 4 * 3);
        // line(6) excludes exactly triples containing a mirror pair: by
        // inclusion over the 3 slots pairs can occupy, 6·5·4 − 6·3·4·... —
        // count directly instead: each of the 6 ordered mirror pairs can sit
        // in 3 ordered slot choices with 4 free third nodes, and no triple
        // contains two distinct mirror pairs, so 120 − 6·3·4 = 48.
        assert_eq!(exhaustive_feasible_tuples(&generators::line(6), 3).len(), 48);
    }

    #[test]
    fn pairs_are_feasible() {
        for inst in families(24, 3) {
            for pair in feasible_tuples(&inst.tree, 2, 3, 11) {
                assert_ne!(pair[0], pair[1]);
                assert!(!perfectly_symmetrizable(&inst.tree, pair[0], pair[1]), "{}", inst.family);
            }
        }
    }
}
