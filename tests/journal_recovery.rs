//! Property tests for checkpoint-journal recovery (the crash model of
//! docs/persistence.md): a journal truncated at *any* byte offset, or hit
//! by *any* single-bit flip, parses to a clean prefix of the original
//! records — never a panic, never a wrong or mutated row. A journal
//! record holds a cell's outcome, from which its row and certificate are
//! rendered, so an outcome equal to the one journaled is the row that was
//! journaled. CRC-32 detects every single-bit error, so a flipped record
//! can only be dropped, not misread.

use proptest::prelude::*;
use rvz_bench::checkpoint::{encode_journal, parse_journal};
use rvz_bench::sweep::{
    self, CellOutcome, Delay, Executor, Family, SweepInstance, SweepSpec, Variant,
};
use std::collections::HashMap;
use std::sync::OnceLock;

const FINGERPRINT: u64 = 0xFEED_FACE_CAFE_F00D;

type Outcomes = HashMap<u64, Option<CellOutcome>>;

/// Genuine sweep outcomes (rows *and* ∀-delay certificates) journaled
/// once; every property mutates the same encoded byte-stream.
fn fixture() -> &'static (Vec<u8>, Outcomes) {
    static FIXTURE: OnceLock<(Vec<u8>, Outcomes)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = SweepSpec {
            experiment: "journal-recovery",
            families: vec![Family::Line, Family::Spider3],
            sizes: vec![5, 6],
            delays: vec![Delay::Zero, Delay::Adversarial],
            variants: vec![Variant::BasicWalkFsa],
            pairs_per_cell: 2,
            seed: 0xA5A5,
            threads: 1,
            executor: Executor::ExactDecide,
            agents: 2,
        };
        let records: Vec<(u64, Option<CellOutcome>)> = sweep::cells(&spec)
            .iter()
            .map(|cell| {
                let inst = SweepInstance::for_cell(cell);
                (cell.cell_seed(), sweep::run_cell_decide_certified(cell, &inst))
            })
            .collect();
        assert!(records.iter().any(|(_, o)| o.as_ref().is_some_and(|o| o.certificate.is_some())));
        let journal = encode_journal(FINGERPRINT, records.iter().map(|(s, o)| (*s, o.as_ref())));
        (journal, records.into_iter().collect())
    })
}

/// Every recovered cell must be one of the originals, with its outcome.
fn assert_clean_subset(bytes: &[u8], canon: &Outcomes) {
    let snap = parse_journal(bytes);
    if let Some(fp) = snap.fingerprint {
        assert_eq!(fp, FINGERPRINT, "a surviving header must carry the true fingerprint");
    }
    for (seed, outcome) in &snap.cells {
        let original = canon
            .get(seed)
            .unwrap_or_else(|| panic!("recovered cell {seed:#x} was never journaled"));
        assert_eq!(outcome, original, "recovered cell {seed:#x} mutated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncation_at_any_offset_recovers_a_clean_prefix(cut in any::<usize>()) {
        let (bytes, canon) = fixture();
        let cut = cut % (bytes.len() + 1);
        assert_clean_subset(&bytes[..cut], canon);
        // Full-length input is the intact journal: everything recovers.
        if cut == bytes.len() {
            let snap = parse_journal(bytes);
            prop_assert_eq!(snap.cells.len(), canon.len());
            prop_assert_eq!(snap.fingerprint, Some(FINGERPRINT));
            prop_assert_eq!(snap.bad_records, 0);
            prop_assert!(!snap.torn_tail);
        }
    }

    #[test]
    fn single_bit_flip_never_yields_a_wrong_row(
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (bytes, canon) = fixture();
        let mut mangled = bytes.clone();
        let pos = pos % mangled.len();
        mangled[pos] ^= 1 << bit;
        assert_clean_subset(&mangled, canon);
    }

    #[test]
    fn truncate_then_flip_never_yields_a_wrong_row(
        cut in any::<usize>(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (bytes, canon) = fixture();
        let mut mangled = bytes[..cut % (bytes.len() + 1)].to_vec();
        if !mangled.is_empty() {
            let pos = pos % mangled.len();
            mangled[pos] ^= 1 << bit;
        }
        assert_clean_subset(&mangled, canon);
    }
}
