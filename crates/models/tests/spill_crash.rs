//! Kill-matrix crash safety for the spill log's record tags.
//!
//! The spill log persists three frame kinds — [`KIND_USER_EXACT`],
//! [`KIND_COHORT`], [`KIND_USER_SKETCH`] — and its crash contract is:
//! a reopen after a crash truncates any torn tail back to the last
//! whole frame, every frame wholly before the cut survives
//! byte-identical, and the repaired log accepts new appends. These
//! tests drive that contract from the outside:
//!
//! * a **kill matrix** cuts a mixed-kind log at every frame boundary
//!   and at mid-frame offsets, reopening each cut in a fresh copy;
//! * a **store-level** test crashes a cohort+sketched
//!   [`EstimatorStore`] with a torn tail past its synced spill prefix
//!   and asserts reopening is *cut-invariant*: every cut at or past
//!   the synced length rehydrates bit-identical cohort priors on
//!   open, and a snapshot restore over the torn log (which clears it
//!   — the FASEAMS2 snapshot is self-contained) keeps demoting and
//!   re-promoting sketch records afterwards.
//!
//! Cuts *inside* synced data are out of contract — fsynced bytes do
//! not vanish in the crash model; that would be disk corruption, which
//! the CRC frames detect but this matrix does not exercise.

use fasea_models::spill::{KIND_COHORT, KIND_USER_EXACT, KIND_USER_SKETCH};
use fasea_models::{EstimatorStore, SpillLog, StoreConfig, UserId};
use fasea_store::TempDir;
use std::fs;
use std::path::{Path, PathBuf};

/// The single generation-0 log file a freshly opened dir contains.
fn log_file(dir: &Path) -> PathBuf {
    dir.join("spill-000000.log")
}

/// Copies `src`'s log file into a fresh dir, truncated to `len` bytes.
fn cut_copy(src: &Path, tag: &str, len: u64) -> TempDir {
    let dst = TempDir::new(&format!("spill-crash-{tag}"));
    let bytes = fs::read(log_file(src)).unwrap();
    let keep = bytes.len().min(len as usize);
    fs::write(log_file(&dst), &bytes[..keep]).unwrap();
    dst
}

#[test]
fn kill_matrix_over_mixed_kind_frames() {
    let dir = TempDir::new("spill-crash-matrix");
    // (kind, key, payload) in an order that interleaves all three
    // tags, including a same-key overwrite whose survival depends on
    // where the cut lands.
    let frames: Vec<(u8, u64, Vec<u8>)> = vec![
        (KIND_USER_EXACT, 7, vec![0x11; 40]),
        (KIND_COHORT, 2, vec![0x22; 90]),
        (KIND_USER_SKETCH, 7, vec![0x33; 64]),
        (KIND_USER_EXACT, 8, vec![0x44; 17]),
        (KIND_USER_EXACT, 7, vec![0x55; 40]), // overwrites key 7
        (KIND_COHORT, 0, vec![0x66; 90]),
    ];
    let mut boundaries = Vec::new();
    {
        let mut log = SpillLog::open(&dir, 42).unwrap();
        boundaries.push(log.file_bytes()); // header-only boundary
        for (kind, key, blob) in &frames {
            log.append(*kind, *key, blob).unwrap();
            boundaries.push(log.file_bytes());
        }
        log.sync().unwrap();
    }

    // Cut at every frame boundary and at two offsets inside every
    // frame (first byte of the frame header, middle of the payload).
    let mut cuts = Vec::new();
    for w in boundaries.windows(2) {
        cuts.push((w[0], w[0]));
        cuts.push((w[1].min(w[0] + 1), w[0]));
        cuts.push((w[0] + (w[1] - w[0]) / 2, w[0]));
    }
    let end = *boundaries.last().unwrap();
    cuts.push((end, end));

    for (i, &(cut, survives_to)) in cuts.iter().enumerate() {
        let copy = cut_copy(&dir, &format!("matrix-cut{i}"), cut);
        let mut log = SpillLog::open(&copy, 42).unwrap();
        assert_eq!(
            log.file_bytes(),
            survives_to,
            "cut {i} at byte {cut}: reopen must truncate to the last whole frame"
        );
        // Frames wholly before the surviving boundary read back
        // byte-identical, under last-write-wins for duplicate keys.
        let whole = boundaries.iter().filter(|&&b| b <= survives_to).count() - 1;
        let mut expect: std::collections::BTreeMap<(u8, u64), &[u8]> =
            std::collections::BTreeMap::new();
        for (kind, key, blob) in frames.iter().take(whole) {
            expect.insert((*kind, *key), blob);
        }
        for (&(kind, key), blob) in &expect {
            assert_eq!(
                log.read(kind, key).unwrap().as_deref(),
                Some(*blob),
                "cut {i}: surviving ({kind},{key}) record corrupted"
            );
        }
        // Truncated-away keys are gone, not half-visible.
        for (kind, key, _) in frames.iter().skip(whole) {
            if !expect.contains_key(&(*kind, *key)) {
                assert_eq!(
                    log.read(*kind, *key).unwrap(),
                    None,
                    "cut {i}: ghost record"
                );
            }
        }
        // The repaired tail accepts appends of every kind.
        log.append(KIND_USER_SKETCH, 99, b"post-crash").unwrap();
        assert_eq!(
            log.read(KIND_USER_SKETCH, 99).unwrap().unwrap(),
            b"post-crash"
        );
    }
}

fn probe(store: &mut EstimatorStore, users: u64, dim: usize) -> Vec<u64> {
    let x: Vec<f64> = (0..dim).map(|j| 0.25 + j as f64 * 0.125).collect();
    let mut out = Vec::new();
    for u in 0..users {
        let h = store.resolve(UserId(u));
        let est = store.estimator_for_select(h, 1_000_000 + u).unwrap();
        out.push(est.point_estimate(&x).to_bits());
    }
    out
}

/// Shared body for the store-level torn-tail matrix, in both state
/// modes: `sketched = false` proves byte-identical recovered digests
/// (`save_state` blobs) for exact-tier records; `sketched = true`
/// additionally proves sketch records keep promoting after restore.
fn run_cut_invariance(tag: &str, sketched: bool) {
    let dim = 8;
    let users = 64u64;
    let dir = TempDir::new(&format!("spill-crash-{tag}"));
    let mut config =
        StoreConfig::bounded(dim, 1.0, 24 << 10, 1 << 20, &dir).with_cohorts(4, 0xC0_FFEE, 2);
    if sketched {
        config = config.with_sketched(3);
    }
    let reopen_config = config.clone();
    let mut store = EstimatorStore::new(config).expect("open store");

    // Drive all three record kinds into the log: folds train cohort
    // priors (persisted by sync), later observations materialize users
    // whose demotions spill sketch records.
    let mut x = vec![0.0f64; dim];
    let mut t = 0u64;
    for _ in 0..6 {
        for u in 0..users {
            for (j, v) in x.iter_mut().enumerate() {
                *v = ((u as usize * 13 + j * 5 + t as usize) % 17) as f64 / 17.0 - 0.4;
            }
            let h = store.resolve(UserId(u));
            store.observe(h, &x, (u % 2) as f64, t).expect("observe");
            store.enforce_budget(t).expect("budget");
            t += 1;
        }
    }
    store.sync().expect("sync");
    let snapshot = store.save_state();
    assert!(
        store.stats().spilled + store.stats().warm > 0,
        "fixture never left the hot tier — the matrix would be vacuous"
    );
    drop(store);

    let synced_len = fs::metadata(log_file(&dir)).unwrap().len();
    // Crash mid-append: garbage past the synced prefix.
    let garbage = 37u64;
    let mut bytes = fs::read(log_file(&dir)).unwrap();
    bytes.extend(std::iter::repeat_n(0xAB, garbage as usize));
    fs::write(log_file(&dir), &bytes).unwrap();

    // Control: open (no snapshot) over the exact synced prefix — cold
    // users read through the rehydrated cohort priors, so the probe
    // fingerprints exactly the KIND_COHORT records.
    let control_dir = cut_copy(&dir, &format!("{tag}-control"), synced_len);
    let (expected_cold, expected_restored, expected_digest) = {
        let mut cfg = reopen_config.clone();
        cfg.spill_dir = Some(control_dir.to_path_buf());
        let mut control_store = EstimatorStore::new(cfg).unwrap();
        assert!(
            control_store.stats().cohorts_materialized > 0,
            "control: cohort priors did not rehydrate"
        );
        let cold = probe(&mut control_store, users, dim);
        control_store.restore_state(&snapshot).expect("restore");
        let restored = probe(&mut control_store, users, dim);
        let digest = control_store.save_state();
        (cold, restored, digest)
    };
    assert_ne!(
        expected_cold, expected_restored,
        "restored private state must differ from the cohort-prior read-through"
    );

    // Matrix: every cut at or past the synced length behaves exactly
    // like the clean control, both on open and after restore.
    for (i, cut) in [synced_len, synced_len + 1, synced_len + garbage]
        .into_iter()
        .enumerate()
    {
        let copy = cut_copy(&dir, &format!("{tag}-cut{i}"), cut);
        let mut cfg = reopen_config.clone();
        cfg.spill_dir = Some(copy.to_path_buf());
        let mut store = EstimatorStore::new(cfg).unwrap();
        assert!(
            store.stats().cohorts_materialized > 0,
            "cut {i}: cohort priors did not rehydrate"
        );
        let cold = probe(&mut store, users, dim);
        assert_eq!(
            cold, expected_cold,
            "cut {i} at byte {cut}: rehydrated cohort priors diverge from control"
        );
        store.restore_state(&snapshot).expect("restore after cut");
        let restored = probe(&mut store, users, dim);
        assert_eq!(
            restored, expected_restored,
            "cut {i} at byte {cut}: restored predictions diverge from control"
        );
        // The recovered digest — the full serialized store — is
        // byte-identical to the control's, cut-invariantly.
        assert_eq!(
            store.save_state(),
            expected_digest,
            "cut {i} at byte {cut}: recovered digest diverges from control"
        );
        // The cleared post-restore log keeps working: demote over
        // budget, fault back in — in sketched mode reconstructing
        // from fresh sketch records.
        store.enforce_budget(t).expect("post-restore budget");
        assert!(
            store.stats().demotions > 0,
            "cut {i}: post-restore budget sweep demoted nothing"
        );
        let _ = probe(&mut store, users, dim);
        if sketched {
            assert!(
                store.stats().sketch_promotions > 0,
                "cut {i}: no sketch record promoted from the post-restore log"
            );
        } else {
            assert!(
                store.stats().faults > 0,
                "cut {i}: no exact record faulted from the post-restore log"
            );
        }
        drop(store);
    }
}

#[test]
fn cohort_exact_restore_is_cut_invariant_with_byte_identical_digests() {
    run_cut_invariance("store-exact", false);
}

#[test]
fn cohort_sketched_restore_is_cut_invariant_over_the_torn_tail() {
    run_cut_invariance("store-sketched", true);
}
