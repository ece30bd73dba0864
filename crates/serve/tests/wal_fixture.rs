//! The service log format is pinned by a log an earlier build wrote (see
//! `fixtures/ci_spool_wal/README.md`): a copy must replay to the summary
//! that build printed, and re-encoding its records must give its bytes.

use cets_serve::wal::{encode_frame, read_frames, WAL_FILE_NAME, WAL_MAGIC};
use cets_serve::{ServeConfig, Service};

#[test]
fn pinned_wal_replays_to_its_recorded_summary() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ci_spool_wal");
    let bytes = std::fs::read(fixture.join(WAL_FILE_NAME)).unwrap();
    let dir = std::env::temp_dir().join(format!("cets_wal_fixture_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(WAL_FILE_NAME), &bytes).unwrap();
    let svc = Service::open(ServeConfig::new(&dir)).unwrap();
    assert_eq!(svc.recovery.truncated, None);
    let summary = std::fs::read_to_string(fixture.join("summary.txt")).unwrap();
    assert_eq!(svc.summary().render(), summary);
    drop(svc);
    assert!(
        std::fs::read(dir.join(WAL_FILE_NAME)).unwrap() == bytes,
        "open rewrote the log"
    );
    std::fs::remove_dir_all(&dir).ok();
    let (records, _) = read_frames(&bytes).unwrap();
    let frames = records.iter().map(|r| encode_frame(r).unwrap());
    let again: Vec<u8> = WAL_MAGIC.iter().copied().chain(frames.flatten()).collect();
    assert!(
        again == bytes,
        "re-encoded records differ from the pinned log"
    );
}
