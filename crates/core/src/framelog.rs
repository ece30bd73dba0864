//! Append-only framed logs and atomic snapshots: the workspace's one
//! durability format, shared by the BO checkpoint ([`crate::checkpoint`])
//! and the `cets serve` write-ahead log.
//!
//! ```text
//! <8-byte magic>                        file kind and version
//! [u32 LE payload length]               per frame
//! [u64 LE FNV-1a of payload]
//! [payload: one JSON value]
//! ```
//!
//! Each file kind has its own magic, and a reader refuses any other, so
//! neither side repairs or resumes from the other's file. Payloads use the
//! vendored serde facade's shortest-roundtrip floats, so values survive a
//! log bit-exactly. [`read_frames`] returns the longest valid prefix: it
//! stops at the first torn, oversized, checksum-damaged or undecodable
//! frame and never fabricates one. [`FrameLog::open`] truncates the file
//! to that prefix before appending, so a torn tail cannot corrupt later
//! appends; under [`FsyncPolicy::Always`] creating a log fsyncs its
//! directory and every append is `sync_data`ed before it returns.
//! [`write_snapshot`] replaces a whole file atomically and durably.

use crate::CoreError;
use serde::{DeError, Serialize, Value};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Hard cap on a single frame payload; a length beyond this is corruption,
/// not a frame.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of frame header before the payload (length + checksum).
const FRAME_HEADER: usize = 4 + 8;

/// FNV-1a 64-bit hash (the frame checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors of the log layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// Filesystem or encoding failure (path context in the message).
    Io(String),
    /// The file has another kind's magic; it is left untouched.
    Corrupt(String),
    /// An armed [`KillSpec`] fired with `records` frames intact.
    SimulatedCrash {
        /// Valid frames in the log at the moment of "death".
        records: usize,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(m) | LogError::Corrupt(m) => f.write_str(m),
            LogError::SimulatedCrash { records } => {
                write!(f, "simulated crash with {records} records durable")
            }
        }
    }
}

impl std::error::Error for LogError {}

impl From<LogError> for CoreError {
    fn from(e: LogError) -> Self {
        CoreError::Checkpoint(e.to_string())
    }
}

/// When appended frames are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `sync_data` after every append: durable against power loss.
    Always,
    /// Leave flushing to the OS: crash-consistent but the tail may be
    /// lost on power failure. Used by tests and simulation.
    Never,
}

/// A simulated process kill, injected at the append boundary.
///
/// When the log holds `after_records` frames and the next append
/// arrives, only the first `torn_bytes` bytes of the new frame are
/// written (a write torn by the crash) and [`LogError::SimulatedCrash`]
/// is returned — as is every later append, exactly as if the process
/// had died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Kill once this many frames are durable.
    pub after_records: usize,
    /// Bytes of the next frame that land on disk before "death" (torn
    /// write). 0 = clean kill at the frame boundary.
    pub torn_bytes: usize,
}

/// What the recovery reader found in a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames in the valid prefix.
    pub records: usize,
    /// Byte length of the valid prefix (including the magic).
    pub valid_bytes: u64,
    /// Why scanning stopped before the end of the file, if it did. The
    /// bytes past `valid_bytes` are untrusted.
    pub truncated: Option<String>,
}

/// Encode one payload as a framed byte sequence (header + JSON payload).
pub fn encode_frame<T: Serialize + ?Sized>(payload: &T) -> Result<Vec<u8>, LogError> {
    let payload =
        serde_json::to_string(payload).map_err(|e| LogError::Io(format!("encode frame: {e}")))?;
    let payload = payload.as_bytes();
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(LogError::Io(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            payload.len()
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Decode every valid frame from raw log bytes (magic included) through
/// `decode`, stopping at the first torn, corrupt or undecodable frame.
/// A file shorter than the magic (killed before the magic landed) reads
/// as an empty log; a complete but different magic is refused.
pub fn read_frames<T>(
    bytes: &[u8],
    magic: &[u8; 8],
    mut decode: impl FnMut(&Value) -> Result<T, DeError>,
) -> Result<(Vec<T>, RecoveryReport), LogError> {
    if bytes.len() < magic.len() {
        let truncated = (!bytes.is_empty()).then(|| "incomplete file magic".to_string());
        let report = RecoveryReport {
            records: 0,
            valid_bytes: 0,
            truncated,
        };
        return Ok((Vec::new(), report));
    }
    if &bytes[..magic.len()] != magic {
        return Err(LogError::Corrupt(format!(
            "file magic mismatch: not a {} file (refusing to repair or append)",
            String::from_utf8_lossy(magic)
        )));
    }
    let mut records = Vec::new();
    let mut pos = magic.len();
    let truncated = loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break None;
        }
        if rest.len() < FRAME_HEADER {
            break Some(format!("torn frame header at byte {pos}"));
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_FRAME_LEN as usize {
            break Some(format!(
                "frame length {len} at byte {pos} exceeds the record cap"
            ));
        }
        if rest.len() < FRAME_HEADER + len {
            break Some(format!("torn payload at byte {pos}"));
        }
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&rest[4..FRAME_HEADER]);
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        if fnv1a(payload) != u64::from_le_bytes(stored) {
            break Some(format!("checksum mismatch at byte {pos}"));
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break Some(format!("non-UTF-8 payload at byte {pos}"));
        };
        let value = match serde_json::parse_value(text) {
            Ok(v) => v,
            Err(e) => break Some(format!("unparseable payload at byte {pos}: {e}")),
        };
        match decode(&value) {
            Ok(rec) => records.push(rec),
            Err(e) => break Some(format!("undecodable record at byte {pos}: {e}")),
        }
        pos += FRAME_HEADER + len;
    };
    let report = RecoveryReport {
        records: records.len(),
        valid_bytes: pos as u64,
        truncated,
    };
    Ok((records, report))
}

/// Replace `path` atomically and durably with `bytes`: write
/// `<path>.tmp`, fsync it, rename it over `path`, then fsync the parent
/// directory so the rename survives a power loss. A crash at any instant
/// leaves either the previous file or the new one.
pub fn write_snapshot(path: &Path, bytes: &[u8]) -> Result<(), LogError> {
    let tmp = path.with_extension("tmp");
    let io = |p: &Path| {
        let p = p.display().to_string();
        move |e: std::io::Error| LogError::Io(format!("snapshot {p}: {e}"))
    };
    let mut f = std::fs::File::create(&tmp).map_err(io(&tmp))?;
    f.write_all(bytes).map_err(io(&tmp))?;
    f.sync_all().map_err(io(&tmp))?;
    std::fs::rename(&tmp, path).map_err(io(path))?;
    sync_parent_dir(path).map_err(io(path.parent().unwrap_or(path)))
}

/// fsync the directory holding `path`, so that a file created or renamed
/// there keeps its directory entry through a power loss. Directory
/// handles are a Unix notion; elsewhere this does nothing, and the entry
/// is as durable as it gets.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// The append-side handle on a framed log.
#[derive(Debug)]
pub struct FrameLog {
    file: std::fs::File,
    path: PathBuf,
    fsync: FsyncPolicy,
    /// Valid frames currently in the file.
    total: usize,
    kill: Option<KillSpec>,
    kill_tripped: bool,
}

impl FrameLog {
    /// Open (or create) the log at `path`, truncating any torn tail:
    /// returns the handle positioned for append, the valid frame prefix
    /// decoded through `decode`, and the recovery report. Under
    /// [`FsyncPolicy::Always`], creating the file also fsyncs its
    /// directory, so the new log's entry survives a power loss together
    /// with the records synced into it.
    pub fn open<T>(
        path: &Path,
        magic: &[u8; 8],
        fsync: FsyncPolicy,
        decode: impl FnMut(&Value) -> Result<T, DeError>,
    ) -> Result<(FrameLog, Vec<T>, RecoveryReport), LogError> {
        let io = |e: std::io::Error| LogError::Io(format!("{}: {e}", path.display()));
        let (bytes, created) = match std::fs::read(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Vec::new(), true),
            read => (read.map_err(io)?, false),
        };
        let (records, mut report) = read_frames(&bytes, magic, decode)?;
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        if report.valid_bytes == 0 {
            // Fresh (or pre-magic-torn) file: (re)write the magic.
            file.set_len(0).map_err(io)?;
            file.write_all(magic).map_err(io)?;
            file.sync_all().map_err(io)?;
            if created && fsync == FsyncPolicy::Always {
                sync_parent_dir(path).map_err(io)?;
            }
            report.valid_bytes = magic.len() as u64;
        } else if (bytes.len() as u64) > report.valid_bytes {
            file.set_len(report.valid_bytes).map_err(io)?;
            file.sync_all().map_err(io)?;
        }
        file.seek(SeekFrom::End(0)).map_err(io)?;
        let log = FrameLog {
            file,
            path: path.to_path_buf(),
            fsync,
            total: records.len(),
            kill: None,
            kill_tripped: false,
        };
        Ok((log, records, report))
    }

    /// Arm a simulated process kill (see [`KillSpec`]).
    pub fn with_kill(mut self, kill: Option<KillSpec>) -> Self {
        self.kill = kill;
        self
    }

    /// Has the armed [`KillSpec`] fired?
    pub fn kill_tripped(&self) -> bool {
        self.kill_tripped
    }

    /// Valid frames currently in the log.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Append one frame durably (per the fsync policy). Returns the
    /// frame's ordinal in the log.
    pub fn append<T: Serialize + ?Sized>(&mut self, payload: &T) -> Result<usize, LogError> {
        let crash = LogError::SimulatedCrash {
            records: self.total,
        };
        if self.kill_tripped {
            return Err(crash);
        }
        let frame = encode_frame(payload)?;
        let io = |e: std::io::Error| LogError::Io(format!("{}: {e}", self.path.display()));
        if let Some(kill) = self.kill.filter(|k| self.total >= k.after_records) {
            // Simulated death mid-append: the first `torn_bytes` of the
            // frame land, the rest never will.
            let torn = &frame[..kill.torn_bytes.min(frame.len())];
            self.file.write_all(torn).map_err(io)?;
            self.file.flush().map_err(io)?;
            self.kill_tripped = true;
            return Err(crash);
        }
        self.file.write_all(&frame).map_err(io)?;
        if self.fsync == FsyncPolicy::Always {
            self.file.sync_data().map_err(io)?;
        }
        self.total += 1;
        Ok(self.total - 1)
    }
}
